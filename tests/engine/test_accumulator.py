"""Tests for the streaming moment accumulator."""

import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.npyio import NpzFile

from repro.core.mechanism import FunctionalMechanism
from repro.core.objectives import (
    NORM_TOLERANCE,
    LinearRegressionObjective,
    LogisticRegressionObjective,
)
from repro.engine.accumulator import DEFAULT_BLOCK_SIZE, MomentAccumulator
from repro.engine.cache import decode_entry, encode_entry
from repro.exceptions import (
    CacheIntegrityError,
    DataError,
    DegreeError,
    DimensionMismatchError,
    DomainError,
    WireFormatError,
)
from repro.federated.wire import (
    PartyEnvelope,
    decode_envelope,
    encode_envelope,
    schema_fingerprint,
)


class TestUpdateValidation:
    def test_rejects_wrong_width(self):
        with pytest.raises(DataError):
            MomentAccumulator(3).update(np.zeros((4, 2)), np.zeros(4))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError):
            MomentAccumulator(2).update(np.zeros((4, 2)), np.zeros(3))

    def test_rejects_non_finite(self):
        X = np.array([[0.1, np.inf]])
        with pytest.raises(DataError):
            MomentAccumulator(2).update(X, np.zeros(1))

    def test_rejects_unnormalized_features(self):
        X = np.array([[2.0, 0.0]])
        with pytest.raises(DomainError):
            MomentAccumulator(2).update(X, np.zeros(1))

    def test_rejects_out_of_range_target(self):
        with pytest.raises(DomainError):
            MomentAccumulator(2).update(np.zeros((1, 2)), np.array([1.5]))

    def test_validate_false_skips_domain_checks(self):
        acc = MomentAccumulator(2, validate=False)
        acc.update(np.array([[2.0, 0.0]]), np.array([5.0]))
        assert acc.n_rows == 1

    def test_empty_chunk_is_noop(self):
        acc = MomentAccumulator(2)
        acc.update(np.zeros((0, 2)), np.zeros(0))
        assert acc.n_rows == 0
        snap = acc.snapshot()
        assert snap.n == 0
        assert np.array_equal(snap.S2, np.zeros((2, 2)))

    def test_invalid_constructor_args(self):
        with pytest.raises(DataError):
            MomentAccumulator(0)
        with pytest.raises(DataError):
            MomentAccumulator(2, block_size=0)


class TestAgainstDirectAggregation:
    def test_linear_coefficients_match(self, stream_data):
        X, y = stream_data
        objective = LinearRegressionObjective(X.shape[1])
        acc = MomentAccumulator(X.shape[1], block_size=512)
        for start in range(0, X.shape[0], 333):
            acc.update(X[start : start + 333], y[start : start + 333])
        form = acc.quadratic_form(objective)
        direct = objective.aggregate_quadratic(X, y)
        np.testing.assert_allclose(form.M, direct.M, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(form.alpha, direct.alpha, rtol=1e-12, atol=1e-14)
        assert form.beta == pytest.approx(direct.beta, rel=1e-12)

    def test_logistic_coefficients_match(self, stream_data, labels):
        X, _ = stream_data
        objective = LogisticRegressionObjective(X.shape[1])
        acc = MomentAccumulator(X.shape[1], block_size=512).update(X, labels)
        form = acc.quadratic_form(objective)
        direct = objective.aggregate_quadratic(X, labels)
        np.testing.assert_allclose(form.M, direct.M, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(form.alpha, direct.alpha, rtol=1e-12, atol=1e-14)
        assert form.beta == pytest.approx(direct.beta, rel=1e-12)

    def test_chebyshev_logistic_supported(self, stream_data, labels):
        X, _ = stream_data
        objective = LogisticRegressionObjective(X.shape[1], approximation="chebyshev")
        acc = MomentAccumulator(X.shape[1]).update(X, labels)
        form = acc.quadratic_form(objective)
        direct = objective.aggregate_quadratic(X, labels)
        np.testing.assert_allclose(form.M, direct.M, rtol=1e-12, atol=1e-14)

    def test_higher_order_logistic_rejected(self, stream_data, labels):
        X, _ = stream_data
        acc = MomentAccumulator(X.shape[1]).update(X, labels)
        with pytest.raises(DegreeError):
            acc.quadratic_form(LogisticRegressionObjective(X.shape[1], order=4))

    def test_dim_mismatch_rejected(self, stream_data):
        X, y = stream_data
        acc = MomentAccumulator(X.shape[1]).update(X, y)
        with pytest.raises(DimensionMismatchError):
            acc.quadratic_form(LinearRegressionObjective(X.shape[1] + 1))


class TestChunkInvariance:
    def test_chunking_never_changes_bits(self, stream_data, bit_identical):
        X, y = stream_data
        reference = MomentAccumulator(X.shape[1], block_size=256).update(X, y)
        for chunk in (1, 7, 100, 256, 999, 5000):
            acc = MomentAccumulator(X.shape[1], block_size=256)
            for start in range(0, X.shape[0], chunk):
                acc.update(X[start : start + chunk], y[start : start + chunk])
            assert bit_identical(acc.snapshot(), reference.snapshot()), chunk

    def test_snapshot_does_not_mutate(self, stream_data, bit_identical):
        X, y = stream_data
        acc = MomentAccumulator(X.shape[1], block_size=4096)
        acc.update(X[:100], y[:100])  # pending tail only
        first = acc.snapshot()
        acc.update(X[100:200], y[100:200])
        reference = MomentAccumulator(X.shape[1], block_size=4096).update(X[:200], y[:200])
        assert bit_identical(acc.snapshot(), reference.snapshot())
        assert first.n == 100

    def test_caller_mutation_after_update_is_harmless(self):
        X = np.full((3, 2), 0.1)
        y = np.full(3, 0.5)
        acc = MomentAccumulator(2).update(X, y)
        X[:] = 0.7  # tail rows must have been copied
        snap = acc.snapshot()
        assert snap.S1[0] == pytest.approx(0.3)


class TestSerialization:
    def test_npz_round_trip_bit_identical(self, tmp_path, stream_data, bit_identical):
        X, y = stream_data
        acc = MomentAccumulator(X.shape[1], block_size=512).update(X, y)
        path = tmp_path / "acc.npz"
        acc.save(path)
        loaded = MomentAccumulator.load(path)
        assert loaded.dim == acc.dim
        assert loaded.block_size == acc.block_size
        assert bit_identical(loaded.snapshot(), acc.snapshot())

    def test_round_trip_of_empty_accumulator(self, tmp_path, bit_identical):
        acc = MomentAccumulator(4)
        path = tmp_path / "empty.npz"
        acc.save(path)
        loaded = MomentAccumulator.load(path)
        assert loaded.n_rows == 0
        assert bit_identical(loaded.snapshot(), acc.snapshot())

    def test_save_is_non_mutating(self, tmp_path, stream_data, bit_identical):
        X, y = stream_data
        acc = MomentAccumulator(X.shape[1], block_size=4096).update(X[:10], y[:10])
        acc.save(tmp_path / "a.npz")
        acc.update(X[10:20], y[10:20])
        reference = MomentAccumulator(X.shape[1], block_size=4096).update(X[:20], y[:20])
        assert bit_identical(acc.snapshot(), reference.snapshot())

    def test_mid_stream_round_trip_resumes_exact_block_boundaries(
        self, tmp_path, stream_data, bit_identical
    ):
        """A save/load cycle between two updates must be invisible: the
        pending partial tail round-trips as raw rows, so later blocks
        form at the same canonical boundaries (serve's evict-and-reload
        path relies on this for fit-digest identity)."""
        X, y = stream_data
        acc = MomentAccumulator(X.shape[1], block_size=256).update(X[:100], y[:100])
        path = tmp_path / "mid.npz"
        acc.save(path)
        resumed = MomentAccumulator.load(path).update(X[100:500], y[100:500])
        reference = MomentAccumulator(X.shape[1], block_size=256).update(
            X[:500], y[:500]
        )
        assert resumed.n_rows == 500
        assert bit_identical(resumed.snapshot(), reference.snapshot())


class TestMechanismEntryPoint:
    def test_perturb_from_accumulator_matches_quadratic_path(self, stream_data):
        X, y = stream_data
        objective = LinearRegressionObjective(X.shape[1])
        acc = MomentAccumulator(X.shape[1]).update(X, y)
        noisy_a, record_a = FunctionalMechanism(1.0, rng=5).perturb_from_accumulator(
            acc, objective
        )
        noisy_b, record_b = FunctionalMechanism(1.0, rng=5).perturb_quadratic(
            acc.quadratic_form(objective), objective.sensitivity()
        )
        np.testing.assert_array_equal(noisy_a.M, noisy_b.M)
        np.testing.assert_array_equal(noisy_a.alpha, noisy_b.alpha)
        assert noisy_a.beta == noisy_b.beta
        assert record_a == record_b


# ----------------------------------------------------------------------
# Codec: linear-time decode, bitwise round trips, inconsistent files.
# ----------------------------------------------------------------------
def _many_blocks(blocks, dim=3, block_size=4, tail=3, seed=0):
    """An accumulator of ``blocks`` sealed blocks plus a partial tail."""
    rng = np.random.default_rng(seed)
    n = blocks * block_size + tail
    X = rng.uniform(-1.0, 1.0, size=(n, dim)) / np.sqrt(dim)
    y = rng.uniform(-1.0, 1.0, size=n)
    return MomentAccumulator(dim, block_size=block_size).update(X, y)


def _saved(acc) -> io.BytesIO:
    buffer = io.BytesIO()
    acc.save(buffer)
    buffer.seek(0)
    return buffer


def _bits(value) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(value, dtype=float)).view(np.uint64)


def _assert_bitwise_equal(loaded, original):
    assert (loaded.dim, loaded.block_size, loaded.n_rows) == (
        original.dim,
        original.block_size,
        original.n_rows,
    )
    assert len(loaded._units) == len(original._units)
    for got, want in zip(loaded._units, original._units):
        for name in ("S2", "S1", "Sxy", "Sy", "Syy"):
            assert np.array_equal(_bits(getattr(got, name)), _bits(getattr(want, name))), name
        assert got.count == want.count
    assert np.array_equal(_bits(loaded._tail_X), _bits(original._tail_X))
    assert np.array_equal(_bits(loaded._tail_y), _bits(original._tail_y))


def _central_envelope(acc) -> PartyEnvelope:
    fields = dict(
        task="linear",
        dim=acc.dim,
        block_size=acc.block_size,
        stream_version=2,
        backend="numpy",
        noise_mode="central",
        parties=1,
    )
    return PartyEnvelope(
        party_id=0,
        n_rows=acc.n_rows,
        seed=7,
        epsilons=(1.0,),
        fingerprint=schema_fingerprint(**fields),
        accumulator=acc,
        **fields,
    )


def _tampered_payload(acc, **changes) -> bytes:
    """``acc``'s ``.npz`` bytes with some members replaced."""
    with np.load(_saved(acc)) as data:
        members = {name: data[name] for name in data.files}
    members.update(changes)
    buffer = io.BytesIO()
    np.savez(buffer, **members)
    return buffer.getvalue()


class _RawPayload:
    """Stands in for an accumulator whose ``save`` writes fixed bytes, so
    the codecs wrap an inconsistent file in valid checksums."""

    def __init__(self, payload: bytes, like: MomentAccumulator) -> None:
        self.payload = payload
        self.dim, self.block_size, self.n_rows = like.dim, like.block_size, like.n_rows

    def save(self, buffer) -> None:
        buffer.write(self.payload)


class TestCodec:
    @pytest.mark.parametrize("blocks", [1, 50, 300])
    def test_load_reads_each_member_at_most_once(self, monkeypatch, blocks):
        buffer = _saved(_many_blocks(blocks))
        reads = Counter()
        original = NpzFile.__getitem__

        def counting(self, key):
            reads[key] += 1
            return original(self, key)

        monkeypatch.setattr(NpzFile, "__getitem__", counting)
        loaded = MomentAccumulator.load(buffer)
        assert loaded.num_blocks == blocks + 1
        assert reads["S2"] == 1
        assert max(reads.values()) == 1, dict(reads)

    def test_many_block_round_trip_is_bitwise_through_every_codec(self, tmp_path):
        acc = _many_blocks(300)
        path = tmp_path / "acc.npz"
        acc.save(path)
        via_file = MomentAccumulator.load(path)
        via_entry = decode_entry(encode_entry(acc))
        via_wire = decode_envelope(encode_envelope(_central_envelope(acc))).accumulator
        for loaded in (via_file, via_entry, via_wire):
            _assert_bitwise_equal(loaded, acc)

    def test_loaded_blocks_are_immutable_under_further_streaming(self, bit_identical):
        acc = _many_blocks(20)
        loaded = MomentAccumulator.load(_saved(acc))
        twin = loaded.copy()
        X = np.full((9, 3), 0.1)
        y = np.full(9, 0.5)
        loaded.update(X, y).merge(twin)
        reference = acc.copy().update(X, y).merge(acc)
        assert bit_identical(loaded.snapshot(), reference.snapshot())
        _assert_bitwise_equal(twin, acc)

    @pytest.mark.parametrize("member", ["S2", "S1", "Sxy", "Sy", "Syy", "counts"])
    def test_member_length_disagreement_is_rejected(self, member):
        acc = _many_blocks(5)
        with np.load(_saved(acc)) as data:
            short = data[member][:-1]
        payload = _tampered_payload(acc, **{member: short})
        with pytest.raises(DataError, match="per-block members"):
            MomentAccumulator.load(io.BytesIO(payload))

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_row_count_disagreement_is_rejected(self, delta):
        acc = _many_blocks(5)
        meta = np.array([acc.dim, acc.block_size, acc.n_rows + delta], dtype=np.int64)
        payload = _tampered_payload(acc, meta=meta)
        with pytest.raises(DataError, match="rows"):
            MomentAccumulator.load(io.BytesIO(payload))

    def test_dropped_tail_rows_are_rejected(self):
        acc = _many_blocks(5)
        payload = _tampered_payload(acc, tail_X=np.zeros((0, 3)), tail_y=np.zeros(0))
        with pytest.raises(DataError, match="rows"):
            MomentAccumulator.load(io.BytesIO(payload))

    def test_inconsistent_file_is_a_typed_error_at_every_layer(self):
        acc = _many_blocks(5)
        meta = np.array([acc.dim, acc.block_size, acc.n_rows + 1], dtype=np.int64)
        raw = _RawPayload(_tampered_payload(acc, meta=meta), like=acc)
        with pytest.raises(CacheIntegrityError, match="undecodable"):
            decode_entry(encode_entry(raw))
        blob = encode_envelope(_central_envelope(raw))
        with pytest.raises(WireFormatError):
            decode_envelope(blob)

    def test_sealed_only_legacy_file_still_loads(self, bit_identical):
        acc = _many_blocks(5)
        sealed = acc.copy().seal()
        with np.load(_saved(sealed)) as data:
            members = {name: data[name] for name in data.files if not name.startswith("tail_")}
        buffer = io.BytesIO()
        np.savez(buffer, **members)
        buffer.seek(0)
        loaded = MomentAccumulator.load(buffer)
        assert loaded.num_blocks == 6
        assert bit_identical(loaded.snapshot(), acc.snapshot())


# ----------------------------------------------------------------------
# Validation oracle: the single-pass whole-chunk validator, kept verbatim
# as the reference the sliced validator must match outcome for outcome.
# ----------------------------------------------------------------------
def reference_check_chunk(self, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.ascontiguousarray(np.asarray(X, dtype=float))
    y = np.ascontiguousarray(np.asarray(y, dtype=float).ravel())
    if X.ndim != 2:
        raise DataError(f"X must be 2-d, got ndim={X.ndim}")
    if X.shape[1] != self._dim:
        raise DataError(f"X has {X.shape[1]} columns; accumulator has dim {self._dim}")
    if X.shape[0] != y.shape[0]:
        raise DataError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise DataError("chunk entries must be finite")
    if self._validate and X.shape[0]:
        max_norm = float(np.linalg.norm(X, axis=1).max())
        if max_norm > 1.0 + NORM_TOLERANCE:
            raise DomainError(
                f"feature vectors must satisfy ||x||_2 <= 1 (footnote 1); "
                f"max norm is {max_norm:.6f} — apply FeatureScaler first"
            )
        max_y = float(np.abs(y).max())
        if max_y > 1.0 + NORM_TOLERANCE:
            raise DomainError(
                f"targets must lie in [-1, 1]; max |y| is {max_y:.6f} — "
                f"apply TargetScaler / binarize_labels first"
            )
    return X, y


def _check_outcome(check, acc, X, y):
    """The coerced arrays' bits, or the raised error's type and message."""
    try:
        X_out, y_out = check(acc, X, y)
    except (DataError, DomainError) as error:
        return type(error), str(error)
    return _bits(X_out).tobytes(), _bits(y_out).tobytes()


def _assert_same_outcome(X, y, validate=True, dim=None):
    acc = MomentAccumulator(dim or np.shape(X)[-1], validate=validate)
    expected = _check_outcome(reference_check_chunk, acc, X, y)
    actual = _check_outcome(MomentAccumulator._check_chunk, acc, X, y)
    assert actual == expected
    return expected


def _valid_rows(n, dim=5, seed=3):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, dim)) / np.sqrt(dim)
    return X, rng.uniform(-1.0, 1.0, size=n)


def _at_norm(dim, norm, seed=0):
    """A row of ``dim`` nonzero entries whose norm is (about) ``norm``."""
    v = np.random.default_rng(seed).uniform(0.1, 1.0, size=dim)
    return v / np.linalg.norm(v) * norm


SLICE = DEFAULT_BLOCK_SIZE
EDGE = 1.0 + NORM_TOLERANCE


class TestValidationOracle:
    @pytest.mark.parametrize("n", [0, 1, SLICE - 1, SLICE, SLICE + 1, 3 * SLICE + 17])
    def test_valid_chunks_pass_unchanged(self, n):
        X, y = _valid_rows(n)
        assert not isinstance(_assert_same_outcome(X, y)[0], type)

    def test_non_finite_in_later_slice_beats_earlier_domain_violation(self):
        X, y = _valid_rows(3 * SLICE + 5)
        X[10] = 2.0  # feature violation in slice 0
        y[SLICE + 3] = 1.5  # target violation in slice 1
        for where in ("X", "y"):
            Xb, yb = X.copy(), y.copy()
            if where == "X":
                Xb[2 * SLICE + 7, 1] = np.nan
            else:
                yb[3 * SLICE + 1] = -np.inf
            kind, message = _assert_same_outcome(Xb, yb)
            assert kind is DataError and "finite" in message

    def test_feature_violation_beats_earlier_target_violation(self):
        X, y = _valid_rows(2 * SLICE + 9)
        y[5] = -1.25
        X[2 * SLICE + 2] = _at_norm(X.shape[1], 1.5)
        kind, message = _assert_same_outcome(X, y)
        assert kind is DomainError and "||x||_2" in message

    @pytest.mark.parametrize("slice_index", [0, 1, 2])
    @pytest.mark.parametrize("dim", [1, 2, 7, 14])
    @pytest.mark.parametrize("ulps", [-1, 0, 1, 2])
    def test_rows_at_the_norm_tolerance_edge(self, slice_index, dim, ulps):
        X, y = _valid_rows(2 * SLICE + 11, dim=dim)
        target = EDGE
        for _ in range(abs(ulps)):
            target = np.nextafter(target, np.inf if ulps > 0 else -np.inf)
        row = slice_index * SLICE + 4
        X[row] = _at_norm(dim, target, seed=dim + ulps)
        X[row + 1] = 0.0
        X[row + 1, 0] = target
        _assert_same_outcome(X, y)

    @pytest.mark.parametrize("ulps", [0, 1])
    def test_targets_at_the_tolerance_edge(self, ulps):
        X, y = _valid_rows(SLICE + 40)
        edge = np.nextafter(EDGE, np.inf) if ulps else EDGE
        y[SLICE + 20] = -edge
        outcome = _assert_same_outcome(X, y)[0]
        assert outcome is DomainError if ulps else isinstance(outcome, bytes)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_validate_false_still_rejects_non_finite(self, bad):
        X, y = _valid_rows(2 * SLICE + 3)
        X[0] = 3.0
        y[1] = 9.0
        assert not isinstance(_assert_same_outcome(X, y, validate=False)[0], type)
        X[2 * SLICE + 1, 2] = bad
        kind, message = _assert_same_outcome(X, y, validate=False)
        assert kind is DataError and "finite" in message

    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply")
    def test_overflowing_norm_reports_the_same_message(self):
        X, y = _valid_rows(SLICE + 2)
        X[SLICE + 1, 0] = 1e200
        kind, message = _assert_same_outcome(X, y)
        assert kind is DomainError and "inf" in message

    @pytest.mark.parametrize(
        "X, y, dim",
        [
            (np.zeros(5), np.zeros(5), 5),
            (np.zeros((4, 2)), np.zeros(4), 3),
            (np.zeros((4, 3)), np.zeros(5), 3),
            (np.zeros((0, 3)), np.zeros(0), 3),
        ],
    )
    def test_shape_errors_match(self, X, y, dim):
        _assert_same_outcome(X, y, dim=dim)

    @given(
        n=st.integers(0, 3 * SLICE),
        dim=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        plants=st.lists(
            st.tuples(
                st.floats(0.0, 1.0),
                st.sampled_from(["edge", "over", "far", "y_edge", "y_over", "nan", "inf"]),
            ),
            max_size=4,
        ),
        validate=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_plants_match_reference(self, n, dim, seed, plants, validate):
        X, y = _valid_rows(n, dim=dim, seed=seed)
        for position, kind in plants if n else ():
            row = min(int(position * n), n - 1)
            if kind in ("edge", "over", "far"):
                norm = {"edge": EDGE, "over": np.nextafter(EDGE, 2.0), "far": 1.1}[kind]
                X[row] = _at_norm(dim, norm, seed=row)
            elif kind in ("y_edge", "y_over"):
                y[row] = EDGE if kind == "y_edge" else np.nextafter(EDGE, 2.0)
            else:
                X[row, row % dim] = np.nan if kind == "nan" else np.inf
        _assert_same_outcome(X, y, validate=validate)
