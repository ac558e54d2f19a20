"""stream_version=2 end to end: the alias-free derivation across the stack.

PR 3 introduced ``derive_substream(..., stream_version=2)`` behind unit
pins; PR 6 flipped the experiment default to it (v1 stays selectable and
pinned).  These tests parametrize the *harness-level* guarantees over both
stream versions: every claim the suite makes for version 1 —
batched == percell bitwise, tiling-invariance, executor-invariance, the
engine path's agreement, grouped-panel equality — must already hold for
version 2.  (The figure-pipeline layer is covered by the golden groups,
which pin both versions.)
"""

import numpy as np
import pytest

from repro.data.census import load_us
from repro.experiments.config import SMOKE
from repro.session import ExecutionPolicy, Session

pytestmark = pytest.mark.tier1

EPSILONS = (0.1, 0.8, 3.2)


def _session(**fields) -> Session:
    """A fresh session over the class-default policy plus ``fields``."""
    return Session(ExecutionPolicy(**fields))


@pytest.fixture(scope="module")
def us():
    return load_us(6000)


@pytest.mark.parametrize("stream_version", [1, 2])
class TestRuntimeEquivalencePerVersion:
    def test_batched_equals_percell(self, us, stream_version):
        batched = _session(stream_version=stream_version).evaluate(
            "FM", us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=9,
        )
        percell = _session(
            runtime="percell", stream_version=stream_version
        ).evaluate("FM", us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=9)
        assert batched.mean_score == percell.mean_score
        assert batched.std_score == percell.std_score

    def test_tiling_is_invariant(self, us, stream_version):
        eager = _session(stream_version=stream_version).evaluate(
            "FM", us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=2,
        )
        tiled = _session(tile_size=1, stream_version=stream_version).evaluate(
            "FM", us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=2,
        )
        assert eager.mean_score == tiled.mean_score
        assert eager.std_score == tiled.std_score

    def test_executor_is_invariant(self, us, stream_version):
        serial = _session(tile_size=1, stream_version=stream_version).evaluate(
            "FM", us, "logistic", dims=5, epsilon=0.8, preset=SMOKE, seed=3,
        )
        with _session(
            tile_size=1, executor="thread", stream_version=stream_version
        ) as session:
            threaded = session.evaluate(
                "FM", us, "logistic", dims=5, epsilon=0.8, preset=SMOKE, seed=3,
            )
        assert serial.mean_score == threaded.mean_score

    def test_budget_sweep_batched_equals_percell(self, us, stream_version):
        batched = _session(stream_version=stream_version).budget_sweep(
            us, "linear", dims=5, epsilons=EPSILONS, preset=SMOKE, seed=4,
        )
        percell = _session(
            runtime="percell", stream_version=stream_version
        ).budget_sweep(us, "linear", dims=5, epsilons=EPSILONS, preset=SMOKE, seed=4)
        for epsilon in EPSILONS:
            assert batched[epsilon].mean_score == percell[epsilon].mean_score

    def test_grouped_panel_equals_individual_runs(self, us, stream_version):
        grouped = _session(stream_version=stream_version).evaluate_panel(
            ["FM", "NoPrivacy"], us, "linear", dims=5, epsilon=0.8, preset=SMOKE,
            seed=5,
        )
        for name in ("FM", "NoPrivacy"):
            alone = _session(stream_version=stream_version).evaluate(
                name, us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=5,
            )
            assert grouped[name].mean_score == alone.mean_score
            assert grouped[name].std_score == alone.std_score


class TestVersionsDiffer:
    def test_v2_reshuffles_fm_noise(self, us):
        """The two derivations must actually produce different noise streams
        (the alias fix reseeds every substream) — identical scores would mean
        the version flag is silently ignored somewhere in the stack."""
        v1 = _session(stream_version=1).evaluate(
            "FM", us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=9,
        )
        v2 = _session(stream_version=2).evaluate(
            "FM", us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=9,
        )
        assert v1.mean_score != v2.mean_score

    def test_rep_data_stream_no_longer_aliases_fold0(self):
        """The root cause, end to end: under v1 the [key, rep] data stream
        equals the [key, rep, 0] fold-0 cell stream; under v2 they are
        independent."""
        from repro.privacy.rng import derive_substream

        key = 0x51
        v1_data = derive_substream(3, [key, 0]).integers(0, 1 << 31, size=4)
        v1_fold0 = derive_substream(3, [key, 0, 0]).integers(0, 1 << 31, size=4)
        np.testing.assert_array_equal(v1_data, v1_fold0)

        v2_data = derive_substream(3, [key, 0], stream_version=2).integers(
            0, 1 << 31, size=4
        )
        v2_fold0 = derive_substream(3, [key, 0, 0], stream_version=2).integers(
            0, 1 << 31, size=4
        )
        assert not np.array_equal(v2_data, v2_fold0)
