"""Federation overhead: party ingest throughput and merge+fit latency.

The federated path adds three stages a single box never pays — per-party
envelope encoding (inner ``.acc`` codec + ``.npz`` + checksums), wire
decoding with full validation, and the coordinator's tree merge.  This
bench measures what they cost against the centralized baseline on the
same rows, and asserts the protocol's core promise while timing it: in
central noise mode every party count and both merge trees release the
**bitwise identical** digest the single box releases.

Reported per party count:

* ``ingest_rows_per_second`` — rows through ``run_party`` (local
  accumulation + noise handling + envelope encoding), all parties
  summed, serial in-process so the number is per-core;
* ``coordinator_seconds`` — submit (decode + validate) + balanced tree
  merge + sweep fit, i.e. the full coordinator critical path;
* ``wire_bytes`` — total envelope bytes crossing the "network".

A separate decode-scaling row decodes one share-mode party envelope
(d=14) holding 16, 64 and 256 blocks and reports the best-of-
``DECODE_REPEATS`` decode time per block.  Decoding must be linear in
the block count, so its fixed per-envelope cost (header, checksums,
archive parsing) amortizes: the per-block time at 256 blocks may be at
most ``DECODE_SCALING_CEILING`` (half) that at 16 blocks.  A linear
decoder lands near 0.16x on a 2-vCPU x86 host; one that re-reads a whole
``.npz`` member per block pays six reads per block, each growing with
the block count, and lands at 1.2-2x.  The gate is machine-relative,
so it runs on any host (CI:
``pytest benchmarks/bench_federated_merge.py -k decode``).

Results merge into ``BENCH_harness.json`` under ``federated_merge``.
"""

import json
import os
import time

import numpy as np
import pytest
from conftest import machine_record, save_and_print

from repro.federated import (
    FederatedCoordinator,
    FederationSpec,
    centralized_fit,
    decode_envelope,
    run_parties,
    run_party,
)

ROWS = int(os.environ.get("FED_BENCH_ROWS", "60000"))
DIMS = int(os.environ.get("FED_BENCH_DIMS", "10"))
PARTY_COUNTS = (2, 4, 8)
EPSILONS = (0.1, 0.2, 0.4, 0.8, 1.6, 3.2)
SEED = 29

DECODE_DIMS = 14
DECODE_BLOCKS = (16, 64, 256)
#: Rows per block in the decode row; decode cost depends on the block
#: count and d, not on how many rows each block summarizes.
DECODE_BLOCK_SIZE = 512
DECODE_REPEATS = 21
#: Per-block decode time at the most blocks over that at the fewest.
DECODE_SCALING_CEILING = 0.5


def _rows(n=ROWS, d=DIMS, seed=17):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X /= np.maximum(1.0, np.linalg.norm(X, axis=1, keepdims=True) * 1.01)
    y = np.clip(X @ rng.normal(size=d), -1.0, 1.0)
    return X, y


def _spec(parties):
    return FederationSpec(
        task="linear",
        dim=DIMS,
        epsilons=EPSILONS,
        seed=SEED,
        parties=parties,
    )


@pytest.fixture(scope="module")
def measurements(results_dir):
    X, y = _rows()

    started = time.perf_counter()
    baseline = centralized_fit(_spec(1), X, y)
    centralized_seconds = time.perf_counter() - started

    rows = {}
    for parties in PARTY_COUNTS:
        spec = _spec(parties)
        started = time.perf_counter()
        blobs = run_parties(spec, X, y)
        party_seconds = time.perf_counter() - started
        coordinator = FederatedCoordinator(spec)
        started = time.perf_counter()
        for blob in blobs:
            coordinator.submit(blob)
        result = coordinator.fit(tree="balanced")
        coordinator_seconds = time.perf_counter() - started
        assert result.digest == baseline.digest, (parties, result.digest)
        assert coordinator.fit(tree="sequential").digest == baseline.digest
        rows[parties] = {
            "party_seconds": party_seconds,
            "ingest_rows_per_second": ROWS / party_seconds,
            "coordinator_seconds": coordinator_seconds,
            "wire_bytes": sum(len(b) for b in blobs),
            "end_to_end_seconds": party_seconds + coordinator_seconds,
            "overhead_vs_centralized": (
                (party_seconds + coordinator_seconds) / centralized_seconds
            ),
        }

    lines = [
        f"federated merge+fit vs centralized ({ROWS:,} rows, d={DIMS}, "
        f"{len(EPSILONS)} budgets, central noise mode; digest-identical "
        f"to single box at every K and both trees)",
        f"  centralized: {centralized_seconds:.3f}s",
    ]
    for parties, row in rows.items():
        lines.append(
            f"  K={parties}: parties {row['party_seconds']:.3f}s "
            f"({row['ingest_rows_per_second']:,.0f} rows/sec), coordinator "
            f"{row['coordinator_seconds']:.3f}s, wire {row['wire_bytes']:,}B, "
            f"{row['overhead_vs_centralized']:.2f}x centralized"
        )
    save_and_print(results_dir, "federated_merge", "\n".join(lines))
    payload = {
        "rows": ROWS,
        "dims": DIMS,
        "epsilons": len(EPSILONS),
        "centralized_seconds": centralized_seconds,
        "party_counts": rows,
    }
    (results_dir / "federated_merge.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    return {"centralized_seconds": centralized_seconds, "rows": rows}


def test_digest_identity_held_under_timing(measurements):
    """The fixture asserted digest identity at every K; re-assert shape."""
    assert set(measurements["rows"]) == set(PARTY_COUNTS)


def test_federation_overhead_is_bounded(measurements):
    """Envelope codecs + validation must stay a small constant factor,
    not change the complexity class of a fit."""
    for parties, row in measurements["rows"].items():
        assert row["overhead_vs_centralized"] < 25.0, (parties, row)


def test_ingest_throughput_floor(measurements):
    """Guards against accidental per-row (rather than per-block) work in
    the party path."""
    for parties, row in measurements["rows"].items():
        assert row["ingest_rows_per_second"] > 5_000.0, (parties, row)


def _party_envelope(blocks):
    """One share-mode party envelope holding exactly ``blocks`` blocks."""
    rng = np.random.default_rng(blocks)
    n = blocks * DECODE_BLOCK_SIZE
    X = rng.normal(size=(n, DECODE_DIMS))
    X /= np.maximum(1.0, np.linalg.norm(X, axis=1, keepdims=True) * 1.01)
    y = np.clip(X @ rng.normal(size=DECODE_DIMS), -1.0, 1.0)
    spec = FederationSpec(
        task="linear",
        dim=DECODE_DIMS,
        epsilons=EPSILONS,
        seed=SEED,
        parties=4,
        noise_mode="share",
        block_size=DECODE_BLOCK_SIZE,
    )
    return run_party(spec, 0, X, y)


def _decode_seconds(blobs):
    """Best-of-``DECODE_REPEATS`` decode time per block count.

    Repeats go round-robin over the block counts, so a load spike on a
    shared host hits every size alike rather than skewing the ratio.
    """
    best = dict.fromkeys(blobs, float("inf"))
    for _ in range(DECODE_REPEATS):
        for blocks, blob in blobs.items():
            started = time.perf_counter()
            envelope = decode_envelope(blob)
            best[blocks] = min(best[blocks], time.perf_counter() - started)
            assert envelope.accumulator.num_blocks == blocks
    return best


@pytest.fixture(scope="module")
def decode_scaling(results_dir):
    blobs = {blocks: _party_envelope(blocks) for blocks in DECODE_BLOCKS}
    rows = {
        blocks: {
            "envelope_bytes": len(blobs[blocks]),
            "decode_ms": seconds * 1e3,
            "per_block_us": seconds / blocks * 1e6,
        }
        for blocks, seconds in _decode_seconds(blobs).items()
    }
    ratio = rows[DECODE_BLOCKS[-1]]["per_block_us"] / rows[DECODE_BLOCKS[0]]["per_block_us"]
    machine = machine_record()
    lines = [
        f"share-mode party envelope decode vs block count (d={DECODE_DIMS}, "
        f"{DECODE_BLOCK_SIZE}-row blocks, best of {DECODE_REPEATS}, {machine})"
    ]
    for blocks, row in rows.items():
        lines.append(
            f"  {blocks:>4} blocks: {row['envelope_bytes']:>9,}B  "
            f"decode {row['decode_ms']:8.2f}ms  {row['per_block_us']:8.1f}us/block"
        )
    lines.append(
        f"  per-block time {DECODE_BLOCKS[-1]} vs {DECODE_BLOCKS[0]} blocks: "
        f"{ratio:.2f}x (ceiling {DECODE_SCALING_CEILING}x)"
    )
    save_and_print(results_dir, "federated_decode", "\n".join(lines))
    payload = {
        "dims": DECODE_DIMS,
        "block_size": DECODE_BLOCK_SIZE,
        "repeats": DECODE_REPEATS,
        "machine": machine,
        "blocks": rows,
        "per_block_ratio": ratio,
    }
    (results_dir / "federated_decode.json").write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_decode_is_linear_in_blocks(decode_scaling):
    """The fixed per-envelope decode cost amortizes over the blocks."""
    assert decode_scaling["per_block_ratio"] <= DECODE_SCALING_CEILING, decode_scaling
