"""federated-rounds: share-mode federation rounds over four in-process parties.

One operation is one round: ``run_parties`` with no executor (so every
party call runs in this process, where the tracer sees it), one
``FederatedCoordinator.submit`` per envelope, then
``fit(tree="balanced")``.  Every round uses a fresh federation seed over
the same 1M rows, sized so a round lasts a few hundred milliseconds.
"""

from __future__ import annotations

import time

import numpy as np

from common import op_seed, sequential_phase

DIMS = 14
PARTIES = 4
ROWS = {"full": 1_000_000, "tiny": 20_000}


def make_rows(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows inside the paper's domain: ``||x||_2 <= 1`` and ``|y| <= 1``."""
    rng = np.random.default_rng([int(seed), 0xFED])
    X = rng.normal(size=(n, DIMS))
    X /= np.maximum(1.0, np.linalg.norm(X, axis=1, keepdims=True) * 1.01)
    y = np.clip(X @ rng.normal(size=DIMS) + 0.1 * rng.normal(size=n), -1.0, 1.0)
    return X, y


class FederatedRounds:
    name = "federated-rounds"

    def __init__(self, seed: int, scale: str, workdir) -> None:
        self.seed = seed
        self.rows = ROWS[scale]
        self.load_seconds: list[float] = []
        self.records: list[dict] = []
        self._next = 0

    def setup(self) -> None:
        t0 = time.perf_counter()
        self.X, self.y = make_rows(self.seed, self.rows)
        self.load_seconds.append(time.perf_counter() - t0)

    def teardown(self) -> None:
        self.X = self.y = None

    def _spec(self, seed: int):
        from repro.experiments.config import PRIVACY_BUDGETS
        from repro.federated import FederationSpec

        return FederationSpec(task="linear", dim=DIMS, epsilons=PRIVACY_BUDGETS,
                              seed=seed, parties=PARTIES, noise_mode="share")

    def _round(self, seed: int, X, y):
        from repro.federated import FederatedCoordinator, run_parties

        spec = self._spec(seed)
        blobs = run_parties(spec, X, y)
        coordinator = FederatedCoordinator(spec)
        for blob in blobs:
            coordinator.submit(blob)
        return coordinator.fit(tree="balanced"), sum(len(blob) for blob in blobs)

    def warmup(self) -> None:
        X, y = make_rows(self.seed + 1, 20_000)
        self._round(op_seed(self.seed, 10**6), X, y)

    def measure(self, seconds: float, tracer):
        def op(index: int):
            seed = op_seed(self.seed, index)
            result, wire_bytes = self._round(seed, self.X, self.y)
            self.records.append({"seed": seed, "digest": result.digest,
                                 "n_rows": result.n_rows, "wire_bytes": wire_bytes})
            return len(result.epsilons), result.n_rows

        phase = sequential_phase(op, seconds, tracer, self._next)
        self._next += phase.ops
        return phase

    def verify(self) -> tuple[int, int]:
        """Every released digest equals the single-box ``centralized_fit``.

        ``centralized_fit`` re-accumulates all rows on each call; the
        rounds share their rows, so round 0 is checked against
        ``centralized_fit`` itself and every round against the same
        computation over one shared accumulator: the engine sweep under
        the central noise substream of that round's seed.
        """
        from repro.engine.accumulator import MomentAccumulator
        from repro.engine.sweep import EpsilonSweepEngine
        from repro.experiments.harness import objective_for
        from repro.federated import centralized_fit, released_digest
        from repro.federated.noise import FED_NOISE_TAG
        from repro.privacy.rng import derive_substream

        spec = self._spec(self.records[0]["seed"])
        accumulator = MomentAccumulator(DIMS, block_size=spec.block_size)
        accumulator.update(self.X, self.y)
        engine = EpsilonSweepEngine(objective_for("linear", DIMS), accumulator,
                                    tight_sensitivity=spec.tight_sensitivity)

        def single_box(seed: int) -> str:
            rng = derive_substream(seed, [FED_NOISE_TAG], spec.stream_version)
            sweep = engine.sweep(spec.epsilons, rng=rng)
            return released_digest("linear", DIMS, spec.epsilons, sweep.coefficients)

        anchor = centralized_fit(spec, self.X, self.y).digest
        failed = int(anchor != single_box(spec.seed))
        for record in self.records:
            failed += (record["digest"] != single_box(record["seed"])
                       or record["n_rows"] != len(self.X))
        return len(self.records) + 1, failed
