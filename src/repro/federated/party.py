"""Party-side federation: local ingestion, local noise, envelope export.

A *party* is one data holder: it ingests its rows into its own
:class:`~repro.engine.accumulator.MomentAccumulator`, optionally draws
its local noise contribution (per the federation's noise mode), and
serializes everything into one wire envelope.  Nothing here talks to a
network — an envelope is bytes; the simulation writes them to files or
returns them through an executor, and a real deployment would ship the
same bytes however it likes.

Process simulation: :class:`PartyWork` is a module-level picklable
callable, so :func:`run_parties` can push each party through a
``fork``-context :class:`~repro.runtime.executor.ProcessExecutor`
— parties then genuinely run in separate OS processes with separate
address spaces (the executor's ``<= 1 item`` in-process short-circuit
never triggers for the ``K >= 2`` federations the simulation targets).

Per-party budgets: with ``budget_dir`` set, each party opens (or
resumes) its **own** durable :class:`~repro.privacy.budget.PrivacyBudget`
write-ahead journal and charges ``sum(epsilons)`` *before* its envelope
bytes exist — the same spend-before-release discipline as serve.  The
parties hold disjoint rows, so the budgets are genuinely independent
accountants, not shares of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ..engine.accumulator import DEFAULT_BLOCK_SIZE, MomentAccumulator
from ..engine.sharding import shard_slices
from ..exceptions import FederatedError
from ..experiments.harness import objective_for
from ..obs import active_recorder
from ..privacy.budget import PrivacyBudget
from .noise import noise_share, party_noise_rng, perturb_form_stack
from .wire import NOISE_MODES, PartyEnvelope, encode_envelope, schema_fingerprint

__all__ = ["FederationSpec", "PartyWork", "run_party", "run_parties", "split_rows"]


@dataclass(frozen=True)
class FederationSpec:
    """The configuration every endpoint of one federation must agree on.

    Frozen and built from primitives only, so it pickles cleanly into
    forked party processes and its :meth:`fingerprint` is a pure
    function of its fields.
    """

    task: str
    dim: int
    epsilons: tuple[float, ...]
    seed: int
    parties: int
    noise_mode: str = "central"
    block_size: int = DEFAULT_BLOCK_SIZE
    stream_version: int = 2
    backend: str = "numpy"
    tight_sensitivity: bool = False
    budget_dir: Optional[str] = None
    budget_total: Optional[float] = None
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.noise_mode not in NOISE_MODES:
            raise FederatedError(
                f"noise mode must be one of {NOISE_MODES}, got {self.noise_mode!r}"
            )
        if self.parties < 1:
            raise FederatedError(f"parties must be >= 1, got {self.parties}")
        if not self.epsilons:
            raise FederatedError("a federation needs at least one epsilon")
        for e in self.epsilons:
            if not math.isfinite(e) or e <= 0.0:
                raise FederatedError(
                    f"epsilons must be positive and finite, got {self.epsilons!r}"
                )
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))

    def fingerprint(self) -> str:
        """The schema fingerprint every envelope of this federation carries."""
        return schema_fingerprint(
            task=self.task,
            dim=self.dim,
            block_size=self.block_size,
            stream_version=self.stream_version,
            backend=self.backend,
            noise_mode=self.noise_mode,
            parties=self.parties,
        )


def split_rows(
    X: np.ndarray, y: np.ndarray, parties: int, block_size: int = DEFAULT_BLOCK_SIZE
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Contiguous, block-aligned row slices, one per party.

    Both properties carry the bit-identity contract: contiguity makes
    concatenating the slices in party order reproduce the original row
    order, and block alignment (boundaries on multiples of
    ``block_size``, via :func:`~repro.engine.sharding.shard_slices`)
    makes each party's canonical block decomposition coincide with the
    single-box one — so the tree-merged statistics equal single-box
    ingestion *bitwise*, not just numerically.  With fewer blocks than
    parties, trailing parties hold zero rows (still valid federation
    members).  Choose ``block_size`` so every party gets real rows when
    simulating small datasets.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise FederatedError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    slices = shard_slices(X.shape[0], int(parties), block_size=int(block_size))
    return [(X[sl], y[sl]) for sl in slices]


def _charge_party_budget(spec: FederationSpec, party_id: int) -> None:
    """Open/resume this party's durable ledger and charge the release."""
    if spec.budget_dir is None:
        return
    cost = math.fsum(spec.epsilons)
    total = float(spec.budget_total) if spec.budget_total is not None else cost
    journal = Path(spec.budget_dir) / f"party-{party_id}.journal"
    if journal.exists() and journal.stat().st_size > 0:
        budget = PrivacyBudget.restore(journal)
    else:
        budget = PrivacyBudget(total, journal_path=journal)
    with budget:
        budget.spend(
            cost,
            note=(
                f"federated {spec.noise_mode} party={party_id} "
                f"task={spec.task} d={spec.dim} k={len(spec.epsilons)}"
            ),
        )


def run_party(
    spec: FederationSpec, party_id: int, X: np.ndarray, y: np.ndarray
) -> bytes:
    """One party, end to end: ingest -> local noise -> envelope bytes.

    In ``party`` mode the returned envelope carries *only* perturbed
    coefficients; the clean accumulator never leaves this function.  In
    every mode the per-party budget (if configured) is charged durably
    before the envelope bytes are produced.
    """
    party_id = int(party_id)
    if not 0 <= party_id < spec.parties:
        raise FederatedError(f"party id {party_id} outside [0, {spec.parties})")
    with active_recorder().span(
        "federated.party", party=party_id, mode=spec.noise_mode
    ):
        accumulator = MomentAccumulator(spec.dim, block_size=spec.block_size)
        accumulator.update(X, y)
        _charge_party_budget(spec, party_id)
        share = noisy_M = noisy_alpha = noisy_beta = None
        if spec.noise_mode == "share":
            share = noise_share(
                spec.seed,
                party_id,
                spec.parties,
                len(spec.epsilons),
                spec.dim,
                spec.stream_version,
            )
        elif spec.noise_mode == "party":
            objective = objective_for(spec.task, spec.dim)
            noisy_M, noisy_alpha, noisy_beta = perturb_form_stack(
                accumulator.quadratic_form(objective),
                spec.epsilons,
                objective.sensitivity(tight=spec.tight_sensitivity),
                party_noise_rng(spec.seed, party_id, spec.stream_version),
            )
        envelope = PartyEnvelope(
            party_id=party_id,
            parties=spec.parties,
            task=spec.task,
            dim=spec.dim,
            n_rows=accumulator.n_rows,
            block_size=spec.block_size,
            stream_version=spec.stream_version,
            backend=spec.backend,
            noise_mode=spec.noise_mode,
            seed=spec.seed,
            epsilons=spec.epsilons,
            fingerprint=spec.fingerprint(),
            accumulator=None if spec.noise_mode == "party" else accumulator,
            share=share,
            noisy_M=noisy_M,
            noisy_alpha=noisy_alpha,
            noisy_beta=noisy_beta,
        )
        return encode_envelope(envelope)


class PartyWork:
    """Picklable executor work: ``(party_id, X, y) -> envelope bytes | path``.

    With ``out_dir`` set, each party writes its envelope to
    ``party-<k>.fenv`` and only the path travels back (the CLI's file
    hand-off); without it the raw bytes are returned (the in-memory
    hand-off tests and the audit use).
    """

    def __init__(self, spec: FederationSpec, out_dir: str | None = None) -> None:
        self.spec = spec
        self.out_dir = out_dir

    def __call__(self, item: tuple[int, np.ndarray, np.ndarray]):
        party_id, X, y = item
        blob = run_party(self.spec, party_id, X, y)
        if self.out_dir is None:
            return blob
        path = Path(self.out_dir) / f"party-{int(party_id)}.fenv"
        path.write_bytes(blob)
        return str(path)


def run_parties(
    spec: FederationSpec,
    X: np.ndarray,
    y: np.ndarray,
    executor=None,
    out_dir: str | None = None,
) -> list:
    """Run every party of the federation over contiguous row slices.

    ``executor`` is any :class:`~repro.runtime.executor.CellExecutor`;
    a pooled process executor makes the parties real OS processes.
    Results come back in party order (the executor contract), as bytes
    or paths per :class:`PartyWork`.
    """
    slices = split_rows(X, y, spec.parties, block_size=spec.block_size)
    items = [(k, Xk, yk) for k, (Xk, yk) in enumerate(slices)]
    work = PartyWork(spec, out_dir=out_dir)
    if executor is None:
        return [work(item) for item in items]
    return executor.map(work, items)
