"""The execution-engine protocol and the legacy per-candidate backend.

An :class:`EvaluationEngine` executes one *round* of refinement requests —
``(candidate state_i, k_i additional samples)`` for many candidates at once
— and updates every candidate's running yield estimate.  The OCBA loop,
the pilot-``n0`` phase, stage-2 promotions and the fixed-budget baseline
all submit their per-round work through this interface.

Every backend runs the same round, written once in
:meth:`EvaluationEngine.refine_round`: draw and screen each candidate's
block, partition the blocks into warm-cache hits and misses, simulate the
misses, splice the replayed rows back, then charge the ledgers and absorb.
A backend supplies only :meth:`EvaluationEngine.simulate` — how the miss
rows are simulated: one stacked in-process dispatch
(:class:`~repro.engine.serial.SerialEngine`), shards on worker processes
(:class:`~repro.engine.process.ProcessPoolEngine`) or chunks streamed to
remote workers (:class:`~repro.engine.remote.RemoteEngine`).

Reproducibility contract
------------------------
Sample *generation* always happens in the caller's process, per candidate,
from each candidate's private RNG stream
(:meth:`~repro.yieldsim.estimator.CandidateYieldState.prepare`), and the
screener's classification stays local; a backend only simulates the border
band and hands the performance rows back
(:meth:`~repro.yieldsim.estimator.CandidateYieldState.absorb`).  Every
backend therefore produces identical estimates for the same seed — fused,
sharded, or not.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.engine.cache import CachedRound, EvaluationCache
from repro.yieldsim.estimator import CandidateYieldState, PendingRefinement

__all__ = [
    "EvaluationEngine",
    "LegacyEngine",
    "chunk_blocks",
    "collect_pending",
    "evaluate_pending",
    "evaluate_round",
    "scatter_round",
]


def _rows(blocks) -> int:
    return sum(block.n_samples for block in blocks)


def collect_pending(
    states: Sequence[CandidateYieldState],
    gains: Sequence[int],
    category: str | None = None,
) -> list[PendingRefinement]:
    """Draw + screen every candidate's block; return the non-empty bands.

    Candidates are prepared in list order so each private RNG stream
    advances exactly as the per-candidate path would advance it.
    """
    pending = []
    for state, gain in zip(states, gains):
        block = state.prepare(int(gain), category)
        if block is not None:
            pending.append(block)
    return pending


def evaluate_pending(problem, pending: list[PendingRefinement]) -> np.ndarray:
    """Simulate a fused round: one stacked dispatch, no ledger side effects.

    Stacks every pending block into one ``(sum(k_i), ...)`` pair matrix and
    resolves it through the problem's ``evaluate_pairs`` protocol; problems
    that predate the protocol fall back to one ``simulate`` call per block.
    Returns the stacked performance matrix in block order.  Ledger charging
    is the caller's job (workers in a process pool must not touch the
    parent's ledger).
    """
    evaluate_pairs = getattr(problem, "evaluate_pairs", None)
    if evaluate_pairs is not None:
        X = np.repeat(
            np.stack([block.state.x for block in pending]),
            [block.n_samples for block in pending],
            axis=0,
        )
        samples = np.concatenate([block.samples for block in pending])
        return np.asarray(evaluate_pairs(X, samples), dtype=float)

    rows = [problem.simulate(block.state.x, block.samples) for block in pending]
    return np.concatenate([np.atleast_2d(r) for r in rows])


def evaluate_round(
    problem,
    pending: list[PendingRefinement],
    cache: EvaluationCache | None,
    simulate: Callable[[object, list[PendingRefinement]], np.ndarray],
) -> tuple[np.ndarray, list[int]]:
    """The round's performance matrix, replaying what ``cache`` knows.

    The blocks are partitioned into cache hits and misses before any
    dispatch, so the partition is the same for every backend and worker
    count; ``simulate(problem, misses)`` evaluates only the misses, and
    their rows are spliced back into block order (and memoized).  Returns
    ``(performance, hit_rows)``, ``hit_rows[i]`` counting the rows of
    block ``i`` that were replayed rather than simulated.
    """
    if cache is None:
        return simulate(problem, pending), [0] * len(pending)
    round_ = CachedRound(cache, problem, pending)
    missed = simulate(problem, round_.misses) if round_.misses else None
    return round_.assemble(missed), round_.hit_rows


def chunk_blocks(
    pending: list[PendingRefinement],
    chunk_rows: int,
    max_chunks: int | None = None,
) -> list[list[PendingRefinement]]:
    """Split blocks into contiguous chunks of roughly ``chunk_rows`` rows.

    Block boundaries are respected (grouped evaluator dispatch stays
    intact) and a block larger than ``chunk_rows`` forms its own chunk.
    With ``max_chunks`` the last chunk takes whatever is left once that
    many chunks exist.  Boundaries depend only on the blocks, never on
    which workers are alive, so a chunk is a stable unit of re-dispatch.
    """
    chunks, current, rows = [], [], 0
    for block in pending:
        current.append(block)
        rows += block.n_samples
        room = max_chunks is None or len(chunks) < max_chunks - 1
        if rows >= chunk_rows and room:
            chunks.append(current)
            current, rows = [], 0
    if current:
        chunks.append(current)
    return chunks


def scatter_round(
    problem,
    pending: list[PendingRefinement],
    performance: np.ndarray,
    hit_rows: Sequence[int] | None = None,
) -> None:
    """Charge ledgers and feed each block its performance rows back.

    The margin matrix and the per-block pass counts are computed once on
    the stacked round — two vectorized ops instead of one ``specs.margins``
    + one boolean reduction per candidate — and each state receives its
    pre-sliced share.

    ``hit_rows[i]`` counts the rows of block ``i`` that were replayed from
    a cache instead of simulated (under block keying that is all-or-none;
    sample keying can replay part of a block).  Replayed rows are recorded
    under the ledger's ``cached`` column and still charged to the block's
    category, so the paper-accounting totals match a cache-off run exactly.
    """
    margins = problem.specs.margins(performance)
    passed = np.all(margins >= 0.0, axis=1)
    sizes = [block.n_samples for block in pending]
    starts = np.concatenate([[0], np.cumsum(sizes[:-1])]).astype(np.intp)
    pass_counts = np.add.reduceat(passed, starts)
    offset = 0
    for i, (block, size, n_passed) in enumerate(zip(pending, sizes, pass_counts)):
        ledger = block.state.ledger
        if ledger is not None:
            replayed = 0 if hit_rows is None else int(hit_rows[i])
            if replayed:
                ledger.record_cached(replayed)
            ledger.charge(size, category=block.category)
        stop = offset + size
        block.state.absorb(
            block.samples,
            performance[offset:stop],
            margins[offset:stop],
            int(n_passed),
        )
        offset = stop


class EvaluationEngine:
    """Executes rounds of candidate refinements against a problem.

    Engines are resolved by name through :data:`repro.engine.ENGINES`
    (``MOHECO(engine=...)``, ``RunSpec.engine``, ``repro run --engine``).
    They hold no per-run state beyond optional worker resources, so one
    engine instance can serve many runs; call :meth:`close` (or use the
    engine as a context manager) to release worker resources.

    A backend overrides :meth:`simulate`; the round around it —
    :meth:`refine_round` — is shared.  The base class simulates in-process
    with one stacked dispatch, which is all
    :class:`~repro.engine.serial.SerialEngine` is.
    """

    #: Registry name of the backend.
    name: str = "base"

    #: Optional warm-start cache consulted on every refinement round.  The
    #: MOHECO loop attaches the run's cache here (:mod:`repro.engine.cache`);
    #: :meth:`refine_round` partitions each round into hits and misses in
    #: the parent process, simulates only the misses, and splices the
    #: replayed rows back — ledger-faithfully — via :func:`scatter_round`.
    cache: EvaluationCache | None = None

    def simulate(self, problem, blocks: list[PendingRefinement]) -> np.ndarray:
        """Simulate ``blocks``; return their stacked performance rows.

        Rows come back in block order, one per sample row.  Called once
        per round with the round's cache misses (never empty); ledger
        accounting is not this method's job.
        """
        return evaluate_pending(problem, blocks)

    def refine_round(
        self,
        problem,
        states: Sequence[CandidateYieldState],
        gains: Sequence[int],
        category: str | None = None,
    ) -> None:
        """Refine ``states[i]`` by ``gains[i]`` fresh samples each.

        ``category`` overrides every state's ledger category for this round
        (stage-2 promotions charge ``"stage2"`` on stage-1 states); ``None``
        keeps each state's own category.

        The ledger's conservation rule is checked on every round: the rows
        :meth:`simulate` returns match the miss rows it was given, and
        every charged row was either simulated or replayed.  A backend
        that breaks it raises :class:`RuntimeError`.
        """
        pending = collect_pending(states, gains, category)
        if not pending:
            return
        simulated = 0

        def simulate(problem, blocks):
            nonlocal simulated
            rows, expected = self.simulate(problem, blocks), _rows(blocks)
            if len(rows) != expected:
                self._broken(f"simulate returned {len(rows)} rows for {expected}")
            simulated += expected
            return rows

        performance, hit_rows = evaluate_round(problem, pending, self.cache, simulate)
        charged, replayed = _rows(pending), sum(hit_rows)
        if simulated + replayed != charged:
            self._broken(
                f"{simulated} simulated + {replayed} replayed rows "
                f"!= {charged} charged"
            )
        if len(performance) != charged:
            self._broken(f"assembled {len(performance)} rows for {charged} samples")
        scatter_round(problem, pending, performance, hit_rows)

    def _broken(self, detail: str) -> None:
        raise RuntimeError(f"engine {self.name!r} broke round conservation: {detail}")

    def close(self) -> None:
        """Release backend resources (worker processes); idempotent."""

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class LegacyEngine(EvaluationEngine):
    """The pre-engine path: one full draw-screen-simulate loop per candidate.

    Kept as the bit-identical baseline the cross-backend equivalence suite
    (and any downstream problem with exotic duck typing) can fall back to;
    every Python-level loop iteration pays the full call-chain overhead the
    fused backends exist to remove.
    """

    name = "legacy"

    def refine_round(self, problem, states, gains, category=None):
        if self.cache is None:
            for state, gain in zip(states, gains):
                if gain > 0:
                    state.refine(int(gain), category)
            return
        # Cached dispatch keeps the per-candidate granularity (one block
        # per iteration, no fusing) but routes each block through the same
        # partition/splice/scatter path as the fused backends, so hits,
        # accounting and results stay bit-identical across engines.
        for state, gain in zip(states, gains):
            if gain <= 0:
                continue
            block = state.prepare(int(gain), category)
            if block is None:
                continue
            performance, hit_rows = evaluate_round(
                problem, [block], self.cache, evaluate_pending
            )
            scatter_round(problem, [block], performance, hit_rows)
