"""Process-pool backend: fused rounds sharded across worker processes.

For expensive circuit problems (MNA/AC amplifier simulation) the per-round
evaluation dominates wall-clock; :class:`ProcessPoolEngine` splits the
stacked pair matrix of each round into contiguous chunks — respecting
candidate-block boundaries so grouped evaluator dispatch stays intact —
and simulates the chunks on a pool of worker processes.

Zero-copy transfer
------------------
The round's numeric payload crosses the process boundary through one
:class:`multiprocessing.shared_memory` block created per round: the parent
packs the per-block design vectors and the stacked sample matrix into the
block once, and each worker receives only a tiny descriptor —
``(shm_name, shapes, block offsets)`` — from which it reconstructs
zero-copy NumPy views.  Nothing per-sample is ever pickled on the way in;
the pool stays warm across rounds (it is only rebuilt when the problem
object changes), so steady-state round cost is descriptor pickling + the
simulations themselves.  Where POSIX shared memory cannot be allocated,
the round falls back to shipping ``(designs, samples)`` chunks through the
call pickle.

Determinism
-----------
Workers are *pure*: they receive chunk descriptors (or pickled chunks) and
return performance rows.  All RNG streams, screener state and ledger
accounting stay in the parent; chunk boundaries do not depend on the
transfer mechanism; and chunk results are reassembled in submission order
— so a run is bit-for-bit reproducible for any worker count, including
``workers=1`` and the in-process :class:`~repro.engine.serial.SerialEngine`.

The problem object is shipped to each worker once, at pool start-up (via
the initializer, which under the default ``fork`` start method costs no
pickling at all), not once per round.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory

import numpy as np

from repro.engine.base import EvaluationEngine, chunk_blocks, evaluate_pending

__all__ = ["ProcessPoolEngine", "make_process_pool", "pool_mp_context", "ShmRound"]


def make_process_pool(workers: int, **kwargs) -> ProcessPoolExecutor:
    """A fork-preferred worker pool (the engine/sweep layers' one recipe).

    ``fork`` inherits the parent's imported modules (registries, problem
    factories) for free; platforms without it fall back to ``spawn``.
    ``kwargs`` pass through to :class:`ProcessPoolExecutor` (initializer,
    initargs, ...).
    """
    return ProcessPoolExecutor(
        max_workers=workers, mp_context=pool_mp_context(), **kwargs
    )


def pool_mp_context():
    """The multiprocessing context :func:`make_process_pool` pools run in.

    Queues/events that cross into pool workers (the sweep executor's
    progress bridge and cancel flag) must come from the same context the
    pool was built with, so the choice lives in one place.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


#: The problem each worker evaluates against (set by the pool initializer).
_WORKER_PROBLEM = None


def _init_worker(problem) -> None:
    global _WORKER_PROBLEM
    _WORKER_PROBLEM = problem


def _evaluate_chunk(pending) -> np.ndarray:
    """Simulate one pickled chunk of pending blocks (no-shm fallback)."""
    return evaluate_pending(_WORKER_PROBLEM, pending)


def _evaluate_shm_chunk(descriptor) -> np.ndarray:
    """Simulate one chunk described by shared-memory offsets.

    ``descriptor`` is ``(shm_name, designs_shape, samples_shape, blocks)``
    with ``blocks`` a list of ``(design_row, start_row, stop_row,
    category)``.  The worker attaches to the parent's block, rebuilds
    read-only zero-copy views, and evaluates — no array bytes cross the
    call pickle.  (Attaching registers the name with the resource tracker;
    under ``fork`` the tracker is shared with the parent, whose ``unlink``
    retires the name exactly once.)
    """
    from repro.yieldsim.estimator import PendingRefinement

    name, designs_shape, samples_shape, blocks = descriptor
    shm = shared_memory.SharedMemory(name=name)
    designs = np.ndarray(designs_shape, dtype=np.float64, buffer=shm.buf)
    samples = np.ndarray(
        samples_shape,
        dtype=np.float64,
        buffer=shm.buf,
        offset=designs.nbytes,
    )
    designs.flags.writeable = False
    samples.flags.writeable = False
    pending = []
    try:
        pending = [
            PendingRefinement(
                _BareState(designs[design_row]), samples[start:stop], category
            )
            for design_row, start, stop, category in blocks
        ]
        return evaluate_pending(_WORKER_PROBLEM, pending)
    finally:
        del pending, designs, samples
        try:
            shm.close()
        except BufferError:  # pragma: no cover - evaluator kept a view alive
            pass  # mapping lives until GC drops the view; unlink still reclaims


class ShmRound:
    """One round's ``(designs, samples)`` staged in a shared-memory block.

    The parent packs each pending block's design vector (one row of the
    ``designs`` matrix) and its sample rows (a contiguous slice of the
    stacked ``samples`` matrix) into a single block, then hands workers
    offset descriptors via :meth:`chunk_descriptor`.  Use as a context
    manager: exit closes *and unlinks*, so the segment never outlives the
    round even on error paths.
    """

    def __init__(self, blocks) -> None:
        designs = np.ascontiguousarray(
            np.stack([np.asarray(block.state.x, dtype=np.float64) for block in blocks])
        )
        samples = np.ascontiguousarray(
            np.concatenate(
                [np.atleast_2d(np.asarray(block.samples, dtype=np.float64))
                 for block in blocks]
            )
        )
        self._shm = shared_memory.SharedMemory(
            create=True, size=designs.nbytes + samples.nbytes
        )
        buf = self._shm.buf
        np.ndarray(designs.shape, np.float64, buffer=buf)[:] = designs
        np.ndarray(
            samples.shape, np.float64, buffer=buf, offset=designs.nbytes
        )[:] = samples
        self.name = self._shm.name
        self._designs_shape = designs.shape
        self._samples_shape = samples.shape
        # Row extents of each block inside the stacked sample matrix.
        self._rows = {}
        start = 0
        for i, block in enumerate(blocks):
            stop = start + block.n_samples
            self._rows[id(block)] = (i, start, stop)
            start = stop

    def chunk_descriptor(self, chunk) -> tuple:
        """The picklable descriptor workers get instead of array payloads."""
        blocks = [
            (*self._rows[id(block)], block.category) for block in chunk
        ]
        return (self.name, self._designs_shape, self._samples_shape, blocks)

    def close(self) -> None:
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already retired
            pass

    def __enter__(self) -> ShmRound:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ProcessPoolEngine(EvaluationEngine):
    """Sharded backend for simulation-bound problems.

    Parameters
    ----------
    workers:
        Worker process count; defaults to the machine's CPU count (capped
        at 8 — yield estimation rounds rarely stack enough work to feed
        more).
    min_dispatch_rows:
        Rounds smaller than this many border-band samples are evaluated
        in-process.  The default only keeps trivial one-sample rounds
        local — on circuit problems even a small promotion round is worth
        shipping; raise it when each simulation is cheap enough that IPC
        would dominate.
    """

    name = "process"

    def __init__(
        self,
        workers: int | None = None,
        min_dispatch_rows: int = 2,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers if workers is not None else min(os.cpu_count() or 1, 8)
        self.min_dispatch_rows = int(min_dispatch_rows)
        self._pool: ProcessPoolExecutor | None = None
        self._pool_problem = None

    # -- pool lifecycle ----------------------------------------------------
    def _ensure_pool(self, problem) -> ProcessPoolExecutor:
        if self._pool is not None and self._pool_problem is not problem:
            # A new problem invalidates the workers' cached copy.
            self.close()
        if self._pool is None:
            self._pool = make_process_pool(
                self.workers, initializer=_init_worker, initargs=(problem,)
            )
            self._pool_problem = problem
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._pool_problem = None

    # -- dispatch ----------------------------------------------------------
    def simulate(self, problem, blocks) -> np.ndarray:
        total_rows = sum(block.n_samples for block in blocks)
        if self.workers == 1 or total_rows < self.min_dispatch_rows:
            return evaluate_pending(problem, blocks)
        pool = self._ensure_pool(problem)
        chunks = chunk_blocks(blocks, -(-total_rows // self.workers), self.workers)
        try:
            staged = ShmRound(blocks)
        except OSError:
            # No POSIX shared memory here: ship bare (x, samples) shells
            # through the call pickle — never parent-side state (RNGs,
            # ledgers, screeners).
            return _gather(
                pool, _evaluate_chunk, [[_strip(b) for b in chunk] for chunk in chunks]
            )
        with staged:
            return _gather(
                pool,
                _evaluate_shm_chunk,
                [staged.chunk_descriptor(chunk) for chunk in chunks],
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessPoolEngine(workers={self.workers})"


def _gather(pool: ProcessPoolExecutor, fn, payloads) -> np.ndarray:
    """Submit every chunk, then stack the results in submission order."""
    futures = [pool.submit(fn, payload) for payload in payloads]
    return np.concatenate([future.result() for future in futures])


class _BareState:
    """Pickle-light stand-in for a candidate state: just the design vector."""

    __slots__ = ("x",)

    def __init__(self, x: np.ndarray) -> None:
        self.x = x


def _strip(block):
    """A pending block reduced to what workers need: design + samples."""
    from repro.yieldsim.estimator import PendingRefinement

    return PendingRefinement(_BareState(block.state.x), block.samples, block.category)
