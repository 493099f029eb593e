"""Fused single-process backend: one stacked dispatch per round.

Where the legacy path walks the candidates one by one (draw, screen,
simulate a handful of samples, bookkeep — times 50 candidates, times every
OCBA increment), :class:`SerialEngine` runs the cheap per-candidate halves
locally and fuses every border-band sample of the round into **one**
``(sum(k_i), ...)`` evaluation — one vectorized simulate, one vectorized
margin computation — before scattering the results back.  On the synthetic
problems this removes almost all Python-level overhead from the OCBA hot
path (see ``benchmarks/test_bench_engine.py``).
"""

from __future__ import annotations

from repro.engine.base import EvaluationEngine

__all__ = ["SerialEngine"]


class SerialEngine(EvaluationEngine):
    """Default backend: fused rounds, evaluated in-process.

    This is the shared round of :class:`EvaluationEngine` with its default
    in-process ``simulate``.  With a warm-start cache attached the miss
    blocks form one (smaller) stacked dispatch, hit blocks replay their
    memoized rows, and the splice preserves block order — so the absorbed
    estimates are bit-identical to the cache-off path.
    """

    name = "serial"
