"""Multi-fidelity successive-halving over the Monte-Carlo sample count.

The subsystem behind the ``ladder`` estimation part (``moheco_mf``):
Hyperband-style bracket arithmetic (:class:`~repro.mf.ladder.FidelityLadder`),
precision-weighted cross-rung yield fusion
(:func:`~repro.mf.fusion.fuse_segments`), and the per-generation ladder
climb :class:`~repro.mf.estimation.LadderEstimation` that
:class:`~repro.core.moheco.MOHECO` runs when
``MOHECOConfig.estimation == "ladder"``.
"""

from repro.mf.estimation import LadderEstimation
from repro.mf.fusion import RungSegment, fuse_segments
from repro.mf.ladder import MF_PARAM_KEYS, FidelityLadder

__all__ = [
    "FidelityLadder",
    "MF_PARAM_KEYS",
    "RungSegment",
    "fuse_segments",
    "LadderEstimation",
]
