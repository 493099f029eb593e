"""The ``ladder`` estimation part: successive halving inside the DE loop.

With ``MOHECOConfig.estimation == "ladder"`` the flat stage-1 OCBA pass is
replaced by a :class:`~repro.mf.ladder.FidelityLadder` per generation:
every feasible trial enters the bracket's cheap wide rung, each rung
dispatches as **one fused refinement round** through the ordinary engine
layer (serial, process, remote — all unchanged), OCBA allocates *within* a
rung (:func:`~repro.ocba.allocation.rung_allocation`), and the top
``1/eta`` by the precision-weighted cross-rung fusion
(:func:`~repro.mf.fusion.fuse_segments`) climb to the next fidelity.
Survivors of the final rung sit at full stage-2 fidelity (``n_max``), so
the surrounding loop — stage-2 promotion, memetic local search, stopping
rules — runs exactly as in the paper's method.

Every ladder decision (bracket, rung fidelities, gains, fused ranking,
promotions) is recorded on ``MOHECOResult.fidelity_trace``, which is part
of the result *identity*: it must be bit-identical across execution
backends, worker counts and cache states.  That holds by construction —
the schedule is arithmetic over candidate estimates, and estimates are
already engine-invariant (sample generation stays in-parent, per
candidate, on private RNG streams).
"""

from __future__ import annotations

import numpy as np

from repro.mf.fusion import RungSegment, fuse_segments
from repro.mf.ladder import FidelityLadder
from repro.ocba.allocation import rung_allocation
from repro.ocba.sequential import OCBAReport

__all__ = ["LadderEstimation"]


class LadderEstimation:
    """Ladder-scheduled stage-1 yield estimation for one run.

    ``mf_params`` holds the ladder knobs ``{"eta", "r_min", "brackets"}``
    (see :meth:`FidelityLadder.from_params`; ``R`` is pinned to the
    config's ``n_max``).  :attr:`trace` collects one entry per estimated
    generation.
    """

    def __init__(self, config, mf_params: dict | None = None) -> None:
        if mf_params is not None and not isinstance(mf_params, dict):
            raise ValueError(
                f"mf_params must be a dict of ladder knobs, got {mf_params!r}"
            )
        self.ladder = FidelityLadder.from_params(config.n_max, config.n0, mf_params)
        self.trace: list[dict] = []

    def estimate(self, optimizer, feasible: list, generation: int) -> OCBAReport:
        """Climb one bracket over ``feasible``, then promote as OCBA does."""
        if not feasible:
            self.trace.append(
                {
                    "generation": int(generation),
                    "bracket": int(self.ladder.bracket_for(generation)),
                    "rungs": [],
                    "fused": [],
                    "ranking": [],
                }
            )
            return OCBAReport(
                counts=np.zeros(0, dtype=int), estimates=np.zeros(0), rounds=0
            )

        entry, rounds = self._run_ladder(optimizer, feasible, generation)
        self.trace.append(entry)
        optimizer._promote_all(
            [
                ind
                for ind in feasible
                if ind.state.value >= optimizer.config.stage2_threshold
            ]
        )
        return OCBAReport(
            counts=np.array([ind.n_samples for ind in feasible], dtype=int),
            estimates=np.array([ind.yield_value for ind in feasible]),
            rounds=rounds,
        )

    def _run_ladder(
        self, optimizer, feasible: list, generation: int
    ) -> tuple[dict, int]:
        """Climb one bracket; returns (trace entry, rung count).

        ``members`` holds indices into ``feasible`` — stable identifiers
        for the trace.  Rung 0 is the flat pilot (everyone raised to the
        opening fidelity); later rungs spend ``m_k * r_k - already_spent``
        OCBA-weighted.  Each rung is exactly one fused engine round.
        """
        ladder = self.ladder
        s = ladder.bracket_for(generation)
        fidelities = ladder.rung_fidelities(s)
        members = list(range(len(feasible)))
        segments: list[list[RungSegment]] = [[] for _ in feasible]
        rung_trace = []

        for k, fidelity in enumerate(fidelities):
            states = [feasible[i].state for i in members]
            before = [state.estimate for state in states]
            counts = np.array([state.n for state in states], dtype=int)
            if k == 0:
                gains = np.maximum(fidelity - counts, 0)
            else:
                # The rung budget raises the *average* member to the rung
                # fidelity; OCBA decides who gets how much of the delta.
                gains = rung_allocation(
                    np.array([state.value for state in states]),
                    np.array([state.std for state in states]),
                    counts,
                    fidelity * len(members),
                )
            if np.any(gains):
                optimizer._refine_round(
                    states, [int(g) for g in gains], category="stage1"
                )
            for index, state, prior in zip(members, states, before):
                now = state.estimate
                if now.n > prior.n:
                    segments[index].append(
                        RungSegment(
                            n=now.n - prior.n, passes=now.passes - prior.passes
                        )
                    )

            fused = {index: fuse_segments(segments[index]) for index in members}
            if k < len(fidelities) - 1:
                keep = ladder.survivors(len(members))
                ranked = sorted(members, key=lambda i: (-fused[i], i))
                promoted = sorted(ranked[:keep])
            else:
                promoted = list(members)
            rung_trace.append(
                {
                    "fidelity": int(fidelity),
                    "members": [int(i) for i in members],
                    "gains": [int(g) for g in gains],
                    "counts": [int(state.n) for state in states],
                    "fused": [float(fused[i]) for i in members],
                    "promoted": [int(i) for i in promoted],
                }
            )
            members = promoted

        final_fused = [fuse_segments(history) for history in segments]
        ranking = sorted(
            range(len(feasible)), key=lambda i: (-final_fused[i], i)
        )
        entry = {
            "generation": int(generation),
            "bracket": int(s),
            "rungs": rung_trace,
            "fused": [float(value) for value in final_fused],
            "ranking": [int(i) for i in ranking],
        }
        return entry, len(fidelities)
