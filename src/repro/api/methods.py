"""Built-in method registrations: the method table.

The paper's compared methods share one engine: "In all methods, the AS
and LHS technique are used ... All experiments also use the DE
optimization engine and the selection-based constraint handling
mechanism" — they differ only in the yield-estimation budget policy and
the presence of the memetic operators.  So every MOHECO-family method is
one row on the one driver (:class:`~repro.core.moheco.MOHECO`),
registered through :func:`~repro.compose.method.register_composed_method`:

* ``moheco`` — the full algorithm (OO + AS + LHS + memetic NM).
* ``oo_only`` — budget allocation without the memetic operators.
* ``fixed_budget`` — AS + LHS with ``n_fixed`` simulations per feasible
  candidate (the state-of-the-art MC flow the paper compares against).
* ``moheco_mf`` — stage 1 climbs a multi-fidelity ladder (:mod:`repro.mf`).
* ``moheco_screened`` / ``fixed_budget_screened`` — a surrogate screener
  prunes trials before simulation.
* ``moheco_lineasy`` — 1-D-subspace trial proposals.

``pswcd`` — the performance-specific worst-case-distance baseline of
section 3.4 — is the one method on its own driver, adapted to the common
result type.
"""

from __future__ import annotations

import numpy as np

from repro.api.registries import register_method
from repro.baselines.pswcd import PSWCDOptimizer
from repro.compose.method import register_composed_method
from repro.core.callbacks import CallbackList
from repro.core.history import OptimizationHistory
from repro.core.moheco import MOHECOResult
from repro.ledger import SimulationLedger
from repro.yieldsim.estimator import YieldEstimate

__all__ = ["METHOD_TABLE"]


def _row(backbone: str, screener=None, proposer="de", **extra) -> dict:
    return {
        "screener": screener,
        "proposer": proposer,
        "selection": "one_to_one",
        "backbone": backbone,
        **extra,
    }


#: name -> (method row, one-line description ``repro list methods`` prints).
METHOD_TABLE = {
    "moheco": (
        _row("moheco"),
        "The paper's full algorithm: OCBA budget allocation + acceptance "
        "sampling + LHS + memetic Nelder-Mead local search",
    ),
    "oo_only": (
        _row("oo_only"),
        "Ablation: OCBA budget allocation without the memetic operators",
    ),
    "fixed_budget": (
        _row("fixed_budget"),
        "State-of-the-art Monte-Carlo baseline: n_fixed simulations per "
        "feasible candidate",
    ),
    "moheco_mf": (
        _row("moheco", estimation="ladder"),
        "Multi-fidelity MOHECO: stage 1 climbs a Hyperband-style ladder "
        "over the MC sample count",
    ),
    "moheco_screened": (
        _row("moheco", screener="surrogate"),
        "MOHECO with a BagNet-style online surrogate pruning the trial "
        "pool before simulation",
    ),
    "moheco_lineasy": (
        _row("moheco", screener="none", proposer="line"),
        "MOHECO with LinEasyBO-style 1-D-subspace trial proposals feeding "
        "the memetic loop",
    ),
    "fixed_budget_screened": (
        _row("fixed_budget", screener="surrogate"),
        "Fixed-budget Monte-Carlo baseline with the surrogate screen in "
        "front of the simulator",
    ),
}

for _name, (_compose, _description) in METHOD_TABLE.items():
    register_composed_method(_name, _compose, description=_description)


@register_method("pswcd")
def run_pswcd(
    problem,
    *,
    rng=None,
    ledger=None,
    callbacks=None,
    engine=None,
    cache=None,
    n_train: int = 200,
    pop_size: int = 30,
    max_generations: int = 40,
    patience: int = 10,
    **overrides,
):
    """PSWCD sizing, adapted to the common :class:`MOHECOResult` shape.

    ``best_yield`` is the method's own (pessimistic) worst-case yield bound
    — exactly the quantity whose over-design the paper criticises; score it
    against :func:`repro.yieldsim.reference_yield` to see the gap.

    Callback support is partial: PSWCD drives a plain DE loop with no
    staged yield estimation, so only ``on_run_start`` and ``on_stop`` fire;
    generation-level observers (``ProgressCallback``, ``EarlyStopOnYield``)
    have nothing to hook into here.  The ``engine`` and ``cache`` arguments
    are likewise accepted but unused — PSWCD performs no Monte-Carlo
    refinement rounds, so there is nothing for an execution backend to fuse
    or for a warm-start cache to replay.
    """
    if overrides:
        raise TypeError(
            f"pswcd accepts n_train/pop_size/max_generations/patience, "
            f"got unexpected overrides: {sorted(overrides)}"
        )
    ledger = ledger if ledger is not None else SimulationLedger()
    callbacks = CallbackList(callbacks)
    optimizer = PSWCDOptimizer(problem, n_train=n_train, rng=rng, ledger=ledger)
    callbacks.on_run_start(optimizer)
    best_x, _, analysis = optimizer.run(
        pop_size=pop_size, max_generations=max_generations, patience=patience
    )
    result = MOHECOResult(
        best_x=np.asarray(best_x, dtype=float),
        best_yield=analysis.yield_bound,
        best_estimate=YieldEstimate(passes=0, n=0),
        generations=optimizer.de_result.generations,
        n_simulations=ledger.total,
        reason="pswcd",
        history=OptimizationHistory(),
        ledger=ledger,
    )
    callbacks.on_stop(optimizer, result)
    return result


run_pswcd.description = (
    "Performance-specific worst-case-distance sizing baseline "
    "(section 3.4); best_yield is its pessimistic worst-case bound"
)
