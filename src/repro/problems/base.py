"""The generic yield-optimization problem.

A problem couples

* an **evaluator** — anything with ``design_space()``, ``metric_names()``,
  ``evaluate(x, samples)`` and a ``variation`` model (amplifier topologies
  and synthetic evaluators both qualify; defining the row-aligned
  ``evaluate_pairs(X, samples)`` too makes every batch one call),
* a **spec set** — pass/fail semantics per sample, and
* **ledger accounting** — every evaluated sample is charged to the supplied
  :class:`~repro.ledger.SimulationLedger`, which is what the paper's
  simulation-count tables report.

The per-sample indicator ``J(x, xi) in {0, 1}`` of the paper is
:meth:`YieldProblem.indicator`; yield is its mean over the process
distribution.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.topologies.base import equal_row_runs
from repro.ledger import SimulationLedger
from repro.specs import SpecSet

__all__ = ["YieldProblem"]


class YieldProblem:
    """A sizing problem: maximise yield subject to nominal feasibility.

    Parameters
    ----------
    evaluator:
        The circuit performance model.
    specs:
        Specifications defining pass/fail; metric names must match the
        evaluator's ``metric_names()`` (order included).
    name:
        Label used in experiment reports.
    """

    def __init__(self, evaluator, specs: SpecSet, name: str = "problem") -> None:
        if list(specs.metric_names) != list(evaluator.metric_names()):
            raise ValueError(
                "spec metrics must match evaluator metrics in order: "
                f"{specs.metric_names} vs {evaluator.metric_names()}"
            )
        self.evaluator = evaluator
        self.specs = specs
        self.name = name
        self.space = evaluator.design_space()
        self.variation = evaluator.variation

    # -- dimensions ---------------------------------------------------------
    @property
    def design_dimension(self) -> int:
        """Number of design variables."""
        return self.space.dimension

    @property
    def process_dimension(self) -> int:
        """Number of process variables (paper: 80 / 123)."""
        return self.variation.dimension

    # -- simulation ------------------------------------------------------------
    def simulate(
        self,
        x: np.ndarray,
        samples: np.ndarray,
        ledger: SimulationLedger | None = None,
        category: str = "mc",
    ) -> np.ndarray:
        """Performance matrix of ``x`` at ``samples``; charges the ledger.

        One charged simulation per sample row — the unit the paper's
        Tables 2/4 count.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if ledger is not None:
            ledger.charge(samples.shape[0], category=category)
        return self.evaluator.evaluate(np.asarray(x, dtype=float), samples)

    def indicator(
        self,
        x: np.ndarray,
        samples: np.ndarray,
        ledger: SimulationLedger | None = None,
        category: str = "mc",
    ) -> np.ndarray:
        """Per-sample pass indicator J(x, xi), shape ``(n,)`` of bool."""
        performance = self.simulate(x, samples, ledger, category)
        return self.specs.passes(performance)

    # -- batched simulation ----------------------------------------------------
    def evaluate_batch(
        self,
        X: np.ndarray,
        samples: np.ndarray,
        ledger: SimulationLedger | None = None,
        category: str = "mc",
    ) -> np.ndarray:
        """Performance tensor of ``m`` designs at ``n`` shared samples.

        The cross product is resolved as one :meth:`evaluate_pairs` call
        on the ``m * n`` repeated rows (design ``i`` at sample ``j`` is row
        ``i * n + j``).

        Parameters
        ----------
        X:
            Design matrix, shape ``(m, design_dimension)`` (a single design
            vector is promoted to ``m = 1``).
        samples:
            Process sample matrix, shape ``(n, process_dimension)``.

        Returns
        -------
        numpy.ndarray
            Performance tensor, shape ``(m, n, n_metrics)``; ``m * n``
            simulations are charged to the ledger.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        m, n = X.shape[0], samples.shape[0]
        performance = self.evaluate_pairs(
            np.repeat(X, n, axis=0), np.tile(samples, (m, 1)), ledger, category
        )
        return performance.reshape(m, n, len(self.specs))

    def evaluate_pairs(
        self,
        X: np.ndarray,
        samples: np.ndarray,
        ledger: SimulationLedger | None = None,
        category: str = "mc",
    ) -> np.ndarray:
        """Row-aligned evaluation: design ``X[i]`` at its own ``samples[i]``.

        This is the fused-round protocol of the execution engines: one OCBA
        round's border-band samples for *all* candidates, stacked into a
        single ``(N, ...)`` pair matrix (each design row repeated for its
        own samples), resolved in one dispatch.  Unlike
        :meth:`evaluate_batch` — the cross-product ``m x n`` protocol — it
        charges exactly ``N`` simulations.

        Evaluators that define ``evaluate_pairs(X, samples)`` (every
        built-in one) handle the whole matrix in one call; evaluators that
        define only ``evaluate`` are called once per run of identical
        consecutive design rows (once per candidate of an engine round).

        Parameters
        ----------
        X:
            Design matrix, shape ``(N, design_dimension)``, aligned row by
            row with ``samples``.
        samples:
            Process sample matrix, shape ``(N, process_dimension)``.

        Returns
        -------
        numpy.ndarray
            Performance matrix, shape ``(N, n_metrics)``.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if X.shape[0] != samples.shape[0]:
            raise ValueError(
                f"pairs must align row by row: {X.shape[0]} designs vs "
                f"{samples.shape[0]} samples"
            )
        if ledger is not None:
            ledger.charge(X.shape[0], category=category)
        pairs_evaluate = getattr(self.evaluator, "evaluate_pairs", None)
        if pairs_evaluate is not None:
            return np.asarray(pairs_evaluate(X, samples), dtype=float)
        out = np.empty((X.shape[0], len(self.specs)))
        for start, stop in equal_row_runs(X):
            out[start:stop] = self.evaluator.evaluate(X[start], samples[start:stop])
        return out

    # -- nominal feasibility -------------------------------------------------------
    def nominal_feasibility(
        self, x: np.ndarray, ledger: SimulationLedger | None = None
    ) -> tuple[bool, float]:
        """(feasible, constraint violation) at the nominal process point.

        This is the paper's step-3 feasibility check: infeasible candidates
        get yield 0 and compete by violation (Deb's rules); no MC analysis
        is spent on them.  One charged simulation.
        """
        feasible, violation = self.nominal_feasibility_batch(
            np.asarray(x, dtype=float)[None, :], ledger
        )
        return bool(feasible[0]), float(violation[0])

    def nominal_feasibility_batch(
        self, X: np.ndarray, ledger: SimulationLedger | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Step-3 feasibility of a whole design batch in one evaluation.

        Returns ``(feasible, violation)`` arrays of shape ``(m,)``; one
        simulation per design is charged, exactly as ``m`` scalar calls
        would.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        nominal = np.repeat(self.variation.nominal()[None, :], X.shape[0], axis=0)
        performance = self.evaluate_pairs(X, nominal, ledger, category="feasibility")
        violations = self.specs.violation(performance)
        return violations == 0.0, violations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"YieldProblem({self.name!r}, d={self.design_dimension}, "
            f"p={self.process_dimension}, specs={len(self.specs)})"
        )
