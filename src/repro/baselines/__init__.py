"""Comparison methods from the paper's experimental section.

* ``fixed_budget`` — "AS + LHS, N simulations per feasible candidate"
  (the state-of-the-art MC flow of Tables 1-4), and ``oo_only`` — "OO + AS
  + LHS": ordinal optimization without the memetic operators (isolates the
  OO contribution, Table 1/2 row 4).  Both are rows of the method table in
  :mod:`repro.api.methods`, run through :func:`repro.api.optimize`.
* :mod:`repro.baselines.pswcd` — the performance-specific worst-case
  distance method discussed in section 3.4.
* The RSB (response-surface) baseline lives in :mod:`repro.surrogate`.
"""

from repro.baselines.pswcd import (
    PSWCDOptimizer,
    WorstCaseAnalysis,
    pswcd_analysis,
)

__all__ = [
    "pswcd_analysis",
    "WorstCaseAnalysis",
    "PSWCDOptimizer",
]
