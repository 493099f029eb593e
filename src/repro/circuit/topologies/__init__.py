"""Parametric amplifier topologies.

Each topology implements the paper's corresponding benchmark circuit as a
*vectorised performance model*: given a design matrix and a process sample
matrix aligned row by row (``evaluate_pairs``) it returns the performance
metrics of every row in one NumPy pass.  The small-signal netlist builders
allow cross-checking the analytic models against the MNA engine (see
tests/test_crosscheck_mna.py).
"""

from repro.circuit.topologies.base import AmplifierTopology
from repro.circuit.topologies.folded_cascode import FoldedCascodeAmplifier
from repro.circuit.topologies.netlist_ota import NetlistTwoStageOTA
from repro.circuit.topologies.two_stage_telescopic import TwoStageTelescopicAmplifier

__all__ = [
    "AmplifierTopology",
    "FoldedCascodeAmplifier",
    "NetlistTwoStageOTA",
    "TwoStageTelescopicAmplifier",
]
