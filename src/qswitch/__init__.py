"""Deterministic multipartite entanglement generation from coherently
controlled causal orders of local unitaries."""

from .gates import UnitaryPair, parse_gate, pauli, ry
from .metrics import MetricReport, concurrence, gme_concurrence
from .switch import Readout, SwitchSpec, run, superposed_input
from .verify import ConditionReport, certify_class, check_max_entanglement, overlap, three_tangle

__all__ = [
    "UnitaryPair",
    "parse_gate",
    "pauli",
    "ry",
    "MetricReport",
    "concurrence",
    "gme_concurrence",
    "Readout",
    "SwitchSpec",
    "run",
    "superposed_input",
    "ConditionReport",
    "certify_class",
    "check_max_entanglement",
    "overlap",
    "three_tangle",
]

__version__ = "0.1.0"
