"""Deterministic multipartite entanglement generation from coherently
controlled causal orders of local unitaries."""

from .gates import UnitaryPair, backward_order, forward_order, parse_gate, pauli, ry
from .metrics import MetricReport, concurrence, gme_concurrence, purity
from .switch import (
    Outcome,
    OutcomeEnsemble,
    SwitchSpec,
    joint_state,
    run,
    superposed_input,
    switch_operator,
)
from .verify import (
    ConditionReport,
    canonical_lu,
    certify_class,
    check_max_entanglement,
    check_separability,
    overlap,
    three_tangle,
)

__all__ = [
    "UnitaryPair",
    "backward_order",
    "forward_order",
    "parse_gate",
    "pauli",
    "ry",
    "MetricReport",
    "concurrence",
    "gme_concurrence",
    "purity",
    "Outcome",
    "OutcomeEnsemble",
    "SwitchSpec",
    "joint_state",
    "run",
    "superposed_input",
    "switch_operator",
    "ConditionReport",
    "canonical_lu",
    "certify_class",
    "check_max_entanglement",
    "check_separability",
    "overlap",
    "three_tangle",
]

__version__ = "0.1.0"
