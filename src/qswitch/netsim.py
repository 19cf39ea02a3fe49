"""Network-level simulations: control-driven entanglement mapping and the
hierarchical coordinator/edge-entangler architecture.

Both operations run on the switch engine (``switch.controlled_outcomes``): a
control register whose basis states select, per client qubit, one of the two
order images of its input; every control qubit is then measured in the
coherent basis. Each call builds the order images once (``switch._end_vectors``)
and checks the orthogonality condition on them once (``verify.condition_report``);
no protocol spec is involved, so any n >= 1 clients run. Topology documents
are parsed by ``documents.parse_topology``.

Each branch is reported with its probability, client state
and GHZ fidelity (|<F|psi>| + |<B|psi>|)^2 / 2, the best fidelity with
(|0...0> + e^{i theta}|1...1>)/sqrt(2) in the canonical local-unitary frame of
``verify.canonical_lu``. That frame sends each qubit's forward-order image to
|0> and its backward-order image to |1>, so F and B are the all-forward and
all-backward product states; when the orthogonality condition fails there is
no frame and they are |0...0> and |1...1>. Both are built as the two rows of
``switch._branch_stack`` whose reverse rows are all 0 and all 1, the same
left-to-right products as a Kronecker fold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gates import UnitaryPair
from .switch import (MAX_QUBITS, _as_qubit_state, _branch_stack, _end_vectors,
                     controlled_outcomes, num_qubits, superposed_input)
from .verify import condition_report

CONTROLS = ("ghz", "plus_product")


@dataclass(frozen=True)
class BranchResult:
    control_outcome: str
    probability: float
    client_state: Optional[np.ndarray]
    ghz_fidelity: Optional[float]

    @property
    def reachable(self) -> bool:
        return self.client_state is not None


@dataclass
class Topology:
    """Coordinator plus edge entanglers, each serving a cluster of clients."""

    entanglers: list[tuple[str, int]]  # (node id, client count)
    pair_template: UnitaryPair
    alpha: float = 0.5
    control: str = "ghz"  # one of CONTROLS

    def __post_init__(self):
        if len(self.entanglers) < 2:
            raise ValueError("topology needs at least two entanglers")
        if any(k < 2 for _, k in self.entanglers):
            raise ValueError("each entangler must serve at least 2 clients")
        if self.control not in CONTROLS:
            raise ValueError(f"unknown control preparation {self.control!r}")
        total = self.total_clients + len(self.entanglers)
        if total > MAX_QUBITS:
            raise ValueError(
                f"topology needs {total} simulated qubits, cap is {MAX_QUBITS}"
            )

    @property
    def total_clients(self) -> int:
        return sum(k for _, k in self.entanglers)


def _reverse_table(cluster_of_qubit: list[int], m: int) -> np.ndarray:
    """reverse[b][q]: control basis state b reverses qubit q when the control
    bit of q's cluster, read most significant first, is set."""
    shifts = m - 1 - np.asarray(cluster_of_qubit)
    return (np.arange(2**m)[:, None] >> shifts[None, :]) & 1


def _branch_results(
    control: np.ndarray, cluster_of_qubit: list[int], ends: np.ndarray, in_frame: bool
) -> list[BranchResult]:
    frame = ends if in_frame else np.broadcast_to(np.eye(2, dtype=complex), ends.shape)
    n = len(cluster_of_qubit)
    fwd, bwd = _branch_stack([[0] * n, [1] * n], frame)  # all-forward F, all-backward B
    reverse = _reverse_table(cluster_of_qubit, num_qubits(len(control)))
    return [
        BranchResult(o.label, o.probability, o.state,
                     float((abs(np.vdot(fwd, o.state)) + abs(np.vdot(bwd, o.state))) ** 2 / 2.0)
                     if o.reachable else None)
        for o in controlled_outcomes(control, reverse, ends)
    ]


def map_entanglement(
    control: np.ndarray, pairs: list[UnitaryPair], inputs: list[np.ndarray]
) -> list[BranchResult]:
    """Drive n independent single-qubit switches from an n-qubit control state.

    Control qubit i selects the order of pair i on input i; all control
    qubits are measured in the coherent basis, enumerating all 2^n branches.
    """
    control = np.asarray(control, dtype=complex)
    n = len(pairs)
    if n > MAX_QUBITS or control.shape != (2**n,):
        raise ValueError(f"control must be an {n}-qubit state, with n at most {MAX_QUBITS}")
    # false for NaN and inf too; summed in Python scalars, because an np.vdot
    # form read about 5 % slower on the network benchmark
    if not abs(sum(z.real * z.real + z.imag * z.imag for z in control.tolist()) - 1.0) <= 1e-10:
        raise ValueError("control must be finite and normalized")
    ends = _end_vectors(pairs, [_as_qubit_state(v) for v in inputs])
    return _branch_results(control, list(range(n)), ends, condition_report(ends).all_orthogonal)


def run_hierarchy(topo: Topology) -> list[BranchResult]:
    """Coordinator-fed edge entanglers distributing one network-wide GHZ state.

    Each entangler's control qubit selects the order of its cluster's local
    tensor; the coordinator supplies the shared control state. Requires the
    per-qubit orthogonality condition, since the construction is only
    meaningful when every branch succeeds.
    """
    n = topo.total_clients
    ends = _end_vectors([topo.pair_template] * n, [superposed_input(topo.alpha)] * n)
    report = condition_report(ends)
    for idx, z in enumerate(report.per_qubit_overlap):
        if abs(z) >= report.tol:
            raise ValueError(
                f"generation condition violated at client qubit {idx}: |overlap|={abs(z):.3g}"
            )
    m = len(topo.entanglers)
    if topo.control == "ghz":
        control = np.zeros(2**m, dtype=complex)
        control[[0, -1]] = 1.0 / math.sqrt(2.0)
    else:
        plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        control = _branch_stack([[0] * m], np.broadcast_to(plus, (m, 2, 2)))[0]  # |+>^(x)m
    cluster_of_qubit = [j for j, (_, k) in enumerate(topo.entanglers) for _ in range(k)]
    return _branch_results(control, cluster_of_qubit, ends, report.all_orthogonal)

