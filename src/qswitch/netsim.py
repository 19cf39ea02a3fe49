"""Network-level simulations: control-driven entanglement mapping and the
hierarchical coordinator/edge-entangler architecture.

Both operations read out through ``switch.controlled_outcomes``: a control
register whose basis states select, per client qubit, one of the two order
images of its input; every control qubit is then measured in the coherent
basis. Each call builds, once, its plan (``switch.readout_plan``, which checks
the control), then the order images (``switch._end_vectors``) and their
orthogonality check (``verify.condition_report``); a topology's clients all run one
switch on one input, so ``run_hierarchy`` builds and checks one client's, broadcast
to all. 1 to 12 clients run. Topologies are parsed by ``documents.parse_topology``.

``run_hierarchy`` returns a ``switch.Readout``, ``map_entanglement`` a ``BranchResult``
per row of one. Its ``fidelity`` column holds each branch's GHZ fidelity
(|<F|psi>| + |<B|psi>|)^2 / 2 (0.0 on an unreachable branch's zero row), the best
fidelity with (|0...0> + e^{i theta}|1...1>)/sqrt(2) in the canonical local-unitary frame:
once the orthogonality condition holds, the conjugated order images of each
qubit (``ends.conj()``) form a unitary that sends its forward-order image to
|0> and its backward-order image to |1>, so F and B are the all-forward and
all-backward product states; when the condition fails there is no frame and
they are |0...0> and |1...1>. Both are built as the two rows of
``switch._branch_stack`` whose reverse rows are all 0 and all 1, the same
left-to-right products as a Kronecker fold.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gates import UnitaryPair
from .switch import (MAX_QUBITS, Readout, _as_qubit_states, _branch_stack, _end_vectors,
                     controlled_outcomes, readout_plan, superposed_input)
from .verify import condition_report

CONTROLS = ("ghz", "plus_product")


@dataclass(frozen=True, eq=False)
class BranchResult:
    control_outcome: str
    probability: float
    client_state: Optional[np.ndarray]
    ghz_fidelity: Optional[float]

    @property
    def reachable(self) -> bool:
        return self.client_state is not None


@dataclass(frozen=True, eq=False)
class Topology:
    """Coordinator plus edge entanglers, each serving a cluster of clients.
    Immutable, with ``entanglers`` a tuple, so that its checks keep holding."""

    entanglers: tuple[tuple[str, int], ...]  # (node id, client count)
    pair_template: UnitaryPair
    alpha: float = 0.5
    control: str = "ghz"  # one of CONTROLS

    def __post_init__(self):
        entanglers = tuple((node, k) for node, k in self.entanglers)
        object.__setattr__(self, "entanglers", entanglers)
        if len(entanglers) < 2:
            raise ValueError("topology needs at least two entanglers")
        if any(isinstance(k, bool) or not isinstance(k, (int, np.integer)) for _, k in entanglers):
            raise ValueError("each entangler's client count must be an integer")
        if any(k < 2 for _, k in entanglers):
            raise ValueError("each entangler must serve at least 2 clients")
        if self.control not in CONTROLS:
            raise ValueError(f"unknown control preparation {self.control!r}")
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, numbers.Real):
            raise ValueError(f"alpha must be a real number, got {self.alpha!r}")
        superposed_input(self.alpha)  # raises unless 0 <= alpha <= 1
        if self.total_clients > MAX_QUBITS:  # for the document pointer, and to keep m <= 6
            raise ValueError(f"topology has {self.total_clients} clients, cap is {MAX_QUBITS}")

    @property
    def total_clients(self) -> int:
        return sum(k for _, k in self.entanglers)


def _reverse_table(cluster_of_qubit: list[int], m: int) -> np.ndarray:
    """reverse[b][q]: control basis state b reverses qubit q when the control
    bit of q's cluster, read most significant first, is set."""
    shifts = m - 1 - np.asarray(cluster_of_qubit, dtype=np.intp)
    # built as (q, b) and transposed: the shift broadcast along b takes no extra buffer,
    # so a table that the engine then refuses as too wide costs only itself
    return ((np.arange(2**m) >> shifts[:, None]) & 1).T


def _readout(plan: tuple, ends: np.ndarray, in_frame: bool) -> Readout:
    """The phase-fixed readout of ``plan`` on ``ends``, with each branch's GHZ fidelity."""
    frame = ends if in_frame else np.broadcast_to(np.eye(2, dtype=complex), ends.shape)
    fb = _branch_stack([[0] * len(ends), [1] * len(ends)], frame)  # all-forward F, all-backward B
    r = controlled_outcomes(plan, ends)
    z = np.vecdot(fb[:, None, :], r.states)  # <F|psi> and <B|psi>, (2, outcomes); 0 if unreachable
    fidelity = np.hypot(z.real, z.imag).sum(axis=0) ** 2 / 2.0  # np.hypot is the scalar abs
    return Readout(r.labels, r.probability, r.reachable, r.states, fidelity)


def map_entanglement(
    control: np.ndarray, pairs: list[UnitaryPair], inputs: list[np.ndarray]
) -> list[BranchResult]:
    """Drive n independent single-qubit switches from an n-qubit control state.

    Control qubit i selects the order of pair i on input i; all control
    qubits are measured in the coherent basis, enumerating all 2^n branches.
    """
    control = np.asarray(control, dtype=complex)
    n = len(pairs)
    if control.shape != (2**n,):
        raise ValueError(f"control must be an {n}-qubit state")
    plan = readout_plan(control, _reverse_table(list(range(n)), n))  # checks the control
    ends = _end_vectors(pairs, _as_qubit_states(inputs))
    r = _readout(plan, ends, condition_report(ends).all_orthogonal)
    rows = zip(r.labels, r.probability.tolist(), r.reachable.tolist(), r.states, r.fidelity.tolist())
    return [BranchResult(k, p, s, f) if live else BranchResult(k, p, None, None)
            for k, p, live, s, f in rows]


def run_hierarchy(topo: Topology) -> Readout:
    """Coordinator-fed edge entanglers distributing one network-wide GHZ state.

    Each entangler's control qubit selects the order of its cluster's local
    tensor; the coordinator supplies the shared control state. Requires the
    per-qubit orthogonality condition, since the construction is only
    meaningful when every branch succeeds.
    """
    one = _end_vectors([topo.pair_template], [superposed_input(topo.alpha)])
    report = condition_report(one)
    z = abs(report.per_qubit_overlap[0])
    if z >= report.tol:
        raise ValueError(f"generation condition violated at client qubit 0: |overlap|={z:.3g}")
    m = len(topo.entanglers)
    if topo.control == "ghz":
        control = np.zeros(2**m, dtype=complex)
        control[[0, -1]] = 1.0 / math.sqrt(2.0)
    else:
        plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        control = _branch_stack([[0] * m], np.broadcast_to(plus, (m, 2, 2)))[0]  # |+>^(x)m
    cluster_of_qubit = [j for j, (_, k) in enumerate(topo.entanglers) for _ in range(k)]
    ends = np.broadcast_to(one, (topo.total_clients, 2, 2))
    return _readout(readout_plan(control, _reverse_table(cluster_of_qubit, m)), ends, True)

