"""Network-level simulations: control-driven entanglement mapping and the
hierarchical coordinator/edge-entangler architecture.

Both operations run on the switch engine (``switch.controlled_outcomes``): a
control register whose basis states select, per client qubit, one of the two
composition orders of its gate pair; every control qubit is then measured in
the coherent basis. Each branch is reported with its probability, client state
and GHZ fidelity (|<F|psi>| + |<B|psi>|)^2 / 2, the best fidelity with
(|0...0> + e^{i theta}|1...1>)/sqrt(2) in the canonical local-unitary frame of
``verify.canonical_lu``. That frame sends each qubit's forward-order image to
|0> and its backward-order image to |1>, so F and B are the all-forward and
all-backward product states; when the orthogonality condition fails there is
no frame and they are |0...0> and |1...1>.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gates import UnitaryPair, backward_order, forward_order
from .linalg import basis_state, kron, kron_all, num_qubits
from .switch import (
    MAX_QUBITS,
    SwitchSpec,
    _at,
    _end_vectors,
    _expect,
    _member,
    _only_keys,
    _parse_pair,
    _token,
    controlled_outcomes,
    superposed_input,
)
from .verify import check_max_entanglement

CONTROLS = ("ghz", "plus_product")
_DEFAULT_GATES = {"u": "pauli_z", "u_tilde": f"ry({math.pi / 2})"}


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


def topology_from_json(doc) -> Topology:
    """Parse and validate a topology document (any JSON value), like
    ``SwitchSpec.from_document``. ``link_loss`` is reserved: its values must be 0."""
    with _at(""):
        _expect(doc, dict, "topology document")
    _only_keys(doc, "", ("entanglers", "gates", "alpha", "control", "link_loss", "coordinator"))
    entanglers = []
    for i, e in enumerate(_member(doc, "/entanglers", list)):
        with _at(f"/entanglers/{i}"):
            _expect(e, dict, "entangler")
        _only_keys(e, f"/entanglers/{i}", ("id", "clients"))
        entanglers.append((_member(e, f"/entanglers/{i}/id", str),
                           _member(e, f"/entanglers/{i}/clients", int)))
    pair = _parse_pair(doc.get("gates", _DEFAULT_GATES), "/gates")
    with _at("/alpha"):
        alpha = float(_expect(doc.get("alpha", 0.5), float, "alpha"))
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0,1], got {alpha}")
    control = doc.get("control", "ghz")
    with _at("/control"):
        if control not in CONTROLS:
            raise ValueError(f"unknown control preparation {control!r}")
    for node, loss in _member(doc, "/link_loss", dict, {}).items():
        with _at(f"/link_loss/{_token(node)}"):
            if _expect(loss, float, "link loss") != 0:
                raise ValueError("link loss is reserved for future use and must be zero")
    with _at("/entanglers"):
        return Topology(entanglers=entanglers, pair_template=pair, alpha=alpha, control=control)


def _reverse_table(cluster_of_qubit: list[int], m: int) -> np.ndarray:
    """reverse[b][q]: control basis state b reverses qubit q when the control
    bit of q's cluster, read most significant first, is set."""
    shifts = m - 1 - np.asarray(cluster_of_qubit)
    return (np.arange(2**m)[:, None] >> shifts[None, :]) & 1


def _branch_results(
    control: np.ndarray, cluster_of_qubit: list[int], spec: SwitchSpec, in_frame: bool
) -> list[BranchResult]:
    ends = (_end_vectors(spec.pairs, spec.inputs) if in_frame
            else np.broadcast_to(np.eye(2, dtype=complex), (spec.n, 2, 2)))
    fwd, bwd = kron_all(ends[:, 0]), kron_all(ends[:, 1])  # all-forward F, all-backward B
    reverse = _reverse_table(cluster_of_qubit, num_qubits(len(control)))
    return [
        BranchResult(o.label, o.probability, o.state,
                     float((abs(np.vdot(fwd, o.state)) + abs(np.vdot(bwd, o.state))) ** 2 / 2.0)
                     if o.reachable else None)
        for o in controlled_outcomes(control, reverse, spec.pairs, spec.inputs)
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
    spec = SwitchSpec(protocol="ghz", pairs=list(pairs), inputs=list(inputs))
    in_frame = check_max_entanglement(spec).all_orthogonal
    return _branch_results(control, list(range(n)), spec, in_frame)


def run_hierarchy(topo: Topology) -> list[BranchResult]:
    """Coordinator-fed edge entanglers distributing one network-wide GHZ state.

    Each entangler's control qubit selects the order of its cluster's local
    tensor; the coordinator supplies the shared control state. Requires the
    per-qubit orthogonality condition, since the construction is only
    meaningful when every branch succeeds.
    """
    pairs = [topo.pair_template] * topo.total_clients
    inputs = [superposed_input(topo.alpha)] * topo.total_clients
    spec = SwitchSpec(protocol="ghz", pairs=pairs, inputs=inputs)
    report = check_max_entanglement(spec)
    for idx, z in enumerate(report.per_qubit_overlap):
        if abs(z) >= report.tol:
            raise ValueError(
                f"generation condition violated at client qubit {idx}: |overlap|={abs(z):.3g}"
            )
    m = len(topo.entanglers)
    if topo.control == "ghz":
        control = (basis_state(m, 0) + basis_state(m, 2**m - 1)) / math.sqrt(2.0)
    else:
        control = kron_all([np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)] * m)
    cluster_of_qubit = [j for j, (_, k) in enumerate(topo.entanglers) for _ in range(k)]
    return _branch_results(control, cluster_of_qubit, spec, report.all_orthogonal)


# -- structural audit ------------------------------------------------------


def controlled_order_operator(
    pairs: list[UnitaryPair], cluster_of_qubit: list[int], m: int
) -> np.ndarray:
    """Dense joint operator (clients x control) for small audit instances."""
    n = len(pairs)
    if n + m > MAX_QUBITS:
        raise ValueError("audit operator too large")
    dim_c = 2**m
    blocks = []
    for b, row in enumerate(_reverse_table(cluster_of_qubit, m)):
        factors = [backward_order(p) if bit else forward_order(p) for p, bit in zip(pairs, row)]
        proj = np.zeros((dim_c, dim_c), dtype=complex)
        proj[b, b] = 1.0
        blocks.append(kron(kron_all(factors), proj))
    return sum(blocks)


def _nearest_kron_residual(mat: np.ndarray, n: int) -> float:
    # largest deviation of a 2^n x 2^n matrix from a chain of 2x2 factors
    if n == 1:
        return 0.0
    rest = 2 ** (n - 1)
    r = mat.reshape(2, rest, 2, rest).transpose(0, 2, 1, 3).reshape(4, rest * rest)
    u, s, vh = np.linalg.svd(r)
    residual = float(s[1]) if len(s) > 1 else 0.0
    tail = (s[0] * vh[0]).reshape(rest, rest)
    scale = np.max(np.abs(tail))
    if scale > 0:
        residual = max(residual, _nearest_kron_residual(tail / scale, n - 1) * scale)
    return residual


def max_cross_client_coupling(op: np.ndarray, n_clients: int, n_controls: int) -> float:
    """Largest coupling between client qubits in a joint operator.

    Zero (up to numerical dust) certifies the operator is a sum of control
    projectors times tensor products of single-qubit client operators.
    """
    dim_t, dim_c = 2**n_clients, 2**n_controls
    t = op.reshape(dim_t, dim_c, dim_t, dim_c)
    worst = 0.0
    for b in range(dim_c):
        for b2 in range(dim_c):
            if b != b2:
                worst = max(worst, float(np.max(np.abs(t[:, b, :, b2]))))
    for b in range(dim_c):
        worst = max(worst, _nearest_kron_residual(t[:, b, :, b], n_clients))
    return worst
