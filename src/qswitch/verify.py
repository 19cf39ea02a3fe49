"""Executable generation conditions and state-class certification.

The central scalar is the per-qubit overlap <phi| backward^dagger forward |phi>.
All per-qubit overlaps vanishing is necessary and sufficient for every
measurement branch to be maximally entangled (Bell / GHZ-like / W-like,
depending on the protocol); any overlap of unit magnitude forces separability.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import UnitaryPair, backward_order, forward_order
from .linalg import dagger, reduced_density
from .metrics import concurrence, gme_concurrence, purity
from .switch import SwitchSpec

CONDITION_TOL = 1e-9


@dataclass(frozen=True)
class ConditionReport:
    per_qubit_overlap: tuple[complex, ...]
    all_orthogonal: bool
    any_aligned: bool
    tol: float

    def to_document(self) -> dict:
        return {
            "per_qubit_overlap": [[z.real, z.imag] for z in self.per_qubit_overlap],
            "all_orthogonal": self.all_orthogonal,
            "any_aligned": self.any_aligned,
            "tol": self.tol,
        }


def overlap(pair: UnitaryPair, phi: np.ndarray) -> complex:
    """<phi| backward_order(pair)^dagger forward_order(pair) |phi>."""
    phi = np.asarray(phi, dtype=complex)
    return complex(np.vdot(backward_order(pair) @ phi, forward_order(pair) @ phi))


def check_max_entanglement(spec: SwitchSpec, tol: float = CONDITION_TOL) -> ConditionReport:
    """Evaluate the per-qubit orthogonality condition for maximal entanglement.

    The report is protocol-agnostic: the Bell, GHZ and W conditions all
    reduce to the same per-qubit scalar.
    """
    overlaps = tuple(overlap(p, phi) for p, phi in zip(spec.pairs, spec.inputs))
    return ConditionReport(
        per_qubit_overlap=overlaps,
        all_orthogonal=all(abs(z) < tol for z in overlaps),
        any_aligned=any(abs(z) > 1.0 - tol for z in overlaps),
        tol=tol,
    )


def check_separability(spec: SwitchSpec, tol: float = CONDITION_TOL) -> bool:
    """True iff some qubit's two order branches coincide up to global phase."""
    return check_max_entanglement(spec, tol).any_aligned


def canonical_lu(spec: SwitchSpec, tol: float = CONDITION_TOL) -> list[np.ndarray]:
    """Single-qubit unitaries mapping each qubit's order branches to |0>, |1>.

    Only defined when the orthogonality condition holds: the i-th returned
    unitary sends forward_order(pair_i)|phi_i> to |0> and
    backward_order(pair_i)|phi_i> to |1> exactly, so the tensor of all of
    them reduces a "+" outcome to (|0...0> + |1...1>)/sqrt(2) and a W-type
    outcome to a signed equal superposition of weight-one basis states.
    """
    report = check_max_entanglement(spec, tol)
    if not report.all_orthogonal:
        raise ValueError(
            "canonical reduction undefined: per-qubit orthogonality condition not met"
        )
    lus = []
    for pair, phi in zip(spec.pairs, spec.inputs):
        b_fwd = forward_order(pair) @ phi
        b_bwd = backward_order(pair) @ phi
        lus.append(np.vstack([b_fwd.conj(), b_bwd.conj()]))
    return lus


def apply_local_unitaries(lus: list[np.ndarray], state: np.ndarray) -> np.ndarray:
    """Apply lus[q] to qubit q of ``state``, one qubit axis at a time."""
    n = len(lus)
    t = np.asarray(state, dtype=complex).reshape([2] * n)
    for q, u in enumerate(lus):
        t = u @ t.reshape(2**q, 2, 2 ** (n - q - 1))
    return t.reshape(-1)


def three_tangle(state: np.ndarray) -> float:
    """Residual entanglement of a pure 3-qubit state.

    Monogamy form: tau = C^2(0|12) - C^2(01) - C^2(02), with the one-vs-rest
    term from the qubit-0 marginal and the pairwise terms from Wootters
    concurrence of the reduced two-qubit states.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape != (8,):
        raise ValueError("three_tangle expects a 3-qubit state vector")
    c_one_rest_sq = 2.0 * (1.0 - purity(reduced_density(state, [0])))
    c01 = concurrence(reduced_density(state, [0, 1]))
    c02 = concurrence(reduced_density(state, [0, 2]))
    return max(0.0, c_one_rest_sq - c01**2 - c02**2)


def certify_class(state: np.ndarray, tol: float = 1e-6) -> str:
    """Classify a pure 3-qubit state: separable | biseparable | ghz-class | w-class.

    Separability tiers come from marginal purities; among genuinely
    tripartite-entangled states the residual 3-tangle separates the GHZ
    class (tau > tol) from the W class.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape != (8,):
        raise ValueError("certify_class expects a 3-qubit state vector")
    if abs(np.linalg.norm(state) - 1.0) > 1e-10:
        raise ValueError("state must be normalized")
    purities = [purity(reduced_density(state, [q])) for q in range(3)]
    pure_cuts = sum(1 for p in purities if p > 1.0 - tol)
    if pure_cuts == 3:
        return "separable"
    if pure_cuts >= 1:
        return "biseparable"
    if three_tangle(state) > tol:
        return "ghz-class"
    if gme_concurrence(state).value > tol:
        return "w-class"
    return "biseparable"
