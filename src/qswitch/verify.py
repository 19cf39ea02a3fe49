"""Executable generation conditions and state-class certification.

The central scalar is the per-qubit overlap <phi| backward^dagger forward |phi>.
All per-qubit overlaps vanishing is necessary and sufficient for every
measurement branch to be maximally entangled (Bell / GHZ-like / W-like,
depending on the protocol); any overlap of unit magnitude forces separability.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import UnitaryPair
from .metrics import _cut_purities_scalar, _gme_from_entropy
from .switch import SwitchSpec, _end_vectors

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


def _overlaps(ends: np.ndarray) -> tuple[complex, ...]:
    # <backward|forward> of each qubit's order-image row (forward, backward)
    return tuple(complex(np.vdot(bwd, fwd)) for fwd, bwd in ends)


def overlap(pair: UnitaryPair, phi: np.ndarray) -> complex:
    """<phi| backward_order(pair)^dagger forward_order(pair) |phi>."""
    return _overlaps(_end_vectors([pair], [phi]))[0]


def check_max_entanglement(spec: SwitchSpec, tol: float = CONDITION_TOL) -> ConditionReport:
    """Evaluate the per-qubit orthogonality condition for maximal entanglement.

    The report is protocol-agnostic: the Bell, GHZ and W conditions all
    reduce to the same per-qubit scalar. ``tol`` must satisfy 0 < tol < 0.5,
    so that no overlap can be both orthogonal and aligned.
    """
    if not 0.0 < tol < 0.5:  # also false for NaN
        raise ValueError(f"tol must lie strictly between 0 and 0.5, got {tol}")
    overlaps = _overlaps(_end_vectors(spec.pairs, spec.inputs))
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
    return list(_end_vectors(spec.pairs, spec.inputs).conj())


def apply_local_unitaries(lus: list[np.ndarray], state: np.ndarray) -> np.ndarray:
    """Apply lus[q] to qubit q of ``state``, one qubit axis at a time."""
    n = len(lus)
    t = np.asarray(state, dtype=complex).reshape([2] * n)
    for q, u in enumerate(lus):
        t = u @ t.reshape(2**q, 2, 2 ** (n - q - 1))
    return t.reshape(-1)


def _tangle(a: list[complex]) -> float:
    # 4|d1 - 2 d2 + 4 d3| over the amplitude list a[ijk]
    a000, a001, a010, a011, a100, a101, a110, a111 = a
    # products of the four antipodal amplitude pairs
    p, q, r, s = a000 * a111, a001 * a110, a010 * a101, a100 * a011
    d1 = p * p + q * q + r * r + s * s
    d2 = p * (q + r + s) + q * (r + s) + r * s
    d3 = a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100
    return 4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3)


def three_tangle(state: np.ndarray) -> float:
    """Residual entanglement of a pure 3-qubit state.

    Closed form of Coffman, Kundu and Wootters (PRA 61, 052306, 2000):
    tau = 4|d1 - 2 d2 + 4 d3|, the Cayley hyperdeterminant of the 2x2x2
    amplitude tensor a[ijk]. It equals the monogamy form
    C^2(0|12) - C^2(01) - C^2(02) but needs no reduced density matrix and no
    mixed-state concurrence.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape != (8,):
        raise ValueError("three_tangle expects a 3-qubit state vector")
    if not abs(np.vdot(state, state).real - 1.0) <= 1e-10:
        raise ValueError("state must be normalized")
    return _tangle(state.tolist())


def certify_class(state: np.ndarray, tol: float = 1e-6) -> str:
    """Classify a pure 3-qubit state: separable | biseparable | ghz-class | w-class.

    Separability tiers come from the single-qubit marginal purities; among
    genuinely tripartite-entangled states the residual 3-tangle separates the
    GHZ class (tau > tol) from the W class (GME concurrence, read off the
    same purities, above tol).

    All of it, and the norm rule |sum |a_i|^2 - 1| <= 1e-10 of ``three_tangle``,
    is read in one scalar pass over the eight amplitudes.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape != (8,):
        raise ValueError("certify_class expects a 3-qubit state vector")
    a = state.tolist()
    if not abs(sum(z.real * z.real + z.imag * z.imag for z in a) - 1.0) <= 1e-10:
        raise ValueError("state must be normalized")  # NaN and inf fail too
    purities = _cut_purities_scalar(a)
    pure_cuts = sum(p > 1.0 - tol for p in purities)
    if pure_cuts == 3:
        return "separable"
    if pure_cuts >= 1:
        return "biseparable"
    if _tangle(a) > tol:
        return "ghz-class"
    if _gme_from_entropy(min(1.0 - p for p in purities)) > tol:
        return "w-class"
    return "biseparable"
