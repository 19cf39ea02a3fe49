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
from .metrics import _cut_purities_scalar
from .switch import SwitchSpec, _as_qubit_states, _end_vectors, _normalised_weights

CONDITION_TOL = 1e-9
CLASS_TOL = 1e-6  # purity and tangle threshold of certify_class


@dataclass(frozen=True)
class ConditionReport:
    per_qubit_overlap: tuple[complex, ...]
    all_orthogonal: bool
    any_aligned: bool
    tol: float


def _overlaps(ends: np.ndarray) -> tuple[complex, ...]:
    # <backward|forward> of each qubit's order-image row (forward, backward)
    return tuple(np.vecdot(ends[..., 1, :], ends[..., 0, :]).tolist())


def overlap(pair: UnitaryPair, phi: np.ndarray) -> complex:
    """<phi| (u_tilde u)^dagger (u u_tilde) |phi>: the overlap of the pair's
    backward-order image with its forward-order one.

    ``phi`` must be a finite, normalised single-qubit state, as in ``SwitchSpec``.
    """
    return _overlaps(_end_vectors([pair], _as_qubit_states([phi])))[0]


def condition_report(ends: np.ndarray, tol: float = CONDITION_TOL) -> ConditionReport:
    """Evaluate the per-qubit orthogonality condition for maximal entanglement
    on the order images ``ends`` (n, 2, 2) of any n >= 1 qubits (``_end_vectors``).

    The report is protocol-agnostic: the Bell, GHZ and W conditions all
    reduce to the same per-qubit scalar. ``tol`` must satisfy 0 < tol < 0.5,
    so that no overlap can be both orthogonal and aligned.
    """
    if not 0.0 < tol < 0.5:  # also false for NaN
        raise ValueError(f"tol must lie strictly between 0 and 0.5, got {tol}")
    overlaps = _overlaps(ends)
    return ConditionReport(
        per_qubit_overlap=overlaps,
        all_orthogonal=all(abs(z) < tol for z in overlaps),
        any_aligned=any(abs(z) > 1.0 - tol for z in overlaps),
        tol=tol,
    )


def check_max_entanglement(spec: SwitchSpec, tol: float = CONDITION_TOL) -> ConditionReport:
    """``condition_report`` on the order images of ``spec``."""
    return condition_report(spec.ends, tol)


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
    a = state.tolist()
    _normalised_weights(a, "state must be normalized")
    return _tangle(a)


def certify_class(state: np.ndarray) -> str:
    """Classify a pure 3-qubit state: separable | biseparable | ghz-class | w-class.

    The class comes from the single-qubit marginal purities and the 3-tangle at
    the fixed threshold CLASS_TOL = 1e-6. Three pure cuts (purity > 1 - CLASS_TOL)
    make a separable state, one or two a biseparable one. With no pure cut, tau >
    CLASS_TOL is the GHZ class and the rest the W class: every cut's linear entropy
    is then at least CLASS_TOL, so the GME concurrence, at least sqrt(2 CLASS_TOL),
    is above CLASS_TOL and decides nothing. All of it, and the norm rule of every state
    check (``switch._normalised_weights``), is read in one scalar pass over the eight
    amplitudes and their squared magnitudes, each computed once.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape != (8,):
        raise ValueError("certify_class expects a 3-qubit state vector")
    a = state.tolist()
    weights = _normalised_weights(a, "state must be normalized")
    pure_cuts = sum(p > 1.0 - CLASS_TOL for p in _cut_purities_scalar(a, weights))
    if pure_cuts == 3:
        return "separable"
    if pure_cuts >= 1:
        return "biseparable"
    return "ghz-class" if _tangle(a) > CLASS_TOL else "w-class"
