"""Entanglement quantification: two-qubit concurrence and GME concurrence."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gates import PAULI_Y
from .switch import _normalised_weights, num_qubits

_CLAMP_SLACK = 1e-8
_EIGEN_DUST = 1e-12  # eigenvalue dust zeroed before square roots
_DENSITY_ATOL = 1e-10  # Hermiticity, trace and smallest-eigenvalue slack of a density matrix
_YY = np.kron(PAULI_Y, PAULI_Y)


@dataclass(frozen=True)
class MetricReport:
    value: float
    subsystem_values: Optional[dict[str, float]] = None


def _is_hermitian(m: np.ndarray) -> bool:
    return np.max(np.abs(m - m.conj().T)) <= _DENSITY_ATOL


def _clamp_unit(values) -> np.ndarray:
    """Clip metric values to [0, 1], rejecting one above 1 by more than the numerical slack."""
    values = np.asarray(values, dtype=float)
    worst = np.max(values, initial=-np.inf)
    if worst > 1.0 + _CLAMP_SLACK:
        raise ValueError(f"metric value {worst} above 1 beyond numerical slack")
    return np.clip(values, 0.0, 1.0)


def concurrence(rho: np.ndarray) -> float:
    """Two-qubit concurrence max{0, mu1 - mu2 - mu3 - mu4} (Wootters, PRL 80, 2245, 1998).

    The mu_i are the square roots of the eigenvalues of the Hermitian product
    sqrt(rho) @ flip(rho) @ sqrt(rho) in decreasing order, with the spin flip
    flip(rho) = (sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y); without the
    entrywise conjugate the value is not an entanglement monotone on complex
    states. ``rho``, a 4x4 matrix Hermitian within 1e-10, is read as its Hermitian part
    (rho + rho^dagger) / 2, a density matrix: unit trace within 1e-10, no eigenvalue below -1e-10.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    qubits = num_qubits(rho.shape[0])
    if qubits != 2:
        raise ValueError(f"expected a 2-qubit density matrix, got {qubits} qubits")
    if not _is_hermitian(rho):
        raise ValueError("density matrix must be Hermitian")
    rho = (rho + rho.conj().T) / 2  # its Hermitian part, read by every step below
    if abs(np.trace(rho).real - 1.0) > _DENSITY_ATOL:
        raise ValueError("density matrix must have unit trace")
    vals, vecs = np.linalg.eigh(rho)
    if vals[0] < -_DENSITY_ATOL:
        raise ValueError("density matrix must be positive semidefinite")
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    vals = np.linalg.eigvalsh(root @ (_YY @ rho.conj() @ _YY) @ root)[::-1]
    vals = np.where(vals < _EIGEN_DUST, 0.0, vals)  # sqrt would amplify dust
    mus = np.sqrt(vals)
    return float(_clamp_unit(mus[0] - mus[1] - mus[2] - mus[3]))


def pure_concurrence(states: np.ndarray) -> np.ndarray:
    """Concurrence 2|psi_00 psi_11 - psi_01 psi_10| of normalised two-qubit pure
    states, over any leading batch axes: (..., 4) -> (...).

    Wootters' closed form, equal to ``concurrence(density(psi))``; like that
    path, a value whose square is eigenvalue dust reads exactly 0.
    """
    states = np.asarray(states, dtype=complex)
    if states.shape[-1] != 4:
        raise ValueError(f"expected two-qubit states, got dimension {states.shape[-1]}")
    c = 2.0 * np.abs(states[..., 0] * states[..., 3] - states[..., 1] * states[..., 2])
    return _clamp_unit(np.where(c * c < _EIGEN_DUST, 0.0, c))


def _purity(r00, r11, r01):  # scalars, or arrays of them
    return r00 * r00 + r11 * r11 + 2.0 * (r01.real * r01.real + r01.imag * r01.imag)


def _cut_purities(states: np.ndarray) -> np.ndarray:
    """Tr(rho_q^2) of every single-qubit marginal of pure states: (..., 2^n) -> (..., n)."""
    n = num_qubits(states.shape[-1])
    weights = states.real**2 + states.imag**2  # |a_i|^2, squared once for every qubit
    out = []
    for q in range(n):
        shape = states.shape[:-1] + (2**q, 2, 2 ** (n - q - 1))
        halves, w = states.reshape(shape), weights.reshape(shape)
        a, b = halves[..., 0, :], halves[..., 1, :]
        # each half is summed from a packed copy laid out as a freshly computed half would
        # be, so every reduction keeps the order it has over |a|^2 of that half alone
        r00 = w[..., 0, :].copy(order="K").sum(axis=(-2, -1))
        r11 = w[..., 1, :].copy(order="K").sum(axis=(-2, -1))
        # b.conj() is bound to a name: an unnamed temporary above 256 KiB is elided, and the
        # product then runs in place through another loop, with other last bits than alone
        conj = b.conj()
        r01 = (a * conj).sum(axis=(-2, -1))
        out.append(_purity(r00, r11, r01))
    return np.stack(out, axis=-1)


def _cut_purities_scalar(a: list[complex], weights: list[float]) -> list[float]:
    """``_cut_purities`` of one 3-qubit state given as its eight amplitudes a_i and
    weights |a_i|^2, in Python scalars: qubit q's marginal has r00 = sum |a_i|^2,
    r11 = sum |a_j|^2 and r01 = sum a_i conj(a_j) over the pairs (i, j = i | 2^(2-q)),
    in increasing i, and purity r00^2 + r11^2 + 2|r01|^2, each sum written out left to right."""
    a0, a1, a2, a3, a4, a5, a6, a7 = a
    w0, w1, w2, w3, w4, w5, w6, w7 = weights
    return [
        _purity(w0 + w1 + w2 + w3, w4 + w5 + w6 + w7,  # qubit 0: pairs (i, i | 4)
                a0 * a4.conjugate() + a1 * a5.conjugate() + a2 * a6.conjugate()
                + a3 * a7.conjugate()),
        _purity(w0 + w1 + w4 + w5, w2 + w3 + w6 + w7,  # qubit 1: pairs (i, i | 2)
                a0 * a2.conjugate() + a1 * a3.conjugate() + a4 * a6.conjugate()
                + a5 * a7.conjugate()),
        _purity(w0 + w2 + w4 + w6, w1 + w3 + w5 + w7,  # qubit 2: pairs (i, i | 1)
                a0 * a1.conjugate() + a2 * a3.conjugate() + a4 * a5.conjugate()
                + a6 * a7.conjugate()),
    ]


def _gme_from_entropy(minimum) -> np.ndarray:
    # a numerically pure cut (linear entropy below the dust) is biseparable
    minimum = np.asarray(minimum, dtype=float)
    root = np.sqrt(2.0 * np.maximum(minimum, 0.0))
    return _clamp_unit(np.where(minimum < _EIGEN_DUST, 0.0, root))


def pure_gme_concurrence(states: np.ndarray) -> np.ndarray:
    """Single-cut GME concurrence of normalised pure states over any leading
    batch axes: (..., 2^n) -> (...), equal to ``gme_concurrence(psi).value``."""
    states = np.asarray(states, dtype=complex)
    return _gme_from_entropy(np.min(1.0 - _cut_purities(states), axis=-1))


def gme_concurrence(state: np.ndarray) -> MetricReport:
    """sqrt(2 * min over the n single-qubit cuts of (1 - Tr rho_q^2)) for a pure n-qubit
    state, normalised by the rule of every state check (``switch._normalised_weights``), with
    each cut's linear entropy keyed by its qubit index (Ma et al., PRA 83, 062325, 2011)."""
    state = np.asarray(state, dtype=complex)
    size = state.shape[0] if state.ndim == 1 else 0
    if size < 2 or size & (size - 1):
        raise ValueError(f"expected a 1-D state of length 2^n with n >= 1, got shape {state.shape}")
    _normalised_weights(state.tolist(), "state must be normalized")
    per_cut = {str(q): v for q, v in enumerate((1.0 - _cut_purities(state)).tolist())}
    return MetricReport(value=float(_gme_from_entropy(min(per_cut.values()))),
                        subsystem_values=per_cut)
