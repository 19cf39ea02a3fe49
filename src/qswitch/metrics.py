"""Entanglement quantification: two-qubit concurrence and GME concurrence."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import eigvals_hermitian, is_hermitian, num_qubits, spin_flip, sqrtm_psd

_CLAMP_SLACK = 1e-8
_EIGEN_DUST = 1e-12  # eigenvalue dust zeroed before square roots


@dataclass(frozen=True)
class MetricReport:
    value: float
    subsystem_values: Optional[dict[str, float]] = None


def _validate_density(rho: np.ndarray, n: Optional[int] = None) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    qubits = num_qubits(rho.shape[0])
    if n is not None and qubits != n:
        raise ValueError(f"expected a {n}-qubit density matrix, got {qubits} qubits")
    if not is_hermitian(rho):
        raise ValueError("density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError("density matrix must have unit trace")
    return rho


def _check_unit(worst: float) -> None:
    """Reject a metric value above 1 by more than the numerical slack."""
    if worst > 1.0 + _CLAMP_SLACK:
        raise ValueError(f"metric value {worst} above 1 beyond numerical slack")


def _clamp_unit(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    _check_unit(np.max(values, initial=-np.inf))
    return np.clip(values, 0.0, 1.0)


def concurrence(rho: np.ndarray) -> float:
    """Two-qubit concurrence max{0, mu1 - mu2 - mu3 - mu4}.

    The mu_i are the square roots of the eigenvalues of rho @ spin_flip(rho)
    in decreasing order, computed via the Hermitian product
    sqrt(rho) @ spin_flip(rho) @ sqrt(rho).
    """
    rho = _validate_density(rho, n=2)
    root = sqrtm_psd(rho)
    vals = eigvals_hermitian(root @ spin_flip(rho) @ root)
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


def _cut_purities(states: np.ndarray) -> np.ndarray:
    """Tr(rho_q^2) of every single-qubit marginal of pure states: (..., 2^n) -> (..., n)."""
    n = num_qubits(states.shape[-1])
    out = []
    for q in range(n):
        halves = states.reshape(states.shape[:-1] + (2**q, 2, 2 ** (n - q - 1)))
        a, b = halves[..., 0, :], halves[..., 1, :]
        r00 = (a.real**2 + a.imag**2).sum(axis=(-2, -1))
        r11 = (b.real**2 + b.imag**2).sum(axis=(-2, -1))
        r01 = (a * b.conj()).sum(axis=(-2, -1))
        out.append(r00 * r00 + r11 * r11 + 2.0 * (r01.real**2 + r01.imag**2))
    return np.stack(out, axis=-1)


# amplitude index pairs (i, i | 2^(2-q)) that differ only in qubit q's bit
_QUBIT_PAIRS = tuple(tuple((i, i | bit) for i in range(8) if not i & bit) for bit in (4, 2, 1))


def _cut_purities_scalar(a: list[complex]) -> list[float]:
    """``_cut_purities`` of one 3-qubit state given as its eight amplitudes, in
    Python scalars: qubit q's marginal has r00 = sum |a_i|^2, r11 = sum |a_j|^2
    and r01 = sum a_i conj(a_j) over the pairs (i, j = i | 2^(2-q)), and purity
    r00^2 + r11^2 + 2|r01|^2."""
    weights = [z.real * z.real + z.imag * z.imag for z in a]
    out = []
    for pairs in _QUBIT_PAIRS:
        r00 = r11 = 0.0
        r01 = 0j
        for i, j in pairs:
            r00 += weights[i]
            r11 += weights[j]
            r01 += a[i] * a[j].conjugate()
        out.append(r00 * r00 + r11 * r11 + 2.0 * (r01.real * r01.real + r01.imag * r01.imag))
    return out


def _gme_from_entropy(minimum) -> np.ndarray:
    # a numerically pure cut (linear entropy below the dust) is biseparable
    minimum = np.asarray(minimum, dtype=float)
    root = np.sqrt(2.0 * np.maximum(minimum, 0.0))
    return _clamp_unit(np.where(minimum < _EIGEN_DUST, 0.0, root))


def _gme_from_entropy_scalar(minimum: float) -> float:
    """``_gme_from_entropy`` of one float, with the same dust and clamp rule."""
    value = 0.0 if minimum < _EIGEN_DUST else math.sqrt(2.0 * minimum)
    _check_unit(value)
    return min(value, 1.0)


def pure_gme_concurrence(states: np.ndarray) -> np.ndarray:
    """Single-cut GME concurrence of normalised pure states over any leading
    batch axes: (..., 2^n) -> (...), equal to ``gme_concurrence(psi).value``."""
    states = np.asarray(states, dtype=complex)
    return _gme_from_entropy(np.min(1.0 - _cut_purities(states), axis=-1))


def gme_concurrence(state: np.ndarray) -> MetricReport:
    """sqrt(2 * min over the n single-qubit cuts of (1 - Tr rho_q^2)) for a pure
    n-qubit state (Ma et al., PRA 83, 062325, 2011), with each cut's linear
    entropy keyed by its qubit index."""
    state = np.asarray(state, dtype=complex)
    size = state.shape[0] if state.ndim == 1 else 0
    if size < 2 or size & (size - 1):
        raise ValueError(f"expected a 1-D state of length 2^n with n >= 1, got shape {state.shape}")
    if not abs(np.linalg.norm(state) - 1.0) <= 1e-10:  # NaN and inf fail too
        raise ValueError("state must be normalized")
    per_cut = {str(q): v for q, v in enumerate((1.0 - _cut_purities(state)).tolist())}
    return MetricReport(value=_gme_from_entropy_scalar(min(per_cut.values())),
                        subsystem_values=per_cut)
