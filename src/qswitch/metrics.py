"""Entanglement quantification: two-qubit concurrence, GME concurrence, purity."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .linalg import (
    eigvals_hermitian,
    is_hermitian,
    num_qubits,
    reduced_density,
    spin_flip,
    sqrtm_psd,
)

_CLAMP_SLACK = 1e-8
_EIGEN_DUST = 1e-12  # eigenvalue dust zeroed before square roots


@dataclass(frozen=True)
class MetricReport:
    metric: str
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


def _clamp_unit(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    worst = np.max(values, initial=-np.inf)
    if worst > 1.0 + _CLAMP_SLACK:
        raise ValueError(f"metric value {worst} above 1 beyond numerical slack")
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


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2), between 1/2^n (maximally mixed) and 1 (pure)."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.trace(rho @ rho).real)


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


def gme_concurrence(state: np.ndarray, all_bipartitions: bool = False) -> MetricReport:
    """sqrt(2 * min over cuts of (1 - Tr rho_cut^2)) for a pure n-qubit state.

    By default the minimum runs over the n single-qubit cuts; set
    ``all_bipartitions`` to scan every bipartition instead.
    """
    state = np.asarray(state, dtype=complex)
    n = num_qubits(state.shape[0])
    if abs(np.linalg.norm(state) - 1.0) > 1e-10:
        raise ValueError("state must be normalized")
    if all_bipartitions:
        cuts = [
            list(c)
            for size in range(1, n // 2 + 1)
            for c in combinations(range(n), size)
            if size < n / 2 or 0 in c  # each bipartition once
        ]
    else:
        cuts = [[q] for q in range(n)]
    single = 1.0 - _cut_purities(state)
    per_cut = {}
    for cut in cuts:
        per_cut[",".join(map(str, cut))] = (
            float(single[cut[0]]) if len(cut) == 1
            else 1.0 - purity(reduced_density(state, cut))
        )
    value = float(_gme_from_entropy(min(per_cut.values())))
    return MetricReport(metric="gme_concurrence", value=value, subsystem_values=per_cut)
