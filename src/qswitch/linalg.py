"""Dense complex linear algebra kernel for small multi-qubit systems.

Everything operates on plain numpy arrays: state vectors are 1-D complex
arrays of length 2^n, operators and density matrices are square 2-D complex
arrays. Qubit 0 is the leftmost tensor factor throughout, so basis index
``b0 b1 ... b_{n-1}`` reads left to right.
"""
from __future__ import annotations

from functools import reduce
from typing import Iterable, Sequence

import numpy as np

ATOL = 1e-12
HERMITIAN_ATOL = 1e-10


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices (or vectors)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_all(factors: Iterable[np.ndarray]) -> np.ndarray:
    """Left-to-right Kronecker product of a nonempty sequence of factors."""
    factors = list(factors)
    if not factors:
        raise ValueError("kron_all requires at least one factor")
    return reduce(kron, factors)


def dagger(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).conj().T


def num_qubits(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def basis_state(n: int, index: int) -> np.ndarray:
    """Computational basis state |index> on n qubits."""
    v = np.zeros(2**n, dtype=complex)
    v[index] = 1.0
    return v


def density(state: np.ndarray) -> np.ndarray:
    """Projector |state><state| of a pure state."""
    state = np.asarray(state, dtype=complex)
    return np.outer(state, state.conj())


def is_unitary(m: np.ndarray, tol: float = ATOL) -> bool:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    # a unitary's entries have modulus at most 1; a larger (or NaN) entry could
    # overflow the Gram product below, so it is rejected before that product
    if not np.abs(m).max() <= 1.0 + tol:
        return False
    gram = np.dot(m.conj().T, m)
    gram.reshape(-1)[:: m.shape[0] + 1] -= 1.0  # gram - identity, in place
    return np.abs(gram).max() <= tol


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_ATOL) -> bool:
    m = np.asarray(m, dtype=complex)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and np.max(np.abs(m - dagger(m))) <= tol


def partial_trace(rho: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrix of ``rho`` over the qubits in ``keep``.

    ``keep`` preserves its own order in the output, trace is preserved.
    """
    rho = np.asarray(rho, dtype=complex)
    n = num_qubits(rho.shape[0])
    keep = list(keep)
    if not keep:
        raise ValueError("keep must be nonempty")
    if len(set(keep)) != len(keep) or any(q < 0 or q >= n for q in keep):
        raise ValueError(f"keep indices must be distinct and in [0, {n}), got {keep}")
    traced = [q for q in range(n) if q not in keep]
    perm = keep + traced
    t = rho.reshape([2] * (2 * n))
    t = t.transpose(perm + [n + q for q in perm])
    dk, dt = 2 ** len(keep), 2 ** len(traced)
    t = t.reshape(dk, dt, dk, dt)
    return np.einsum("ajbj->ab", t)


def reduced_density(state: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrix of a pure state, without forming the full projector."""
    state = np.asarray(state, dtype=complex)
    n = num_qubits(state.shape[0])
    keep = list(keep)
    if not keep:
        raise ValueError("keep must be nonempty")
    traced = [q for q in range(n) if q not in keep]
    t = state.reshape([2] * n).transpose(keep + traced).reshape(2 ** len(keep), -1)
    return t @ t.conj().T


def eigvals_hermitian(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, in descending order."""
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(m)[::-1]


def sqrtm_psd(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Small negative eigenvalues from numerical noise are clamped to zero.
    """
    m = np.asarray(m, dtype=complex)
    vals, vecs = np.linalg.eigh((m + dagger(m)) / 2)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ dagger(vecs)


_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def spin_flip(rho: np.ndarray) -> np.ndarray:
    """Spin-flipped two-qubit density matrix (sigma_y x sigma_y) rho* (sigma_y x sigma_y).

    The entrywise conjugate is part of the standard construction; without it
    the derived concurrence is not an entanglement monotone on complex states.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"spin_flip expects a 4x4 matrix, got shape {rho.shape}")
    return _YY @ rho.conj() @ _YY
