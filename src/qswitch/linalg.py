"""Dense complex linear algebra kernel for small multi-qubit systems.

Everything operates on plain numpy arrays: state vectors are 1-D complex
arrays of length 2^n, operators and density matrices are square 2-D complex
arrays. Qubit 0 is the leftmost tensor factor throughout, so basis index
``b0 b1 ... b_{n-1}`` reads left to right.
"""
from __future__ import annotations

from functools import reduce
from typing import Iterable

import numpy as np

ATOL = 1e-12
HERMITIAN_ATOL = 1e-10


def kron_all(factors: Iterable[np.ndarray]) -> np.ndarray:
    """Left-to-right Kronecker product of a nonempty sequence of factors."""
    factors = [np.asarray(f, dtype=complex) for f in factors]
    if not factors:
        raise ValueError("kron_all requires at least one factor")
    return reduce(np.kron, factors)


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


def is_unitary(m: np.ndarray, tol: float = ATOL) -> bool:
    """True iff ``m`` is 2x2, every |entry| <= 1 + tol and every
    |(m^dagger m - I) entry| <= tol.

    2x2 is the size of every gate. The check runs in Python scalars, each
    comparison written so that a NaN fails it; the entries are bounded first,
    so that the Gram entries below cannot overflow.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        return False
    entries = m.ravel().tolist()
    if not all(abs(z) <= 1.0 + tol for z in entries):
        return False
    a, b, c, d = entries
    w = [z.real * z.real + z.imag * z.imag for z in entries]
    # m^dagger m - I from the columns (a, c) and (b, d); its (1, 0) entry is
    # the conjugate of its (0, 1) entry, so it has the same modulus
    gram = (w[0] + w[2] - 1.0, w[1] + w[3] - 1.0, a.conjugate() * b + c.conjugate() * d)
    return all(abs(g) <= tol for g in gram)


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_ATOL) -> bool:
    m = np.asarray(m, dtype=complex)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and np.max(np.abs(m - dagger(m))) <= tol


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
