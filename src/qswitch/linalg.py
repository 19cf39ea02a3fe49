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


def kron_all(factors: Iterable[np.ndarray]) -> np.ndarray:
    """Left-to-right Kronecker product of a nonempty sequence of factors."""
    factors = [np.asarray(f, dtype=complex) for f in factors]
    if not factors:
        raise ValueError("kron_all requires at least one factor")
    return reduce(np.kron, factors)


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


def is_unitary(m: np.ndarray) -> bool:
    """True iff ``m`` is 2x2, every |entry| <= 1 + ATOL and every
    |(m^dagger m - I) entry| <= ATOL.

    2x2 is the size of every gate. The check runs in Python scalars, each
    comparison written so that a NaN fails it; the entries are bounded first,
    so that the Gram entries below cannot overflow.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        return False
    entries = m.ravel().tolist()
    if not all(abs(z) <= 1.0 + ATOL for z in entries):
        return False
    a, b, c, d = entries
    w = [z.real * z.real + z.imag * z.imag for z in entries]
    # m^dagger m - I from the columns (a, c) and (b, d); its (1, 0) entry is
    # the conjugate of its (0, 1) entry, so it has the same modulus
    gram = (w[0] + w[2] - 1.0, w[1] + w[3] - 1.0, a.conjugate() * b + c.conjugate() * d)
    return all(abs(g) <= ATOL for g in gram)
