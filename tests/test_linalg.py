"""The dense linear-algebra oracles of tests/conftest.py that other tests build on."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    basis_state,
    density,
    haar_unitary,
    kron_all,
    partial_trace,
    random_density,
    random_pure_state,
    reduced_density,
)
from qswitch.gates import PAULI_X, PAULI_Y, PAULI_Z

I2 = np.eye(2, dtype=complex)


def test_kron_identity():
    assert np.allclose(kron_all([I2, I2]), np.eye(4))


def test_kron_pauli_z_diagonal():
    assert np.allclose(kron_all([PAULI_Z, PAULI_Z]), np.diag([1, -1, -1, 1]))


def test_kron_matches_index_formula():
    a, b = PAULI_X, PAULI_Y
    got = kron_all([a, b])
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert got[2 * i + k, 2 * j + l] == a[i, j] * b[k, l]


def test_kron_all_empty_rejected():
    with pytest.raises(ValueError):
        kron_all([])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31))
def test_kron_associative_and_unitary(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (haar_unitary(rng) for _ in range(3))
    assert np.max(np.abs(kron_all([kron_all([a, b]), c]) - kron_all([a, kron_all([b, c])]))) <= 1e-12
    ab = kron_all([a, b])
    assert np.max(np.abs(ab.conj().T @ ab - np.eye(4))) <= 1e-12


def test_partial_trace_product_state():
    rho = density(basis_state(2, 0))
    assert np.allclose(partial_trace(rho, [0]), density(basis_state(1, 0)))


def test_partial_trace_ghz_marginal():
    ghz = (basis_state(3, 0) + basis_state(3, 7)) / math.sqrt(2)
    assert np.allclose(partial_trace(density(ghz), [0]), np.eye(2) / 2)


def test_partial_trace_w_marginal():
    w = (basis_state(3, 4) + basis_state(3, 2) + basis_state(3, 1)) / math.sqrt(3)
    assert np.allclose(partial_trace(density(w), [0]), np.diag([2 / 3, 1 / 3]))


def test_partial_trace_keep_all_and_trace_preservation(rng):
    rho = random_density(rng, 3)
    assert np.allclose(partial_trace(rho, [0, 1, 2]), rho)
    for keep in ([0], [1, 2], [2, 0]):
        assert abs(np.trace(partial_trace(rho, keep)) - np.trace(rho)) <= 1e-12


def test_partial_trace_invalid_keep(rng):
    rho = random_density(rng, 2)
    with pytest.raises(ValueError):
        partial_trace(rho, [])
    with pytest.raises(ValueError):
        partial_trace(rho, [5])


def test_reduced_density_matches_partial_trace(rng):
    psi = random_pure_state(rng, 3)
    rho = density(psi)
    for keep in ([0], [2], [0, 2]):
        assert np.allclose(reduced_density(psi, keep), partial_trace(rho, keep))

