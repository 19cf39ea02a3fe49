import math

import numpy as np
import pytest
import scipy.linalg

from conftest import haar_unitary
from qswitch.gates import (
    PAULI_Y,
    PAULI_Z,
    UnitaryPair,
    backward_order,
    forward_order,
    local_tensor,
    parse_gate,
    pauli,
    ry,
)
from qswitch.linalg import is_unitary, kron_all

I2 = np.eye(2, dtype=complex)


def test_pauli_values():
    assert np.allclose(pauli("z"), np.diag([1, -1]))
    assert np.allclose(pauli("x") @ pauli("x"), I2)
    assert np.allclose(pauli("y"), [[0, -1j], [1j, 0]])
    with pytest.raises(ValueError):
        pauli("w")


def test_ry_zero_is_identity():
    assert np.allclose(ry(0.0), I2)


def test_ry_matches_matrix_exponential():
    # independent oracle: expm(-i sigma_y lambda) over a lambda grid
    for lam in np.linspace(0, math.pi, 7):
        assert np.allclose(ry(2 * lam), scipy.linalg.expm(-1j * PAULI_Y * lam), atol=1e-12)
    root_half = math.sqrt(2) / 2
    assert np.allclose(ry(math.pi / 2), [[root_half, -root_half], [root_half, root_half]])


def test_ry_inverse(rng):
    for lam in rng.uniform(0, 2 * math.pi, size=10):
        assert np.allclose(ry(2 * lam) @ ry(-2 * lam), I2)


def test_unitary_pair_validates():
    with pytest.raises(ValueError):
        UnitaryPair(np.array([[1, 1], [0, 1]], dtype=complex), I2)
    with pytest.raises(ValueError):
        UnitaryPair(I2, np.eye(4, dtype=complex))


def test_orders_identity_pair():
    p = UnitaryPair(I2, I2)
    assert np.allclose(forward_order(p), I2)
    assert np.allclose(backward_order(p), I2)


def test_orders_anticommuting_pair():
    p = UnitaryPair(pauli("z"), pauli("x"))
    zx = PAULI_Z @ pauli("x")
    assert np.allclose(forward_order(p), zx)
    assert np.allclose(backward_order(p), -zx)


def test_order_mismatch_is_double_rotation(rng):
    # sigma_z ry(t) sigma_z = ry(-t) collapses the order mismatch to ry(4 lam)
    for lam in rng.uniform(0, math.pi / 2, size=8):
        p = UnitaryPair(pauli("z"), ry(2 * lam))
        got = backward_order(p).conj().T @ forward_order(p)
        assert np.allclose(got, ry(4 * lam), atol=1e-12)


def test_orders_unitary(rng):
    p = UnitaryPair(haar_unitary(rng), haar_unitary(rng))
    assert is_unitary(forward_order(p))
    assert is_unitary(backward_order(p))


def test_commuting_pair_orders_coincide():
    p = UnitaryPair(pauli("z"), np.diag([1.0, 1j]))
    assert np.max(np.abs(forward_order(p) - backward_order(p))) <= 1e-14


def test_local_tensor_examples():
    v, vt = local_tensor([UnitaryPair(I2, I2)])
    assert np.allclose(v, I2) and np.allclose(vt, I2)
    p = UnitaryPair(pauli("z"), pauli("z"))
    v, vt = local_tensor([p, p])
    assert np.allclose(v, np.kron(PAULI_Z, PAULI_Z))
    assert np.allclose(vt, v)


def test_local_tensor_matches_kron_composition():
    p = UnitaryPair(pauli("z"), ry(math.pi / 2))
    v, vt = local_tensor([p, p, p])
    assert v.shape == (8, 8)
    assert np.allclose(v, kron_all([p.u] * 3))
    assert np.allclose(vt, kron_all([p.u_tilde] * 3))
    assert is_unitary(v) and is_unitary(vt)


def test_local_tensor_empty_rejected():
    with pytest.raises(ValueError):
        local_tensor([])


def test_parse_gate_names():
    assert np.allclose(parse_gate("pauli_z"), PAULI_Z)
    assert np.allclose(parse_gate("ry(1.5707963267948966)"), ry(math.pi / 2))
    got = parse_gate("matrix([[0+1i,0+0i],[0+0i,0-1i]])")
    assert np.allclose(got, np.diag([1j, -1j]))


@pytest.mark.parametrize("bad", ["hadamard", "ry()", "ry(x)", "matrix([[1,0]])", "matrix([[1]])",
                                 "matrix([[inf+0i,0+0i],[0+0i,1+0i]])",
                                 "matrix([[1+0i,0+0i],[0+nani,1+0i]])"])
def test_parse_gate_rejects(bad):
    with pytest.raises(ValueError):
        parse_gate(bad)


@pytest.mark.parametrize("entry", [1e200, 1e308 + 1e308j, complex(math.inf, 0), complex(0, math.nan)])
def test_is_unitary_rejects_huge_or_non_finite_entry_silently(entry):
    # Tier-1 turns a RuntimeWarning into an error, so an overflowing Gram product fails here
    assert not is_unitary(np.array([[entry, 0], [0, 1]]))
