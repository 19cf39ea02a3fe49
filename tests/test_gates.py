import math
import re

import numpy as np
import pytest

from conftest import (NAN_PAYLOADS, dense_is_unitary, haar_unitary, kron_all, reference_is_unitary,
                      reference_ry, same_bits)
from qswitch.gates import (
    ATOL,
    PAULI_Y,
    PAULI_Z,
    UnitaryPair,
    is_unitary,
    local_tensor,
    parse_gate,
    pauli,
    ry,
)

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
    import scipy.linalg  # imported here, its only user: it costs every collection ~250 ms

    # independent oracle: expm(-i sigma_y lambda) over a lambda grid
    for lam in np.linspace(0, math.pi, 7):
        assert np.allclose(ry(2 * lam), scipy.linalg.expm(-1j * PAULI_Y * lam), atol=1e-12)
    root_half = math.sqrt(2) / 2
    assert np.allclose(ry(math.pi / 2), [[root_half, -root_half], [root_half, root_half]])


def test_ry_inverse(rng):
    for lam in rng.uniform(0, 2 * math.pi, size=10):
        assert np.allclose(ry(2 * lam) @ ry(-2 * lam), I2)


# signed zeros, the smallest subnormal, a huge value, infinities and two NaN payloads
EDGE_ANGLES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, math.inf, -math.inf]
                       + NAN_PAYLOADS)


def test_ry_equals_the_stacked_construction_bitwise():
    angles = np.concatenate([EDGE_ANGLES, np.random.default_rng(7).normal(scale=10.0, size=1000)])
    with np.errstate(invalid="ignore"):  # cos and sin of an infinity are NaN
        for angle in angles.tolist():
            assert same_bits(ry(angle), reference_ry(angle))
        assert same_bits(ry(angles), reference_ry(angles))
        assert same_bits(ry(angles.reshape(-1, 2)), reference_ry(angles.reshape(-1, 2)))
        assert np.isnan(ry(EDGE_ANGLES[-4:])).all()


def test_unitary_pair_validates():
    with pytest.raises(ValueError):
        UnitaryPair(np.array([[1, 1], [0, 1]], dtype=complex), I2)
    with pytest.raises(ValueError):
        UnitaryPair(I2, np.eye(4, dtype=complex))


def test_orders_identity_pair():
    p = UnitaryPair(I2, I2)
    assert np.allclose(p.u @ p.u_tilde, I2)
    assert np.allclose(p.u_tilde @ p.u, I2)


def test_orders_anticommuting_pair():
    p = UnitaryPair(pauli("z"), pauli("x"))
    zx = PAULI_Z @ pauli("x")
    assert np.allclose(p.u @ p.u_tilde, zx)
    assert np.allclose(p.u_tilde @ p.u, -zx)


def test_order_mismatch_is_double_rotation(rng):
    # sigma_z ry(t) sigma_z = ry(-t) collapses the order mismatch to ry(4 lam)
    for lam in rng.uniform(0, math.pi / 2, size=8):
        p = UnitaryPair(pauli("z"), ry(2 * lam))
        got = (p.u_tilde @ p.u).conj().T @ (p.u @ p.u_tilde)
        assert np.allclose(got, ry(4 * lam), atol=1e-12)


def test_orders_unitary(rng):
    p = UnitaryPair(haar_unitary(rng), haar_unitary(rng))
    assert is_unitary(p.u @ p.u_tilde)
    assert is_unitary(p.u_tilde @ p.u)


def test_commuting_pair_orders_coincide():
    p = UnitaryPair(pauli("z"), np.diag([1.0, 1j]))
    assert np.max(np.abs((p.u @ p.u_tilde) - (p.u_tilde @ p.u))) <= 1e-14


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
    assert dense_is_unitary(v) and dense_is_unitary(vt)


def test_local_tensor_empty_rejected():
    with pytest.raises(ValueError):
        local_tensor([])


def test_parse_gate_names():
    assert np.allclose(parse_gate("pauli_z"), PAULI_Z)
    assert np.allclose(parse_gate("ry(1.5707963267948966)"), ry(math.pi / 2))
    got = parse_gate("matrix([[0+1i,0+0i],[0+0i,0-1i]])")
    assert np.allclose(got, np.diag([1j, -1j]))
    for spaced in ("matrix( [ [ 1 , 0 ] , [ 0 , 1 ] ] )", "matrix([[1,0],\n [0,1]])",
                   " matrix([[1+0i, 0], [0, 1]]) "):
        assert np.array_equal(parse_gate(spaced), I2)


@pytest.mark.parametrize("bad", ["hadamard", "ry()", "ry(x)", "matrix([[1,0]])", "matrix([[1]])",
                                 "matrix([[inf+0i,0+0i],[0+0i,1+0i]])",
                                 "matrix([[1+0i,0+0i],[0+nani,1+0i]])",
                                 # junk around the literal, each once read as the identity
                                 "matrix([[1,0],[0,1]]xyz)", "matrix(foo[1,0]bar[0,1])",
                                 "matrix([1,0],[0,1])", "matrix([[1,0][0,1]])",
                                 "matrix([[1,0],[0,1],])", "matrix([[1,0]],[[0,1]])"])
def test_parse_gate_rejects(bad):
    with pytest.raises(ValueError):
        parse_gate(bad)


@pytest.mark.parametrize("bad,message", [
    ("matrix()", "unknown gate name"),
    ("matrix([[1,0]])", "matrix literal must have 2 rows"),
    ("matrix([[1,0],[0,1],[0,0]])", "matrix literal must have 2 rows"),
    ("matrix([[],[]])", "cannot parse complex entry ''"),
    ("matrix([[1, x],[0,1]])", "cannot parse complex entry ' x'"),
    ("matrix([[x,0],[0,1]]xyz)", "cannot parse complex entry 'x'"),
    ("matrix([[inf,0],[0,1]]xyz)", "matrix entries must be finite"),
    ("matrix([[1,0,0],[0,1,0]])", "matrix literal must be 2x2"),
    ("matrix([[1,0],[0,1]]xyz)", "matrix literal must be 2x2"),
])
def test_parse_gate_rejection_messages(bad, message):
    # texts outside the 2x2 form keep the message of their first fault
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        parse_gate(bad)


_BAD_ENTRIES = [math.nan, complex(0, math.nan), math.inf, -math.inf, complex(0, -math.inf), 1e200]


@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("entry", _BAD_ENTRIES, ids=repr)
def test_unitarity_rejects_bad_entry_at_each_position(entry, position):
    m = ry(1.0)  # every entry nonzero
    m.reshape(-1)[position] = entry
    assert not is_unitary(m)
    with pytest.raises(ValueError, match="^u is not unitary"):
        UnitaryPair(m, PAULI_Z)
    with pytest.raises(ValueError, match="^u_tilde is not unitary"):
        UnitaryPair(PAULI_Z, m)


def test_scalar_unitarity_matches_dense_rule_near_tolerance():
    # Haar unitaries plus a perturbation whose Gram deviation spreads over [1e-13, 1e-11]
    rng = np.random.default_rng(5)
    count = 100_000
    z = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    noise = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
    scale = 10.0 ** rng.uniform(-13.3, -11.3, size=count)
    mats = q * (d / np.abs(d))[:, None, :] + scale[:, None, None] * noise
    gram = np.swapaxes(mats.conj(), -1, -2) @ mats - np.eye(2)
    deviation = np.abs(gram).max(axis=(-2, -1))
    assert np.quantile(deviation, 0.05) < 1e-12 < np.quantile(deviation, 0.95)
    # conftest.dense_is_unitary's rule over the whole stack at once
    dense = (np.abs(mats).max(axis=(-2, -1)) <= 1.0 + ATOL) & (deviation <= ATOL)
    differ = [i for i, m in enumerate(mats) if is_unitary(m) != dense[i]]
    # the two roundings of the Gram product differ in the last bit only at the tolerance
    assert all(abs(deviation[i] - 1e-12) <= 1e-15 for i in differ), deviation[differ]


def test_is_unitary_decides_like_the_entry_loop():
    # near-tolerance Haar matrices, and each entry of a Haar matrix replaced in
    # turn by a value at or past the entry bound or not finite
    rng = np.random.default_rng(6)
    count = 20_000
    z = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    noise = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
    scale = 10.0 ** rng.uniform(-13.3, -11.3, size=count)
    mats = list(q * (d / np.abs(d))[:, None, :] + scale[:, None, None] * noise)
    special = [1.0 + ATOL, np.nextafter(1.0 + ATOL, 2.0), -1.0 - 2 * ATOL, 1j * (1.0 + ATOL),
               1e200, 1e308 + 1e308j, 5e-324, -0.0, complex(-0.0, -0.0),
               math.inf, -math.inf, math.nan, complex(0, math.nan), complex(math.inf, math.nan)]
    for value in special:
        for k in range(4):
            m = haar_unitary(rng)
            m.reshape(-1)[k] = value
            mats.append(m)
    mats += [I2 * (1.0 + ATOL), PAULI_Y * complex(math.nan, 0), np.full((2, 2), math.nan)]
    # orthogonal columns whose first Gram entry lies within rounding of ATOL, so
    # that summing it as |a|^2 + (|c|^2 - 1) would accept what the rule rejects
    s = 0.9999999999995
    for a, c in ((0.8682292408913991, 0.4961632647245712),
                 (0.36674358257827244, 0.9303220650068738)):
        mats.append(np.array([[a, -c * s], [c, a * s]], dtype=complex))
    assert [is_unitary(m) for m in mats] == [reference_is_unitary(m) for m in mats]


@pytest.mark.parametrize("m", [np.eye(1), np.eye(4), np.eye(2, 3), np.eye(2)[None]],
                         ids=["1x1", "4x4", "2x3", "1x2x2"])
def test_is_unitary_is_false_off_2x2(m):
    # every gate is 2x2; larger operators are checked by conftest.dense_is_unitary
    assert not is_unitary(m)


@pytest.mark.parametrize("entry", [1e200, 1e308 + 1e308j, complex(math.inf, 0), complex(0, math.nan)])
def test_is_unitary_rejects_huge_or_non_finite_entry_silently(entry):
    # Tier-1 turns a RuntimeWarning into an error, so an overflowing Gram product fails here
    assert not is_unitary(np.array([[entry, 0], [0, 1]]))
