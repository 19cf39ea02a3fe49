import math

import numpy as np
import pytest

from conftest import (
    SWEEP_PROTOCOLS,
    basis_state,
    density,
    gme_all_bipartitions,
    haar_unitary,
    kron_all,
    purity,
    random_pure_state,
    reduced_density,
    reference_cut_purities,
    reference_cut_purities_scalar,
    same_bits,
    sweep_order_images,
)
from qswitch import SwitchSpec, concurrence, gme_concurrence, run, superposed_input
from qswitch.metrics import (
    _CLAMP_SLACK,
    _EIGEN_DUST,
    _cut_purities,
    _cut_purities_scalar,
    _gme_from_entropy,
    pure_gme_concurrence,
)
from qswitch.switch import branch_readout, protocol_plan

PHI_PLUS = (np.array([1, 0, 0, 1], dtype=complex)) / math.sqrt(2)
W3 = (basis_state(3, 4) + basis_state(3, 2) + basis_state(3, 1)) / math.sqrt(3)
GHZ3 = (basis_state(3, 0) + basis_state(3, 7)) / math.sqrt(2)


def pure_concurrence_oracle(psi):
    # for pure two-qubit states, C = sqrt(2 (1 - Tr rho_A^2))
    rho_a = reduced_density(psi, [0])
    return math.sqrt(max(0.0, 2.0 * (1.0 - np.trace(rho_a @ rho_a).real)))


def test_concurrence_bell_state():
    assert abs(concurrence(density(PHI_PLUS)) - 1.0) <= 1e-9


def test_concurrence_product_state():
    assert concurrence(density(basis_state(2, 0))) <= 1e-9


def test_concurrence_partial_entanglement_vs_oracle():
    from qswitch import UnitaryPair, pauli, ry

    # an intermediate rotation gives a strictly partial entanglement value
    pair = UnitaryPair(pauli("z"), ry(math.pi / 4))
    spec = SwitchSpec("bell", [pair] * 2, [superposed_input(0.5)] * 2)
    r = run(spec)
    psi = r.states[r.labels.index("+")]
    c = concurrence(density(psi))
    assert 0.0 < c < 1.0
    assert abs(c - pure_concurrence_oracle(psi)) <= 1e-9


def test_concurrence_rejects_invalid_input(rng):
    with pytest.raises(ValueError):
        concurrence(np.eye(4, dtype=complex))  # trace 4
    with pytest.raises(ValueError):
        concurrence(np.eye(8, dtype=complex) / 8)
    skew = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    skew[0, 1] = 0.1
    with pytest.raises(ValueError, match="density matrix must be Hermitian"):
        concurrence(skew)
    # unit trace and Hermitian, but with a negative eigenvalue
    frame = haar_unitary(rng, 4)
    for spectrum in ([2.0, -1.0, 0.0, 0.0], [1.4, -0.4, 0.0, 0.0]):
        for rho in (np.diag(spectrum), (frame * spectrum) @ frame.conj().T):
            with pytest.raises(ValueError, match="density matrix must be positive semidefinite"):
                concurrence(rho)


def test_concurrence_werner_states():
    # p |Phi+><Phi+| + (1 - p) I/4 has C = max(0, (3p - 1)/2)
    for p in np.linspace(0.0, 1.0, 101):
        rho = p * density(PHI_PLUS) + (1.0 - p) * np.eye(4) / 4
        assert abs(concurrence(rho) - max(0.0, (3.0 * p - 1.0) / 2.0)) <= 1e-12


def test_concurrence_pure_state_oracle_random(rng):
    for _ in range(100):
        psi = random_pure_state(rng, 2)
        assert abs(concurrence(density(psi)) - pure_concurrence_oracle(psi)) <= 1e-9


def test_concurrence_local_unitary_invariance(rng):
    for _ in range(25):
        psi = random_pure_state(rng, 2)
        rotated = np.kron(haar_unitary(rng), haar_unitary(rng)) @ psi
        assert abs(concurrence(density(psi)) - concurrence(density(rotated))) <= 1e-9


def test_concurrence_zero_iff_rank_one(rng):
    for _ in range(25):
        psi = random_pure_state(rng, 2)
        svals = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)
        rank_one = svals[1] / svals[0] < 1e-9
        assert (concurrence(density(psi)) < 1e-9) == rank_one
    product = np.kron(random_pure_state(rng, 1), random_pure_state(rng, 1))
    assert concurrence(density(product)) < 1e-9


def test_gme_ghz_state():
    assert abs(gme_concurrence(GHZ3).value - 1.0) <= 1e-9


def test_gme_biseparable_vanishes():
    state = np.kron(basis_state(1, 0), PHI_PLUS)
    report = gme_concurrence(state)
    assert report.value <= 1e-9
    assert report.subsystem_values["0"] <= 1e-12  # the qubit-0 cut is pure


def test_gme_w_state():
    report = gme_concurrence(W3)
    assert abs(report.value - 2 * math.sqrt(2) / 3) <= 1e-9
    for cut_value in report.subsystem_values.values():
        assert abs(cut_value - 4 / 9) <= 1e-9


def test_gme_local_unitary_invariance(rng):
    for _ in range(10):
        psi = random_pure_state(rng, 3)
        rotated = kron_all([haar_unitary(rng) for _ in range(3)]) @ psi
        assert abs(gme_concurrence(psi).value - gme_concurrence(rotated).value) <= 1e-9


def test_gme_all_bipartitions_flag():
    # a pair of Bell pairs is not GME although every single-qubit cut is mixed
    state = np.kron(PHI_PLUS, PHI_PLUS)
    assert gme_concurrence(state).value > 0.9
    assert gme_all_bipartitions(state) <= 1e-9


def test_gme_rejects_unnormalized():
    with pytest.raises(ValueError):
        gme_concurrence(2.0 * GHZ3)


@pytest.mark.parametrize("state", [np.eye(4, dtype=complex) / 2, np.ones(1, dtype=complex)],
                         ids=["2-d", "length-1"])
def test_gme_rejects_non_vector(state):
    with pytest.raises(ValueError, match=r"expected a 1-D state of length 2\^n with n >= 1"):
        gme_concurrence(state)


def test_purity_examples(rng):
    psi = random_pure_state(rng, 2)
    assert abs(purity(density(psi)) - 1.0) <= 1e-10
    assert abs(purity(np.eye(2) / 2) - 0.5) <= 1e-12
    assert abs(purity(reduced_density(W3, [0])) - 5 / 9) <= 1e-10


def test_metric_range(rng):
    for _ in range(50):
        psi = random_pure_state(rng, 2)
        assert 0.0 <= concurrence(density(psi)) <= 1.0
        assert 0.0 <= gme_concurrence(random_pure_state(rng, 3)).value <= 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gme_rejects_non_finite_state(bad):
    for state in (np.full(8, bad, dtype=complex), GHZ3 + np.array([bad] + [0] * 7)):
        with pytest.raises(ValueError, match="state must be normalized"):
            gme_concurrence(state)


def _weights(a):
    """The |a_i|^2 that ``certify_class`` hands to ``_cut_purities_scalar``."""
    return [z.real * z.real + z.imag * z.imag for z in a]


def test_scalar_cut_purities_match_batched_and_dense(rng):
    states = [random_pure_state(rng, 3) for _ in range(200)] + [GHZ3, W3, basis_state(3, 5)]
    batched = _cut_purities(np.array(states))
    for state, expected in zip(states, batched):
        a = state.tolist()
        scalar = _cut_purities_scalar(a, _weights(a))
        assert np.max(np.abs(np.array(scalar) - expected)) <= 4e-16
        dense = [purity(reduced_density(state, [q])) for q in range(3)]
        assert np.allclose(scalar, dense, rtol=0.0, atol=1e-12)


def test_scalar_cut_purities_equal_the_pair_loop_bitwise(rng):
    # random states, states with signed-zero, subnormal, huge and non-finite parts
    states = [random_pure_state(rng, 3).tolist() for _ in range(500)]
    states += [GHZ3.tolist(), W3.tolist(), [complex(-0.0, -0.0)] * 8,
               [complex(-0.0, 1e-170), complex(5e-324, -0.0)] * 4,
               [1e154 + 1e154j] + [0j] * 7, [complex(math.nan, 0)] + [1 + 0j] * 7,
               [complex(math.inf, -math.inf)] + [0j] * 7]
    for a in states:
        got, expected = _cut_purities_scalar(a, _weights(a)), reference_cut_purities_scalar(a)
        assert np.array(got).tobytes() == np.array(expected).tobytes(), a


@pytest.mark.parametrize("protocol,n", SWEEP_PROTOCOLS)
def test_cut_purities_of_a_sweep_equal_the_per_half_form_bitwise(protocol, n):
    _, reachable, states = branch_readout(protocol_plan(protocol, n), sweep_order_images(n))
    states = states[reachable]  # the batch that run_sweep hands to its metric
    assert same_bits(_cut_purities(states), reference_cut_purities(states))


def test_cut_purities_equal_the_per_half_form_bitwise(rng):
    for n in range(1, 7):
        for batch in [(), (1,), (7,), (3, 5), (300,)]:
            states = np.array([random_pure_state(rng, n) for _ in range(math.prod(batch))])
            states = states.reshape(batch + (2**n,))
            assert same_bits(_cut_purities(states), reference_cut_purities(states)), (n, batch)
        zeros = np.zeros((4, 2**n), dtype=complex)
        zeros[1] = random_pure_state(rng, n)  # all-zero rows beside a state
        assert same_bits(_cut_purities(zeros), reference_cut_purities(zeros))
        # non-contiguous views: every other amplitude of wider rows, and a transposed stack
        wide = np.stack([random_pure_state(rng, n + 1) for _ in range(6)])
        transposed = np.stack([random_pure_state(rng, n) for _ in range(9)], axis=-1).T
        for view in (wide[:, ::2], transposed, transposed[::-2]):
            assert not view.flags.c_contiguous
            assert same_bits(_cut_purities(view), reference_cut_purities(view)), n


@pytest.mark.parametrize("n,count", [(7, 500), (8, 300)])
def test_cut_purities_of_a_complex_batch_equal_each_state_alone_bitwise(n, count):
    # halves of these batches pass 256 KiB, past which numpy elides an unnamed temporary
    # and multiplies in place through another loop
    rng = np.random.default_rng(11)
    states = np.array([random_pure_state(rng, n) for _ in range(count)])
    alone = np.array([_cut_purities(state) for state in states])
    assert same_bits(_cut_purities(states), alone)
    assert same_bits(pure_gme_concurrence(states),
                     np.array([pure_gme_concurrence(state) for state in states]))


def _entropy_of(gme):
    """The linear entropy whose GME concurrence sqrt(2 entropy) is ``gme``."""
    return gme * gme / 2.0


def test_scalar_gme_rule_matches_batched():
    # gme_concurrence reads its one value through the batched rule, as a float
    below, above = np.nextafter(_EIGEN_DUST, 0.0), np.nextafter(_EIGEN_DUST, 1.0)
    within = [-0.25, -0.0, 0.0, below, _EIGEN_DUST, above, 0.3, 0.5,
              _entropy_of(1.0 + _CLAMP_SLACK / 2), _entropy_of(1.0 + _CLAMP_SLACK)]
    values = _gme_from_entropy(np.array(within))
    for minimum, expected in zip(map(float, within), values.tolist()):
        assert float(_gme_from_entropy(minimum)) == expected
    assert type(gme_concurrence(W3).value) is float
    assert float(_gme_from_entropy(below)) == 0.0 < float(_gme_from_entropy(_EIGEN_DUST))
    assert float(_gme_from_entropy(_entropy_of(1.0 + _CLAMP_SLACK / 2))) == 1.0
    assert float(_gme_from_entropy(0.5)) == 1.0
    for minimum in (_entropy_of(1.0 + 2 * _CLAMP_SLACK), 1.0, math.inf):
        with pytest.raises(ValueError, match="beyond numerical slack") as scalar:
            _gme_from_entropy(minimum)
        with pytest.raises(ValueError) as batched:
            _gme_from_entropy(np.array([0.3, minimum]))
        assert str(scalar.value) == str(batched.value)
    assert np.isnan(_gme_from_entropy(math.nan))
