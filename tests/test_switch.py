import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

import qswitch.netsim

from conftest import (
    NAN_PAYLOADS,
    SWEEP_PROTOCOLS,
    aligned_spec,
    apply_local_unitaries,
    assert_matches_reference,
    basis_state,
    condition_spec,
    default_pair,
    dense_is_unitary,
    dense_readout,
    density,
    golden_spec_documents,
    haar_unitary,
    joint_state,
    kron_all,
    outcome_labels,
    partial_trace,
    random_pure_state,
    random_spec,
    readout_pairs,
    reference_branch_readout,
    reference_canonical_phase,
    reference_parse_spec,
    reference_superposed_input,
    same_bits,
    sweep_order_images,
    switch_operator,
)
from qswitch import (
    SwitchSpec,
    UnitaryPair,
    concurrence,
    pauli,
    run,
    ry,
    superposed_input,
)
from qswitch.documents import _amplitudes_to_state, parse_spec, parse_topology
from qswitch.gates import local_tensor
from qswitch.metrics import gme_concurrence
from qswitch.netsim import map_entanglement
from qswitch.sweep import SweepPlan, default_plan, run_sweep
from qswitch.switch import (
    MAX_QUBITS,
    UNREACHABLE_TOL,
    _end_vectors,
    _order_images,
    branch_readout,
    canonical_phase,
    controlled_outcomes,
    protocol_control,
    protocol_plan,
    readout_plan,
)
from qswitch.verify import check_max_entanglement, overlap

I2 = np.eye(2, dtype=complex)


def _phase_free_close(a, b, tol=1e-10):
    return np.linalg.norm(canonical_phase(a) - canonical_phase(b)) <= tol


def test_switch_operator_identity():
    assert np.allclose(switch_operator(UnitaryPair(I2, I2)), np.eye(4))


def test_switch_operator_blocks():
    p = UnitaryPair(pauli("z"), pauli("x"))
    s = switch_operator(p)
    zx = pauli("z") @ pauli("x")
    # target-first ordering: control picks the even/odd sub-block
    assert np.allclose(s[::2, ::2], zx)
    assert np.allclose(s[1::2, 1::2], -zx)


def test_switch_operator_unitary(rng):
    for _ in range(5):
        p = UnitaryPair(haar_unitary(rng), haar_unitary(rng))
        assert dense_is_unitary(switch_operator(p))


def test_single_qubit_anticommuting_orders():
    pairs = [UnitaryPair(pauli("z"), pauli("x"))]
    r = controlled_outcomes(readout_plan(*protocol_control("ghz", 1)),
                            _end_vectors(pairs, [basis_state(1, 0)]))
    assert r.labels == ("+", "-")
    assert r.probability[0] <= 1e-12 and not r.reachable[0]
    assert abs(r.probability[1] - 1.0) <= 1e-10
    assert _phase_free_close(r.states[1], basis_state(1, 1))


def test_single_qubit_reproduces_two_term_superposition(rng):
    p = UnitaryPair(haar_unitary(rng), haar_unitary(rng))
    phi = random_pure_state(rng, 1)
    r = controlled_outcomes(readout_plan(*protocol_control("ghz", 1)), _end_vectors([p], [phi]))
    for sign, label in ((1, "+"), (-1, "-")):
        raw = ((p.u @ p.u_tilde) + sign * (p.u_tilde @ p.u)) @ phi
        i = r.labels.index(label)
        if r.reachable[i]:
            assert _phase_free_close(r.states[i], raw / np.linalg.norm(raw))


def test_order_images_equal_order_products_bitwise(rng):
    for _ in range(300):
        n = int(rng.integers(1, 6))
        pairs = [UnitaryPair(haar_unitary(rng), haar_unitary(rng)) for _ in range(n)]
        inputs = [random_pure_state(rng, 1) for _ in range(n)]
        ends = _end_vectors(pairs, inputs)
        assert ends.shape == (n, 2, 2)
        for (fwd, bwd), p, phi in zip(ends, pairs, inputs):
            assert np.array_equal(fwd, (p.u @ p.u_tilde) @ phi)
            assert np.array_equal(bwd, (p.u_tilde @ p.u) @ phi)
            assert np.array_equal(_order_images(np.array([p.u, p.u_tilde]), phi), [fwd, bwd])


@pytest.mark.parametrize("protocol,n", [("ghz", 1), ("bell", 2), ("ghz", 3), ("w", 4), ("w", 8)])
def test_branch_readout_postselects(rng, protocol, n):
    # random pairs reach every outcome; commuting pairs leave some unreachable
    # (for W, when n fills the 2^d control directions)
    commuting = UnitaryPair(pauli("z"), ry(0.0))
    for pairs in ([UnitaryPair(haar_unitary(rng), haar_unitary(rng)) for _ in range(n)],
                  [commuting] * n):
        inputs = [random_pure_state(rng, 1) for _ in range(n)]
        plan = readout_plan(*protocol_control(protocol, n))
        p, reachable, states = branch_readout(plan, _end_vectors(pairs, inputs))
        assert np.all(p >= 0.0) and abs(p.sum() - 1.0) <= 1e-10
        assert np.array_equal(reachable, p >= UNREACHABLE_TOL)
        assert not np.any(states[~reachable])
        assert np.allclose(np.linalg.norm(states[reachable], axis=-1), 1.0, atol=1e-12)
        r = controlled_outcomes(plan, _end_vectors(pairs, inputs))
        assert r.probability.tolist() == p.tolist()
        assert r.reachable.tolist() == reachable.tolist()
    assert not reachable.all()


_EVEN = [1.0 / math.sqrt(2.0)] * 2


@pytest.mark.parametrize("control, reverse, width, match", [
    ([5.0, 0.0], [[0], [1]], 1, "^control must be finite and normalized$"),
    ([math.nan, 1.0], [[0], [1]], 1, "^control must be finite and normalized$"),
    ([math.inf, 0.0], [[0], [1]], 1, "^control must be finite and normalized$"),
    ([1.3e154, 1.3e154], [[0], [1]], 1, "^control must be finite and normalized$"),
    (_EVEN, [[0], [-1]], 1, "^reverse table entries must be 0 or 1$"),
    (_EVEN, [[0], [2]], 1, "^reverse table entries must be 0 or 1$"),
    (_EVEN, [[0]], 1, r"^reverse table must have 2 rows, got shape \(1, 1\)$"),
    (_EVEN, [[0], [1], [1]], 1, r"^reverse table must have 2 rows, got shape \(3, 1\)$"),
    (_EVEN, [[0, 0], [1, 1]], 3, r"^order images must be \(\.\.\., 2, 2, 2\), got \(3, 2, 2\)$"),
    (_EVEN, [[0], [1]], 2, r"^order images must be \(\.\.\., 1, 2, 2\), got \(2, 2, 2\)$"),
    ([_EVEN, _EVEN], [[0], [1]], 1,
     r"^control must be a 1-D state vector, got shape \(2, 2\)$"),
    (1.0, [[0], [1]], 1, r"^control must be a 1-D state vector, got shape \(\)$"),
    ([0.6, 0.8, 0.0], [[0], [1]], 1, "^dimension 3 is not a power of two$"),
], ids=["control-norm-25", "control-nan", "control-inf", "control-sum-past-the-largest-float",
        "reverse-minus-one", "reverse-two",
        "reverse-rows-1", "reverse-rows-3", "ends-3-on-a-2-qubit-plan",
        "ends-2-on-a-1-qubit-plan", "control-2x2", "control-scalar", "control-3"])
def test_readout_plan_and_branch_readout_refuse(control, reverse, width, match):
    # a control is checked where its plan is built, the order images where they are read out
    ends = _end_vectors([default_pair()] * width, [superposed_input(0.5)] * width)
    with pytest.raises(ValueError, match=match):
        branch_readout(readout_plan(control, reverse), ends)


def _edge_qubit(seed, sign, k):
    """A random qubit vector scaled to squared norm 1 + sign * 1e-10, at the NORM_TOL edge,
    its first real part then stepped k ulps."""
    v = random_pure_state(np.random.default_rng(seed), 1) * math.sqrt(1.0 + sign * 1e-10)
    re = float(v[0].real)
    for _ in range(abs(k)):
        re = math.nextafter(re, math.copysign(math.inf, k))
    v[0] = complex(re, v[0].imag)
    return v


def _accepts(check):
    try:
        check()
    except ValueError:
        return False
    return True


# refused as a spec input and accepted as a control by the checks' earlier sums: a left
# fold of the four squares, and the two amplitudes' weights summed in index order
_SPLIT_QUBIT = np.array([0.06063164778946763 - 0.9734879141412526j,
                         -0.07230527991762108 - 0.20836753754671516j])


# seeds 8, 13, 20 and 53 each give vectors that the earlier sums split
_EDGE_QUBITS = {"refused-as-input": _SPLIT_QUBIT} | {
    f"seed{seed}{sign:+d}e-10{k:+d}ulp": _edge_qubit(seed, sign, k)
    for seed in (8, 13, 20, 53) for sign in (1, -1) for k in range(-3, 4)}


@pytest.mark.parametrize("vector", _EDGE_QUBITS.values(), ids=_EDGE_QUBITS)
def test_input_and_control_checks_give_one_verdict_at_the_norm_edge(vector):
    # one exactly rounded rule: the verdict depends on neither the check nor the order
    pair = default_pair()
    verdicts = set()
    for v in (vector, vector[::-1].copy()):
        verdicts |= {_accepts(lambda: SwitchSpec("bell", [pair] * 2, [v, v])),
                     _accepts(lambda: overlap(pair, v)),
                     _accepts(lambda: readout_plan(v, [[0], [1]]))}
    assert len(verdicts) == 1


def test_readout_plan_caps_the_control_register_before_allocation():
    # a 13-qubit control on one qubit: the sign table alone would be 2^13 rows per live
    # amplitude, and 2^13 x 2^13 with every amplitude live
    m = MAX_QUBITS + 1
    control = np.zeros(2**m, dtype=complex)
    control[[0, -1]] = 1.0 / math.sqrt(2.0)
    reverse = np.zeros((2**m, 1), dtype=np.int8)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^state has {m} qubits, cap is {MAX_QUBITS}$"):
            readout_plan(control, reverse)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**m  # below one byte per control amplitude


def test_the_state_builder_refuses_a_register_over_the_cap():
    # the plan caps only its control register: n is refused where the n-qubit states are built
    n = MAX_QUBITS + 1
    plan = readout_plan(np.full(2, 1.0 / math.sqrt(2.0)), np.array([[0] * n, [1] * n]))
    assert plan[2].shape == (2, n)
    ends = _end_vectors([default_pair()] * n, [superposed_input(0.5)] * n)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as refused:
            branch_readout(plan, ends)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == f"state has {n} qubits, cap is {MAX_QUBITS}"
    assert peak < 4096  # no 2^n array: the refusal comes before the first product


def _assert_batch_reads_out_as_its_instances(plan, ends):
    """``branch_readout`` of a batch of order images equals, bit for bit, the readouts of its
    instances, each alone and each by ``reference_branch_readout``: probabilities, reachable
    mask and states."""
    instances = ends.reshape((-1,) + ends.shape[-3:])
    for alone in ([branch_readout(plan, e) for e in instances],
                  [reference_branch_readout(plan, e) for e in instances]):
        for batched, parts in zip(branch_readout(plan, ends), zip(*alone)):
            assert same_bits(batched, np.stack(parts).reshape(ends.shape[:-3] + parts[0].shape))


def _random_order_images(rng, batch, n):
    """Order images of Haar pairs on random inputs, drawn per instance: batch + (n, 2, 2)."""
    size = math.prod(batch) * n
    pairs = np.array([[haar_unitary(rng), haar_unitary(rng)] for _ in range(size)])
    inputs = np.array([random_pure_state(rng, 1) for _ in range(size)])
    return _order_images(pairs, inputs).reshape(batch + (n, 2, 2))


@pytest.mark.parametrize("protocol,n", [("bell", 2)] + [("ghz", n) for n in range(2, 7)]
                         + [("w", n) for n in range(3, 7)])
def test_a_batch_reads_out_as_its_instances_bitwise(protocol, n):
    rng = np.random.default_rng(n)
    _assert_batch_reads_out_as_its_instances(protocol_plan(protocol, n),
                                             _random_order_images(rng, (3, 4), n))


def test_a_batch_reads_out_as_its_instances_under_random_controls_bitwise():
    # controls of 1-3 qubits with some amplitudes zero, so 1 to 8 live rows, on 2-5 qubits;
    # a register of n >= 2 qubits, as every protocol has, is what a batch reads out
    rng = np.random.default_rng(11)
    for _ in range(30):
        m, n = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        control = random_pure_state(rng, m) * (rng.random(2**m) > 0.3)
        control[0] = control[0] or 1.0
        plan = readout_plan(control / np.linalg.norm(control), rng.integers(0, 2, (2**m, n)))
        _assert_batch_reads_out_as_its_instances(plan, _random_order_images(rng, (3, 4), n))


def test_readout_probabilities_never_have_the_sign_bit_set():
    # each probability is the real part of sum conj(z) z, a sum of squared moduli, so it is
    # returned unclamped: never negative, and never -0.0. Aligned qubits and controls uniform
    # over their live states make branches coincide, so that some outcomes vanish
    rng = np.random.default_rng(35)
    vanished = 0
    for _ in range(500):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        control = random_pure_state(rng, m) * (rng.random(2**m) > 0.3)
        control[0] = control[0] or 1.0
        if rng.random() < 0.5:
            control = (control != 0) * 1.0
        plan = readout_plan(control / np.linalg.norm(control), rng.integers(0, 2, (2**m, n)))
        ends = _random_order_images(rng, (2,), n)
        aligned = rng.random(n) < 0.5
        ends[:, aligned, 1] = ends[:, aligned, 0]
        p = branch_readout(plan, ends)[0]
        assert not np.signbit(p).any()
        vanished += np.count_nonzero(p < UNREACHABLE_TOL)
    assert vanished > 0


@pytest.mark.parametrize("protocol,n", SWEEP_PROTOCOLS)
def test_a_sweep_grid_reads_out_as_its_points_bitwise(protocol, n):
    ends = sweep_order_images(n)
    assert same_bits(branch_readout(protocol_plan(protocol, n), ends)[0],
                     run_sweep(default_plan(protocol, n)).probability)  # the sweep's own batch
    _assert_batch_reads_out_as_its_instances(protocol_plan(protocol, n), ends)


def _bits(a):
    return np.ascontiguousarray(a, dtype=complex).view(np.int64)


def test_canonical_phase_of_a_stack_equals_the_per_state_fix_bitwise():
    rng = np.random.default_rng(0)
    phases = np.exp(1j * rng.uniform(0, 2 * math.pi, 2000))  # the first amplitudes
    rows = [phases[:, None] * np.array([1.0, 0.5j, -0.25, 0.1 + 0.1j])]
    rows.append(np.array([
        [1e-12, 1e-12j, -3e-13 + 1e-13j, 0.6 - 0.8j],  # leading entries at or below 1e-12
        [-1e-13, 8e-13 + 8e-13j, 0.0, -0.6j],  # |a| = 1.13e-12 leads
        [0.0, 0.0, 0.0, 0.0],
        [-0.0 - 0.0j, 1e-13 - 0.0j, -1e-12j, -0.0],  # nothing above 1e-12: unchanged
        [-0.0 + 0.6j, 0.8 - 0.0j, -0.0 - 0.0j, 0.0],
        [-0.6 - 0.0j, -0.0 + 0.8j, 0.0 - 0.0j, -0.0 + 0.0j],
    ]))
    stack = np.concatenate(rows)
    fixed = canonical_phase(stack)
    assert fixed.shape == stack.shape
    for got, state in zip(fixed, stack):
        assert np.array_equal(_bits(got), _bits(reference_canonical_phase(state)))
    batched = canonical_phase(stack.reshape(2, -1, 4))  # leading axes are kept
    assert np.array_equal(_bits(batched.reshape(stack.shape)), _bits(fixed))
    state = random_pure_state(rng, 3) * phases[0]
    assert np.array_equal(_bits(canonical_phase(state)), _bits(reference_canonical_phase(state)))


def test_superposed_input_equals_the_stacked_construction_bitwise():
    alphas = np.concatenate([[0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0],
                             np.random.default_rng(8).uniform(size=1000)])
    for alpha in alphas.tolist():
        assert same_bits(superposed_input(alpha), reference_superposed_input(alpha))
    assert same_bits(superposed_input(alphas), reference_superposed_input(alphas))
    assert same_bits(superposed_input(alphas.reshape(-1, 1, 19)),
                     reference_superposed_input(alphas.reshape(-1, 1, 19)))
    # the refusal names the value as before, for out-of-range, infinite and NaN alphas
    for bad in (-5e-324, 1.0 + 2.0**-52, 1e300, -math.inf, math.inf, *NAN_PAYLOADS,
                [0.5, math.nan]):
        message = f"alpha must lie in [0,1], got {np.asarray(bad, dtype=float)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            superposed_input(bad)


def test_bell_maximal_at_quarter_turn():
    spec = SwitchSpec("bell", [default_pair()] * 2, [superposed_input(0.5)] * 2)
    r = run(spec)
    assert abs(concurrence(density(r.states[r.labels.index("-")])) - 1.0) <= 1e-9


def test_bell_identity_rotation_is_separable():
    pair = UnitaryPair(pauli("z"), ry(0.0))
    spec = SwitchSpec("bell", [pair] * 2, [superposed_input(0.3)] * 2)
    r = run(spec)
    assert r.labels == ("+", "-") and not r.reachable[1]
    assert concurrence(density(r.states[0])) <= 1e-9


def test_w_identity_pairs_collapse_to_input():
    # with identical terms only the control embedding matters: the all-plus
    # coherent projection of (|00>+|01>+|10>)/sqrt(3) carries weight 3/4 and
    # every reachable outcome returns the unchanged product input
    pair = UnitaryPair(I2, I2)
    inputs = [superposed_input(0.4)] * 3
    r = run(SwitchSpec("w", [pair] * 3, inputs))
    assert abs(r.probability[r.labels.index("++")] - 0.75) <= 1e-10
    for label in ("+-", "-+", "--"):
        assert abs(r.probability[r.labels.index(label)] - 1 / 12) <= 1e-10
    for psi in r.states[r.reachable]:
        assert _phase_free_close(psi, kron_all(inputs))


def test_w_default_gates_all_outcomes_w_like():
    r = run(SwitchSpec("w", [default_pair()] * 3, [superposed_input(0.5)] * 3))
    target = 2 * math.sqrt(2) / 3
    assert r.reachable.all()
    for psi in r.states:
        assert abs(gme_concurrence(psi).value - target) <= 1e-9


def test_w_identity_rotation_separable():
    pair = UnitaryPair(pauli("z"), ry(0.0))
    r = run(SwitchSpec("w", [pair] * 3, [superposed_input(0.5)] * 3))
    for psi in r.states[r.reachable]:
        assert gme_concurrence(psi).value <= 1e-9


@pytest.mark.parametrize("protocol,n", [("bell", 2), ("ghz", 3), ("w", 3), ("w", 5)])
def test_probability_conservation(rng, protocol, n):
    for _ in range(25):
        spec = random_spec(rng, protocol, n)
        assert abs(sum(run(spec).probability.tolist()) - 1.0) <= 1e-10


def test_commuting_order_collapse(rng):
    pair = UnitaryPair(pauli("z"), np.diag([np.exp(0.3j), np.exp(-1.1j)]))
    inputs = [random_pure_state(rng, 1) for _ in range(2)]
    r = run(SwitchSpec("ghz", [pair, pair], inputs))
    assert r.labels[0] == "+" and abs(r.probability[0] - 1.0) <= 1e-10
    v, vt = local_tensor([pair, pair])
    assert _phase_free_close(r.states[0], v @ vt @ kron_all(inputs))


def test_normalization_constant_identity(rng):
    for _ in range(20):
        spec = random_spec(rng, "ghz", 3)
        phi = kron_all(spec.inputs)
        v, vt = local_tensor(spec.pairs)
        cross = np.vdot(v @ vt @ phi, vt @ v @ phi)
        r = run(spec)
        for sign, label in ((1, "+"), (-1, "-")):
            l_const = 4.0 * r.probability[r.labels.index(label)]
            assert abs(l_const - (2.0 + sign * 2.0 * cross.real)) <= 1e-10
    # the same identity from the per-qubit overlaps alone, at every width the engine runs:
    # p(+/-) = (1 +/- Re prod_q c_q) / 2, with c_q = overlap(pair_q, phi_q)
    for protocol, n in [("bell", 2)] + [("ghz", n) for n in range(2, MAX_QUBITS + 1)]:
        for make in (random_spec, _near_commuting_spec, _commuting_spec):
            spec = make(rng, protocol, n)
            product = np.prod([overlap(p, phi) for p, phi in zip(spec.pairs, spec.inputs)])
            r = run(spec)
            for sign, label in ((1, "+"), (-1, "-")):
                p = r.probability[r.labels.index(label)]
                assert abs(p - (1.0 + sign * product.real) / 2.0) <= 1e-12


def test_exchange_symmetry(rng):
    for protocol, n in (("bell", 2), ("ghz", 3), ("w", 3)):
        spec = random_spec(rng, protocol, n)
        swapped = SwitchSpec(
            protocol,
            [UnitaryPair(p.u_tilde, p.u) for p in spec.pairs],
            spec.inputs,
        )
        r, r_swapped = run(spec), run(swapped)
        probs = dict(zip(r.labels, r.probability.tolist()))
        probs_swapped = dict(zip(r_swapped.labels, r_swapped.probability.tolist()))
        if protocol == "w":
            # sign-string roles permute, the probability multiset is preserved
            assert np.allclose(
                sorted(probs.values()), sorted(probs_swapped.values()), atol=1e-12
            )
        else:
            for label in probs:
                assert abs(probs[label] - probs_swapped[label]) <= 1e-12


def test_joint_state_commuting_is_product():
    pair = UnitaryPair(pauli("z"), np.diag([1.0, 1j]))
    inputs = [superposed_input(0.7)] * 2
    j = joint_state(SwitchSpec("bell", [pair] * 2, inputs))
    v, vt = local_tensor([pair] * 2)
    plus_c = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    assert np.allclose(j, np.kron(v @ vt @ kron_all(inputs), plus_c))


def test_joint_state_w_unit_norm(rng):
    spec = random_spec(rng, "w", 3)
    assert abs(np.linalg.norm(joint_state(spec)) - 1.0) <= 1e-10


def test_joint_state_control_purity_closed_form():
    spec = SwitchSpec(
        "bell",
        [UnitaryPair(pauli("z"), ry(math.pi / 4))] * 2,
        [superposed_input(0.5)] * 2,
    )
    j = joint_state(spec)
    rho_c = partial_trace(density(j), [2])  # control is the last qubit
    phi = kron_all(spec.inputs)
    v, vt = local_tensor(spec.pairs)
    overlap = np.vdot(v @ vt @ phi, vt @ v @ phi)
    assert abs(np.trace(rho_c @ rho_c).real - (0.5 + abs(overlap) ** 2 / 2)) <= 1e-10


def test_spec_validation():
    p = default_pair()
    eta = superposed_input(0.5)
    with pytest.raises(ValueError):
        SwitchSpec("bell", [p] * 3, [eta] * 3)
    with pytest.raises(ValueError):
        SwitchSpec("w", [p] * 2, [eta] * 2)
    with pytest.raises(ValueError):
        SwitchSpec("nope", [p] * 2, [eta] * 2)
    with pytest.raises(ValueError, match="finite"):
        SwitchSpec("bell", [p] * 2, [np.array([math.nan, 0.0]), eta])
    # the squared-norm rule of every state check: ||v||^2 = 1 + 1.5e-10 fails
    # although | ||v|| - 1 | = 7.5e-11
    with pytest.raises(ValueError, match="finite and normalized"):
        SwitchSpec("bell", [p] * 2, [math.sqrt(1.0 + 1.5e-10) * eta, eta])
    assert SwitchSpec("bell", [p] * 2, [math.sqrt(1.0 + 0.5e-10) * eta, eta]).n == 2
    # a spec of any width is valid; the engine refuses to build its states past the cap
    wide = SwitchSpec("w", [p] * (MAX_QUBITS + 1), [eta] * (MAX_QUBITS + 1))
    with pytest.raises(ValueError, match="cap"):
        run(wide)


def test_spec_json_round_trip():
    doc = {
        "version": 1,
        "protocol": "ghz",
        "n": 3,
        "pairs": [{"u": "pauli_z", "u_tilde": "ry(1.5707963267948966)"}],
        "input": {"alpha": 0.5},
        "control": "even",
    }
    spec = parse_spec(doc)
    assert spec.n == 3


def test_spec_json_explicit_amplitudes():
    doc = {
        "version": 1,
        "protocol": "bell",
        "pairs": [{"u": "pauli_z", "u_tilde": "ry(1.5708)"}] * 2,
        "input": {"amplitudes": [["0.6+0i", "0.8+0i"], [[1.0, 0.0], [0.0, 0.0]]]},
    }
    spec = parse_spec(doc)
    assert np.allclose(spec.inputs[0], [0.6, 0.8])
    assert np.allclose(spec.inputs[1], [1.0, 0.0])


def test_parse_spec_arrays_equal_the_step_by_step_reference_bitwise():
    # the spec documents of the golden corpus: the seeded verify documents, the paper
    # specs and the amplitude documents at the overflow edge
    parsed = rejected = 0
    for doc in golden_spec_documents():
        try:
            ref = reference_parse_spec(doc)
        except ValueError:
            with pytest.raises(ValueError, match="^amplitude vector must have a nonzero, finite"):
                parse_spec(doc)
            rejected += 1
            continue
        spec = parse_spec(doc)
        assert (spec.protocol, spec.n) == (ref.protocol, ref.n)
        for got, want in zip(spec.pairs, ref.pairs, strict=True):
            assert np.array_equal(_bits(got.u), _bits(want.u))
            assert np.array_equal(_bits(got.u_tilde), _bits(want.u_tilde))
        for got, want in zip(spec.inputs, ref.inputs, strict=True):
            assert np.array_equal(_bits(got), _bits(want))
        assert np.array_equal(_bits(spec.ends), _bits(ref.ends))
        parsed += 1
    assert (parsed, rejected) == (214, 8)


def test_amplitude_norm_equals_numpy_norm_bitwise():
    # the parsed input is v / ||v||, with the norm's arithmetic that of np.linalg.norm;
    # a quarter of the vectors lie about the 1e153 edge, where the norm starts to overflow
    rng = np.random.default_rng(153)
    scale = np.where(rng.random(20_000) < 0.25, rng.uniform(152.9, 154.2, 20_000),
                     rng.uniform(-3.0, 150.0, 20_000))
    parts = rng.normal(size=(20_000, 4)) * 10.0 ** scale[:, None]
    big = refused = 0
    for re0, im0, re1, im1 in parts.tolist():
        v = np.array([complex(re0, im0), complex(re1, im1)])
        with np.errstate(over="ignore"):
            nrm = np.linalg.norm(v)
        entries = [[re0, im0], [re1, im1]]
        big += max(map(abs, (re0, im0, re1, im1))) >= 1e153
        if nrm < math.inf:
            assert np.array_equal(_bits(_amplitudes_to_state(entries)), _bits(v / nrm))
        else:
            refused += 1
            with pytest.raises(ValueError, match="nonzero, finite norm"):
                _amplitudes_to_state(entries)
    assert big > 3000 and 1000 < refused < big


def _ensemble_bits(r):
    return [(k, p, live, psi.tobytes()) for k, p, live, psi
            in zip(r.labels, r.probability.tolist(), r.reachable.tolist(), r.states)]


def test_later_writes_to_the_callers_arrays_do_not_reach_the_spec():
    u, u_tilde, v = pauli("z"), ry(math.pi / 2), superposed_input(0.3)
    pairs, inputs = [UnitaryPair(u, u_tilde)] * 2, [v, v.copy()]
    spec = SwitchSpec("bell", pairs, inputs)
    before = _ensemble_bits(run(spec))
    v[:] = [3, 4]
    u[:] = 2 * I2
    u_tilde[:] = 0
    pairs.append(UnitaryPair(I2, I2))
    inputs[0] = superposed_input(1.0)
    assert _ensemble_bits(run(spec)) == before
    assert np.array_equal(spec.pairs[0].u, pauli("z"))
    assert spec.n == 2


def test_spec_and_pair_arrays_are_read_only(rng):
    spec = condition_spec(rng, "ghz", 3)
    pair = spec.pairs[0]
    for array in (spec.inputs[0], spec.ends, pair.u, pair.u_tilde):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_spec_is_frozen_with_tuple_fields(rng):
    spec = random_spec(rng, "ghz", 3)
    assert isinstance(spec.pairs, tuple) and isinstance(spec.inputs, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.pairs = spec.pairs[:2]
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.ends = np.zeros((3, 2, 2), dtype=complex)


def _bell_spec():
    return SwitchSpec("bell", [default_pair()] * 2, [superposed_input(0.5)] * 2)


def _topology():
    return parse_topology({"entanglers": [{"id": "a", "clients": 2}, {"id": "b", "clients": 2}]})


# each call builds a new instance equal in value to the last
_ARRAY_HOLDING_TYPES = {
    "UnitaryPair": default_pair,
    "SwitchSpec": _bell_spec,
    "Readout": lambda: run(_bell_spec()),
    "Topology": _topology,
    "BranchResult": lambda: map_entanglement(np.array([1.0, 0.0]), [default_pair()],
                                             [superposed_input(0.5)])[0],
    "SweepTable": lambda: run_sweep(default_plan("bell", 2, 3, 3)),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_HOLDING_TYPES))
def test_array_holding_types_compare_and_hash_by_identity(name):
    a, b = _ARRAY_HOLDING_TYPES[name](), _ARRAY_HOLDING_TYPES[name]()
    assert type(a).__name__ == name
    assert a == a and a != b and not a == b
    assert hash(a) == hash(a) and len({a, b}) == 2
    assert a in [a] and b not in [a] and [a, b].index(b) == 1


def test_replace_revalidates_and_rebuilds_the_order_images(rng):
    spec = random_spec(rng, "ghz", 3)
    old_ends = spec.ends.copy()
    pairs = [UnitaryPair(haar_unitary(rng), haar_unitary(rng)) for _ in range(3)]
    new = dataclasses.replace(spec, pairs=pairs)
    assert np.array_equal(new.ends, _end_vectors(pairs, spec.inputs))
    assert not new.ends.flags.writeable
    assert np.array_equal(spec.ends, old_ends)
    with pytest.raises(ValueError, match="same length"):
        dataclasses.replace(spec, pairs=pairs[:2])
    with pytest.raises(ValueError, match="exactly 2 qubits"):
        dataclasses.replace(spec, protocol="bell")
    with pytest.raises(ValueError, match="normalized"):
        dataclasses.replace(spec, inputs=[np.array([1.0, 1.0])] * 3)


def test_condition_spec_both_outcomes_reachable(rng):
    spec = condition_spec(rng, "bell", 2)
    r = run(spec)
    assert r.reachable.all() and np.all(np.abs(r.probability - 0.5) <= 1e-9)


def _commuting_spec(rng, protocol, n):
    # every pair commutes, so both orders coincide and some outcomes are unreachable
    inputs = [random_pure_state(rng, 1) for _ in range(n)]
    return SwitchSpec(protocol, [UnitaryPair(pauli("z"), ry(0.0))] * n, inputs)


def _near_commuting_spec(rng, protocol, n):
    # |overlap| >= cos(0.3) on every qubit, so the product of the overlaps stays
    # large at n = 12, where Haar pairs drive it to 0
    pairs = [UnitaryPair(pauli("z"), ry(t)) for t in rng.uniform(0.0, 0.3, n)]
    return SwitchSpec(protocol, pairs, [random_pure_state(rng, 1) for _ in range(n)])


def _dense_reference(spec):
    # explicit n-qubit order operators on the product input, then an H^(x)m readout
    n = spec.n
    if spec.protocol == "w":
        m = math.ceil(math.log2(n))
        masks = [[q == j for q in range(n)] for j in range(n)]
    else:
        m = 1
        masks = [[False] * n, [True] * n]
    phi = kron_all(spec.inputs)
    joint = 0
    for b, mask in enumerate(masks):
        order = kron_all([(p.u_tilde @ p.u) if r else (p.u @ p.u_tilde)
                          for p, r in zip(spec.pairs, mask)])
        joint = joint + np.kron(order @ phi, basis_state(m, b))
    return m, joint / math.sqrt(len(masks))


@pytest.mark.parametrize(
    "protocol,n", [("bell", 2), ("ghz", 2), ("ghz", 3), ("ghz", 5), ("w", 3), ("w", 4), ("w", 5)]
)
def test_engine_matches_dense_reference(rng, protocol, n):
    for make in (random_spec, condition_spec, aligned_spec, _commuting_spec):
        for _ in range(4):
            spec = make(rng, protocol, n)
            m, joint = _dense_reference(spec)
            r = run(spec)
            assert list(r.labels) == outcome_labels(m)
            assert_matches_reference(readout_pairs(r), dense_readout(joint, m))
            assert np.max(np.abs(joint_state(spec) - joint)) <= 1e-12


@pytest.mark.parametrize("call", ["run-ghz", "run-w", "run-w4096", "run_sweep",
                                  "map_entanglement"])
def test_engine_refuses_a_state_over_the_cap_before_allocating_it(call, monkeypatch):
    # were the cap lost, map_entanglement would go on to a 2^n x 2^n readout (1 GiB):
    # fail before it instead
    monkeypatch.setattr(qswitch.netsim, "controlled_outcomes", None)
    n = MAX_QUBITS + 1
    pair, eta = default_pair(), superposed_input(0.5)
    control = np.zeros(2**n, dtype=complex)
    control[[0, -1]] = 1.0 / math.sqrt(2.0)
    # built before the trace; its W protocol table alone would be 16 MiB
    wide = SwitchSpec("w", [pair] * 4096, [eta] * 4096) if call == "run-w4096" else None
    calls = {
        "run-ghz": lambda: run(SwitchSpec("ghz", [pair] * n, [eta] * n)),
        "run-w": lambda: run(SwitchSpec("w", [pair] * n, [eta] * n)),
        "run-w4096": lambda: run(wide),
        "run_sweep": lambda: run_sweep(SweepPlan("ghz", n, [0.0, 0.5], [0.0, 1.0])),
        "map_entanglement": lambda: map_entanglement(control, [pair] * n, [eta] * n),
    }
    # below one 2^n state; map_entanglement first builds the 2^n-row reverse table of
    # its plan, about 0.8 MiB
    bound = 2**20 if call in ("map_entanglement", "run-w4096") else 16 * 2**n
    cached = protocol_plan.cache_info().currsize
    tracemalloc.start()
    try:
        width = 4096 if call == "run-w4096" else n
        with pytest.raises(ValueError, match=f"^state has {width} qubits, cap is {MAX_QUBITS}$"):
            calls[call]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
    assert protocol_plan.cache_info().currsize == cached  # no refused width is cached


@pytest.mark.parametrize("protocol,n,message", [
    ("foo", 3, "unknown protocol 'foo'"),
    ("bell", 5, "bell protocol requires exactly 2 qubits"),
    ("w", 2, "w protocol requires at least 3 qubits"),
    ("ghz", 1, "ghz protocol requires at least 2 qubits"),
    ("ghz", 0, "ghz protocol requires at least 2 qubits"),
    ("ghz", -1, "ghz protocol requires at least 2 qubits"),
    ("ghz", True, "qubit count must be an integer, got True"),
    ("ghz", 3.0, "qubit count must be an integer, got 3.0"),
], ids=["foo-3", "bell-5", "w-2", "ghz-1", "ghz-0", "ghz-minus-1", "ghz-True", "ghz-3.0"])
def test_protocol_plan_refuses_what_check_protocol_refuses(protocol, n, message):
    cached = protocol_plan.cache_info().currsize
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        protocol_plan(protocol, n)
    assert protocol_plan.cache_info().currsize == cached


def test_protocol_plan_refuses_a_float_width_after_caching_its_integer_plan():
    # 3.0 == 3 and hash(3.0) == hash(3): an untyped cache would answer the third call
    refusal = "^qubit count must be an integer, got 3.0$"
    with pytest.raises(ValueError, match=refusal):
        protocol_plan("ghz", 3.0)
    assert protocol_plan("ghz", 3)[0] == ("+", "-")  # the 3-qubit plan's outcome labels
    with pytest.raises(ValueError, match=refusal):
        protocol_plan("ghz", 3.0)


@pytest.mark.parametrize("protocol,n", [("bell", 2), ("ghz", 3), ("w", 5)])
def test_protocol_readout_tables_are_built_once_and_read_only(monkeypatch, protocol, n):
    spec = SwitchSpec(protocol, [default_pair()] * n, [superposed_input(0.3)] * n)
    first = run(spec)
    labels, weights, rows = protocol_plan(protocol, n)
    assert not weights.flags.writeable and not rows.flags.writeable
    # run and run_sweep read the tables built above: a second build would fail
    monkeypatch.setattr(qswitch.switch, "protocol_control", None)
    again = run(spec)
    table = run_sweep(SweepPlan(protocol, n, [math.pi / 4], [0.3]))
    assert list(first.labels) == list(again.labels) == table.labels == list(labels)
    assert np.array_equal(first.probability, again.probability)
    assert np.array_equal(first.reachable, again.reachable)
    assert np.array_equal(first.states, again.states)


@pytest.mark.parametrize("protocol", ["ghz", "w"])
def test_paper_construction_at_qubit_cap(protocol):
    n = MAX_QUBITS
    spec = SwitchSpec(protocol, [default_pair()] * n, [superposed_input(0.5)] * n)
    r = run(spec)
    assert check_max_entanglement(spec).all_orthogonal
    lus = spec.ends.conj()  # the canonical frame
    assert abs(sum(r.probability.tolist()) - 1.0) <= 1e-10
    if protocol == "ghz":
        for label, sign in (("+", 1), ("-", -1)):
            target = (basis_state(n, 0) + sign * basis_state(n, 2**n - 1)) / math.sqrt(2)
            frame = apply_local_unitaries(lus, r.states[r.labels.index(label)])
            assert abs(r.probability[r.labels.index(label)] - 0.5) <= 1e-10
            assert abs(abs(np.vdot(target, frame)) ** 2 - 1.0) <= 1e-10
    else:
        weight_one = [2**q for q in range(n)]
        assert r.reachable.any()
        for psi in r.states[r.reachable]:
            frame = apply_local_unitaries(lus, psi)
            assert abs(np.sum(np.abs(frame[weight_one]) ** 2) - 1.0) <= 1e-10
