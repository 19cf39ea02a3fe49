import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    assert_matches_reference,
    basis_state,
    condition_pairs,
    controlled_order_operator,
    default_pair,
    dense_readout,
    haar_unitary,
    kron_all,
    max_cross_client_coupling,
    outcome_labels,
    purity,
    random_pure_state,
    readout_pairs,
    reduced_density,
    same_bits,
)
from qswitch import UnitaryPair, pauli, ry, superposed_input
from qswitch.documents import parse_topology
from qswitch import netsim
from qswitch.netsim import BranchResult, Topology, _reverse_table, map_entanglement, run_hierarchy
from qswitch.switch import _end_vectors, controlled_outcomes, readout_plan
from qswitch.verify import condition_report

RY_QUARTER = f"ry({math.pi / 2})"


def ghz_state(n):
    return (basis_state(n, 0) + basis_state(n, 2**n - 1)) / math.sqrt(2)


def default_topology(clusters):
    return parse_topology(
        {
            "entanglers": [{"id": f"e{i + 1}", "clients": k} for i, k in enumerate(clusters)],
            "gates": {"u": "pauli_z", "u_tilde": RY_QUARTER},
            "alpha": 0.5,
        }
    )


def test_map_entanglement_ghz_control_all_branches_succeed():
    branches = map_entanglement(ghz_state(3), [default_pair()] * 3, [superposed_input(0.5)] * 3)
    assert len(branches) == 8
    for b in branches:
        assert b.reachable
        assert b.ghz_fidelity >= 1 - 1e-9


def test_map_entanglement_product_control_separable():
    branches = map_entanglement(basis_state(3, 0), [default_pair()] * 3,
                                [superposed_input(0.5)] * 3)
    for b in branches:
        assert b.reachable
        # a single definite order yields a product state: every marginal pure
        for q in range(3):
            assert purity(reduced_density(b.client_state, [q])) > 1 - 1e-9


def test_map_entanglement_identity_pairs():
    identity = UnitaryPair(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    inputs = [superposed_input(0.3)] * 3
    branches = map_entanglement(
        kron_all([np.array([1, 1], dtype=complex) / math.sqrt(2)] * 3),
        [identity] * 3,
        inputs,
    )
    all_plus = next(b for b in branches if b.control_outcome == "+++")
    assert abs(all_plus.probability - 1.0) <= 1e-10
    assert np.allclose(all_plus.client_state, kron_all(inputs))
    for b in branches:
        if b.control_outcome != "+++":
            assert not b.reachable


@pytest.mark.parametrize("control, n, bad_input, match", [
    (ghz_state(2), 3, None, "control must be"),
    (ghz_state(2), 2, np.array([1.0, 0.0, 0.0, 0.0]), "single-qubit"),
    (ghz_state(2), 2, np.array([2.0, 0.0]), "normalized"),
    (ghz_state(2), 2, np.array([math.nan, 0.0]), "normalized"),
    (np.ones(4), 2, None, "control must be finite and normalized"),
    (np.full(4, math.nan), 2, None, "control must be finite and normalized"),
    (np.ones(4), 2, np.array([2.0, 0.0]), "control must be finite and normalized"),
    (np.array([1.0]), 0, None, "^at least one qubit is required$"),
], ids=["length-mismatch", "shape-4", "norm-2", "nan", "control-norm-4", "control-nan",
        "control-before-input", "no-pairs"])
def test_map_entanglement_rejects(control, n, bad_input, match):
    inputs = [superposed_input(0.5)] * n
    if bad_input is not None:
        inputs[-1] = bad_input
    with pytest.raises(ValueError, match=match):
        map_entanglement(control, [default_pair()] * n, inputs)


def test_branch_probabilities_sum_to_one():
    for probabilities in (
        [b.probability for b in map_entanglement(ghz_state(3), [default_pair()] * 3,
                                                 [superposed_input(0.5)] * 3)],
        run_hierarchy(default_topology([3, 3, 3])).probability.tolist(),
        run_hierarchy(dataclasses.replace(default_topology([3, 3, 3]),
                                          control="plus_product")).probability.tolist(),
    ):
        assert abs(sum(probabilities) - 1.0) <= 1e-10


def test_hierarchy_nine_clients():
    r = run_hierarchy(default_topology([3, 3, 3]))
    assert len(r.labels) == 8 and r.reachable.all()
    assert r.states.shape == (8, 2**9)
    assert np.all(r.fidelity >= 1 - 1e-9)


@pytest.mark.parametrize("clusters", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_hierarchy_recursion_sizes(clusters):
    r = run_hierarchy(default_topology(list(clusters)))
    assert np.all(r.fidelity >= 1 - 1e-9)


def test_hierarchy_product_control_not_global_ghz():
    topo = parse_topology(
        {
            "entanglers": [{"id": "e1", "clients": 3}, {"id": "e2", "clients": 3},
                           {"id": "e3", "clients": 3}],
            "gates": {"u": "pauli_z", "u_tilde": RY_QUARTER},
            "alpha": 0.5,
            "control": "plus_product",
        }
    )
    r = run_hierarchy(topo)
    assert len(r.labels) == 8 and r.reachable.all()
    assert np.all(r.fidelity <= 0.5 + 1e-9) and np.all(r.fidelity >= 0)


def test_hierarchy_refuses_condition_violation():
    topo = parse_topology(
        {
            "entanglers": [{"id": "e1", "clients": 2}, {"id": "e2", "clients": 2}],
            "gates": {"u": "pauli_z", "u_tilde": "ry(0.0)"},
        }
    )
    with pytest.raises(ValueError, match="qubit 0"):
        run_hierarchy(topo)


def test_topology_validation():
    pair = default_pair()
    with pytest.raises(ValueError):
        Topology(entanglers=[("e1", 3)], pair_template=pair)
    with pytest.raises(ValueError):
        Topology(entanglers=[("e1", 1), ("e2", 2)], pair_template=pair)
    # the cap counts clients, whose states are built, not the entanglers' control qubits
    assert Topology(entanglers=[("e1", 6), ("e2", 5)], pair_template=pair).total_clients == 11
    assert Topology(entanglers=[("e1", 6), ("e2", 6)], pair_template=pair).total_clients == 12
    with pytest.raises(ValueError, match="^topology has 13 clients, cap is 12$"):
        Topology(entanglers=[("e1", 7), ("e2", 6)], pair_template=pair)
    with pytest.raises(ValueError):
        Topology(entanglers=[("e1", 2), ("e2", 2)], pair_template=pair, control="biased")
    for alpha in (2.0, math.nan, "x"):  # refused at construction, not first by run_hierarchy
        with pytest.raises(ValueError):
            Topology(entanglers=[("e1", 2), ("e2", 2)], pair_template=pair, alpha=alpha)
    # superposed_input takes a stack of alphas, but a topology has one
    for alpha in (np.array([0.3, 0.5]), np.array(0.5), [0.5], 0.5 + 0j, True):
        with pytest.raises(ValueError, match="^alpha must be a real number, got "):
            Topology(entanglers=[("e1", 2), ("e2", 2)], pair_template=pair, alpha=alpha)
    assert len(run_hierarchy(Topology(entanglers=[("e1", 2), ("e2", 2)], pair_template=pair,
                                      alpha=np.float64(0.5))).labels) == 4


@pytest.mark.parametrize("clients", [2.0, 3.0, True, "2", None])
def test_topology_rejects_a_client_count_that_is_not_an_integer(clients):
    with pytest.raises(ValueError, match="client count must be an integer"):
        Topology(entanglers=[("e1", clients), ("e2", 2)], pair_template=default_pair())


def test_topology_takes_a_numpy_integer_client_count():
    topo = Topology(entanglers=[("e1", np.int64(2)), ("e2", 2)], pair_template=default_pair())
    assert len(run_hierarchy(topo).labels) == 4


def test_topology_is_an_immutable_snapshot():
    topo = parse_topology({"entanglers": [{"id": "a", "clients": 2}, {"id": "b", "clients": 2}]})
    assert topo.entanglers == (("a", 2), ("b", 2))
    with pytest.raises(AttributeError):
        topo.entanglers.append(("c", 7))
    with pytest.raises(dataclasses.FrozenInstanceError):
        topo.entanglers = (("a", 6), ("b", 7))
    entanglers = [("a", 2), ("b", 2)]
    topo = Topology(entanglers=entanglers, pair_template=default_pair())
    entanglers.append(("c", 7))
    entanglers[0] = ("a", 9)
    assert topo.total_clients == 4 and len(run_hierarchy(topo).labels) == 4


def test_no_cross_client_coupling():
    pairs = [default_pair()] * 4
    op = controlled_order_operator(pairs, [0, 0, 1, 1], 2)
    assert max_cross_client_coupling(op, 4, 2) <= 1e-10


def test_coupling_audit_detects_entangling_block():
    # replace one control block with a CNOT-like coupling across clients
    pairs = [default_pair()] * 2
    op = controlled_order_operator(pairs, [0, 1], 2)
    op = op.reshape(4, 4, 4, 4).copy()
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    op[:, 0, :, 0] = cnot
    assert max_cross_client_coupling(op.reshape(16, 16), 2, 2) > 0.1


def _assert_matches_dense(labels, results, fidelities, control, cluster_of_qubit, pairs, inputs):
    # dense audit operator on (clients x control), then an explicit H^(x)m readout
    m = len(control).bit_length() - 1
    joint = controlled_order_operator(pairs, cluster_of_qubit, m) @ np.kron(kron_all(inputs), control)
    reference = dense_readout(joint, m)
    assert list(labels) == outcome_labels(m)
    assert_matches_reference(results, reference)
    # the canonical frame of the dense order images: forward image to |0>, backward to |1>
    ends = np.array([[(p.u @ p.u_tilde) @ phi, (p.u_tilde @ p.u) @ phi]
                     for p, phi in zip(pairs, inputs)])
    orthogonal = condition_report(ends).all_orthogonal
    frame = kron_all(ends.conj()) if orthogonal else np.eye(2 ** len(pairs))
    for f, (_, state) in zip(fidelities, reference):
        if state is not None:
            rotated = frame @ state
            assert abs(f - (abs(rotated[0]) + abs(rotated[-1])) ** 2 / 2) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])  # the n + n qubit audit operator grows as 16^n
def test_map_entanglement_matches_dense_reference(rng, n):
    for _ in range(3):
        random_pairs = [UnitaryPair(haar_unitary(rng), haar_unitary(rng)) for _ in range(n)]
        random_inputs = [random_pure_state(rng, 1) for _ in range(n)]
        orthogonal = condition_pairs(rng, n)
        for control in (random_pure_state(rng, n), ghz_state(n)):
            for pairs, inputs in ((random_pairs, random_inputs), orthogonal):
                branches = map_entanglement(control, pairs, inputs)
                _assert_matches_dense([b.control_outcome for b in branches],
                                      [(b.probability, b.client_state) for b in branches],
                                      [b.ghz_fidelity for b in branches],
                                      control, list(range(n)), pairs, inputs)


@pytest.mark.parametrize("clusters", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("control", ["ghz", "plus_product"])
def test_hierarchy_matches_dense_reference(rng, clusters, control):
    for _ in range(3):
        # conjugating (pauli_z, ry(pi/2)) by a real rotation keeps every real
        # input orthogonal, so the generation condition holds for any alpha
        a = ry(rng.uniform(0, 2 * math.pi))
        pair = UnitaryPair(a @ pauli("z") @ a.conj().T, ry(math.pi / 2))
        topo = Topology(entanglers=[(f"e{j}", k) for j, k in enumerate(clusters)],
                        pair_template=pair, alpha=rng.uniform(0, 1), control=control)
        m = len(clusters)
        amps = (ghz_state(m) if control == "ghz"
                else kron_all([np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)] * m))
        n, r = topo.total_clients, run_hierarchy(topo)
        _assert_matches_dense(
            r.labels, readout_pairs(r), r.fidelity.tolist(), amps,
            [j for j, k in enumerate(clusters) for _ in range(k)],
            [pair] * n, [superposed_input(topo.alpha)] * n,
        )


def test_each_call_builds_the_order_images_once_and_checks_once(monkeypatch):
    import qswitch.netsim as netsim

    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(netsim, "_end_vectors", counting("ends", netsim._end_vectors))
    monkeypatch.setattr(netsim, "condition_report", counting("check", netsim.condition_report))
    for call in (lambda: run_hierarchy(default_topology([2, 3])),
                 lambda: map_entanglement(ghz_state(3), [default_pair()] * 3,
                                          [superposed_input(0.5)] * 3)):
        calls.clear()
        call()
        assert sorted(calls) == ["check", "ends"]


def _fidelity(fwd, bwd, state):
    return float((abs(np.vdot(fwd, state)) + abs(np.vdot(bwd, state))) ** 2 / 2.0)


@pytest.mark.parametrize("n", [7, 8])  # the sizes of the network benchmark
def test_map_entanglement_matches_branch_sum_at_benchmark_sizes(rng, n):
    # the dense reference is sum_b c_b |branch_b>|b> read out through an explicit
    # H^(x)n, where control qubit q (most significant first) reverses pair q
    pairs, inputs = condition_pairs(rng, n)
    ends = [((p.u @ p.u_tilde) @ phi, (p.u_tilde @ p.u) @ phi) for p, phi in zip(pairs, inputs)]
    fwd, bwd = kron_all([f for f, _ in ends]), kron_all([b for _, b in ends])
    for control in (random_pure_state(rng, n), ghz_state(n)):
        joint = np.stack([c * kron_all([e[(b >> (n - 1 - q)) & 1] for q, e in enumerate(ends)])
                          for b, c in enumerate(control)], axis=1)
        reference = dense_readout(joint, n)
        branches = map_entanglement(control, pairs, inputs)
        assert [b.control_outcome for b in branches] == outcome_labels(n)
        assert_matches_reference([(b.probability, b.client_state) for b in branches], reference)
        for b, (_, state) in zip(branches, reference):
            assert abs(b.ghz_fidelity - _fidelity(fwd, bwd, state)) <= 1e-12


@pytest.mark.parametrize("m, k, control", [  # the five network benchmark topologies, then five more
    (3, 3, "ghz"), (2, 5, "ghz"), (2, 4, "ghz"), (3, 3, "plus_product"), (4, 2, "plus_product"),
    (2, 2, "ghz"), (3, 2, "plus_product"),
    (4, 3, "ghz"), (6, 2, "plus_product"), (2, 6, "ghz"),  # 12 clients plus 2-6 entanglers
])
def test_hierarchy_equals_kron_built_references_bitwise(m, k, control):
    topo = parse_topology({"entanglers": [{"id": f"e{j}", "clients": k} for j in range(m)],
                           "gates": {"u": "pauli_z", "u_tilde": RY_QUARTER}, "alpha": 0.5,
                           "control": control})
    n = m * k
    ends = _end_vectors([topo.pair_template] * n, [superposed_input(0.5)] * n)
    amps = (ghz_state(m) if control == "ghz"
            else kron_all([np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)] * m))
    plan = readout_plan(amps, _reverse_table([q // k for q in range(n)], m))
    expected = controlled_outcomes(plan, ends)
    fwd, bwd = kron_all(ends[:, 0]), kron_all(ends[:, 1])
    r = run_hierarchy(topo)
    assert r.labels == expected.labels and len(r.labels) == 2**m
    assert same_bits(r.probability, expected.probability)
    assert same_bits(r.reachable, expected.reachable) and r.reachable.all()
    assert same_bits(r.states, expected.states)
    assert r.fidelity.tolist() == [_fidelity(fwd, bwd, psi) for psi in r.states]


@pytest.mark.parametrize("in_frame", [True, False])
def test_map_entanglement_equals_kron_built_references_bitwise(rng, in_frame):
    # distinct pairs, so a reordered F or B shows; a non-orthogonal pair leaves
    # no canonical frame, and then F = |0000> and B = |1111>
    n = 4
    pairs, inputs = condition_pairs(rng, n)
    if not in_frame:
        pairs[1] = UnitaryPair(haar_unitary(rng), haar_unitary(rng))
    ends = _end_vectors(pairs, inputs)
    assert condition_report(ends).all_orthogonal == in_frame
    frame = ends if in_frame else np.broadcast_to(np.eye(2), ends.shape)
    fwd, bwd = kron_all(frame[:, 0]), kron_all(frame[:, 1])
    control = random_pure_state(rng, n)
    for b in map_entanglement(control, pairs, inputs):
        assert b.ghz_fidelity == _fidelity(fwd, bwd, b.client_state)


@pytest.mark.parametrize("case", ["in-frame", "no-frame", "identity"])
def test_map_entanglement_rows_are_the_readout_columns_bitwise(rng, case):
    # the rows are the columns of one readout, which is controlled_outcomes' with a fidelity
    # column; identity pairs under an all-plus control leave every branch but ++++ unreachable
    n = 4
    pairs, inputs = condition_pairs(rng, n)
    control = random_pure_state(rng, n)
    if case == "no-frame":
        pairs[1] = UnitaryPair(haar_unitary(rng), haar_unitary(rng))
    elif case == "identity":
        pairs = [UnitaryPair(np.eye(2, dtype=complex), np.eye(2, dtype=complex))] * n
        control = np.full(2**n, 2.0 ** (-n / 2), dtype=complex)
    ends = _end_vectors(pairs, inputs)
    plan = readout_plan(control, _reverse_table(list(range(n)), n))
    r = netsim._readout(plan, ends, condition_report(ends).all_orthogonal)
    expected = controlled_outcomes(plan, ends)
    assert r.labels == expected.labels
    assert same_bits(r.probability, expected.probability)
    assert same_bits(r.reachable, expected.reachable)
    assert same_bits(r.states, expected.states)
    assert r.reachable.all() == (case != "identity")
    branches = map_entanglement(control, pairs, inputs)
    assert [type(b) for b in branches] == [BranchResult] * 2**n
    assert [b.control_outcome for b in branches] == list(r.labels)
    assert same_bits([b.probability for b in branches], r.probability)
    assert [b.reachable for b in branches] == r.reachable.tolist()
    for b, live, psi, f in zip(branches, r.reachable.tolist(), r.states, r.fidelity.tolist()):
        if live:
            assert same_bits(b.client_state, psi) and same_bits(b.ghz_fidelity, f)
            assert type(b.ghz_fidelity) is float
        else:
            assert b.client_state is None and b.ghz_fidelity is None and f == 0.0


def test_map_entanglement_frees_the_branch_stack_after_the_readout_product(rng):
    # the network workload's 8-qubit call: orthogonal pairs and a random control. Its 1 MiB
    # branch stack is freed right after the product; held to the end of the readout, it
    # raises the traced peak from 3.25 to 4.05 MiB
    pairs, inputs = condition_pairs(rng, 8)
    control = random_pure_state(rng, 8)
    map_entanglement(control, pairs, inputs)  # anything cached is built before the trace
    tracemalloc.start()
    try:
        map_entanglement(control, pairs, inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20


def _assert_same_up_to_phase(a, b, tol=1e-12):
    # b times the phase of <b|a> against a
    z = np.vdot(b, a)
    assert np.max(np.abs(a - b * (z / abs(z)))) <= tol


@pytest.mark.parametrize("in_frame", [True, False])
@pytest.mark.parametrize("n", range(1, 7))
def test_swapping_every_pair_complements_the_control_index(n, in_frame):
    # swapping u and u_tilde on pair q swaps qubit q's order images, so control basis state b
    # then applies the orders of its complement: with c'_b = c_(~b) the joint state is the
    # old one with its control register complemented, and outcome k only gains (-1)^|k|
    rng = np.random.default_rng(3)
    if in_frame:
        pairs, inputs = condition_pairs(rng, n)
    else:
        pairs = [UnitaryPair(haar_unitary(rng), haar_unitary(rng)) for _ in range(n)]
        inputs = [random_pure_state(rng, 1) for _ in range(n)]
    control = random_pure_state(rng, n)
    swapped = [UnitaryPair(p.u_tilde, p.u) for p in pairs]
    before = map_entanglement(control, pairs, inputs)
    after = map_entanglement(control[::-1], swapped, inputs)
    assert condition_report(_end_vectors(pairs, inputs)).all_orthogonal == in_frame
    assert [b.control_outcome for b in after] == [b.control_outcome for b in before]
    for b, s in zip(before, after):
        assert abs(s.probability - b.probability) <= 1e-12
        assert s.reachable and b.reachable
        assert abs(s.ghz_fidelity - b.ghz_fidelity) <= 1e-12
        _assert_same_up_to_phase(s.client_state, b.client_state)


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("clusters", [[5, 5], [3, 3, 3], [2, 2, 2, 2], [4, 4]])
@pytest.mark.parametrize("control", ["ghz", "plus_product"])
def test_swapping_the_topology_gates_keeps_its_readout(control, clusters, alpha):
    # swapping the gates complements the control index, which leaves both controls unchanged
    def hierarchy(u, u_tilde):
        return run_hierarchy(parse_topology({
            "entanglers": [{"id": f"e{j}", "clients": k} for j, k in enumerate(clusters)],
            "gates": {"u": u, "u_tilde": u_tilde}, "alpha": alpha, "control": control}))

    before, after = hierarchy("pauli_z", RY_QUARTER), hierarchy(RY_QUARTER, "pauli_z")
    assert after.labels == before.labels
    assert np.max(np.abs(after.probability - before.probability)) <= 1e-12
    assert after.reachable.tolist() == before.reachable.tolist()
    assert np.max(np.abs(after.fidelity - before.fidelity)) <= 1e-12
    for s, b, live in zip(after.states, before.states, before.reachable.tolist()):
        if live:
            _assert_same_up_to_phase(s, b)
