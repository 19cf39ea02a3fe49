import math

import numpy as np
import pytest

from conftest import (
    assert_matches_reference,
    condition_spec,
    default_pair,
    dense_readout,
    haar_unitary,
    outcome_labels,
    random_pure_state,
)
from qswitch import SwitchSpec, UnitaryPair, canonical_lu, pauli, ry, superposed_input
from qswitch.linalg import basis_state, kron, kron_all, reduced_density
from qswitch.metrics import purity
from qswitch.netsim import (
    BranchResult,
    Topology,
    controlled_order_operator,
    map_entanglement,
    max_cross_client_coupling,
    run_hierarchy,
    topology_from_json,
)

RY_QUARTER = f"ry({math.pi / 2})"


def ghz_state(n):
    return (basis_state(n, 0) + basis_state(n, 2**n - 1)) / math.sqrt(2)


def default_topology(clusters):
    return topology_from_json(
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


def test_map_entanglement_length_mismatch():
    with pytest.raises(ValueError):
        map_entanglement(ghz_state(2), [default_pair()] * 3, [superposed_input(0.5)] * 3)


def test_branch_probabilities_sum_to_one():
    for branches in (
        map_entanglement(ghz_state(3), [default_pair()] * 3, [superposed_input(0.5)] * 3),
        run_hierarchy(default_topology([3, 3, 3])),
    ):
        assert abs(sum(b.probability for b in branches) - 1.0) <= 1e-10


def test_hierarchy_nine_clients():
    branches = run_hierarchy(default_topology([3, 3, 3]))
    assert len(branches) == 8
    for b in branches:
        assert b.reachable
        assert b.client_state.shape == (2**9,)
        assert b.ghz_fidelity >= 1 - 1e-9


@pytest.mark.parametrize("clusters", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_hierarchy_recursion_sizes(clusters):
    for b in run_hierarchy(default_topology(list(clusters))):
        assert b.ghz_fidelity >= 1 - 1e-9


def test_hierarchy_product_control_not_global_ghz():
    topo = topology_from_json(
        {
            "entanglers": [{"id": "e1", "clients": 3}, {"id": "e2", "clients": 3},
                           {"id": "e3", "clients": 3}],
            "gates": {"u": "pauli_z", "u_tilde": RY_QUARTER},
            "alpha": 0.5,
            "control": "plus_product",
        }
    )
    for b in run_hierarchy(topo):
        if b.reachable:
            assert b.ghz_fidelity <= 0.5 + 1e-9


def test_hierarchy_refuses_condition_violation():
    topo = topology_from_json(
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
    with pytest.raises(ValueError):
        Topology(entanglers=[("e1", 6), ("e2", 5)], pair_template=pair)  # 12 qubit cap
    with pytest.raises(ValueError):
        Topology(entanglers=[("e1", 2), ("e2", 2)], pair_template=pair, control="biased")


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


def _assert_matches_dense(branches, control, cluster_of_qubit, pairs, inputs):
    # dense audit operator on (clients x control), then an explicit H^(x)m readout
    m = len(control).bit_length() - 1
    joint = controlled_order_operator(pairs, cluster_of_qubit, m) @ kron(kron_all(inputs), control)
    reference = dense_readout(joint, m)
    assert [b.control_outcome for b in branches] == outcome_labels(m)
    assert_matches_reference([(b.probability, b.client_state) for b in branches], reference)
    try:
        frame = kron_all(canonical_lu(SwitchSpec("ghz", pairs, inputs)))
    except ValueError:
        frame = np.eye(2 ** len(pairs))
    for b, (_, state) in zip(branches, reference):
        if state is not None:
            rotated = frame @ state
            assert abs(b.ghz_fidelity - (abs(rotated[0]) + abs(rotated[-1])) ** 2 / 2) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])  # the n + n qubit audit operator grows as 16^n
def test_map_entanglement_matches_dense_reference(rng, n):
    for _ in range(3):
        random_pairs = [UnitaryPair(haar_unitary(rng), haar_unitary(rng)) for _ in range(n)]
        random_inputs = [random_pure_state(rng, 1) for _ in range(n)]
        orthogonal = condition_spec(rng, "ghz", n)
        for control in (random_pure_state(rng, n), ghz_state(n)):
            for pairs, inputs in ((random_pairs, random_inputs),
                                  (orthogonal.pairs, orthogonal.inputs)):
                branches = map_entanglement(control, pairs, inputs)
                _assert_matches_dense(branches, control, list(range(n)), pairs, inputs)


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
        n = topo.total_clients
        _assert_matches_dense(
            run_hierarchy(topo), amps, [j for j, k in enumerate(clusters) for _ in range(k)],
            [pair] * n, [superposed_input(topo.alpha)] * n,
        )
