import math
from itertools import product

import numpy as np
import pytest

from conftest import aligned_spec, condition_spec, default_pair, random_spec
from qswitch import (
    SwitchSpec,
    UnitaryPair,
    canonical_lu,
    certify_class,
    check_max_entanglement,
    check_separability,
    concurrence,
    forward_order,
    backward_order,
    gme_concurrence,
    overlap,
    pauli,
    run,
    ry,
    superposed_input,
    three_tangle,
)
from qswitch.linalg import basis_state, density, is_unitary, kron, kron_all, reduced_density
from qswitch.metrics import purity
from qswitch.verify import apply_local_unitaries

GHZ3 = (basis_state(3, 0) + basis_state(3, 7)) / math.sqrt(2)
W3 = (basis_state(3, 4) + basis_state(3, 2) + basis_state(3, 1)) / math.sqrt(3)


def hyperdeterminant_tangle(psi):
    # Cayley hyperdeterminant of the 2x2x2 amplitude tensor, an independent
    # closed-form route to the residual entanglement
    a = psi.reshape(2, 2, 2)
    d1 = (
        a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2
        + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
        + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2
        + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2
    )
    d2 = (
        a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 1] * a[1, 0, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 1, 0] * a[0, 0, 1]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0] * a[0, 0, 1]
        + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1]
    )
    d3 = a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1] + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0]
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


def test_overlap_closed_form():
    # <eta| ry(4 lam) |eta> = cos(2 lam), independent of alpha
    for lam in np.linspace(0, math.pi / 2, 9):
        pair = UnitaryPair(pauli("z"), ry(2 * lam))
        for alpha in (0.0, 0.2, 0.5, 0.9, 1.0):
            got = overlap(pair, superposed_input(alpha))
            assert abs(got - math.cos(2 * lam)) <= 1e-12


def test_overlap_identity_pair(rng):
    from conftest import random_pure_state

    phi = random_pure_state(rng, 1)
    assert abs(overlap(UnitaryPair(np.eye(2, dtype=complex), np.eye(2, dtype=complex)), phi) - 1.0) <= 1e-12


def test_overlap_anticommuting_pair():
    got = overlap(UnitaryPair(pauli("z"), pauli("x")), basis_state(1, 0))
    assert abs(got - (-1.0)) <= 1e-12


def test_condition_report_default_family():
    spec = SwitchSpec("ghz", [default_pair()] * 3, [superposed_input(0.5)] * 3)
    report = check_max_entanglement(spec)
    assert report.all_orthogonal and not report.any_aligned


def test_condition_report_identity_pair_aligned():
    identity_pair = UnitaryPair(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    spec = SwitchSpec("ghz", [default_pair(), identity_pair, default_pair()],
                      [superposed_input(0.5)] * 3)
    report = check_max_entanglement(spec)
    assert not report.all_orthogonal and report.any_aligned


def test_condition_report_mutually_exclusive(rng):
    for _ in range(50):
        spec = random_spec(rng, "ghz", 3)
        report = check_max_entanglement(spec)
        assert not (report.all_orthogonal and report.any_aligned)


def test_separability_lambda_zero():
    pair = UnitaryPair(pauli("z"), ry(0.0))
    spec = SwitchSpec("bell", [pair] * 2, [superposed_input(0.5)] * 2)
    assert check_separability(spec)


def test_separability_quarter_turn_false():
    spec = SwitchSpec("ghz", [default_pair()] * 3, [superposed_input(0.5)] * 3)
    assert not check_separability(spec)


def test_separability_implies_pure_marginal(rng):
    for _ in range(20):
        spec = aligned_spec(rng, "ghz", 3, aligned_qubit=1)
        assert check_separability(spec)
        for o in run(spec).reachable():
            assert purity(reduced_density(o.state, [1])) > 1 - 1e-9


def test_canonical_lu_maps_branches():
    spec = SwitchSpec("ghz", [default_pair()] * 3, [superposed_input(0.5)] * 3)
    lus = canonical_lu(spec)
    for lu, pair, phi in zip(lus, spec.pairs, spec.inputs):
        assert is_unitary(lu)
        assert np.allclose(lu @ forward_order(pair) @ phi, basis_state(1, 0), atol=1e-12)
        assert abs(abs((lu @ backward_order(pair) @ phi)[1]) - 1.0) <= 1e-12


def test_canonical_lu_reduces_ghz_outcome():
    spec = SwitchSpec("ghz", [default_pair()] * 3, [superposed_input(0.5)] * 3)
    lus = canonical_lu(spec)
    plus = run(spec)["+"].state
    reduced = apply_local_unitaries(lus, plus)
    # accumulated phase sits on the |111> branch; compare via fidelity
    fidelity = (abs(reduced[0]) + abs(reduced[-1])) ** 2 / 2
    assert abs(fidelity - 1.0) <= 1e-9


def test_canonical_lu_identity_when_already_canonical():
    # branches |0>, |1> exactly: u = sigma_x, u_tilde = I on input |+> gives
    # forward = backward, so use an explicitly canonical pair instead
    pair = UnitaryPair(pauli("z"), ry(math.pi / 2))
    phi = superposed_input(0.5)
    spec = SwitchSpec("ghz", [pair] * 3, [phi] * 3)
    lus = canonical_lu(spec)
    branch = forward_order(pair) @ phi
    assert np.allclose(lus[0] @ branch, basis_state(1, 0), atol=1e-12)


def test_canonical_lu_reduces_w_outcomes():
    spec = SwitchSpec("w", [default_pair()] * 3, [superposed_input(0.5)] * 3)
    lus = canonical_lu(spec)
    full = kron_all(lus)
    ens = run(spec)
    # control qubit 0 reads the high bit of the reversed-order index, so the
    # second label character signs the |010> term and the first signs |001>
    signs = {"++": (1, 1), "+-": (-1, 1), "-+": (1, -1), "--": (-1, -1)}
    for label, (s1, s2) in signs.items():
        target = (basis_state(3, 4) + s1 * basis_state(3, 2) + s2 * basis_state(3, 1)) / math.sqrt(3)
        got = full @ ens[label].state
        assert abs(abs(np.vdot(target, got)) - 1.0) <= 1e-9


def test_canonical_lu_refuses_when_condition_fails():
    pair = UnitaryPair(pauli("z"), ry(0.4))
    spec = SwitchSpec("ghz", [pair] * 3, [superposed_input(0.5)] * 3)
    with pytest.raises(ValueError):
        canonical_lu(spec)


def test_three_tangle_matches_hyperdeterminant(rng):
    from conftest import random_pure_state

    assert abs(three_tangle(GHZ3) - 1.0) <= 1e-9
    assert three_tangle(W3) <= 1e-9
    for _ in range(30):
        psi = random_pure_state(rng, 3)
        assert abs(three_tangle(psi) - hyperdeterminant_tangle(psi)) <= 1e-8


def test_three_tangle_matches_monogamy_form(rng):
    # the mixed-state route: C^2(0|12) - C^2(01) - C^2(02), from the qubit-0
    # marginal purity and Wootters concurrence of the two-qubit marginals
    from conftest import random_pure_state

    for _ in range(200):
        psi = random_pure_state(rng, 3)
        one_rest = 2.0 * (1.0 - purity(reduced_density(psi, [0])))
        pairwise = [concurrence(reduced_density(psi, cut)) ** 2 for cut in ([0, 1], [0, 2])]
        assert abs(three_tangle(psi) - (one_rest - sum(pairwise))) <= 1e-8


def test_three_tangle_rejects_unnormalised_state():
    with pytest.raises(ValueError):
        three_tangle(2.0 * GHZ3)
    with pytest.raises(ValueError):
        three_tangle(GHZ3[:4])


def test_certify_class_local_unitary_invariance(rng):
    from conftest import haar_unitary, random_pure_state

    phi_plus = (basis_state(2, 0) + basis_state(2, 3)) / math.sqrt(2)
    examples = {
        "ghz-class": GHZ3,
        "w-class": W3,
        "biseparable": kron(basis_state(1, 0), phi_plus),
        "separable": kron_all([random_pure_state(rng, 1) for _ in range(3)]),
    }
    for expected, state in examples.items():
        for _ in range(20):
            lus = [haar_unitary(rng) for _ in range(3)]
            assert certify_class(apply_local_unitaries(lus, state)) == expected


def test_certify_class_examples(rng):
    from conftest import random_pure_state

    assert certify_class(GHZ3) == "ghz-class"
    assert certify_class(W3) == "w-class"
    phi_plus = (basis_state(2, 0) + basis_state(2, 3)) / math.sqrt(2)
    assert certify_class(kron(basis_state(1, 0), phi_plus)) == "biseparable"
    product = kron_all([random_pure_state(rng, 1) for _ in range(3)])
    assert certify_class(product) == "separable"


def test_certify_w_protocol_outputs(rng):
    spec = condition_spec(rng, "w", 3)
    for o in run(spec).reachable():
        assert certify_class(o.state) == "w-class"


def test_certify_ghz_protocol_outputs(rng):
    spec = condition_spec(rng, "ghz", 3)
    for o in run(spec).reachable():
        assert certify_class(o.state) == "ghz-class"


@pytest.mark.parametrize("protocol,n", [("bell", 2), ("ghz", 3)])
def test_theorem_equivalence_sampled(rng, protocol, n):
    # condition satisfied -> every reachable outcome maximal; random spec with
    # condition violated -> not every outcome maximal
    for _ in range(25):
        spec = condition_spec(rng, protocol, n)
        assert check_max_entanglement(spec).all_orthogonal
        for o in run(spec).reachable():
            value = (
                concurrence(density(o.state))
                if protocol == "bell"
                else gme_concurrence(o.state).value
            )
            assert abs(value - 1.0) <= 1e-6
    for _ in range(25):
        spec = random_spec(rng, protocol, n)
        if check_max_entanglement(spec).all_orthogonal:
            continue  # vanishing probability for random draws
        values = [
            concurrence(density(o.state)) if protocol == "bell" else gme_concurrence(o.state).value
            for o in run(spec).reachable()
        ]
        assert any(v < 1.0 - 1e-6 for v in values)
