import json
import math
from itertools import product

import numpy as np
import pytest

import qswitch.metrics as metrics
import qswitch.verify as verify
from conftest import (
    aligned_spec,
    apply_local_unitaries,
    basis_state,
    condition_spec,
    default_pair,
    density,
    haar_unitary,
    kron_all,
    purity,
    random_pure_state,
    random_spec,
    reachable_states,
    reduced_density,
    reference_certify_class,
)
from qswitch import (
    SwitchSpec,
    UnitaryPair,
    certify_class,
    check_max_entanglement,
    concurrence,
    gme_concurrence,
    overlap,
    pauli,
    run,
    ry,
    superposed_input,
    three_tangle,
)
from qswitch.cli import EXIT_OK, main
from qswitch.gates import is_unitary
from qswitch.metrics import _cut_purities

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


@pytest.mark.parametrize("phi,message", [
    ([2, 0], "finite and normalized"),  # four times the overlap of |0> if read as given
    ([math.nan, 0], "finite and normalized"),
    ([1, 0, 0], "single-qubit"),
], ids=["unnormalised", "nan", "shape-3"])
def test_overlap_rejects_a_bad_input_state(phi, message):
    with pytest.raises(ValueError, match=message):
        overlap(default_pair(), np.array(phi, dtype=complex))


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
    assert check_max_entanglement(spec).any_aligned


def test_separability_quarter_turn_false():
    spec = SwitchSpec("ghz", [default_pair()] * 3, [superposed_input(0.5)] * 3)
    assert not check_max_entanglement(spec).any_aligned


def test_separability_implies_pure_marginal(rng):
    for _ in range(20):
        spec = aligned_spec(rng, "ghz", 3, aligned_qubit=1)
        assert check_max_entanglement(spec).any_aligned
        for psi in reachable_states(run(spec)):
            assert purity(reduced_density(psi, [1])) > 1 - 1e-9


def test_canonical_lu_maps_branches():
    spec = SwitchSpec("ghz", [default_pair()] * 3, [superposed_input(0.5)] * 3)
    assert check_max_entanglement(spec).all_orthogonal
    lus = spec.ends.conj()  # the canonical frame
    for lu, pair, phi in zip(lus, spec.pairs, spec.inputs):
        assert is_unitary(lu)
        assert np.allclose(lu @ (pair.u @ pair.u_tilde) @ phi, basis_state(1, 0), atol=1e-12)
        assert abs(abs((lu @ (pair.u_tilde @ pair.u) @ phi)[1]) - 1.0) <= 1e-12


def test_canonical_lu_reduces_ghz_outcome():
    spec = SwitchSpec("ghz", [default_pair()] * 3, [superposed_input(0.5)] * 3)
    assert check_max_entanglement(spec).all_orthogonal
    lus = spec.ends.conj()  # the canonical frame
    r = run(spec)
    plus = r.states[r.labels.index("+")]
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
    assert check_max_entanglement(spec).all_orthogonal
    lus = spec.ends.conj()  # the canonical frame
    branch = (pair.u @ pair.u_tilde) @ phi
    assert np.allclose(lus[0] @ branch, basis_state(1, 0), atol=1e-12)


def test_overlaps_equal_per_qubit_vdot_bitwise(rng):
    for make in (random_spec, condition_spec, aligned_spec):
        for _ in range(30):
            spec = make(rng, "ghz", int(rng.integers(2, 6)))
            expected = tuple(complex(np.vdot((p.u_tilde @ p.u) @ phi, (p.u @ p.u_tilde) @ phi))
                             for p, phi in zip(spec.pairs, spec.inputs))
            assert check_max_entanglement(spec).per_qubit_overlap == expected
            assert tuple(overlap(p, phi) for p, phi in zip(spec.pairs, spec.inputs)) == expected


@pytest.mark.parametrize("tol", [0.0, -1e-9, 0.5, 0.7, math.nan, math.inf])
def test_condition_tol_must_lie_below_one_half(tol):
    # at tol >= 0.5 an overlap can be "orthogonal" and "aligned" at once
    spec = SwitchSpec("ghz", [UnitaryPair(pauli("z"), ry(math.acos(0.36)))] * 3,
                      [superposed_input(0.5)] * 3)
    with pytest.raises(ValueError, match="tol"):
        check_max_entanglement(spec, tol)
    report = check_max_entanglement(spec, 0.4)
    assert report.all_orthogonal and not report.any_aligned


def test_canonical_lu_reduces_w_outcomes():
    spec = SwitchSpec("w", [default_pair()] * 3, [superposed_input(0.5)] * 3)
    assert check_max_entanglement(spec).all_orthogonal
    lus = spec.ends.conj()  # the canonical frame
    full = kron_all(lus)
    ens = run(spec)
    # control qubit 0 reads the high bit of the reversed-order index, so the
    # second label character signs the |010> term and the first signs |001>
    signs = {"++": (1, 1), "+-": (-1, 1), "-+": (1, -1), "--": (-1, -1)}
    for label, (s1, s2) in signs.items():
        target = (basis_state(3, 4) + s1 * basis_state(3, 2) + s2 * basis_state(3, 1)) / math.sqrt(3)
        got = full @ ens.states[ens.labels.index(label)]
        assert abs(abs(np.vdot(target, got)) - 1.0) <= 1e-9


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
        "biseparable": np.kron(basis_state(1, 0), phi_plus),
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
    assert certify_class(np.kron(basis_state(1, 0), phi_plus)) == "biseparable"
    product = kron_all([random_pure_state(rng, 1) for _ in range(3)])
    assert certify_class(product) == "separable"


def test_certify_w_protocol_outputs(rng):
    spec = condition_spec(rng, "w", 3)
    for psi in reachable_states(run(spec)):
        assert certify_class(psi) == "w-class"


def test_certify_ghz_protocol_outputs(rng):
    spec = condition_spec(rng, "ghz", 3)
    for psi in reachable_states(run(spec)):
        assert certify_class(psi) == "ghz-class"


@pytest.mark.parametrize("protocol,n", [("bell", 2), ("ghz", 3)])
def test_theorem_equivalence_sampled(rng, protocol, n):
    # condition satisfied -> every reachable outcome maximal; random spec with
    # condition violated -> not every outcome maximal
    for _ in range(25):
        spec = condition_spec(rng, protocol, n)
        assert check_max_entanglement(spec).all_orthogonal
        for psi in reachable_states(run(spec)):
            value = (
                concurrence(density(psi))
                if protocol == "bell"
                else gme_concurrence(psi).value
            )
            assert abs(value - 1.0) <= 1e-6
    for _ in range(25):
        spec = random_spec(rng, protocol, n)
        if check_max_entanglement(spec).all_orthogonal:
            continue  # vanishing probability for random draws
        values = [
            concurrence(density(psi)) if protocol == "bell" else gme_concurrence(psi).value
            for psi in reachable_states(run(spec))
        ]
        assert any(v < 1.0 - 1e-6 for v in values)



@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_certify_class_rejects_non_finite_state(bad):
    for state in (np.full(8, bad, dtype=complex), GHZ3 + np.array([bad] + [0] * 7)):
        with pytest.raises(ValueError, match="state must be normalized"):
            certify_class(state)


def test_norm_rule_between_the_squared_and_plain_norm():
    # every state check accepts |sum |a_i|^2 - 1| <= 1e-10, so a norm of
    # 1 + 7e-11 (squared 1 + 1.4e-10), inside the looser rule
    # | ||a|| - 1 | <= 1e-10, fails all three
    phi_plus = (basis_state(2, 0) + basis_state(2, 3)) / math.sqrt(2)
    for psi in (GHZ3, W3, np.kron(basis_state(1, 0), phi_plus), basis_state(3, 5)):
        inside, band = (1.0 + 3e-11) * psi, (1.0 + 7e-11) * psi
        assert certify_class(inside) == certify_class(psi)
        assert three_tangle(inside) == pytest.approx(three_tangle(psi), abs=1e-9)
        assert gme_concurrence(inside).value == pytest.approx(gme_concurrence(psi).value, abs=1e-9)
        for check in (certify_class, three_tangle, gme_concurrence):
            with pytest.raises(ValueError, match="state must be normalized"):
                check(band)
    # at the edge itself, one exactly rounded sum gives all three checks one verdict in any
    # amplitude order; an index-order sum and a BLAS dot split each state below. Found by a
    # seeded search (seed 5): a normalised draw scaled by sqrt(1 + 1e-10), its first real
    # part then stepped 3 ulps (draw 1) and 2 ulps (draw 2)
    accepted = np.array([
        -0.19919327751462093 + 0.18598239126331448j, -0.3289600589748276 + 0.40606688065544716j,
        -0.06169101740633846 + 0.0677535569166517j, 0.10443519526525277 - 0.3063488611428025j,
        0.28218476678877263 - 0.23802532359759945j, 0.027250181944587424 + 0.39743179577101967j,
        -0.1372731228888977 + 0.05039435667744592j, -0.19493309052043983 - 0.43024827996205156j])
    refused = np.array([
        -0.37876009912376024 + 0.27021067749211064j, -0.2049036269180914 - 0.5349877919020071j,
        -0.15890045289303728 - 0.08359435770015385j, -0.23226324851193242 - 0.31934290866162474j,
        0.1801865579593871 - 0.05638138386673102j, -0.02054153666203037 - 0.4198499547652367j,
        -0.19192577092990454 + 0.006737036375984884j, 0.13338290868122957 - 0.012336044208791022j])
    for state in (accepted, accepted[::-1].copy()):
        for check in (certify_class, three_tangle, gme_concurrence):
            check(state)
    for state in (refused, refused[::-1].copy()):
        for check in (certify_class, three_tangle, gme_concurrence):
            with pytest.raises(ValueError, match="^state must be normalized$"):
                check(state)


def _biseparable(rng, lone_qubit):
    state = np.kron(random_pure_state(rng, 1), random_pure_state(rng, 2)).reshape(2, 2, 2)
    return np.moveaxis(state, 0, lone_qubit).reshape(-1)


def _random_lus(rng, state):
    return apply_local_unitaries([haar_unitary(rng) for _ in range(3)], state)


def _assert_same_classes(states):
    for state in states:
        assert certify_class(state) == reference_certify_class(state)


def test_certify_class_matches_numpy_route_on_haar_states():
    # generic states are all ghz-class, far from both thresholds; the family
    # and threshold tests below exercise the other branches
    rng = np.random.default_rng(8)
    states = rng.normal(size=(500, 8)) + 1j * rng.normal(size=(500, 8))
    _assert_same_classes(states / np.linalg.norm(states, axis=1, keepdims=True))


def test_certify_class_matches_numpy_route_on_class_families(rng):
    families = {
        "separable": lambda k: kron_all([random_pure_state(rng, 1) for _ in range(3)]),
        "biseparable": lambda k: _biseparable(rng, k % 3),
        "ghz-class": lambda k: GHZ3,
        "w-class": lambda k: W3,
    }
    for expected, draw in families.items():
        states = [_random_lus(rng, draw(k)) for k in range(150)]
        assert {certify_class(s) for s in states} == {expected}
        _assert_same_classes(states)


def _ulps_from(values, threshold):
    return np.min(np.abs(np.asarray(values) - threshold)) / np.spacing(threshold)


def test_certify_class_matches_numpy_route_through_tangle_threshold(rng):
    # W + eps GHZ has tau = 16 eps / (3 sqrt 6) + O(eps^2): the sweep crosses
    # tau = tol, where the class flips from w-class to ghz-class, while every
    # single-qubit cut stays far from pure
    tol = verify.CLASS_TOL
    states = []
    for eps in np.geomspace(0.2, 5.0, 241) * tol * 3 * math.sqrt(6) / 16:
        psi = W3 + eps * GHZ3
        states.append(_random_lus(rng, psi / np.linalg.norm(psi)))
    tangles = [three_tangle(s) for s in states]
    # both routes read the tangle through the same helper, bit for bit, so a
    # point next to tol cannot split them
    assert min(tangles) < tol < max(tangles)
    assert {certify_class(s) for s in states} == {"w-class", "ghz-class"}
    _assert_same_classes(states)


def test_certify_class_matches_numpy_route_through_purity_threshold(rng):
    # cos t |0> |00> + sin t |1> |11> (every cut mixed) and |0> (cos t |00> + sin t |11>)
    # (qubit 0 pure) have mixed-cut purity 1 - sin^2(2t) / 2, which the sweep
    # carries through 1 - tol
    tol = verify.CLASS_TOL
    t_star = math.asin(math.sqrt(2 * tol)) / 2
    seen = set()
    # t = t_star itself is left out: there a mixed cut's purity equals 1 - tol
    # to rounding, and the two routes' last-bit rounding splits the class in
    # about 1.5 % of random frames, both answers correct to rounding
    for t in np.linspace(0.8, 1.2, 200) * t_star:
        c, s = math.cos(t), math.sin(t)
        for psi in (c * basis_state(3, 0) + s * basis_state(3, 7),
                    c * basis_state(3, 0) + s * basis_state(3, 3)):
            state = _random_lus(rng, psi)
            purities = _cut_purities(state)
            # the two purity routes differ by at most 2.2e-16 (2 ulps here);
            # no point sits within 4 ulps of 1 - tol, so none can flip a class
            assert _ulps_from(purities, 1.0 - tol) > 4
            label = certify_class(state)
            assert label == reference_certify_class(state, tol)
            seen.add(label)
    assert seen == {"separable", "biseparable", "ghz-class"}


def test_certify_class_reads_no_batched_purities(monkeypatch, tmp_path, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("certify_class reached metrics._cut_purities")

    for module in (metrics, verify):  # also a binding imported into verify
        monkeypatch.setattr(module, "_cut_purities", fail, raising=False)
    phi_plus = (basis_state(2, 0) + basis_state(2, 3)) / math.sqrt(2)
    examples = {
        "ghz-class": GHZ3,
        "w-class": W3,
        "biseparable": np.kron(basis_state(1, 0), phi_plus),
        "separable": basis_state(3, 5),
    }
    for expected, state in examples.items():
        assert certify_class(state) == expected
    for protocol, expected in (("ghz", "ghz-class"), ("w", "w-class")):
        path = tmp_path / f"{protocol}3.json"
        path.write_text(json.dumps({
            "protocol": protocol, "n": 3, "input": {"alpha": 0.5},
            "pairs": [{"u": "pauli_z", "u_tilde": f"ry({math.pi / 2})"}],
        }))
        assert main(["verify", "--spec", str(path)]) == EXIT_OK
        assert set(json.loads(capsys.readouterr().out)["outcome_classes"].values()) == {expected}
