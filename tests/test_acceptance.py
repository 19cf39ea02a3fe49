"""End-to-end acceptance checks, one criterion per test.

Each test prints a single pass/fail line (visible with ``pytest -s``); the
probability sums of every ensemble produced by criteria 1-7 are accumulated
and checked jointly by criterion 8.
"""
import math
import time

import numpy as np

from conftest import (
    aligned_spec,
    basis_state,
    condition_spec,
    density,
    purity,
    random_pure_state,
    random_spec,
    reachable_states,
    reduced_density,
)
from qswitch import (
    SwitchSpec,
    UnitaryPair,
    check_max_entanglement,
    concurrence,
    gme_concurrence,
    overlap,
    pauli,
    run,
    ry,
    superposed_input,
)
from qswitch.documents import parse_topology
from qswitch.netsim import map_entanglement, run_hierarchy
from qswitch.sweep import SweepPlan, default_plan, export, run_sweep

W_TARGET = 2.0 * math.sqrt(2.0) / 3.0
ALPHAS = [round(0.1 * k, 10) for k in range(11)]
PROB_SUMS: list[float] = []


def _report(num: int, name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}")
    assert ok, f"criterion {num} ({name}) failed"


def _pair(lam: float) -> UnitaryPair:
    return UnitaryPair(pauli("z"), ry(2.0 * lam))


def _run_logged(spec: SwitchSpec):
    r = run(spec)
    PROB_SUMS.append(sum(r.probability.tolist()))
    return r


def test_criterion_1_bell_ridge():
    ok = True
    for alpha in ALPHAS:
        ens = _run_logged(SwitchSpec("bell", [_pair(math.pi / 4)] * 2,
                                     [superposed_input(alpha)] * 2))
        ok &= abs(concurrence(density(ens.states[ens.labels.index("+")])) - 1.0) <= 1e-9
        for lam in (0.0, math.pi / 2):
            edge = _run_logged(SwitchSpec("bell", [_pair(lam)] * 2,
                                          [superposed_input(alpha)] * 2))
            ok &= concurrence(density(edge.states[edge.labels.index("+")])) <= 1e-9
    _report(1, "Bell ridge: plus branch maximal at lambda=pi/4, zero at edges", ok)


def test_criterion_2_bell_minus_plateau():
    ok = True
    for lam in [k * math.pi / 16 for k in range(1, 8)]:
        for alpha in ALPHAS[1:-1]:
            ens = _run_logged(SwitchSpec("bell", [_pair(lam)] * 2,
                                         [superposed_input(alpha)] * 2))
            minus = ens.labels.index("-")
            ok &= ens.reachable[minus]
            ok &= abs(concurrence(density(ens.states[minus])) - 1.0) <= 1e-9
    for lam in (0.0, math.pi / 2):
        ens = _run_logged(SwitchSpec("bell", [_pair(lam)] * 2,
                                     [superposed_input(0.5)] * 2))
        ok &= not ens.reachable[ens.labels.index("-")]
    _report(2, "Bell minus-branch plateau on (0, pi/2), unreachable at edges", ok)


def test_criterion_3_overlap_closed_form():
    ok = True
    for lam in np.linspace(0.0, math.pi / 2, 33):
        values = [overlap(_pair(lam), superposed_input(alpha)) for alpha in ALPHAS]
        ok &= all(abs(v - math.cos(2.0 * lam)) <= 1e-12 for v in values)
        ok &= max(abs(v - values[0]) for v in values) <= 1e-12
    _report(3, "per-qubit overlap equals cos(2 lambda), alpha independent", ok)


def test_criterion_4_ghz_surface():
    ok = True
    for alpha in ALPHAS:
        ens = _run_logged(SwitchSpec("ghz", [_pair(math.pi / 4)] * 3,
                                     [superposed_input(alpha)] * 3))
        for psi in reachable_states(ens):
            ok &= abs(gme_concurrence(psi).value - 1.0) <= 1e-9
        for lam in (0.0, math.pi / 2):
            edge = _run_logged(SwitchSpec("ghz", [_pair(lam)] * 3,
                                          [superposed_input(alpha)] * 3))
            for psi in reachable_states(edge):
                ok &= gme_concurrence(psi).value <= 1e-9
    _report(4, "GHZ surface: unit GME at lambda=pi/4, zero at edges", ok)


def test_criterion_5_w_surface():
    ens = _run_logged(SwitchSpec("w", [_pair(math.pi / 4)] * 3,
                                 [superposed_input(0.5)] * 3))
    ok = len(ens.labels) == 4
    for live, psi in zip(ens.reachable, ens.states):
        ok &= live
        ok &= abs(gme_concurrence(psi).value - W_TARGET) <= 1e-9
    for lam in (0.0, math.pi / 2):
        edge = _run_logged(SwitchSpec("w", [_pair(lam)] * 3,
                                      [superposed_input(0.5)] * 3))
        for psi in reachable_states(edge):
            ok &= gme_concurrence(psi).value <= 1e-9
    _report(5, "W surface: all four outcomes at 2*sqrt(2)/3, zero at edges", ok)


def _outcome_metric(protocol: str, state: np.ndarray) -> float:
    if protocol == "bell":
        return concurrence(density(state))
    return gme_concurrence(state).value


def test_criterion_6_theorem_equivalence(rng):
    counterexamples = 0
    for protocol, n in (("bell", 2), ("ghz", 3), ("ghz", 4), ("w", 3)):
        target = W_TARGET if protocol == "w" else 1.0
        specs = [condition_spec(rng, protocol, n) for _ in range(100)]
        specs += [random_spec(rng, protocol, n) for _ in range(100)]
        for spec in specs:
            condition = check_max_entanglement(spec).all_orthogonal
            values = [
                _outcome_metric(protocol, psi)
                for psi in reachable_states(_run_logged(spec))
            ]
            maximal = all(abs(v - target) <= 1e-6 for v in values)
            if condition != maximal:
                counterexamples += 1
    _report(6, "theorem equivalence: condition iff maximal metric, 800 specs",
            counterexamples == 0)


def test_criterion_7_separability_propositions(rng):
    ok = True
    # sufficiency: an aligned qubit forces a pure marginal at that cut
    for protocol, n in (("bell", 2), ("ghz", 3), ("w", 3)):
        for _ in range(20):
            qubit = int(rng.integers(n))
            spec = aligned_spec(rng, protocol, n, aligned_qubit=qubit)
            ok &= check_max_entanglement(spec).any_aligned
            for psi in reachable_states(_run_logged(spec)):
                ok &= purity(reduced_density(psi, [qubit])) > 1.0 - 1e-9
    # necessity by contrapositive: no aligned qubit, no biseparable outcome
    violations = 0
    for protocol, n in (("bell", 2), ("ghz", 3), ("ghz", 4), ("w", 3)):
        for _ in range(250):
            spec = random_spec(rng, protocol, n)
            if check_max_entanglement(spec).any_aligned:
                continue
            for psi in reachable_states(_run_logged(spec)):
                for q in range(n):
                    if purity(reduced_density(psi, [q])) > 1.0 - 1e-9:
                        violations += 1
    _report(7, "aligned qubit iff biseparable outcome, 1000 random specs",
            ok and violations == 0)


def test_criterion_8_probability_conservation():
    worst = max(abs(s - 1.0) for s in PROB_SUMS)
    _report(8, f"probabilities sum to 1 across {len(PROB_SUMS)} runs",
            worst <= 1e-10)


def test_criterion_9_ghz9_hierarchy():
    topo = parse_topology({
        "entanglers": [{"id": f"e{k}", "clients": 3} for k in (1, 2, 3)],
        "alpha": 0.5,
    })
    start = time.perf_counter()
    r = run_hierarchy(topo)
    elapsed = time.perf_counter() - start
    ok = bool(r.reachable.all() and np.all(r.fidelity >= 1.0 - 1e-9))
    ok &= elapsed < 10.0
    _report(9, f"GHZ9 hierarchy: every branch faithful ({elapsed:.2f}s)", ok)


def test_criterion_10_entanglement_mapping():
    pairs = [_pair(math.pi / 4)] * 3
    inputs = [superposed_input(0.5)] * 3
    ghz3 = (basis_state(3, 0) + basis_state(3, 7)) / math.sqrt(2.0)
    mapped = map_entanglement(ghz3, pairs, inputs)
    ok = len(mapped) == 8
    ok &= all(b.reachable and b.ghz_fidelity >= 1.0 - 1e-9 for b in mapped)
    for b in map_entanglement(basis_state(3, 0), pairs, inputs):
        if b.reachable:
            ok &= all(
                purity(reduced_density(b.client_state, [q])) > 1.0 - 1e-9
                for q in range(3)
            )
    _report(10, "control-driven mapping: GHZ control faithful, product control separable", ok)


def test_criterion_11_concurrence_oracle(rng):
    worst = 0.0
    for _ in range(500):
        psi = random_pure_state(rng, 2)
        rho_a = reduced_density(psi, [0])
        oracle = math.sqrt(max(2.0 * (1.0 - purity(rho_a)), 0.0))
        worst = max(worst, abs(concurrence(density(psi)) - oracle))
    _report(11, f"pure-state concurrence oracle, 500 states (worst {worst:.2e})",
            worst < 1e-9)


def test_criterion_12_golden_sweep_regression(tmp_path):
    ok = True
    for protocol, n in (("bell", 2), ("ghz", 3), ("w", 3)):
        plan = default_plan(protocol, n, lambda_steps=33, alpha_steps=33)
        blobs = []
        for tag in ("a", "b"):
            path = tmp_path / f"{protocol}-{tag}.csv"
            export(run_sweep(plan), "csv", str(path))
            blobs.append(path.read_bytes())
        # each lambda swept on its own must give the same rows: no row depends on the grid
        rows, one = [], tmp_path / f"{protocol}-one.csv"
        for lam in plan.lambda_grid:
            export(run_sweep(SweepPlan(protocol, n, [lam], plan.alpha_grid)), "csv", str(one))
            rows += one.read_bytes().splitlines()[1:]
        ok &= blobs[0] == blobs[1] and blobs[0].splitlines()[1:] == rows
    _report(12, "33x33 sweeps byte-identical across reruns and one-lambda plans", ok)
