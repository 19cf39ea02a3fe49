import dataclasses
import json
import math
import re

import numpy as np
import pytest

import qswitch.sweep as sweep

from conftest import density, empty_table, kron_all, load_csv, random_pure_state, sweep_rows
from qswitch import SwitchSpec, UnitaryPair, pauli, run, ry, superposed_input
from qswitch.metrics import concurrence, gme_concurrence, pure_concurrence, pure_gme_concurrence
from qswitch.switch import MAX_QUBITS, _end_vectors
from qswitch.sweep import MAX_SWEEP_POINTS, SweepPlan, default_plan, export, run_sweep


def small_plan(protocol, n):
    return default_plan(protocol, n, lambda_steps=9, alpha_steps=5)


def test_plan_validation():
    with pytest.raises(ValueError):
        SweepPlan("bell", 2, [], [0.0, 1.0])
    with pytest.raises(ValueError):
        SweepPlan("bell", 2, [0.3, 0.2], [0.0, 1.0])
    with pytest.raises(ValueError):
        SweepPlan("bell", 2, [0.0, 2.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        SweepPlan("bell", 2, [0.0, 1.0], [0.0, 1.5])
    with pytest.raises(ValueError):
        SweepPlan("bell", 2, [0.0, 0.5], [-1e-13, 0.5])
    with pytest.raises(ValueError):
        SweepPlan("bell", 2, [math.nan], [0.5])
    for n in (3.0, True):  # a float would reach the engine, and True read as n = 1
        with pytest.raises(ValueError, match=f"^qubit count must be an integer, got {n}$"):
            SweepPlan("ghz", n, [0.0, 0.5], [0.0, 1.0])
    # the plan is a snapshot: its checks cannot be got round after construction
    lambdas, alphas = [0.0, 0.5], [0.0, 1.0]
    plan = SweepPlan("ghz", 3, lambdas, alphas)
    lambdas.append(100.0)
    alphas[0] = -1.0
    assert plan.lambda_grid == (0.0, 0.5) and plan.alpha_grid == (0.0, 1.0)
    for field, value in (("n", 14), ("protocol", "nope"), ("lambda_grid", (0.0, 100.0))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(plan, field, value)
    assert isinstance(default_plan("w", 3, 3, 2).lambda_grid, tuple)


@pytest.mark.parametrize("protocol,n,message", [
    ("nope", 3, "unknown protocol 'nope'"),
    ("w", 2, "w protocol requires at least 3 qubits"),
    ("ghz", 1, "ghz protocol requires at least 2 qubits"),
    ("ghz", MAX_QUBITS + 2, f"state has {MAX_QUBITS + 2} qubits, cap is {MAX_QUBITS}"),
    ("bell", 5, "bell protocol requires exactly 2 qubits"),
])
def test_plan_checks_protocol_like_spec(protocol, n, message):
    match = f"^{re.escape(message)}$"
    eta, pair = superposed_input(0.5), UnitaryPair(pauli("z"), ry(math.pi / 2))
    if n > MAX_QUBITS:  # a valid plan and spec: the engine refuses the width when they run
        plan = SweepPlan(protocol, n, [0.0, 1.0], [0.0, 1.0])
        for call, arg in ((run_sweep, plan), (run, SwitchSpec(protocol, [pair] * n, [eta] * n))):
            with pytest.raises(ValueError, match=match):
                call(arg)
        return
    with pytest.raises(ValueError, match=match):
        SweepPlan(protocol, n, [0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError, match=match):
        SwitchSpec(protocol, [pair] * n, [eta] * n)


def test_grid_cap_checked_before_allocation(monkeypatch):
    assert MAX_SWEEP_POINTS == 256 * 256
    default_plan("w", 3, 256, 256)
    monkeypatch.setattr(np, "linspace", None)  # the cap must come first
    with pytest.raises(ValueError, match="cap is 65536"):
        default_plan("w", 3, 257, 256)
    with pytest.raises(ValueError, match="cap is 65536"):
        default_plan("bell", 2, 10**5, 10**5)
    with pytest.raises(ValueError, match="cap is 65536"):
        SweepPlan("bell", 2, [0.0] * 257, [0.0] * 256)
    for steps, axis in (((0, 5), "lambda"), ((5, 0), "alpha"), ((-2, -2), "lambda"),
                        ((-300, -300), "lambda")):
        message = f"^{axis} step count must be at least 1, got {min(steps)}$"
        with pytest.raises(ValueError, match=message):
            default_plan("bell", 2, *steps)


def test_record_count_and_order():
    plan = small_plan("w", 3)
    table = run_sweep(plan)
    assert len(table) == 9 * 5 * 4  # lambda x alpha x outcome
    keys = [(r.lam, r.alpha, r.outcome) for r in sweep_rows(table)]
    assert keys == sorted(keys)


def test_ridge_alpha_independent():
    plan = SweepPlan("ghz", 3, [math.pi / 4], list(np.linspace(0, 1, 7)))
    for r in sweep_rows(run_sweep(plan)):
        assert r.reachable
        assert abs(r.metric_value - 1.0) <= 1e-9


def test_edges_separable():
    plan = SweepPlan("bell", 2, [0.0, math.pi / 2], list(np.linspace(0, 1, 5)))
    for r in sweep_rows(run_sweep(plan)):
        if r.reachable:
            assert r.metric_value <= 1e-9
        else:
            assert r.metric_value is None


def test_plus_branch_symmetry():
    lams = [math.pi / 8, math.pi / 4, 3 * math.pi / 8]
    plan = SweepPlan("bell", 2, lams, [0.3])
    by_lam = {
        round(r.lam, 12): r.metric_value
        for r in sweep_rows(run_sweep(plan))
        if r.outcome == "+"
    }
    assert abs(by_lam[round(math.pi / 8, 12)] - by_lam[round(3 * math.pi / 8, 12)]) <= 1e-9


def test_export_empty_csv(tmp_path):
    path = tmp_path / "empty.csv"
    export(empty_table(), "csv", str(path))
    assert path.read_text() == "lambda,alpha,outcome,probability,metric,reachable\n"


def test_export_json_round_trip(tmp_path):
    plan = small_plan("bell", 2)
    table = run_sweep(plan)
    path = tmp_path / "out.json"
    export(table, "json", str(path))
    docs = json.loads(path.read_text())
    assert len(docs) == len(table)
    for doc, rec in zip(docs, sweep_rows(table)):
        assert abs(doc["lambda"] - rec.lam) <= 1e-11
        assert doc["reachable"] == rec.reachable


def test_export_csv_round_trip(tmp_path):
    plan = small_plan("ghz", 3)
    table = run_sweep(plan)
    path = tmp_path / "out.csv"
    export(table, "csv", str(path))
    loaded = load_csv(str(path))
    for a, b in zip(loaded, sweep_rows(table)):
        assert a.outcome == b.outcome and a.reachable == b.reachable
        assert abs(a.lam - b.lam) <= 1e-11
        if b.metric_value is not None:
            assert abs(a.metric_value - b.metric_value) <= 1e-11


def test_rerun_determinism(tmp_path):
    plan = small_plan("bell", 2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export(run_sweep(plan), "csv", str(p1))
    export(run_sweep(plan), "csv", str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    fresh = run_sweep(plan)
    reloaded = load_csv(str(p1))
    deltas = [
        abs(a.metric_value - b.metric_value)
        for a, b in zip(reloaded, sweep_rows(fresh))
        if b.metric_value is not None
    ]
    assert max(deltas) < 1e-11


def test_grid_shape_invariance(tmp_path):
    plan = small_plan("w", 3)
    full, one = tmp_path / "full.csv", tmp_path / "one.csv"
    export(run_sweep(plan), "csv", str(full))
    rows = []
    for lam in plan.lambda_grid:
        export(run_sweep(SweepPlan("w", 3, [lam], plan.alpha_grid)), "csv", str(one))
        rows += one.read_bytes().splitlines()[1:]
    assert full.read_bytes().splitlines()[1:] == rows
    assert len(rows) == 9 * 5 * 4


def _row_texts(path, fmt):
    """The text of each row of a sweep file, without the header or the list's brackets."""
    text = path.read_bytes().decode()  # not read_text, which would turn CSV's "\r\n" into "\n"
    if fmt == "csv":
        return text.splitlines(keepends=True)[1:]
    assert text.startswith("[\n") and text.endswith("\n]\n")
    return (text[2:-3] + ",\n").split("},\n")[:-1]


@pytest.mark.parametrize("protocol,n", [("bell", 2), ("ghz", 3), ("w", 3), ("ghz", 4)])
def test_a_point_gives_the_same_bytes_in_any_plan(tmp_path, protocol, n):
    """The README's determinism promise on the CLI's 33 x 33 grid: a point's rows are the same
    bytes in the full grid, in its one-lambda plan and in a plan of that point alone."""
    plan, path = default_plan(protocol, n), tmp_path / "rows"
    table = run_sweep(plan)
    lines = [run_sweep(SweepPlan(protocol, n, [lam], plan.alpha_grid)) for lam in plan.lambda_grid]
    points = range(0, 33 * 33, 34)  # 33 points: every alpha once, across the lambdas
    alone = [run_sweep(SweepPlan(protocol, n, [plan.lambda_grid[point // 33]],
                                 [plan.alpha_grid[point % 33]])) for point in points]
    labels = len(table.labels)
    for fmt in ("csv", "json"):
        export(table, fmt, str(path))
        full = _row_texts(path, fmt)
        assert len(full) == len(table) == 33 * 33 * labels
        rows = []
        for line in lines:
            export(line, fmt, str(path))
            rows += _row_texts(path, fmt)
        assert rows == full
        for point, one in zip(points, alone):
            export(one, fmt, str(path))
            assert _row_texts(path, fmt) == full[point * labels:(point + 1) * labels]


def test_export_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        export(empty_table(), "yaml", str(tmp_path / "x"))


def test_export_io_error(tmp_path):
    with pytest.raises(OSError):
        export(empty_table(), "csv", str(tmp_path / "missing" / "x.csv"))


@pytest.mark.parametrize("protocol,n", [("bell", 2), ("ghz", 3), ("w", 3), ("ghz", 4)])
def test_batched_sweep_matches_per_point_reference(protocol, n):
    plan = default_plan(protocol, n, lambda_steps=9, alpha_steps=7)
    assert {0.0, math.pi / 2} <= set(plan.lambda_grid)
    assert abs(plan.lambda_grid[4] - math.pi / 4) <= 1e-15
    assert {0.0, 1.0} <= set(plan.alpha_grid)
    reference = []
    for lam in plan.lambda_grid:
        pair = UnitaryPair(pauli("z"), ry(2.0 * lam))
        for alpha in plan.alpha_grid:
            spec = SwitchSpec(protocol, [pair] * n, [superposed_input(alpha)] * n)
            r = run(spec)
            for label, p, live, psi in zip(r.labels, r.probability.tolist(),
                                           r.reachable.tolist(), r.states):
                if not live:
                    value = None
                elif protocol == "bell":
                    value = concurrence(density(psi))
                else:
                    value = gme_concurrence(psi).value
                reference.append((lam, alpha, label, p, value))
    table = run_sweep(plan)
    assert len(table) == len(reference)
    for r, (lam, alpha, label, p, value) in zip(sweep_rows(table), reference):
        assert (r.lam, r.alpha, r.outcome) == (lam, alpha, label)
        assert abs(r.probability - p) <= 1e-12
        assert r.reachable == (value is not None)
        if value is None:
            assert r.metric_value is None
        else:
            assert abs(r.metric_value - value) <= 1e-10


@pytest.mark.parametrize("protocol,n", [("bell", 2), ("w", 3), ("ghz", 4)])
def test_stacked_order_images_match_per_point_end_vectors(monkeypatch, protocol, n):
    seen, readout = [], sweep.branch_readout

    def spy(plan, ends):
        seen.append(ends)
        return readout(plan, ends)

    monkeypatch.setattr(sweep, "branch_readout", spy)
    plan = default_plan(protocol, n, lambda_steps=9, alpha_steps=7)
    run_sweep(plan)
    (ends,) = seen
    assert ends.shape == (9, 7, n, 2, 2)
    for i, lam in enumerate(plan.lambda_grid):
        pair = UnitaryPair(pauli("z"), ry(2.0 * lam))
        for j, alpha in enumerate(plan.alpha_grid):
            expected = _end_vectors([pair] * n, [superposed_input(alpha)] * n)
            assert np.array_equal(ends[i, j], expected)


def test_batched_grid_inputs_match_scalar_forms(rng):
    angles = rng.uniform(-10.0, 10.0, size=(4, 5))
    stacked = ry(angles)
    assert stacked.shape == (4, 5, 2, 2)
    assert all(np.array_equal(stacked[i, j], ry(float(angles[i, j])))
               for i in range(4) for j in range(5))
    alphas = np.linspace(0.0, 1.0, 11)
    etas = superposed_input(alphas)
    assert etas.shape == (11, 2)
    assert all(np.array_equal(etas[k], superposed_input(float(a))) for k, a in enumerate(alphas))
    with pytest.raises(ValueError):
        superposed_input([0.5, 1.0 + 1e-9])


def test_batched_metrics_match_mixed_state_paths(rng):
    two = np.array([random_pure_state(rng, 2) for _ in range(100)])
    three = np.array([random_pure_state(rng, 3) for _ in range(50)])
    four = np.array([random_pure_state(rng, 4) for _ in range(50)])
    c = pure_concurrence(two)
    assert c.shape == (100,)
    assert np.max(np.abs(c - [concurrence(density(s)) for s in two])) <= 1e-10
    assert np.array_equal(pure_concurrence(two.reshape(10, 10, 4)), c.reshape(10, 10))
    for states in (three, four):
        g = pure_gme_concurrence(states)
        assert np.max(np.abs(g - [gme_concurrence(s).value for s in states])) <= 1e-12
        assert np.array_equal(pure_gme_concurrence(states.reshape(5, 10, -1)), g.reshape(5, 10))
    products = [kron_all([random_pure_state(rng, 1) for _ in range(k)]) for k in (2, 2, 3, 4)]
    assert pure_concurrence(np.array(products[:2])).tolist() == [0.0, 0.0]
    assert [float(pure_gme_concurrence(s)) for s in products] == [0.0] * 4


def test_batched_metrics_reject_values_beyond_slack():
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
    ghz = np.zeros(8, dtype=complex)
    ghz[[0, 7]] = 1.0 / math.sqrt(2.0)
    with pytest.raises(ValueError):
        pure_concurrence(np.array([bell, 2.0 * bell]))
    with pytest.raises(ValueError):
        pure_gme_concurrence(np.array([ghz, 0.5 * ghz]))
    assert pure_concurrence(bell * (1.0 + 1e-10)) == 1.0  # within slack: clipped
