"""The emitted documents are byte-identical to json.dumps / csv.writer output."""
import io
import json
import math

import numpy as np
import pytest

from conftest import (
    NAN_PAYLOADS,
    empty_table,
    haar_unitary,
    random_pure_state,
    reference_branches_text,
    reference_ensemble_text,
    reference_export,
    reference_verify_text,
)
from qswitch import Readout, emit, netsim, run
from qswitch import verify as verify_mod
from qswitch.cli import EXIT_OK, main
from qswitch.documents import parse_spec, parse_topology
from qswitch.sweep import SweepTable, default_plan, export, run_sweep
from qswitch.switch import UNREACHABLE_TOL

PAIR = {"u": "pauli_z", "u_tilde": f"ry({math.pi / 2!r})"}


def _literal(m):
    rows = ("[" + ",".join(f"{float(z.real)!r}{float(z.imag):+}i" for z in row) + "]" for row in m)
    return "matrix([" + ",".join(rows) + "])"


def _haar_doc(seed, protocol, n, strings=False, aligned=None):
    """A spec of Haar gates and inputs, the amplitudes as [re, im] pairs or, with
    ``strings``, as "a+bi" literals; qubit ``aligned`` gets commuting gates u, u @ u,
    so that both of its orders coincide."""
    rng = np.random.default_rng(seed)
    pairs = [{"u": _literal(haar_unitary(rng)), "u_tilde": _literal(haar_unitary(rng))}
             for _ in range(n)]
    if aligned is not None:
        u = haar_unitary(rng)
        pairs[aligned] = {"u": _literal(u), "u_tilde": _literal(u @ u)}
    amplitudes = [[f"{float(z.real)!r}{float(z.imag):+}i" if strings
                   else [float(z.real), float(z.imag)] for z in random_pure_state(rng, 1)]
                  for _ in range(n)]
    return {"version": 1, "protocol": protocol, "n": n, "pairs": pairs,
            "input": {"amplitudes": amplitudes}}


RUN_DOCS = {
    **{f"{p}{n}": {"version": 1, "protocol": p, "n": n, "pairs": [PAIR], "input": {"alpha": 0.5}}
       for p in ("ghz", "w") for n in range(2 if p == "ghz" else 3, 13)},
    "bell": {"version": 1, "protocol": "bell", "pairs": [PAIR] * 2, "input": {"alpha": 0.5}},
    "bell-unreachable": {"version": 1, "protocol": "bell",
                         "pairs": [{"u": "pauli_z", "u_tilde": "pauli_z"}] * 2,
                         "input": {"alpha": 0.5}},
    **{f"haar-{p}{n}": _haar_doc(seed, p, n)
       for seed, (p, n) in enumerate([("bell", 2), ("ghz", 3), ("w", 3), ("ghz", 6),
                                      ("w", 7), ("ghz", 9)])},
}


def assert_same_text(text, reference):
    """Equal texts; a mismatch names its first offset (pytest's diff of megabytes stalls)."""
    if text != reference:
        at = next((i for i, (a, b) in enumerate(zip(text, reference)) if a != b),
                  min(len(text), len(reference)))
        lo = max(at - 40, 0)
        pytest.fail(f"texts differ at offset {at} (lengths {len(text)}, {len(reference)}): "
                    f"{text[lo:at + 40]!r} != {reference[lo:at + 40]!r}")


def _stdout(capsys, argv):
    assert main(argv) == EXIT_OK
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(RUN_DOCS))
def test_run_stdout_matches_json_dumps(tmp_path, capsys, name):
    doc = RUN_DOCS[name]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    readout = run(parse_spec(doc))
    if name == "bell-unreachable":
        assert not readout.reachable.all()
    out = _stdout(capsys, ["run", "--spec", str(path)])
    assert_same_text(out, reference_ensemble_text(readout))


VERIFY_DOCS = {
    **{name: {"protocol": p, "n": n, "pairs": [PAIR], "input": {"alpha": 0.5}}
       for name, p, n in (("bell", "bell", 2), ("ghz3", "ghz", 3), ("w3", "w", 3))},
    # qubit 1's gates commute, so both of its orders coincide
    "aligned-ghz3": {"protocol": "ghz", "pairs": [PAIR, {"u": "pauli_z", "u_tilde": "identity"},
                                                   PAIR]},
    # every pair commutes: only the "+" outcome is reachable
    "commuting-ghz3": {"protocol": "ghz", "n": 3,
                       "pairs": [{"u": "pauli_z", "u_tilde": "pauli_z"}]},
    "haar-ghz3": _haar_doc(11, "ghz", 3),
    "haar-w3": _haar_doc(12, "w", 3),
    # the three spec families of the verify benchmark: Haar, generic with
    # "a+bi" amplitudes, and one aligned qubit among Haar ones
    "haar-bell": _haar_doc(13, "bell", 2),
    "generic-ghz3": _haar_doc(14, "ghz", 3, strings=True),
    "aligned-haar-w3": _haar_doc(15, "w", 3, aligned=1),
}


@pytest.mark.parametrize("tol", [None, 0.3])
@pytest.mark.parametrize("name", sorted(VERIFY_DOCS))
def test_verify_stdout_matches_json_dumps(tmp_path, capsys, name, tol):
    doc = VERIFY_DOCS[name]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    spec = parse_spec(doc)
    argv = ["verify", "--spec", str(path)] + ([] if tol is None else ["--tol", str(tol)])
    out = _stdout(capsys, argv)
    assert_same_text(out, reference_verify_text(spec, tol or verify_mod.CONDITION_TOL))
    report = json.loads(out)
    assert ("outcome_classes" in report) == (spec.n == 3)
    if tol is None:
        assert report["separable"] == name.startswith(("aligned", "commuting"))
    if name == "commuting-ghz3":
        assert list(report["outcome_classes"]) == ["+"]


@pytest.mark.parametrize("name", ["bell", "ghz3", "w3", "commuting-ghz3"])
def test_verify_stdout_with_signed_zero_overlap_parts(tmp_path, capsys, monkeypatch, name):
    # np.vdot never returns a negative zero here, so every zero part is made one
    overlaps = verify_mod._overlaps
    monkeypatch.setattr(verify_mod, "_overlaps", lambda ends: tuple(
        complex(z.real or -0.0, z.imag or -0.0) for z in overlaps(ends)))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(VERIFY_DOCS[name]))
    out = _stdout(capsys, ["verify", "--spec", str(path)])
    assert "-0.0" in out
    assert_same_text(out, reference_verify_text(parse_spec(VERIFY_DOCS[name])))


# the topology shapes of the network benchmark
@pytest.mark.parametrize("m,k,control", [
    (3, 3, "ghz"), (2, 5, "ghz"), (2, 4, "ghz"), (3, 3, "plus_product"), (4, 2, "plus_product"),
])
@pytest.mark.parametrize("report", ["branches", "summary"])
def test_netsim_stdout_matches_json_dumps(tmp_path, capsys, m, k, control, report):
    doc = {"entanglers": [{"id": f"e{j + 1}", "clients": k} for j in range(m)],
           "gates": PAIR, "alpha": 0.5, "control": control}
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(doc))
    out = _stdout(capsys, ["netsim", "--topology", str(path), "--report", report])
    r = netsim.run_hierarchy(parse_topology(doc))
    if report == "branches":
        assert_same_text(out, reference_branches_text(r))
    else:
        reachable = [i for i, live in enumerate(r.reachable.tolist()) if live]
        summary = {
            "clients": m * k, "entanglers": m, "branches": len(r.labels),
            "reachable_branches": len(reachable),
            "min_ghz_fidelity": float(format(min(float(r.fidelity[i]) for i in reachable), ".12g")),
            "total_probability": float(format(sum(float(p) for p in r.probability), ".12g")),
        }
        assert out == json.dumps(summary, indent=2, sort_keys=True) + "\n"


# values whose text is easy to get wrong: signed zero, exponents, subnormals,
# repeats, and probabilities on both sides of the reachability threshold
EDGE = np.array([-0.0, 0.0, 1.0, -1.0, 1e-05, 1e+16, 5e-324, -5e-324, 0.1 + 0.2, 1 / 3,
                 123456789012.5, 1e-12, 9.99999999999e-13, math.nan, math.inf, -math.inf,
                 UNREACHABLE_TOL, UNREACHABLE_TOL * (1 - 1e-15), 2.0 ** -0.5, -0.0])


def _edge_states(rng):
    """One state per EDGE value, each holding every EDGE value as real and imaginary part."""
    for shift in range(len(EDGE)):
        state = np.empty(len(EDGE), dtype=complex)
        state.real, state.imag = np.roll(EDGE, shift), rng.permutation(EDGE)
        yield state


def _readout(rows, fidelity=None):
    """A ``switch.Readout`` of (label, probability, state) rows: a row with a state is
    reachable, its state cycled to the width of the widest (a stack has one width), and a
    row whose state is None is unreachable, a zero row in the stack; ``fidelity``, if
    given, is the fidelity column."""
    width = max((len(psi) for _, _, psi in rows if psi is not None), default=1)
    states = np.zeros((len(rows), width), dtype=complex)
    for i, (_, _, psi) in enumerate(rows):
        if psi is not None:
            states[i] = np.resize(psi, width)
    return Readout(tuple(k for k, _, _ in rows), np.array([p for _, p, _ in rows], dtype=float),
                   np.array([psi is not None for _, _, psi in rows], dtype=bool), states,
                   None if fidelity is None else np.array(fidelity, dtype=float))


def test_edge_values_match_json_dumps(rng):
    rows = [("+" * (i + 1), float(p), state)
            for i, (p, state) in enumerate(zip(EDGE, _edge_states(rng)))]
    rows += [("-", UNREACHABLE_TOL * (1 - 1e-15), None), ("--", -0.0, None)]
    out = io.StringIO()
    emit.write_readout(_readout(rows), out)
    assert_same_text(out.getvalue(), reference_ensemble_text(_readout(rows)))

    rows = [(f"+{i}", float(p), state) for i, (p, state) in enumerate(zip(EDGE, _edge_states(rng)))]
    rows.append(("--", 5e-324, None))
    branches = _readout(rows, [float(EDGE[-1 - i]) for i in range(len(EDGE))] + [0.0])
    assert_same_text(_branches_text(branches), reference_branches_text(branches))


def test_empty_documents_match_json_dumps(tmp_path):
    out = io.StringIO()
    emit.write_readout(_readout([]), out)
    assert out.getvalue() == reference_ensemble_text(_readout([]))
    for fmt in ("csv", "json"):
        export(empty_table(), fmt, str(tmp_path / "new"))
        reference_export(empty_table(), fmt, str(tmp_path / "old"))
        assert_same_text((tmp_path / "new").read_bytes(), (tmp_path / "old").read_bytes())


def _distinct_patterns(values):
    return len(set(np.ascontiguousarray(values, dtype=float).reshape(-1).view(np.int64).tolist()))


def _count_json_texts(monkeypatch):
    """The values handed to the JSON batch formatter, one entry per value formatted."""
    calls = []
    json_texts = emit._json_texts
    monkeypatch.setattr(emit, "_json_texts", lambda values, after="": (
        calls.extend(values.tolist()) or json_texts(values, after)))
    return calls


def _json_text(x):
    """The JSON text of ``x`` rounded to 12 significant digits, one value at a time."""
    return json.dumps(emit.round12(x))


def test_states_of_a_document_format_each_distinct_part_once(monkeypatch):
    calls = _count_json_texts(monkeypatch)
    readout = run(parse_spec(RUN_DOCS["w11"]))
    emit.write_readout(readout, io.StringIO())
    states = readout.states[readout.reachable].view(float)
    assert len(states) == 16
    assert len(calls) <= (_distinct_patterns(states) + _distinct_patterns(readout.probability))

    calls.clear()
    topology = {"entanglers": [{"id": f"e{j + 1}", "clients": 2} for j in range(4)],
                "gates": PAIR, "alpha": 0.5, "control": "plus_product"}
    r = netsim.run_hierarchy(parse_topology(topology))
    _branches_text(r)
    assert r.reachable.sum() == 16
    # the fidelities are a column of their own, formatted once per distinct value
    assert len(calls) <= (_distinct_patterns(r.states[r.reachable].view(float))
                          + _distinct_patterns(r.probability)
                          + _distinct_patterns(r.fidelity[r.reachable]))


def _ensemble_text(rows):
    out = io.StringIO()
    emit.write_readout(_readout(rows), out)
    return out.getvalue()


def _branches_text(readout):
    out = io.StringIO()
    emit.write_readout(readout, out)
    return out.getvalue()


def test_states_of_mixed_lengths_and_shared_parts_match_json_dumps(rng):
    def state(size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    # reachable states of 1, 2 and 8 amplitudes, with unreachable outcomes between them;
    # a document's states have one width, so each state is cycled to 1, 2 and 8 in turn
    b, d, e = state(1), state(2), state(8)
    for size in (1, 2, 8):
        rows = [("a", 0.0, None), ("b", 0.25, np.resize(b, size)), ("c", 0.0, None),
                ("d", 0.5, np.resize(d, size)), ("e", 0.25, np.resize(e, size)), ("f", 0.0, None)]
        assert_same_text(_ensemble_text(rows), reference_ensemble_text(_readout(rows)))
        branches = _readout(rows, [1.0 - p if psi is not None else 0.0 for _, p, psi in rows])
        assert_same_text(_branches_text(branches), reference_branches_text(branches))

    # every state the same; every part a negative zero
    same = state(4)
    rows = [("+" * (i + 1), 0.25, same.copy()) for i in range(4)]
    rows.append(("-0", 0.0, np.full(4, complex(-0.0, -0.0))))
    text = _ensemble_text(rows)
    assert text.count("-0.0") == 8
    assert_same_text(text, reference_ensemble_text(_readout(rows)))


def test_branch_documents_without_states_match_json_dumps():
    empty = _readout([], [])
    assert _branches_text(empty) == reference_branches_text(empty)
    branches = _readout([(f"+{i}", p, None) for i, p in enumerate([0.0, -0.0, 5e-324])],
                        [0.0] * 3)
    assert_same_text(_branches_text(branches), reference_branches_text(branches))


# the parts of the random documents: signed zeros, the smallest subnormal, a tiny normal,
# 2^-0.5 and two NaN payloads, so that states share parts in every position
PART_POOL = np.array([-0.0, 0.0, 5e-324, 1e-300, 2.0 ** -0.5] + NAN_PAYLOADS)


def test_random_documents_match_json_dumps():
    rng = np.random.default_rng(27)
    for _ in range(200):
        rows = []
        for i in range(int(rng.integers(0, 7))):  # reachable and unreachable rows mixed
            probability = float(rng.choice(PART_POOL[:5]))
            if rng.random() < 0.3:
                rows.append((f"o{i}", probability, None))
            else:
                size = int(rng.integers(1, 17))  # _readout cycles each state to the widest
                state = np.empty(size, dtype=complex)
                state.real, state.imag = rng.choice(PART_POOL, size), rng.choice(PART_POOL, size)
                rows.append((f"o{i}", probability, state))
        assert_same_text(_ensemble_text(rows), reference_ensemble_text(_readout(rows)))
        branches = _readout(rows, [float(rng.choice(PART_POOL[:5])) if psi is not None else 0.0
                                   for _, _, psi in rows])
        assert_same_text(_branches_text(branches), reference_branches_text(branches))


def test_one_part_in_every_block_of_the_table():
    # 0.125 is a real part, an imaginary part that is not the last, and a state's last part
    x = 0.125
    rows = [("+", 0.5, np.array([complex(x, x), complex(0.5, x)])),
            ("-", 0.5, np.array([complex(x, -0.0), complex(0.5, 0.5)])), ("0", 0.0, None)]
    text = _ensemble_text(rows)
    assert text.count("0.125") == 4
    assert_same_text(text, reference_ensemble_text(_readout(rows)))
    branches = _readout(rows, [x if psi is not None else 0.0 for _, _, psi in rows])
    assert_same_text(_branches_text(branches), reference_branches_text(branches))


@pytest.mark.parametrize("protocol,n", [("bell", 2), ("ghz", 3), ("w", 3), ("ghz", 4)])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_export_matches_csv_writer_and_json_dump(tmp_path, protocol, n, fmt):
    for steps in ((1, 1), (1, 7), (9, 1), (9, 7), (33, 33)):  # (lambda, alpha) grid shapes
        table = run_sweep(default_plan(protocol, n, *steps))
        # at lambda = 0 the gates commute: bell and ghz write unreachable rows, with no metric
        assert protocol == "w" or not table.reachable.all()
        export(table, fmt, str(tmp_path / "new"))
        reference_export(table, fmt, str(tmp_path / "old"))
        assert_same_text((tmp_path / "new").read_bytes(), (tmp_path / "old").read_bytes())


# signed zero, the smallest subnormal, a tiny normal and numbers that print in exponent form
EDGE_VALUES = [-0.0, 5e-324, 1e-300, 1e-05, 0.0, 2.5e-07, 1.0 / 3.0, 1e16, -1e-05, 1.0]


def _edge_table(lambdas, alphas, labels, reachable):
    """A hand-built sweep table whose columns cycle through ``EDGE_VALUES``."""
    shape = (len(lambdas), len(alphas), len(labels))
    size = math.prod(shape)
    values = np.resize(np.array(EDGE_VALUES), size).reshape(shape)
    metric = np.resize(np.array(EDGE_VALUES[::-1]), size).reshape(shape)
    return SweepTable(tuple(lambdas), tuple(alphas), list(labels), values, metric,
                      np.resize(np.array(reachable), size).reshape(shape))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("table", [
    # edge values in every number column, reachable and unreachable rows interleaved
    _edge_table([-0.0, 5e-324, 1e-05], [1e-300, 0.5], ["+", "-", "+-"], [True, False, True]),
    _edge_table([0.0, 1e-05], [-0.0, 1e-300, 1.0], ["+", "-"], [False]),  # every row unreachable
    _edge_table([0.1, 0.2, 0.3], [1e-05, 0.5], ["+"], [True, False]),  # a single outcome label
    _edge_table([5e-324], [1e-05], ["+", "-"], [True]),  # a 1x1 grid
    _edge_table([-0.0], [1e-300], ["w0"], [False]),  # one row, unreachable
    _edge_table([1e-05], [-0.0], ["w0"], [True]),  # one row, reachable
], ids=["edge-values", "all-unreachable", "one-label", "grid-1x1", "one-row-unreachable",
        "one-row-reachable"])
def test_sweep_export_matches_reference_on_hand_built_tables(tmp_path, fmt, table):
    export(table, fmt, str(tmp_path / "new"))
    reference_export(table, fmt, str(tmp_path / "old"))
    assert_same_text((tmp_path / "new").read_bytes(), (tmp_path / "old").read_bytes())


def test_default_sweep_json_formats_each_distinct_value_of_a_column_once(tmp_path, monkeypatch):
    calls = _count_json_texts(monkeypatch)
    table = run_sweep(default_plan("ghz", 4))
    export(table, "json", str(tmp_path / "ghz4.json"))
    columns = (table.lambda_grid, table.alpha_grid, table.probability, table.metric)
    assert 0 < len(calls) <= sum(map(_distinct_patterns, columns))


# -0.0 beside 0.0, both NaN payloads and the smallest subnormal: a table keyed by float value
# would print one zero for both
COLUMN_VALUES = np.array([-0.0, 0.0, 5e-324, 0.0, -0.0, 1.0 / 3.0] + NAN_PAYLOADS)


def _column_table(lambdas, alphas, labels, reachable):
    """A hand-built sweep table whose number columns cycle through ``COLUMN_VALUES``."""
    shape = (len(lambdas), len(alphas), len(labels))
    size = math.prod(shape)
    return SweepTable(tuple(lambdas), tuple(alphas), list(labels),
                      np.resize(COLUMN_VALUES, size).reshape(shape),
                      np.resize(COLUMN_VALUES[::-1], size).reshape(shape),
                      np.resize(np.array(reachable), size).reshape(shape))


@pytest.mark.parametrize("column", [
    COLUMN_VALUES, COLUMN_VALUES[::-1], np.array([0.0, -0.0, -0.0, 0.0]),
    np.array([True, False, False, True]), np.array([]),
], ids=["signed-zeros-and-nans", "reversed", "zeros", "bool", "empty"])
def test_column_texts_match_per_value_texts(column):
    for text, texts in ((_json_text, emit._json_texts), ("{:.12g}".format, emit._csv_texts),
                        (emit._bool, emit._bool_texts)):
        expected = [text(x) for x in column.astype(float).tolist()]
        assert emit._texts(column, lambda distinct: [text(x) for x in distinct.tolist()]) == expected
        assert emit._texts(column, texts) == expected


# every kind of float a column can hold, values that round up a decade or sit where %g
# switches notation, and 1000 seeded values over many decades
FORMAT_VALUES = np.concatenate([
    [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, math.inf, -math.inf], NAN_PAYLOADS,
    [1.7976931348623157e308, 9.9999999999995, 0.99999999999995, 999999999999.5, 1e12, 1e-5,
     1e-4, 123456789012.5, 2.0**-0.5],
    np.random.default_rng(5).standard_normal(1000)
    * 10.0 ** np.random.default_rng(6).integers(-30, 30, 1000)])


@pytest.mark.parametrize("after", ["", ",", "\r\n", emit._JSON_AFTER["metric"], "%s%%"])
def test_batch_formatters_match_per_value_formats(after):
    values = FORMAT_VALUES.tolist()
    assert emit._csv_texts(FORMAT_VALUES, after) == ["{:.12g}".format(x) + after for x in values]
    assert emit._json_texts(FORMAT_VALUES, after) == [_json_text(x) + after for x in values]
    assert emit._bool_texts(FORMAT_VALUES, after) == [emit._bool(x) + after for x in values]
    for texts in (emit._csv_texts, emit._json_texts, emit._bool_texts):
        assert texts(FORMAT_VALUES[:0], after) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("table", [
    _column_table([-0.0, 0.0, 5e-324], [0.0, -0.0], ["+", "-"], [True, False, True]),
    _column_table([0.0, -0.0], list(NAN_PAYLOADS), ["+", "-", "0"], [False]),  # all unreachable
    _column_table([0.0, -0.0], [], ["+"], [True]),  # an empty alpha column: no rows
], ids=["signed-zeros-and-nans", "all-unreachable", "empty-column"])
def test_sweep_columns_of_signed_zeros_and_nans_match_reference(tmp_path, fmt, table):
    export(table, fmt, str(tmp_path / "new"))
    reference_export(table, fmt, str(tmp_path / "old"))
    assert_same_text((tmp_path / "new").read_bytes(), (tmp_path / "old").read_bytes())


@pytest.mark.parametrize("protocol,fmt", [("w3", "csv"), ("ghz4", "json")])
def test_cli_sweep_builds_no_row_records(tmp_path, capsys, protocol, fmt):
    out = tmp_path / f"new.{fmt}"
    assert main(["sweep", "--protocol", protocol, "--lambda-steps", "9", "--alpha-steps", "7",
                 "--format", fmt, "--out", str(out)]) == EXIT_OK
    table = run_sweep(default_plan(*{"w3": ("w", 3), "ghz4": ("ghz", 4)}[protocol], 9, 7))
    reference_export(table, fmt, str(tmp_path / "old"))
    assert_same_text(out.read_bytes(), (tmp_path / "old").read_bytes())
    assert json.loads(capsys.readouterr().out)["rows"] == len(table)
