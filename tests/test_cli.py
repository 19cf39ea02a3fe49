import argparse
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qswitch
from qswitch.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, build_parser, main

RY_QUARTER = f"ry({math.pi / 2})"


@pytest.fixture
def bell_spec(tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(json.dumps({
        "version": 1,
        "protocol": "bell",
        "pairs": [{"u": "pauli_z", "u_tilde": RY_QUARTER}] * 2,
        "input": {"alpha": 0.5},
    }))
    return str(path)


@pytest.fixture
def topology(tmp_path):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps({
        "entanglers": [{"id": "e1", "clients": 3}, {"id": "e2", "clients": 3},
                       {"id": "e3", "clients": 3}],
        "gates": {"u": "pauli_z", "u_tilde": RY_QUARTER},
        "alpha": 0.5,
    }))
    return str(path)


def test_run_bell(bell_spec, capsys):
    assert main(["run", "--spec", bell_spec]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["outcomes"]) == 2
    for o in doc["outcomes"]:
        assert abs(o["probability"] - 0.5) <= 1e-9
        assert len(o["state"]) == 4


def test_verify_bell(bell_spec, capsys):
    assert main(["verify", "--spec", bell_spec]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_orthogonal"] is True
    assert doc["any_aligned"] is False
    assert doc["separable"] is False


def test_verify_reports_outcome_classes(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({
        "protocol": "w",
        "pairs": [{"u": "pauli_z", "u_tilde": RY_QUARTER}],
        "n": 3,
        "input": {"alpha": 0.5},
    }))
    assert main(["verify", "--spec", str(path)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["outcome_classes"].values()) == {"w-class"}


def test_sweep_csv(tmp_path, capsys):
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--protocol", "bell", "--lambda-steps", "5",
               "--alpha-steps", "3", "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"] == 5 * 3 * 2
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,alpha,outcome,probability,metric,reachable"
    assert len(lines) == 1 + 5 * 3 * 2


def test_sweep_idempotent(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--protocol", "ghz3", "--lambda-steps", "5", "--alpha-steps", "3"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_netsim_summary(topology, capsys):
    assert main(["netsim", "--topology", topology]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["clients"] == 9
    assert doc["reachable_branches"] == 8
    assert doc["min_ghz_fidelity"] >= 1 - 1e-9
    assert abs(doc["total_probability"] - 1.0) <= 1e-9


def test_netsim_branches(topology, capsys):
    assert main(["netsim", "--topology", topology, "--report", "branches"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["branches"]) == 8
    assert all(len(b["client_state"]) == 512 for b in doc["branches"])


def test_malformed_spec_reports_pointer(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"protocol": "bell", "pairs": [{"u": 7, "u_tilde": "pauli_z"}] * 2}))
    assert main(["run", "--spec", str(path)]) == EXIT_VALIDATION
    assert "/pairs/0/u" in capsys.readouterr().err


def test_bad_protocol_reports_pointer(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"protocol": "cluster", "pairs": [{"u": "pauli_z", "u_tilde": "pauli_z"}]}))
    assert main(["run", "--spec", str(path)]) == EXIT_VALIDATION
    assert "/protocol" in capsys.readouterr().err


def test_run_rejects_spec_over_qubit_cap(tmp_path, capsys):
    path = tmp_path / "w13.json"
    path.write_text(json.dumps({
        "protocol": "w",
        "n": 13,
        "pairs": [{"u": "pauli_z", "u_tilde": RY_QUARTER}],
        "input": {"alpha": 0.5},
    }))
    assert main(["run", "--spec", str(path)]) == EXIT_VALIDATION
    assert "cap is 12" in capsys.readouterr().err


def test_run_rejects_n_disagreeing_with_pairs(tmp_path, capsys):
    path = tmp_path / "ghz.json"
    path.write_text(json.dumps({
        "protocol": "ghz",
        "n": 5,
        "pairs": [{"u": "pauli_z", "u_tilde": RY_QUARTER}] * 2,
        "input": {"alpha": 0.5},
    }))
    assert main(["run", "--spec", str(path)]) == EXIT_VALIDATION
    assert "2 pairs" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "0.5", "0.7"])
def test_verify_rejects_bad_tol(bell_spec, tol, capsys):
    assert main(["verify", "--spec", bell_spec, "--tol", tol]) == EXIT_VALIDATION
    assert "--tol" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", "--spec", str(path)]) == EXIT_VALIDATION


def test_missing_file_is_io_error(tmp_path, capsys):
    assert main(["run", "--spec", str(tmp_path / "nope.json")]) == EXIT_IO


def test_sweep_unwritable_out(bell_spec, tmp_path, capsys):
    out = tmp_path / "missing" / "s.csv"
    assert main(["sweep", "--protocol", "bell", "--out", str(out)]) == EXIT_IO


def test_netsim_rejects_bad_topology(tmp_path, capsys):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps({
        "entanglers": [{"id": "e1", "clients": 3}],
        "gates": {"u": "pauli_z", "u_tilde": RY_QUARTER},
    }))
    assert main(["netsim", "--topology", str(path)]) == EXIT_VALIDATION


def test_unknown_flag(capsys):
    assert main(["run", "--nope"]) == EXIT_VALIDATION


def test_unknown_verb(capsys):
    assert main(["teleport"]) == EXIT_VALIDATION


@pytest.mark.parametrize("protocol", ["ghz3", "ghz4", "w3"])
def test_sweep_has_no_metric_flag(tmp_path, capsys, protocol):
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--protocol", protocol, "--metric", "concurrence", "--out", str(out)])
    assert rc == EXIT_VALIDATION
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_sweep_grid_over_cap(tmp_path, capsys):
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--protocol", "w3", "--lambda-steps", "100000",
               "--alpha-steps", "100000", "--out", str(out)])
    assert rc == EXIT_VALIDATION
    assert "cap is 65536" in capsys.readouterr().err
    assert not out.exists()


def test_readme_documents_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    verbs = next(a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    missing = [
        f"{verb} {option}"
        for verb, parser in verbs.items()
        for action in parser._actions if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if option.startswith("--") and not re.search(rf"{re.escape(option)}(?![\w-])", readme)
    ]
    assert missing == []


def _bell_doc(**fields):
    doc = {
        "version": 1,
        "protocol": "bell",
        "pairs": [{"u": "pauli_z", "u_tilde": RY_QUARTER}] * 2,
        "input": {"alpha": 0.5},
    }
    doc.update(fields)
    return doc


def _topology_doc(**fields):
    doc = {
        "entanglers": [{"id": "e1", "clients": 3}, {"id": "e2", "clients": 3}],
        "gates": {"u": "pauli_z", "u_tilde": RY_QUARTER},
        "alpha": 0.5,
    }
    doc.update(fields)
    return doc


@pytest.mark.parametrize("doc,pointer", [
    (_bell_doc(n="3"), "'/n'"),
    (_bell_doc(n=True), "'/n'"),
    (_bell_doc(input={"alpha": None}), "'/input/alpha'"),
    (_bell_doc(input={"alpha": True}), "'/input/alpha'"),
    (_bell_doc(version="1"), "'/version'"),
    (_bell_doc(control="biased"), "'/control'"),
    (_bell_doc(input={"amplitudes": 5}), "'/input/amplitudes'"),
    (_bell_doc(input={"amplitudes": [1, 0]}), "'/input/amplitudes/0'"),
    (_bell_doc(pairs=[{"u": "pauli_z", "u_tilde": "hadamard"}] * 2), "'/pairs/0/u_tilde'"),
    (_bell_doc(pairs=[{"u": "pauli_z", "u_tilde": RY_QUARTER},
                      {"u": "matrix([[2+0i,0+0i],[0+0i,1+0i]])", "u_tilde": "pauli_z"}]),
     "'/pairs/1/u'"),
    (_bell_doc(pairs=[{"u": "pauli_z", "u_tilde": RY_QUARTER}] * 3), "'/pairs'"),
    (_bell_doc(n=3, pairs=[{"u": "pauli_z", "u_tilde": RY_QUARTER}]), "'/n'"),
], ids=["n-string", "n-boolean", "alpha-null", "alpha-boolean", "version-string",
        "control-biased", "amplitudes-number", "amplitudes-flat", "gate-unknown",
        "gate-not-unitary", "bell-three-pairs", "bell-n-three"])
def test_run_rejects_mistyped_spec_fields(tmp_path, capsys, doc, pointer):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--spec", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert pointer in err
    if "version" in pointer:
        assert "version '1'" in err


@pytest.mark.parametrize("doc,pointer", [
    ([1, 2], "''"),
    (_topology_doc(entanglers="x"), "'/entanglers'"),
    (_topology_doc(gates="pauli_z"), "'/gates'"),
    (_topology_doc(alpha=None), "'/alpha'"),
    (_topology_doc(entanglers=[{"id": "e1", "clients": 3}, {"id": "e2", "clients": 2.7}]),
     "'/entanglers/1/clients'"),
    (_topology_doc(link_loss={"e1": 0.1}), "'/link_loss/e1'"),
    (_topology_doc(gates={"u_tilde": RY_QUARTER}), "'/gates/u'"),
    (_topology_doc(control="biased"), "'/control'"),
    (_topology_doc(entanglers=[{"id": "e1", "clients": 3}]), "'/entanglers'"),
], ids=["not-an-object", "entanglers-string", "gates-string", "alpha-null", "clients-fraction",
        "link-loss-nonzero", "gates-without-u", "control-unknown", "one-entangler"])
def test_netsim_rejects_mistyped_topology_fields(tmp_path, capsys, doc, pointer):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(doc))
    assert main(["netsim", "--topology", str(path)]) == EXIT_VALIDATION
    assert f"(at {pointer})" in capsys.readouterr().err


@pytest.mark.parametrize("verb,doc,pointer", [
    ("run", _bell_doc(inputs={"alpha": 0.1}), "'/inputs'"),
    ("run", _bell_doc(input={"alpha": 0.1, "amplitudes": [[1, 0], [0, 1]]}), "'/input'"),
    ("run", _bell_doc(input={"alpha": 0.1, "beta": 0.2}), "'/input/beta'"),
    ("run", _bell_doc(pairs=[{"u": "pauli_z", "u_tilde": RY_QUARTER, "u_tild": "pauli_x"}] * 2),
     "'/pairs/0/u_tild'"),
    ("run", _bell_doc(**{"a/b~c": 1}), "'/a~1b~0c'"),
    ("netsim", _topology_doc(contol="plus_product"), "'/contol'"),
    ("netsim", _topology_doc(gates={"u": "pauli_z", "u_tilde": RY_QUARTER, "v": "pauli_x"}),
     "'/gates/v'"),
    ("netsim", _topology_doc(entanglers=[{"id": "e1", "clients": 3},
                                         {"id": "e2", "clients": 3, "client": 2}]),
     "'/entanglers/1/client'"),
], ids=["spec-inputs", "input-alpha-and-amplitudes", "input-unknown", "pair-u_tild",
        "escaped-key", "topology-contol", "gates-unknown", "entangler-unknown"])
def test_unknown_and_conflicting_keys_rejected(tmp_path, capsys, verb, doc, pointer):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([verb, "--topology" if verb == "netsim" else "--spec", str(path)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.rstrip().endswith(f"(at {pointer})")
    assert captured.out == ""


def test_every_documented_key_accepted(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_bell_doc(n=2, control="even")))
    topo = tmp_path / "topo.json"
    topo.write_text(json.dumps(_topology_doc(control="ghz", link_loss={"e1": 0, "e2": 0.0},
                                             coordinator="c0")))
    assert main(["run", "--spec", str(spec)]) == EXIT_OK
    assert main(["verify", "--spec", str(spec)]) == EXIT_OK
    assert main(["netsim", "--topology", str(topo)]) == EXIT_OK


@pytest.mark.parametrize("verb", ["run", "verify"])
@pytest.mark.parametrize("amplitude", [math.nan, "inf"], ids=["nan", "string-inf"])
def test_non_finite_amplitude_rejected(tmp_path, capsys, verb, amplitude):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_bell_doc(input={"amplitudes": [[amplitude, 0], [1, 0]]})))
    assert main([verb, "--spec", str(path)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "not finite (at '/input/amplitudes/0')" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("doc,pointer", [
    (_bell_doc(pairs=[{"u": "pauli_z", "u_tilde": "ry(1e400)"}] * 2), "/pairs/0/u_tilde"),
    (_bell_doc(input={"amplitudes": [[1e308, 1e308], [1, 0]]}), "/input/amplitudes/0"),
    (_bell_doc(pairs=[{"u": "matrix([[1e200+0i,0+0i],[0+0i,1+0i]])", "u_tilde": "pauli_z"}] * 2),
     "/pairs/0/u"),
    (_bell_doc(pairs=[{"u": "pauli_z", "u_tilde": "matrix([[inf+0i,0+0i],[0+0i,1+0i]])"}] * 2),
     "/pairs/0/u_tilde"),
], ids=["ry-overflow", "norm-overflow", "matrix-overflow", "matrix-inf"])
def test_rejection_prints_no_numpy_warning(tmp_path, doc, pointer):
    # a fresh interpreter, so that warnings reach stderr as a user sees them
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qswitch.__file__)))
    proc = subprocess.run([sys.executable, "-m", "qswitch.cli", "run", "--spec", str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_VALIDATION
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and lines[0].endswith(f"(at '{pointer}')")
    assert "Warning" not in proc.stderr


def test_parser_reuse_keeps_no_state_between_calls(bell_spec, capsys):
    def call(*argv):
        return main(list(argv)), capsys.readouterr()

    rc, first = call("verify", "--spec", bell_spec)
    assert rc == EXIT_OK
    assert call("verify", "--spec", bell_spec, "--tol", "1e-3")[0] == EXIT_OK
    assert call("verify", "--spec", bell_spec, "--nope")[0] == EXIT_VALIDATION
    assert call("--help")[0] == EXIT_OK
    rc, last = call("verify", "--spec", bell_spec)
    assert rc == EXIT_OK
    assert json.loads(last.out)["tol"] == 1e-9
    assert last.out == first.out


# -- any JSON value in any field: a clean exit, never a traceback ------------

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)

# gate strings, ry(<float text>) and matrix literals, and "a+bi" literals with
# extreme or non-finite parts
_FLOAT_TEXT = st.floats().map(repr) | st.sampled_from(["1e400", "-1e400", "1e-400", "nan", "-inf"])
_PART = (st.floats() | st.floats(-1, 1)
         | st.sampled_from([1e200, -1e308, 5e-324, math.inf, math.nan]))
_COMPLEX_TEXT = st.tuples(_PART, _PART).map(lambda z: f"{z[0]!r}{z[1]:+}i")
_LITERALS = (_COMPLEX_TEXT | _FLOAT_TEXT.map("ry({})".format)
             | st.lists(_COMPLEX_TEXT, min_size=4, max_size=4).map(
                 lambda e: f"matrix([[{e[0]},{e[1]}],[{e[2]},{e[3]}]])"))

_PAIR = {"u": "pauli_z", "u_tilde": RY_QUARTER}
_PROPERTY_BASES = {
    "bell": _bell_doc(n=2, control="even"),
    "ghz": _bell_doc(protocol="ghz", n=3, pairs=[_PAIR],
                     input={"amplitudes": [["0.6+0i", "0+0.8i"], [1, 0], [[0.6, 0.0], [0.8, 0.0]]]}),
    "w": _bell_doc(protocol="w", pairs=[_PAIR] * 3, input={"alpha": 0.3}),
    "2x2": _topology_doc(entanglers=[{"id": "e1", "clients": 2}, {"id": "e2", "clients": 2}],
                         control="ghz", link_loss={"e1": 0}),
}


def _paths(doc, prefix=()):
    """Every path into a JSON document, the empty path first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _no_constant(name):
    raise AssertionError(f"{name} on stdout is not JSON")


@pytest.mark.parametrize("verb,base", [
    ("run", "bell"), ("verify", "bell"), ("run", "ghz"), ("verify", "ghz"),
    ("run", "w"), ("verify", "w"), ("netsim", "2x2"),
])
@settings(derandomize=True, deadline=None, max_examples=30)
@given(data=st.data())
def test_any_field_value_exits_cleanly(verb, base, data):
    doc = _PROPERTY_BASES[base]
    path = data.draw(st.sampled_from(list(_paths(doc))))
    doc = _replaced(doc, path, data.draw(_JSON_VALUES | _LITERALS))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        file = os.path.join(tmp, "doc.json")
        with open(file, "w") as fh:
            json.dump(doc, fh)
        with redirect_stdout(out), redirect_stderr(err):
            rc = main([verb, "--topology" if verb == "netsim" else "--spec", file])
    assert rc in (EXIT_OK, EXIT_VALIDATION)
    if rc == EXIT_OK:
        json.loads(out.getvalue(), parse_constant=_no_constant)
    elif verb != "netsim":
        assert "(at '" in err.getvalue()
