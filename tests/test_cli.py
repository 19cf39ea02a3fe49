import argparse
import copy
import importlib
import importlib.util
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qswitch
from conftest import seeded_verify_doc
from qswitch.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, build_parser, main
from qswitch.documents import parse_spec
from qswitch.switch import run
from qswitch.verify import certify_class

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
    path.write_text(json.dumps({"protocol": "ghz", "n": 3,
                                "pairs": [{"u": "pauli_z", "u_tilde": RY_QUARTER}],
                                "input": {"alpha": 0.5}}))
    assert main(["verify", "--spec", str(path)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["outcome_classes"].values()) == {"ghz-class"}
    # qubit 1's gates commute, so both of its orders coincide
    path.write_text(json.dumps({"protocol": "ghz",
                                "pairs": [{"u": "pauli_z", "u_tilde": RY_QUARTER},
                                          {"u": "pauli_z", "u_tilde": "identity"},
                                          {"u": "pauli_z", "u_tilde": RY_QUARTER}]}))
    assert main(["verify", "--spec", str(path)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["separable"] is True
    assert set(doc["outcome_classes"].values()) == {"biseparable"}


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
    # the summary rounds to 12 digits, so the ideal GHZ9 network reads exactly 1
    assert doc["min_ghz_fidelity"] == 1 and doc["total_probability"] == 1
    assert doc["reachable_branches"] == doc["branches"]


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
    # the engine refuses the state, with no pointer, since the spec itself is valid
    assert capsys.readouterr().err == "error: state has 13 qubits, cap is 12\n"
    # at the document cap too, which verify reads
    path.write_text(json.dumps({"protocol": "ghz", "n": 4096,
                                "pairs": [{"u": "pauli_z", "u_tilde": RY_QUARTER}]}))
    assert main(["run", "--spec", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: state has 4096 qubits, cap is 12\n"
    # the document cap comes before a single pair is broadcast n times
    path.write_text(json.dumps({"protocol": "w", "n": 4097,
                                "pairs": [{"u": "pauli_z", "u_tilde": RY_QUARTER}]}))
    for verb in ("run", "verify"):
        assert main([verb, "--spec", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: spec has 4097 qubits, cap is 4096 (at '/n')\n"


@pytest.mark.parametrize("n", [13, 100, 4096])
def test_verify_reads_specs_wider_than_the_qubit_cap(tmp_path, capsys, n):
    # verify reads only the (n, 2, 2) order images, so no 2^n state bounds it
    path = tmp_path / "ghz.json"
    path.write_text(json.dumps({"protocol": "ghz", "n": n, "input": {"alpha": 0.3},
                                "pairs": [{"u": "pauli_z", "u_tilde": "ry(0.7)"}]}))
    assert main(["verify", "--spec", str(path)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    c = qswitch.overlap(qswitch.UnitaryPair(qswitch.pauli("z"), qswitch.ry(0.7)),
                        qswitch.superposed_input(0.3))
    assert doc["per_qubit_overlap"] == [[c.real, c.imag]] * n


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


def _spec_file(tmp_path, protocol, n):
    path = tmp_path / f"{protocol}{n}.json"
    path.write_text(json.dumps({"protocol": protocol, "n": n,
                                "pairs": [{"u": "pauli_z", "u_tilde": RY_QUARTER}],
                                "input": {"alpha": 0.5}}))
    return str(path)


@pytest.mark.parametrize("protocol,n", [("bell", 2), ("ghz", 3), ("w", 3)])
def test_verify_builds_the_order_images_once_and_checks_once(tmp_path, capsys, monkeypatch,
                                                             protocol, n):
    import qswitch.cli as cli
    import qswitch.switch as switch
    import qswitch.verify as verify

    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    # every binding that a verify request can reach the two functions through
    assert not hasattr(cli, "_end_vectors")
    for module in (switch, verify):
        monkeypatch.setattr(module, "_end_vectors", counting("ends", module._end_vectors))
    monkeypatch.setattr(verify, "condition_report", counting("check", verify.condition_report))
    assert main(["verify", "--spec", _spec_file(tmp_path, protocol, n)]) == EXIT_OK
    assert ("outcome_classes" in json.loads(capsys.readouterr().out)) == (n == 3)
    assert sorted(calls) == ["check", "ends"]


@pytest.mark.parametrize("protocol", ["ghz", "w"])
def test_verify_classes_equal_certify_class_over_the_run(tmp_path, capsys, protocol):
    # verify classifies the readout's states without the run's phase fix, which no class
    # depends on. The seeds are not those of the golden manifest. In the last document
    # every pair commutes, so that only the first outcome is reachable.
    docs = [seeded_verify_doc(protocol, 3, family, seed)
            for family in ("orthogonal", "generic", "aligned") for seed in range(100, 105)]
    docs.append({"protocol": protocol, "n": 3, "pairs": [{"u": "pauli_z", "u_tilde": "identity"}]})
    path = tmp_path / "spec.json"
    for doc in docs:
        path.write_text(json.dumps(doc))
        assert main(["verify", "--spec", str(path)]) == EXIT_OK
        classes = json.loads(capsys.readouterr().out)["outcome_classes"]
        r = run(parse_spec(doc))
        assert classes == {k: certify_class(psi) for k, live, psi
                           in zip(r.labels, r.reachable.tolist(), r.states) if live}


@pytest.mark.parametrize("protocol", ["ghz", "w"])
def test_verify_rejects_bad_tol_on_three_qubits(tmp_path, capsys, protocol):
    assert main(["verify", "--spec", _spec_file(tmp_path, protocol, 3), "--tol", "0.5"]) \
        == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith("error: bad --tol: ")
    assert captured.out == ""


@pytest.mark.parametrize("data,reason", [
    (b"{not json", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("\ufeff{}".encode(), "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    (b"{} {}", "Extra data: line 1 column 4 (char 3)"),
    (b'{"protocol": "\xff"}',
     "'utf-8' codec can't decode byte 0xff in position 14: invalid start byte"),
], ids=["syntax", "byte-order-mark", "extra-data", "bad-utf-8"])
def test_invalid_json(tmp_path, capsys, data, reason):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    assert main(["run", "--spec", str(path)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == f"error: malformed JSON in {path}: {reason}\n"
    assert captured.out == ""


@pytest.mark.parametrize("verb", ["run", "verify", "netsim"])
@pytest.mark.parametrize("where", ["document", "pairs"])
def test_deeply_nested_json_is_malformed(tmp_path, capsys, verb, where):
    # the JSON decoder recurses once per nesting level and raises RecursionError
    nested = "[" * 200_000 + "]" * 200_000
    path = tmp_path / "deep.json"
    path.write_text(nested if where == "document" else f'{{"protocol": "ghz", "pairs": {nested}}}')
    flag = "--topology" if verb == "netsim" else "--spec"
    assert main([verb, flag, str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed JSON in {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("verb,text,key", [
    ("run", '{"protocol": "bell", "protocol": "ghz", "n": 2, "pairs": [{"u": "pauli_z", '
            '"u_tilde": "pauli_x"}]}', "protocol"),
    ("verify", '{"protocol": "bell", "pairs": [{"u": "pauli_x", "u_tilde": "pauli_z", '
               '"u": "pauli_z"}]}', "u"),
    ("netsim", '{"entanglers": [{"id": "e1", "clients": 2}, {"id": "e2", "clients": 2}], '
               '"alpha": 0.5, "alpha": 0.25}', "alpha"),
], ids=["spec-protocol", "pair-u", "topology-alpha"])
def test_a_repeated_key_is_refused_not_read_as_its_last_value(tmp_path, capsys, verb, text, key):
    # RFC 8259 says the names of an object SHOULD be unique; json.load alone keeps the last
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main([verb, "--topology" if verb == "netsim" else "--spec", str(path)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == f"error: malformed JSON in {path}: duplicate key {key!r}\n"
    assert captured.out == ""


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


@pytest.mark.parametrize("lambda_steps,alpha_steps", [("-2", "-2"), ("-300", "-300"), ("0", "5")])
def test_sweep_step_count_below_one(tmp_path, capsys, lambda_steps, alpha_steps):
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--protocol", "w3", "--lambda-steps", lambda_steps,
               "--alpha-steps", alpha_steps, "--out", str(out)])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"lambda step count must be at least 1, got {lambda_steps}" in err
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


def test_readme_library_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = re.search(r"## Library tour\n+```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(tour, "README.md", "exec"), {})


def test_public_surface():
    # the package ships what the CLI and the library tour use; dense reference
    # helpers live in tests/conftest.py
    assert qswitch.__all__ == [
        "UnitaryPair", "parse_gate", "pauli", "ry",
        "MetricReport", "concurrence", "gme_concurrence",
        "Readout", "SwitchSpec", "run", "superposed_input",
        "ConditionReport", "certify_class", "check_max_entanglement", "overlap", "three_tangle",
    ]
    removed = {"qswitch": ["purity", "joint_state", "switch_operator", "forward_order",
                           "backward_order", "canonical_lu", "check_separability",
                           "Outcome", "OutcomeEnsemble"],
               "qswitch.gates": ["forward_order", "backward_order"],
               "qswitch.switch": ["joint_state", "switch_operator", "Outcome", "OutcomeEnsemble",
                                  "_plan", "_readout", "_outcomes", "_protocol_plan"],
               "qswitch.emit": ["write_ensemble", "write_branches", "_write_document"],
               "qswitch.netsim": ["_branch_results"],
               "qswitch.verify": ["apply_local_unitaries", "canonical_lu", "check_separability"],
               "qswitch.metrics": ["purity", "_gme_from_entropy_scalar", "_check_unit"],
               "qswitch.cli": ["ValidationError"]}
    for module, names in removed.items():
        present = [n for n in names if hasattr(importlib.import_module(module), n)]
        assert present == [], module
    assert importlib.util.find_spec("qswitch.linalg") is None
    assert not hasattr(qswitch.sweep, "SweepRecord")
    assert "all_bipartitions" not in inspect.signature(qswitch.gme_concurrence).parameters
    for fn in (qswitch.certify_class, qswitch.gates.is_unitary):
        assert "tol" not in inspect.signature(fn).parameters, fn.__name__


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


_NOT_UNITARY = "matrix([[2+0i,0+0i],[0+0i,1+0i]])"


def _ghz3_doc(pair_2=None, input_2=(1, 0)):
    """A 3-qubit ghz document with its own third pair and third input state."""
    pair = {"u": "pauli_z", "u_tilde": RY_QUARTER}
    return _bell_doc(protocol="ghz", n=3, pairs=[pair, pair, pair_2 or pair],
                     input={"amplitudes": [[1, 0], [0, 1], list(input_2)]})


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
    ({k: v for k, v in _bell_doc().items() if k != "pairs"}, "pairs is required (at '/pairs')"),
    (_bell_doc(input={"amplitudes": [[0, 0], [1, 0]]}),
     "amplitude vector must have a nonzero, finite norm (at '/input/amplitudes/0')"),
    (_bell_doc(protocol="ghz", n=3, pairs=[{"u": "pauli_z", "u_tilde": RY_QUARTER}] * 3,
               input={"amplitudes": [[1, 0], [0, 1]]}),
     "2 input states for 3 qubits (at '/input/amplitudes')"),
    (_ghz3_doc(pair_2={"u": "pauli_z", "u_tilde": "hadamard"}),
     "error: unknown gate name 'hadamard' (at '/pairs/2/u_tilde')\n"),
    (_ghz3_doc(pair_2={"u": "pauli_z", "u_tilde": _NOT_UNITARY}),
     "error: u_tilde is not unitary within tolerance (at '/pairs/2/u_tilde')\n"),
    (_ghz3_doc(pair_2={"u": _NOT_UNITARY, "u_tilde": "pauli_z"}),
     "error: u is not unitary within tolerance (at '/pairs/2/u')\n"),
    (_ghz3_doc(input_2=[0, 0]),
     "error: amplitude vector must have a nonzero, finite norm (at '/input/amplitudes/2')\n"),
    # two faults: the first field checked is the one refused
    (_bell_doc(pairs=[{"u": "hadamard", "u_tilde": RY_QUARTER}] * 2, input={"alpha": 2}),
     "'/pairs/0/u'"),
    (_bell_doc(pairs=[{"u": 1, "u_tilde": _NOT_UNITARY}] * 2),
     "gate name must be a string, got 1 (at '/pairs/0/u')"),
    (_bell_doc(input={"amplitudes": [[0, 0], ["x", 1]]}), "'/input/amplitudes/0'"),
    (_bell_doc(n=3, input={"alpha": "x"}), "'/n'"),
], ids=["n-string", "n-boolean", "alpha-null", "alpha-boolean", "version-string",
        "control-biased", "amplitudes-number", "amplitudes-flat", "gate-unknown",
        "gate-not-unitary", "bell-three-pairs", "bell-n-three", "pairs-missing",
        "amplitudes-zero", "amplitudes-too-few", "ghz3-gate-unknown-at-2",
        "ghz3-u-tilde-not-unitary-at-2", "ghz3-u-not-unitary-at-2", "ghz3-amplitudes-zero-at-2",
        "gate-unknown-and-alpha-two", "gate-number-and-not-unitary",
        "amplitudes-zero-and-mistyped", "n-three-and-alpha-string"])
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
    (_topology_doc(link_loss={"e1": 0.1}), "'/link_loss'"),
    (_topology_doc(gates={"u_tilde": RY_QUARTER}), "'/gates/u'"),
    (_topology_doc(control="biased"), "'/control'"),
    (_topology_doc(entanglers=[{"id": "e1", "clients": 3}]), "'/entanglers'"),
    (_topology_doc(alpha=1.5), "'/alpha'"),
    (_topology_doc(entanglers=[{"id": "e1"}, {"id": "e2", "clients": 3}]),
     "'/entanglers/0/clients'"),
    # two faults: the first field checked is the one refused
    (_topology_doc(entanglers=[{"id": "e1", "clients": 3}], alpha=3, control="x"), "'/alpha'"),
    (_topology_doc(gates={"u": "pauli_z", "u_tilde": "pauli_z"}, alpha=1.5), "'/alpha'"),
    (_topology_doc(entanglers=[{"id": 7, "clients": 3}, {"id": "e2", "clients": 1.5}]),
     "'/entanglers/0/id'"),
], ids=["not-an-object", "entanglers-string", "gates-string", "alpha-null", "clients-fraction",
        "link-loss-nonzero", "gates-without-u", "control-unknown", "one-entangler",
        "alpha-above-one", "clients-missing", "one-entangler-alpha-three-control-unknown",
        "aligned-gates-alpha-above-one", "id-number-and-clients-fraction"])
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
    # link_loss, even all zeros, and coordinator are not topology keys
    ("netsim", _topology_doc(link_loss={"e1": 0, "e2": 0.0}), "'/link_loss'"),
    ("netsim", _topology_doc(coordinator="c0"), "'/coordinator'"),
], ids=["spec-inputs", "input-alpha-and-amplitudes", "input-unknown", "pair-u_tild",
        "escaped-key", "topology-contol", "gates-unknown", "entangler-unknown",
        "topology-link_loss", "topology-coordinator"])
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
    topo.write_text(json.dumps(_topology_doc(control="ghz")))
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


@pytest.mark.parametrize("x", [1e153, 9.4e153, 9.5e153, 1e154, 1.3e154, 1.4e154, 1e155, 1e200,
                               1e308, "1e308+1e308i"])
def test_amplitude_magnitude_boundary_is_warning_free(tmp_path, capsys, x):
    # the sum of squares of the input norm overflows from about 9.5e153: larger inputs
    # are rejected, and no input on either side of the edge raises a RuntimeWarning
    # (the golden manifest pins each output's bytes)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_bell_doc(input={"amplitudes": [[x, x], [1, 0]]})))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["verify", "--spec", str(path)])
    captured = capsys.readouterr()
    if x in (1e153, 9.4e153):
        assert (rc, captured.err) == (EXIT_OK, "")
        assert json.loads(captured.out)["all_orthogonal"] is True
    else:
        assert (rc, captured.out) == (EXIT_VALIDATION, "")
        assert captured.err == ("error: amplitude vector must have a nonzero, finite norm "
                                "(at '/input/amplitudes/0')\n")


@pytest.mark.parametrize("verb", ["run", "verify"])
def test_junk_matrix_literal_rejected_with_pointer(tmp_path, capsys, verb):
    junk = "matrix([[1,0],[0,1]]xyz)"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_bell_doc(pairs=[{"u": "pauli_z", "u_tilde": RY_QUARTER},
                                                {"u": "pauli_z", "u_tilde": junk}])))
    assert main([verb, "--spec", str(path)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == f"error: matrix literal must be 2x2: {junk!r} (at '/pairs/1/u_tilde')\n"
    assert captured.out == ""


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
                         control="ghz"),
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
