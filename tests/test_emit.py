"""The emitted documents are byte-identical to json.dumps / csv.writer output."""
import io
import json
import math

import numpy as np
import pytest

from conftest import (
    haar_unitary,
    random_pure_state,
    reference_branches_text,
    reference_ensemble_text,
    reference_export,
)
from qswitch import Outcome, OutcomeEnsemble, SwitchSpec, emit, netsim, run
from qswitch.cli import EXIT_OK, main
from qswitch.netsim import BranchResult
from qswitch.sweep import default_plan, export, run_sweep
from qswitch.switch import UNREACHABLE_TOL

PAIR = {"u": "pauli_z", "u_tilde": f"ry({math.pi / 2!r})"}


def _literal(m):
    rows = ("[" + ",".join(f"{float(z.real)!r}{float(z.imag):+}i" for z in row) + "]" for row in m)
    return "matrix([" + ",".join(rows) + "])"


def _haar_doc(seed, protocol, n):
    rng = np.random.default_rng(seed)
    pairs = [{"u": _literal(haar_unitary(rng)), "u_tilde": _literal(haar_unitary(rng))}
             for _ in range(n)]
    amplitudes = [[[float(z.real), float(z.imag)] for z in random_pure_state(rng, 1)]
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
    ensemble = run(SwitchSpec.from_document(doc))
    if name == "bell-unreachable":
        assert not all(o.reachable for o in ensemble)
    out = _stdout(capsys, ["run", "--spec", str(path)])
    assert_same_text(out, reference_ensemble_text(ensemble))


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
    branches = netsim.run_hierarchy(netsim.topology_from_json(doc))
    if report == "branches":
        assert_same_text(out, reference_branches_text(branches))
    else:
        reachable = [b for b in branches if b.reachable]
        summary = {
            "clients": m * k, "entanglers": m, "branches": len(branches),
            "reachable_branches": len(reachable),
            "min_ghz_fidelity": float(format(min(b.ghz_fidelity for b in reachable), ".12g")),
            "total_probability": float(format(sum(b.probability for b in branches), ".12g")),
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


def test_edge_values_match_json_dumps(rng):
    outcomes = [Outcome("+" * (i + 1), float(p), state)
                for i, (p, state) in enumerate(zip(EDGE, _edge_states(rng)))]
    outcomes += [Outcome("-", UNREACHABLE_TOL * (1 - 1e-15), None), Outcome("--", -0.0, None)]
    out = io.StringIO()
    emit.write_ensemble(OutcomeEnsemble(tuple(outcomes)), out)
    assert_same_text(out.getvalue(), reference_ensemble_text(outcomes))

    branches = [BranchResult(f"+{i}", float(p), state, float(EDGE[-1 - i]))
                for i, (p, state) in enumerate(zip(EDGE, _edge_states(rng)))]
    branches.append(BranchResult("--", 5e-324, None, None))
    out = io.StringIO()
    emit.write_branches(branches, out)
    assert_same_text(out.getvalue(), reference_branches_text(branches))


def test_empty_documents_match_json_dumps(tmp_path):
    out = io.StringIO()
    emit.write_ensemble(OutcomeEnsemble(()), out)
    assert out.getvalue() == reference_ensemble_text([])
    for fmt in ("csv", "json"):
        export([], fmt, str(tmp_path / "new"))
        reference_export([], fmt, str(tmp_path / "old"))
        assert_same_text((tmp_path / "new").read_bytes(), (tmp_path / "old").read_bytes())


@pytest.mark.parametrize("protocol,n", [("bell", 2), ("ghz", 3), ("w", 3), ("ghz", 4)])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_export_matches_csv_writer_and_json_dump(tmp_path, protocol, n, fmt):
    plan = default_plan(protocol, n, lambda_steps=9, alpha_steps=7)
    assert {0.0, math.pi / 4, math.pi / 2} <= set(plan.lambda_grid)
    assert {0.0, 1.0} <= set(plan.alpha_grid)
    records = run_sweep(plan)
    export(records, fmt, str(tmp_path / "new"))
    reference_export(records, fmt, str(tmp_path / "old"))
    assert_same_text((tmp_path / "new").read_bytes(), (tmp_path / "old").read_bytes())
