"""The four benchmark workloads: generated inputs, operations and output checks.

Each build function writes its inputs under a scratch directory and returns the
operations of one pass, in an order drawn from the seed. An operation is an
in-process call of ``qswitch.cli.main(argv)`` with output captured, or, for
entanglement mapping, which has no CLI verb, a call of
``qswitch.netsim.map_entanglement``. Each operation carries a check that
returns the list of problems found in its output (empty when correct).

Checks are invariants (probabilities sum to 1 within 1e-10, reachable states
are normalised within 1e-9, row and branch counts) plus expected values:
recorded in ``reference.json`` for the seed-independent operations, and
recomputed by ``refmodel`` for the seeded ones. Recorded probabilities,
fidelities and amplitudes must match within ``PROB_TOL``, metric values
within ``METRIC_TOL``, so that a change that only moves the 12th digit
still passes.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from collections import defaultdict
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

import numpy as np

import refmodel

SUM_TOL = 1e-10  # |sum of outcome probabilities - 1|
NORM_TOL = 1e-9  # |norm^2 - 1| of a printed state (12 significant digits)
PROB_TOL = 1e-9  # probabilities, fidelities, overlaps and amplitudes vs expected
METRIC_TOL = 1e-6  # concurrence and GME concurrence vs reference (sqrt near 0)
HEAD = 4  # leading amplitudes of each wide-run state kept in the reference

PAPER_GATES = {"u": "pauli_z", "u_tilde": f"ry({math.pi / 2!r})"}

SIZES = {
    "full": {
        "sweep_steps": 33,
        "wide_n": (10, 11),
        "topologies": ((3, 3, "ghz"), (2, 5, "ghz"), (2, 4, "ghz"),
                       (3, 3, "plus_product"), (4, 2, "plus_product")),
        "map_qubits": (7, 8),
        "verify_specs": 300,
    },
    "tiny": {
        "sweep_steps": 5,
        "wide_n": (4, 5),
        "topologies": ((2, 2, "ghz"), (2, 2, "plus_product")),
        "map_qubits": (3, 4),
        "verify_specs": 12,
    },
}


@dataclass
class CliResult:
    rc: Optional[int]
    out: str
    err: str


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list]
    argv: Optional[list] = None  # the CLI arguments; None for library calls


@dataclass
class Workload:
    ops: list
    warmup_argv: list


def call_cli(argv: list) -> CliResult:
    import qswitch.cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = qswitch.cli.main(argv)
    except Exception as exc:  # a traceback is a failed operation, not a crash
        return CliResult(None, out.getvalue(), f"{type(exc).__name__}: {exc}")
    return CliResult(rc, out.getvalue(), err.getvalue())


def cli_op(name: str, argv: list, check: Callable[[dict], list]) -> Op:
    def checked(res: CliResult) -> list:
        if res.rc != 0:
            return [f"exit {res.rc}: {res.err.strip()[:200]}"]
        try:
            doc = json.loads(res.out)
        except ValueError as exc:
            return [f"stdout is not JSON: {exc}"]
        return check(doc)

    return Op(name, lambda: call_cli(argv), checked, argv)


def _write_json(path: str, doc) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    return path


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _state(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _check_state(where: str, amps, dim: int) -> list:
    if len(amps) != dim:
        return [f"{where}: state has {len(amps)} amplitudes, expected {dim}"]
    norm = float(np.sum(np.abs(_state(amps)) ** 2))
    return [] if _close(norm, 1.0, NORM_TOL) else [f"{where}: state norm^2 {norm!r}"]


def _check_total(where: str, probabilities) -> list:
    total = math.fsum(probabilities)
    return [] if _close(total, 1.0, SUM_TOL) else [f"{where}: probabilities sum to {total!r}"]


# -- sweep-grid ----------------------------------------------------------------

SWEEPS = (("bell", "csv"), ("ghz3", "csv"), ("w3", "csv"), ("ghz4", "json"))
SWEEP_OUTCOMES = {"bell": ("+", "-"), "ghz3": ("+", "-"), "ghz4": ("+", "-"),
                  "w3": ("++", "+-", "-+", "--")}


def grid_key(lam: float, alpha: float, outcome: str) -> tuple:
    return round(lam, 9), round(alpha, 9), outcome


def read_sweep(path: str, fmt: str) -> list:
    """Rows (lambda, alpha, outcome, probability, metric or None, reachable)."""
    with open(path, newline="") as fh:
        if fmt == "csv":
            docs = [{**r, "metric": float(r["metric"]) if r["metric"] else None,
                     "reachable": r["reachable"] == "true"} for r in csv.DictReader(fh)]
        else:
            docs = json.load(fh)
    return [(float(d["lambda"]), float(d["alpha"]), d["outcome"], float(d["probability"]),
             d["metric"], d["reachable"]) for d in docs]


def _sweep_check(protocol: str, fmt: str, steps: int, path: str, ref: dict):
    outcomes = SWEEP_OUTCOMES[protocol]
    n_rows = steps * steps * len(outcomes)

    def check(doc: dict) -> list:
        errs = []
        if doc != {"rows": n_rows, "path": path, "format": fmt}:
            errs.append(f"summary {doc}, expected {n_rows} rows")
        rows = read_sweep(path, fmt)
        if len(rows) != n_rows:
            return errs + [f"{len(rows)} rows in {fmt} file, expected {n_rows}"]
        sums, points, matched = defaultdict(list), set(), 0
        for lam, alpha, outcome, p, metric, reachable in rows:
            sums[(lam, alpha)].append(p)
            points.add((round(lam, 9), round(alpha, 9)))
            at = f"lambda={lam} alpha={alpha} outcome={outcome}"
            if reachable != (metric is not None) or (not reachable and p >= 1e-12):
                errs.append(f"{at}: reachable={reachable} p={p} metric={metric}")
            if metric is not None and not 0.0 <= metric <= 1.0:
                errs.append(f"{at}: metric {metric} outside [0, 1]")
            expected = ref.get(grid_key(lam, alpha, outcome))
            if expected is not None:
                matched += 1
                p_ref, m_ref = expected
                if not _close(p, p_ref, PROB_TOL):
                    errs.append(f"{at}: probability {p!r}, reference {p_ref!r}")
                if (metric is None) != (m_ref is None) or (
                        metric is not None and not _close(metric, m_ref, METRIC_TOL)):
                    errs.append(f"{at}: metric {metric!r}, reference {m_ref!r}")
        for (lam, alpha), ps in sums.items():
            if len(ps) != len(outcomes):
                errs.append(f"lambda={lam} alpha={alpha}: {len(ps)} outcome rows")
            errs += _check_total(f"lambda={lam} alpha={alpha}", ps)
        if len(points) != steps * steps:
            errs.append(f"{len(points)} grid points, expected {steps * steps}")
        in_grid = sum(1 for k in ref if k[:2] in points)
        if matched != in_grid or not in_grid:
            errs.append(f"{matched} rows matched the reference, expected {in_grid} (> 0)")
        return errs

    return check


def build_sweep_grid(tmp: str, rng, size: dict, reference: dict) -> Workload:
    steps = size["sweep_steps"]
    ops = []
    for protocol, fmt in SWEEPS:
        path = os.path.join(tmp, f"sweep_{protocol}.{fmt}")
        argv = ["sweep", "--protocol", protocol, "--lambda-steps", str(steps),
                "--alpha-steps", str(steps), "--out", path, "--format", fmt]
        ref = {grid_key(*r[:3]): tuple(r[3:]) for r in reference["sweep"][protocol]}
        ops.append(cli_op(f"sweep {protocol} {fmt}", argv,
                          _sweep_check(protocol, fmt, steps, path, ref)))
    warmup = ["sweep", "--protocol", "bell", "--lambda-steps", "3", "--alpha-steps", "3",
              "--out", os.path.join(tmp, "warmup.csv"), "--format", "csv"]
    return Workload([ops[i] for i in rng.permutation(len(ops))], warmup)


# -- wide-run ------------------------------------------------------------------


def paper_spec(protocol: str, n: int) -> dict:
    return {"version": 1, "protocol": protocol, "n": n, "pairs": [PAPER_GATES],
            "input": {"alpha": 0.5}, "control": "even"}


def run_labels(protocol: str, n: int) -> list:
    d = math.ceil(math.log2(n)) if protocol == "w" else 1
    return ["".join(bits) for bits in product("+-", repeat=d)]


def wide_fingerprint(doc: dict) -> dict:
    """The recorded part of a `run` output: probabilities, leading amplitudes, sum |a|^4."""
    fp = {"labels": [], "probability": [], "head": [], "l4": []}
    for o in doc["outcomes"]:
        fp["labels"].append(o["label"])
        fp["probability"].append(o["probability"])
        state = _state(o["state"]) if o["reachable"] else None
        fp["head"].append(None if state is None else [[z.real, z.imag] for z in state[:HEAD]])
        fp["l4"].append(None if state is None else float(np.sum(np.abs(state) ** 4)))
    return fp


def _wide_check(protocol: str, n: int, ref: dict):
    def check(doc: dict) -> list:
        outcomes = doc.get("outcomes", [])
        labels = [o["label"] for o in outcomes]
        if labels != run_labels(protocol, n):
            return [f"outcome labels {labels}"]
        errs = _check_total("outcomes", [o["probability"] for o in outcomes])
        for o in outcomes:
            if o["reachable"] != ("state" in o):
                errs.append(f"outcome {o['label']}: reachable flag and state disagree")
            elif o["reachable"]:
                errs += _check_state(f"outcome {o['label']}", o["state"], 2**n)
        if errs:
            return errs
        got = wide_fingerprint(doc)
        for i, label in enumerate(ref["labels"]):
            at = f"outcome {label}"
            if not _close(got["probability"][i], ref["probability"][i], PROB_TOL):
                errs.append(f"{at}: probability {got['probability'][i]!r}, "
                            f"reference {ref['probability'][i]!r}")
            if (got["head"][i] is None) != (ref["head"][i] is None):
                errs.append(f"{at}: reachability differs from the reference")
            elif got["head"][i] is not None:
                head = np.abs(_state(got["head"][i]) - _state(ref["head"][i]))
                if head.max() > PROB_TOL or not _close(got["l4"][i], ref["l4"][i], PROB_TOL):
                    errs.append(f"{at}: amplitudes differ from the reference")
        return errs

    return check


def build_wide_run(tmp: str, rng, size: dict, reference: dict) -> Workload:
    ops = []
    for protocol in ("ghz", "w"):
        for n in size["wide_n"]:
            path = _write_json(os.path.join(tmp, f"spec_{protocol}{n}.json"),
                               paper_spec(protocol, n))
            ops.append(cli_op(f"run {protocol} n={n}", ["run", "--spec", path],
                              _wide_check(protocol, n, reference["wide"][f"{protocol}-{n}"])))
    warmup = ["run", "--spec", _write_json(os.path.join(tmp, "warmup.json"),
                                           paper_spec("ghz", 3))]
    return Workload([ops[i] for i in rng.permutation(len(ops))], warmup)


# -- network -------------------------------------------------------------------


def topology(m: int, k: int, control: str) -> dict:
    return {"entanglers": [{"id": f"e{j + 1}", "clients": k} for j in range(m)],
            "gates": PAPER_GATES, "alpha": 0.5, "control": control}


def topology_key(m: int, k: int, control: str) -> str:
    return f"{m}x{k}-{control}"


def _netsim_check(m: int, k: int, control: str, report: str, ref: dict):
    labels = ["".join(bits) for bits in product("+-", repeat=m)]

    def check_summary(doc: dict) -> list:
        errs = []
        for key in ("clients", "entanglers", "branches", "reachable_branches"):
            if doc.get(key) != ref["summary"][key]:
                errs.append(f"{key} = {doc.get(key)}, reference {ref['summary'][key]}")
        if (doc.get("clients"), doc.get("entanglers"), doc.get("branches")) != (m * k, m, 2**m):
            errs.append("clients, entanglers or branches do not match the topology")
        errs += _check_total("summary", [doc.get("total_probability", 0.0)])
        fid, fid_ref = doc.get("min_ghz_fidelity", -1.0), ref["summary"]["min_ghz_fidelity"]
        if not _close(fid, fid_ref, PROB_TOL):
            errs.append(f"min_ghz_fidelity {fid!r}, reference {fid_ref!r}")
        if control == "ghz" and not _close(fid, 1.0, PROB_TOL):
            errs.append(f"GHZ-controlled min_ghz_fidelity {fid!r} is not 1")
        return errs

    def check_branches(doc: dict) -> list:
        branches = doc.get("branches", [])
        if [b["control_outcome"] for b in branches] != labels:
            return [f"{len(branches)} branches, expected {2**m} in coherent-basis order"]
        errs = _check_total("branches", [b["probability"] for b in branches])
        for b, (_, p_ref, reachable_ref, fid_ref) in zip(branches, ref["branches"]):
            at = f"branch {b['control_outcome']}"
            if b["reachable"] != reachable_ref:
                errs.append(f"{at}: reachable {b['reachable']}, reference {reachable_ref}")
                continue
            if not _close(b["probability"], p_ref, PROB_TOL):
                errs.append(f"{at}: probability {b['probability']!r}, reference {p_ref!r}")
            if b["reachable"]:
                errs += _check_state(at, b["client_state"], 2 ** (m * k))
                if not _close(b["ghz_fidelity"], fid_ref, PROB_TOL):
                    errs.append(f"{at}: ghz_fidelity {b['ghz_fidelity']!r}, "
                                f"reference {fid_ref!r}")
        return errs

    return check_summary if report == "summary" else check_branches


def _map_op(path: str, n: int) -> Op:
    import qswitch.gates as gates
    import qswitch.netsim as netsim

    data = np.load(path)
    control, us, uts, phis = data["control"], data["u"], data["u_tilde"], data["phi"]
    p_expected, fid_expected = refmodel.mapping_expectation(control)
    labels = {"".join(bits) for bits in product("+-", repeat=n)}

    def call():
        pairs = [gates.UnitaryPair(u, ut) for u, ut in zip(us, uts)]
        return netsim.map_entanglement(control, pairs, list(phis))

    def check(branches) -> list:
        if {b.control_outcome for b in branches} != labels or len(branches) != 2**n:
            return [f"{len(branches)} branches, expected all {2**n} coherent outcomes"]
        errs = _check_total("branches", [b.probability for b in branches])
        for b in branches:
            at = f"branch {b.control_outcome}"
            if not b.reachable:
                errs.append(f"{at}: unreachable, expected probability {p_expected!r}")
                continue
            if not _close(b.probability, p_expected, SUM_TOL):
                errs.append(f"{at}: probability {b.probability!r}, expected {p_expected!r}")
            errs += _check_state(at, [(z.real, z.imag) for z in b.client_state], 2**n)
            if not _close(b.ghz_fidelity, fid_expected, PROB_TOL):
                errs.append(f"{at}: ghz_fidelity {b.ghz_fidelity!r}, "
                            f"expected {fid_expected!r}")
        return errs

    return Op(f"map_entanglement n={n}", call, check)


def build_network(tmp: str, rng, size: dict, reference: dict) -> Workload:
    ops = []
    for m, k, control in size["topologies"]:
        key = topology_key(m, k, control)
        path = _write_json(os.path.join(tmp, f"topology_{key}.json"), topology(m, k, control))
        for report in ("summary", "branches"):
            ops.append(cli_op(f"netsim {key} {report}",
                              ["netsim", "--topology", path, "--report", report],
                              _netsim_check(m, k, control, report, reference["network"][key])))
    for n in size["map_qubits"]:
        us, uts, phis = zip(*[refmodel.orthogonal_qubit(rng) for _ in range(n)])
        path = os.path.join(tmp, f"map_{n}.npz")
        np.savez(path, control=refmodel.random_state(rng, 2**n), u=np.array(us),
                 u_tilde=np.array(uts), phi=np.array(phis))
        ops.append(_map_op(path, n))
    warmup = ["netsim", "--topology",
              _write_json(os.path.join(tmp, "warmup.json"), topology(2, 2, "ghz"))]
    return Workload([ops[i] for i in rng.permutation(len(ops))], warmup)


# -- verify-classify -----------------------------------------------------------

VERIFY_PROTOCOLS = (("bell", 2), ("ghz", 3), ("w", 3))
FAMILIES = ("orthogonal", "generic", "aligned")


def _qubit(rng, family: str):
    """(u, u_tilde, phi) with overlap 0 (orthogonal), 1 (aligned) or in between."""
    if family == "orthogonal":
        return refmodel.orthogonal_qubit(rng)
    if family == "aligned":  # commuting gates: both orders coincide
        u = refmodel.haar_unitary(rng)
        return u, u @ u, refmodel.random_state(rng, 2)
    while True:
        q = (refmodel.haar_unitary(rng), refmodel.haar_unitary(rng),
             refmodel.random_state(rng, 2))
        if 0.05 <= abs(refmodel.overlap(*q)) <= 0.95:
            return q


def _as_parsed(qubits):
    """The values the program sees after parsing the literals and normalising inputs."""
    return [(u, ut, phi / np.linalg.norm(phi)) for u, ut, phi in qubits]


def _verify_spec(rng, protocol: str, n: int, family: str):
    while True:
        qubits = [_qubit(rng, "generic" if family == "aligned" else family) for _ in range(n)]
        if family == "aligned":
            qubits[rng.integers(n)] = _qubit(rng, "aligned")
        parsed = _as_parsed(qubits)
        if refmodel.well_conditioned(protocol, parsed):
            break
    doc = {
        "version": 1, "protocol": protocol, "n": n,
        "pairs": [{"u": refmodel.matrix_literal(u), "u_tilde": refmodel.matrix_literal(ut)}
                  for u, ut, _ in qubits],
        "input": {"amplitudes": [[refmodel.complex_literal(a) for a in phi]
                                 for _, _, phi in qubits]},
        "control": "even",
    }
    return doc, parsed


def _verify_check(protocol: str, qubits):
    overlaps = [refmodel.overlap(*q) for q in qubits]
    expected = {
        "all_orthogonal": all(abs(z) < refmodel.CONDITION_TOL for z in overlaps),
        "any_aligned": any(abs(z) > 1.0 - refmodel.CONDITION_TOL for z in overlaps),
    }
    expected["separable"] = expected["any_aligned"]
    classes = None
    if len(qubits) == 3:
        classes = {label: refmodel.classify3(state)
                   for label, _, state in refmodel.outcomes(protocol, qubits)
                   if state is not None}

    def check(doc: dict) -> list:
        errs = [f"{k} = {doc.get(k)}, expected {v}" for k, v in expected.items()
                if doc.get(k) is not v]
        got = doc.get("per_qubit_overlap", [])
        if len(got) != len(overlaps):
            errs.append(f"{len(got)} overlaps for {len(overlaps)} qubits")
        else:
            for q, ((re, im), z) in enumerate(zip(got, overlaps)):
                if abs(complex(re, im) - z) > PROB_TOL:
                    errs.append(f"qubit {q}: overlap {complex(re, im)!r}, expected {z!r}")
        if doc.get("tol") != refmodel.CONDITION_TOL:
            errs.append(f"tol = {doc.get('tol')}")
        if doc.get("outcome_classes") != classes:
            errs.append(f"outcome_classes {doc.get('outcome_classes')}, expected {classes}")
        return errs

    return check


def build_verify_classify(tmp: str, rng, size: dict, reference: dict) -> Workload:
    ops = []
    for i in range(size["verify_specs"]):
        protocol, n = VERIFY_PROTOCOLS[i % 3]
        family = FAMILIES[(i // 3) % 3]
        doc, parsed = _verify_spec(rng, protocol, n, family)
        path = _write_json(os.path.join(tmp, f"spec_{i:03d}.json"), doc)
        ops.append(cli_op(f"verify spec_{i:03d} ({protocol}{n}, {family})",
                          ["verify", "--spec", path], _verify_check(protocol, parsed)))
    warmup = ["verify", "--spec", _write_json(os.path.join(tmp, "warmup.json"),
                                              paper_spec("bell", 2))]
    return Workload(ops, warmup)


BUILD = {
    "sweep-grid": build_sweep_grid,
    "wide-run": build_wide_run,
    "network": build_network,
    "verify-classify": build_verify_classify,
}
