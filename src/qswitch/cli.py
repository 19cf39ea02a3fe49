"""Command line entry point: run, verify, sweep and netsim workflows.

This module only parses arguments, reads files and formats output; documents
are parsed and validated by the modules that own their types, and all
numerics live in the library modules.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import netsim, sweep as sweep_mod, verify as verify_mod
from .switch import SwitchSpec, run as run_switch

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

SPEC_SCHEMA = """\
switch spec JSON:
  {"version": 1, "protocol": "bell"|"ghz"|"w", "n": <int>,
   "pairs": [{"u": <gate>, "u_tilde": <gate>}, ...],
   "input": {"alpha": <real>} | {"amplitudes": [["a+bi", "a+bi"], ...]},
   "control": "even"}
  <gate> := identity | pauli_x | pauli_y | pauli_z | ry(<radians>) | matrix([[..],[..]])

topology JSON:
  {"entanglers": [{"id": "e1", "clients": 3}, ...],
   "gates": {"u": <gate>, "u_tilde": <gate>}, "alpha": <real>,
   "control": "ghz"|"plus_product"}
"""


class ValidationError(Exception):
    pass


def _fmt(x: float) -> float:
    return float(format(x, ".12g"))


def _state_doc(state) -> list[list[float]]:
    return [[_fmt(z.real), _fmt(z.imag)] for z in state]


def _ensemble_doc(ensemble) -> dict:
    outcomes = []
    for o in ensemble:
        doc = {"label": o.label, "probability": _fmt(o.probability), "reachable": o.reachable}
        if o.reachable:
            doc["state"] = _state_doc(o.state)
        outcomes.append(doc)
    return {"outcomes": outcomes}


def _load(path: str, parse):
    """Read the JSON document at ``path`` and ``parse`` it into its type."""
    try:  # an OSError names the path and reaches main as an I/O error
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # malformed JSON, bad UTF-8 or an over-long integer
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc
    try:
        return parse(doc)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _cmd_run(args) -> int:
    spec = _load(args.spec, SwitchSpec.from_document)
    _print_json(_ensemble_doc(run_switch(spec)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValidationError(f"--tol must be finite and positive, got {args.tol}")
    spec = _load(args.spec, SwitchSpec.from_document)
    report = verify_mod.check_max_entanglement(spec, tol=args.tol)
    doc = report.to_document()
    doc["separable"] = report.any_aligned
    if spec.n == 3:
        classes = {}
        for o in run_switch(spec).reachable():
            classes[o.label] = verify_mod.certify_class(o.state)
        doc["outcome_classes"] = classes
    _print_json(doc)
    return EXIT_OK


_PROTOCOL_CHOICES = {
    "bell": ("bell", 2),
    "ghz3": ("ghz", 3),
    "ghz4": ("ghz", 4),
    "w3": ("w", 3),
}


def _cmd_sweep(args) -> int:
    protocol, n = _PROTOCOL_CHOICES[args.protocol]
    try:
        plan = sweep_mod.default_plan(
            protocol, n, lambda_steps=args.lambda_steps,
            alpha_steps=args.alpha_steps, metric=args.metric,
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    records = sweep_mod.run_sweep(plan)
    sweep_mod.export(records, args.format, args.out)
    _print_json({"rows": len(records), "path": args.out, "format": args.format})
    return EXIT_OK


def _branch_doc(b: netsim.BranchResult, include_state: bool) -> dict:
    doc = {
        "control_outcome": b.control_outcome,
        "probability": _fmt(b.probability),
        "reachable": b.reachable,
    }
    if b.reachable:
        doc["ghz_fidelity"] = _fmt(b.ghz_fidelity)
        if include_state:
            doc["client_state"] = _state_doc(b.client_state)
    return doc


def _cmd_netsim(args) -> int:
    topo = _load(args.topology, netsim.topology_from_json)
    try:
        branches = netsim.run_hierarchy(topo)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    if args.report == "branches":
        _print_json({"branches": [_branch_doc(b, include_state=True) for b in branches]})
    else:
        reachable = [b for b in branches if b.reachable]
        _print_json(
            {
                "clients": topo.total_clients,
                "entanglers": len(topo.entanglers),
                "branches": len(branches),
                "reachable_branches": len(reachable),
                "min_ghz_fidelity": _fmt(min(b.ghz_fidelity for b in reachable)),
                "total_probability": _fmt(sum(b.probability for b in branches)),
            }
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qswitch",
        description="Deterministic entanglement generation from superposed causal orders.",
        epilog=SPEC_SCHEMA,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run a protocol spec and print the outcome ensemble")
    p_run.add_argument("--spec", required=True, help="path to a switch spec JSON document")
    p_run.set_defaults(handler=_cmd_run)

    p_verify = sub.add_parser("verify", help="evaluate the generation conditions for a spec")
    p_verify.add_argument("--spec", required=True)
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.set_defaults(handler=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="sweep the rotation/input grids and export records")
    p_sweep.add_argument("--protocol", choices=sorted(_PROTOCOL_CHOICES), required=True)
    p_sweep.add_argument("--lambda-steps", type=int, default=33)
    p_sweep.add_argument("--alpha-steps", type=int, default=33)
    p_sweep.add_argument("--metric", choices=["auto", "concurrence", "gme_concurrence"],
                         default="auto")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_net = sub.add_parser("netsim", help="simulate a coordinator/entangler topology")
    p_net.add_argument("--topology", required=True, help="path to a topology JSON document")
    p_net.add_argument("--report", choices=["branches", "summary"], default="summary")
    p_net.set_defaults(handler=_cmd_netsim)
    return parser


# Built once per process: parse_args keeps no state between calls, and
# building the parser costs more than a whole small verify.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
