"""Command line entry point: run, verify, sweep and netsim workflows.

This module only parses arguments, reads files and formats output; documents
are parsed and validated by the modules that own their types, and all
numerics live in the library modules.

The large documents, the ``run`` outcome ensemble and the ``netsim --report
branches`` list, are written by ``emit``, as are the sweep files. The small
ones, the ``verify`` report, the ``netsim`` summary and the ``sweep`` summary
line, go through ``json.dumps``.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import emit, netsim, sweep as sweep_mod, verify as verify_mod
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
   "control": "ghz"|"plus_product", "link_loss": {"e1": 0, ...}, "coordinator": <any>}
"""


class ValidationError(Exception):
    pass


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
    emit.write_ensemble(run_switch(spec), sys.stdout)
    return EXIT_OK


def _cmd_verify(args) -> int:
    spec = _load(args.spec, SwitchSpec.from_document)
    try:
        report = verify_mod.check_max_entanglement(spec, tol=args.tol)
    except ValueError as exc:
        raise ValidationError(f"bad --tol: {exc}") from exc
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
        plan = sweep_mod.default_plan(protocol, n, args.lambda_steps, args.alpha_steps)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    records = sweep_mod.run_sweep(plan)
    sweep_mod.export(records, args.format, args.out)
    _print_json({"rows": len(records), "path": args.out, "format": args.format})
    return EXIT_OK


def _cmd_netsim(args) -> int:
    topo = _load(args.topology, netsim.topology_from_json)
    try:
        branches = netsim.run_hierarchy(topo)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    if args.report == "branches":
        emit.write_branches(branches, sys.stdout)
    else:
        reachable = [b for b in branches if b.reachable]
        _print_json(
            {
                "clients": topo.total_clients,
                "entanglers": len(topo.entanglers),
                "branches": len(branches),
                "reachable_branches": len(reachable),
                "min_ghz_fidelity": emit.round12(min(b.ghz_fidelity for b in reachable)),
                "total_probability": emit.round12(sum(b.probability for b in branches)),
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
    p_verify.add_argument("--tol", type=float, default=verify_mod.CONDITION_TOL,
                          help="condition tolerance, 0 < tol < 0.5")
    p_verify.set_defaults(handler=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="sweep the rotation/input grids and export records")
    p_sweep.add_argument("--protocol", choices=sorted(_PROTOCOL_CHOICES), required=True)
    p_sweep.add_argument("--lambda-steps", type=int, default=33)
    p_sweep.add_argument("--alpha-steps", type=int, default=33)
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
