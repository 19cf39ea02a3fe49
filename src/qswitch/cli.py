"""Command line entry point: run, verify, sweep and netsim workflows.

This module only parses arguments, reads files and formats output; spec and
topology documents are parsed and validated by ``documents``, and all
numerics live in the library modules. A command line that starts with a verb
is parsed once, by that verb's own parser.

The ``run`` and ``netsim`` readouts (``switch.Readout``) and the ``verify``
report are written straight to text by ``emit``, as are the sweep files; the
``netsim`` summary is computed from the readout's columns, and it and the
``sweep`` summary line go through ``json.dumps``.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import emit, netsim, sweep as sweep_mod, verify as verify_mod
from .documents import parse_spec, parse_topology
from .switch import branch_readout, protocol_plan, run as run_switch

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

SPEC_SCHEMA = """\
switch spec JSON:
  {"version": 1, "protocol": "bell"|"ghz"|"w", "n": <int>,
   "pairs": [{"u": <gate>, "u_tilde": <gate>}, ...],
   "input": {"alpha": <real>} | {"amplitudes": [["a+bi", "a+bi"], ...]},
   "control": "even"}
  <gate> := identity | pauli_x | pauli_y | pauli_z | ry(<radians>) | matrix([[a, b], [c, d]])

topology JSON:
  {"entanglers": [{"id": "e1", "clients": 3}, ...],
   "gates": {"u": <gate>, "u_tilde": <gate>}, "alpha": <real>,
   "control": "ghz"|"plus_product"}
"""


def _json_object(pairs: list) -> dict:
    """A JSON object from its (name, value) pairs, refusing the first name met twice."""
    doc, seen = dict(pairs), set()
    if len(doc) < len(pairs):
        raise ValueError(f"duplicate key {next(k for k, _ in pairs if k in seen or seen.add(k))!r}")
    return doc


# Built once per process: json.load with any keyword builds a new decoder on every call.
_DECODER = json.JSONDecoder(object_pairs_hook=_json_object)


def _load(path: str, parse):
    """Read the JSON document at ``path`` and ``parse`` it into its type."""
    try:  # an OSError names the path and reaches main as an I/O error
        with open(path) as fh:
            text = fh.read()
        if text.startswith("\ufeff"):  # json.loads' own check, which a decoder does not make
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:
        # malformed JSON, a repeated name, bad UTF-8, an over-long integer or nesting too deep
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc
    return parse(doc)


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _cmd_run(args) -> int:
    spec = _load(args.spec, parse_spec)
    emit.write_readout(run_switch(spec), sys.stdout)
    return EXIT_OK


def _cmd_verify(args) -> int:
    spec = _load(args.spec, parse_spec)
    try:
        report = verify_mod.check_max_entanglement(spec, args.tol)
    except ValueError as exc:
        raise ValueError(f"bad --tol: {exc}") from exc
    classes = None
    if spec.n == 3:  # a class does not change with the global phase, which run would fix
        plan = protocol_plan(spec.protocol, 3)
        _, reachable, states = branch_readout(plan, spec.ends)
        classes = {label: verify_mod.certify_class(state)
                   for label, live, state in zip(plan[0], reachable.tolist(), states) if live}
    emit.write_verify(report, classes, sys.stdout)
    return EXIT_OK


_PROTOCOL_CHOICES = {
    "bell": ("bell", 2),
    "ghz3": ("ghz", 3),
    "ghz4": ("ghz", 4),
    "w3": ("w", 3),
}


def _cmd_sweep(args) -> int:
    protocol, n = _PROTOCOL_CHOICES[args.protocol]
    plan = sweep_mod.default_plan(protocol, n, args.lambda_steps, args.alpha_steps)
    table = sweep_mod.run_sweep(plan)
    sweep_mod.export(table, args.format, args.out)
    _print_json({"rows": len(table), "path": args.out, "format": args.format})
    return EXIT_OK


def _cmd_netsim(args) -> int:
    topo = _load(args.topology, parse_topology)
    r = netsim.run_hierarchy(topo)
    if args.report == "branches":
        emit.write_readout(r, sys.stdout)
    else:
        _print_json(
            {
                "clients": topo.total_clients,
                "entanglers": len(topo.entanglers),
                "branches": len(r.labels),
                "reachable_branches": int(r.reachable.sum()),
                "min_ghz_fidelity": emit.round12(min(r.fidelity[r.reachable].tolist())),
                # Python's sum, not np.sum, whose pairwise sum can move the last bit
                "total_probability": emit.round12(sum(r.probability.tolist())),
            }
        )
    return EXIT_OK


def build_parser(verbs: dict | None = None) -> argparse.ArgumentParser:
    """The ``qswitch`` parser; each verb's own parser also goes into ``verbs``, if given."""
    parser = argparse.ArgumentParser(
        prog="qswitch",
        description="Deterministic entanglement generation from superposed causal orders.",
        epilog=SPEC_SCHEMA,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run a protocol spec and print its outcomes and states")
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
    if verbs is not None:
        verbs.update(run=p_run, verify=p_verify, sweep=p_sweep, netsim=p_net)
    return parser


# Built once per process: parse_args keeps no state between calls, and
# building the parser costs more than a whole small verify. A request is parsed
# once, by its verb's parser; _PARSER parses only what that parser cannot take.
_VERBS: dict = {}
_PARSER = build_parser(_VERBS)


def _parse(argv) -> argparse.Namespace:
    """The verb's own parse if it takes the whole line with no '--' (which argparse has handled
    differently across releases); else ``_PARSER``'s, with argparse's own usage and errors."""
    if argv and argv[0] in _VERBS and "--" not in argv:
        args, extras = _VERBS[argv[0]].parse_known_args(argv[1:])
        if not extras:
            return args
    return _PARSER.parse_args(argv)


def main(argv=None) -> int:
    """Run one command line: 0 on success, 1 on bad input (any ``ValueError``), 2 on I/O."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
