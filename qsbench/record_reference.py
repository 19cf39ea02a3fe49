#!/usr/bin/env python3
"""Record reference.json: expected values of the seed-independent operations.

Usage (from the repository root): python3 qsbench/record_reference.py

Runs the sweep-grid, wide-run and network CLI operations of both sizes once
and keeps what the checks compare against: sweep rows on every fourth grid
point of the 33x33 grid (which holds every point of the tiny 5x5 grid),
probabilities and leading amplitudes of the wide `run` outputs, and the
netsim summaries and branch tables. Record again only when a change of
these outputs is intended, and say so where the change is described.
"""
import json
import os
import tempfile

import run
import workloads as w


def _cli(argv: list) -> dict:
    res = w.call_cli(argv)
    if res.rc != 0:
        raise SystemExit(f"{argv}: exit {res.rc}: {res.err}")
    return json.loads(res.out)


def record(tmp: str) -> dict:
    steps = w.SIZES["full"]["sweep_steps"]
    ref = {"sweep": {}, "wide": {}, "network": {}}
    for protocol, _ in w.SWEEPS:
        path = os.path.join(tmp, f"{protocol}.csv")
        _cli(["sweep", "--protocol", protocol, "--lambda-steps", str(steps),
              "--alpha-steps", str(steps), "--out", path, "--format", "csv"])
        rows = w.read_sweep(path, "csv")
        lams = sorted({r[0] for r in rows})
        alphas = sorted({r[1] for r in rows})
        ref["sweep"][protocol] = [
            [lam, alpha, outcome, p, metric] for lam, alpha, outcome, p, metric, _ in rows
            if lams.index(lam) % 4 == 0 and alphas.index(alpha) % 4 == 0
        ]
    for protocol in ("ghz", "w"):
        for n in sorted({n for size in w.SIZES.values() for n in size["wide_n"]}):
            path = os.path.join(tmp, "spec.json")
            with open(path, "w") as fh:
                json.dump(w.paper_spec(protocol, n), fh)
            ref["wide"][f"{protocol}-{n}"] = w.wide_fingerprint(_cli(["run", "--spec", path]))
    for m, k, control in sorted({t for size in w.SIZES.values() for t in size["topologies"]}):
        path = os.path.join(tmp, "topology.json")
        with open(path, "w") as fh:
            json.dump(w.topology(m, k, control), fh)
        summary = _cli(["netsim", "--topology", path, "--report", "summary"])
        branches = _cli(["netsim", "--topology", path, "--report", "branches"])["branches"]
        ref["network"][w.topology_key(m, k, control)] = {
            "summary": summary,
            "branches": [[b["control_outcome"], b["probability"], b["reachable"],
                          b.get("ghz_fidelity")] for b in branches],
        }
    return ref


def main() -> None:
    run.import_program()
    with tempfile.TemporaryDirectory(prefix=".qsbench-", dir=run.ROOT) as tmp:
        ref = record(tmp)
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
