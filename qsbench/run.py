#!/usr/bin/env python3
"""qswitch benchmark: four seeded workloads through the public entry points.

Usage (from the repository root):

    python3 qsbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload is a single-process closed loop: one caller issues the next
operation only after the previous one returns. A pass runs every operation of
the workload once; the run repeats passes for ``--seconds`` (at least three)
and checks every output. ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer metrics, from traced passes interleaved with
untraced ones. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs every workload in both modes, each in a fresh process.

The program is imported from ``src/`` next to this directory and runs with its
own defaults: the benchmark sets no thread or BLAS variable.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from functools import reduce
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("sweep-grid", "wide-run", "network", "verify-classify")
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# name -> (unit, end-to-end metric and workloads it should move)
PER_LAYER = {
    "cli.self_s": ("s", "wall_s on verify-classify (parsing) and wide-run (formatting)"),
    "cli.out_bytes": ("bytes", "wall_s on wide-run and verify-classify"),
    "switch.self_s": ("s", "wall_s on wide-run and sweep-grid"),
    "switch.calls": ("count", "wall_s on sweep-grid"),
    "switch.peak_alloc_mb": ("MB", "peak_rss_mb on wide-run"),
    "switch.reachable_ratio": ("ratio", "wall_s on wide-run and sweep-grid"),
    "gates.self_s": ("s", "wall_s on wide-run and verify-classify"),
    "gates.local_tensor_s": ("s", "wall_s on wide-run"),
    "gates.parse_gate_s": ("s", "wall_s on verify-classify"),
    "gates.parse_gate_calls": ("count", "wall_s on verify-classify"),
    "metrics.self_s": ("s", "wall_s on sweep-grid and verify-classify"),
    "metrics.concurrence_s": ("s", "wall_s on sweep-grid (pure) and verify-classify (mixed)"),
    "metrics.concurrence_calls": ("count", "wall_s on sweep-grid and verify-classify"),
    "metrics.gme_concurrence_s": ("s", "wall_s on sweep-grid"),
    "metrics.gme_concurrence_calls": ("count", "wall_s on sweep-grid"),
    "verify.self_s": ("s", "wall_s on network and verify-classify"),
    "verify.check_max_entanglement_s": ("s", "wall_s on network and verify-classify"),
    "verify.canonical_lu_s": ("s", "wall_s on network"),
    "verify.certify_class_s": ("s", "wall_s on verify-classify"),
    "verify.apply_local_unitaries_s": ("s", "wall_s on network"),
    "verify.apply_local_unitaries_calls": ("count", "wall_s on network"),
    "sweep.self_s": ("s", "wall_s on sweep-grid"),
    "sweep.run_sweep_self_s": ("s", "wall_s on sweep-grid"),
    "sweep.points": ("count", "wall_s on sweep-grid"),
    "sweep.cpu_util": ("ratio", "wall_s on sweep-grid"),
    "sweep.export_s": ("s", "wall_s on sweep-grid"),
    "sweep.export_bytes": ("bytes", "wall_s on sweep-grid"),
    "netsim.self_s": ("s", "wall_s on network"),
    "netsim.run_hierarchy_s": ("s", "wall_s on network"),
    "netsim.map_entanglement_s": ("s", "wall_s on network"),
    "netsim.branches": ("count", "wall_s on network"),
    "netsim.reachable_ratio": ("ratio", "wall_s on network"),
    "linalg.self_s": ("s", "wall_s on network and sweep-grid"),
    "linalg.kron_all_s": ("s", "wall_s on network and sweep-grid"),
    "linalg.kron_all_calls": ("count", "wall_s on network and sweep-grid"),
    "trace.overhead_s": ("s", "nothing: it is traced minus untraced wall_s"),
}
SETUP_REPEATS = {"full": 5, "tiny": 2}
MIN_PASSES = 3
THREAD_VARS = ("SWITCH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CHILD_TIMEOUT_S = 170
# Median time of SpeedProbe's kernel on the 2-CPU machine where the benchmark
# was defined; reported times are rescaled to that machine speed.
CAL_REF_S = 0.035


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    """Import qswitch from ``src/`` of this checkout, never from elsewhere."""
    if not (SRC / "qswitch" / "cli.py").is_file():
        raise BenchError(f"no qswitch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qswitch.cli

    if not Path(qswitch.cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported qswitch from {qswitch.cli.__file__}, not {SRC}")
    return qswitch.cli


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


# -- environment -----------------------------------------------------------------


def _blas_threads():
    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
    }


def input_digest(tmp: str, workload) -> str:
    """sha256 of the generated files and the operations' arguments, path-independent."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(tmp)):
        h.update(name.encode())
        h.update(Path(tmp, name).read_bytes())
    argvs = [op.argv or op.name for op in workload.ops] + [workload.warmup_argv]
    h.update(json.dumps(argvs).replace(tmp, "<tmp>").encode())
    return h.hexdigest()


# -- measurement -----------------------------------------------------------------


def measure_setup(warmup_argv: list, repeats: int, probe) -> tuple[list, int]:
    """Wall times of fresh interpreters importing qswitch.cli and running the warm-up."""
    times, failed = [], 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), json.dumps(warmup_argv)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
        probe.sample()
        if proc.returncode != 0:
            failed += 1
            print(f"FAILED setup probe: exit {proc.returncode}: {proc.stderr.strip()[-300:]}",
                  file=sys.stderr)
    return times, failed


class SpeedProbe:
    """Measures the machine's speed during a run with a fixed kernel.

    The CPU speed of a shared machine drifts by tens of percent over seconds
    (a pure-Python loop varies that much), which would swamp changes of a
    few percent. The kernel is timed after every pass and every set-up
    probe; ``factor()`` is CAL_REF_S over the median of those times, and
    multiplying a median wall time of the run by it gives the time at the
    reference speed. The median ignores the few kernels that a burst of
    stolen CPU time hits. The kernel mixes the kinds of work the package
    does: interpreter loops, small numpy calls, a BLAS matrix product and
    dense Kronecker products applied to a vector.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        self.b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        self.v = rng.normal(size=32) + 0j
        self.h = self.a + self.a.conj().T
        self.m = rng.normal(size=(384, 384)) + 1j * rng.normal(size=(384, 384))
        self.factors = [rng.normal(size=(2, 2)) + 0j for _ in range(8)]
        self.vector = rng.normal(size=256) + 0j
        self.kernel()  # the first call is slower: it warms numpy up
        self.times = []

    def kernel(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        s = 0
        for i in range(100_000):
            s += i * i % 7
        for _ in range(400):
            np.kron(self.a, self.b) @ self.v
            np.linalg.eigvalsh(self.h)
        self.m @ self.m
        for _ in range(8):
            reduce(np.kron, self.factors) @ self.vector
        return time.perf_counter() - t0

    def sample(self) -> None:
        self.times.append(self.kernel())

    def factor(self) -> float:
        return CAL_REF_S / statistics.median(self.times)


class Passes:
    """Runs passes over a workload's operations and checks every output."""

    def __init__(self, ops, probe: SpeedProbe):
        self.ops = ops
        self.probe = probe
        self.attempted = 0
        self.failed = 0

    def run(self) -> tuple[float, list]:
        """(wall time, outputs) of one pass; the speed probe runs right after it."""
        t0 = time.perf_counter()
        outputs = [op.call() for op in self.ops]
        wall = time.perf_counter() - t0
        self.probe.sample()
        for op, out in zip(self.ops, outputs):
            self.attempted += 1
            try:
                errs = op.check(out)
            except Exception as exc:  # a malformed output fails its check
                errs = [f"check raised {type(exc).__name__}: {exc}"]
            if errs:
                self.failed += 1
                print(f"FAILED {op.name}: " + "; ".join(map(str, errs[:3])), file=sys.stderr)
        return wall, outputs


def _out_bytes(outputs) -> int:
    return sum(len(o.out.encode()) for o in outputs if hasattr(o, "out"))


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 reference: dict) -> dict:
    """One run of one workload; returns the result object and the report lines."""
    import numpy as np

    import workloads

    import_program()
    lines = [f"qsbench workload={name} seed={seed} seconds={seconds} trace={int(trace)} "
             f"size={size}", "env " + json.dumps(environment(), sort_keys=True)]
    tmp = tempfile.mkdtemp(prefix=".qsbench-", dir=ROOT)
    try:
        workload = workloads.BUILD[name](tmp, np.random.default_rng(seed),
                                         workloads.SIZES[size], reference)
        lines.append(f"inputs seed={seed} sha256={input_digest(tmp, workload)} "
                     f"ops_per_pass={len(workload.ops)}")
        passes = Passes(workload.ops, SpeedProbe())
        metrics, detail = {}, {}
        if not trace:
            setup, failed = measure_setup(workload.warmup_argv, SETUP_REPEATS[size],
                                          passes.probe)
            passes.attempted += len(setup)
            passes.failed += failed
        warm = workloads.call_cli(workload.warmup_argv)
        if warm.rc != 0:
            passes.attempted += 1
            passes.failed += 1
            print(f"FAILED warm-up: exit {warm.rc}: {warm.err.strip()[:300]}", file=sys.stderr)
        if trace:
            metrics.update(_traced(passes, seconds, detail))
        else:
            walls = []
            start = time.perf_counter()
            while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
                walls.append(passes.run()[0])
            factor = passes.probe.factor()
            q1, q3 = _quartiles(walls)
            metrics["wall_s"] = statistics.median(walls) * factor
            detail["wall_s"] = (f"median of {len(walls)} passes x speed factor {factor:.4f}; "
                                f"measured median {statistics.median(walls):.4f} s, "
                                f"q1 {q1:.4f} q3 {q3:.4f}")
            metrics["setup_s"] = statistics.median(setup) * factor
            detail["setup_s"] = (f"median of {len(setup)} fresh interpreters x speed factor; "
                                 f"measured {statistics.median(setup):.4f} s")
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            detail["peak_rss_mb"] = "ru_maxrss of this process"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    units = {k: v[0] for k, v in PER_LAYER.items()} if trace else END_TO_END
    for key, unit in units.items():
        lines.append(f"metric {name} {key} = {metrics[key]:.6g} {unit}"
                     + (f"  ({detail[key]})" if key in detail else ""))
    error_rate = passes.failed / passes.attempted
    lines.append(f"error_rate {name} = {error_rate:.6g} ({passes.failed} failed "
                 f"of {passes.attempted} attempted)")
    result = {
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    return {"result": result, "lines": lines}


def _traced(passes: Passes, seconds: float, detail: dict) -> dict:
    """Per-layer metrics: a tracemalloc pass, then untraced and traced passes in turn."""
    from tracer import Tracer, summarize

    tracer = Tracer()
    tracemalloc.start()
    tracer.install(memory=True)
    try:
        passes.run()
    finally:
        tracer.uninstall()
        tracemalloc.stop()
    peak_mb = summarize(tracer.take_spans())["switch.peak_alloc_mb"]
    untraced, traced, samples = [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        untraced.append(passes.run()[0])
        tracer.install()
        try:
            wall, outputs = passes.run()
        finally:
            tracer.uninstall()
        traced.append(wall)
        sample = summarize(tracer.take_spans())
        sample["cli.out_bytes"] = _out_bytes(outputs)
        samples.append(sample)
    metrics = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    metrics["switch.peak_alloc_mb"] = peak_mb
    metrics["trace.overhead_s"] = ((statistics.median(traced) - statistics.median(untraced))
                                   * passes.probe.factor())
    for key in metrics:
        detail[key] = f"median of {len(samples)} traced passes"
    detail["switch.peak_alloc_mb"] = "largest tracemalloc peak of one call, one pass"
    detail["trace.overhead_s"] = f"{len(traced)} traced vs {len(untraced)} untraced passes"
    if tracer.absent:
        detail["trace.overhead_s"] += "; absent: " + ", ".join(tracer.absent)
    for key, (_, moves) in PER_LAYER.items():
        detail[key] += f"; should move {moves}"
    return metrics


def run_all(args) -> int:
    """Every workload in both modes, each in a fresh process; prints a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--size", args.size],
                cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            sys.stderr.write(proc.stderr)
            out = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not out:
                raise BenchError(f"{name} trace={trace} exited {proc.returncode}")
            print("\n".join(out[:-1]), flush=True)
            result = json.loads(out[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                combined["metrics"][f"{name}:{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same workloads at small sizes, for tests")
    args = parser.parse_args(argv)
    # a terminated run still removes its temporary inputs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.workload == "all":
            return run_all(args)
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.size, load_reference())
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"qsbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
