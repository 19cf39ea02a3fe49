"""Span tracer for the traced benchmark run, built from outside the package.

Every public function of each package module is wrapped at every place a
caller looks it up: the defining module and each module that bound it by name
(``sweep`` binds ``run`` and ``concurrence``, ``cli`` binds ``run`` as
``run_switch``). The public methods, class methods and constructors of the
module's public classes are wrapped on the class. A call records a span only when it enters a layer from
another layer, except for the functions named in ``NAMED``, whose every call
is recorded because their own time and count are metrics. Calls inside one
layer cost a stack check and nothing more.

Spans are kept in memory per pass. Each thread keeps its own stack; a span
that opens on an empty stack outside the main thread (a sweep pool worker)
takes the innermost open span of the main thread as its parent, so the
worker's time is subtracted from the sweep's self time. A named function the
package no longer has is listed in ``absent`` and its metrics read 0.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from itertools import count

LAYERS = ("cli", "sweep", "switch", "metrics", "verify", "netsim", "gates", "linalg")

NAMED = {
    "cli": ("main",),
    "sweep": ("run_sweep", "export"),
    "gates": ("local_tensor", "parse_gate"),
    "metrics": ("concurrence", "gme_concurrence"),
    "verify": ("check_max_entanglement", "canonical_lu", "certify_class",
               "apply_local_unitaries"),
    "netsim": ("run_hierarchy", "map_entanglement"),
    "linalg": ("kron_all",),
}


class Span:
    __slots__ = ("sid", "parent", "layer", "name", "t0", "t1", "info")

    def __init__(self, sid, parent, layer, name, t0, t1, info):
        self.sid, self.parent, self.layer, self.name = sid, parent, layer, name
        self.t0, self.t1, self.info = t0, t1, info


def _reachable(items):
    """(reachable, total) for a list of outcomes or branch results."""
    if not isinstance(items, (list, tuple)):
        return None
    return sum(1 for o in items if getattr(o, "reachable", False)), len(items)


def _export_bytes(args, kwargs):
    path = kwargs.get("path", args[2] if len(args) > 2 else None)
    return os.path.getsize(path) if isinstance(path, str) and os.path.exists(path) else 0


class Tracer:
    def __init__(self):
        self.package = [m for name, m in sys.modules.items()
                        if m is not None and (name == "qswitch" or name.startswith("qswitch."))]
        self.functions = {}  # function -> (layer, name)
        self.methods = []  # (class, attribute, raw attribute, layer, name)
        self.absent = []
        for layer in LAYERS:
            mod = sys.modules.get(f"qswitch.{layer}")
            found = {} if mod is None else {
                name: obj for name, obj in vars(mod).items()
                if (inspect.isfunction(obj) or inspect.isclass(obj))
                and obj.__module__ == mod.__name__ and not name.startswith("_")
            }
            for name, obj in found.items():
                if inspect.isfunction(obj):
                    self.functions[obj] = (layer, name)
                    continue
                for attr, raw in vars(obj).items():
                    fn = getattr(raw, "__func__", raw)
                    if inspect.isfunction(fn) and (
                            not attr.startswith("_") or attr in ("__init__", "__post_init__")):
                        self.methods.append((obj, attr, raw, layer, f"{name}.{attr}"))
            self.absent += [f"{layer}.{n}" for n in NAMED.get(layer, ())
                            if not inspect.isfunction(found.get(n))]
        self._bindings = []
        self._lock = threading.Lock()
        self._mem_lock = threading.RLock()
        self._local = threading.local()
        self._ids = count()
        self._main_stack = None
        self.memory = False
        self.spans: list[Span] = []

    # -- installation ------------------------------------------------------

    def install(self, memory: bool = False) -> None:
        """Replace every binding of a wrapped function; ``memory`` adds tracemalloc peaks."""
        self.memory = memory
        self._local = threading.local()
        self._main_stack = self._stack()
        wrappers = {fn: self._wrap(fn, *where) for fn, where in self.functions.items()}
        for mod in self.package:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._bindings.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        for cls, attr, raw, layer, name in self.methods:
            wrapper = self._wrap(getattr(raw, "__func__", raw), layer, name)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapper = type(raw)(wrapper)
            self._bindings.append((cls, attr, raw))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, val in self._bindings:
            setattr(mod, attr, val)
        self._bindings = []

    def take_spans(self) -> list[Span]:
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer, name):
        always = name in NAMED.get(layer, ())
        run_sweep = (layer, name) == ("sweep", "run_sweep")
        export = (layer, name) == ("sweep", "export")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            entry = not stack or stack[-1][1] != layer
            if not entry and not always:
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1][0]
            else:
                main = tracer._main_stack
                top = main[-1:] if stack is not main else ()  # a slice: atomic
                parent = top[0][0] if top else None
            sid = next(tracer._ids)
            info = {}
            stack.append((sid, layer))
            cpu0 = time.process_time() if run_sweep else 0.0
            t0 = time.perf_counter()
            try:
                if tracer.memory and layer == "switch" and entry:
                    with tracer._mem_lock:
                        tracemalloc.reset_peak()
                        base = tracemalloc.get_traced_memory()[0]
                        result = fn(*args, **kwargs)
                        info["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
                else:
                    result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            if run_sweep:
                info["cpu_s"] = time.process_time() - cpu0
                plan = args[0] if args else kwargs.get("plan")
                info["points"] = (len(getattr(plan, "lambda_grid", ()))
                                  * len(getattr(plan, "alpha_grid", ())))
            elif export:
                info["bytes"] = _export_bytes(args, kwargs)
            elif entry and layer == "switch" or always and layer == "netsim":
                counts = _reachable(getattr(result, "outcomes", None)
                                    if layer == "switch" else result)
                if counts is not None:
                    info["reachable"], info["total"] = counts
            with tracer._lock:
                tracer.spans.append(Span(sid, parent, layer, name, t0, t1, info))
            return result

        return wrapper


# -- per-pass summary --------------------------------------------------------


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass (see PER_LAYER in run.py for the list)."""
    layer_of = {s.sid: s.layer for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    self_s = defaultdict(float)
    fn_s = defaultdict(float)
    fn_calls = defaultdict(int)
    entries = defaultdict(int)
    info = defaultdict(float)
    for s in spans:
        dur = s.t1 - s.t0
        own = dur - _covered(children.get(s.sid, ()), s.t0, s.t1)
        self_s[s.layer] += own
        key = f"{s.layer}.{s.name}"
        fn_s[key] += dur
        fn_calls[key] += 1
        if layer_of.get(s.parent) != s.layer:
            entries[s.layer] += 1
        if key == "sweep.run_sweep":
            info["sweep_self"] += own
            info["sweep_wall"] += dur
        for k, v in s.info.items():
            if k == "peak_bytes":
                info[k] = max(info[k], v)
            else:
                info[f"{s.layer}.{k}"] += v
    m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    m.update({
        "switch.calls": entries["switch"],
        "switch.peak_alloc_mb": info["peak_bytes"] / 1e6,
        "switch.reachable_ratio": _ratio(info["switch.reachable"], info["switch.total"]),
        "gates.local_tensor_s": fn_s["gates.local_tensor"],
        "gates.parse_gate_s": fn_s["gates.parse_gate"],
        "gates.parse_gate_calls": fn_calls["gates.parse_gate"],
        "metrics.concurrence_s": fn_s["metrics.concurrence"],
        "metrics.concurrence_calls": fn_calls["metrics.concurrence"],
        "metrics.gme_concurrence_s": fn_s["metrics.gme_concurrence"],
        "metrics.gme_concurrence_calls": fn_calls["metrics.gme_concurrence"],
        "verify.check_max_entanglement_s": fn_s["verify.check_max_entanglement"],
        "verify.canonical_lu_s": fn_s["verify.canonical_lu"],
        "verify.certify_class_s": fn_s["verify.certify_class"],
        "verify.apply_local_unitaries_s": fn_s["verify.apply_local_unitaries"],
        "verify.apply_local_unitaries_calls": fn_calls["verify.apply_local_unitaries"],
        "sweep.run_sweep_self_s": info["sweep_self"],
        "sweep.points": info["sweep.points"],
        "sweep.cpu_util": _ratio(info["sweep.cpu_s"], info["sweep_wall"]),
        "sweep.export_s": fn_s["sweep.export"],
        "sweep.export_bytes": info["sweep.bytes"],
        "netsim.run_hierarchy_s": fn_s["netsim.run_hierarchy"],
        "netsim.map_entanglement_s": fn_s["netsim.map_entanglement"],
        "netsim.branches": info["netsim.total"],
        "netsim.reachable_ratio": _ratio(info["netsim.reachable"], info["netsim.total"]),
        "linalg.kron_all_s": fn_s["linalg.kron_all"],
        "linalg.kron_all_calls": fn_calls["linalg.kron_all"],
    })
    return m
