"""Text output of the result documents: the fixed document shapes written straight to text.

The outcome ensemble of ``qswitch run``, the branch list of ``qswitch netsim
--report branches`` and the sweep CSV and JSON files print every float
rounded to 12 significant digits. The states of a document hold up to 2^12
amplitudes each, drawn from few distinct values, so all the states of a
document share one table of their distinct parts, each formatted once. The
probabilities, fidelities and sweep columns are formatted once per distinct
value of each array. A sweep file is written from the columns of a sweep
table, with no per-row object. The ``qswitch verify`` report prints its
overlaps and ``tol`` at full precision. The bytes are those of
``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline (and of
``csv.writer``) on the same values; the tests keep that construction as the
reference.
"""
from __future__ import annotations

import json
import math

import numpy as np

def round12(x: float) -> float:
    """``x`` rounded to 12 significant digits, the precision of every document."""
    return float(format(x, ".12g"))


def _float_text(x: float) -> str:
    """The JSON text of ``x`` at full precision, as ``json.dumps`` writes it."""
    # float.__repr__ is json's own encoding of a finite float; json.dumps spells the rest
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


def _json_text(x: float) -> str:
    """The JSON text of ``x`` rounded to 12 significant digits."""
    return _float_text(round12(x))


def _texts(values, text) -> list[str]:
    """``text(x)`` of each value, called once per distinct value."""
    # keyed by bit pattern: keyed by float, -0.0 would merge into 0.0
    keys = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.int64).tolist()
    distinct = list(dict.fromkeys(keys))
    floats = np.array(distinct, dtype=np.int64).view(np.float64).tolist()
    return list(map(dict(zip(distinct, map(text, floats))).__getitem__, keys))


def _csv_text(x: float) -> str:
    return format(x, ".12g")


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _object(fields: dict) -> str:
    """An item of a document's top-level list from its fields' JSON texts, keys sorted."""
    body = ",\n      ".join(f'"{k}": {v}' for k, v in sorted(fields.items()))
    return "    {\n      " + body + "\n    }"


# the text after a real part, and after an imaginary part that is not the last,
# in a state list that is the value of a key of a top-level list item
_AFTER_RE = ",\n          "
_AFTER_IM = "\n        ],\n        [\n          "


def _states(states):
    """Yield each state's ``[[re, im], ...]`` list, from one table of the distinct parts of all."""
    if not states:
        return
    # keyed by bit pattern, so -0.0 stays apart from 0.0 and each NaN payload keeps its
    # own entry. One sort and a search per state make no Python object per part, and
    # hold one state's pieces at a time; not numpy's unique, whose first call in a process
    # adds ~0.5 MB of resident memory
    distinct = np.concatenate(states, dtype=complex).view(np.int64)
    distinct.sort()
    distinct = distinct[np.concatenate(([True], distinct[1:] != distinct[:-1]))]
    texts = list(map(_json_text, distinct.view(np.float64).tolist()))
    after_re = np.array([t + _AFTER_RE for t in texts], dtype=object)
    after_im = np.array([t + _AFTER_IM for t in texts], dtype=object)
    for state in states:
        index = np.searchsorted(distinct, np.ascontiguousarray(state, dtype=complex).view(np.int64))
        pieces = np.empty(len(index), dtype=object)
        pieces[0::2] = after_re[index[0::2]]
        pieces[1::2] = after_im[index[1::2]]
        pieces[-1] = texts[index[-1]] + "\n        ]"
        yield "[\n        [\n          " + "".join(pieces.tolist()) + "\n      ]"


def _write_document(out, key: str, objects) -> None:
    """Write ``{key: [objects...]}`` and a newline, one object at a time."""
    out.write('{\n  "' + key + '": [')
    sep = "\n"
    for obj in objects:
        out.write(sep + obj)
        sep = ",\n"
    out.write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")


def write_ensemble(ensemble, out) -> None:
    """Write the ``run`` document ``{"outcomes": [...]}`` of an outcome ensemble."""
    outcomes = list(ensemble)
    probabilities = _texts([o.probability for o in outcomes], _json_text)
    states = _states([o.state for o in outcomes if o.reachable])

    def objects():
        for o, p in zip(outcomes, probabilities):
            doc = {"label": json.dumps(o.label), "probability": p, "reachable": _bool(o.reachable)}
            if o.reachable:
                doc["state"] = next(states)
            yield _object(doc)

    _write_document(out, "outcomes", objects())


def write_branches(branches, out) -> None:
    """Write the ``netsim --report branches`` document ``{"branches": [...]}``."""
    probabilities = _texts([b.probability for b in branches], _json_text)
    fidelities = _texts([b.ghz_fidelity if b.reachable else 0.0 for b in branches], _json_text)
    states = _states([b.client_state for b in branches if b.reachable])

    def objects():
        for b, p, f in zip(branches, probabilities, fidelities):
            doc = {"control_outcome": json.dumps(b.control_outcome), "probability": p,
                   "reachable": _bool(b.reachable)}
            if b.reachable:
                doc["ghz_fidelity"] = f
                doc["client_state"] = next(states)
            yield _object(doc)

    _write_document(out, "branches", objects())


def _sweep_columns(table, text, label, none: str) -> tuple:
    """The six columns of a sweep table as text, in row order: each number as ``text``
    of it, each outcome as ``label`` of it, and ``none`` for an unreachable row's metric."""
    lambdas, alphas, outcomes = table.probability.shape
    reachable = table.reachable.reshape(-1)
    metric = _texts(table.metric, text)
    for i in np.flatnonzero(~reachable).tolist():
        metric[i] = none
    return ([t for t in _texts(table.lambda_grid, text) for _ in range(alphas * outcomes)],
            [t for t in _texts(table.alpha_grid, text) for _ in range(outcomes)] * lambdas,
            list(map(label, table.labels)) * (lambdas * alphas),
            _texts(table.probability, text), metric, map(_bool, reachable.tolist()))


# csv.writer (excel dialect) would quote none of these fields: the template writes its bytes
_CSV_ROW = "{},{},{},{},{},{}\r\n".format


def write_sweep_csv(table, fh) -> None:
    """Write a sweep table as CSV: a header row, then one row per outcome."""
    fh.write("lambda,alpha,outcome,probability,metric,reachable\r\n"
             + "".join(map(_CSV_ROW, *_sweep_columns(table, _csv_text, str, ""))))


# one row of a JSON sweep file from its six columns, keys sorted
_SWEEP_ROW = ('  {{\n    "alpha": {1},\n    "lambda": {0},\n    "metric": {4},\n    "outcome": {2},'
              '\n    "probability": {3},\n    "reachable": {5}\n  }}').format


def write_sweep_json(table, fh) -> None:
    """Write a sweep table as a JSON list of row objects and a newline."""
    rows = ",\n".join(map(_SWEEP_ROW, *_sweep_columns(table, _json_text, json.dumps, "null")))
    fh.write("[\n" + rows + "\n]\n" if rows else "[]\n")


# the verify document, keys sorted; the third field is the outcome_classes member or ""
_VERIFY = ('{{\n  "all_orthogonal": {},\n  "any_aligned": {},{}\n  "per_qubit_overlap": [\n    {}'
           '\n  ],\n  "separable": {},\n  "tol": {}\n}}\n').format


def write_verify(report, classes, out) -> None:
    """Write the ``verify`` document of a ``ConditionReport`` with its floats at
    full precision: the report's fields, ``separable`` (its ``any_aligned``) and,
    unless ``classes`` is None, ``outcome_classes``, the nonempty map from each
    reachable outcome label to its class. Labels and classes are the library's own
    ASCII names, which JSON writes as they are, in quotes."""
    overlaps = ",\n    ".join(
        f"[\n      {_float_text(z.real)},\n      {_float_text(z.imag)}\n    ]"
        for z in report.per_qubit_overlap)
    members = "" if classes is None else (
        '\n  "outcome_classes": {\n    '
        + ",\n    ".join(f'"{k}": "{v}"' for k, v in sorted(classes.items()))
        + "\n  },")
    out.write(_VERIFY(_bool(report.all_orthogonal), _bool(report.any_aligned), members,
                      overlaps, _bool(report.any_aligned), _float_text(report.tol)))
