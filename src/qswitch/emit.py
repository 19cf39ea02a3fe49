"""Text output of the large result documents, with 12-significant-digit numbers.

The outcome ensemble of ``qswitch run``, the branch list of ``qswitch netsim
--report branches`` and the sweep CSV and JSON files print every float
rounded to 12 significant digits. Their states hold up to 2^12 amplitudes
drawn from few distinct values, so each array is formatted once per distinct
value and the fixed document shapes are written straight to text. The bytes
are those of ``json.dumps(doc, indent=2, sort_keys=True)`` (and of
``csv.writer``) on the rounded values; the tests keep that construction as
the reference.
"""
from __future__ import annotations

import csv
import json
import math

import numpy as np

CSV_COLUMNS = ["lambda", "alpha", "outcome", "probability", "metric", "reachable"]


def round12(x: float) -> float:
    """``x`` rounded to 12 significant digits, the precision of every document."""
    return float(format(x, ".12g"))


def _json_text(x: float) -> str:
    """The JSON text of ``x`` rounded to 12 significant digits."""
    x = round12(x)
    # float.__repr__ is json's own encoding of a finite float; json.dumps spells the rest
    return repr(x) if math.isfinite(x) else json.dumps(x)


def _table(values, text) -> tuple[list[int], dict]:
    """The bit pattern of each value, and ``text`` of the value of each distinct pattern."""
    # keyed by bit pattern: keyed by float, -0.0 would merge into 0.0. A dict, not
    # np.unique: its first call in a process adds ~0.5 MB of resident memory
    keys = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.int64).tolist()
    distinct = list(dict.fromkeys(keys))
    floats = np.array(distinct, dtype=np.int64).view(np.float64).tolist()
    return keys, dict(zip(distinct, map(text, floats)))


def _texts(values, text) -> list[str]:
    """``text(x)`` of each value, called once per distinct value."""
    keys, table = _table(values, text)
    return list(map(table.__getitem__, keys))


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


def _state(state) -> str:
    """A state's ``[[re, im], ...]`` list, one table lookup per part."""
    keys, texts = _table(np.ascontiguousarray(state, dtype=complex).view(np.float64), _json_text)
    parts = [None] * len(keys)
    parts[0::2] = map({k: t + _AFTER_RE for k, t in texts.items()}.__getitem__, keys[0::2])
    parts[1::2] = map({k: t + _AFTER_IM for k, t in texts.items()}.__getitem__, keys[1::2])
    parts[-1] = texts[keys[-1]] + "\n        ]"
    return "[\n        [\n          " + "".join(parts) + "\n      ]"


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

    def objects():
        for o, p in zip(outcomes, probabilities):
            doc = {"label": json.dumps(o.label), "probability": p, "reachable": _bool(o.reachable)}
            if o.reachable:
                doc["state"] = _state(o.state)
            yield _object(doc)

    _write_document(out, "outcomes", objects())


def write_branches(branches, out) -> None:
    """Write the ``netsim --report branches`` document ``{"branches": [...]}``."""
    probabilities = _texts([b.probability for b in branches], _json_text)
    fidelities = _texts([b.ghz_fidelity if b.reachable else 0.0 for b in branches], _json_text)

    def objects():
        for b, p, f in zip(branches, probabilities, fidelities):
            doc = {"control_outcome": json.dumps(b.control_outcome), "probability": p,
                   "reachable": _bool(b.reachable)}
            if b.reachable:
                doc["ghz_fidelity"] = f
                doc["client_state"] = _state(b.client_state)
            yield _object(doc)

    _write_document(out, "branches", objects())


def _sweep_columns(records, text, none: str) -> tuple:
    """The six columns of sweep records as text: each number as ``text`` of it, and
    ``none`` for the metric of an unreachable row."""
    lam, alpha, outcome, probability, metric, reachable = list(zip(*records)) or [()] * 6
    metric_texts = _texts([0.0 if m is None else m for m in metric], text)
    return (_texts(lam, text), _texts(alpha, text), outcome, _texts(probability, text),
            [none if m is None else t for m, t in zip(metric, metric_texts)],
            map(_bool, reachable))


def write_sweep_csv(records, fh) -> None:
    """Write sweep records as CSV: a header row, then one row per record."""
    writer = csv.writer(fh)
    writer.writerow(CSV_COLUMNS)
    writer.writerows(zip(*_sweep_columns(records, _csv_text, "")))


# one sweep record of a JSON sweep file, keys sorted
_SWEEP_ROW = ('  {{\n    "alpha": {},\n    "lambda": {},\n    "metric": {},\n    "outcome": {},'
              '\n    "probability": {},\n    "reachable": {}\n  }}').format


def write_sweep_json(records, fh) -> None:
    """Write sweep records as a JSON list of row objects and a newline."""
    lam, alpha, outcome, probability, metric, reachable = _sweep_columns(
        records, _json_text, "null")
    labels = {o: json.dumps(o) for o in set(outcome)}
    rows = ",\n".join(map(_SWEEP_ROW, alpha, lam, metric, map(labels.__getitem__, outcome),
                           probability, reachable))
    fh.write("[\n" + rows + "\n]\n" if records else "[]\n")
