"""Text output of the result documents: the fixed document shapes written straight to text.

The outcome ensemble of ``qswitch run``, the branch list of ``qswitch netsim
--report branches`` and the sweep CSV and JSON files print every float rounded to
12 significant digits. Each column of a document, and all the parts of all its
states, are tabled by one sort of their bit patterns: the distinct values are
formatted by one call of a batch formatter, and a column is one search of its
table and one take. A batch formatter writes all its values, each followed by one
separator, in one ``"%.12g"`` format for CSV, and in one ``"%.12g"`` rounding
format and one ``"%r"`` format for JSON, a non-finite value spelled on its own as
``json.dumps`` spells it. A state's parts are joined to each text that can follow
them; a state is one take and one join, written on its own. A sweep file is one
join of its columns' texts, each joined to the text after it and interleaved by
slice assignment, with no per-row object or call. The ``qswitch verify`` report
prints its overlaps and ``tol`` at full precision. The bytes are those of
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


def _distinct(keys):
    """The distinct values of the int64 array ``keys``, ascending; sorts ``keys`` in place."""
    # keys are bit patterns, so -0.0 and 0.0, and each NaN payload, keep entries of their
    # own; the first sort in a process pages in about 0.3 MB of resident memory
    keys.sort()
    return np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))


def _formatted(spec: str, values: list, after: str) -> list[str]:
    """``spec % x + after`` of each of ``values``: one %-format call for all of them."""
    line = spec + after.replace("%", "%%") + "\0"  # NUL is in no number and no separator
    return (line * len(values) % tuple(values)).split("\0")[:-1]


def _csv_texts(values: np.ndarray, after: str = "") -> list[str]:
    """``"{:.12g}".format(x) + after`` of each float in ``values``."""
    return _formatted("%.12g", values.tolist(), after)


def _json_texts(values: np.ndarray, after: str = "") -> list[str]:
    """``json.dumps(round12(x)) + after`` of each float in ``values``: one rounding format
    and one repr format, the JSON text of a finite float."""
    rounded = list(map(float, _formatted("%.12g", values.tolist(), "")))
    texts = _formatted("%r", rounded, after)
    for i in np.flatnonzero(~np.isfinite(values)).tolist():  # json spells these its own way
        texts[i] = json.dumps(rounded[i]) + after
    return texts


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _bool_texts(values: np.ndarray, after: str = "") -> list[str]:
    """The JSON text of each truth value in ``values``, then ``after``."""
    return [_bool(x) + after for x in values.tolist()]


def _texts(values, texts) -> list[str]:
    """The text of each value, from one call of ``texts`` on the distinct values, a float
    array in the order of their bit patterns: one sort, one format call and one search."""
    keys = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.int64)
    distinct = _distinct(keys.copy())
    table = np.array(texts(distinct.view(np.float64)), dtype=object)
    return table.take(distinct.searchsorted(keys)).tolist()


# after a real part, after an imaginary part that is not a state's last, and after a state's
# last part, which also closes the state: a state list is the value of a key of a list item
_AFTER = (",\n          ", "\n        ],\n        [\n          ", "\n        ]\n      ]")


def _state_texts(states):
    """Yield each state's ``[[re, im], ...]`` text after its ``[[``, from one table of all parts."""
    # one sort and a search per state make no Python object per part, and hold one
    # state's pieces at a time; the body runs at the first state a document writes
    distinct = _distinct(np.concatenate(states, dtype=complex).view(np.int64))
    texts = _json_texts(distinct.view(np.float64))
    table = np.array([t + after for after in _AFTER for t in texts], dtype=object)  # 3 blocks
    for state in states:
        index = distinct.searchsorted(np.ascontiguousarray(state, dtype=complex).view(np.int64))
        index[1::2] += len(texts)  # imaginary parts: the second block
        index[-1] += len(texts)  # the state's last part: the third
        yield "".join(table.take(index).tolist())


def _write_document(out, key: str, items, states) -> None:
    """Write ``{key: [items...]}`` and a newline. Each item maps its keys to their JSON
    texts, written in sorted key order; a key mapped to None holds a state, whose text after
    its opening is the next of ``states``: it goes to ``out`` on its own, never copied."""
    text, opening, close = '{\n  "' + key + '": [', "\n    {\n      ", "]\n}\n"
    for fields in items:
        sep = opening
        for k, v in sorted(fields.items()):
            text += sep + '"' + k + '": '
            if v is None:
                out.write(text + "[\n        [\n          ")
                out.write(next(states))
                text = ""
            else:
                text += v
            sep = ",\n      "
        text, opening, close = text + "\n    }", ",\n    {\n      ", "\n  ]\n}\n"
    out.write(text + close)


def write_ensemble(ensemble, out) -> None:
    """Write the ``run`` document ``{"outcomes": [...]}`` of an outcome ensemble."""
    outcomes = list(ensemble)
    probabilities = _texts([o.probability for o in outcomes], _json_texts)
    _write_document(out, "outcomes", (
        {"label": json.dumps(o.label), "probability": p, "reachable": _bool(o.reachable),
         **({"state": None} if o.reachable else {})} for o, p in zip(outcomes, probabilities)),
        _state_texts([o.state for o in outcomes if o.reachable]))


def write_branches(branches, out) -> None:
    """Write the ``netsim --report branches`` document ``{"branches": [...]}``."""
    probabilities = _texts([b.probability for b in branches], _json_texts)
    fidelities = _texts([b.ghz_fidelity if b.reachable else 0.0 for b in branches], _json_texts)
    _write_document(out, "branches", (
        {"control_outcome": json.dumps(b.control_outcome), "probability": p,
         "reachable": _bool(b.reachable), **({"client_state": None, "ghz_fidelity": f}
                                             if b.reachable else {})}
        for b, p, f in zip(branches, probabilities, fidelities)),
        _state_texts([b.client_state for b in branches if b.reachable]))


def _sweep_parts(table, head: str, after: dict, texts, label, none: str) -> list[str]:
    """``head``, then each field of a sweep table in row order with ``after[column]``, the text
    after it; ``texts(values, after)`` writes an array of numbers, each followed by ``after``,
    and ``label`` and ``none`` write an outcome and a missing metric."""
    shape, reachable = table.probability.shape, table.reachable.reshape(-1)

    def numbers(values, key, texts=texts):
        return _texts(values, lambda distinct: texts(distinct, after[key]))

    def along(texts, axis):  # one text per index of one axis, repeated over the rows
        return np.broadcast_to(np.array(texts, dtype=object)[axis], shape).ravel().tolist()

    columns = {"lambda": along(numbers(table.lambda_grid, "lambda"), np.s_[:, None, None]),
               "alpha": along(numbers(table.alpha_grid, "alpha"), np.s_[:, None]),
               "outcome": along([label(s) + after["outcome"] for s in table.labels], np.s_[:]),
               "probability": numbers(table.probability, "probability"),
               "metric": numbers(table.metric, "metric"),
               "reachable": numbers(table.reachable, "reachable", _bool_texts)}
    for i in np.flatnonzero(~reachable).tolist():
        columns["metric"][i] = none + after["metric"]
    parts = [head] * (1 + len(after) * reachable.size)
    for c, key in enumerate(after):
        parts[1 + c::len(after)] = columns[key]
    return parts


# csv.writer (excel dialect) would quote none of these fields: the separators are its bytes
_CSV_AFTER = {"lambda": ",", "alpha": ",", "outcome": ",", "probability": ",", "metric": ",",
              "reachable": "\r\n"}
# a JSON row's keys are sorted; a field is followed by the next key, or by the next row's opening
_KEYS, _ROW = sorted(_CSV_AFTER), '\n  {\n    "alpha": '
_JSON_AFTER = dict(zip(_KEYS, [f',\n    "{k}": ' for k in _KEYS[1:]] + ["\n  }," + _ROW]))


def write_sweep_csv(table, fh) -> None:
    """Write a sweep table as CSV: a header row, then one row per outcome."""
    fh.write("".join(_sweep_parts(table, ",".join(_CSV_AFTER) + "\r\n", _CSV_AFTER,
                                  _csv_texts, str, "")))


def write_sweep_json(table, fh) -> None:
    """Write a sweep table as a JSON list of row objects and a newline."""
    parts = _sweep_parts(table, "[" + _ROW, _JSON_AFTER, _json_texts, json.dumps, "null")
    parts[-1] = parts[-1].removesuffix("," + _ROW) + "\n]\n" if len(parts) > 1 else "[]\n"
    fh.write("".join(parts))


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
