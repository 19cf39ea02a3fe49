"""The JSON wire formats: switch spec documents (version 1) and topology documents.

``parse_spec`` and ``parse_topology`` take any JSON value and return a
validated ``SwitchSpec`` or ``Topology``. Every rejection is a ValueError
ending in the JSON pointer of the offending field or of its nearest enclosing
one, like ``(at '/pairs/0/u')``, and is raised by ``_refuse``: straight from a
check made here, or through ``_at`` from a call that raises.
"""
from __future__ import annotations

import cmath
import contextlib
import math

import numpy as np

from .gates import UnitaryPair, _parse_complex, is_unitary, parse_gate
from .netsim import CONTROLS, Topology
from .switch import PROTOCOLS, UNREACHABLE_TOL, SwitchSpec, superposed_input

MAX_SPEC_QUBITS = 4096  # largest spec document, checked before one pair is broadcast n times
_DEFAULT_GATES = {"u": "pauli_z", "u_tilde": f"ry({math.pi / 2})"}


def _refuse(pointer: str, message):
    """Refuse the document field at the JSON pointer ``pointer`` (RFC 6901): a
    ValueError of ``message`` followed by the pointer, like ``(at '/pairs/0/u')``."""
    raise ValueError(f"{message} (at '{pointer}')") from None


def _at(pointer: str, build, *args):
    """``build(*args)``, its ValueError refused at ``pointer``, as is the OverflowError of a
    JSON number no float can hold: for a call whose checks ``documents`` does not own."""
    try:
        return build(*args)
    except (ValueError, OverflowError) as exc:
        _refuse(pointer, exc)


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number"}


def _expect(value, kind: type, what: str):
    """``value`` if it has the JSON type ``kind`` (float stands for any number; booleans are
    neither integers nor numbers), else a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _token(key: str) -> str:
    """``key`` escaped as a JSON pointer reference token (RFC 6901)."""
    return key.replace("~", "~0").replace("/", "~1")


def _only_keys(doc: dict, pointer: str, keys: tuple[str, ...]) -> None:
    """Reject a member of the object ``doc`` at ``pointer`` not named in ``keys``."""
    for key in doc:
        if key not in keys:
            _refuse(f"{pointer}/{_token(key)}", f"unknown key {key!r}")


def _member(doc: dict, pointer: str, kind: type, default=None):
    """The member of ``doc`` named by the last token of ``pointer``, type-checked."""
    key = pointer.rsplit("/", 1)[1]
    if key not in doc and default is None:
        _refuse(pointer, f"{key} is required")
    return _at(pointer, _expect, doc.get(key, default), kind, key)


def _gate(name) -> np.ndarray:
    """The matrix of a document's gate name."""
    return parse_gate(_expect(name, str, "gate name"))


def _alpha(value) -> float:
    """A document's alpha: a number that a float can hold, with 0 <= alpha <= 1."""
    alpha = float(_expect(value, float, "alpha"))
    superposed_input(alpha)  # raises unless 0 <= alpha <= 1
    return alpha


def _parse_pair(doc, pointer: str) -> UnitaryPair:
    """The pair of a ``{"u": <gate>, "u_tilde": <gate>}`` object."""
    _at(pointer, _expect, doc, dict, "gate pair")
    _only_keys(doc, pointer, ("u", "u_tilde"))
    mats = [_at(f"{pointer}/{key}", _gate, doc.get(key)) for key in ("u", "u_tilde")]
    try:
        return UnitaryPair(*mats)
    except ValueError as exc:  # parsed gates are 2x2, so one of them is not unitary
        _refuse(f"{pointer}/{'u' if not is_unitary(mats[0]) else 'u_tilde'}", exc)


def _amplitudes_to_state(entries) -> np.ndarray:
    """The normalised single-qubit state of two document amplitudes, each an
    'a+bi' literal, a [re, im] pair or a real number."""
    if not isinstance(entries, list) or len(entries) != 2:
        raise ValueError(f"an input state must be an array of 2 amplitudes, got {entries!r}")
    amps = []
    for e in entries:
        if isinstance(e, str):
            amps.append(_parse_complex(e))
        elif isinstance(e, list) and len(e) == 2:
            amps.append(complex(*(_expect(x, float, "[re, im] entry") for x in e)))
        else:
            amps.append(complex(_expect(e, float, "amplitude")))
        if not cmath.isfinite(amps[-1]):
            raise ValueError(f"amplitude {e!r} is not finite")
    v = np.array(amps)
    a, b = amps  # below 1e153 in every part the norm's four squares cannot overflow
    big = max(abs(a.real), abs(a.imag), abs(b.real), abs(b.imag)) >= 1e153
    re, im = v.real, v.imag
    # np.linalg.norm's own arithmetic without its wrapper: BLAS dots, which four scalar
    # squares do not match bit for bit; an overflowing norm is rejected just below
    with np.errstate(over="ignore") if big else contextlib.nullcontext():
        nrm = math.sqrt(re.dot(re) + im.dot(im))
    if not UNREACHABLE_TOL <= nrm < math.inf:
        raise ValueError("amplitude vector must have a nonzero, finite norm")
    return v / nrm


def parse_spec(doc) -> SwitchSpec:
    """Parse and validate a switch spec document (any JSON value)."""
    _at("", _expect, doc, dict, "spec document")
    _only_keys(doc, "", ("version", "protocol", "n", "pairs", "input", "control"))
    version = doc.get("version", 1)
    if version != 1 or isinstance(version, bool):
        _refuse("/version", f"unsupported spec version {version!r}")
    if doc.get("control", "even") != "even":
        _refuse("/control", f"control must be 'even', got {doc['control']!r}")
    protocol = doc.get("protocol")
    if protocol not in PROTOCOLS:
        _refuse("/protocol", f"unknown protocol {protocol!r}")
    pair_docs = _member(doc, "/pairs", list)
    n = _member(doc, "/n", int, len(pair_docs))
    if n > MAX_SPEC_QUBITS:
        _refuse("/n", f"spec has {n} qubits, cap is {MAX_SPEC_QUBITS}")
    if len(pair_docs) != 1 and n != len(pair_docs):
        _refuse("/n", f"'n' is {n} but {len(pair_docs)} pairs are given")
    pairs = [_parse_pair(p, f"/pairs/{i}") for i, p in enumerate(pair_docs)]
    if len(pairs) == 1:
        pairs *= n
    inp = _member(doc, "/input", dict, {"alpha": 0.5})
    _only_keys(inp, "/input", ("alpha", "amplitudes"))
    if len(inp) > 1:
        _refuse("/input", "input takes exactly one of 'alpha' and 'amplitudes'")
    if "alpha" in inp:
        inputs = [superposed_input(_at("/input/alpha", _alpha, inp["alpha"]))] * len(pairs)
    else:
        amplitudes = _member(inp, "/input/amplitudes", list)
        if len(amplitudes) != len(pairs):
            _refuse("/input/amplitudes", f"{len(amplitudes)} input states for {len(pairs)} qubits")
        inputs = [_at(f"/input/amplitudes/{i}", _amplitudes_to_state, entries)
                  for i, entries in enumerate(amplitudes)]
    return _at("/n" if "n" in doc else "/pairs", SwitchSpec, protocol, pairs, inputs)


def parse_topology(doc) -> Topology:
    """Parse and validate a topology document (any JSON value): ``entanglers``,
    and optionally ``gates``, ``alpha`` and ``control``."""
    _at("", _expect, doc, dict, "topology document")
    _only_keys(doc, "", ("entanglers", "gates", "alpha", "control"))
    entanglers = []
    for i, e in enumerate(_member(doc, "/entanglers", list)):
        _at(f"/entanglers/{i}", _expect, e, dict, "entangler")
        _only_keys(e, f"/entanglers/{i}", ("id", "clients"))
        entanglers.append((_member(e, f"/entanglers/{i}/id", str),
                           _member(e, f"/entanglers/{i}/clients", int)))
    pair = _parse_pair(doc.get("gates", _DEFAULT_GATES), "/gates")
    alpha = _at("/alpha", _alpha, doc.get("alpha", 0.5))
    control = doc.get("control", "ghz")
    if control not in CONTROLS:
        _refuse("/control", f"unknown control preparation {control!r}")
    return _at("/entanglers", Topology, entanglers, pair, alpha, control)
