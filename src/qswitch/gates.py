"""Single-qubit gate constructors, the gate-name parser and the 2x2 unitarity check.

The two-gate bundle applied to each qubit is a :class:`UnitaryPair`; the engine
forms its two composition orders, u u_tilde (forward) and u_tilde u (backward),
in ``switch._order_images``. ``local_tensor`` builds the dense n-qubit tensors
of a pair list for the tests' audits; no engine path calls it.
"""
from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from functools import reduce

import numpy as np

ATOL = 1e-12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# the named gates of parse_gate and pauli, each read out as a fresh copy
_NAMED = {"identity": np.eye(2, dtype=complex), "pauli_x": PAULI_X, "pauli_y": PAULI_Y,
          "pauli_z": PAULI_Z}


def pauli(axis: str) -> np.ndarray:
    """The 2x2 Pauli matrix for axis 'x', 'y' or 'z'."""
    try:
        return _NAMED[f"pauli_{axis}"].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}") from None


def ry(angle) -> np.ndarray:
    """Rotation exp(-i sigma_y angle/2) as a real 2x2 matrix.

    Phase-free convention: ry(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]].
    An array of angles gives the stacked rotations, shape (..., 2, 2).
    """
    half = np.asarray(angle, dtype=float) / 2.0
    c, s = np.cos(half), np.sin(half)
    out = np.empty(half.shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = c, -s, s, c
    return out


def is_unitary(m: np.ndarray) -> bool:
    """True iff ``m`` is 2x2, every |entry| <= 1 + ATOL and every
    |(m^dagger m - I) entry| <= ATOL.

    2x2 is the size of every gate. The check is straight-line code on the four
    entries a, b, c, d as Python complex scalars: first |a|, |b|, |c|, |d| <=
    1 + ATOL, so that the Gram entries cannot overflow, then |(|a|^2 + |c|^2)
    - 1|, |(|b|^2 + |d|^2) - 1| and |conj(a) b + conj(c) d| <= ATOL. Every
    test is a ``<=`` comparison, which a NaN fails.
    """
    m = np.asarray(m, dtype=complex)
    return m.shape == (2, 2) and _unitary_rows(m.tolist())


def _unitary_rows(rows: list) -> bool:
    """``is_unitary``'s rule on ``m.tolist()``, the rows [[a, b], [c, d]] of a 2x2 matrix."""
    (a, b), (c, d) = rows
    bound = 1.0 + ATOL
    if not (abs(a) <= bound and abs(b) <= bound and abs(c) <= bound and abs(d) <= bound):
        return False
    # m^dagger m - I from the columns (a, c) and (b, d); its (1, 0) entry is
    # the conjugate of its (0, 1) entry, so it has the same modulus
    g00 = a.real * a.real + a.imag * a.imag + (c.real * c.real + c.imag * c.imag) - 1.0
    g11 = b.real * b.real + b.imag * b.imag + (d.real * d.real + d.imag * d.imag) - 1.0
    g01 = a.conjugate() * b + c.conjugate() * d
    return abs(g00) <= ATOL and abs(g11) <= ATOL and abs(g01) <= ATOL


@dataclass(frozen=True, eq=False)
class UnitaryPair:
    """The two single-qubit unitaries coherently reordered on one qubit.

    Unitarity is validated once at construction so hot loops can skip it; the
    pair keeps read-only copies of the two matrices, so no later write to the
    caller's arrays reaches it.
    """

    u: np.ndarray
    u_tilde: np.ndarray

    def __post_init__(self):
        for name, m in (("u", self.u), ("u_tilde", self.u_tilde)):
            m = np.array(m, dtype=complex)
            m.setflags(write=False)
            if m.shape != (2, 2):
                raise ValueError(f"{name} must be 2x2, got shape {m.shape}")
            if not _unitary_rows(m.tolist()):
                raise ValueError(f"{name} is not unitary within tolerance")
            object.__setattr__(self, name, m)


def local_tensor(pairs: list[UnitaryPair]) -> tuple[np.ndarray, np.ndarray]:
    """The n-qubit local tensors (u_0 x ... x u_{n-1}, u~_0 x ... x u~_{n-1})."""
    if not pairs:
        raise ValueError("local_tensor requires at least one pair")
    return reduce(np.kron, [p.u for p in pairs]), reduce(np.kron, [p.u_tilde for p in pairs])


_RY_RE = re.compile(r"^ry\((?P<arg>[^)]+)\)$")
# matrix([[a, b], [c, d]]) with optional whitespace; each entry is the text
# between its brackets and commas, read by _parse_complex
_MATRIX_RE = re.compile(
    r"matrix\(\s*\[\s*\[([^][,]*),([^][,]*)\]\s*,\s*\[([^][,]*),([^][,]*)\]\s*\]\s*\)")
# any other matrix(...) text, read only to name what is wrong with it
_MATRIX_CALL_RE = re.compile(r"matrix\((.+)\)", re.DOTALL)


def _parse_complex(token: str) -> complex:
    # 'a+bi' or python's 'a+bj'; only a trailing i is the unit, so 'inf' stays a float
    text = token.strip()
    try:
        return complex(text[:-1] + "j" if text.endswith("i") else text)
    except ValueError:
        raise ValueError(f"cannot parse complex entry {token!r}") from None


def _matrix_literal_error(name: str, arg: str) -> ValueError:
    """The error for a ``matrix(arg)`` text that is not a finite 2x2 literal: a
    wrong row count, then an unreadable entry, then non-finite entries of two
    2-entry rows, and otherwise the shape itself."""
    rows = re.findall(r"\[([^][]*)\]", arg)
    if len(rows) != 2:
        return ValueError(f"matrix literal must have 2 rows: {name!r}")
    entries = [[_parse_complex(tok) for tok in row.split(",")] for row in rows]
    if list(map(len, entries)) == [2, 2] and not all(map(cmath.isfinite, entries[0] + entries[1])):
        return ValueError(f"matrix entries must be finite in {name!r}")
    return ValueError(f"matrix literal must be 2x2: {name!r}")


def parse_gate(name: str) -> np.ndarray:
    """Parse a gate name: identity|pauli_x|pauli_y|pauli_z|ry(<radians>)|matrix([[a, b], [c, d]]).

    Matrix entries are finite complex literals in 'a+bi' form. Whitespace may
    surround the entries, brackets and commas of a matrix literal; nothing else
    may stand in it.
    """
    name = name.strip()
    m = _MATRIX_RE.fullmatch(name)
    if m:
        a, b, c, d = map(_parse_complex, m.groups())
        if cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(c) and cmath.isfinite(d):
            return np.array(((a, b), (c, d)))  # else refused below, with every other literal
    if name in _NAMED:
        return _NAMED[name].copy()
    m = _RY_RE.match(name)
    if m:
        try:
            angle = float(m.group("arg"))
        except ValueError:
            raise ValueError(f"bad ry argument in {name!r}") from None
        if not math.isfinite(angle):
            raise ValueError(f"ry angle must be finite in {name!r}")
        return ry(angle)
    m = _MATRIX_CALL_RE.fullmatch(name)
    if m:
        raise _matrix_literal_error(name, m.group(1))
    raise ValueError(f"unknown gate name {name!r}")
