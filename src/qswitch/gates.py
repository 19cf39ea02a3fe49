"""Single-qubit gate constructors and local tensor assemblies.

The two-gate bundle applied to each qubit is a :class:`UnitaryPair`; the two
composition orders of a pair are exposed as ``forward_order`` (second gate
first) and ``backward_order`` (first gate first).
"""
from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass

import numpy as np

from .linalg import is_unitary, kron_all

IDENTITY = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_PAULIS = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}


def pauli(axis: str) -> np.ndarray:
    """The 2x2 Pauli matrix for axis 'x', 'y' or 'z'."""
    try:
        return _PAULIS[axis].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}") from None


def ry(angle) -> np.ndarray:
    """Rotation exp(-i sigma_y angle/2) as a real 2x2 matrix.

    Phase-free convention: ry(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]].
    An array of angles gives the stacked rotations, shape (..., 2, 2).
    """
    half = np.asarray(angle, dtype=float) / 2.0
    c, s = np.cos(half), np.sin(half)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2).astype(complex)


@dataclass(frozen=True)
class UnitaryPair:
    """The two single-qubit unitaries coherently reordered on one qubit.

    Unitarity is validated once at construction so hot loops can skip it.
    """

    u: np.ndarray
    u_tilde: np.ndarray

    def __post_init__(self):
        for name, m in (("u", self.u), ("u_tilde", self.u_tilde)):
            m = np.asarray(m, dtype=complex)
            if m.shape != (2, 2):
                raise ValueError(f"{name} must be 2x2, got shape {m.shape}")
            if not is_unitary(m):
                raise ValueError(f"{name} is not unitary within tolerance")
            object.__setattr__(self, name, m)


def forward_order(pair: UnitaryPair) -> np.ndarray:
    """u @ u_tilde: u_tilde applied first."""
    return pair.u @ pair.u_tilde


def backward_order(pair: UnitaryPair) -> np.ndarray:
    """u_tilde @ u: u applied first."""
    return pair.u_tilde @ pair.u


def local_tensor(pairs: list[UnitaryPair]) -> tuple[np.ndarray, np.ndarray]:
    """The n-qubit local tensors (u_0 x ... x u_{n-1}, u~_0 x ... x u~_{n-1})."""
    if not pairs:
        raise ValueError("local_tensor requires at least one pair")
    v = kron_all([p.u for p in pairs])
    v_tilde = kron_all([p.u_tilde for p in pairs])
    return v, v_tilde


_RY_RE = re.compile(r"^ry\((?P<arg>[^)]+)\)$")
_MATRIX_RE = re.compile(r"^matrix\((?P<arg>.+)\)$", re.DOTALL)


def _parse_complex(token: str) -> complex:
    # 'a+bi' or python's 'a+bj'; only a trailing i is the unit, so 'inf' stays a float
    text = token.strip()
    try:
        return complex(text[:-1] + "j" if text.endswith("i") else text)
    except ValueError:
        raise ValueError(f"cannot parse complex entry {token!r}") from None


def parse_gate(name: str) -> np.ndarray:
    """Parse a gate name: identity|pauli_x|pauli_y|pauli_z|ry(<radians>)|matrix([[..],[..]]).

    Matrix entries are complex literals in 'a+bi' form.
    """
    name = name.strip()
    if name in ("pauli_x", "pauli_y", "pauli_z"):
        return pauli(name[-1])
    if name == "identity":
        return IDENTITY.copy()
    m = _RY_RE.match(name)
    if m:
        try:
            angle = float(m.group("arg"))
        except ValueError:
            raise ValueError(f"bad ry argument in {name!r}") from None
        if not math.isfinite(angle):
            raise ValueError(f"ry angle must be finite in {name!r}")
        return ry(angle)
    m = _MATRIX_RE.match(name)
    if m:
        rows = re.findall(r"\[([^\[\]]*)\]", m.group("arg"))
        if len(rows) != 2:
            raise ValueError(f"matrix literal must have 2 rows: {name!r}")
        entries = [[_parse_complex(tok) for tok in row.split(",")] for row in rows]
        mat = np.array(entries, dtype=complex)
        if mat.shape != (2, 2):
            raise ValueError(f"matrix literal must be 2x2: {name!r}")
        if not all(map(cmath.isfinite, entries[0] + entries[1])):
            raise ValueError(f"matrix entries must be finite in {name!r}")
        return mat
    raise ValueError(f"unknown gate name {name!r}")
