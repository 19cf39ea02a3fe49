"""Reference model used to check seeded outputs.

Seeded inputs (random verify specs, random mapping controls) have no recorded
reference, so their expected values are recomputed here from the protocol
definitions: per-qubit product branches, coherent-basis control readout, and
closed forms for the 3-tangle (Cayley hyperdeterminant) and for mapping under
the orthogonality condition. Nothing here imports the package under test.
"""
from __future__ import annotations

import math
from functools import reduce
from itertools import product

import numpy as np

UNREACHABLE_P = 1e-12  # the program reports outcomes below this as unreachable
CONDITION_TOL = 1e-9  # default tolerance of `qswitch verify`
CLASS_TOL = 1e-6  # default tolerance of certify_class

PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2.0)


def ry(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def orthogonal_qubit(rng: np.random.Generator):
    """(u, u_tilde, phi): the paper's pair and input (Z, ry(pi/2), |+>) in a Haar-random frame.

    Conjugation keeps the per-qubit overlap at 0, the orthogonality condition.
    """
    v = haar_unitary(rng)
    return v @ PAULI_Z @ v.conj().T, v @ ry(math.pi / 2) @ v.conj().T, v @ PLUS


def complex_literal(z: complex) -> str:
    """'a+bi' with 17 significant digits, so the program parses the exact double."""
    return f"{z.real:.17g}{z.imag:+.17g}i"


def matrix_literal(m: np.ndarray) -> str:
    rows = ", ".join("[" + ", ".join(complex_literal(z) for z in row) + "]" for row in m)
    return f"matrix([{rows}])"


def branches(u: np.ndarray, ut: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u ut phi, ut u phi): the forward and backward order applied to one qubit."""
    return u @ ut @ phi, ut @ u @ phi


def overlap(u: np.ndarray, ut: np.ndarray, phi: np.ndarray) -> complex:
    fwd, bwd = branches(u, ut, phi)
    return complex(np.vdot(bwd, fwd))


def _kron(vectors) -> np.ndarray:
    return reduce(np.kron, vectors)


def outcomes(protocol: str, qubits) -> list[tuple[str, float, np.ndarray | None]]:
    """(label, probability, normalized state or None) for each control outcome.

    ``qubits`` is a list of (u, u_tilde, phi). Two-order protocols read one
    control qubit; the W protocol reads ceil(log2 n) control qubits, where
    control bit k (most significant first) flips the sign of the branch that
    reverses qubit j when bit k of j is set.
    """
    fb = [branches(*q) for q in qubits]
    n = len(fb)
    if protocol == "w":
        d = math.ceil(math.log2(n))
        terms = [_kron([b if i == j else f for i, (f, b) in enumerate(fb)]) for j in range(n)]
        norm = n * 2**d
        labels = ["".join(bits) for bits in product("+-", repeat=d)]
        raws = []
        for label in labels:
            raw = 0
            for j, term in enumerate(terms):
                odd = sum(1 for k, s in enumerate(label) if s == "-" and (j >> (d - 1 - k)) & 1)
                raw = raw + (-1) ** odd * term
            raws.append(raw)
    else:
        fwd, bwd = _kron([f for f, _ in fb]), _kron([b for _, b in fb])
        norm, labels, raws = 4, ["+", "-"], [fwd + bwd, fwd - bwd]
    result = []
    for label, raw in zip(labels, raws):
        p = float(np.vdot(raw, raw).real) / norm
        state = raw / np.linalg.norm(raw) if p >= UNREACHABLE_P else None
        result.append((label, p, state))
    return result


def single_qubit_purities(state: np.ndarray) -> list[float]:
    n = int(math.log2(state.shape[0]))
    t = state.reshape([2] * n)
    purities = []
    for q in range(n):
        m = np.moveaxis(t, q, 0).reshape(2, -1)
        rho = m @ m.conj().T
        purities.append(float(np.trace(rho @ rho).real))
    return purities


def three_tangle(state: np.ndarray) -> float:
    """4 |hyperdeterminant| of a pure 3-qubit state."""
    a = state.reshape(2, 2, 2)
    d1 = (a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2 + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
          + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2 + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2)
    d2 = (a[0, 0, 0] * a[1, 1, 1] * (a[0, 1, 1] * a[1, 0, 0] + a[1, 0, 1] * a[0, 1, 0]
                                     + a[1, 1, 0] * a[0, 0, 1])
          + a[0, 1, 1] * a[1, 0, 0] * (a[1, 0, 1] * a[0, 1, 0] + a[1, 1, 0] * a[0, 0, 1])
          + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1])
    d3 = (a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
          + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0])
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


def classify3(state: np.ndarray) -> str:
    """separable | biseparable | ghz-class | w-class, by the rule certify_class states."""
    pure_cuts = sum(1 for p in single_qubit_purities(state) if p > 1.0 - CLASS_TOL)
    if pure_cuts == 3:
        return "separable"
    if pure_cuts >= 1:
        return "biseparable"
    return "ghz-class" if three_tangle(state) > CLASS_TOL else "w-class"


def well_conditioned(protocol: str, qubits) -> bool:
    """True when no expected flag, reachability or class sits near its threshold.

    Inputs near a threshold have no well-defined answer at double precision,
    so the generator draws again instead of using them.
    """
    for u, ut, phi in qubits:
        z = abs(overlap(u, ut, phi))
        if 1e-12 < z < 1e-3 or 1 - 1e-3 < z < 1 - 1e-12:
            return False
    for _, p, state in outcomes(protocol, qubits):
        if 1e-14 < p < 1e-6:
            return False
        if state is None or len(qubits) != 3:
            continue
        if any(1 - 1e-4 < x < 1 - 1e-10 for x in single_qubit_purities(state)):
            return False
        if 1e-10 < three_tangle(state) < 1e-4:
            return False
    return True


def mapping_expectation(control: np.ndarray) -> tuple[float, float]:
    """(branch probability, in-frame GHZ fidelity) for map_entanglement.

    Under the orthogonality condition every branch vector of the controlled
    order is orthonormal, so each of the 2^n coherent outcomes has probability
    2^-n and, in the canonical frame, carries the control amplitudes up to
    signs: its GHZ fidelity is (|c_0| + |c_last|)^2 / 2.
    """
    return 1.0 / control.shape[0], float((abs(control[0]) + abs(control[-1])) ** 2 / 2.0)
