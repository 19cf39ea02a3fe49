"""The coherently-controlled-order engine.

``branch_readout`` lets each control basis state select, per qubit, one of
the two composition orders of its gate pair on a product input and measures
the control register in the coherent {|+>, |->} basis, over any number of
stacked instances at once; ``controlled_outcomes`` is its single-instance
form, returning the postselected outcome ensemble. The protocols only choose
the control:

* two-order protocols (Bell, GHZ-like): one control qubit selects between
  the two orders of the n-qubit local tensors;
* the W-like protocol: n cyclic terms, each reversing the order on exactly
  one qubit, steered by a control register of d = ceil(log2 n) qubits.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Optional

import numpy as np

from . import gates
from .gates import UnitaryPair, backward_order, forward_order
from .linalg import is_unitary, kron, num_qubits

UNREACHABLE_TOL = 1e-12
MAX_QUBITS = 12  # largest simulated register: a 2^12 state vector per outcome

PROTOCOLS = ("bell", "ghz", "w")


def canonical_phase(state: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first nonzero amplitude is real positive."""
    state = np.asarray(state, dtype=complex)
    nonzero = np.flatnonzero(np.abs(state) > UNREACHABLE_TOL)
    if not nonzero.size:
        return state
    a = state[nonzero[0]]
    return state * (a.conjugate() / abs(a))


def _as_qubit_state(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.shape != (2,):
        raise ValueError(f"input states must be single-qubit, got shape {v.shape}")
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-10:  # also false for NaN
        raise ValueError("input states must be finite and normalized")
    return v


def superposed_input(alpha) -> np.ndarray:
    """sqrt(alpha)|0> + sqrt(1-alpha)|1>, the standard swept input family.

    An array of alphas gives the stacked inputs, shape (..., 2).
    """
    alpha = np.asarray(alpha, dtype=float)
    if not np.all((0.0 <= alpha) & (alpha <= 1.0)):
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")
    return np.stack([np.sqrt(alpha), np.sqrt(1.0 - alpha)], -1).astype(complex)


@dataclass(frozen=True)
class Outcome:
    """One coherent-basis measurement result of the control register."""

    label: str
    probability: float
    state: Optional[np.ndarray]  # None when the outcome is unreachable

    @property
    def reachable(self) -> bool:
        return self.state is not None


@dataclass(frozen=True)
class OutcomeEnsemble:
    outcomes: tuple[Outcome, ...]

    def __iter__(self) -> Iterator[Outcome]:
        return iter(self.outcomes)

    def __getitem__(self, label: str) -> Outcome:
        for o in self.outcomes:
            if o.label == label:
                return o
        raise KeyError(label)

    def reachable(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.reachable]

    def total_probability(self) -> float:
        return sum(o.probability for o in self.outcomes)


class _at:
    """Context manager appending the JSON pointer of the document field it
    concerns to a ValueError from its block, like ``(at '/pairs/0/u')``; an
    OverflowError, from a JSON number that no float can hold, becomes one."""

    def __init__(self, pointer: str):
        self.pointer = pointer

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind, exc, traceback) -> None:
        if kind is not None and issubclass(kind, (ValueError, OverflowError)):
            raise ValueError(f"{exc} (at '{self.pointer}')") from None


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number"}


def _expect(value, kind: type, what: str):
    """``value`` if it has the JSON type ``kind``, where float stands for any
    number; booleans are neither integers nor numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _member(doc: dict, pointer: str, kind: type, default=None):
    """The member of ``doc`` named by the last token of ``pointer``, type-checked."""
    key = pointer.rsplit("/", 1)[1]
    with _at(pointer):
        if key not in doc and default is None:
            raise ValueError(f"{key} is required")
        return _expect(doc.get(key, default), kind, key)


def _parse_pair(doc, pointer: str) -> tuple[tuple[str, str], UnitaryPair]:
    """The gate names and the pair of a ``{"u": <gate>, "u_tilde": <gate>}`` object."""
    with _at(pointer):
        _expect(doc, dict, "gate pair")
    names, mats = [], []
    for key in ("u", "u_tilde"):
        with _at(f"{pointer}/{key}"):
            names.append(_expect(doc.get(key), str, "gate name"))
            mats.append(gates.parse_gate(names[-1]))
    try:
        return tuple(names), UnitaryPair(*mats)
    except ValueError as exc:  # parsed gates are 2x2, so one of them is not unitary
        key = "u" if not is_unitary(mats[0]) else "u_tilde"
        raise ValueError(f"{exc} (at '{pointer}/{key}')") from None


@dataclass
class SwitchSpec:
    """Protocol descriptor: which unitaries act on which product input.

    The control register always starts in the even superposition, which the
    generation conditions all assume.
    """

    protocol: str
    pairs: list[UnitaryPair]
    inputs: list[np.ndarray]
    gate_names: Optional[list[tuple[str, str]]] = field(default=None, repr=False)
    alpha: Optional[float] = field(default=None, repr=False)

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        self.inputs = [_as_qubit_state(v) for v in self.inputs]
        n = len(self.pairs)
        if len(self.inputs) != n:
            raise ValueError("pairs and inputs must have the same length")
        minimum = {"bell": 2, "ghz": 2, "w": 3}[self.protocol]
        if self.protocol == "bell" and n != 2:
            raise ValueError("bell protocol requires exactly 2 qubits")
        if n < minimum:
            raise ValueError(f"{self.protocol} protocol requires at least {minimum} qubits")
        if n > MAX_QUBITS:
            raise ValueError(f"spec has {n} qubits, cap is {MAX_QUBITS}")

    @property
    def n(self) -> int:
        return len(self.pairs)

    # -- JSON wire format (version 1) -------------------------------------

    @classmethod
    def from_document(cls, doc) -> "SwitchSpec":
        """Parse and validate a spec document (any JSON value).

        Every rejection is a ValueError ending in the JSON pointer of the
        offending field or of its nearest enclosing one.
        """
        with _at(""):
            _expect(doc, dict, "spec document")
        with _at("/version"):
            version = doc.get("version", 1)
            if version != 1 or isinstance(version, bool):
                raise ValueError(f"unsupported spec version {version!r}")
        with _at("/control"):
            if doc.get("control", "even") != "even":
                raise ValueError(f"control must be 'even', got {doc['control']!r}")
        protocol = doc.get("protocol")
        with _at("/protocol"):
            if protocol not in PROTOCOLS:
                raise ValueError(f"unknown protocol {protocol!r}")
        pair_docs = _member(doc, "/pairs", list)
        n = _member(doc, "/n", int, len(pair_docs))
        with _at("/n"):
            if n > MAX_QUBITS:  # before broadcasting a single pair n times
                raise ValueError(f"spec has {n} qubits, cap is {MAX_QUBITS}")
            if len(pair_docs) != 1 and n != len(pair_docs):
                raise ValueError(f"'n' is {n} but {len(pair_docs)} pairs are given")
        parsed = [_parse_pair(p, f"/pairs/{i}") for i, p in enumerate(pair_docs)]
        if len(parsed) == 1:
            parsed *= n
        names, pairs = [nm for nm, _ in parsed], [pair for _, pair in parsed]
        inp = _member(doc, "/input", dict, {"alpha": 0.5})
        alpha = None
        if "alpha" in inp:
            with _at("/input/alpha"):
                alpha = float(_expect(inp["alpha"], float, "alpha"))
                inputs = [superposed_input(alpha)] * len(pairs)
        else:
            amplitudes = _member(inp, "/input/amplitudes", list)
            with _at("/input/amplitudes"):
                if len(amplitudes) != len(pairs):
                    raise ValueError(f"{len(amplitudes)} input states for {len(pairs)} qubits")
            inputs = []
            for i, entries in enumerate(amplitudes):
                with _at(f"/input/amplitudes/{i}"):
                    inputs.append(_amplitudes_to_state(entries))
        with _at("/n" if "n" in doc else "/pairs"):
            return cls(protocol=protocol, pairs=pairs, inputs=inputs, gate_names=names,
                       alpha=alpha)

    def to_document(self) -> dict:
        if self.gate_names is not None:
            pair_docs = [{"u": u, "u_tilde": ut} for u, ut in self.gate_names]
        else:
            pair_docs = [
                {"u": _matrix_literal(p.u), "u_tilde": _matrix_literal(p.u_tilde)}
                for p in self.pairs
            ]
        if self.alpha is not None:
            inp = {"alpha": self.alpha}
        else:
            inp = {"amplitudes": [[_complex_literal(a) for a in v] for v in self.inputs]}
        return {
            "version": 1,
            "protocol": self.protocol,
            "n": self.n,
            "pairs": pair_docs,
            "input": inp,
            "control": "even",
        }


def _amplitudes_to_state(entries) -> np.ndarray:
    """The normalised single-qubit state of two document amplitudes, each an
    'a+bi' literal, a [re, im] pair or a real number."""
    if not isinstance(entries, list) or len(entries) != 2:
        raise ValueError(f"an input state must be an array of 2 amplitudes, got {entries!r}")
    amps = []
    for e in entries:
        if isinstance(e, str):
            amps.append(gates._parse_complex(e))
        elif isinstance(e, list) and len(e) == 2:
            amps.append(complex(*(_expect(x, float, "[re, im] entry") for x in e)))
        else:
            amps.append(complex(_expect(e, float, "amplitude")))
        if not cmath.isfinite(amps[-1]):
            raise ValueError(f"amplitude {e!r} is not finite")
    v = np.array(amps)
    with np.errstate(over="ignore"):  # an overflowing norm is rejected just below
        nrm = np.linalg.norm(v)
    if not UNREACHABLE_TOL <= nrm < math.inf:
        raise ValueError("amplitude vector must have a nonzero, finite norm")
    return v / nrm


def _complex_literal(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _matrix_literal(m: np.ndarray) -> str:
    rows = ",".join("[" + ",".join(_complex_literal(z) for z in row) + "]" for row in m)
    return f"matrix([{rows}])"


def switch_operator(pair: UnitaryPair) -> np.ndarray:
    """The 4x4 controlled-order unitary on (target x control), target first."""
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    return kron(forward_order(pair), p0) + kron(backward_order(pair), p1)


def _make_outcome(label: str, raw: np.ndarray, probability: float) -> Outcome:
    if probability < UNREACHABLE_TOL:
        return Outcome(label=label, probability=max(probability, 0.0), state=None)
    return Outcome(
        label=label,
        probability=probability,
        state=canonical_phase(raw / math.sqrt(probability)),
    )


def _end_vectors(pairs: list[UnitaryPair], inputs: list[np.ndarray]) -> np.ndarray:
    """Per qubit, the forward- and backward-order images of its input: (n, 2, 2)."""
    if len(inputs) != len(pairs) or not pairs:
        raise ValueError("pairs and inputs must be nonempty and of equal length")
    return np.array(
        [[forward_order(p) @ phi, backward_order(p) @ phi] for p, phi in zip(pairs, inputs)]
    )


def _branch_stack(
    control: np.ndarray, reverse: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Live control basis states (|amplitude| > UNREACHABLE_TOL) and, one row
    each, the product state they select, built one qubit at a time from the
    end vectors so that no n-qubit operator is formed. ``ends`` may carry
    leading batch axes, which the stack keeps: (..., live, 2^n)."""
    n = ends.shape[-3]
    live = np.flatnonzero(np.abs(control) > UNREACHABLE_TOL)
    factors = ends[..., np.arange(n), np.asarray(reverse, dtype=np.intp)[live], :]
    stack = factors[..., 0, :]  # qubit 0 alone: (..., live, 2)
    for q in range(1, n):
        stack = (stack[..., :, None] * factors[..., q, None, :]).reshape(
            stack.shape[:-1] + (2 ** (q + 1),))
    return live, stack


def branch_readout(
    control: np.ndarray, reverse: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalised outcome amplitudes and probabilities of a controlled order.

    ``control`` holds the 2^m control amplitudes, ``reverse[b][q]`` says
    whether control basis state b applies the backward order of qubit q's
    pair, and ``ends[..., q, o]`` is qubit q's input after order o (0 forward,
    1 backward), with any leading batch axes. Every control qubit is measured
    in the {|+>, |->} basis, outcomes ordered with the control qubits read
    most significant first. Returns amplitudes (..., 2^m, 2^n) and
    probabilities (..., 2^m).
    """
    control = np.asarray(control, dtype=complex)
    m = num_qubits(len(control))
    live, stack = _branch_stack(control, reverse, np.asarray(ends, dtype=complex))
    # H^(x)m entry for outcome k and control state b is (-1)^popcount(k & b) / 2^(m/2)
    both = np.arange(2**m)[:, None] & live[None, :]
    parity = both.copy()
    for k in range(1, m):
        parity ^= both >> k
    raw = ((1.0 - 2.0 * (parity & 1)) * (control[live] * 2.0 ** (-m / 2.0))) @ stack
    return raw, np.einsum("...ij,...ij->...i", raw.conj(), raw).real


def control_labels(m: int) -> list[str]:
    """Outcome labels of an m-qubit control readout, in ``branch_readout`` order."""
    return ["".join(bits) for bits in product("+-", repeat=m)]


def controlled_outcomes(
    control: np.ndarray, reverse: np.ndarray, pairs: list[UnitaryPair], inputs: list[np.ndarray]
) -> OutcomeEnsemble:
    """Measure every control qubit of a controlled-order superposition.

    The single-instance form of ``branch_readout``: each outcome is
    thresholded, normalised and phase-fixed, labelled like ``+-`` with the
    control qubits read most significant first.
    """
    raw, probabilities = branch_readout(control, reverse, _end_vectors(pairs, inputs))
    labels = control_labels(num_qubits(len(control)))
    return OutcomeEnsemble(
        tuple(_make_outcome(lb, r, float(p)) for lb, r, p in zip(labels, raw, probabilities))
    )


def protocol_control(protocol: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (control, reverse) pair of a protocol on n qubits.

    Two-order: all-forward and all-backward, evenly weighted. W: uniform over
    the first n of 2^d control states, state j reversing qubit j only.
    """
    if protocol != "w":
        return np.full(2, 1.0 / math.sqrt(2.0)), np.array([[False] * n, [True] * n])
    d = math.ceil(math.log2(n))
    control = np.zeros(2**d)
    control[:n] = 1.0 / math.sqrt(n)
    return control, np.eye(2**d, n, dtype=bool)


def two_order_outcomes(pairs: list[UnitaryPair], inputs: list[np.ndarray]) -> OutcomeEnsemble:
    """Measure the single control of a two-order superposition of local tensors.

    Works for any n >= 1; the Bell and GHZ protocols are the n = 2 and
    n >= 2 instances.
    """
    return controlled_outcomes(*protocol_control("ghz", len(pairs)), pairs, inputs)


def w_outcomes(pairs: list[UnitaryPair], inputs: list[np.ndarray]) -> OutcomeEnsemble:
    """Measure the d-qubit control of the cyclic one-reversed-order superposition.

    The control starts in the uniform superposition over the first n basis
    directions of its 2^d-dimensional space; the remaining directions carry
    zero amplitude, so outcome probabilities need not be equal.
    """
    if len(pairs) < 3:
        raise ValueError("the W protocol requires at least 3 qubits")
    return controlled_outcomes(*protocol_control("w", len(pairs)), pairs, inputs)


def run(spec: SwitchSpec) -> OutcomeEnsemble:
    """Run the protocol described by ``spec`` and return its outcome ensemble."""
    return controlled_outcomes(*protocol_control(spec.protocol, spec.n), spec.pairs, spec.inputs)


def joint_state(spec: SwitchSpec) -> np.ndarray:
    """The unmeasured (targets x control) state after the controlled-order unitary."""
    control, reverse = protocol_control(spec.protocol, spec.n)
    live, stack = _branch_stack(control, reverse, _end_vectors(spec.pairs, spec.inputs))
    out = np.zeros((stack.shape[1], len(control)), dtype=complex)
    out[:, live] = stack.T * control[live]
    return out.reshape(-1)
