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

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Optional

import numpy as np

from . import gates
from .gates import UnitaryPair, backward_order, forward_order
from .linalg import kron, num_qubits

UNREACHABLE_TOL = 1e-12
MAX_QUBITS = 12  # largest simulated register: a 2^12 state vector per outcome

PROTOCOLS = ("bell", "ghz", "w")


def canonical_phase(state: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first nonzero amplitude is real positive."""
    state = np.asarray(state, dtype=complex)
    for a in state:
        if abs(a) > UNREACHABLE_TOL:
            return state * (a.conjugate() / abs(a))
    return state


def _as_qubit_state(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.shape != (2,):
        raise ValueError(f"input states must be single-qubit, got shape {v.shape}")
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ValueError("input states must be normalized")
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


@dataclass
class SwitchSpec:
    """Protocol descriptor: which unitaries act on which product input.

    Only the even control superposition is supported; the generation
    conditions all assume it, so anything else is rejected outright.
    """

    protocol: str
    pairs: list[UnitaryPair]
    inputs: list[np.ndarray]
    control: str = "even"
    gate_names: Optional[list[tuple[str, str]]] = field(default=None, repr=False)
    alpha: Optional[float] = field(default=None, repr=False)

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.control != "even":
            raise ValueError("only the even control superposition is supported")
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

    @property
    def control_qubits(self) -> int:
        if self.protocol == "w":
            return max(1, math.ceil(math.log2(self.n)))
        return 1

    # -- JSON wire format (version 1) -------------------------------------

    @classmethod
    def from_document(cls, doc: dict) -> "SwitchSpec":
        version = doc.get("version", 1)
        if version != 1:
            raise ValueError(f"unsupported spec version {version!r}")
        protocol = doc["protocol"]
        pair_docs = doc["pairs"]
        n = doc.get("n", len(pair_docs))
        if n > MAX_QUBITS:  # before broadcasting a single pair n times
            raise ValueError(f"spec has {n} qubits, cap is {MAX_QUBITS}")
        if len(pair_docs) == 1:
            pair_docs = pair_docs * n
        elif n != len(pair_docs):
            raise ValueError(f"'n' is {n} but {len(pair_docs)} pairs are given")
        names = [(p["u"], p["u_tilde"]) for p in pair_docs]
        pairs = [UnitaryPair(gates.parse_gate(u), gates.parse_gate(ut)) for u, ut in names]
        inp = doc.get("input", {"alpha": 0.5})
        alpha = None
        if "alpha" in inp:
            alpha = float(inp["alpha"])
            inputs = [superposed_input(alpha) for _ in range(len(pairs))]
        elif "amplitudes" in inp:
            inputs = [_amplitudes_to_state(a) for a in inp["amplitudes"]]
        else:
            raise ValueError("input must provide 'alpha' or 'amplitudes'")
        return cls(
            protocol=protocol,
            pairs=pairs,
            inputs=inputs,
            control=doc.get("control", "even"),
            gate_names=names,
            alpha=alpha,
        )

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
            "control": self.control,
        }


def _amplitudes_to_state(entries) -> np.ndarray:
    amps = []
    for e in entries:
        if isinstance(e, str):
            amps.append(complex(e.replace("i", "j")))
        elif isinstance(e, (list, tuple)):
            amps.append(complex(e[0], e[1]))
        else:
            amps.append(complex(e))
    v = np.asarray(amps, dtype=complex)
    nrm = np.linalg.norm(v)
    if nrm < UNREACHABLE_TOL:
        raise ValueError("zero amplitude vector")
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
