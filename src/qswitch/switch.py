"""The coherently-controlled-order engine.

A control enters only through ``readout_plan``, which checks it; the
protocols' plans are cached by ``protocol_plan``. ``branch_readout(plan, ends)``
lets each control basis state select, per qubit, one of the two order images
of its input (``_order_images``), measures the control register in the
coherent {|+>, |->} basis and postselects, over any number of stacked
instances at once; its single-instance form ``controlled_outcomes(plan, ends)``
returns one ``Readout``, a column per field. The protocols only choose the control:

* two-order protocols (Bell, GHZ-like): one control qubit selects between
  the two orders of the n-qubit local tensors;
* the W-like protocol: n cyclic terms, each reversing the order on exactly
  one qubit, steered by a control register of d = ceil(log2 n) qubits.

The readout is one matrix product per batch: the signs of H^(x)m, read as the
parity of popcount(k & b) for outcome k and live control state b, times the
live control amplitudes, applied to the branch states of all instances side by
side. The single-instance form then fixes the global phase of every reachable
state in one ``canonical_phase`` call on the stack.

State vectors are 1-D complex arrays of length 2^n. Qubit 0 is the leftmost
tensor factor throughout, so basis index ``b0 b1 ... b_{n-1}`` reads left to
right.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .gates import UnitaryPair

UNREACHABLE_TOL = 1e-12
NORM_TOL = 1e-10  # a state is normalised when |sum |a_i|^2 - 1| <= NORM_TOL
MAX_QUBITS = 12  # largest simulated register: a 2^12 state vector per outcome

PROTOCOLS = ("bell", "ghz", "w")


def num_qubits(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def canonical_phase(states: np.ndarray) -> np.ndarray:
    """Rotate the global phase of each state in a stack (..., 2^n) so that its
    first amplitude above UNREACHABLE_TOL is real positive; a state with no
    such amplitude comes back unchanged.

    Each state is multiplied by a.conjugate() / abs(a) for its first such
    amplitude a. abs(a) is taken as np.hypot, which is what the scalar ``abs``
    computes; the array ``np.abs`` can differ in the last bit, and with it the
    printed states.
    """
    states = np.asarray(states, dtype=complex)
    rows = states.reshape(-1, states.shape[-1])
    above = np.abs(rows) > UNREACHABLE_TOL
    first = above.argmax(axis=-1) + np.arange(0, rows.size, rows.shape[-1])  # flat indices
    found, lead = above.ravel()[first], rows.ravel()[first]
    scale = np.where(found, np.hypot(lead.real, lead.imag), 1.0)
    fixed = rows * (lead.conj() / scale)[:, None]
    if not found.all():
        np.copyto(fixed, rows, where=~found[:, None])
    return fixed.reshape(states.shape)


def _normalised_weights(amplitudes: list[complex], refusal: str) -> list[float]:
    """The squared magnitudes |a_i|^2 of ``amplitudes``, refused with ``refusal`` unless they
    sum to 1 within ``NORM_TOL``, the one norm rule of every state check: ``math.fsum`` rounds
    the sum exactly, in any order of the amplitudes. NaN, inf and an overflowing sum fail."""
    weights = [z.real * z.real + z.imag * z.imag for z in amplitudes]
    try:
        if abs(math.fsum(weights) - 1.0) <= NORM_TOL:
            return weights
    except OverflowError:  # finite weights whose sum no float holds
        pass
    raise ValueError(refusal)


def _as_qubit_states(inputs) -> np.ndarray:
    """A read-only copy (k, 2) of the k states ``inputs``, each checked in turn to be a
    finite, normalised qubit state."""
    states = []
    for v in inputs:
        v = np.asarray(v, dtype=complex)
        if v.shape != (2,):
            raise ValueError(f"input states must be single-qubit, got shape {v.shape}")
        _normalised_weights(v.tolist(), "input states must be finite and normalized")
        states.append(v)
    states = np.array(states, dtype=complex)
    states.setflags(write=False)
    return states


def superposed_input(alpha) -> np.ndarray:
    """sqrt(alpha)|0> + sqrt(1-alpha)|1>, the standard swept input family.

    An array of alphas gives the stacked inputs, shape (..., 2).
    """
    alpha = np.asarray(alpha, dtype=float)
    if not np.all((0.0 <= alpha) & (alpha <= 1.0)):
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")
    out = np.empty(alpha.shape + (2,), dtype=complex)
    out[..., 0], out[..., 1] = np.sqrt(alpha), np.sqrt(1.0 - alpha)
    return out


@dataclass(frozen=True, eq=False)
class Readout:
    """A coherent-basis readout of the control register, one column per field and one
    row per outcome: the ``labels``, like ``+-``; the ``probability`` and ``reachable``
    arrays; the phase-fixed ``states`` (outcomes, 2^n), zero rows where unreachable;
    and, filled by ``netsim`` only, each branch's GHZ ``fidelity``, 0.0 where unreachable."""

    labels: tuple[str, ...]
    probability: np.ndarray
    reachable: np.ndarray
    states: np.ndarray
    fidelity: Optional[np.ndarray] = None


def check_protocol(protocol: str, n: int) -> None:
    """Raise ValueError unless ``protocol`` is known and runs on n qubits, n an integer;
    there is no upper bound: ``_branch_stack`` caps the states that are built."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"qubit count must be an integer, got {n!r}")
    minimum = {"bell": 2, "ghz": 2, "w": 3}[protocol]
    if protocol == "bell" and n != 2:
        raise ValueError("bell protocol requires exactly 2 qubits")
    if n < minimum:
        raise ValueError(f"{protocol} protocol requires at least {minimum} qubits")


@dataclass(frozen=True, eq=False)
class SwitchSpec:
    """Protocol descriptor: which unitaries act on which product input.

    The control register always starts in the even superposition, which the
    generation conditions all assume. Immutable: ``pairs`` and ``inputs`` are
    tuples, the inputs read-only copies, and the read-only ``ends`` (n, 2, 2)
    holds their order images, built once here for every run and check.
    """

    protocol: str
    pairs: tuple[UnitaryPair, ...]
    inputs: tuple[np.ndarray, ...]
    ends: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pairs = tuple(self.pairs)
        check_protocol(self.protocol, len(pairs))
        inputs = _as_qubit_states(self.inputs)
        ends = _end_vectors(pairs, inputs)  # also checks that the lengths agree
        ends.setflags(write=False)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "inputs", tuple(inputs))
        object.__setattr__(self, "ends", ends)

    @property
    def n(self) -> int:
        return len(self.pairs)


def _order_images(pair: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The forward- (u @ u_tilde) and backward-order (u_tilde @ u) images of ``phi``:
    (..., order, 2), with ``pair`` the stack [u, u_tilde] (..., 2, 2, 2) and phi (..., 2)
    broadcast. Both orders are one matmul, [u, u_tilde] @ [u_tilde, u]."""
    return (pair @ pair[..., ::-1, :, :] @ phi[..., None, :, None])[..., 0]


def _end_vectors(pairs: Sequence[UnitaryPair], inputs: Sequence[np.ndarray]) -> np.ndarray:
    """Per qubit, the forward- and backward-order images of its input: (n, 2, 2)."""
    if not pairs:
        raise ValueError("at least one qubit is required")
    if len(inputs) != len(pairs):
        raise ValueError("pairs and inputs must have the same length")
    return _order_images(np.array([(p.u, p.u_tilde) for p in pairs]),
                         np.asarray(inputs, dtype=complex))


def _check_width(n: int) -> None:
    """Refuse a register of n > ``MAX_QUBITS`` qubits, before anything of its size is built."""
    if n > MAX_QUBITS:
        raise ValueError(f"state has {n} qubits, cap is {MAX_QUBITS}")


def _branch_stack(reverse: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The product state that each row of ``reverse`` selects: qubit q takes its
    backward-order image from ``ends`` where the row is set at q, its forward
    one elsewhere. It is built one qubit at a time, left to right, with the same
    products as ``reduce(np.kron, ...)``, so that no n-qubit operator is formed.
    ``ends`` may carry leading batch axes, which the stack keeps: (..., rows, 2^n).
    Every path builds its states here, and n > ``MAX_QUBITS`` is refused first."""
    n = ends.shape[-3]
    _check_width(n)
    factors = ends[..., np.arange(n), np.asarray(reverse, dtype=np.intp), :]
    stack = factors[..., 0, :]  # qubit 0 alone: (..., rows, 2)
    for q in range(1, n):
        stack = (stack[..., :, None] * factors[..., q, None, :]).reshape(
            stack.shape[:-1] + (2 ** (q + 1),))
    return stack


def readout_plan(control: np.ndarray, reverse: np.ndarray) -> tuple:
    """A control's read-only readout plan, the engine's one input besides the order
    images: the outcome labels, the H^(x)m signs times the live control amplitudes
    (2^m, live), and the live rows of ``reverse``, whose entry [b][q], 0 or 1, says
    whether control basis state b applies the backward order of qubit q's pair. A control is
    checked here, where it enters: 2^m finite amplitudes, normalised, m (not n) at most the cap."""
    control = np.asarray(control, dtype=complex)
    if control.ndim != 1:
        raise ValueError(f"control must be a 1-D state vector, got shape {control.shape}")
    m = num_qubits(len(control))
    reverse = np.asarray(reverse)
    if reverse.ndim != 2 or len(reverse) != 2**m:
        raise ValueError(f"reverse table must have {2**m} rows, got shape {reverse.shape}")
    _check_width(m)  # before anything that reads or builds 2^m entries
    if not ((reverse == 0) | (reverse == 1)).all():
        raise ValueError("reverse table entries must be 0 or 1")
    _normalised_weights(control.tolist(), "control must be finite and normalized")
    live = np.flatnonzero(np.abs(control) > UNREACHABLE_TOL)
    rows = reverse[live].astype(np.intp)
    # H^(x)m entry for outcome k and control state b is (-1)^popcount(k & b) / 2^(m/2)
    signs = 1.0 - 2.0 * (np.bitwise_count(np.arange(2**m)[:, None] & live[None, :]) & 1)
    weights = signs * (control[live] * 2.0 ** (-m / 2.0))
    weights.setflags(write=False)
    rows.setflags(write=False)
    return tuple("".join(bits) for bits in product("+-", repeat=m)), weights, rows


def branch_readout(plan: tuple, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Postselected outcomes of a controlled order.

    ``plan`` is a ``readout_plan`` on n qubits, and ``ends[..., q, o]`` is qubit q's
    input after order o (0 forward, 1 backward), with any leading batch axes. Every
    control qubit is measured in the {|+>, |->} basis, outcomes ordered with the
    control qubits read most significant first. Returns the probabilities (..., 2^m),
    clamped at 0; the reachable mask (..., 2^m), probability >= UNREACHABLE_TOL; and
    the normalised states (..., 2^m, 2^n), zero where unreachable.

    A batch is read out in one product, (2^m, live) @ (live, instances x 2^n). With
    n >= 2 qubits and m >= 1 control qubits, as in every protocol, each instance reads
    out bit for bit as it does alone; a one-qubit register or a one-outcome plan can
    take another BLAS kernel alone than in a batch.
    """
    _, weights, rows = plan
    ends = np.asarray(ends, dtype=complex)
    if ends.shape[-3:] != (rows.shape[1], 2, 2):
        raise ValueError(f"order images must be (..., {rows.shape[1]}, 2, 2), got {ends.shape}")
    # the whole batch is one product (outcomes, live) @ (live, instances x 2^n), the live
    # axis swapped to the front and back again; with no batch axis the swap is no copy
    stack = _branch_stack(rows, ends).swapaxes(0, -2)  # (live, ..., 2^n)
    shape = (len(weights),) + stack.shape[1:]
    raw = (weights @ stack.reshape(len(rows), -1)).reshape(shape).swapaxes(0, -2)
    del stack  # the largest array here: freed before the outcome arrays are built
    probabilities = np.einsum("...ij,...ij->...i", raw.conj(), raw).real
    reachable = probabilities >= UNREACHABLE_TOL
    raw /= np.sqrt(np.where(reachable, probabilities, 1.0))[..., None]  # in place: the states
    if not reachable.all():
        raw[~reachable] = 0.0
    return np.maximum(probabilities, 0.0), reachable, raw


def controlled_outcomes(plan: tuple, ends: np.ndarray) -> Readout:
    """Measure every control qubit of a controlled-order superposition.

    The single-instance form of ``branch_readout``, for the order images ``ends``
    (n, 2, 2) of any 1 <= n <= 12 qubits (``_end_vectors``): each reachable state is
    phase-fixed, and outcomes are labelled like ``+-`` with the control qubits read
    most significant first.
    """
    p, reachable, states = branch_readout(plan, ends)
    return Readout(plan[0], p, reachable, canonical_phase(states))  # zero rows stay zero


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


@lru_cache(maxsize=None)  # at most one entry per protocol and width up to the cap
def protocol_plan(protocol: str, n: int) -> tuple:
    """The ``readout_plan`` of a protocol on n qubits, built once per (protocol, n);
    a width over the cap is refused first, and so never cached."""
    _check_width(n)
    return readout_plan(*protocol_control(protocol, n))


def run(spec: SwitchSpec) -> Readout:
    """Run the protocol described by ``spec`` and return its readout."""
    return controlled_outcomes(protocol_plan(spec.protocol, spec.n), spec.ends)
