import cmath
import csv
import hashlib
import io
import json
import math
import os
import random
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from qswitch import (
    SwitchSpec,
    UnitaryPair,
    backward_order,
    forward_order,
    parse_gate,
    pauli,
    ry,
    superposed_input,
)
from qswitch.cli import main
from qswitch.gates import ATOL, _parse_complex
from qswitch.metrics import _cut_purities, _gme_from_entropy
from qswitch.netsim import _reverse_table
from qswitch.sweep import SweepTable, default_plan
from qswitch.switch import (MAX_QUBITS, UNREACHABLE_TOL, _branch_stack, _end_vectors,
                            _order_images, num_qubits, protocol_control, run)
from qswitch.verify import CONDITION_TOL, certify_class, check_max_entanglement, three_tangle

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def haar_unitary(rng, dim=2):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure_state(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def random_density(rng, n):
    psi = random_pure_state(rng, n)
    return np.outer(psi, psi.conj())


def default_pair():
    return UnitaryPair(pauli("z"), ry(math.pi / 2))


def random_spec(rng, protocol, n):
    pairs = [UnitaryPair(haar_unitary(rng), haar_unitary(rng)) for _ in range(n)]
    inputs = [random_pure_state(rng, 1) for _ in range(n)]
    return SwitchSpec(protocol, pairs, inputs)


def condition_pairs(rng, n):
    """Random (pairs, inputs) of any n >= 1 qubits satisfying the per-qubit
    orthogonality condition.

    Conjugating the canonical (pauli_z, ry(pi/2), eta(1/2)) construction by a
    Haar unitary per qubit preserves the overlap scalar, which is zero there.
    """
    pairs, inputs = [], []
    for _ in range(n):
        a = haar_unitary(rng)
        pairs.append(UnitaryPair(a @ pauli("z") @ a.conj().T, a @ ry(math.pi / 2) @ a.conj().T))
        inputs.append(a @ superposed_input(0.5))
    return pairs, inputs


def condition_spec(rng, protocol, n):
    """Random spec satisfying the per-qubit orthogonality condition."""
    return SwitchSpec(protocol, *condition_pairs(rng, n))


def aligned_spec(rng, protocol, n, aligned_qubit=0):
    """Random spec with one qubit's pair commuting (overlap magnitude 1)."""
    spec = random_spec(rng, protocol, n)
    theta = rng.uniform(0, 2 * math.pi)
    commuting = UnitaryPair(
        np.diag([1.0, -1.0]).astype(complex),
        np.diag([1.0, np.exp(1j * theta)]),
    )
    pairs = list(spec.pairs)
    pairs[aligned_qubit] = commuting
    return SwitchSpec(spec.protocol, pairs, spec.inputs)


# -- dense test-only oracles --


def kron_all(factors):
    """Left-to-right Kronecker product of a nonempty sequence of factors."""
    factors = [np.asarray(f, dtype=complex) for f in factors]
    if not factors:
        raise ValueError("kron_all requires at least one factor")
    return reduce(np.kron, factors)


def basis_state(n, index):
    """Computational basis state |index> on n qubits, qubit 0 the leftmost factor."""
    v = np.zeros(2**n, dtype=complex)
    v[index] = 1.0
    return v


def density(state):
    """Projector |state><state| of a pure state."""
    state = np.asarray(state, dtype=complex)
    return np.outer(state, state.conj())


def purity(rho):
    """Tr(rho^2), between 1/2^n (maximally mixed) and 1 (pure)."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.trace(rho @ rho).real)


def reduced_density(state, keep):
    """Reduced density matrix of a pure state, without forming the full projector."""
    state = np.asarray(state, dtype=complex)
    n = num_qubits(state.shape[0])
    keep = list(keep)
    if not keep:
        raise ValueError("keep must be nonempty")
    traced = [q for q in range(n) if q not in keep]
    t = state.reshape([2] * n).transpose(keep + traced).reshape(2 ** len(keep), -1)
    return t @ t.conj().T


def gme_all_bipartitions(state):
    """GME concurrence with the minimum taken over every bipartition, each once,
    instead of over the single-qubit cuts only."""
    n = num_qubits(len(state))
    cuts = [list(c) for size in range(1, n // 2 + 1) for c in combinations(range(n), size)
            if size < n / 2 or 0 in c]
    return float(_gme_from_entropy(min(1.0 - purity(reduced_density(state, c)) for c in cuts)))


def apply_local_unitaries(lus, state):
    """Apply lus[q] to qubit q of ``state``, one qubit axis at a time."""
    n = len(lus)
    t = np.asarray(state, dtype=complex).reshape([2] * n)
    for q, u in enumerate(lus):
        t = u @ t.reshape(2**q, 2, 2 ** (n - q - 1))
    return t.reshape(-1)


def switch_operator(pair):
    """The 4x4 controlled-order unitary on (target x control), target first."""
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    return np.kron(forward_order(pair), p0) + np.kron(backward_order(pair), p1)


def joint_state(spec):
    """The unmeasured (targets x control) state after the controlled-order
    unitary, from the engine's branch stack."""
    control, reverse = protocol_control(spec.protocol, spec.n)
    live = np.flatnonzero(control)
    stack = _branch_stack(reverse[live], _end_vectors(spec.pairs, spec.inputs))
    out = np.zeros((stack.shape[1], len(control)), dtype=complex)
    out[:, live] = stack.T * control[live]
    return out.reshape(-1)


def partial_trace(rho, keep):
    """Reduced density matrix of ``rho`` over the qubits in ``keep``.

    ``keep`` preserves its own order in the output, trace is preserved.
    """
    rho = np.asarray(rho, dtype=complex)
    n = num_qubits(rho.shape[0])
    keep = list(keep)
    if not keep:
        raise ValueError("keep must be nonempty")
    if len(set(keep)) != len(keep) or any(q < 0 or q >= n for q in keep):
        raise ValueError(f"keep indices must be distinct and in [0, {n}), got {keep}")
    traced = [q for q in range(n) if q not in keep]
    perm = keep + traced
    t = rho.reshape([2] * (2 * n)).transpose(perm + [n + q for q in perm])
    dk, dt = 2 ** len(keep), 2 ** len(traced)
    return np.einsum("ajbj->ab", t.reshape(dk, dt, dk, dt))


def dense_is_unitary(m, tol=ATOL):
    """The unitarity rule through numpy on any square matrix: every |entry| <= 1 + tol
    (checked first, so that the Gram product cannot overflow) and every
    |(m^dagger m - I) entry| <= tol."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    if not np.abs(m).max() <= 1.0 + tol:
        return False
    gram = np.dot(m.conj().T, m)
    gram.reshape(-1)[:: m.shape[0] + 1] -= 1.0
    return np.abs(gram).max() <= tol


def reference_is_unitary(m):
    """``is_unitary`` as a loop over a list of the entries and one of the Gram
    entries, with the same float operations as the straight-line form."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        return False
    entries = m.ravel().tolist()
    if not all(abs(z) <= 1.0 + ATOL for z in entries):
        return False
    a, b, c, d = entries
    w = [z.real * z.real + z.imag * z.imag for z in entries]
    gram = (w[0] + w[2] - 1.0, w[1] + w[3] - 1.0, a.conjugate() * b + c.conjugate() * d)
    return all(abs(g) <= ATOL for g in gram)


def reference_ry(angle):
    """``gates.ry`` as nested ``np.stack`` calls cast to complex, its earlier construction."""
    half = np.asarray(angle, dtype=float) / 2.0
    c, s = np.cos(half), np.sin(half)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2).astype(complex)


def reference_superposed_input(alpha):
    """``superposed_input`` as ``np.stack`` cast to complex, its earlier construction."""
    alpha = np.asarray(alpha, dtype=float)
    return np.stack([np.sqrt(alpha), np.sqrt(1.0 - alpha)], -1).astype(complex)


# two NaNs of different sign and payload: a table keyed by float value would merge them
NAN_PAYLOADS = np.array([0x7FF8000000000001, -0x0007FFFFFFFFFEDC],
                        dtype=np.int64).view(np.float64).tolist()


def same_bits(a, b):
    """Equal shapes and dtypes, and equal bit patterns entry by entry (NaN payloads and signed
    zeros included)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def reference_cut_purities_scalar(a):
    """The single-qubit purities of a 3-qubit state's eight amplitudes, each sum
    accumulated in a loop from zero over the pairs (i, i | 2^(2-q))."""
    weights = [z.real * z.real + z.imag * z.imag for z in a]
    out = []
    for bit in (4, 2, 1):
        r00 = r11 = 0.0
        r01 = 0j
        for i in range(8):
            if not i & bit:
                r00 += weights[i]
                r11 += weights[i | bit]
                r01 += a[i] * a[i | bit].conjugate()
        out.append(r00 * r00 + r11 * r11 + 2.0 * (r01.real * r01.real + r01.imag * r01.imag))
    return out


def reference_branch_readout(plan, ends):
    """``switch.branch_readout`` of one instance as it was before a batch became one product:
    the live rows' weights times that instance's own branch stack."""
    _, weights, rows = plan
    raw = weights @ _branch_stack(rows, np.asarray(ends, dtype=complex))
    probabilities = np.einsum("...ij,...ij->...i", raw.conj(), raw).real
    reachable = probabilities >= UNREACHABLE_TOL
    raw /= np.sqrt(np.where(reachable, probabilities, 1.0))[..., None]
    raw[~reachable] = 0.0
    return np.maximum(probabilities, 0.0), reachable, raw


def reference_cut_purities(states):
    """``metrics._cut_purities`` as it was before it squared the amplitudes once: each
    qubit's half-sums taken over |a|^2 computed afresh from that half."""
    n = num_qubits(states.shape[-1])
    out = []
    for q in range(n):
        halves = states.reshape(states.shape[:-1] + (2**q, 2, 2 ** (n - q - 1)))
        a, b = halves[..., 0, :], halves[..., 1, :]
        r00 = (a.real**2 + a.imag**2).sum(axis=(-2, -1))
        r11 = (b.real**2 + b.imag**2).sum(axis=(-2, -1))
        r01 = (a * b.conj()).sum(axis=(-2, -1))
        out.append(r00 * r00 + r11 * r11 + 2.0 * (r01.real**2 + r01.imag**2))
    return np.stack(out, axis=-1)


# the CLI's four sweep protocols: (protocol, n)
SWEEP_PROTOCOLS = (("bell", 2), ("ghz", 3), ("w", 3), ("ghz", 4))


def sweep_order_images(n, steps=33):
    """The order images that ``run_sweep`` reads out on the default steps x steps grid of
    n qubits, built as it builds them: (lambda, alpha, n, order, 2)."""
    plan = default_plan("ghz", n, steps, steps)
    u_tilde = ry(2.0 * np.asarray(plan.lambda_grid))[:, None]
    ends = _order_images(np.stack(np.broadcast_arrays(pauli("z"), u_tilde), -3),
                         superposed_input(plan.alpha_grid))
    return np.broadcast_to(ends[:, :, None], ends.shape[:2] + (n,) + ends.shape[2:])


def reference_certify_class(state, tol=1e-6):
    """``certify_class`` through numpy: batched marginal purities, then the
    public ``three_tangle``, then the GME concurrence of the same purities.

    ``certify_class`` has no GME step; agreement with this oracle shows that
    the step never decides a class."""
    purities = _cut_purities(np.asarray(state, dtype=complex))
    pure_cuts = int(np.count_nonzero(purities > 1.0 - tol))
    if pure_cuts == 3:
        return "separable"
    if pure_cuts >= 1:
        return "biseparable"
    if three_tangle(state) > tol:
        return "ghz-class"
    if _gme_from_entropy(np.min(1.0 - purities)) > tol:
        return "w-class"
    return "biseparable"


def reference_canonical_phase(state):
    """The phase fix of one state: its first amplitude a above 1e-12 made real
    positive by the numpy-scalar factor a.conjugate() / abs(a)."""
    state = np.asarray(state, dtype=complex)
    nonzero = np.flatnonzero(np.abs(state) > UNREACHABLE_TOL)
    if not nonzero.size:
        return state
    a = state[nonzero[0]]
    return state * (a.conjugate() / abs(a))


def outcome_labels(m):
    """Control outcome labels in report order, most significant qubit first."""
    return ["".join(bits) for bits in product("+-", repeat=m)]


def dense_readout(joint, m):
    """Dense reference readout of a (targets x control) state with m control qubits.

    Applies an explicit H^(x)m to the control register and returns, per
    outcome in label order, the probability and the normalised, phase-fixed
    target state (None below the 1e-12 reachability threshold).
    """
    rows = kron_all([HADAMARD] * m) @ np.asarray(joint).reshape(-1, 2**m).T
    reference = []
    for row in rows:
        p = float(np.vdot(row, row).real)
        state = reference_canonical_phase(row / math.sqrt(p)) if p >= 1e-12 else None
        reference.append((p, state))
    return reference


def assert_matches_reference(results, reference, tol=1e-12):
    """Compare (probability, state or None) pairs with a dense_readout reference."""
    assert len(results) == len(reference)
    for (p, state), (p_ref, state_ref) in zip(results, reference):
        assert abs(p - p_ref) <= tol
        assert (state is None) == (state_ref is None)
        if state is not None:
            assert np.max(np.abs(state - state_ref)) <= tol


# -- dense structural audit of the network's controlled order --


def controlled_order_operator(pairs, cluster_of_qubit, m):
    """Dense joint operator (clients x control) for small audit instances."""
    n = len(pairs)
    if n + m > MAX_QUBITS:
        raise ValueError("audit operator too large")
    dim_c = 2**m
    blocks = []
    for b, row in enumerate(_reverse_table(cluster_of_qubit, m)):
        factors = [backward_order(p) if bit else forward_order(p) for p, bit in zip(pairs, row)]
        proj = np.zeros((dim_c, dim_c), dtype=complex)
        proj[b, b] = 1.0
        blocks.append(np.kron(kron_all(factors), proj))
    return sum(blocks)


def _nearest_kron_residual(mat, n):
    # largest deviation of a 2^n x 2^n matrix from a chain of 2x2 factors
    if n == 1:
        return 0.0
    rest = 2 ** (n - 1)
    r = mat.reshape(2, rest, 2, rest).transpose(0, 2, 1, 3).reshape(4, rest * rest)
    u, s, vh = np.linalg.svd(r)
    residual = float(s[1]) if len(s) > 1 else 0.0
    tail = (s[0] * vh[0]).reshape(rest, rest)
    scale = np.max(np.abs(tail))
    if scale > 0:
        residual = max(residual, _nearest_kron_residual(tail / scale, n - 1) * scale)
    return residual


def max_cross_client_coupling(op, n_clients, n_controls):
    """Largest coupling between client qubits in a joint operator.

    Zero (up to numerical dust) certifies the operator is a sum of control
    projectors times tensor products of single-qubit client operators.
    """
    dim_t, dim_c = 2**n_clients, 2**n_controls
    t = op.reshape(dim_t, dim_c, dim_t, dim_c)
    worst = 0.0
    for b in range(dim_c):
        for b2 in range(dim_c):
            if b != b2:
                worst = max(worst, float(np.max(np.abs(t[:, b, :, b2]))))
    for b in range(dim_c):
        worst = max(worst, _nearest_kron_residual(t[:, b, :, b], n_clients))
    return worst


# -- reference output: the documents as json.dumps and csv.writer write them --


def _fmt(x):
    return float(format(x, ".12g"))


def _state_doc(state):
    return [[_fmt(z.real), _fmt(z.imag)] for z in state]


def reference_ensemble_text(ensemble):
    """stdout of ``qswitch run``: the outcome ensemble through json.dumps."""
    outcomes = []
    for o in ensemble:
        doc = {"label": o.label, "probability": _fmt(o.probability), "reachable": o.reachable}
        if o.reachable:
            doc["state"] = _state_doc(o.state)
        outcomes.append(doc)
    return json.dumps({"outcomes": outcomes}, indent=2, sort_keys=True) + "\n"


def reference_branches_text(branches):
    """stdout of ``qswitch netsim --report branches`` through json.dumps."""
    docs = []
    for b in branches:
        doc = {"control_outcome": b.control_outcome, "probability": _fmt(b.probability),
               "reachable": b.reachable}
        if b.reachable:
            doc["ghz_fidelity"] = _fmt(b.ghz_fidelity)
            doc["client_state"] = _state_doc(b.client_state)
        docs.append(doc)
    return json.dumps({"branches": docs}, indent=2, sort_keys=True) + "\n"


def reference_verify_text(spec, tol=CONDITION_TOL):
    """stdout of ``qswitch verify``: the condition report and, for 3 qubits, the
    class of each reachable outcome, through json.dumps at full precision."""
    report = check_max_entanglement(spec, tol)
    doc = {"per_qubit_overlap": [[z.real, z.imag] for z in report.per_qubit_overlap],
           "all_orthogonal": report.all_orthogonal, "any_aligned": report.any_aligned,
           "separable": report.any_aligned, "tol": report.tol}
    if spec.n == 3:
        doc["outcome_classes"] = {o.label: certify_class(o.state) for o in run(spec).reachable()}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


SweepRow = namedtuple("SweepRow", "lam alpha outcome probability metric_value reachable")


def sweep_rows(table):
    """The rows of a ``SweepTable`` by lambda, then alpha, then outcome (the C
    order of its arrays); an unreachable row's ``metric_value`` is None."""
    keys = product(table.lambda_grid, table.alpha_grid, table.labels)
    columns = [c.ravel().tolist() for c in (table.probability, table.metric, table.reachable)]
    for (lam, alpha, label), p, value, live in zip(keys, *columns):
        yield SweepRow(lam, alpha, label, p, value if live else None, live)


def load_csv(path):
    """The rows of a CSV sweep file, read back through csv.DictReader."""
    with open(path, newline="") as fh:
        return [SweepRow(lam=float(row["lambda"]), alpha=float(row["alpha"]),
                         outcome=row["outcome"], probability=float(row["probability"]),
                         metric_value=float(row["metric"]) if row["metric"] else None,
                         reachable=row["reachable"] == "true")
                for row in csv.DictReader(fh)]


def empty_table():
    """A sweep table of no rows."""
    empty = np.zeros((0, 0, 2))
    return SweepTable([], [], ["+", "-"], empty, empty, empty.astype(bool))


def reference_export(table, fmt, path):
    """The rows of a sweep table written through csv.writer or json.dump."""
    records = sweep_rows(table)

    def g(x):
        return format(x, ".12g")

    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lambda", "alpha", "outcome", "probability", "metric", "reachable"])
            for r in records:
                writer.writerow([g(r.lam), g(r.alpha), r.outcome, g(r.probability),
                                 "" if r.metric_value is None else g(r.metric_value),
                                 "true" if r.reachable else "false"])
    else:
        docs = [{"lambda": float(g(r.lam)), "alpha": float(g(r.alpha)), "outcome": r.outcome,
                 "probability": float(g(r.probability)),
                 "metric": None if r.metric_value is None else float(g(r.metric_value)),
                 "reachable": r.reachable} for r in records]
        with open(path, "w") as fh:
            json.dump(docs, fh, indent=2, sort_keys=True)
            fh.write("\n")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# -- the golden manifest of CLI output bytes --

GOLDEN = Path(__file__).resolve().parent / "golden"


def _haar_2x2(rng):
    """A Haar-random 2x2 unitary e^(i theta) [[a, -b*], [b, a*]] in Python arithmetic,
    so that the drawn literals do not depend on the numpy or LAPACK build."""
    x = [rng.gauss(0.0, 1.0) for _ in range(4)]
    r = math.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3])
    a, b = complex(x[0], x[1]) / r, complex(x[2], x[3]) / r
    phase = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return [[phase * a, -phase * b.conjugate()], [phase * b, phase * a.conjugate()]]


def _mul(a, b):
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)] for i in range(2)]


def _dagger(a):
    return [[a[j][i].conjugate() for j in range(2)] for i in range(2)]


def _apply(a, v):
    return [a[0][0] * v[0] + a[0][1] * v[1], a[1][0] * v[0] + a[1][1] * v[1]]


def _seeded_qubit(rng, family):
    """(u, u_tilde, phi) with overlap 0 (orthogonal), 1 (aligned) or in between (generic)."""
    if family == "orthogonal":  # the paper's (Z, ry(pi/2), |+>) in a random frame
        v = _haar_2x2(rng)
        c = math.cos(math.pi / 4)
        conj = [_mul(_mul(v, m), _dagger(v)) for m in ([[1, 0], [0, -1]], [[c, -c], [c, c]])]
        return conj[0], conj[1], _apply(v, [c, c])
    while True:
        phi = _haar_2x2(rng)[0]
        u = _haar_2x2(rng)
        if family == "aligned":  # commuting gates: both orders coincide
            return u, _mul(u, u), phi
        u_tilde = _haar_2x2(rng)
        fwd, bwd = _apply(_mul(u, u_tilde), phi), _apply(_mul(u_tilde, u), phi)
        if 0.05 <= abs(bwd[0].conjugate() * fwd[0] + bwd[1].conjugate() * fwd[1]) <= 0.95:
            return u, u_tilde, phi


def seeded_verify_doc(protocol, n, family, seed):
    """A spec document of matrix literals drawn from ``random.Random(seed)``: every
    qubit orthogonal, every qubit generic, or generic but for one aligned qubit."""
    rng = random.Random(seed)
    qubits = [_seeded_qubit(rng, "orthogonal" if family == "orthogonal" else "generic")
              for _ in range(n)]
    if family == "aligned":
        qubits[rng.randrange(n)] = _seeded_qubit(rng, "aligned")

    def literal(z):
        return f"{z.real:.17g}{z.imag:+.17g}i"

    def matrix(m):
        return "matrix([" + ", ".join(f"[{literal(a)}, {literal(b)}]" for a, b in m) + "])"

    return {"version": 1, "protocol": protocol, "n": n,
            "pairs": [{"u": matrix(u), "u_tilde": matrix(ut)} for u, ut, _ in qubits],
            "input": {"amplitudes": [[literal(a) for a in phi] for _, _, phi in qubits]}}


def golden_spec_documents():
    """The spec document of every ``run`` and ``verify`` case of the golden corpus: the
    seeded verify documents, the paper specs and the amplitude documents at the
    overflow edge."""
    cases = json.loads((GOLDEN / "cases.json").read_text())
    return [seeded_verify_doc(**case["seeded"]) if "seeded" in case else case["spec"]
            for case in cases if case["id"].startswith(("run/", "verify/"))]


def reference_parse_spec(doc):
    """The ``SwitchSpec`` of a well-formed spec document, built step by step through the
    public constructors: ``parse_gate`` and ``UnitaryPair`` for each pair, ``v /
    np.linalg.norm(v)`` for each amplitude vector, then ``SwitchSpec``. A norm that is
    zero or overflows raises ValueError."""
    pairs = [UnitaryPair(parse_gate(p["u"]), parse_gate(p["u_tilde"])) for p in doc["pairs"]]
    n = doc.get("n", len(pairs))
    pairs = pairs * n if len(pairs) == 1 else pairs
    inp = doc.get("input", {"alpha": 0.5})
    if "alpha" in inp:
        return SwitchSpec(doc["protocol"], pairs, [superposed_input(float(inp["alpha"]))] * n)
    inputs = []
    for entries in inp["amplitudes"]:
        v = np.array([_parse_complex(e) if isinstance(e, str) else complex(*e)
                      if isinstance(e, list) else complex(e) for e in entries])
        with np.errstate(over="ignore"):
            nrm = np.linalg.norm(v)
        if not UNREACHABLE_TOL <= nrm < math.inf:
            raise ValueError("amplitude vector must have a nonzero, finite norm")
        inputs.append(v / nrm)
    return SwitchSpec(doc["protocol"], pairs, inputs)


def _golden_digest(case, tmp):
    """sha256 of one case's exit code, stdout, stderr and sweep file, ``tmp`` masked."""
    spec = seeded_verify_doc(**case["seeded"]) if "seeded" in case else case.get("spec")
    paths = {"spec": tmp / "spec.json", "topology": tmp / "topology.json",
             "out": tmp / "out", "missing": tmp / "missing.json"}
    for key, doc in (("spec", spec), ("topology", case.get("topology"))):
        if doc is not None:
            paths[key].write_text(json.dumps(doc))
    argv = [arg.format(**paths) for arg in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    sweep_file = None
    if paths["out"].exists():
        with open(paths["out"], newline="") as fh:
            sweep_file = fh.read()
        paths["out"].unlink()
    masked = [text.getvalue().replace(str(tmp), "<tmp>") for text in (out, err)]
    return hashlib.sha256(json.dumps([code, *masked, sweep_file]).encode()).hexdigest()


def golden_digests(cases, tmp):
    """{case id: digest} of every case, run in process through ``qswitch.cli.main``
    with files under the directory ``tmp``."""
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps usage and help to the terminal width
    try:
        return {case["id"]: _golden_digest(case, Path(tmp)) for case in cases}
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
