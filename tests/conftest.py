import csv
import json
import math
from itertools import product

import numpy as np
import pytest

from qswitch import SwitchSpec, UnitaryPair, pauli, ry, superposed_input
from qswitch.linalg import kron_all
from qswitch.switch import canonical_phase

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


def condition_spec(rng, protocol, n):
    """Random spec satisfying the per-qubit orthogonality condition.

    Conjugating the canonical (pauli_z, ry(pi/2), eta(1/2)) construction by a
    Haar unitary per qubit preserves the overlap scalar, which is zero there.
    """
    pairs, inputs = [], []
    for _ in range(n):
        a = haar_unitary(rng)
        pairs.append(UnitaryPair(a @ pauli("z") @ a.conj().T, a @ ry(math.pi / 2) @ a.conj().T))
        inputs.append(a @ superposed_input(0.5))
    return SwitchSpec(protocol, pairs, inputs)


def aligned_spec(rng, protocol, n, aligned_qubit=0):
    """Random spec with one qubit's pair commuting (overlap magnitude 1)."""
    spec = random_spec(rng, protocol, n)
    theta = rng.uniform(0, 2 * math.pi)
    commuting = UnitaryPair(
        np.diag([1.0, -1.0]).astype(complex),
        np.diag([1.0, np.exp(1j * theta)]),
    )
    spec.pairs[aligned_qubit] = commuting
    return spec


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
        reference.append((p, canonical_phase(row / math.sqrt(p)) if p >= 1e-12 else None))
    return reference


def assert_matches_reference(results, reference, tol=1e-12):
    """Compare (probability, state or None) pairs with a dense_readout reference."""
    assert len(results) == len(reference)
    for (p, state), (p_ref, state_ref) in zip(results, reference):
        assert abs(p - p_ref) <= tol
        assert (state is None) == (state_ref is None)
        if state is not None:
            assert np.max(np.abs(state - state_ref)) <= tol


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


def reference_export(records, fmt, path):
    """Sweep records written through csv.writer or json.dump."""
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
