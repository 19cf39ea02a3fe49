"""Closed-form oracles for the engine's outcome statistics.

Each qubit q contributes only its overlap c_q = <b_q|f_q>, between its forward-order
image f_q = u u~ phi and its backward-order image b_q = u~ u phi (Chiribella et al.,
PRA 88, 022318, 2013). The forms below take u, u~ and phi and nothing of
``qswitch.switch``: no order images, branch stack or readout plan of the engine.

* Two orders, evenly controlled: with P = prod_q c_q and R_q = prod_{r != q} c_r,
  p+- = (1 +- Re P) / 2, and qubit q's purity in outcome +- is
  [1 + |c_q|^2 +- 4 Re P + Re(P^2) + |R_q|^2] / (2 (1 +- Re P)^2).
* W: branch j reverses qubit j only, so with x_j = c_j and A the H^(x)d signs times the
  control amplitudes 1/sqrt(n), p_k = sum_j |A_kj|^2 (1 - |x_j|^2) + |sum_j conj(A_kj) x_j|^2.
"""
import math

import numpy as np
import pytest

from conftest import purity, random_spec, reduced_density, reference_ry, reference_superposed_input
from qswitch import pauli, run
from qswitch.metrics import _EIGEN_DUST
from qswitch.sweep import default_plan, run_sweep

LIVE = 1e-6  # the purity and metric forms divide by (2p)^2: they are compared where p >= LIVE


def _overlaps(u, u_tilde, phi):
    """c = <b|f> with f = u u~ phi and b = u~ u phi, over any broadcast leading axes."""
    f = (u @ (u_tilde @ phi[..., None]))[..., 0]
    b = (u_tilde @ (u @ phi[..., None]))[..., 0]
    return (b.conj() * f).sum(axis=-1)


def _spec_overlaps(spec):
    u, u_tilde = (np.array([getattr(p, name) for p in spec.pairs]) for name in ("u", "u_tilde"))
    return _overlaps(u, u_tilde, np.array(spec.inputs))


def _two_order(c):
    """The outcome probabilities (..., 2) and single-qubit purities (..., 2, n) of the
    evenly controlled two-order switch, outcomes + then -, from the overlaps c (..., n)."""
    n = c.shape[-1]
    total = np.prod(c, axis=-1)[..., None]  # P
    rest = np.stack([np.prod(np.delete(c, q, axis=-1), axis=-1) for q in range(n)], -1)  # R_q
    sign = np.array([1.0, -1.0])[:, None]  # outcome +, outcome -
    re = total.real[..., None, :]
    numerator = (1.0 + np.abs(c)[..., None, :] ** 2 + sign * 4.0 * re
                 + (total**2).real[..., None, :] + np.abs(rest)[..., None, :] ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):  # an unreachable outcome's purity
        purities = numerator / (2.0 * (1.0 + sign * re) ** 2)
    return (1.0 + sign[:, 0] * total.real) / 2.0, purities


def _w_probabilities(x):
    """The W protocol's outcome probabilities (..., 2^d) from the overlaps x (..., n)."""
    n = x.shape[-1]
    d = math.ceil(math.log2(n))
    signs = np.array([[(-1) ** bin(k & j).count("1") for j in range(n)] for k in range(2**d)])
    a = signs / math.sqrt(2**d * n)  # real, so conj(A) = A
    return (1.0 - np.abs(x) ** 2) @ (a**2).T + np.abs(x @ a.T) ** 2


def _sweep_overlaps(plan):
    """c at every (lambda, alpha) point of a sweep, on each of its n qubits: u = pauli_z,
    u~ = ry(2 lambda) and phi = eta(alpha)."""
    u_tilde = reference_ry(2.0 * np.asarray(plan.lambda_grid))[:, None]
    c = _overlaps(pauli("z"), u_tilde, reference_superposed_input(np.asarray(plan.alpha_grid)))
    return np.broadcast_to(c[..., None], c.shape + (plan.n,))


def _sweep_metric(protocol, entropy):
    """The sweep metric from the smallest single-qubit linear entropy 1 - Tr rho_q^2:
    concurrence C with C^2 = 2 E for bell, GME concurrence sqrt(2 E) for ghz, each read 0
    where the metric's dust rule zeroes it (C^2, or E, below the eigenvalue dust)."""
    dust = 2.0 * entropy if protocol == "bell" else entropy
    return np.where(dust < _EIGEN_DUST, 0.0, np.sqrt(2.0 * np.maximum(entropy, 0.0)))


@pytest.mark.parametrize("n", range(2, 7))
def test_two_order_closed_form_matches_run_on_haar_specs(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(60):
        spec = random_spec(rng, "ghz", n)
        p, purities = _two_order(_spec_overlaps(spec))
        r = run(spec)
        assert np.abs(r.probability - p).max() <= 1e-12
        for k in np.flatnonzero(p >= LIVE):
            engine = [purity(reduced_density(r.states[k], [q])) for q in range(n)]
            assert np.abs(np.array(engine) - purities[k]).max() <= 1e-12


@pytest.mark.parametrize("protocol,n", [("bell", 2), ("ghz", 3), ("ghz", 4)])
def test_two_order_closed_form_matches_every_sweep_row(protocol, n):
    plan = default_plan(protocol, n)
    p, purities = _two_order(_sweep_overlaps(plan))
    table = run_sweep(plan)
    assert np.abs(table.probability - p).max() <= 1e-12
    metric = _sweep_metric(protocol, np.min(1.0 - purities, axis=-1))
    live = p >= LIVE
    assert live.sum() > live.size // 2
    assert np.abs(table.metric - metric)[live].max() <= 1e-10


@pytest.mark.parametrize("n", range(3, 11))
def test_w_form_matches_run_on_haar_specs(n):
    rng = np.random.default_rng(60 + n)
    for _ in range(30):
        spec = random_spec(rng, "w", n)
        p = _w_probabilities(_spec_overlaps(spec))
        assert np.abs(run(spec).probability - p).max() <= 1e-12


def test_w_form_matches_every_sweep_row():
    plan = default_plan("w", 3)
    table = run_sweep(plan)
    assert np.abs(table.probability - _w_probabilities(_sweep_overlaps(plan))).max() <= 1e-12
