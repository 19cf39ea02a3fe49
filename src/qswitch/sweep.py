"""Parameter-sweep engine: metric surfaces over the rotation and input grids.

Each grid point fixes u = pauli_z and u_tilde = ry(2*lambda) on every qubit
and the product input eta(alpha)^n, runs the protocol and reads out one row
per measurement outcome. The metric follows from the protocol: concurrence
for bell, the single-cut GME concurrence for ghz and w. A grid holds at most
``MAX_SWEEP_POINTS`` (lambda, alpha) points, checked before it is allocated.
The grid is evaluated as one batch of arrays, kept as the columns of a
``SweepTable`` that ``export`` writes with no per-row object. Output is
deterministic: a row's bytes do not depend on the grid around it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import emit, gates
from .metrics import pure_concurrence, pure_gme_concurrence
from .switch import _order_images, branch_readout, check_protocol, protocol_plan, superposed_input

MAX_SWEEP_POINTS = 2**16  # largest (lambda, alpha) grid: 256 x 256


@dataclass(frozen=True, eq=False)
class SweepTable:
    """A sweep result in columns. Axis 0 of each array runs over ``lambda_grid``,
    axis 1 over ``alpha_grid`` and axis 2 over the outcome ``labels``; ``metric``
    is 0 where an outcome is unreachable."""

    lambda_grid: tuple[float, ...]
    alpha_grid: tuple[float, ...]
    labels: list[str]
    probability: np.ndarray  # (lambda, alpha, outcome) floats
    metric: np.ndarray  # (lambda, alpha, outcome) floats
    reachable: np.ndarray  # (lambda, alpha, outcome) bools

    def __len__(self) -> int:
        return self.probability.size


@dataclass(frozen=True)
class SweepPlan:
    """The grids of one sweep: immutable, with tuple grids, so its checks keep holding."""

    protocol: str  # 'bell' | 'ghz' | 'w'
    n: int
    lambda_grid: tuple[float, ...]
    alpha_grid: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lambda_grid", tuple(self.lambda_grid))
        object.__setattr__(self, "alpha_grid", tuple(self.alpha_grid))
        check_protocol(self.protocol, self.n)
        _check_points(len(self.lambda_grid), len(self.alpha_grid))
        for name, grid, lo, hi in (
            ("lambda", self.lambda_grid, 0.0, math.pi / 2),
            ("alpha", self.alpha_grid, 0.0, 1.0),
        ):
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{name} grid must be strictly increasing")
            if not all(lo <= x <= hi for x in grid):  # also false for NaN
                raise ValueError(f"{name} grid must stay within [{lo}, {hi}]")


def _check_points(lambda_steps: int, alpha_steps: int) -> None:
    for name, steps in (("lambda", lambda_steps), ("alpha", alpha_steps)):
        if steps < 1:
            raise ValueError(f"{name} step count must be at least 1, got {steps}")
    if lambda_steps * alpha_steps > MAX_SWEEP_POINTS:
        raise ValueError(f"sweep grid has {lambda_steps} x {alpha_steps} points, "
                         f"cap is {MAX_SWEEP_POINTS}")


def default_plan(protocol: str, n: int, lambda_steps: int = 33,
                 alpha_steps: int = 33) -> SweepPlan:
    _check_points(lambda_steps, alpha_steps)  # before allocating the grids
    return SweepPlan(
        protocol=protocol,
        n=n,
        lambda_grid=np.linspace(0.0, math.pi / 2, lambda_steps),
        alpha_grid=np.linspace(0.0, 1.0, alpha_steps),
    )


def run_sweep(plan: SweepPlan) -> SweepTable:
    """Evaluate the plan into a ``SweepTable``: the whole grid goes through the engine and
    the metric as one batch of shape (lambda, alpha), so a row depends only on its own point."""
    u_tilde = gates.ry(2.0 * np.asarray(plan.lambda_grid))[:, None]  # (lam, 1, 2, 2)
    ends = _order_images(np.stack(np.broadcast_arrays(gates.PAULI_Z, u_tilde), -3),
                         superposed_input(plan.alpha_grid))
    ends = np.broadcast_to(ends[:, :, None], ends.shape[:2] + (plan.n,) + ends.shape[2:])
    readout = protocol_plan(plan.protocol, plan.n)
    probabilities, reachable, states = branch_readout(readout, ends)
    metric = pure_concurrence if plan.protocol == "bell" else pure_gme_concurrence
    values = np.zeros(probabilities.shape)
    values[reachable] = metric(states[reachable])
    return SweepTable(plan.lambda_grid, plan.alpha_grid, list(readout[0]), probabilities,
                      values, reachable)


def export(table: SweepTable, fmt: str, path: str) -> None:
    """Write a sweep table as CSV or JSON with 12-significant-digit floats."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown export format {fmt!r}")
    try:
        if fmt == "csv":
            with open(path, "w", newline="") as fh:
                emit.write_sweep_csv(table, fh)
        else:
            with open(path, "w") as fh:
                emit.write_sweep_json(table, fh)
    except OSError as exc:
        raise OSError(f"failed to write sweep output to {path}: {exc}") from exc
