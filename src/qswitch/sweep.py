"""Parameter-sweep engine: metric surfaces over the rotation and input grids.

Each grid point fixes u = pauli_z and u_tilde = ry(2*lambda) on every qubit
and the product input eta(alpha)^n, runs the protocol and records one row per
measurement outcome. The metric follows from the protocol: concurrence for
bell, the single-cut GME concurrence for ghz and w. A grid holds at most
``MAX_SWEEP_POINTS`` (lambda, alpha) points, checked before it is allocated.
The grid is evaluated as one batch of stacked arrays, and output is
deterministic: a row's bytes do not depend on the grid around it.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Optional

import numpy as np

from . import emit, gates
from .linalg import num_qubits
from .metrics import pure_concurrence, pure_gme_concurrence
from .switch import (
    _order_images,
    branch_readout,
    check_protocol,
    control_labels,
    protocol_control,
    superposed_input,
)

MAX_SWEEP_POINTS = 2**16  # largest (lambda, alpha) grid: 256 x 256


class SweepRecord(NamedTuple):
    """One sweep row (a named tuple: rows are built by the thousand per grid)."""

    lam: float
    alpha: float
    outcome: str
    probability: float
    metric_value: Optional[float]  # None when the outcome is unreachable
    reachable: bool


@dataclass
class SweepPlan:
    protocol: str  # 'bell' | 'ghz' | 'w'
    n: int
    lambda_grid: list[float]
    alpha_grid: list[float]

    def __post_init__(self):
        check_protocol(self.protocol, self.n)
        if not self.lambda_grid or not self.alpha_grid:
            raise ValueError("grids must be nonempty")
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
    if lambda_steps * alpha_steps > MAX_SWEEP_POINTS:
        raise ValueError(f"sweep grid has {lambda_steps} x {alpha_steps} points, "
                         f"cap is {MAX_SWEEP_POINTS}")


def default_plan(protocol: str, n: int, lambda_steps: int = 33,
                 alpha_steps: int = 33) -> SweepPlan:
    _check_points(lambda_steps, alpha_steps)  # before allocating the grids
    return SweepPlan(
        protocol=protocol,
        n=n,
        lambda_grid=list(np.linspace(0.0, math.pi / 2, lambda_steps)),
        alpha_grid=list(np.linspace(0.0, 1.0, alpha_steps)),
    )


def run_sweep(plan: SweepPlan) -> list[SweepRecord]:
    """Evaluate the plan; rows are ordered by lambda, then alpha, then outcome.

    The whole grid goes through the engine and the metric as one batch of
    shape (lambda, alpha), so each row depends only on its own grid point.
    """
    u_tilde = gates.ry(2.0 * np.asarray(plan.lambda_grid))[:, None]  # (lam, 1, 2, 2)
    ends = _order_images(gates.PAULI_Z, u_tilde, superposed_input(plan.alpha_grid))
    ends = np.broadcast_to(ends[:, :, None], ends.shape[:2] + (plan.n,) + ends.shape[2:])
    control, reverse = protocol_control(plan.protocol, plan.n)
    probabilities, reachable, states = branch_readout(control, reverse, ends)
    metric = pure_concurrence if plan.protocol == "bell" else pure_gme_concurrence
    values = np.zeros(probabilities.shape)
    values[reachable] = metric(states[reachable])
    labels = control_labels(num_qubits(len(control)))
    keys = product(plan.lambda_grid, plan.alpha_grid, labels)  # the C order of the arrays
    columns = [c.ravel().tolist() for c in (probabilities, values, reachable)]
    return [
        SweepRecord(lam, alpha, label, p, value if live else None, live)
        for (lam, alpha, label), p, value, live in zip(keys, *columns)
    ]


def export(records: list[SweepRecord], fmt: str, path: str) -> None:
    """Write records as CSV or JSON with 12-significant-digit floats."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown export format {fmt!r}")
    try:
        if fmt == "csv":
            with open(path, "w", newline="") as fh:
                emit.write_sweep_csv(records, fh)
        else:
            with open(path, "w") as fh:
                emit.write_sweep_json(records, fh)
    except OSError as exc:
        raise OSError(f"failed to write sweep output to {path}: {exc}") from exc


def load_csv(path: str) -> list[SweepRecord]:
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            reachable = row["reachable"] == "true"
            records.append(
                SweepRecord(
                    lam=float(row["lambda"]),
                    alpha=float(row["alpha"]),
                    outcome=row["outcome"],
                    probability=float(row["probability"]),
                    metric_value=float(row["metric"]) if row["metric"] else None,
                    reachable=reachable,
                )
            )
    return records
