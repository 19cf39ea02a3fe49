"""Parameter-sweep engine: metric surfaces over the rotation and input grids.

Each grid point fixes u = pauli_z and u_tilde = ry(2*lambda) on every qubit
and the product input eta(alpha)^n, runs the protocol and records one row per
measurement outcome. The grid is evaluated as one batch of stacked arrays,
and output is deterministic: a row's bytes do not depend on the grid around it.
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
    UNREACHABLE_TOL,
    branch_readout,
    control_labels,
    protocol_control,
    superposed_input,
)


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
    metric: str = "auto"  # 'auto' | 'concurrence' | 'gme_concurrence'

    def __post_init__(self):
        if not self.lambda_grid or not self.alpha_grid:
            raise ValueError("grids must be nonempty")
        for name, grid, lo, hi in (
            ("lambda", self.lambda_grid, 0.0, math.pi / 2),
            ("alpha", self.alpha_grid, 0.0, 1.0),
        ):
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{name} grid must be strictly increasing")
            if not all(lo <= x <= hi for x in grid):  # also false for NaN
                raise ValueError(f"{name} grid must stay within [{lo}, {hi}]")
        if self.metric not in ("auto", "concurrence", "gme_concurrence"):
            raise ValueError(f"unknown metric {self.metric!r}")

    def resolved_metric(self) -> str:
        if self.metric != "auto":
            return self.metric
        return "concurrence" if self.protocol == "bell" else "gme_concurrence"


def default_plan(protocol: str, n: int, lambda_steps: int = 33, alpha_steps: int = 33,
                 metric: str = "auto") -> SweepPlan:
    return SweepPlan(
        protocol=protocol,
        n=n,
        lambda_grid=list(np.linspace(0.0, math.pi / 2, lambda_steps)),
        alpha_grid=list(np.linspace(0.0, 1.0, alpha_steps)),
        metric=metric,
    )


def run_sweep(plan: SweepPlan) -> list[SweepRecord]:
    """Evaluate the plan; rows are ordered by lambda, then alpha, then outcome.

    The whole grid goes through the engine and the metric as one batch of
    shape (lambda, alpha), so each row depends only on its own grid point.
    """
    u = gates.PAULI_Z
    u_tilde = gates.ry(2.0 * np.asarray(plan.lambda_grid))  # (lam, 2, 2)
    orders = np.stack([u @ u_tilde, u_tilde @ u], 1)  # forward_order, backward_order
    etas = superposed_input(plan.alpha_grid)  # (alpha, 2)
    ends = (orders[:, None] @ etas[None, :, None, :, None])[..., 0]  # (lam, alpha, order, 2)
    ends = np.broadcast_to(ends[:, :, None], ends.shape[:2] + (plan.n,) + ends.shape[2:])
    control, reverse = protocol_control(plan.protocol, plan.n)
    raw, probabilities = branch_readout(control, reverse, ends)
    reachable = probabilities >= UNREACHABLE_TOL
    states = raw[reachable] / np.sqrt(probabilities[reachable])[:, None]
    metric = pure_concurrence if plan.resolved_metric() == "concurrence" else pure_gme_concurrence
    values = np.zeros(probabilities.shape)
    values[reachable] = metric(states)
    labels = control_labels(num_qubits(len(control)))
    keys = product(plan.lambda_grid, plan.alpha_grid, labels)  # the C order of the arrays
    columns = [c.ravel().tolist() for c in (np.maximum(probabilities, 0.0), values, reachable)]
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
