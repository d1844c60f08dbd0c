"""Central-difference gradient checker for the hand-derived gradients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from stylemem.errors import ShapeError


@dataclass
class FdReport:
    """Outcome of a central-difference gradient check."""

    passed: bool
    max_rel_error: float
    worst_index: tuple[int, ...]


def fd_check(
    loss_fn: Callable[[np.ndarray], tuple[float, np.ndarray]],
    point: np.ndarray,
    step: float = 1e-6,
    tolerance: float = 1e-5,
) -> FdReport:
    """Compare an analytic gradient against central finite differences.

    ``loss_fn`` maps an array to (value, gradient-at-that-array). Relative
    errors use per-coordinate denominators floored at 1e-8, so exactly-zero
    gradients compare exactly.
    """
    point = np.asarray(point, dtype=np.float64)
    _, analytic = loss_fn(point)
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != point.shape:
        raise ShapeError(f"gradient shape {analytic.shape} != point shape {point.shape}")

    max_rel = 0.0
    worst: tuple[int, ...] = ()
    it = np.nditer(point, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        bumped = point.copy()
        bumped[idx] = point[idx] + step
        f_plus, _ = loss_fn(bumped)
        bumped[idx] = point[idx] - step
        f_minus, _ = loss_fn(bumped)
        fd = (f_plus - f_minus) / (2.0 * step)
        denom = max(abs(fd), abs(analytic[idx]), 1e-8)
        rel = abs(fd - analytic[idx]) / denom
        if rel > max_rel:
            max_rel = rel
            worst = idx
        it.iternext()
    return FdReport(max_rel <= tolerance, float(max_rel), worst)
