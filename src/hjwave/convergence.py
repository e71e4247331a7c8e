"""Convergence-order measurement helpers.

Used by the test suite and the limit study to turn sequences of errors
under grid/step refinement into a fitted order with a fit-quality number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class OrderFit:
    """Least-squares power-law fit error ~ C * scale^order."""

    order: float
    log10_residual: float  # rms deviation of log10(error) from the fit line


def fit_order(scales, errors) -> OrderFit:
    """Fit errors against scales (h, dt, 1/c ...) in log-log space.

    The returned order is positive when errors shrink as scales shrink.
    The least-squares line is the closed form about the mean point, over
    Python floats; a nan or inf error gives a nan order and residual.
    """
    x = [float(v) for v in scales]
    y = [float(v) for v in errors]
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("need at least two (scale, error) pairs of equal length")
    if any(v <= 0 for v in x + y):
        raise ValueError("scales and errors must be positive for a log-log fit")
    x = [math.log10(v) for v in x]
    y = [math.log10(v) for v in y]
    if all(v == x[0] for v in x):
        raise ValueError("scales with equal logs leave no slope to fit")
    mean_x, mean_y = sum(x) / len(x), sum(y) / len(y)
    dx = [v - mean_x for v in x]
    dy = [v - mean_y for v in y]
    slope = sum(a * b for a, b in zip(dx, dy)) / sum(a * a for a in dx)
    rms = math.sqrt(sum((b - slope * a) ** 2 for a, b in zip(dx, dy)) / len(x))
    return OrderFit(order=slope, log10_residual=rms)


def halving_orders(errors) -> list[float]:
    """Observed orders log2(e_i / e_{i+1}) for a factor-2 refinement chain."""
    e = [float(v) for v in errors]
    if len(e) < 2:
        raise ValueError("need at least two errors")
    return [math.log2(e[i] / e[i + 1]) for i in range(len(e) - 1)]
