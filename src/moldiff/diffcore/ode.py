"""Fixed-step classical Runge-Kutta integration."""

from __future__ import annotations

from typing import Callable

import numpy as np


class NonFiniteField(ValueError):
    """The vector field produced a non-finite value on the trajectory."""


def ode_integrate(field: Callable[[float, np.ndarray], np.ndarray],
                  x0: np.ndarray, t0: float, t1: float, steps: int) -> np.ndarray:
    """Integrate dx/dt = field(t, x) from t0 to t1 with classical RK4.

    Uniform step (t1 - t0) / steps; t1 < t0 integrates backward.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x = np.array(x0, dtype=np.float64, copy=True)
    h = (t1 - t0) / steps

    def eval_field(t, y):
        d = np.asarray(field(t, y), dtype=np.float64)
        if not np.isfinite(d).all():
            raise NonFiniteField(f"field not finite at t={t}")
        return d

    for i in range(steps):
        t = t0 + i * h
        k1 = eval_field(t, x)
        k2 = eval_field(t + h / 2.0, x + (h / 2.0) * k1)
        k3 = eval_field(t + h / 2.0, x + (h / 2.0) * k2)
        k4 = eval_field(t + h, x + h * k3)
        x += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x
