"""Central finite differences: the derivative fallback for oracle-only maps.

One stencil, :func:`central_jacobian`, serves vector and scalar maps alike.
The step for coordinate ``i`` is ``step`` when given, else
``DEFAULT_REL_STEP * (1 + |x_i|)``.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

DEFAULT_REL_STEP = 1e-6


def central_jacobian(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                     step: float | None = None) -> np.ndarray:
    """Jacobian of a vector map, one column per input coordinate."""
    x = np.asarray(x, dtype=float)
    if step is None:
        h = DEFAULT_REL_STEP * (1.0 + np.abs(x))
    else:
        h = np.broadcast_to(np.asarray(step, dtype=float), x.shape)
    cols = []
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        cols.append((np.asarray(f(xp), float) - np.asarray(f(xm), float)) / (2.0 * h[i]))
    return np.stack(cols, axis=1)


def central_gradient(f: Callable[[np.ndarray], float], x: np.ndarray,
                     step: float | None = None) -> np.ndarray:
    """Gradient of a scalar function: the single row of its Jacobian."""
    return central_jacobian(lambda z: [f(z)], x, step)[0]
