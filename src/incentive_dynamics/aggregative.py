"""Quadratic networked aggregative games.

Player i pays ``0.5 q_i x_i^2 + alpha x_i (A x)_i`` plus the incentive term;
the operator's cost is separable, ``sum_i h_i(x_i)``, with the classic
squared-distance-to-target form as the default. Everything here has closed
forms through ``M = Q + alpha A``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import lu_factor
from scipy.linalg.lapack import dgetrs
from scipy.optimize import brentq

from .errors import InvalidArgumentError, SpecError
from .games import AtomicGame

CONDITION_LIMIT = 1e12
SYMMETRY_TOL = 1e-12


# ---------------------------------------------------------------------------
# Separable operator-cost terms
# ---------------------------------------------------------------------------

class QuadraticTerm:
    """h(y) = 0.5 (y - zeta)^2."""

    def __init__(self, zeta: float):
        self.zeta = float(zeta)

    def value(self, y):
        return 0.5 * (y - self.zeta) ** 2

    def grad(self, y):
        return y - self.zeta


class QuarticTerm:
    """h(y) = 0.25 (y - zeta)^4; strictly convex with a flat bottom."""

    def __init__(self, zeta: float):
        self.zeta = float(zeta)

    def value(self, y):
        return 0.25 * (y - self.zeta) ** 4

    def grad(self, y):
        return (y - self.zeta) ** 3


class TableTerm:
    """Gradient given by samples (piecewise-linear interpolation).

    ``points`` are strictly increasing abscissae, ``grads`` the strictly
    increasing gradient samples. Values come from trapezoidal integration.
    """

    def __init__(self, points: Sequence[float], grads: Sequence[float]):
        self.points = np.asarray(points, dtype=float)
        self.grads = np.asarray(grads, dtype=float)
        if self.points.ndim != 1 or self.points.shape != self.grads.shape:
            raise SpecError("table term needs matching 1-d points/grads")
        if np.any(np.diff(self.points) <= 0) or np.any(np.diff(self.grads) <= 0):
            raise SpecError("table term needs strictly increasing points and gradients")

    def grad(self, y):
        return np.interp(y, self.points, self.grads)

    def value(self, y):
        scalar = np.isscalar(y)
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.empty_like(ys)
        base = self.points[0]
        for idx, yi in enumerate(ys):
            lo, hi, sign = (base, yi, 1.0) if yi >= base else (yi, base, -1.0)
            inner = self.points[(self.points > lo) & (self.points < hi)]
            grid = np.concatenate([[lo], inner, [hi]])
            vals = np.interp(grid, self.points, self.grads)
            out[idx] = sign * np.trapezoid(vals, grid)
        return float(out[0]) if scalar else out


# Exponent k of the terms with h(y) = (y - zeta)^k / k, evaluated as arrays.
_POWERS = {QuadraticTerm: 2.0, QuarticTerm: 4.0}


def _grad_root(term, lo=-1.0, hi=1.0, limit=1e6) -> float:
    """Root of a strictly increasing gradient via bracket doubling + bisection."""
    while term.grad(lo) > 0 or term.grad(hi) < 0:
        lo *= 2.0
        hi *= 2.0
        if hi > limit:
            raise SpecError("no gradient root found within the bracket limit")
    if term.grad(lo) == 0.0:
        return lo
    return float(brentq(term.grad, lo, hi, xtol=1e-12, maxiter=300))


@dataclass(frozen=True)
class QuadraticAggregativeSpec:
    q: np.ndarray
    A: np.ndarray
    alpha: float
    zeta: Optional[np.ndarray] = None
    h: Optional[tuple] = None

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        A = np.asarray(self.A, dtype=float)
        n = q.size
        if np.any(q <= 0):
            raise SpecError("all q_i must be strictly positive")
        if A.shape != (n, n):
            raise SpecError("network matrix must be square and match q")
        if np.any(np.abs(np.diag(A)) > 0):
            raise SpecError("network matrix must have zero diagonal")
        if self.alpha <= 0:
            raise SpecError("alpha must be positive")
        if (self.zeta is None) == (self.h is None):
            raise SpecError("give exactly one of zeta or h")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "A", A)
        M = np.diag(q) + self.alpha * A
        cond = np.linalg.cond(M)
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            raise SpecError("M invertibility check failed: M = Q + alpha A is "
                            f"numerically singular (cond={cond:.3g})")
        object.__setattr__(self, "_M", M)
        object.__setattr__(self, "_lu", lu_factor(M))
        if self.zeta is not None:
            zeta = np.atleast_1d(np.asarray(self.zeta, dtype=float))
            if zeta.size != n:
                raise SpecError("zeta must have one entry per player")
            object.__setattr__(self, "zeta", zeta)
            object.__setattr__(self, "h", tuple(QuadraticTerm(z) for z in zeta))
            object.__setattr__(self, "_y_dagger", zeta.copy())
        else:
            terms = tuple(self.h)
            if len(terms) != n:
                raise SpecError("need one operator-cost term per player")
            for t in terms:
                grid = np.linspace(-10.0, 10.0, 41)
                if np.any(np.diff(t.grad(grid)) <= 0):
                    raise SpecError("operator-cost gradients must be strictly increasing")
            object.__setattr__(self, "h", terms)
            object.__setattr__(self, "_y_dagger", np.array([_grad_root(t) for t in terms]))
        # Quadratic and quartic terms are evaluated as arrays; any other term
        # (a table, a user object) is called per player on its own index.
        # float_power matches the terms' scalar ``**`` bitwise, where array
        # ``**`` and ``d * d`` do not.
        powers = [_POWERS.get(type(t)) for t in self.h]
        object.__setattr__(self, "_zeta", np.array(
            [0.0 if k is None else t.zeta for t, k in zip(self.h, powers)]))
        object.__setattr__(self, "_pow", np.array([2.0 if k is None else k for k in powers]))
        object.__setattr__(self, "_quartic", np.flatnonzero(self._pow == 4.0))
        object.__setattr__(self, "_other", tuple(
            (i, t) for i, (t, k) in enumerate(zip(self.h, powers)) if k is None))

    @property
    def n(self) -> int:
        return self.q.size

    @property
    def M(self) -> np.ndarray:
        return self._M

    @cached_property
    def _lipschitz(self) -> float:
        return float(np.linalg.norm(self._M, 2))

    @cached_property
    def _M_inv(self) -> np.ndarray:
        return np.linalg.inv(self._M)

    def y_dagger(self) -> np.ndarray:
        return self._y_dagger.copy()

    def social(self, x) -> float:
        x = np.asarray(x, dtype=float)
        values = np.float_power(x - self._zeta, self._pow) / self._pow
        for i, t in self._other:
            values[i] = t.value(x[i])
        # cumsum adds left to right, as the builtin sum did
        return float(values.cumsum()[-1])

    def social_grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        grad = x - self._zeta
        if self._quartic.size:
            grad[self._quartic] = np.float_power(grad[self._quartic], 3.0)
        for i, t in self._other:
            grad[i] = t.grad(x[i])
        return grad

    def loss(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return 0.5 * self.q * x * x + self.alpha * x * (self.A @ x)

    def loss_grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.q * x + self.alpha * (self.A @ x)

    def externality(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.social_grad(x) - self._M @ x

    def to_game(self) -> AtomicGame:
        n = self.n
        inf = np.inf
        return AtomicGame(
            lower=np.full(n, -inf),
            upper=np.full(n, inf),
            loss=self.loss,
            loss_grad=self.loss_grad,
            social=self.social,
            social_grad=self.social_grad,
            equilibrium=lambda p: nash_closed_form(self, p),
            best_response=lambda x, p: -(self.alpha * (self.A @ np.asarray(x, float))
                                         + np.asarray(p, float)) / self.q,
            lipschitz_bound=self._lipschitz,
            optimum=self.y_dagger(),
        )


def from_json(data: dict) -> QuadraticAggregativeSpec:
    kwargs = {"q": data["q"], "A": data["A"], "alpha": data["alpha"]}
    if "zeta" in data:
        kwargs["zeta"] = data["zeta"]
    elif "h" in data:
        terms = []
        for spec in data["h"]:
            kind = spec["kind"]
            if kind == "quadratic":
                terms.append(QuadraticTerm(spec["zeta"]))
            elif kind == "quartic":
                terms.append(QuarticTerm(spec["zeta"]))
            elif kind == "table":
                terms.append(TableTerm(spec["points"], spec["grads"]))
            else:
                raise SpecError(f"unknown operator-cost kind {kind!r}")
        kwargs["h"] = tuple(terms)
    return QuadraticAggregativeSpec(**kwargs)


# ---------------------------------------------------------------------------
# Closed forms and condition checkers
# ---------------------------------------------------------------------------

def nash_closed_form(spec: QuadraticAggregativeSpec, p) -> np.ndarray:
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if p.size != spec.n:
        raise InvalidArgumentError("incentive vector has wrong length")
    # the LAPACK call of scipy.linalg.lu_solve, without its per-call wrapper
    if not np.logical_and.reduce(np.isfinite(p), axis=None):
        raise ValueError("array must not contain infs or NaNs")
    lu, piv = spec._lu
    x, info = dgetrs(lu, piv, -p, overwrite_b=True)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal getrs")
    return x


def optimal_incentive(spec: QuadraticAggregativeSpec) -> np.ndarray:
    return -spec.M @ spec.y_dagger()


def check_global_conditions(spec: QuadraticAggregativeSpec) -> dict:
    M = spec.M
    asym = float(np.max(np.abs(M - M.T)))
    symmetric = asym <= SYMMETRY_TOL
    eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
    report = {
        "symmetric": symmetric,
        "asymmetry": asym,
        "positive_definite": bool(eigs.min() > 0),
        "min_eigenvalue": float(eigs.min()),
    }
    report["passed"] = report["symmetric"] and report["positive_definite"]
    return report


def check_local_conditions(spec: QuadraticAggregativeSpec) -> dict:
    M = spec.M
    off = spec._M_inv[~np.eye(spec.n, dtype=bool)]
    y = spec.y_dagger()
    report = {
        "entries_nonnegative": bool(np.all(M >= 0)),
        "inverse_offdiag_negative": bool(off.size == 0 or np.all(off < 0)),
        "y_dagger_nonpositive": bool(np.all(y <= 0)),
    }
    report["passed"] = all(report.values())
    return report


def lyapunov_value(spec: QuadraticAggregativeSpec, p) -> float:
    d = np.asarray(p, dtype=float) - optimal_incentive(spec)
    W = spec._M_inv.T
    return float(d @ W @ d)


def lyapunov_decrement(spec: QuadraticAggregativeSpec, p) -> float:
    """Directional derivative of the certificate along the slow dynamics."""
    p = np.asarray(p, dtype=float)
    d = p - optimal_incentive(spec)
    W = spec._M_inv.T
    grad_v = (W + W.T) @ d
    drift = spec.externality(nash_closed_form(spec, p)) - p
    return float(grad_v @ drift)


def check_scaled_limit(spec: QuadraticAggregativeSpec, rule) -> dict:
    """Boundedness condition for the fast dynamics, checkable for affine rules.

    For the equilibrium, best-response, and quadratic-gradient rules the
    scaled update coincides with the update itself and the condition reduces
    to a spectral test on the linear part of the decay dynamics. Non-affine
    rules are reported as not machine-checkable, never silently passed.
    """
    variant = rule.variant
    if variant == "gradient" and rule.regularizer != "quadratic":
        return {"verifiable": False, "passed": None,
                "note": "uniform scaled-limit condition is not checkable for non-affine rules"}
    if variant == "equilibrium":
        decay = np.eye(spec.n)
    elif variant == "best_response":
        decay = (spec.M.T / spec.q).T  # Q^{-1} M
    else:
        from .dynamics import resolve_eta
        eta = resolve_eta(spec.to_game(), rule)
        decay = eta * spec.M
    eigs = np.linalg.eigvals(decay)
    return {
        "verifiable": True,
        "passed": bool(np.all(eigs.real > 0)),
        "eigenvalues_real_parts": [float(v) for v in np.sort(eigs.real)],
    }
