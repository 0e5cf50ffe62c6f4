"""Quadratic networked aggregative games.

Player i pays ``0.5 q_i x_i^2 + alpha x_i (A x)_i`` plus the incentive term;
the operator's cost is separable, ``sum_i h_i(x_i)``, with the classic
squared-distance-to-target form as the default. Everything here has closed
forms through ``M = Q + alpha A``.

A spec's game evaluates a coupled-loop iteration in one pass: one product
``alpha (A @ x)`` gives the loss gradient ``q x + alpha A x`` and, under the
best-response rule, the closed form ``-(alpha A x + p) / q``, and one
``x - zeta`` gives both the social gradient and the social cost.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dynamics import _check_number, _check_positive
from .errors import ConvergenceError, SpecError
from .games import AtomicGame, _checked_gap, check_incentive, nondecreasing_root

CONDITION_LIMIT = 1e12
SYMMETRY_TOL = 1e-12
# where a term without its own ``probe`` must have a strictly increasing,
# sign-changing gradient
GRADIENT_PROBE = np.linspace(-10.0, 10.0, 41)
GRADIENT_PROBE.setflags(write=False)


# ---------------------------------------------------------------------------
# Separable operator-cost terms
# ---------------------------------------------------------------------------

def _require_finite(values, name: str) -> None:
    if not np.isfinite(values).all():
        raise SpecError(f"{name} must be finite")


class _PowerTerm:
    """h(y) = (y - zeta)^k / k, minimised at zeta, with the subclass's exponent k;
    value and gradient make the ``float_power`` calls of the spec's arrays."""

    def __init__(self, zeta: float):
        _check_number(zeta, "operator-cost zeta")
        self.zeta = float(zeta)
        if not math.isfinite(self.zeta):
            raise SpecError("operator-cost zeta must be finite")

    def value(self, y):
        return np.float_power(y - self.zeta, self._k) / self._k

    def grad(self, y):
        return np.float_power(y - self.zeta, self._k - 1.0)


class QuadraticTerm(_PowerTerm):
    """h(y) = 0.5 (y - zeta)^2."""
    _k = 2.0


class QuarticTerm(_PowerTerm):
    """h(y) = 0.25 (y - zeta)^4; strictly convex with a flat bottom."""
    _k = 4.0


class TableTerm:
    """Gradient given by samples (piecewise-linear interpolation).

    ``points`` are strictly increasing abscissae, ``grads`` the strictly
    increasing gradient samples. Values come from trapezoidal integration.
    The gradient is flat past the end samples, so a spec probes it on
    ``probe``, the sample points.
    """

    def __init__(self, points: Sequence[float], grads: Sequence[float]):
        self.points = np.asarray(points, dtype=float)
        self.grads = np.asarray(grads, dtype=float)
        if self.points.ndim != 1 or self.points.shape != self.grads.shape:
            raise SpecError("table term needs matching 1-d points/grads")
        _require_finite(self.points, "table term points")
        _require_finite(self.grads, "table term gradients")
        if np.any(np.diff(self.points) <= 0) or np.any(np.diff(self.grads) <= 0):
            raise SpecError("table term needs strictly increasing points and gradients")
        self.probe = self.points

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


def _grad_root(term, i: int = 0) -> float:
    """The minimiser of operator-cost term ``i``: the root of its increasing gradient."""
    try:
        return nondecreasing_root(term.grad, i, 0.0, None, -np.inf, np.inf)
    except ConvergenceError as exc:
        raise SpecError(f"operator-cost term {i} has no gradient root") from exc


@dataclass(frozen=True)
class QuadraticAggregativeSpec:
    q: np.ndarray
    A: np.ndarray
    alpha: float
    zeta: Optional[np.ndarray] = None
    h: Optional[tuple] = None

    def __post_init__(self):
        for name in ("q", "zeta"):  # a one-player spec may give them as scalars
            _check_number(getattr(self, name), name)
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        A = np.asarray(self.A, dtype=float)
        n = q.size
        if n == 0:
            raise SpecError("a spec needs at least one player")
        _require_finite(q, "q")
        if np.any(q <= 0):
            raise SpecError("all q_i must be strictly positive")
        if A.shape != (n, n):
            raise SpecError("network matrix must be square and match q")
        _require_finite(A, "network matrix")
        if np.any(np.abs(np.diag(A)) > 0):
            raise SpecError("network matrix must have zero diagonal")
        _check_positive(self.alpha, "alpha")
        if (self.zeta is None) == (self.h is None):
            raise SpecError("give exactly one of zeta or h")
        if self.zeta is not None:
            zeta = np.atleast_1d(np.asarray(self.zeta, dtype=float))
            if zeta.size != n:
                raise SpecError("zeta must have one entry per player")
            terms = tuple(QuadraticTerm(z) for z in zeta)
            object.__setattr__(self, "zeta", zeta)
        else:
            terms = tuple(self.h)
            if len(terms) != n:
                raise SpecError("need one operator-cost term per player")
        # Quadratic and quartic terms are evaluated as arrays and minimised at
        # their zeta; any other term (a table, a user object) is called per
        # player on its own index and minimised at its increasing gradient's
        # root. Its gradient must increase strictly on the term's ``probe``
        # points (GRADIENT_PROBE if it gives none) and change sign strictly
        # inside them, so that the root there is its one minimiser.
        power = (QuadraticTerm, QuarticTerm)
        zeta = np.array([t.zeta if type(t) in power else 0.0 for t in terms])
        k = np.array([t._k if type(t) in power else 2.0 for t in terms])
        other = tuple((i, t) for i, t in enumerate(terms) if type(t) not in power)
        y_dagger = zeta.copy()
        for i, t in other:
            probe = getattr(t, "probe", GRADIENT_PROBE)
            g = t.grad(probe)
            if np.any(np.diff(g) <= 0):
                raise SpecError("operator-cost gradients must be strictly increasing")
            if not g[0] < 0.0 < g[-1]:
                raise SpecError(f"operator-cost term {i} has no unique minimiser: its gradient "
                                f"must change sign strictly inside [{probe[0]:g}, {probe[-1]:g}]")
            y_dagger[i] = _grad_root(t, i)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "h", terms)
        object.__setattr__(self, "_y_dagger", y_dagger)
        object.__setattr__(self, "_zeta", zeta)
        object.__setattr__(self, "_pow", k)
        object.__setattr__(self, "_quartic", np.flatnonzero(k == 4.0))
        object.__setattr__(self, "_other", other)
        M = np.diag(q) + self.alpha * A
        # one SVD gives both the condition number and the spectral norm
        s = np.linalg.svd(M, compute_uv=False)
        cond = s[0] / s[-1] if s[-1] > 0 else np.inf
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            raise SpecError("M invertibility check failed: M = Q + alpha A is "
                            f"numerically singular (cond={cond:.3g})")
        M_inv = np.linalg.inv(M)
        M_inv.setflags(write=False)  # certificate_weight hands out a view
        object.__setattr__(self, "_M", M)
        object.__setattr__(self, "_M_inv", M_inv)
        object.__setattr__(self, "_lipschitz", float(s[0]))

    @property
    def n(self) -> int:
        return self.q.size

    @property
    def M(self) -> np.ndarray:
        return self._M

    def certificate_weight(self) -> np.ndarray:
        """The weight W = M^-T of the quadratic certificate (p - p†)^T W (p - p†)."""
        return self._M_inv.T

    def y_dagger(self) -> np.ndarray:
        return self._y_dagger.copy()

    def social(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return self._social_at(x, x - self._zeta)

    def social_grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self._grad_at(x, x - self._zeta)

    def _social_at(self, x, diff) -> float:
        """``social(x)`` from ``diff = x - zeta``."""
        values = np.float_power(diff, self._pow) / self._pow
        for i, t in self._other:
            values[i] = t.value(x[i])
        # adds left to right, as the builtin sum did
        return float(np.add.accumulate(values)[-1])

    def _grad_at(self, x, grad) -> np.ndarray:
        """``social_grad(x)`` from ``grad = x - zeta``, which it writes into."""
        if self._quartic.size:
            grad[self._quartic] = np.float_power(grad[self._quartic], 3.0)
        for i, t in self._other:
            grad[i] = t.grad(x[i])
        return grad

    def loss_grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.q * x + self.alpha * (self.A @ x)

    def _equilibrium(self, p) -> np.ndarray:
        return nash_closed_form(self, p)

    def _best_response(self, x, p) -> np.ndarray:
        return -(self.alpha * (self.A @ np.asarray(x, float)) + np.asarray(p, float)) / self.q

    def to_game(self) -> AtomicGame:
        n = self.n
        inf = np.inf
        return _SpecGame(
            lower=np.full(n, -inf),
            upper=np.full(n, inf),
            loss_grad=self.loss_grad,
            social=self.social,
            social_grad=self.social_grad,
            equilibrium=self._equilibrium,
            best_response=self._best_response,
            lipschitz_bound=self._lipschitz,
            optimum=self.y_dagger(),
            spec=self,
        )


@dataclass(frozen=True)
class _SpecGame(AtomicGame):
    """A spec's atomic game, whose ``step`` evaluates an iteration in one pass.

    Under the best-response rule the loss gradient ``q x + alpha A x`` and
    the closed form ``-(alpha A x + p) / q`` share one product
    ``alpha (A @ x)``, where ``AtomicGame.step`` multiplies by A for each;
    under every rule one ``x - zeta`` serves both the social gradient and the
    social cost. The numpy operations are those of ``AtomicGame.step``, in
    its order, so the values and what is raised are its own. A game that is
    no longer the spec's closed-form game (an oracle or closed form replaced,
    as ``dataclasses.replace`` does, or a finite box), and the entropy
    regularizer, take ``AtomicGame.step``.
    """

    spec: QuadraticAggregativeSpec = field(kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        s = self.spec
        oracles = (self.loss_grad, self.social, self.social_grad, self.equilibrium,
                   self.best_response)
        object.__setattr__(self, "_fused", self._unbounded and oracles == (
            s.loss_grad, s.social, s.social_grad, s._equilibrium, s._best_response))

    def step(self, x, p, rule) -> tuple:
        if not self._fused or rule.regularizer == "entropy":
            return AtomicGame.step(self, x, p, rule)
        s = self.spec
        if rule.variant == "best_response":
            alpha_ax = s.alpha * (s.A @ x)
            f = -(alpha_ax + p) / s.q
            g = s.q * x + alpha_ax
        elif rule.variant == "equilibrium":
            f = nash_closed_form(s, p)
            g = self.loss_grad(x)
        else:
            g = self.loss_grad(x)
            f = x - rule.eta * (g + p)
        diff = x - s._zeta
        # the social gradient writes into its argument where a term is not quadratic
        grad = s._grad_at(x, diff.copy()) if s._quartic.size or s._other else diff
        return f, _checked_gap(grad, g, "loss gradient"), f - x, s._social_at(x, diff)


def from_json(data: dict) -> QuadraticAggregativeSpec:
    kwargs = {"q": data["q"], "A": data["A"], "alpha": data["alpha"]}
    if "zeta" in data:
        kwargs["zeta"] = data["zeta"]
    if "h" in data:
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
    return spec._M_inv @ -check_incentive(p, spec.n)


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
    d = check_incentive(p, spec.n) - optimal_incentive(spec)
    W = spec.certificate_weight()
    return float(d @ W @ d)


def lyapunov_decrement(spec: QuadraticAggregativeSpec, p) -> float:
    """Directional derivative of the certificate along the slow dynamics."""
    p = check_incentive(p, spec.n)
    d = p - optimal_incentive(spec)
    W = spec.certificate_weight()
    grad_v = (W + W.T) @ d
    drift = spec.to_game().externality(nash_closed_form(spec, p)) - p
    return float(grad_v @ drift)

