"""Atomic and non-atomic games: costs, externalities, certification.

An atomic game has finitely many players, each choosing a scalar strategy in a
closed interval. A non-atomic game has populations of infinitesimal players
distributing mass over finite action sets. The system operator charges a
marginal payment per unit of strategy (atomic) or a per-action payment
(non-atomic); the externality of a strategy is the gap between its marginal
effect on the social cost and on the player's own cost.

Both game classes carry the model methods that ``dynamics.run_coupled``
calls, as ``routing.RoutingNetwork`` does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, EvaluationError, InvalidArgumentError, SpecError

DEFAULT_CERT_TOL = 1e-6
MASS_TOL = 1e-8
EPS = np.finfo(float).eps

Array = np.ndarray
VectorOracle = Callable[[Array], Array]
ScalarOracle = Callable[[Array], float]


def _as_vector(v, name: str) -> Array:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.ndim != 1:
        raise InvalidArgumentError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def project_interval(x: Array, lower: Array, upper: Array) -> Array:
    return np.minimum(np.maximum(x, lower), upper)


def project_simplex(v: Array, mass: float = 1.0) -> Array:
    """Euclidean projection onto the scaled simplex {y >= 0, sum(y) = mass}."""
    v = np.asarray(v, dtype=float)
    if mass <= 0:
        raise InvalidArgumentError("simplex mass must be positive")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - mass
    idx = np.arange(1, v.size + 1)
    rho = np.nonzero(u * idx > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


# Per-population helpers over a flat vector whose block ``s`` sums to ``m``,
# shared by non-atomic games and route flows.

def project_blocks(v: Array, slices, masses) -> Array:
    out = np.empty_like(v)
    for s, m in zip(slices, masses):
        out[s] = project_simplex(v[s], m)
    return out


def best_response_blocks(c: Array, slices, masses) -> Array:
    """All mass of each block on its cheapest action (ties: lowest index)."""
    out = np.zeros(c.size)
    for s, m in zip(slices, masses):
        out[s.start + int(np.argmin(c[s]))] = m
    return out


def logit_blocks(c: Array, slices, masses, temperature: float) -> Array:
    out = np.empty(c.size)
    for s, m in zip(slices, masses):
        z = -c[s] / temperature
        z -= z.max()
        w = np.exp(z)
        out[s] = m * w / w.sum()
    return out


def random_blocks(rng: np.random.Generator, slices, masses) -> Array:
    """Exponential weights normalized to each block's mass."""
    out = np.empty(slices[-1].stop)
    for s, m in zip(slices, masses):
        g = rng.exponential(size=s.stop - s.start)
        out[s] = m * g / g.sum()
    return out


def simplex_target(x: Array, c: Array, slices, masses, rule, eta) -> Array:
    """Best-response or gradient-rule target from per-action costs ``c``.

    The gradient rule is a logit response at temperature ``eta`` under the
    entropy regularizer and a projected step ``x - eta c`` otherwise.
    """
    if rule.variant == "best_response":
        return best_response_blocks(c, slices, masses)
    if rule.regularizer == "entropy":
        return logit_blocks(c, slices, masses, eta)
    return project_blocks(x - eta * c, slices, masses)


def check_incentive(p, n: int) -> Array:
    p = np.asarray(p, dtype=float)
    if p.shape != (n,):
        raise InvalidArgumentError(f"incentive vector has shape {p.shape}, expected ({n},)")
    return p


def sampled_lipschitz(grad: VectorOracle, draw: Callable[[], Array], samples: int = 32) -> float:
    """Crude sampled bound on the Lipschitz constant of ``grad`` over ``draw()`` points."""
    best = 0.0
    for _ in range(samples):
        x, y = draw(), draw()
        d = np.linalg.norm(x - y)
        if d > 1e-12:
            best = max(best, float(np.linalg.norm(np.asarray(grad(x)) - np.asarray(grad(y))) / d))
    return max(best, 1e-12)


@dataclass(frozen=True)
class AtomicGame:
    """Oracle-backed atomic game.

    ``loss(x)`` returns the vector of player costs, ``loss_grad(x)`` the
    own-strategy partials (d loss_i / d x_i). ``equilibrium`` and
    ``best_response`` are optional closed forms; numeric fallbacks are used
    when absent. Without ``best_response``, a player's best response solves
    its own first-order condition with ``loss_grad``, which assumes each cost
    is convex in the player's own strategy. ``optimum`` is an optional
    closed-form social optimum. Immutable; all operations are pure.

    Oracles must not write into their arguments: ``dynamics.run_coupled``
    records the iterates it passes them without copying.
    """

    lower: Array
    upper: Array
    loss: VectorOracle
    loss_grad: VectorOracle
    social: ScalarOracle
    social_grad: VectorOracle
    equilibrium: Optional[Callable[[Array], Array]] = None
    best_response: Optional[Callable[[Array, Array], Array]] = None
    lipschitz_bound: Optional[float] = None
    optimum: Optional[Array] = None

    def __post_init__(self):
        lower = _as_vector(self.lower, "lower")
        upper = _as_vector(self.upper, "upper")
        if lower.shape != upper.shape:
            raise SpecError("strategy bounds must have matching shapes")
        if np.any(lower > upper):
            raise SpecError("every strategy interval needs lower <= upper")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        optimum = None if self.optimum is None else _as_vector(self.optimum, "optimum")
        if optimum is not None and optimum.shape != lower.shape:
            raise SpecError("the closed-form optimum needs one entry per player")
        object.__setattr__(self, "optimum", optimum)
        object.__setattr__(self, "_unbounded", bool(np.all((lower == -np.inf) & (upper == np.inf))))

    @property
    def n_players(self) -> int:
        return self.lower.size

    @property
    def dim(self) -> int:
        return self.lower.size

    def project(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        if self._unbounded and x.shape == self.lower.shape:
            return x.copy()  # both clamps are the identity, NaN and inf included
        return project_interval(x, self.lower, self.upper)

    def is_feasible(self, x: Array, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(x.shape == self.lower.shape
                    and np.all(x >= self.lower - tol)
                    and np.all(x <= self.upper + tol))

    def uniform_point(self) -> Array:
        """The box midpoint, with 0 standing in for an infinite bound."""
        lo = np.where(np.isfinite(self.lower), self.lower, 0.0)
        hi = np.where(np.isfinite(self.upper), self.upper, 0.0)
        return self.project(0.5 * (lo + hi))

    def random_start(self, rng: np.random.Generator) -> Array:
        return self.project(rng.standard_normal(self.n_players))

    def check_start(self, x0, p0) -> tuple:
        x = np.asarray(x0, dtype=float)
        if not self.is_feasible(x):
            raise InvalidArgumentError("x0 is infeasible")
        return x, check_incentive(p0, self.n_players)

    def target(self, x: Array, p: Array, rule, eta: float | None = None) -> Array:
        if rule.variant == "equilibrium":
            if self.equilibrium is not None:
                return np.asarray(self.equilibrium(p), float)
            return solve_equilibrium_atomic(self, p, x0=x)
        if rule.variant == "best_response":
            if self.best_response is not None:
                return self.project(np.asarray(self.best_response(x, p), float))
            return best_response_atomic(self, x, p)
        if rule.regularizer == "entropy":
            raise InvalidArgumentError("entropy regularizer needs a simplex strategy space")
        return self.project(x - eta * (self.loss_grad(x) + p))

    def externality(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        return _checked_gap(self.social_grad(x), self.loss_grad(x), "loss gradient")

    def strategy_gap(self, f: Array, x: Array):
        return np.maximum.reduce(np.abs(f - x), axis=None)

    def known_optimum(self) -> Optional[Array]:
        return self.optimum

    def optimal_incentive(self) -> Optional[Array]:
        """p† = e(x†), the externality at the closed-form optimum."""
        return None if self.optimum is None else self.externality(self.optimum)

    def cost_lipschitz(self) -> float:
        if self.lipschitz_bound:
            return self.lipschitz_bound
        rng = np.random.default_rng(0)
        return sampled_lipschitz(
            self.loss_grad, lambda: self.project(rng.standard_normal(self.n_players) * 2.0))


@dataclass(frozen=True)
class NonAtomicGame:
    """Oracle-backed non-atomic game over a product of mass-scaled simplexes.

    Strategy distributions are stored flat: the block of population ``i``
    occupies ``slices[i]`` and sums to ``masses[i]``. ``action_cost`` returns
    the flat vector of per-action costs.
    """

    masses: Array
    action_counts: tuple
    action_cost: VectorOracle
    social: ScalarOracle
    social_grad: VectorOracle
    equilibrium: Optional[Callable[[Array], Array]] = None

    def __post_init__(self):
        masses = _as_vector(self.masses, "masses")
        counts = tuple(int(c) for c in self.action_counts)
        if np.any(masses <= 0):
            raise SpecError("population masses must be strictly positive")
        if len(counts) != masses.size or any(c < 1 for c in counts):
            raise SpecError("need one action count >= 1 per population")
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "action_counts", counts)

    @property
    def n_populations(self) -> int:
        return self.masses.size

    @property
    def dim(self) -> int:
        return sum(self.action_counts)

    @property
    def slices(self) -> list:
        out, start = [], 0
        for c in self.action_counts:
            out.append(slice(start, start + c))
            start += c
        return out

    def project(self, x: Array) -> Array:
        return project_blocks(np.asarray(x, dtype=float), self.slices, self.masses)

    def is_feasible(self, x: Array, tol: float = MASS_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,) or np.any(x < -tol):
            return False
        for s, m in zip(self.slices, self.masses):
            if abs(x[s].sum() - m) > max(tol, tol * m):
                return False
        return True

    def check_feasible(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        if not self.is_feasible(x):
            raise InvalidArgumentError("strategy distribution violates mass/nonnegativity")
        return x

    def uniform_point(self) -> Array:
        parts = [np.full(c, m / c) for c, m in zip(self.action_counts, self.masses)]
        return np.concatenate(parts)

    def random_start(self, rng: np.random.Generator) -> Array:
        return random_blocks(rng, self.slices, self.masses)

    def check_start(self, x0, p0) -> tuple:
        return self.check_feasible(x0), check_incentive(p0, self.dim)

    def target(self, x: Array, p: Array, rule, eta: float | None = None) -> Array:
        if rule.variant == "equilibrium":
            return solve_equilibrium_nonatomic(self, p, x0=x)
        c = np.asarray(self.action_cost(x), float) + p
        return simplex_target(x, c, self.slices, self.masses, rule, eta)

    def externality(self, x: Array) -> Array:
        return externality_nonatomic(self, x)

    def strategy_gap(self, f: Array, x: Array):
        return np.max(np.abs(f - x))

    def known_optimum(self) -> None:
        return None

    def optimal_incentive(self) -> None:
        return None

    def cost_lipschitz(self) -> float:
        rng = np.random.default_rng(0)
        return sampled_lipschitz(self.action_cost, lambda: self.random_start(rng))


# ---------------------------------------------------------------------------
# Costs and externalities
# ---------------------------------------------------------------------------

def _checked(values: Array, what: str) -> Array:
    values = np.asarray(values, dtype=float)
    if not np.logical_and.reduce(np.isfinite(values), axis=None):
        raise EvaluationError(f"{what} oracle returned non-finite values")
    return values


def _checked_gap(social_grad, own, what: str) -> Array:
    """``social_grad - own``, checked for finite oracle values.

    Only a non-finite difference sends both arrays through :func:`_checked`;
    finite values whose difference overflows give ``inf``.
    """
    social_grad = np.asarray(social_grad, dtype=float)
    own = np.asarray(own, dtype=float)
    e = social_grad - own
    if not np.logical_and.reduce(np.isfinite(e), axis=None):
        _checked(social_grad, "social gradient")
        _checked(own, what)
    return e


def externality_atomic(game: AtomicGame, x: Array) -> Array:
    """Per-player gap between marginal social cost and own marginal cost."""
    return game.externality(x)


def externality_nonatomic(game: NonAtomicGame, x: Array) -> Array:
    x = np.asarray(x, dtype=float)
    return _checked_gap(game.social_grad(x), game.action_cost(x), "action cost")


# ---------------------------------------------------------------------------
# Equilibrium / optimality certification
# ---------------------------------------------------------------------------

def certify_nash_atomic(game: AtomicGame, x: Array, p: Array, tol: float = DEFAULT_CERT_TOL):
    """Projected-gradient residual of the equilibrium variational inequality.

    Returns ``(ok, residual)`` with residual in the sup norm.
    """
    x = _as_vector(x, "x")
    p = _as_vector(p, "p")
    if x.size != game.n_players or p.size != game.n_players:
        raise InvalidArgumentError("dimension mismatch in certify_nash_atomic")
    residual = projected_gradient_residual(game.loss_grad(x) + p, x, game.project)
    return residual <= tol, residual


def certify_nash_nonatomic(game: NonAtomicGame, x: Array, p: Array, tol: float = DEFAULT_CERT_TOL):
    """Checks that every action carrying mass is within tol of minimal cost."""
    x = game.check_feasible(x)
    c = np.asarray(game.action_cost(x), float) + _as_vector(p, "p")
    residual = 0.0
    for s, m in zip(game.slices, game.masses):
        cs = c[s]
        cmin = cs.min()
        active = x[s] > tol * m
        if np.any(active):
            residual = max(residual, float(cs[active].max() - cmin))
    return residual <= tol, residual


def projected_gradient_residual(grad: Array, x: Array, project) -> float:
    return float(np.abs(x - project(x - grad)).max())


def certify_social_optimum(game, x: Array, tol: float = DEFAULT_CERT_TOL):
    """First-order certificate for a candidate social-cost minimizer."""
    x = np.asarray(x, dtype=float)
    residual = projected_gradient_residual(np.asarray(game.social_grad(x), float), x, game.project)
    return residual <= tol, residual


def social_optimum(game, tol: float = 1e-8, max_iter: int = 20000) -> Array:
    """Minimize the social cost by projected gradient descent with backtracking."""
    x = game.uniform_point()
    step = 1.0
    fx = float(game.social(x))
    for _ in range(max_iter):
        g = np.asarray(game.social_grad(x), float)
        if projected_gradient_residual(g, x, game.project) <= tol:
            return x
        t = step
        for _ in range(60):
            cand = game.project(x - t * g)
            fc = float(game.social(cand))
            d = cand - x
            if fc <= fx + float(g @ d) + 0.5 / t * float(d @ d) + 1e-15:
                break
            t *= 0.5
        else:
            raise ConvergenceError("backtracking failed in social_optimum", best=x)
        x, fx = cand, fc
        step = min(t * 2.0, 1e8)
    raise ConvergenceError("social_optimum did not reach tolerance", best=x)


# ---------------------------------------------------------------------------
# Best responses and equilibrium solvers
# ---------------------------------------------------------------------------

def best_response_atomic(game: AtomicGame, x: Array, p: Array) -> Array:
    """Each player's minimiser of its own cost plus payment, the others held at ``x``.

    Without a closed form, player ``i``'s best response is the root on
    ``[lower[i], upper[i]]`` of its own partial ``loss_grad(z)[i] + p[i]``,
    where ``z`` is ``x`` with entry ``i`` moved. This assumes each cost is
    convex in the player's own strategy. One ``loss_grad(x)`` call gives every
    player's first point.
    """
    if game.best_response is not None:
        return game.project(np.asarray(game.best_response(x, p), float))
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    g = np.asarray(game.loss_grad(x), float) + p
    z = x.copy()
    out = np.empty_like(x)
    for i in range(game.n_players):
        lo, hi = game.lower[i], game.upper[i]
        y0 = min(max(x[i], lo), hi)
        out[i] = _own_root(game.loss_grad, z, i, float(p[i]), y0,
                           float(g[i]) if y0 == x[i] else None, lo, hi)
        z[i] = x[i]
    return out


BRACKET_MAX_STEP = 1e12
SECANT_MAX_ITER = 100


def _own_root(loss_grad, z, i, pay, y0, f0, lo, hi) -> float:
    """Root on [lo, hi] of player ``i``'s nondecreasing partial, from ``y0``.

    The partial at ``y`` is ``loss_grad(z)[i] + pay`` with ``z[i] = y``; ``f0``
    is its value at ``y0`` when already known. Doubling steps downhill from
    ``y0`` bracket the sign change or reach the bound where the minimiser
    sits. Illinois regula falsi then closes the bracket, stepping at least
    half its tolerance inside the ends so that it shrinks every iteration,
    until it is narrower than 4 eps (1 + |y|).
    """
    def f(y):
        z[i] = y
        v = float(loss_grad(z)[i]) + pay
        if not math.isfinite(v):
            raise EvaluationError(f"loss gradient oracle returned a non-finite partial "
                                  f"for player {i} at {y!r}")
        return v

    # a non-finite known value is evaluated again, so that f raises
    fa = f(y0) if f0 is None or not math.isfinite(f0) else f0
    if fa == 0.0:
        return y0
    d = -1.0 if fa > 0.0 else 1.0
    bound = lo if d < 0.0 else hi
    a, step = y0, 1.0
    while a != bound:
        b = y0 + d * step
        if d * (b - bound) >= 0.0:
            b = bound
        fb = f(b)
        if fb == 0.0:
            return b
        if (fb > 0.0) != (fa > 0.0):
            break
        a, fa = b, fb
        if step >= BRACKET_MAX_STEP:
            if not math.isfinite(bound):
                raise ConvergenceError(f"best response of player {i} has no minimiser: "
                                       f"its own cost still falls {step:.0e} away from {y0!r}")
            step = math.inf  # the next trial point is the bound itself
        step *= 2.0
    else:
        return bound
    retained = 0  # -1: a was kept by the last step, 1: b was
    for _ in range(SECANT_MAX_ITER):
        tol = 4.0 * EPS * (1.0 + max(abs(a), abs(b)))
        if abs(b - a) <= tol:
            return a if abs(fa) <= abs(fb) else b
        c = b - fb * (b - a) / (fb - fa)
        c = min(max(c, min(a, b) + 0.5 * tol), max(a, b) - 0.5 * tol)
        fc = f(c)
        if fc == 0.0:
            return c
        if (fc > 0.0) == (fb > 0.0):
            b, fb = c, fc
            if retained == -1:
                fa *= 0.5
            retained = -1
        else:
            a, fa = c, fc
            if retained == 1:
                fb *= 0.5
            retained = 1
    raise ConvergenceError(f"best response of player {i}: the secant search did not "
                           f"close its bracket in {SECANT_MAX_ITER} steps")


def best_response_nonatomic(game: NonAtomicGame, x: Array, p: Array) -> Array:
    """All mass on a minimal-cost action per population (ties: lowest index)."""
    c = np.asarray(game.action_cost(x), float) + np.asarray(p, float)
    return best_response_blocks(c, game.slices, game.masses)


def solve_equilibrium_atomic(game: AtomicGame, p: Array, tol: float = 1e-10,
                             x0: Array | None = None, max_iter: int = 5000) -> Array:
    """Projected-gradient iteration on x = Proj(x - eta (loss_grad(x) + p)).

    The step is halved whenever the equilibrium-certificate residual (that of
    :func:`certify_nash_atomic`) stops improving; if it underflows, one
    averaged best-response step restarts the search. The gradient at the
    current point serves both its residual and the next step.
    """
    if game.equilibrium is not None:
        return np.asarray(game.equilibrium(np.asarray(p, float)), float)
    p = _as_vector(p, "p")
    if p.size != game.n_players:
        raise InvalidArgumentError("dimension mismatch in solve_equilibrium_atomic")

    def grad_and_residual(y):
        g = np.asarray(game.loss_grad(y), float) + p
        return g, projected_gradient_residual(g, y, game.project)

    x = game.project(np.zeros(game.n_players) if x0 is None else np.asarray(x0, float))
    eta = 1.0
    g, res = grad_and_residual(x)
    for _ in range(max_iter):
        if res <= tol:
            return x
        cand = game.project(x - eta * g)
        g_c, res_c = grad_and_residual(cand)
        if res_c <= res:
            x, g, res = cand, g_c, res_c
        else:
            eta *= 0.5
            if eta < 1e-12:
                f = best_response_atomic(game, x, p)
                x = 0.5 * x + 0.5 * f
                g, res = grad_and_residual(x)
                eta = 1.0
    raise ConvergenceError("atomic equilibrium iteration stalled", best=x)


def solve_equilibrium_nonatomic(game: NonAtomicGame, p: Array, tol: float = 1e-10,
                                x0: Array | None = None, max_iter: int = 200000) -> Array:
    """Projected fixed-point iteration on x = Proj(x - eta (c(x) + p)).

    The step is halved whenever the equilibrium-certificate residual stops
    improving; if it underflows, one averaged best-response step restarts the
    search. Linear convergence for strongly monotone cost maps.
    """
    if game.equilibrium is not None:
        return np.asarray(game.equilibrium(np.asarray(p, float)), float)
    p = np.asarray(p, float)
    x = game.uniform_point() if x0 is None else game.project(np.asarray(x0, float))
    eta = 1.0
    ok, res = certify_nash_nonatomic(game, x, p, tol)
    for k in range(max_iter):
        if res <= tol:
            return x
        cand = game.project(x - eta * (np.asarray(game.action_cost(x), float) + p))
        _, res_c = certify_nash_nonatomic(game, cand, p, tol)
        if res_c <= res:
            x, res = cand, res_c
        else:
            eta *= 0.5
            if eta < 1e-12:
                f = best_response_nonatomic(game, x, p)
                x = x + (2.0 / (k + 3.0)) * (f - x)
                _, res = certify_nash_nonatomic(game, x, p, tol)
                eta = 1.0
    raise ConvergenceError("non-atomic equilibrium iteration stalled", best=x)
