"""Atomic and non-atomic games: costs, externalities, certification.

An atomic game has finitely many players, each choosing a scalar strategy in a
closed interval. A non-atomic game has populations of infinitesimal players
distributing mass over finite action sets. The system operator charges a
marginal payment per unit of strategy (atomic) or a per-action payment
(non-atomic); the externality of a strategy is the gap between its marginal
effect on the social cost and on the player's own cost.

Both game classes carry the model methods that ``dynamics.run_coupled``
calls, as ``routing.RoutingNetwork`` does; what two of them share is
written once, in ``_OracleGame``, ``_BlockSpace`` and ``_StrategySpace``,
whose ``check_start`` rests on each model's one ``check_feasible``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dynamics import _check_positive, _positive_int, _require_finite, _with_default_step
from .errors import ConvergenceError, EvaluationError, InvalidArgumentError, SpecError

DEFAULT_CERT_TOL = 1e-6
# how far past a bound (a box side, a simplex entry's 0) a feasible strategy may lie
FEASIBILITY_SLACK = 1e-9
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


class BlockLayout:
    """A flat vector cut into consecutive blocks, block ``i`` summing to ``masses[i]``.

    A strategy space (a non-atomic game's populations, a network's OD pairs)
    builds one, once. ``index`` is a (blocks, widest block) array of flat
    positions, row ``i`` holding block ``i`` left-aligned; ``pad`` marks the
    places past the end of a shorter block (their index repeats the block's
    first position). Each per-block operation below is one pass over the
    padded array ``v[index]``, with the padding set to a value that cannot
    win (-inf in a descending sort or a max, +inf in an argmin), so its
    numpy call count does not depend on the number of blocks. ``owner``
    gives the block of each flat entry and ``starts`` the first entry of
    each block. ``_padded_masses`` and ``_padded_ranks`` hold each block's
    mass and the ranks 1, 2, ... tiled to the padded shape, so that the
    simplex projection's passes take same-shape contiguous operands, which
    numpy runs faster than broadcast ones. ``mass_tol`` is each block's
    allowed mass error, 1e-7 max(1, m). All arrays are read-only.
    """

    def __init__(self, counts, masses):
        counts = np.asarray(counts, dtype=np.intp)
        ends = np.cumsum(counts)
        starts = ends - counts
        col = np.arange(counts.max())
        self.masses = np.asarray(masses, dtype=float)
        self.slices = tuple(map(slice, starts.tolist(), ends.tolist()))
        self.starts = starts
        self.rows = np.arange(counts.size)
        self.pad = col >= counts[:, None]
        self.index = np.where(self.pad, starts[:, None], starts[:, None] + col)
        self.owner = np.repeat(self.rows, counts)
        self.entry_masses = self.masses[self.owner]
        self._padded_masses = np.repeat(self.masses[:, None], col.size, axis=1)
        self._padded_ranks = np.repeat((col + 1.0)[None, :], counts.size, axis=0)
        self._uniform = self.entry_masses / counts[self.owner]
        self.mass_tol = 1e-7 * np.maximum(1.0, self.masses)
        for a in (self.masses, starts, self.rows, self.pad, self.index, self.owner, self.mass_tol,
                  self.entry_masses, self._padded_masses, self._padded_ranks, self._uniform):
            a.setflags(write=False)

    def padded(self, v: Array, fill: float) -> Array:
        """``v`` as a (blocks, widest block) array, ``fill`` past each block's end."""
        out = v[self.index]
        out[self.pad] = fill
        return out

    def sums(self, v: Array) -> Array:
        """Each block's sum, added left to right."""
        return np.bincount(self.owner, v, self.masses.size)

    def argmin(self, c: Array) -> Array:
        """The flat position of each block's smallest entry (ties: lowest index)."""
        return self.starts + self.padded(c, np.inf).argmin(axis=1)

    def uniform(self) -> Array:
        """Each block's mass spread evenly over its entries."""
        return self._uniform.copy()


def project_blocks(v: Array, layout: BlockLayout) -> Array:
    """Project each block of ``v`` onto its scaled simplex, all blocks in one pass.

    The sort-based projection of Duchi et al. (2008) row by row: sort each
    padded row in descending order (the -inf padding sorts last and never
    passes), take the last rank r with r u_r > sum_{j<=r} u_j - m, and
    subtract theta = (sum_{j<=r} u_j - m) / r from the block. The top rank
    passes in exact arithmetic. Where it fails, a block with a NaN or +-inf
    entry raises ``EvaluationError``, and a finite block whose range swamps
    its mass is projected after its maximum is subtracted, so that
    ``[1e300, -1e300, 5]`` with mass 1 gives ``[1, 0, 0]``. The descending
    sort is copied into a contiguous array, so that no later pass runs on
    a negative-stride view.
    """
    u = layout.padded(v, -np.inf)
    u.sort(axis=1)
    u = u[:, ::-1].copy()
    ranks = layout._padded_ranks
    css = np.add.accumulate(u, axis=1)  # np.cumsum's sums, without its wrapper
    css -= layout._padded_masses
    passes = u * ranks > css
    if not np.logical_and.reduce(passes[:, 0]):
        swamped = ~passes[:, 0]
        if not np.isfinite(v[swamped[layout.owner]]).all():
            raise EvaluationError("simplex projection of a vector with non-finite entries")
        return project_blocks(v - np.where(swamped, u[:, 0], 0.0)[layout.owner], layout)
    rho = np.where(passes, ranks, 0.0).argmax(axis=1)  # last passing rank
    theta = (css / ranks)[layout.rows, rho]
    return np.maximum(v - theta[layout.owner], 0.0)


def best_response_blocks(c: Array, layout: BlockLayout) -> Array:
    """All mass of each block on its cheapest action (ties: lowest index)."""
    out = np.zeros(c.size)
    out[layout.argmin(c)] = layout.masses
    return out


def logit_blocks(c: Array, layout: BlockLayout, temperature: float) -> Array:
    """Each block's mass spread in proportion to exp(-c / temperature).

    The weights of a block are summed pairwise, as numpy sums a row: a sum
    from left to right puts a block's small weights onto its large one one
    at a time, which drifts up to (n - 1)/2 ulp from the pairwise sum."""
    z = -c / temperature
    z -= np.maximum.reduce(layout.padded(z, -np.inf), axis=1)[layout.owner]
    w = np.exp(z)
    return layout.entry_masses * w / np.add.reduce(layout.padded(w, 0.0), axis=1)[layout.owner]


def simplex_target(x: Array, c: Array, layout: BlockLayout, rule) -> Array:
    """Best-response or gradient-rule target from per-action costs ``c``.

    The gradient rule is a logit response at temperature ``rule.eta`` under
    the entropy regularizer and a projected step ``x - rule.eta c`` otherwise.
    """
    if rule.variant == "best_response":
        return best_response_blocks(c, layout)
    if rule.regularizer == "entropy":
        return logit_blocks(c, layout, rule.eta)
    return project_blocks(x - rule.eta * c, layout)


def sup_distance(a: Array, b: Array):
    """max |a - b|, a NaN entry giving NaN."""
    return np.maximum.reduce(np.abs(a - b), axis=None)


def check_incentive(p, n: int) -> Array:
    p = np.asarray(p, dtype=float)
    if p.shape != (n,):
        raise InvalidArgumentError(f"incentive vector has shape {p.shape}, expected ({n},)")
    if not np.logical_and.reduce(np.isfinite(p), axis=None):
        raise InvalidArgumentError("incentive vector must be finite")
    return p


def check_tolerance(tol) -> None:
    """Raise unless a call's tolerance is a finite positive number (NaN fails every ``<=``)."""
    _check_positive(tol, "tol", InvalidArgumentError)


def sampled_lipschitz(grad: VectorOracle, draw: Callable[[], Array], what: str) -> float:
    """Crude bound on the Lipschitz constant of ``grad`` from 32 pairs of ``draw()`` points.

    ``what`` names the oracle: a non-finite value raises ``EvaluationError``,
    where a NaN ratio would be skipped by ``max`` and leave a bound near 0."""
    best = 0.0
    for _ in range(32):
        x, y = draw(), draw()
        d = np.linalg.norm(x - y)
        if d > 1e-12:
            diff = _checked(grad(x), what) - _checked(grad(y), what)
            best = max(best, float(np.linalg.norm(diff) / d))
    return max(best, 1e-12)


class _OracleGame:
    """The model methods that the two oracle-backed games share.

    A subclass defines ``_target(x, p, rule)``, which returns f(x, p) and
    the own costs at ``x`` where the rule took them (else None), and
    ``_externality(x, own=None)``, which calls its own-cost oracle where
    ``own`` is None, before ``social_grad``: the own-cost oracle fails first.
    """

    def target(self, x: Array, p: Array, rule) -> Array:
        p = check_incentive(p, self.dim)
        return self._target(x, p, _with_default_step(self, rule))[0]

    def externality(self, x: Array) -> Array:
        """Per-strategy gap between marginal social cost and own marginal cost."""
        return self._externality(np.asarray(x, dtype=float))

    def step(self, x: Array, p: Array, rule) -> tuple:
        """``(f, e, d, social)`` at (x, p), with ``d = f - x``, whose sup norm
        is the strategy gap; the own costs that the rule took serve the
        externality too."""
        f, own = self._target(x, p, rule)
        return f, self._externality(x, own), f - x, self.social(x)

    def strategy_gap(self, f: Array, x: Array):
        return sup_distance(f, x)


class _StrategySpace:
    """A model whose ``check_feasible(x)`` is its one feasibility rule: it
    returns ``x`` as a float array, else raises ``InvalidArgumentError``."""

    def check_start(self, x0, p0) -> tuple:
        return self.check_feasible(x0), check_incentive(p0, self.dim)


class _BlockSpace(_StrategySpace):
    """Strategies in a product of scaled simplexes, cut by ``self.layout``;
    a subclass names its ``_strategy`` and a ``_block`` for the messages."""

    def check_feasible(self, x) -> Array:
        x = np.asarray(x, dtype=float)
        layout = self.layout
        if x.shape != layout.owner.shape:
            raise InvalidArgumentError(f"{self._strategy} has wrong length")
        if not np.logical_and.reduce(x >= -FEASIBILITY_SLACK):  # NaN fails; +inf, the sums
            raise InvalidArgumentError(f"{self._strategy}s must be finite and nonnegative")
        if not np.logical_and.reduce(np.abs(layout.sums(x) - layout.masses) <= layout.mass_tol):
            raise InvalidArgumentError(f"{self._strategy} violates {self._block}")
        return x

    def project(self, x: Array) -> Array:
        return project_blocks(np.asarray(x, dtype=float), self.layout)

    def uniform_point(self) -> Array:
        return self.layout.uniform()

    def random_start(self, rng: np.random.Generator) -> Array:
        """Exponential weights normalized to each block's mass."""
        out = np.empty(self.layout.owner.size)
        for s, m in zip(self.layout.slices, self.layout.masses):
            g = rng.exponential(size=s.stop - s.start)
            out[s] = m * g / g.sum()
        return out


@dataclass(frozen=True)
class AtomicGame(_OracleGame, _StrategySpace):
    """Oracle-backed atomic game.

    ``loss_grad(x)`` returns each player's marginal cost, the partial of its
    own cost in its own strategy. ``equilibrium`` and ``best_response`` are
    optional closed forms; ``target`` uses them when present and the numeric
    solvers below otherwise. Without ``best_response``, a player's best
    response solves its own first-order condition with ``loss_grad``, which
    assumes each cost is convex in the player's own strategy. ``optimum`` is
    an optional closed-form social optimum. A bound may be infinite, not
    NaN. Immutable; all operations are pure.

    Oracles must not write into their arguments: ``dynamics.run_coupled``
    records the iterates it passes them without copying.
    """

    lower: Array
    upper: Array
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
        for name, bound, bad in (("lower", lower, "+inf"), ("upper", upper, "-inf")):
            if np.isnan(bound).any() or (bound == float(bad)).any():
                raise SpecError(f"{name} bound must not be NaN or {bad}")
        if np.any(lower > upper):
            raise SpecError("every strategy interval needs lower <= upper")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        optimum = None if self.optimum is None else _as_vector(self.optimum, "optimum")
        if optimum is not None:
            if optimum.shape != lower.shape:
                raise SpecError("the closed-form optimum needs one entry per player")
            _require_finite(optimum, "the closed-form optimum")
        if self.lipschitz_bound is not None:
            _check_positive(self.lipschitz_bound, "lipschitz_bound")
        object.__setattr__(self, "optimum", optimum)
        object.__setattr__(self, "_unbounded", bool(np.all((lower == -np.inf) & (upper == np.inf))))

    @property
    def n_players(self) -> int:
        return self.lower.size

    dim = n_players

    def project(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        if self._unbounded and x.shape == self.lower.shape:
            return x.copy()  # both clamps are the identity, NaN and inf included
        return project_interval(x, self.lower, self.upper)

    def check_feasible(self, x) -> Array:
        x = np.asarray(x, dtype=float)
        if x.shape != self.lower.shape:
            raise InvalidArgumentError(
                f"strategy profile has shape {x.shape}, expected {self.lower.shape}")
        if not np.isfinite(x).all():  # infinite bounds admit inf
            raise InvalidArgumentError("strategy profile must be finite")
        if not (np.all(x >= self.lower - FEASIBILITY_SLACK)
                and np.all(x <= self.upper + FEASIBILITY_SLACK)):
            raise InvalidArgumentError("strategy profile lies outside its box")
        return x

    def uniform_point(self) -> Array:
        """The box midpoint, with 0 standing in for an infinite bound."""
        lo = np.where(np.isfinite(self.lower), self.lower, 0.0)
        hi = np.where(np.isfinite(self.upper), self.upper, 0.0)
        return self.project(0.5 * (lo + hi))

    def random_start(self, rng: np.random.Generator) -> Array:
        return self.project(rng.standard_normal(self.n_players))

    def _target(self, x, p, rule) -> tuple:
        """f(x, p), and the loss gradient at ``x`` where the rule took it (else None)."""
        if rule.variant == "equilibrium":
            if self.equilibrium is not None:
                return np.asarray(self.equilibrium(p), float), None
            return solve_equilibrium_atomic(self, p, x0=x), None
        if rule.variant == "best_response":
            if self.best_response is not None:
                return self.project(np.asarray(self.best_response(x, p), float)), None
            g = self.loss_grad(x)
            return best_response_atomic(self, x, p, g), g
        if rule.regularizer == "entropy":
            raise InvalidArgumentError("entropy regularizer needs a simplex strategy space")
        g = self.loss_grad(x)
        return self.project(x - rule.eta * (g + p)), g

    def _externality(self, x, own=None) -> Array:
        if own is None:
            own = self.loss_grad(x)
        return _checked_gap(self.social_grad(x), own, "loss gradient")

    def known_optimum(self) -> Optional[Array]:
        return self.optimum

    def default_eta(self, regularizer: str) -> float:
        """0.9 / L: L is ``lipschitz_bound``, else sampled from the loss gradient."""
        if self.lipschitz_bound is not None:
            return 0.9 / self.lipschitz_bound
        rng = np.random.default_rng(0)
        return 0.9 / sampled_lipschitz(
            self.loss_grad, lambda: self.project(rng.standard_normal(self.n_players) * 2.0),
            "loss gradient")


@dataclass(frozen=True)
class NonAtomicGame(_OracleGame, _BlockSpace):
    """Oracle-backed non-atomic game over a product of mass-scaled simplexes.

    Strategy distributions are stored flat: the block of population ``i``
    occupies ``layout.slices[i]`` and sums to ``masses[i]``. ``action_cost``
    returns the flat vector of per-action costs. Feasibility is a network's
    (``_BlockSpace.check_feasible``), so a route-level view accepts its flows.
    """

    _strategy, _block = "strategy distribution", "a population mass"

    masses: Array
    action_counts: tuple
    action_cost: VectorOracle
    social: ScalarOracle
    social_grad: VectorOracle

    def __post_init__(self):
        masses = _as_vector(self.masses, "masses")
        counts = tuple(self.action_counts)
        for mass in masses:
            _check_positive(mass, "population masses")
        if len(counts) != masses.size or not all(c >= 1 for c in counts):
            raise SpecError("need one action count >= 1 per population")
        counts = tuple(_positive_int(c, "action count", error=SpecError)
                       for c in counts)  # 2.5 fails
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "action_counts", counts)
        object.__setattr__(self, "layout", BlockLayout(counts, masses))

    @property
    def dim(self) -> int:
        return sum(self.action_counts)

    def _target(self, x, p, rule) -> tuple:
        """f(x, p), and the action costs at ``x`` where the rule took them (else None)."""
        if rule.variant == "equilibrium":
            return solve_equilibrium_nonatomic(self, p, x0=x), None
        c = np.asarray(self.action_cost(x), float)
        try:
            return simplex_target(x, c + p, self.layout, rule), c
        except EvaluationError:  # the projection's; name the oracle where it is at fault
            _checked(c, "action cost")
            raise

    def _externality(self, x, own=None) -> Array:
        if own is None:
            own = self.action_cost(x)
        return _checked_gap(self.social_grad(x), own, "action cost")

    def known_optimum(self) -> None:
        return None

    def default_eta(self, regularizer: str) -> float:
        """0.9 / L, with L sampled from the action costs, under either regularizer."""
        rng = np.random.default_rng(0)
        return 0.9 / sampled_lipschitz(self.action_cost, lambda: self.random_start(rng),
                                       "action cost")


# ---------------------------------------------------------------------------
# Oracle value checks
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


# ---------------------------------------------------------------------------
# Equilibrium / optimality certification
# ---------------------------------------------------------------------------

def certify_nash_atomic(game: AtomicGame, x: Array, p: Array, tol: float = DEFAULT_CERT_TOL):
    """Projected-gradient residual of the equilibrium variational inequality.

    Returns ``(ok, residual)`` with residual in the sup norm.
    """
    check_tolerance(tol)
    x = game.check_feasible(x)
    p = check_incentive(p, game.n_players)
    residual = projected_gradient_residual(game.loss_grad(x) + p, x, game.project)
    return residual <= tol, residual


def certify_nash_nonatomic(game: NonAtomicGame, x: Array, p: Array, tol: float = DEFAULT_CERT_TOL):
    """Checks that every action carrying mass is within tol of minimal cost."""
    check_tolerance(tol)
    x = game.check_feasible(x)
    c = np.asarray(game.action_cost(x), float) + check_incentive(p, game.dim)
    residual = _nonatomic_residual(game, x, c, tol)
    return residual <= tol, residual


def _nonatomic_residual(game: NonAtomicGame, x: Array, c: Array, tol: float) -> float:
    """The largest cost gap of an action carrying more than ``tol`` of its mass,
    0 where no action does; a NaN cost gives NaN."""
    layout = game.layout
    active = np.where(x > tol * layout.entry_masses, c, -np.inf)
    gaps = (np.maximum.reduce(layout.padded(active, -np.inf), axis=1)
            - np.minimum.reduce(layout.padded(c, np.inf), axis=1))
    return float(np.maximum.reduce(gaps, initial=0.0))


def projected_gradient_residual(grad: Array, x: Array, project) -> float:
    return float(np.maximum.reduce(np.abs(x - project(x - grad)), axis=None))


def certify_social_optimum(game, x: Array, tol: float = DEFAULT_CERT_TOL):
    """First-order certificate for a candidate social-cost minimizer."""
    check_tolerance(tol)
    x = game.check_feasible(x)
    residual = projected_gradient_residual(np.asarray(game.social_grad(x), float), x, game.project)
    return residual <= tol, residual


# ---------------------------------------------------------------------------
# Best responses and equilibrium solvers
# ---------------------------------------------------------------------------

def best_response_atomic(game: AtomicGame, x: Array, p: Array, own=None) -> Array:
    """Each player's minimiser of its own cost plus payment, the others held at ``x``.

    Player ``i``'s best response is the root on ``[lower[i], upper[i]]`` of
    its own partial ``loss_grad(z)[i] + p[i]``, where ``z`` is ``x`` with
    entry ``i`` moved. This assumes each cost is convex in the player's own
    strategy. One ``loss_grad(x)`` call gives every player's first point;
    ``own`` is that gradient, where the caller has taken it already.
    ``AtomicGame.target`` calls a closed-form ``game.best_response`` instead,
    when the game has one.
    """
    x = np.asarray(x, dtype=float)
    p = check_incentive(p, game.n_players)
    g = np.asarray(game.loss_grad(x) if own is None else own, float) + p
    loss_grad = game.loss_grad
    z = x.copy()
    out = np.empty_like(x)

    def own_partial(y):  # of the player ``i`` and payment ``pay`` the loop is at
        z[i] = y
        v = float(loss_grad(z)[i]) + pay
        if not math.isfinite(v):
            raise EvaluationError(f"loss gradient oracle returned a non-finite partial "
                                  f"for player {i} at {y!r}")
        return v

    for i in range(game.n_players):
        pay = float(p[i])
        lo, hi = game.lower[i], game.upper[i]
        y0 = min(max(x[i], lo), hi)
        out[i] = nondecreasing_root(own_partial, i, y0,
                                    float(g[i]) if y0 == x[i] else None, lo, hi)
        z[i] = x[i]
    return out


BRACKET_MAX_STEP = 1e12
SECANT_MAX_ITER = 100


def nondecreasing_root(f: Callable[[float], float], i: int, y0: float,
                       f0: Optional[float], lo: float, hi: float) -> float:
    """Root on [lo, hi] of the nondecreasing scalar function ``f``, from ``y0``.

    The package's one root finder: it serves player ``i``'s best response and
    the minimiser of an operator-cost term, and ``i`` names the player in its
    messages. ``f0`` is ``f(y0)`` when already known. Doubling steps downhill
    from ``y0`` bracket the sign change or reach the bound where the
    minimiser sits; a bracket still open at a step of ``BRACKET_MAX_STEP``
    toward an infinite bound raises ``ConvergenceError``. Illinois regula
    falsi then closes the bracket, stepping at least half its tolerance inside
    the ends so that it shrinks every iteration, until it is narrower than
    4 eps (1 + |y|).
    """
    # a non-finite known value is evaluated again, so that f can raise
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


def _projected_equilibrium(game, x0, terms, restart, tol: float, max_iter: int, what: str) -> Array:
    """Projected-gradient iteration on x = Proj(x - eta g(x)) from ``x0``
    projected, or from ``game.uniform_point()`` where it is None.

    ``terms(y)`` returns the cost ``g(y)`` and the equilibrium-certificate
    residual at ``y``. The step is halved whenever the residual would rise; if
    it underflows, iteration ``k`` restarts at ``restart(x, g(x), k)``. No
    iterate is checked: each is a projection or a convex combination of feasible points."""
    x = game.uniform_point() if x0 is None else game.project(x0)
    eta = 1.0
    g, res = terms(x)
    for k in range(max_iter):
        if res <= tol:
            return x
        cand = game.project(x - eta * g)
        g_c, res_c = terms(cand)
        if res_c <= res:
            x, g, res = cand, g_c, res_c
        else:
            eta *= 0.5
            if eta < 1e-12:
                x = restart(x, g, k)
                g, res = terms(x)
                eta = 1.0
    raise ConvergenceError(f"{what} equilibrium iteration stalled", best=x)


def solve_equilibrium_atomic(game: AtomicGame, p: Array, tol: float = 1e-10,
                             x0: Array | None = None, max_iter: int = 5000) -> Array:
    """Projected-gradient iteration on x = Proj(x - eta (loss_grad(x) + p)), with
    the residual of :func:`certify_nash_atomic`; a restart moves halfway to the
    best response."""
    check_tolerance(tol)
    max_iter = _positive_int(max_iter, "max_iter")
    p = check_incentive(p, game.n_players)

    def terms(y):
        g = np.asarray(game.loss_grad(y), float) + p
        return g, projected_gradient_residual(g, y, game.project)

    restart = lambda x, g, k: 0.5 * x + 0.5 * best_response_atomic(game, x, p)
    return _projected_equilibrium(game, x0, terms, restart, tol, max_iter, "atomic")


def solve_equilibrium_nonatomic(game: NonAtomicGame, p: Array, tol: float = 1e-10,
                                x0: Array | None = None, max_iter: int = 200000) -> Array:
    """Projected iteration on x = Proj(x - eta (c(x) + p)), with the residual of
    :func:`certify_nash_nonatomic`; restart ``k`` moves 2 / (k + 3) of the way to
    the best response. Linear convergence for strongly monotone cost maps."""
    check_tolerance(tol)
    max_iter = _positive_int(max_iter, "max_iter")
    p = check_incentive(p, game.dim)

    def terms(y):
        c = np.asarray(game.action_cost(y), float) + p
        return c, _nonatomic_residual(game, y, c, tol)

    def restart(x, c, k):
        return x + (2.0 / (k + 3.0)) * (best_response_blocks(c, game.layout) - x)

    return _projected_equilibrium(game, x0, terms, restart, tol, max_iter, "non-atomic")
