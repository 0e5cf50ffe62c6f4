"""Coupled strategy/incentive updates on two timescales.

The strategy moves fast: ``x_{k+1} = (1-gamma_k) x_k + gamma_k f(x_k, p_k)``
where ``f`` is one of the pluggable learning rules (inner equilibrium, best
response, or a regularized gradient step). The incentive moves slowly toward
the current externality: ``p_{k+1} = (1-beta_k) p_k + beta_k e(x_k)``.

One loop, :func:`run_coupled`, serves every model: atomic and non-atomic
games and routing networks. It calls ``check_start``, ``default_eta`` (for
a gradient rule without a step) and ``step``; the analyses call the rest.
Each model class defines each of these methods, except where the classes
that do are named (``games._OracleGame`` serves the two games and
``games._BlockSpace`` the non-atomic game and the network):

- ``check_start(x0, p0)``: the validated start ``(x, p)``;
- ``step(x, p, rule)`` (``_OracleGame``, ``aggregative._SpecGame``,
  ``RoutingNetwork``): the loop's one evaluation per iteration,
  ``(f, e, d, social)`` at the iterate. ``d`` is the vector whose sup norm
  is the strategy gap: ``f - x`` for a game, the difference of the edge
  flows of ``f`` and ``x`` for a network. It evaluates the iterate once: a
  network takes one edge flow and one latency-kernel pass, an aggregative
  spec's game one product with A for both its loss gradient and its
  closed-form best response, and any other game one loss gradient or one
  set of action costs where its rule needs them. It takes p as checked and
  x as feasible, as the loop's iterates are (convex combinations of
  feasible strategies, from a start that ``check_start`` passed), and
  raises what ``target`` would, then what ``externality`` would;
- ``target(x, p, rule)`` (``_OracleGame``, ``RoutingNetwork``): ``f(x, p)``,
  with ``rule.eta`` the gradient step, or ``default_eta``'s where it is None;
- ``externality(x)`` (``_OracleGame``, ``RoutingNetwork``) and ``social(x)``
  (the games' ``social`` oracle, ``RoutingNetwork``);
- ``strategy_gap(f, x)`` (``_OracleGame``, ``RoutingNetwork``): the sup
  distance of two strategies, in edge flows for a network, the sup norm of
  ``step``'s ``d``;
- ``default_eta(regularizer)``: the step of a gradient rule that gives
  none, under that regularizer;
- ``uniform_point()`` and ``random_start(rng)`` (``AtomicGame``,
  ``_BlockSpace``): a feasible strategy, the CLI's default start, and a
  random one, for multistart probes;
- ``known_optimum()``: an independent social optimum, or ``None``, for the
  slow-layer checks of ``analysis``, which take p† = e(x†) from it.

``step`` is built on the same private helpers as the single-quantity
methods, which check p and which the analyses call, so that the two give
equal values.

The loop records the iterates it passes to these methods without copying
them, so no method may write into its arguments. Its stop rule counts the
residual of every iteration; ``record_every`` only thins the record. It
checks the rule a block at a time: it evaluates the iterations up to the
first recorded one at which the run could stop (ten at most), then computes
their residuals from the stacked ``d``, ``e`` and ``p`` rows in one pass. It
never evaluates an iteration past the stop.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import EvaluationError, InvalidArgumentError, SpecError

CONSECUTIVE_HITS = 10


def _positive_int(value, name: str, least: int = 1, error=InvalidArgumentError) -> int:
    """``value`` as an int, if it is a whole number >= ``least`` (1 or 0): ``1e3``
    passes, ``2.5`` and ``True`` fail. A bad call argument raises
    ``InvalidArgumentError``; a constructor passes ``error=SpecError``."""
    if type(value) is int and value >= least:
        return value
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    whole = int(value) if number and math.isfinite(value) else -1
    if whole < least or whole != value:
        raise error(f"{name} must be a {'positive' if least else 'non-negative'} integer")
    return whole


def _check_number(value, name: str, error=SpecError) -> None:
    """Raise if ``value`` is a bool, as JSON's ``true``, which Python takes as 1."""
    if isinstance(value, bool):
        raise error(f"{name} must be a number, got {value}")


def _check_positive(value, name: str) -> None:
    """Raise unless ``value`` is a finite number > 0: NaN, inf and a bool fail."""
    _check_number(value, name)
    if not math.isfinite(value):
        raise SpecError(f"{name} must be finite")
    if value <= 0:
        raise SpecError(f"{name} must be positive")


@dataclass(frozen=True)
class StepSchedule:
    """Polynomially decaying step sizes gamma_k = gamma0 (k+offset)^-a etc.

    Requires 0.5 < a < b <= 1 so that both step sums diverge, squares are
    summable, and the incentive timescale is asymptotically negligible.

    A scale left out (None) keeps the first step of the former default
    (0.6, 0.9, 1, 1, 2) whatever a, b and the offset are: gamma0 =
    2^-0.6 offset^a gives gamma(0) = 2^-0.6, and beta0 = 2^-0.9 offset^b
    gives beta(0) = 2^-0.9. So every admissible (a, b) is a valid schedule,
    and the first move from (x0, p0) does not depend on them.

    The default, gamma_k = 2^-0.6 (16 / (k+16))^0.85 and
    beta_k = 2^-0.9 (16 / (k+16))^0.95, was chosen by
    ``studies/schedule_study.py``. The offset 16 keeps both steps near their
    first values for longer. Near p† the incentive's error falls roughly like
    exp(-mu sum_k beta_k), and over 3 000 steps beta_k sums to about 52,
    against 26 under the previous default (0.8, 1, 8) and 12 under the
    former default. The larger a keeps the strategy step from growing with
    it, and so how far a best response that never settles moves p.
    ``StepSchedule(a=0.8, b=1.0, offset=8)`` is the previous default and
    ``StepSchedule(a=0.6, b=0.9, gamma0=1.0, beta0=1.0, offset=2)`` the
    former one.
    """

    a: float = 0.85
    b: float = 0.95
    gamma0: Optional[float] = None
    beta0: Optional[float] = None
    offset: int = 16

    def __post_init__(self):
        for name in ("a", "b", "gamma0", "beta0"):
            _check_number(getattr(self, name), name)
        if not (0.5 < self.a < self.b <= 1.0):
            raise SpecError(f"need 0.5 < a < b <= 1, got a={self.a}, b={self.b}")
        offset = _positive_int(self.offset, "offset", error=SpecError)
        object.__setattr__(self, "offset", offset)
        if self.gamma0 is None:
            object.__setattr__(self, "gamma0", 2.0 ** -0.6 * offset ** self.a)
        if self.beta0 is None:
            object.__setattr__(self, "beta0", 2.0 ** -0.9 * offset ** self.b)
        if self.gamma0 <= 0 or self.beta0 <= 0:
            raise SpecError("step scale factors must be positive")
        # decreasing in k, so checking k = 0 pins the whole sequence in (0, 1)
        if not (0.0 < self.gamma(0) < 1.0 and 0.0 < self.beta(0) < 1.0):
            raise SpecError("step sizes must lie in (0, 1) for all k >= 0")

    def gamma(self, k: int) -> float:
        return self.gamma0 * (k + self.offset) ** (-self.a)

    def beta(self, k: int) -> float:
        return self.beta0 * (k + self.offset) ** (-self.b)

    def assumption_report(self) -> dict:
        """Symbolic check of the admissible-family conditions from the exponents."""
        report = {
            "gamma_sum_diverges": self.a <= 1.0,
            "beta_sum_diverges": self.b <= 1.0,
            "squares_summable": 2.0 * self.a > 1.0 and 2.0 * self.b > 1.0,
            "ratio_vanishes": self.b > self.a,
            "steps_in_unit_interval": 0.0 < self.gamma(0) < 1.0 and 0.0 < self.beta(0) < 1.0,
        }
        report["passed"] = all(report.values())
        return report


@dataclass(frozen=True)
class StrategyUpdateRule:
    variant: str = "equilibrium"  # equilibrium | best_response | gradient
    eta: Optional[float] = None
    regularizer: str = "quadratic"  # quadratic | entropy, which only the gradient rule reads

    def __post_init__(self):
        if self.variant not in ("equilibrium", "best_response", "gradient"):
            raise SpecError(f"unknown strategy rule {self.variant!r}")
        if self.regularizer not in ("quadratic", "entropy"):
            raise SpecError(f"unknown regularizer {self.regularizer!r}")
        if self.regularizer == "entropy" and self.variant != "gradient":
            raise SpecError(f"the entropy regularizer needs the gradient rule, not {self.variant}")
        if self.eta is not None:
            _check_positive(self.eta, "inner step size eta")


@dataclass(frozen=True)
class RunConfig:
    schedule: StepSchedule = field(default_factory=StepSchedule)
    rule: StrategyUpdateRule = field(default_factory=StrategyUpdateRule)
    max_iterations: int = 10000
    convergence_tol: float = 1e-6
    record_every: int = 1

    def __post_init__(self):
        for name in ("max_iterations", "record_every"):
            object.__setattr__(self, name,
                               _positive_int(getattr(self, name), name, error=SpecError))
        _check_positive(self.convergence_tol, "convergence_tol")


@dataclass
class TrajectoryRecord:
    """Time-indexed iterates with fixed-point residual diagnostics."""

    ks: list = field(default_factory=list)
    xs: list = field(default_factory=list)
    ps: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    social_costs: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    record_every: int = 1

    def append(self, k, x, p, residual, social_cost):
        if self.ks and k <= self.ks[-1]:
            raise InvalidArgumentError("iteration indices must be strictly increasing")
        self.ks.append(int(k))
        self.xs.append(np.array(x, dtype=float))
        self.ps.append(np.array(p, dtype=float))
        self.residuals.append(float(residual))
        self.social_costs.append(float(social_cost))

    @property
    def final_x(self) -> np.ndarray:
        return self.xs[-1]

    @property
    def final_p(self) -> np.ndarray:
        return self.ps[-1]

    @property
    def final_residual(self) -> float:
        return self.residuals[-1]

    def summary(self) -> dict:
        return {
            "final_x": [float(v) for v in self.final_x],
            "final_p": [float(v) for v in self.final_p],
            "final_residual": self.final_residual,
            "final_social_cost": self.social_costs[-1],
            "iterations": self.iterations,
            "converged": self.converged,
            "record_every": self.record_every,
        }

    def to_csv(self, path):
        """One row per record, floats at ``%.17g``, with the csv module's
        ``\\r\\n`` line ending (no field ever needs quoting)."""
        nx, np_ = self.xs[0].size, self.ps[0].size
        header = (["k", "residual", "social_cost"]
                  + [f"x{i}" for i in range(nx)] + [f"p{i}" for i in range(np_)])
        row = "%d," + ",".join(["%.17g"] * (2 + nx + np_)) + "\r\n"
        # Row by row: one string for the whole file would hold about 40 MB
        # more at peak for a 4000-row, 50-player record.
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for k, r, c, x, p in zip(self.ks, self.residuals, self.social_costs,
                                     self.xs, self.ps):
                fh.write(row % (k, r, c, *x.tolist(), *p.tolist()))

    def to_json_summary(self, path):
        with open(path, "w") as fh:
            json.dump(strict_json(self.summary()), fh, indent=2, allow_nan=False)


def strict_json(obj):
    """``obj`` in plain JSON types: arrays as lists, numpy scalars as Python
    ones, and a non-finite float as None, which JSON writes as ``null``."""
    if isinstance(obj, np.ndarray):
        values = obj.tolist()
        if obj.dtype.kind != "f" or np.isfinite(obj).all():
            return values
        obj = values
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [strict_json(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# Rule evaluation
# ---------------------------------------------------------------------------

def _with_default_step(model, rule: StrategyUpdateRule) -> StrategyUpdateRule:
    """``rule``, with the step ``model.default_eta(rule.regularizer)`` if it is
    a gradient rule without one."""
    if rule.variant == "gradient" and rule.eta is None:
        return replace(rule, eta=model.default_eta(rule.regularizer))
    return rule


def strategy_target(model, x, p, rule: StrategyUpdateRule):
    """The loop's evaluation at (x, p): ``model.step``'s ``(f, e, d, social)``.

    A gradient rule without a step gets the model's default. p is not checked,
    as ``run_coupled`` checks its start once; ``model.target`` is the checked
    f(x, p). Public only because the benchmark's tracer wraps it by name:
    ROADMAP item 15 makes it private once ``bench/`` changes.
    """
    return model.step(np.asarray(x, dtype=float), np.asarray(p, dtype=float),
                      _with_default_step(model, rule))


def externality(model, x):
    """``model.externality(x)``; the loop takes e from ``strategy_target``."""
    return model.externality(x)


def _residuals(ks, ds, es, ps) -> list:
    """The fixed-point residuals ``max|d| + max|e - p|`` of a block of
    iterations ``ks``, in order, from one pass over their stacked rows. The
    first NaN raises ``EvaluationError`` naming its iteration."""
    if not ks:
        return []
    out = (np.maximum.reduce(np.abs(np.array(ds)), axis=1)
           + np.maximum.reduce(np.abs(np.array(es) - np.array(ps)), axis=1)).tolist()
    for k, residual in zip(ks, out):
        if math.isnan(residual):
            raise EvaluationError(f"the fixed-point residual at iteration {k} is {residual}")
    return out


def run_coupled(game, x0, p0, config: RunConfig) -> TrajectoryRecord:
    """Iterate the coupled updates until the fixed-point residual settles.

    The residual is the model's strategy gap (in edge flows for routing, where
    route decompositions of one edge flow are interchangeable) plus the sup
    distance of the incentive from the externality. It is taken at every
    iteration, recorded or not. The run stops at the first recorded
    iteration that ends ten or more consecutive iterations with the residual
    within ``convergence_tol``, or when the iteration budget runs out. So
    ``record_every`` only thins the record: its rows are those of the
    unthinned run at the same ``k``. On budget exhaustion the iterate at
    ``k = max_iterations`` is recorded too, whatever ``record_every``, and
    ``converged`` is set from its residual. A residual that is NaN, at a
    recorded iteration or not, raises ``EvaluationError``; an infinite one,
    from finite iterates whose difference overflows, counts as a miss, and
    the oracle checks stop the run once the iterates themselves overflow.

    The stop rule is checked a block at a time. With ``hits`` consecutive
    residuals within the tolerance, the run can stop no sooner than
    ``max(CONSECUTIVE_HITS - hits, 1)`` iterations on, and only at a recorded
    one, so the loop evaluates iterations until it has that many and the last
    is recorded, or until it has ten, or up to ``max_iterations``, and then
    computes their residuals in one pass. It never evaluates an iteration
    past the stop, and under ``record_every = 1`` a block is the
    ``CONSECUTIVE_HITS - hits`` iterations after which the run could stop.
    An exception raised within a block is re-raised after the residuals of
    the block's earlier iterations are checked, so a NaN residual is still
    reported first.
    """
    x, p = game.check_start(x0, p0)
    # Iterates go into the record uncopied: x and p are rebound every step
    # and never written in place. Only the start pair may alias the caller's.
    x, p = np.array(x, dtype=float), np.array(p, dtype=float)
    rule = _with_default_step(game, config.rule)
    record = TrajectoryRecord(record_every=config.record_every)
    ks, xs, ps = record.ks, record.xs, record.ps
    residuals, social_costs = record.residuals, record.social_costs
    gamma, beta = config.schedule.gamma, config.schedule.beta
    record_every, tol = config.record_every, config.convergence_tol
    last = config.max_iterations
    k, hits = -1, 0
    while True:
        block, ds, es, block_ps = [], [], [], []
        least = max(CONSECUTIVE_HITS - hits, 1)
        try:
            while k < last:
                if k >= 0:  # the update of the previous iteration
                    gamma_k, beta_k = gamma(k), beta(k)
                    x = (1.0 - gamma_k) * x + gamma_k * f
                    p = (1.0 - beta_k) * p + beta_k * e
                k += 1
                f, e, d, social = strategy_target(game, x, p, rule)
                block.append(k)
                ds.append(d)
                es.append(e)
                block_ps.append(p)
                recorded = k % record_every == 0 or k == last
                if recorded:
                    ks.append(k)
                    xs.append(x)
                    ps.append(p)
                    social_costs.append(float(social))
                if len(block) == CONSECUTIVE_HITS or recorded and len(block) >= least:
                    break
        except Exception:
            _residuals(block, ds, es, block_ps)
            raise
        for j, residual in zip(block, _residuals(block, ds, es, block_ps)):
            hits = hits + 1 if residual <= tol else 0
            if j % record_every == 0 or j == last:
                residuals.append(residual)
        if hits >= CONSECUTIVE_HITS and recorded or k == last:
            record.converged = residuals[-1] <= tol
            record.iterations = k
            return record
