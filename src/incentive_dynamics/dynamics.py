"""Coupled strategy/incentive updates on two timescales.

The strategy moves fast: ``x_{k+1} = (1-gamma_k) x_k + gamma_k f(x_k, p_k)``
where ``f`` is one of the pluggable learning rules (inner equilibrium, best
response, or a regularized gradient step). The incentive moves slowly toward
the current externality: ``p_{k+1} = (1-beta_k) p_k + beta_k e(x_k)``.

One loop, :func:`run_coupled`, serves every model: atomic and non-atomic
games and routing networks. A model supplies

- ``check_start(x0, p0)``: the validated start ``(x, p)``;
- ``step(x, p, rule, recorded)``: the loop's one evaluation per iteration,
  ``(f, e, strategy_gap, social)`` at the iterate, the last two only where
  ``recorded`` (else None). It evaluates the iterate once: a network takes
  one edge flow and one latency-kernel pass, and a game one loss gradient
  or one set of action costs where its rule needs them. It takes p as
  checked, and raises what ``target`` would, then what ``externality`` would;
- ``target(x, p, rule)``: ``f(x, p)``, with ``rule.eta`` the gradient step;
- ``externality(x)`` and ``social(x)``;
- ``strategy_gap(f, x)``: the sup distance of two strategies;
- ``cost_lipschitz()``: a bound ``L`` behind the default step ``0.9 / L``;
- ``uniform_point()`` and ``random_start(rng)``: a feasible strategy, the
  CLI's default start, and a random one, for multistart probes;
- ``known_optimum()``: an independent social optimum, or ``None``, for the
  slow-layer checks of ``analysis``, which take p† = e(x†) from it.

``step`` is built on the same private helpers as the single-quantity
methods, which check p and which the analyses call, so that the two give
equal values.

The loop records the iterates it passes to these methods without copying
them, so no method may write into its arguments.
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


def _positive_int(value, name: str, least: int = 1) -> int:
    """``value`` as an int, if it is a whole number >= ``least`` (1 or 0): ``1e3``
    passes, ``2.5`` fails."""
    whole = int(value) if isinstance(value, numbers.Real) and math.isfinite(value) else -1
    if whole < least or whole != value:
        raise SpecError(f"{name} must be a {'positive' if least else 'non-negative'} integer")
    return whole


def _check_positive(value, name: str) -> None:
    """Raise unless ``value`` is a finite number > 0: NaN and inf fail."""
    if not math.isfinite(value):
        raise SpecError(f"{name} must be finite")
    if value <= 0:
        raise SpecError(f"{name} must be positive")


@dataclass(frozen=True)
class StepSchedule:
    """Polynomially decaying step sizes gamma_k = gamma0 (k+offset)^-a etc.

    Requires 0.5 < a < b <= 1 so that both step sums diverge, squares are
    summable, and the incentive timescale is asymptotically negligible.
    """

    a: float = 0.6
    b: float = 0.9
    gamma0: float = 1.0
    beta0: float = 1.0
    offset: int = 2

    def __post_init__(self):
        if not (0.5 < self.a < self.b <= 1.0):
            raise SpecError(f"need 0.5 < a < b <= 1, got a={self.a}, b={self.b}")
        if self.gamma0 <= 0 or self.beta0 <= 0:
            raise SpecError("step scale factors must be positive")
        object.__setattr__(self, "offset", _positive_int(self.offset, "offset"))
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
    regularizer: str = "quadratic"  # quadratic | entropy

    def __post_init__(self):
        if self.variant not in ("equilibrium", "best_response", "gradient"):
            raise SpecError(f"unknown strategy rule {self.variant!r}")
        if self.regularizer not in ("quadratic", "entropy"):
            raise SpecError(f"unknown regularizer {self.regularizer!r}")
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
            object.__setattr__(self, name, _positive_int(getattr(self, name), name))
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

def resolve_eta(model, rule: StrategyUpdateRule) -> float:
    """The gradient step: the rule's own, else 0.9 over the model's cost Lipschitz bound."""
    if rule.eta is not None:
        return rule.eta
    return 0.9 / model.cost_lipschitz()


def strategy_target(model, x, p, rule: StrategyUpdateRule, recorded: bool = True):
    """The loop's evaluation at (x, p): ``model.step``'s ``(f, e, strategy_gap,
    social)``, the last two None unless ``recorded``.

    A gradient rule without a step gets the model's default. p is not checked,
    as ``run_coupled`` checks its start once; ``model.target`` is the checked
    f(x, p). Public only because the benchmark's tracer wraps it by name:
    ROADMAP item 15 makes it private once ``bench/`` changes.
    """
    if rule.variant == "gradient" and rule.eta is None:
        rule = replace(rule, eta=resolve_eta(model, rule))
    return model.step(np.asarray(x, dtype=float), np.asarray(p, dtype=float), rule, recorded)


def externality(model, x):
    """``model.externality(x)``; the loop takes e from ``strategy_target``."""
    return model.externality(x)


def run_coupled(game, x0, p0, config: RunConfig) -> TrajectoryRecord:
    """Iterate the coupled updates until the fixed-point residual settles.

    The residual is the model's strategy gap (in edge flows for routing, where
    route decompositions of one edge flow are interchangeable) plus the sup
    distance of the incentive from the externality. Stops once the residual
    stays below ``convergence_tol`` for ten consecutive recorded iterations,
    or the iteration budget runs out. On budget exhaustion the iterate at
    ``k = max_iterations`` is recorded too, whatever ``record_every``, and
    ``converged`` is set from its residual. A recorded residual that is NaN
    raises ``EvaluationError``; an infinite one, from finite iterates whose
    difference overflows, is recorded, and the oracle checks stop the run
    once the iterates themselves overflow.
    """
    x, p = game.check_start(x0, p0)
    # Iterates go into the record uncopied: x and p are rebound every step
    # and never written in place. Only the start pair may alias the caller's.
    x, p = np.array(x, dtype=float), np.array(p, dtype=float)
    rule = config.rule
    if rule.variant == "gradient" and rule.eta is None:
        rule = replace(rule, eta=resolve_eta(game, rule))
    record = TrajectoryRecord()
    ks, xs, ps = record.ks, record.xs, record.ps
    residuals, social_costs = record.residuals, record.social_costs
    gamma, beta = config.schedule.gamma, config.schedule.beta
    record_every, tol = config.record_every, config.convergence_tol
    last = config.max_iterations
    hits = 0
    for k in range(last + 1):
        recorded = k % record_every == 0 or k == last
        f, e, strategy_gap, social = strategy_target(game, x, p, rule, recorded)
        if recorded:
            residual = float(strategy_gap + np.maximum.reduce(np.abs(e - p), axis=None))
            if math.isnan(residual):
                raise EvaluationError(f"the fixed-point residual at iteration {k} is {residual}")
            ks.append(k)
            xs.append(x)
            ps.append(p)
            residuals.append(residual)
            social_costs.append(float(social))
            hits = hits + 1 if residual <= tol else 0
            if hits >= CONSECUTIVE_HITS or k == last:
                record.converged = residual <= tol
                record.iterations = k
                return record
        gamma_k, beta_k = gamma(k), beta(k)
        x = (1.0 - gamma_k) * x + gamma_k * f
        p = (1.0 - beta_k) * p + beta_k * e
