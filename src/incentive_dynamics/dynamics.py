"""Coupled strategy/incentive updates on two timescales.

The strategy moves fast: ``x_{k+1} = (1-gamma_k) x_k + gamma_k f(x_k, p_k)``
where ``f`` is one of the pluggable learning rules (inner equilibrium, best
response, or a regularized gradient step). The incentive moves slowly toward
the current externality: ``p_{k+1} = (1-beta_k) p_k + beta_k e(x_k)``.

One loop, :func:`run_coupled`, serves every model: atomic and non-atomic
games and routing networks. It calls ``check_start``, ``cost_lipschitz``
or ``cost_jacobian_norm`` (for the default gradient step) and ``step``; the
analyses call the rest.
Each model class defines each of these methods, except where the classes
that do are named (``games._OracleGame`` serves the two games and
``games._BlockSpace`` the non-atomic game and the network):

- ``check_start(x0, p0)``: the validated start ``(x, p)``;
- ``step(x, p, rule, recorded)`` (``_OracleGame``, ``RoutingNetwork``): the
  loop's one evaluation per iteration, ``(f, e, d, social)`` at the
  iterate, the last two only where ``recorded`` (else None). ``d`` is the
  vector whose sup norm is the strategy gap: ``f - x`` for a game, the
  difference of the edge flows of ``f`` and ``x`` for a network. It
  evaluates the iterate once: a network takes one edge flow and one
  latency-kernel pass, and a game one loss gradient or one set of action
  costs where its rule needs them. It takes p as checked, and raises what
  ``target`` would, then what ``externality`` would;
- ``target(x, p, rule)`` (``_OracleGame``, ``RoutingNetwork``): ``f(x, p)``,
  with ``rule.eta`` the gradient step, or the default step where it is None;
- ``externality(x)`` (``_OracleGame``, ``RoutingNetwork``) and ``social(x)``
  (the games' ``social`` oracle, ``RoutingNetwork``);
- ``strategy_gap(f, x)`` (``_OracleGame``, ``RoutingNetwork``): the sup
  distance of two strategies, in edge flows for a network, the sup norm of
  ``step``'s ``d``;
- ``cost_lipschitz()``: a scale ``L`` behind the default step ``0.9 / L``:
  a sampled or exact Lipschitz bound of a game's costs, and on a network the
  scale of the entropy rule's temperature;
- ``cost_jacobian_norm()`` (``RoutingNetwork``): the norm ``‖J‖`` of the
  route-cost Jacobian at the uniform flow, behind the network's default
  quadratic step ``NETWORK_STEP_GAIN / ‖J‖``;
- ``uniform_point()`` and ``random_start(rng)`` (``AtomicGame``,
  ``_BlockSpace``): a feasible strategy, the CLI's default start, and a
  random one, for multistart probes;
- ``known_optimum()``: an independent social optimum, or ``None``, for the
  slow-layer checks of ``analysis``, which take p† = e(x†) from it.

``step`` is built on the same private helpers as the single-quantity
methods, which check p and which the analyses call, so that the two give
equal values.

The loop records the iterates it passes to these methods without copying
them, so no method may write into its arguments. It checks the stop rule a
block at a time: it evaluates the recorded iterations after which the run
could stop at the earliest, then computes their residuals from the stacked
``d``, ``e`` and ``p`` rows in one pass. It never evaluates an iteration that
a check after every recorded iteration would skip.
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
# G of the default gradient step G / ||J|| on a routing network under the
# quadratic regularizer, chosen by studies/step_study.py (STEP_STUDY.json)
NETWORK_STEP_GAIN = 9.0


def _positive_int(value, name: str, least: int = 1, error=InvalidArgumentError) -> int:
    """``value`` as an int, if it is a whole number >= ``least`` (1 or 0): ``1e3``
    passes, ``2.5`` fails. A bad call argument raises ``InvalidArgumentError``;
    a constructor passes ``error=SpecError``."""
    if type(value) is int and value >= least:
        return value
    whole = int(value) if isinstance(value, numbers.Real) and math.isfinite(value) else -1
    if whole < least or whole != value:
        raise error(f"{name} must be a {'positive' if least else 'non-negative'} integer")
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

    A scale left out (None) keeps the first step of the former default
    (0.6, 0.9, 1, 1, 2) whatever a, b and the offset are: gamma0 =
    2^-0.6 offset^a gives gamma(0) = 2^-0.6, and beta0 = 2^-0.9 offset^b
    gives beta(0) = 2^-0.9. So every admissible (a, b) is a valid schedule,
    and the first move from (x0, p0) does not depend on them.

    The default, gamma_k = 2^-0.6 (8 / (k+8))^0.8 and beta_k = 2^-0.9 8 / (k+8),
    was chosen by ``studies/schedule_study.py``. The offset 8 keeps both
    steps near their first values for longer. Near p† the incentive's error
    falls roughly like exp(-mu sum_k beta_k), and over 3 000 steps beta_k
    sums to about 26, against 12 under the former default. The larger a
    keeps the strategy step from growing with it, and so how far a best
    response that never settles moves p. The former default is
    ``StepSchedule(a=0.6, b=0.9, gamma0=1.0, beta0=1.0, offset=2)``.
    """

    a: float = 0.8
    b: float = 1.0
    gamma0: Optional[float] = None
    beta0: Optional[float] = None
    offset: int = 8

    def __post_init__(self):
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
    """The gradient step: the rule's own, else the model's default.

    On a routing network under the quadratic regularizer the default is
    ``NETWORK_STEP_GAIN / model.cost_jacobian_norm()``. Everywhere else,
    the entropy rule's temperature on a network included, it is 0.9 over
    ``model.cost_lipschitz()``.
    """
    if rule.eta is not None:
        return rule.eta
    if rule.regularizer == "quadratic" and hasattr(model, "cost_jacobian_norm"):
        return NETWORK_STEP_GAIN / model.cost_jacobian_norm()
    return 0.9 / model.cost_lipschitz()


def _with_default_step(model, rule: StrategyUpdateRule) -> StrategyUpdateRule:
    """``rule``, with the default step of :func:`resolve_eta` if it is a
    gradient rule without one."""
    if rule.variant == "gradient" and rule.eta is None:
        return replace(rule, eta=resolve_eta(model, rule))
    return rule


def strategy_target(model, x, p, rule: StrategyUpdateRule, recorded: bool = True):
    """The loop's evaluation at (x, p): ``model.step``'s ``(f, e, d, social)``,
    the last two None unless ``recorded``.

    A gradient rule without a step gets the model's default. p is not checked,
    as ``run_coupled`` checks its start once; ``model.target`` is the checked
    f(x, p). Public only because the benchmark's tracer wraps it by name:
    ROADMAP item 15 makes it private once ``bench/`` changes.
    """
    return model.step(np.asarray(x, dtype=float), np.asarray(p, dtype=float),
                      _with_default_step(model, rule), recorded)


def externality(model, x):
    """``model.externality(x)``; the loop takes e from ``strategy_target``."""
    return model.externality(x)


def _residuals(ks, ds, es, ps) -> list:
    """The fixed-point residuals ``max|d| + max|e - p|`` of a block of recorded
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
    distance of the incentive from the externality. Stops once the residual
    stays below ``convergence_tol`` for ten consecutive recorded iterations,
    or the iteration budget runs out. On budget exhaustion the iterate at
    ``k = max_iterations`` is recorded too, whatever ``record_every``, and
    ``converged`` is set from its residual. A recorded residual that is NaN
    raises ``EvaluationError``; an infinite one, from finite iterates whose
    difference overflows, is recorded, and the oracle checks stop the run
    once the iterates themselves overflow.

    The stop rule is checked a block at a time. With ``hits`` consecutive
    recorded residuals within the tolerance, the run can stop no sooner than
    ``CONSECUTIVE_HITS - hits`` recorded iterations on, so the loop evaluates
    that many (or up to ``max_iterations``) and then computes their residuals
    in one pass. It never evaluates an iteration that a check after every
    recorded iteration would skip. An exception raised within a block is
    re-raised after the residuals of the block's earlier recorded iterations
    are checked, so a NaN residual is still reported first.
    """
    x, p = game.check_start(x0, p0)
    # Iterates go into the record uncopied: x and p are rebound every step
    # and never written in place. Only the start pair may alias the caller's.
    x, p = np.array(x, dtype=float), np.array(p, dtype=float)
    rule = _with_default_step(game, config.rule)
    record = TrajectoryRecord()
    ks, xs, ps = record.ks, record.xs, record.ps
    residuals, social_costs = record.residuals, record.social_costs
    gamma, beta = config.schedule.gamma, config.schedule.beta
    record_every, tol = config.record_every, config.convergence_tol
    last = config.max_iterations
    k, hits = -1, 0
    while True:
        start, ds, es = len(ks), [], []
        try:
            while len(ds) + hits < CONSECUTIVE_HITS and k < last:
                if k >= 0:  # the update of the previous iteration
                    gamma_k, beta_k = gamma(k), beta(k)
                    x = (1.0 - gamma_k) * x + gamma_k * f
                    p = (1.0 - beta_k) * p + beta_k * e
                k += 1
                recorded = k % record_every == 0 or k == last
                f, e, d, social = strategy_target(game, x, p, rule, recorded)
                if recorded:
                    ks.append(k)
                    xs.append(x)
                    ps.append(p)
                    ds.append(d)
                    es.append(e)
                    social_costs.append(float(social))
        except Exception:
            _residuals(ks[start:], ds, es, ps[start:])
            raise
        for residual in _residuals(ks[start:], ds, es, ps[start:]):
            residuals.append(residual)
            hits = hits + 1 if residual <= tol else 0
        if hits >= CONSECUTIVE_HITS or k == last:
            record.converged = residuals[-1] <= tol
            record.iterations = k
            return record
