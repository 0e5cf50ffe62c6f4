"""Verification helpers for the slow incentive dynamics.

Everything here treats the fast strategy layer as instantaneous and studies
the induced map ``phi(p) = e(x*(p))`` on incentives: fixed-point/optimality
checks, a forward-Euler probe of the continuous-time limit, structural
condition checks, and a naive social-cost gradient baseline that the
externality update is compared against on the two-link counterexample.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import aggregative as agg
from . import games, numdiff, routing
from .dynamics import RunConfig, StepSchedule, StrategyUpdateRule, TrajectoryRecord
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class SlowSystem:
    """The incentive layer with the strategy layer solved out."""

    dim: int
    phi: Callable[[np.ndarray], np.ndarray]  # p -> e(x*(p))
    equilibrium: Callable[[np.ndarray], np.ndarray]  # p -> x*(p)
    equilibrium_social_cost: Callable[[np.ndarray], float]


def _strategy_model(obj):
    """The coupled-loop model of ``obj``: an aggregative spec's atomic game, else ``obj``."""
    return obj.to_game() if isinstance(obj, agg.QuadraticAggregativeSpec) else obj


def slow_system(obj) -> SlowSystem:
    """The reduced incentive dynamics of a model; x*(p) is its equilibrium-rule target."""
    model = _strategy_model(obj)

    def x_star(p):  # no warm start: the equilibrium solver's own default
        return model.target(None, p, StrategyUpdateRule())

    return SlowSystem(
        dim=model.dim,
        phi=lambda p: model.externality(x_star(p)),
        equilibrium=x_star,
        equilibrium_social_cost=lambda p: float(model.social(x_star(p))),
    )


# ---------------------------------------------------------------------------
# Fixed-point / optimality verification
# ---------------------------------------------------------------------------

def verify_fixed_point_optimality(obj, p=None, tol: float = 1e-6) -> dict:
    """Is p a fixed point of the slow map, and is x*(p) socially optimal?

    Checks (a) phi(p) = e(x*(p)) = p, (b) the projected-gradient certificate
    of social optimality at x*(p), (c) proximity of x*(p) to the model's
    independently computed social optimum (skipped when it has none). ``p``
    defaults to p† = e(x_opt), the externality at that optimum.
    """
    model = _strategy_model(obj)
    x_opt = model.known_optimum()
    if p is None:
        if x_opt is None:
            raise InvalidArgumentError("the model has no known optimal incentive; pass p")
        p = model.externality(x_opt)
    p = np.asarray(p, dtype=float)
    x = slow_system(model).equilibrium(p)
    phi_gap = float(np.max(np.abs(model.externality(x) - p)))
    ok, resid = games.certify_social_optimum(model, x, tol)
    report = {"fixed_point_gap": phi_gap, "fixed_point_ok": phi_gap <= tol,
              "optimality_residual": resid, "optimality_ok": ok}
    if x_opt is not None:
        gap = float(model.strategy_gap(x, x_opt))
        report["distance_to_optimum"] = gap
        report["optimum_proximity_ok"] = gap <= 10 * tol
    report["passed"] = all(v for k, v in report.items() if k.endswith("_ok"))
    return report


# ---------------------------------------------------------------------------
# ODE probe of the slow dynamics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OdeProbeConfig:
    step: float = 0.01
    horizon: float = 60.0
    tol: float = 1e-6

    def __post_init__(self):
        if self.step <= 0 or self.horizon <= self.step:
            raise InvalidArgumentError("need 0 < step < horizon")


@dataclass
class StabilityReport:
    start_points: list = field(default_factory=list)
    endpoints: list = field(default_factory=list)
    distances: list = field(default_factory=list)
    all_converged: bool = False


def ode_probe_slow_dynamics(obj, start_points, config: OdeProbeConfig = OdeProbeConfig(),
                            p_dagger=None) -> StabilityReport:
    """Forward-Euler integration of dp/dt = phi(p) - p from several starts."""
    model = _strategy_model(obj)
    sys = slow_system(model)
    target = model.optimal_incentive() if p_dagger is None else np.asarray(p_dagger, float)
    report = StabilityReport()
    n_steps = int(round(config.horizon / config.step))
    for p0 in start_points:
        p = np.asarray(p0, dtype=float).copy()
        report.start_points.append(p.copy())
        for _ in range(n_steps):
            p = p + config.step * (sys.phi(p) - p)
        report.endpoints.append(p.copy())
        if target is not None:
            report.distances.append(float(np.max(np.abs(p - target))))
    if target is not None and report.distances:
        report.all_converged = max(report.distances) <= config.tol
    return report


# ---------------------------------------------------------------------------
# Structural condition checks
# ---------------------------------------------------------------------------

def check_condition_C1(obj, p_samples, tol: float = 1e-8) -> dict:
    """Cooperativity of the slow map plus orthant invariance conditions.

    Requires strictly positive off-diagonal entries of the Jacobian of phi at
    the sampled incentives, and then one of two sign patterns: phi(0) >= 0
    with a nonnegative fixed point and a componentwise-larger incentive whose
    drift is nonpositive, or the mirror image on the nonpositive orthant.
    The dominating/dominated incentive is searched along scalings of the
    fixed point.
    """
    model = _strategy_model(obj)
    sys = slow_system(model)
    offdiag_min = np.inf
    for p in p_samples:
        J = numdiff.central_jacobian(sys.phi, np.asarray(p, float))
        off = J[~np.eye(sys.dim, dtype=bool)]
        if off.size:
            offdiag_min = min(offdiag_min, float(off.min()))
    report = {
        "offdiag_min": float(offdiag_min),
        "cooperative": bool(offdiag_min > tol),
    }
    phi0 = sys.phi(np.zeros(sys.dim))
    report["origin_drift"] = [float(v) for v in phi0]
    pd = model.optimal_incentive()
    if pd is not None:
        scales = (1.5, 2.0, 4.0, 8.0)
        pos_ok = bool(np.all(phi0 >= -tol) and np.all(pd >= -tol))
        if pos_ok:
            pos_ok = any(np.all(s * pd > pd - tol)
                         and np.all(sys.phi(s * pd) - s * pd <= tol)
                         for s in scales)
        neg_ok = bool(np.all(phi0 <= tol) and np.all(pd <= tol))
        if neg_ok:
            neg_ok = any(np.all(s * pd < pd + tol)
                         and np.all(sys.phi(s * pd) - s * pd >= -tol)
                         for s in scales)
        report["positive_orthant_variant"] = pos_ok
        report["negative_orthant_variant"] = neg_ok
        report["passed"] = report["cooperative"] and (pos_ok or neg_ok)
    else:
        report["passed"] = report["cooperative"]
    return report


def check_condition_C2(obj, weight, p_samples, tol: float = 1e-10) -> dict:
    """Quadratic certificate decrease along the slow drift at sampled points."""
    model = _strategy_model(obj)
    sys = slow_system(model)
    pd = model.optimal_incentive()
    if pd is None:
        raise InvalidArgumentError("certificate check needs a known fixed point")
    W = np.asarray(weight, dtype=float)
    worst = -np.inf
    for p in p_samples:
        p = np.asarray(p, float)
        d = p - pd
        if np.max(np.abs(d)) <= 1e-12:
            continue
        drift = sys.phi(p) - p
        worst = max(worst, float(((W + W.T) @ d) @ drift))
    return {"max_decrement": worst, "passed": bool(worst < tol)}


# ---------------------------------------------------------------------------
# Gradient baseline
# ---------------------------------------------------------------------------

def equilibrium_cost_gradient(obj, p, step: float = 1e-4) -> np.ndarray:
    """Finite-difference gradient of p -> social cost at equilibrium x*(p)."""
    sys = slow_system(obj)
    p = np.asarray(p, dtype=float)
    h = step * (1.0 + np.linalg.norm(p))
    return numdiff.central_gradient(sys.equilibrium_social_cost, p, step=h)


def run_gradient_baseline(obj, p0, schedule: StepSchedule = StepSchedule(),
                          max_iterations: int = 2000, step: float = 1e-4,
                          gradient: Optional[Callable] = None) -> TrajectoryRecord:
    """Descend the equilibrium social cost directly in the incentive.

    ``gradient`` overrides the finite-difference default (useful where the
    cost is only piecewise smooth and a closed-form generalized gradient is
    available).
    """
    model = _strategy_model(obj)
    x_star = slow_system(model).equilibrium
    p = np.asarray(p0, dtype=float).copy()
    grad = gradient or (lambda q: equilibrium_cost_gradient(model, q, step))
    record = TrajectoryRecord()
    for k in range(max_iterations):
        g = np.asarray(grad(p), float)
        if k % 10 == 0 or k == max_iterations - 1:
            x = x_star(p)
            record.append(k, x, p, float(np.max(np.abs(g))), model.social(x))
        p = p - schedule.beta(k) * g
    record.iterations = max_iterations
    record.converged = record.final_residual <= 1e-6
    return record


# ---------------------------------------------------------------------------
# Two-link counterexample
# ---------------------------------------------------------------------------

def two_link_equilibrium(p) -> np.ndarray:
    """Closed-form tolled equilibrium split of the two parallel unit links."""
    p = np.asarray(p, dtype=float)
    x1 = min(max((p[1] - p[0] + 1.0) / 2.0, 0.0), 1.0)
    return np.array([x1, 1.0 - x1])


def two_link_equilibrium_cost(p) -> float:
    """Total latency at the tolled equilibrium: ((p1-p2)^2 + 1)/2, capped at 1."""
    p = np.asarray(p, dtype=float)
    d = p[0] - p[1]
    if abs(d) >= 1.0:
        return 1.0
    return (d * d + 1.0) / 2.0


def two_link_clarke_gradient(p) -> np.ndarray:
    """A generalized gradient of the equilibrium cost (zero on the flat cap)."""
    p = np.asarray(p, dtype=float)
    d = p[0] - p[1]
    if abs(d) >= 1.0:
        return np.zeros(2)
    return np.array([d, -d])


def reproduce_counterexample(grid: int = 41, tol: float = 1e-6) -> dict:
    """Gradient descent on the equilibrium cost stalls where the externality
    update still finds the efficient tolls, on the two-parallel-link network.

    Returns a report with the formula-vs-solver grid check, the stalled
    baseline run, the successful externality-driven runs, and grid data for
    plotting.
    """
    net = routing.two_link_network()
    lo, hi = -2.0, 2.0
    values = np.linspace(lo, hi, grid)
    max_split_err = 0.0
    max_cost_err = 0.0
    costs = np.empty((grid, grid))
    for i, p1 in enumerate(values):
        for j, p2 in enumerate(values):
            p = np.array([p1, p2])
            x, w = routing.wardrop_equilibrium(net, p)
            max_split_err = max(max_split_err,
                                float(np.max(np.abs(w - two_link_equilibrium(p)))))
            cost = routing.total_latency_cost(net, w)
            costs[i, j] = cost
            max_cost_err = max(max_cost_err,
                               abs(cost - two_link_equilibrium_cost(p)))
    report = {
        "grid_values": values,
        "grid_costs": costs,
        "max_split_error": max_split_err,
        "max_cost_error": max_cost_err,
        "grid_ok": max_split_err <= tol and max_cost_err <= tol,
    }

    # Baseline started on the flat plateau |p1 - p2| >= 1: the generalized
    # gradient vanishes there, so the tolls never move and the cost stays 1.
    p_flat = np.array([1.5, 0.0])
    baseline = run_gradient_baseline(net, p_flat, max_iterations=500,
                                     gradient=two_link_clarke_gradient)
    report["baseline_final_p"] = baseline.final_p
    report["baseline_final_cost"] = baseline.social_costs[-1]
    report["baseline_stuck"] = bool(
        np.max(np.abs(baseline.final_p - p_flat)) <= tol
        and abs(baseline.social_costs[-1] - 1.0) <= 1e-3)

    config = RunConfig(max_iterations=4000, convergence_tol=1e-4)
    runs = []
    for p0 in (np.zeros(2), p_flat.copy(), np.array([0.0, 2.0])):
        rec = routing.run_toll_adaptation(net, net.uniform_route_flow(), p0, config)
        runs.append(rec)
    report["externality_runs"] = runs
    report["externality_ok"] = all(
        np.max(np.abs(r.final_p - 0.5)) <= 1e-3
        and abs(r.social_costs[-1] - 0.5) <= 1e-3
        for r in runs)
    report["passed"] = report["grid_ok"] and report["baseline_stuck"] and report["externality_ok"]
    return report


def counterexample_grid_csv(report: dict, path):
    """Write the toll grid with equilibrium costs for plotting."""
    import csv

    values = report["grid_values"]
    costs = report["grid_costs"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p1", "p2", "equilibrium_cost"])
        for i, p1 in enumerate(values):
            for j, p2 in enumerate(values):
                writer.writerow([f"{p1:.17g}", f"{p2:.17g}", f"{costs[i, j]:.17g}"])


# ---------------------------------------------------------------------------
# Uniqueness probing
# ---------------------------------------------------------------------------

def multistart_uniqueness_probe(obj, p, n_starts: int = 8, seed: int = 0) -> dict:
    """Solve the strategy layer from several random starts and report the spread.

    The spread is the model's strategy gap, so routing models compare edge
    flows (route decompositions are legitimately non-unique); the solutions
    are strategies, route flows for routing.
    """
    model = _strategy_model(obj)
    rng = np.random.default_rng(seed)
    p = np.asarray(p, dtype=float)
    solutions = [model.target(model.random_start(rng), p, StrategyUpdateRule())
                 for _ in range(n_starts)]
    spread = 0.0
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            spread = max(spread, float(model.strategy_gap(solutions[i], solutions[j])))
    return {"n_starts": len(solutions), "max_spread": spread,
            "solutions": solutions}
