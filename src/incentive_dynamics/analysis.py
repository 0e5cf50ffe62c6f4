"""Verification helpers for the slow incentive dynamics.

Everything here treats the fast strategy layer as instantaneous and studies
the induced map ``phi(p) = e(x*(p))`` on incentives: fixed-point/optimality
checks, a forward-Euler probe of the continuous-time limit, structural
condition checks, and a naive social-cost gradient baseline that the
externality update is compared against on the two-link counterexample.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import aggregative as agg
from . import games, numdiff, routing
from .dynamics import (RunConfig, StepSchedule, StrategyUpdateRule, TrajectoryRecord,
                       _check_number, _positive_int)
from .errors import InvalidArgumentError


def strategy_model(obj):
    """The coupled-loop model of ``obj``: an aggregative spec's atomic game, else ``obj``."""
    return obj.to_game() if isinstance(obj, agg.QuadraticAggregativeSpec) else obj


_EQUILIBRIUM_RULE = StrategyUpdateRule()


def _x_star(model, p, x0=None) -> np.ndarray:
    """x*(p), the model's equilibrium-rule target; no ``x0`` is the solver's own start."""
    return model.target(x0, p, _EQUILIBRIUM_RULE)


def _p_dagger(model) -> Optional[np.ndarray]:
    """p† = e(x†), the externality at the model's known optimum, or None without one."""
    x_opt = model.known_optimum()
    return None if x_opt is None else model.externality(x_opt)


# ---------------------------------------------------------------------------
# Fixed-point / optimality verification
# ---------------------------------------------------------------------------

def verify_fixed_point_optimality(obj, p=None, tol: float = 1e-6) -> dict:
    """Is p a fixed point of the slow map, and is x*(p) socially optimal?

    Checks (a) phi(p) = e(x*(p)) = p, (b) the projected-gradient certificate
    of social optimality at x*(p), (c) proximity of x*(p) to the model's
    independently computed social optimum (skipped when it has none). ``p``
    defaults to p† = e(x_opt), the externality at that optimum. The gap in
    (a) is judged against ``tol`` max(1, |p|), (c) against 10 ``tol``
    max(1, |x*(p)|), sup norms: a spec in larger units gets the verdict of
    the same spec in smaller ones. The residual in (b), x - P(x - grad C(x)),
    is in flow units where it meets a bound and in cost units where it does
    not (on a network, the cost gaps of the routes in use), so it is judged
    against ``tol`` max(1, |x*(p)|, |grad C(x*(p))|).
    """
    games.check_tolerance(tol)
    model = strategy_model(obj)
    x_opt = model.known_optimum()
    if p is None:
        if x_opt is None:
            raise InvalidArgumentError("the model has no known optimal incentive; pass p")
        p = model.externality(x_opt)
    p = games.check_incentive(p, model.dim)
    x = _x_star(model, p)
    x_tol = tol * max(1.0, float(np.max(np.abs(x))))
    phi_gap = float(np.max(np.abs(model.externality(x) - p)))
    scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(model.social_grad(x)))))
    ok, resid = games.certify_social_optimum(model, x, tol * scale)
    report = {"fixed_point_gap": phi_gap,
              "fixed_point_ok": phi_gap <= tol * max(1.0, float(np.max(np.abs(p)))),
              "optimality_residual": resid, "optimality_ok": ok}
    if x_opt is not None:
        gap = float(model.strategy_gap(x, x_opt))
        report["distance_to_optimum"] = gap
        report["optimum_proximity_ok"] = gap <= 10 * x_tol
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
        _check_number(self.step, "step", InvalidArgumentError)
        _check_number(self.horizon, "horizon", InvalidArgumentError)
        if not (0 < self.step < self.horizon and np.isfinite(self.horizon / self.step)):
            raise InvalidArgumentError("need 0 < step < horizon with finite horizon / step")
        games.check_tolerance(self.tol)


def ode_probe_slow_dynamics(obj, start_points,
                            config: OdeProbeConfig = OdeProbeConfig()) -> dict:
    """Forward-Euler integration of dp/dt = phi(p) - p from several starts.

    Each step's x*(p) is solved from the previous step's; each start begins
    from the solver's own start, so starts do not depend on each other.
    Reports each start, its endpoint and, when the model knows p†, the
    endpoint's sup distance to it; ``all_converged`` is whether every
    distance is within ``config.tol``. An empty ``start_points`` is no
    evidence and raises ``InvalidArgumentError``.
    """
    if len(start_points) == 0:
        raise InvalidArgumentError("the ODE probe needs at least one start point")
    model = strategy_model(obj)
    target = _p_dagger(model)
    starts, endpoints, distances = [], [], []
    n_steps = int(round(config.horizon / config.step))
    for p0 in start_points:
        p, x = games.check_incentive(p0, model.dim).copy(), None
        starts.append(p)
        for _ in range(n_steps):
            x = _x_star(model, p, x)
            p = p + config.step * (model.externality(x) - p)
        endpoints.append(p)
        if target is not None:
            distances.append(float(np.max(np.abs(p - target))))
    return {"start_points": starts, "endpoints": endpoints, "distances": distances,
            "all_converged": bool(distances) and max(distances) <= config.tol}


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
    fixed point. An empty ``p_samples`` is no evidence and raises
    ``InvalidArgumentError``; a NaN Jacobian entry fails cooperativity. A
    scalar slow map has no off-diagonal entry, so cooperativity holds
    vacuously there and ``offdiag_min`` is None.
    """
    games.check_tolerance(tol)
    if len(p_samples) == 0:
        raise InvalidArgumentError("condition C1 needs at least one incentive sample")
    model = strategy_model(obj)

    def phi(q):
        return model.externality(_x_star(model, q))

    offdiag_min = np.inf
    for p in p_samples:
        J = numdiff.central_jacobian(phi, games.check_incentive(p, model.dim))
        off = J[~np.eye(model.dim, dtype=bool)]
        if off.size:
            offdiag_min = np.minimum(offdiag_min, off.min())  # a NaN stays
    report = {
        "offdiag_min": float(offdiag_min) if model.dim > 1 else None,
        "cooperative": bool(offdiag_min > tol),
    }
    phi0 = phi(np.zeros(model.dim))
    report["origin_drift"] = [float(v) for v in phi0]
    pd = _p_dagger(model)
    if pd is not None:
        scales = (1.5, 2.0, 4.0, 8.0)
        # the nonpositive orthant's test is the mirror image: negation is exact,
        # so -a > -b - tol is bitwise a < b + tol
        for sign, orthant in ((1.0, "positive"), (-1.0, "negative")):
            ok = bool(np.all(sign * phi0 >= -tol) and np.all(sign * pd >= -tol))
            if ok:
                ok = any(np.all(sign * (s * pd) > sign * pd - tol)
                         and np.all(sign * (phi(s * pd) - s * pd) <= tol)
                         for s in scales)
            report[f"{orthant}_orthant_variant"] = ok
        report["passed"] = report["cooperative"] and (
            report["positive_orthant_variant"] or report["negative_orthant_variant"])
    else:
        report["passed"] = report["cooperative"]
    return report


def check_condition_C2(obj, weight, p_samples, tol: float = 1e-10) -> dict:
    """Quadratic certificate decrease along the slow drift at sampled points.

    ``weight`` must be an n x n array, n the incentive dimension. Samples
    within 1e-12 of p† are skipped; with none left the check has no evidence
    and raises ``InvalidArgumentError``. A NaN decrement fails it.
    """
    games.check_tolerance(tol)
    model = strategy_model(obj)
    pd = _p_dagger(model)
    if pd is None:
        raise InvalidArgumentError("certificate check needs a known fixed point")
    W = np.asarray(weight, dtype=float)
    if W.shape != (model.dim, model.dim):
        raise InvalidArgumentError(f"weight must be a {model.dim} x {model.dim} array, "
                                   f"not shape {W.shape}")
    decrements = []
    for p in p_samples:
        p = games.check_incentive(p, model.dim)
        d = p - pd
        if np.max(np.abs(d)) <= 1e-12:
            continue
        drift = model.externality(_x_star(model, p)) - p
        decrements.append(float(((W + W.T) @ d) @ drift))
    if not decrements:
        raise InvalidArgumentError("condition C2 needs a sample away from p†")
    worst = float(np.max(decrements))  # a NaN stays
    return {"max_decrement": worst, "passed": bool(worst < tol)}


# ---------------------------------------------------------------------------
# Gradient baseline
# ---------------------------------------------------------------------------

def equilibrium_cost_gradient(obj, p) -> np.ndarray:
    """Finite-difference gradient of p -> social cost at x*(p), step 1e-4 (1 + |p|)."""
    model = strategy_model(obj)
    p = games.check_incentive(p, model.dim)
    h = 1e-4 * (1.0 + np.linalg.norm(p))
    return numdiff.central_gradient(lambda q: float(model.social(_x_star(model, q))), p, step=h)


def run_gradient_baseline(obj, p0, schedule: StepSchedule = StepSchedule(),
                          max_iterations: int = 2000,
                          gradient: Optional[Callable] = None) -> TrajectoryRecord:
    """Descend the equilibrium social cost directly in the incentive.

    ``gradient`` overrides the finite-difference default (useful where the
    cost is only piecewise smooth and a closed-form generalized gradient is
    available). Every tenth iteration, and the last, records x*(p), each
    solved from the last one. It is solved again only where p's bytes have
    changed since: a warm solve from its own output returns that output on
    a routing network or an atomic game, so a p that stays put, as on a
    plateau where the gradient vanishes, costs one solve. (A non-atomic
    game re-projects its start, so there the repeat is the last x*(p)
    itself, where a new solve could differ in the last bits.)
    """
    model = strategy_model(obj)
    p = games.check_incentive(p0, model.dim).copy()
    max_iterations = _positive_int(max_iterations, "max_iterations")
    grad = gradient or (lambda q: equilibrium_cost_gradient(model, q))
    record, x, solved_at = TrajectoryRecord(record_every=10), None, None
    for k in range(max_iterations):
        g = np.asarray(grad(p), float)
        if k % 10 == 0 or k == max_iterations - 1:
            if p.tobytes() != solved_at:
                x, solved_at = _x_star(model, p, x), p.tobytes()
            record.append(k, x, p, float(np.max(np.abs(g))), model.social(x))
        p = p - schedule.beta(k) * g
    record.iterations = max_iterations
    record.converged = record.final_residual <= 1e-6
    return record


# ---------------------------------------------------------------------------
# Two-link counterexample
# ---------------------------------------------------------------------------

def _two_link_split(p1, p2):
    """Flow on the first link at the tolled two-link equilibrium, elementwise."""
    return np.minimum(np.maximum((p2 - p1 + 1.0) / 2.0, 0.0), 1.0)


def _two_link_cost(p1, p2):
    """Total latency at the tolled two-link equilibrium, elementwise."""
    d = p1 - p2
    return np.where(np.abs(d) >= 1.0, 1.0, (d * d + 1.0) / 2.0)


def two_link_equilibrium(p) -> np.ndarray:
    """Closed-form tolled equilibrium split of the two parallel unit links."""
    p = games.check_incentive(p, 2)
    x1 = float(_two_link_split(p[0], p[1]))
    return np.array([x1, 1.0 - x1])


def two_link_equilibrium_cost(p) -> float:
    """Total latency at the tolled equilibrium: ((p1-p2)^2 + 1)/2, capped at 1."""
    p = games.check_incentive(p, 2)
    return float(_two_link_cost(p[0], p[1]))


def two_link_clarke_gradient(p) -> np.ndarray:
    """A generalized gradient of the equilibrium cost (zero on the flat cap)."""
    p = games.check_incentive(p, 2)
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
    games.check_tolerance(tol)
    grid = _positive_int(grid, "grid")
    net = routing.two_link_network()
    values = np.linspace(-2.0, 2.0, grid)
    # Each point starts from the route flow of its row neighbour one step
    # farther from the diagonal p1 = p2, and a row's end from the same end of
    # the row farther from it, beginning at the corners (2, -2) and (-2, 2).
    # The split depends on p2 - p1 alone, so no start crosses from the band
    # |p1 - p2| < 1 onto a plateau, where a rounded exchange could leave a
    # sliver of flow behind. The tolls are finite and each start is a solve's
    # own output (or None, the uniform flow), so the solves take them unchecked.
    flows = np.empty((grid, grid, 2))

    def solve(i, j, x0):  # x*(values[i], values[j]) from x0, as a new array
        x, flows[i, j] = routing._wardrop(net, values[[i, j]], x0)
        return x

    end = None
    for i in reversed(range(grid)):  # j <= i, from the first column
        end = x = solve(i, 0, end)
        for j in range(1, i + 1):
            x = solve(i, j, x)
    end = None
    for i in range(grid - 1):  # j > i, from the last column
        end = x = solve(i, grid - 1, end)
        for j in range(grid - 2, i, -1):
            x = solve(i, j, x)
    costs = np.vecdot(flows, net.latency(flows))  # w @ l(w) per point, as total_latency_cost
    p1, p2 = np.meshgrid(values, values, indexing="ij")
    split = _two_link_split(p1, p2)
    max_split_err = float(np.max(np.abs(flows - np.stack([split, 1.0 - split], axis=-1))))
    max_cost_err = float(np.max(np.abs(costs - _two_link_cost(p1, p2))))
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
    """Write the toll grid with equilibrium costs for plotting: floats at
    ``%.17g``, with the csv module's ``\\r\\n`` line ending."""
    values = report["grid_values"].tolist()
    with open(path, "w", newline="") as fh:
        fh.write("p1,p2,equilibrium_cost\r\n")
        for p1, row in zip(values, report["grid_costs"].tolist()):
            for p2, cost in zip(values, row):
                fh.write("%.17g,%.17g,%.17g\r\n" % (p1, p2, cost))


# ---------------------------------------------------------------------------
# Uniqueness probing
# ---------------------------------------------------------------------------

def multistart_uniqueness_probe(obj, p, n_starts: int = 8, seed: int = 0) -> dict:
    """Solve the strategy layer from several random starts and report the spread.

    The spread is the model's strategy gap, so routing models compare edge
    flows (route decompositions are legitimately non-unique); the solutions
    are strategies, route flows for routing. Fewer than two starts raise.
    """
    n_starts = _positive_int(n_starts, "n_starts")
    if n_starts < 2:
        raise InvalidArgumentError("the uniqueness probe needs at least two starts")
    model = strategy_model(obj)
    rng = np.random.default_rng(_positive_int(seed, "seed", least=0))
    p = games.check_incentive(p, model.dim)
    solutions = [_x_star(model, p, model.random_start(rng)) for _ in range(n_starts)]
    spread = 0.0
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            spread = max(spread, float(model.strategy_gap(solutions[i], solutions[j])))
    return {"n_starts": len(solutions), "max_spread": spread,
            "solutions": solutions}
