"""Correctness checks for every benchmark op, written against public API only.

A check returns a :class:`Verdict` when the program's result is either
correct or an honest failure (for example a coupled run that reports it did
not converge). It raises :class:`WrongResult` when the program returned a
result that claims success but violates the check; the benchmark then exits
non-zero.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from incentive_dynamics import routing

# A route "carries flow" above this share of its OD demand; such a route must
# cost no more than the cheapest route of its OD pair plus COST_TOL (relative).
# The solvers stop at relative duality gap 1e-10, which bounds the excess
# cost of a route with that much flow well below COST_TOL.
FLOW_SHARE = 1e-6
COST_TOL = 1e-6
# A converged coupled run (residual <= 1e-4 for ten recorded iterations) has
# its incentive within P_TOL of p* in the sup norm.
P_TOL = 2e-3


class WrongResult(Exception):
    """The program returned a result that claims success but fails its check."""


@dataclass
class Verdict:
    ok: bool
    detail: str = ""
    iterations: int = 0
    p_err: Optional[float] = None
    output_bytes: int = 0


def _finite(*arrays):
    for a in arrays:
        if not np.all(np.isfinite(np.asarray(a, float))):
            raise WrongResult("non-finite values in the result")


def check_route_flow(net: routing.RoutingNetwork, x, w):
    """x is a feasible route flow and w its edge flow."""
    _finite(x, w)
    x = np.asarray(x, float)
    if x.shape != (net.n_routes,) or np.any(x < -1e-9):
        raise WrongResult("route flow has wrong shape or negative entries")
    for s, od in zip(net.route_slices, net.od_pairs):
        if abs(x[s].sum() - od.demand) > 1e-7 * max(1.0, od.demand):
            raise WrongResult(f"route flow violates the demand of OD {od.origin}->{od.destination}")
    if np.max(np.abs(net.incidence @ x - np.asarray(w, float))) > 1e-8:
        raise WrongResult("edge flow does not match the route flow")


def equilibrium_excess(net: routing.RoutingNetwork, x, costs) -> float:
    """Largest relative cost excess of a flow-carrying route over the cheapest of its OD."""
    worst = 0.0
    for s, od in zip(net.route_slices, net.od_pairs):
        cs, xs = costs[s], np.asarray(x, float)[s]
        cmin = float(cs.min())
        used = xs > FLOW_SHARE * od.demand
        if np.any(used):
            worst = max(worst, float(cs[used].max() - cmin) / max(1.0, abs(cmin)))
    return worst


def check_wardrop(net: routing.RoutingNetwork, tolls, result) -> Verdict:
    """Every route carrying flow is within tolerance of its OD's cheapest tolled route."""
    x, w = result
    check_route_flow(net, x, w)
    excess = equilibrium_excess(net, x, routing.route_costs(net, w, tolls))
    if excess > COST_TOL:
        raise WrongResult(f"not a Wardrop equilibrium: a used route costs {excess:.3g} more "
                          "than the cheapest")
    return Verdict(True)


def check_system_optimum(net: routing.RoutingNetwork, result) -> Verdict:
    """Wardrop conditions in marginal costs: l(w) + w l'(w) is route_costs with externality tolls."""
    x, w = result
    check_route_flow(net, x, w)
    marginal = routing.route_costs(net, w, routing.edge_externality(net, w))
    excess = equilibrium_excess(net, x, marginal)
    if excess > COST_TOL:
        raise WrongResult(f"not a system optimum: a used route's marginal cost exceeds "
                          f"the cheapest by {excess:.3g}")
    return Verdict(True)


def check_tolls(p, p_star) -> Verdict:
    _finite(p)
    err = float(np.max(np.abs(np.asarray(p, float) - p_star)))
    if err > 1e-6:
        raise WrongResult(f"optimal tolls differ from the marginal-cost tolls by {err:.3g}")
    return Verdict(True)


def check_coupled(record, p0, p_star, budget: int, sized_to_converge: bool) -> Verdict:
    """A coupled run's final incentive against p*.

    A run that claims convergence must have |p - p*| <= P_TOL. A run sized to
    converge that stops on its budget is a failure. A run sized to stop on its
    budget must use the whole budget and end closer to p* than it started.
    """
    x, p = record.final_x, record.final_p
    _finite(x, p)
    p_err = float(np.max(np.abs(p - p_star)))
    iters = int(record.iterations)
    if record.converged:
        if p_err > P_TOL:
            raise WrongResult(f"run claims convergence but |p - p*| = {p_err:.3g}")
        if iters > budget:
            raise WrongResult(f"run reports {iters} iterations, over its budget of {budget}")
        return Verdict(True, iterations=iters, p_err=p_err)
    if iters != budget:
        raise WrongResult(f"unconverged run reports {iters} iterations, budget {budget}")
    if sized_to_converge:
        return Verdict(False, f"did not converge in {budget} iterations "
                              f"(|p - p*| = {p_err:.3g})", iters, p_err)
    p_err0 = float(np.max(np.abs(np.asarray(p0, float) - p_star)))
    if not p_err < p_err0:
        raise WrongResult(f"incentive moved away from p*: {p_err0:.3g} -> {p_err:.3g}")
    return Verdict(True, iterations=iters, p_err=p_err)


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

def _load(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise WrongResult(f"cannot read {path.name}: {exc}") from exc


def _csv_rows(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def check_cli_run(code: int, out_dir: Path, configs: dict, p_stars: dict) -> Verdict:
    """Exit code 0, and per config a summary.json that converged to p*, with
    a complete trajectory.csv and passing analyses."""
    if code != 0:
        return Verdict(False, f"run exited with code {code}")
    iters, p_err = 0, 0.0
    for stem, cfg in configs.items():
        d = out_dir / stem
        summary = _load(d / "summary.json")
        if not summary.get("converged"):
            raise WrongResult(f"{stem}: exit code 0 but summary.json says not converged")
        p = np.asarray(summary["final_p"], float)
        _finite(p)
        err = float(np.max(np.abs(p - p_stars[stem])))
        if err > P_TOL:
            raise WrongResult(f"{stem}: |p - p*| = {err:.3g}")
        p_err = max(p_err, err)
        iters += int(summary["iterations"])
        every = cfg["run"]["record_every"]
        # k = 0, every, ... up to the stopping iteration
        rows = _csv_rows(d / "trajectory.csv")
        if rows != summary["iterations"] // every + 1:
            raise WrongResult(f"{stem}: trajectory.csv has {rows} rows for "
                              f"{summary['iterations']} iterations")
        for idx, item in enumerate(cfg.get("analyses", [])):
            report = _load(d / "analysis" / f"{idx:02d}_{item['op']}.json")
            passed = report.get("passed", report.get("all_converged"))
            if item["op"] == "nondegeneracy":
                passed = report["verdict"] == "pass"
            elif item["op"] == "uniqueness_probe":
                passed = report["max_spread"] <= 1e-6
            if not passed:
                raise WrongResult(f"{stem}: analysis {item['op']} did not pass")
    size = sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file())
    return Verdict(True, iterations=iters, p_err=p_err, output_bytes=size)


def check_cli_verify(code: int, stdout: str, config: dict) -> Verdict:
    """Exit code 0 and one [pass] line per analysis."""
    if code != 0:
        return Verdict(False, f"verify exited with code {code}")
    lines = [ln for ln in stdout.splitlines() if ln.startswith("[")]
    expected = [f"[pass] {item['op']}" for item in config["analyses"]]
    if lines != expected:
        raise WrongResult(f"verify printed {lines}, expected {expected}")
    return Verdict(True)
