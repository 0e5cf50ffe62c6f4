"""Which incentive schedule reaches the fixed point fastest without ending any run farther from p†?

Sweeps ``StepSchedule`` over two families of points:

- the offset-2 grid a in {0.51, 0.55, 0.6}, b in {0.55, 0.6, 0.7, 0.9}, a < b,
  gamma0 = 1 and beta0 = 2^(b - 0.9), so that every point takes the same
  first incentive step beta(0) = 2^-0.9; (0.6, 0.9, 1, 1) is the former
  default;
- late-decay points with offset in {4, 8, 16}, a in {0.75, 0.8, 0.85} and b
  in {0.95, 1}, with the default scales gamma0 = 2^-0.6 offset^a and
  beta0 = 2^-0.9 offset^b, which keep both first steps of the former
  default, gamma(0) = 2^-0.6 and beta(0) = 2^-0.9.

Each point runs ``run_coupled`` from uniform flows (zero strategies for
aggregative specs) and zero incentives on:

- two_link, pigou, braess and ``nonatomic_view(braess)``, and the corpus
  networks grid34 and grid45 (``tests/corpus.py``), under every rule, with
  4 000 steps and tol 1e-6;
- grid67, the 6x7 corpus grid, under the equilibrium rule, 300 steps, tol 1e-6;
- the benchmark's ``agg_coupled`` round-0 specs of seed 101 (n = 5, 50 and
  200, well and ill conditioned, ``bench/inputs.py``) under every rule, tol
  1e-4, with the benchmark's budgets: 20 000 steps well, 3 000 ill.

The gradient rule on a network takes the step that was its default when the
study ran, 0.9 / (max l'(total demand) E) (``corpus.former_route_step``), so
that the results do not move with the network step that
``studies/step_study.py`` chose later.

Each run records its outer iterations, whether it converged, its final
``|p - p†|∞``, the largest ``|p_k - p†|∞`` along the run and whether that
exceeds the start's, and, for a converged run, whether
``verify_fixed_point_optimality`` passes at its final p with 10 times the
run's tolerance. A run that raises is recorded with its error. A point
passes when it meets the schedule assumptions, keeps beta(0) = 2^-0.9, no
run raises, ends non-finite or fails verification, and no run ends farther
from p† than under the former default. The best point is the passing one
with the fewest outer iterations; the default ``StepSchedule()`` is that
point.

Regenerate ``SCHEDULE_STUDY.json`` from the repository root with::

    OPENBLAS_NUM_THREADS=1 python3 studies/schedule_study.py

(one BLAS thread, as the benchmark pins, so that the file repeats bitwise).
It takes about seven minutes on one core of a 2-vCPU x86-64 VM.

No run raised, ended non-finite or failed verification; two points
passed. The columns are: the point; gamma0 and beta0; outer iterations
summed over the 37 runs; runs converged; runs that end farther from p†
than under the former default; the largest final error of an aggregative
run; the iterations of the ill-conditioned aggregative runs; grid67's final
error; whether the point passed:

============  ======  =====  =======  ====  ===  =======  ===========  =======  ====
(a, b, off)   gamma0  beta0    iters  conv  far  agg err    ill iters   grid67  pass
============  ======  =====  =======  ====  ===  =======  ===========  =======  ====
0.51 0.55 2    1.000  0.785   44 492    29    6  3.5e-04    985-1 257  3.3e-07
0.51 0.6 2     1.000  0.812   48 984    29    6  3.4e-04  1 376-1 768  7.7e-07
0.51 0.7 2     1.000  0.871   65 012    19    6  1.3e-03        3 000  1.6e-05
0.51 0.9 2     1.000  1.000  108 211    12   14  9.0e-02        3 000  5.3e-03
0.55 0.6 2     1.000  0.812   51 407    29    6  3.6e-04  1 586-2 074  3.6e-07
0.55 0.7 2     1.000  0.871   65 210    19    7  1.8e-03        3 000  1.6e-05
0.55 0.9 2     1.000  1.000  109 651    12   16  9.6e-02        3 000  5.3e-03
0.6 0.7 2      1.000  0.871   65 809    19    2  3.1e-03        3 000  1.5e-05
0.6 0.9 2      1.000  1.000  112 076    12    0  1.1e-01        3 000  5.3e-03  yes
0.75 0.95 4    1.866  2.000   73 706    19    4  3.9e-02        3 000  1.4e-04
0.75 1 4       1.866  2.144   86 800    17    3  6.8e-02        3 000  4.3e-04
0.8 0.95 4     2.000  2.000   75 345    19    3  4.7e-02        3 000  1.3e-04
0.8 1 4        2.000  2.144   89 267    16    3  7.8e-02        3 000  4.3e-04
0.85 0.95 4    2.144  2.000   77 939    18    3  5.8e-02        3 000  1.3e-04
0.85 1 4       2.144  2.144   90 731    16    4  9.0e-02        3 000  4.4e-04
0.75 0.95 8    3.138  3.864   61 813    20    2  1.8e-03        3 000  6.3e-07
0.75 1 8       3.138  4.287   62 331    20    2  4.3e-03        3 000  9.0e-07
0.8 0.95 8     3.482  3.864   61 994    20    2  2.5e-03        3 000  5.3e-07
0.8 1 8        3.482  4.287   62 528    20    0  5.4e-03        3 000  7.6e-07  yes
0.85 0.95 8    3.864  3.864   62 172    20    3  3.6e-03        3 000  3.9e-07
0.85 1 8       3.864  4.287   62 712    20    3  7.0e-03        3 000  5.9e-07
0.75 0.95 16   5.278  7.464   39 875    29    5  3.3e-04      627-914  1.6e-07
0.75 1 16      5.278  8.574   41 922    29    3  3.3e-04    806-1 229  2.6e-07
0.8 0.95 16    6.063  7.464   40 585    29    2  3.4e-04    686-1 022  1.2e-07
0.8 1 16       6.063  8.574   42 879    29    2  3.3e-04    886-1 383  2.5e-07
0.85 0.95 16   6.964  7.464   41 483    29    1  3.5e-04    761-1 166  3.5e-07
0.85 1 16      6.964  8.574   44 131    29    1  3.4e-04    988-1 591  2.4e-07
============  ======  =====  =======  ====  ===  =======  ===========  =======  ====

The default is (0.8, 1, 8): 62 528 outer iterations against 112 076 under
the former default (-44%). Its ill-conditioned aggregative runs still stop
at 3 000, but at most 5.4e-3 from p† instead of 0.11. It passes narrowly:
grid45 under the gradient rule ends at 0.99 of the former default's error,
and pigou under best response at 0.97. Under best response it also moves p
farther away before it returns: |p - p†|∞ peaks at 47.0 on grid34 and 23.6
on grid45, from starts of 13.4 and 13.9 (19.2, and no overshoot, under the
former default). The offset-2 points with b = 0.55
or 0.6 converge every ill-conditioned run, but end all six best-response
runs on networks farther. Under that rule x_k on a simplex model never settles, so
those runs never converge, and their final error after 4 000 steps grows
with the late steps: at (0.51, 0.6), 1.0e-5 against 0.6-4.4e-6 on the
fixtures. The gradient rule on grid34 and grid45 does not converge in 4 000
steps either, and ends farther where gamma_k falls faster than the former
default's, as at every offset-4 point. The offset-16 points converge every
ill-conditioned run too, and end pigou under best response 2.6-5.9 times
farther.
"""
import argparse
import json
import math
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # run from a checkout: the package, tests/corpus.py, bench/inputs.py
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

from incentive_dynamics import aggregative as agg  # noqa: E402
from incentive_dynamics import routing  # noqa: E402
from incentive_dynamics.analysis import verify_fixed_point_optimality  # noqa: E402
from incentive_dynamics.dynamics import (RunConfig, StepSchedule,  # noqa: E402
                                         StrategyUpdateRule, run_coupled, strict_json)

RULES = ("equilibrium", "best_response", "gradient")
BETA_FIRST = 2.0 ** -0.9  # beta(0) at every point of the study
FORMER_DEFAULT = StepSchedule(a=0.6, b=0.9, gamma0=1.0, beta0=1.0, offset=2)
AGG_SEED = 101


@dataclass(frozen=True)
class Case:
    """One model of the study, with its p†, start, rules, budget and tolerance."""

    name: str
    model: object
    p_dagger: np.ndarray
    x0: np.ndarray
    rules: tuple = RULES
    budget: int = 4000
    tol: float = 1e-6
    eta: Optional[float] = None  # the gradient step; None takes the model's default
    p0: Optional[np.ndarray] = None  # the start incentive; None is zero


def grid_point(a: float, b: float) -> StepSchedule:
    """The offset-2 grid's schedule at (a, b): beta0 = 2^(b - 0.9) fixes
    beta(0) = 2^-0.9. The exponent is rounded so that (0.6, 0.9) gives beta0 = 1."""
    return StepSchedule(a=a, b=b, gamma0=1.0, beta0=2.0 ** round(b - 0.9, 12), offset=2)


def sweep_points() -> list:
    # the late-decay points leave the scales out, which keeps the first steps
    return ([grid_point(a, b) for a in (0.51, 0.55, 0.6) for b in (0.55, 0.6, 0.7, 0.9) if a < b]
            + [StepSchedule(a=a, b=b, offset=offset) for offset in (4, 8, 16)
               for a in (0.75, 0.8, 0.85) for b in (0.95, 1.0)])


def routing_case(name: str, net, rules=RULES, budget: int = 4000, eta=None) -> Case:
    return Case(name, net, routing.optimal_edge_tolls(net), net.uniform_point(), rules, budget,
                eta=eta)


def nonatomic_case(name: str, net) -> Case:
    """The route-level view of ``net``: per-route tolls, p† = e(x_opt) in routes."""
    view = routing.nonatomic_view(net)
    x_opt, _ = routing.system_optimum(net)
    return Case(name, view, view.externality(x_opt), view.uniform_point())


def aggregative_case(name: str, spec, budget: int) -> Case:
    n = spec.q.size
    return Case(name, spec.to_game(), agg.optimal_incentive(spec), np.zeros(n),
                budget=budget, tol=1e-4)


def study_cases(corpus, inputs) -> list:
    """Every model of the study, in the order the module docstring lists them;
    ``corpus`` is ``tests/corpus.py`` and ``inputs`` is ``bench/inputs.py``."""
    def network(name, net, **kwargs):
        return routing_case(name, net, eta=corpus.former_route_step(net), **kwargs)

    braess = routing.braess_network()
    cases = [network("two_link", routing.two_link_network()),
             network("pigou", routing.pigou_network()),
             network("braess", braess),
             nonatomic_case("braess_view", braess),
             network("grid34", corpus.grid34()),
             network("grid45", corpus.grid45()),
             network("grid67", corpus.grid67(), rules=("equilibrium",), budget=300)]
    # agg_coupled draws its round-0 specs in this order from default_rng([seed, 0])
    rng = np.random.default_rng([AGG_SEED, 0])
    for regime, budget in (("well", 20000), ("ill", 3000)):
        for n in (5, 50, 200):
            spec = inputs.aggregative_spec(n, regime, rng)
            cases.append(aggregative_case(f"agg_{regime}_n{n}", spec, budget))
    return cases


def run_case(schedule: StepSchedule, case: Case, rule: str) -> dict:
    """One coupled run, recorded every iteration, measured against p†."""
    out = {"model": case.name, "rule": rule, "budget": case.budget, "tol": case.tol}
    eta = case.eta if rule == "gradient" else None
    config = RunConfig(schedule=schedule, rule=StrategyUpdateRule(rule, eta),
                       max_iterations=case.budget, convergence_tol=case.tol)
    p0 = np.zeros(case.p_dagger.size) if case.p0 is None else case.p0
    try:
        rec = run_coupled(case.model, case.x0, p0, config)
    except Exception as exc:  # a study records every failure, whatever its kind
        return dict(out, error=f"{type(exc).__name__}: {exc}")
    errors = np.max(np.abs(np.array(rec.ps) - case.p_dagger), axis=1)
    finite = bool(np.isfinite(rec.final_x).all() and np.isfinite(rec.final_p).all())
    out.update(iterations=rec.iterations, converged=rec.converged, finite=finite,
               p_err=float(errors[-1]), p_err_start=float(errors[0]),
               p_err_peak=float(errors.max()), overshoot=bool(errors.max() > errors[0]))
    if rec.converged:
        report = verify_fixed_point_optimality(case.model, rec.final_p, tol=10 * case.tol)
        out["verified"] = report["passed"]
    return out


def farther(runs: list, former: list) -> list:
    """The runs that end farther from p† than the same run under the former
    default, or raise where it does not."""
    return [{"model": new["model"], "rule": new["rule"], "p_err": new.get("p_err"),
             "former_p_err": old.get("p_err")}
            for new, old in zip(runs, former)
            if "error" not in old and ("error" in new or new["p_err"] > old["p_err"])]


def summarize(schedule: StepSchedule, runs: list, former: list) -> dict:
    ran = [r for r in runs if "error" not in r]
    worse = farther(runs, former)
    return {
        "runs": len(runs),
        "raised": len(runs) - len(ran),
        "converged": sum(r["converged"] for r in ran),
        "outer_iters": sum(r["iterations"] for r in ran),
        "p_err_max": max((r["p_err"] for r in ran), default=None),
        "overshoots": sum(r["overshoot"] for r in ran),
        "farther_than_former_default": worse,
        "passed": (schedule.assumption_report()["passed"]
                   and math.isclose(schedule.beta(0), BETA_FIRST, rel_tol=0.0, abs_tol=1e-15)
                   and len(ran) == len(runs) and all(r["finite"] for r in ran)
                   and all(r.get("verified", True) for r in ran) and not worse),
    }


def run_study(points: list, cases: list) -> dict:
    """Every case under every rule at every point; ``FORMER_DEFAULT`` must be
    among ``points``. ``best`` is the passing point with the fewest outer
    iterations."""
    runs = {s: [run_case(s, case, rule) for case in cases for rule in case.rules] for s in points}
    results = [{"schedule": asdict(s), "assumptions": s.assumption_report(),
                "summary": summarize(s, runs[s], runs[FORMER_DEFAULT]), "runs": runs[s]}
               for s in points]
    passing = [r for r in results if r["summary"]["passed"]]
    best = min(passing, key=lambda r: r["summary"]["outer_iters"], default={"schedule": None})
    return {
        "about": __doc__.split("\n\n")[0],
        "command": "OPENBLAS_NUM_THREADS=1 python3 studies/schedule_study.py",
        "models": [case.name for case in cases],
        "former_default": asdict(FORMER_DEFAULT),
        "best": best["schedule"],
        "points": results,
    }


def dumps(study: dict) -> str:
    """``study`` as JSON text, one line per run."""
    study = strict_json(study)
    lines = []

    def mark(run):  # a placeholder string, replaced by the run's one-line JSON
        lines.append(json.dumps(run, allow_nan=False))
        return f"@{len(lines) - 1}@"

    shallow = dict(study, points=[dict(point, runs=[mark(r) for r in point["runs"]])
                                  for point in study["points"]])
    text = json.dumps(shallow, indent=1, allow_nan=False)
    return re.sub(r'"@(\d+)@"', lambda m: lines[int(m.group(1))], text) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "SCHEDULE_STUDY.json"))
    args = parser.parse_args(argv)
    import corpus  # tests/corpus.py
    import inputs  # bench/inputs.py
    study = run_study(sweep_points(), study_cases(corpus, inputs))
    Path(args.out).write_text(dumps(study))
    passed = [p["schedule"] for p in study["points"] if p["summary"]["passed"]]
    print(f"wrote {args.out}: {len(passed)} of {len(study['points'])} points passed; "
          f"best {study['best']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
