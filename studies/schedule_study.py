"""Which incentive schedule reaches the fixed point fastest without losing a run or leaving one far from p†?

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

The gradient rule takes each model's own default step (``default_eta``),
the step a run without ``eta`` gets.

Each run records its outer iterations, whether it converged, its final
``|p - p†|∞``, the largest ``|p_k - p†|∞`` along the run and whether that
exceeds the start's, and, for a converged run, whether
``verify_fixed_point_optimality`` passes at its final p with 10 times the
run's tolerance. A run that raises is recorded with its error. A point
passes when it meets the schedule assumptions, keeps beta(0) = 2^-0.9, no
run raises, ends non-finite or fails verification, every run that converged
under the former default still converges, and no run that does not converge
ends both farther from p† than under the former default and farther than
10 times its tolerance. Below 10 tol the comparison carries no signal: a
converged run is verified there, and best response on a simplex model never
converges, so it is compared at an arbitrary budget. Every run that ends
farther than under the former default is listed all the same. The best point
is the passing one with the fewest outer iterations; the default
``StepSchedule()`` is that point.

Regenerate ``SCHEDULE_STUDY.json`` from the repository root with::

    OPENBLAS_NUM_THREADS=1 python3 studies/schedule_study.py

(one BLAS thread, as the benchmark pins, so that the file repeats bitwise).
It takes about seven minutes on one core of a 2-vCPU x86-64 VM.

No run raised, ended non-finite or failed verification, and no point lost
a run that converged under the former default; 16 points passed. The columns are: the point;
gamma0 and beta0; outer iterations summed over the 37 runs; runs converged;
runs that end farther from p† than under the former default; runs that no
longer converge; unconverged runs that end farther and beyond 10 tol; the
largest final error of an aggregative run; the iterations of the
ill-conditioned aggregative runs; grid67's final error; whether the point
passed:

============  ======  =====  =======  ====  ===  ====  ======  =======  ===========  =======  ====
(a, b, off)   gamma0  beta0    iters  conv  far  lost  beyond  agg err    ill iters   grid67  pass
============  ======  =====  =======  ====  ===  ====  ======  =======  ===========  =======  ====
0.51 0.55 2    1.000  0.785   36 685    31    6     0       6  3.5e-04    985-1 257  3.3e-07
0.51 0.6 2     1.000  0.812   41 247    31    6     0       6  3.4e-04  1 376-1 768  7.7e-07
0.51 0.7 2     1.000  0.871   57 308    21    6     0       2  1.3e-03        3 000  1.6e-05
0.51 0.9 2     1.000  1.000  106 177    13   16     0       3  9.0e-02        3 000  5.3e-03
0.55 0.6 2     1.000  0.812   43 649    31    6     0       2  3.6e-04  1 586-2 074  3.6e-07
0.55 0.7 2     1.000  0.871   57 733    21    6     0       2  1.8e-03        3 000  1.6e-05
0.55 0.9 2     1.000  1.000  107 424    13   16     0       3  9.6e-02        3 000  5.3e-03
0.6 0.7 2      1.000  0.871   58 133    21    2     0       0  3.1e-03        3 000  1.5e-05  yes
0.6 0.9 2      1.000  1.000  109 369    13    0     0       0  1.1e-01        3 000  5.3e-03  yes
0.75 0.95 4    1.866  2.000   67 586    21    1     0       0  3.9e-02        3 000  1.4e-04  yes
0.75 1 4       1.866  2.144   81 582    18    0     0       0  6.8e-02        3 000  4.3e-04  yes
0.8 0.95 4     2.000  2.000   69 460    20    1     0       0  4.7e-02        3 000  1.3e-04  yes
0.8 1 4        2.000  2.144   82 673    18    0     0       0  7.8e-02        3 000  4.3e-04  yes
0.85 0.95 4    2.144  2.000   71 152    21    1     0       0  5.8e-02        3 000  1.3e-04  yes
0.85 1 4       2.144  2.144   84 210    18    1     0       0  9.0e-02        3 000  4.4e-04  yes
0.75 0.95 8    3.138  3.864   54 345    22    2     0       0  1.8e-03        3 000  6.3e-07  yes
0.75 1 8       3.138  4.287   55 098    22    1     0       0  4.3e-03        3 000  9.0e-07  yes
0.8 0.95 8     3.482  3.864   54 420    22    2     0       0  2.5e-03        3 000  5.3e-07  yes
0.8 1 8        3.482  4.287   55 306    22    0     0       0  5.4e-03        3 000  7.6e-07  yes
0.85 0.95 8    3.864  3.864   54 671    22    1     0       0  3.6e-03        3 000  3.9e-07  yes
0.85 1 8       3.864  4.287   55 310    22    1     0       0  7.0e-03        3 000  5.9e-07  yes
0.75 0.95 16   5.278  7.464   32 158    31    5     0       2  3.3e-04      627-914  1.6e-07
0.75 1 16      5.278  8.574   34 232    31    3     0       2  3.3e-04    806-1 229  2.6e-07
0.8 0.95 16    6.063  7.464   32 863    31    2     0       1  3.4e-04    686-1 022  1.2e-07
0.8 1 16       6.063  8.574   35 203    31    2     0       1  3.3e-04    886-1 383  2.5e-07
0.85 0.95 16   6.964  7.464   33 749    31    1     0       0  3.5e-04    761-1 166  3.5e-07  yes
0.85 1 16      6.964  8.574   36 400    31    1     0       0  3.4e-04    988-1 591  2.4e-07  yes
============  ======  =====  =======  ====  ===  ====  ======  =======  ===========  =======  ====

The default is (0.85, 0.95, 16): 33 749 outer iterations against 55 306
under the previous default (0.8, 1, 8) and 109 369 under the former one. It
converges every aggregative run, the ill-conditioned ones in 761-1 166
steps, where both earlier defaults stop them on their 3 000-step budget.
Its one run that ends farther than under the former default is pigou under
best response, 2.1e-6 from p† against 6.3e-7, within 10 tol; best response
ends 2.1e-6 from p† on all four simplex fixtures (6.1e-7 under (0.8, 1, 8)).
On grid34 and grid45, best response ends 0.011 and 0.0082 from p† (0.0098 and
0.0061 under (0.8, 1, 8), 0.017 and 0.0099 under the former default), and
|p - p†|∞ peaks at 61 and 38 on the way, from starts of 13.4 and 13.9 (47
and 24 under (0.8, 1, 8)). The gradient rule converges on both in about
200 steps (about 700 under (0.8, 1, 8)), but peaks at 28 and 29 where it
did not overshoot before. At the offset-16 points with a < 0.85 best response on
grid34 or grid45 ends beyond 10 tol and farther than under the former
default (0.011-0.020 against 0.017 and 0.0099). The offset-2 points with
b = 0.55 or 0.6 also converge every ill-conditioned run, but end best
response on grid34 and grid45 farther and beyond 10 tol, and at a = 0.51 on
the four fixtures too: under that rule x_k on a simplex model never
settles, and the final error after 4 000 steps grows with the late steps
(1.0-1.5e-5 on the fixtures).
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


def routing_case(name: str, net, rules=RULES, budget: int = 4000) -> Case:
    return Case(name, net, routing.optimal_edge_tolls(net), net.uniform_point(), rules, budget)


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
    braess = routing.braess_network()
    cases = [routing_case("two_link", routing.two_link_network()),
             routing_case("pigou", routing.pigou_network()),
             routing_case("braess", braess),
             nonatomic_case("braess_view", braess),
             routing_case("grid34", corpus.grid34()),
             routing_case("grid45", corpus.grid45()),
             routing_case("grid67", corpus.grid67(), rules=("equilibrium",), budget=300)]
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
    """The pairs (run, former run) where the run ends farther from p† than
    the same run under the former default, or raises where it does not."""
    return [(new, old) for new, old in zip(runs, former)
            if "error" not in old and ("error" in new or new["p_err"] > old["p_err"])]


def listed(pairs: list) -> list:
    return [{"model": new["model"], "rule": new["rule"], "p_err": new.get("p_err"),
             "former_p_err": old.get("p_err")} for new, old in pairs]


def tally(runs: list, former: list) -> tuple:
    """The summary fields this study and ``studies/step_study.py`` share, and
    whether the runs are sound: none raises, ends non-finite or fails
    verification, and every run that converged under ``former`` still
    converges (``lost_convergence``)."""
    ran = [r for r in runs if "error" not in r]
    lost = [new["model"] for new, old in zip(runs, former)
            if old.get("converged") and not new.get("converged")]
    fields = {"runs": len(runs), "raised": len(runs) - len(ran),
              "converged": sum(r["converged"] for r in ran),
              "outer_iters": sum(r["iterations"] for r in ran),
              "p_err_max": max((r["p_err"] for r in ran), default=None),
              "lost_convergence": lost}
    sound = (len(ran) == len(runs) and all(r["finite"] for r in ran)
             and all(r.get("verified", True) for r in ran) and not lost)
    return fields, sound


def summarize(schedule: StepSchedule, runs: list, former: list) -> dict:
    fields, sound = tally(runs, former)
    worse = farther(runs, former)
    # below 10 tol, where converged runs are verified, a farther run is no worse
    beyond = [(new, old) for new, old in worse
              if "error" not in new and not new["converged"] and new["p_err"] > 10 * new["tol"]]
    return dict(fields,
                overshoots=sum(r.get("overshoot", False) for r in runs),
                farther_than_former_default=listed(worse),
                farther_beyond_tolerance=listed(beyond),
                passed=(sound and schedule.assumption_report()["passed"]
                        and math.isclose(schedule.beta(0), BETA_FIRST, rel_tol=0.0, abs_tol=1e-15)
                        and not beyond))


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
