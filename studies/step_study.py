"""Which gain G of the network gradient step G / ||J|| reaches the fixed point fastest without losing a run of the former step?

Under the quadratic regularizer the default gradient step on a network is
``NETWORK_STEP_GAIN / cost_jacobian_norm()``, where ``cost_jacobian_norm`` is
the spectral norm ||J|| of the route-cost Jacobian at the uniform flow. This
study sweeps G in {1, 3, 9, 27, 81, 243} against the former default step
0.9 / (max l'(total demand) E) (``corpus.former_route_step``).

Each point runs ``run_coupled`` under the gradient rule and the default
schedule from uniform flows, at zero tolls and at tolls drawn from
U(0, 0.5) with ``default_rng([SEED, i])`` for the i-th model, on:

- two_link, pigou and braess, and the corpus networks grid34, grid45 and
  mixed_degree (``tests/corpus.py``), with 4 000 steps and tol 1e-6;
- grid67, the 6x7 corpus grid, with 600 steps and tol 1e-6.

Each run is recorded as ``schedule_study.run_case`` records it: its outer
iterations, whether it converged, its final ``|p - p†|∞`` and, for a
converged run, whether ``verify_fixed_point_optimality`` passes at its final
p with 10 times the run's tolerance. A point passes when no run raises or
ends non-finite, every converged run passes verification, every run that
converged under the former step still converges, and no unconverged run ends
farther from p† than under the former step. The best point is the passing
one with the fewest outer iterations; ``dynamics.NETWORK_STEP_GAIN`` is its G.

Regenerate ``STEP_STUDY.json`` from the repository root with::

    OPENBLAS_NUM_THREADS=1 python3 studies/step_study.py

(one BLAS thread, as the benchmark pins, so that the file repeats bitwise).
It takes about a minute on one core of a 2-vCPU x86-64 VM.

Every point passed but G = 3. No run raised or ended non-finite. The
columns are: G ("former" is the former step); outer iterations summed over
the 14 runs; runs converged; the iterations of grid34, grid45 and
mixed_degree from zero tolls (4 000: not converged); grid67's final
``|p - p†|∞`` from zero tolls; whether the point passed:

======  ======  ====  ======  ======  =====  =======  ====
G        iters  conv  grid34  grid45  mixed   grid67  pass
======  ======  ====  ======  ======  =====  =======  ====
former  27 085     6   4 000   4 000  4 000     0.97
1       26 320     6   4 000   4 000  4 000     0.66  yes
3        8 485    12   1 846   1 005    484     0.42
9        5 259    12     719     643    392     0.28  yes
27       6 671    12     815   1 161    381    0.095  yes
81      14 208    12   2 145   2 821    778  2.9e-03  yes
243     25 712     8   4 000   4 000  1 863  9.9e-03  yes
======  ======  ====  ======  ======  =====  =======  ====

The default is G = 9: 5 259 outer iterations against 27 085 under the
former step (-81%), and every run but grid67's converges. Under the former
step grid34, grid45 and mixed_degree stop on their 4 000-step budget, 0.45,
0.89 and 0.03 from p†. G = 3 fails because both grid45 runs converge at tolls
2.4e-6 from p† whose equilibrium fails the optimality certificate at 1e-5.
Above G = 9 the runs take longer again, and at G = 243 grid34 and grid45
no longer converge in 4 000 steps.
grid67's 600 steps are too few for any point; its error falls monotonically
in G up to 81. ||J|| is 110 on grid34 against the former scale 866, 80
against 1 587 on grid45, 8.9 against 65 on mixed_degree and 5 589 against
14 581 on grid67 (``models`` in the JSON).
"""
import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # run from a checkout: the package and tests/corpus.py
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from incentive_dynamics import routing  # noqa: E402
from incentive_dynamics.dynamics import StepSchedule  # noqa: E402

from schedule_study import dumps, routing_case, run_case  # noqa: E402

GAINS = (1.0, 3.0, 9.0, 27.0, 81.0, 243.0)
SEED = 32


def study_cases(corpus) -> list:
    """Every model of the study at both starts, in the order the module
    docstring lists them; ``corpus`` is ``tests/corpus.py``."""
    models = [("two_link", routing.two_link_network(), 4000),
              ("pigou", routing.pigou_network(), 4000),
              ("braess", routing.braess_network(), 4000),
              ("grid34", corpus.grid34(), 4000),
              ("grid45", corpus.grid45(), 4000),
              ("mixed_degree", corpus.mixed_degree_network(), 4000),
              ("grid67", corpus.grid67(), 600)]
    cases = []
    for i, (name, net, budget) in enumerate(models):
        case = routing_case(name, net, rules=("gradient",), budget=budget)
        tolls = np.random.default_rng([SEED, i]).uniform(0.0, 0.5, net.n_edges)
        cases += [replace(case, name=f"{name}/zero_tolls"),
                  replace(case, name=f"{name}/random_tolls", p0=tolls)]
    return cases


def run_point(gain, cases: list, former_step) -> list:
    """Every case at the step ``gain / ||J||``, or at ``former_step(net)``
    where ``gain`` is None."""
    def step(net):
        return former_step(net) if gain is None else gain / net.cost_jacobian_norm()

    return [run_case(StepSchedule(), replace(case, eta=step(case.model)), "gradient")
            for case in cases]


def summarize(runs: list, former: list) -> dict:
    ran = [r for r in runs if "error" not in r]
    lost = [new["model"] for new, old in zip(runs, former)
            if old.get("converged") and not new.get("converged")]
    farther = [{"model": new["model"], "p_err": new["p_err"], "former_p_err": old["p_err"]}
               for new, old in zip(runs, former)
               if "error" not in new and not new["converged"] and "error" not in old
               and new["p_err"] > old["p_err"]]
    return {
        "runs": len(runs),
        "raised": len(runs) - len(ran),
        "converged": sum(r["converged"] for r in ran),
        "outer_iters": sum(r["iterations"] for r in ran),
        "p_err_max": max((r["p_err"] for r in ran), default=None),
        "lost_convergence": lost,
        "farther_than_former_step": farther,
        "passed": (len(ran) == len(runs) and all(r["finite"] for r in ran)
                   and all(r.get("verified", True) for r in ran) and not lost and not farther),
    }


def run_study(gains, cases: list, former_step) -> dict:
    """Every case at the former step and at each gain; ``best`` is the passing
    gain with the fewest outer iterations."""
    former = run_point(None, cases, former_step)
    points = [{"gain": None, "summary": summarize(former, former), "runs": former}]
    for gain in gains:
        runs = run_point(gain, cases, former_step)
        points.append({"gain": gain, "summary": summarize(runs, former), "runs": runs})
    passing = [p for p in points[1:] if p["summary"]["passed"]]
    best = min(passing, key=lambda p: p["summary"]["outer_iters"], default={"gain": None})
    networks = {case.name.split("/")[0]: case.model for case in cases}
    return {
        "about": __doc__.split("\n\n")[0],
        "command": "OPENBLAS_NUM_THREADS=1 python3 studies/step_study.py",
        "models": [{"name": name, "jacobian_norm": net.cost_jacobian_norm(),
                    "former_step": former_step(net)} for name, net in networks.items()],
        "best": best["gain"],
        "points": points,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "STEP_STUDY.json"))
    args = parser.parse_args(argv)
    import corpus  # tests/corpus.py
    study = run_study(GAINS, study_cases(corpus), corpus.former_route_step)
    Path(args.out).write_text(dumps(study))
    passed = [p["gain"] for p in study["points"][1:] if p["summary"]["passed"]]
    print(f"wrote {args.out}: gains {passed} of {list(GAINS)} passed; best {study['best']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
