"""The schedule study runs end to end on a small grid, and its committed
results back the default schedule."""
import importlib.util
import json
from dataclasses import asdict
from pathlib import Path

from incentive_dynamics import routing
from incentive_dynamics.dynamics import StepSchedule

from corpus import FORMER_SCHEDULE, check_runs, seeded_spec

ROOT = Path(__file__).resolve().parents[1]
SUMMARY_KEYS = {"runs", "raised", "converged", "outer_iters", "p_err_max", "overshoots",
                "farther_than_former_default", "lost_convergence", "farther_beyond_tolerance",
                "passed"}


def load_study():
    spec = importlib.util.spec_from_file_location("schedule_study",
                                                  ROOT / "studies" / "schedule_study.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_schedule_study_runs_on_a_two_point_grid():
    study = load_study()
    assert study.FORMER_DEFAULT == FORMER_SCHEDULE
    cases = [study.routing_case("two_link", routing.two_link_network()),
             study.aggregative_case("agg_n5", seeded_spec(5, 12), budget=3000)]
    out = json.loads(study.dumps(study.run_study([StepSchedule(), FORMER_SCHEDULE], cases)))
    assert set(out) == {"about", "command", "models", "former_default", "best", "points"}
    assert out["models"] == ["two_link", "agg_n5"]
    assert out["former_default"] == asdict(FORMER_SCHEDULE)
    for point in out["points"]:
        assert set(point) == {"schedule", "assumptions", "summary", "runs"}
        assert set(point["summary"]) == SUMMARY_KEYS
        assert point["summary"]["raised"] == 0 and point["summary"]["runs"] == 6
        check_runs(point)
    assert out["points"][1]["summary"]["farther_than_former_default"] == []


def test_committed_study_backs_the_default_schedule():
    study = json.loads((ROOT / "SCHEDULE_STUDY.json").read_text())
    assert "grid67" in study["models"]
    assert study["former_default"] == asdict(FORMER_SCHEDULE)
    points = {json.dumps(p["schedule"]): p for p in study["points"]}
    default = points[json.dumps(asdict(StepSchedule()))]
    former = points[json.dumps(asdict(FORMER_SCHEDULE))]
    # the default passes: it loses no converged run, and no unconverged run ends
    # farther from p† than under the former default and beyond 10 tol
    assert default["summary"]["passed"] and default["assumptions"]["passed"]
    assert default["summary"]["lost_convergence"] == []
    assert default["summary"]["farther_beyond_tolerance"] == []
    assert default["summary"]["outer_iters"] < former["summary"]["outer_iters"]
    # and it is the best point that passes
    passing = [p for p in study["points"] if p["summary"]["passed"]]
    assert min(passing, key=lambda p: p["summary"]["outer_iters"]) is default
    assert study["best"] == asdict(StepSchedule())
    for point in study["points"]:
        assert point["summary"]["raised"] == 0
        check_runs(point)


def test_default_schedule_bounds_how_far_a_run_moves_p_away():
    # from uniform flows and zero tolls the default moves p away from p† on
    # grid34 and grid45 only: best response peaks at 61 and 38 from starts of
    # 13.4 and 13.9 (47 and 24 under (0.8, 1, 8)), the gradient rule at 28 and
    # 29 (no overshoot under (0.8, 1, 8)); the study's gate reads final errors only
    study = json.loads((ROOT / "SCHEDULE_STUDY.json").read_text())
    default = next(p for p in study["points"] if p["schedule"] == asdict(StepSchedule()))
    assert default["summary"]["overshoots"] <= 4
    assert all(run["p_err_peak"] <= 5 * run["p_err_start"] for run in default["runs"])


def synthetic_run(p_err, converged=False, tol=1e-6, **extra):
    return dict(model="m", rule="equilibrium", budget=100, tol=tol, iterations=100,
                converged=converged, finite=True, p_err=p_err, p_err_start=1.0,
                p_err_peak=1.0, overshoot=False, **extra)


def test_the_gate_reads_convergence_and_ten_tolerances():
    study = load_study()
    former = [synthetic_run(1e-6), synthetic_run(1e-7, converged=True, verified=True)]

    def gate(first, second=synthetic_run(1e-7, converged=True, verified=True)):
        return study.summarize(StepSchedule(), [first, second], former)

    # farther than under the former default, but within 10 tol: listed, not failed
    summary = gate(synthetic_run(9e-6))
    assert summary["passed"] and summary["farther_beyond_tolerance"] == []
    assert [r["p_err"] for r in summary["farther_than_former_default"]] == [9e-6]
    # farther and beyond 10 tol fails
    summary = gate(synthetic_run(2e-5))
    assert not summary["passed"]
    assert [r["p_err"] for r in summary["farther_beyond_tolerance"]] == [2e-5]
    # a run that converged under the former default and does not now fails,
    # however close it ends
    summary = gate(synthetic_run(1e-7), synthetic_run(1e-8))
    assert not summary["passed"] and summary["lost_convergence"] == ["m"]
    # a run that raises fails
    summary = gate({"model": "m", "rule": "equilibrium", "error": "ValueError: x"})
    assert not summary["passed"] and summary["raised"] == 1
    assert summary["lost_convergence"] == summary["farther_beyond_tolerance"] == []
    # a converged run that fails verification fails
    assert not gate(synthetic_run(1e-7),
                    synthetic_run(1e-7, converged=True, verified=False))["passed"]
