"""The schedule study runs end to end on a small grid, and its committed
results back the default schedule."""
import importlib.util
import json
from dataclasses import asdict
from pathlib import Path

from incentive_dynamics import routing
from incentive_dynamics.dynamics import StepSchedule

from test_dynamics import seeded_spec
from test_games import FORMER_SCHEDULE

ROOT = Path(__file__).resolve().parents[1]
RUN_KEYS = {"model", "rule", "budget", "tol", "iterations", "converged", "finite", "p_err",
            "p_err_start", "p_err_peak", "overshoot"}
SUMMARY_KEYS = {"runs", "raised", "converged", "outer_iters", "p_err_max", "overshoots",
                "farther_than_former_default", "passed"}


def load_study():
    spec = importlib.util.spec_from_file_location("schedule_study",
                                                  ROOT / "studies" / "schedule_study.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_runs(point):
    for run in point["runs"]:
        assert RUN_KEYS <= set(run) <= RUN_KEYS | {"verified"}
        assert run["finite"] and run.get("verified", not run["converged"])


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
    # the default passes: no run ends farther from p† than under the former default
    assert default["summary"]["passed"] and default["assumptions"]["passed"]
    assert default["summary"]["farther_than_former_default"] == []
    assert default["summary"]["outer_iters"] < former["summary"]["outer_iters"]
    # and it is the best point that passes
    passing = [p for p in study["points"] if p["summary"]["passed"]]
    assert min(passing, key=lambda p: p["summary"]["outer_iters"]) is default
    assert study["best"] == asdict(StepSchedule())
    for point in study["points"]:
        assert point["summary"]["raised"] == 0
        check_runs(point)
