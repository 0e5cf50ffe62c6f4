"""The network step study runs end to end on two fixtures, and its committed
results back the default gain."""
import json
from pathlib import Path

import corpus
import step_study
from incentive_dynamics import routing
from incentive_dynamics.routing import NETWORK_STEP_GAIN

ROOT = Path(__file__).resolve().parents[1]
SUMMARY_KEYS = {"runs", "raised", "converged", "outer_iters", "p_err_max", "lost_convergence",
                "farther_than_former_step", "passed"}


def test_step_study_runs_on_two_points():
    cases = [step_study.routing_case(name, net, rules=("gradient",), budget=400)
             for name, net in (("two_link", routing.two_link_network()),
                               ("pigou", routing.pigou_network()))]
    study = step_study.run_study([1.0, NETWORK_STEP_GAIN], cases, corpus.former_route_step)
    out = json.loads(step_study.dumps(study))
    assert set(out) == {"about", "command", "models", "best", "points"}
    assert [m["name"] for m in out["models"]] == ["two_link", "pigou"]
    assert [m["former_step"] for m in out["models"]] == [0.45, 0.45]
    assert [p["gain"] for p in out["points"]] == [None, 1.0, NETWORK_STEP_GAIN]
    for point in out["points"]:
        assert set(point["summary"]) == SUMMARY_KEYS
        assert point["summary"]["raised"] == 0 and point["summary"]["runs"] == 2
        corpus.check_runs(point)
    assert out["points"][0]["summary"]["passed"]


def test_committed_study_backs_the_default_gain():
    study = json.loads((ROOT / "STEP_STUDY.json").read_text())
    names = [m["name"] for m in study["models"]]
    assert names == ["two_link", "pigou", "braess", "grid34", "grid45", "mixed_degree", "grid67"]
    nets = [routing.two_link_network(), routing.pigou_network(), routing.braess_network(),
            corpus.grid34(), corpus.grid45(), corpus.mixed_degree_network(), corpus.grid67()]
    for model, net in zip(study["models"], nets):
        assert model["former_step"] == corpus.former_route_step(net)
        assert model["jacobian_norm"] == net.cost_jacobian_norm()
    former, *points = study["points"]
    assert former["gain"] is None
    assert [p["gain"] for p in points] == list(step_study.GAINS)
    default = next(p for p in points if p["gain"] == NETWORK_STEP_GAIN)
    assert default["summary"]["passed"]
    assert default["summary"]["outer_iters"] < former["summary"]["outer_iters"]
    # the default is the passing gain with the fewest outer iterations
    passing = [p for p in points if p["summary"]["passed"]]
    assert min(passing, key=lambda p: p["summary"]["outer_iters"]) is default
    assert study["best"] == NETWORK_STEP_GAIN
    for point in study["points"]:
        assert point["summary"]["raised"] == 0 and point["summary"]["runs"] == 14
        assert all(run["finite"] for run in point["runs"])
    for point in passing:
        corpus.check_runs(point)
