"""Tests of the benchmark itself: run with ``python3 -m pytest bench -q``."""
from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from incentive_dynamics import cli, dynamics, routing  # noqa: E402
from incentive_dynamics.dynamics import RunConfig  # noqa: E402


def _coeffs(net):
    return [lat.coeffs for _, _, lat in net.edges]


def test_grid34_matches_the_roadmap():
    net = inputs.grid34()
    assert net.n_edges == 17 and net.n_routes == 16
    assert [len(od.routes) for od in net.od_pairs] == [10, 6]
    for od in net.od_pairs:
        assert list(od.routes) == routing.all_simple_paths(net.nodes, net.edges,
                                                           od.origin, od.destination)
    assert _coeffs(net) == _coeffs(inputs.grid34(0))


def test_generators_are_deterministic_for_a_seed():
    assert _coeffs(inputs.grid45(7)) == _coeffs(inputs.grid45(7))
    assert _coeffs(inputs.grid45(7)) != _coeffs(inputs.grid45(8))
    big = inputs.grid45(7)
    assert big.n_edges == 31 and big.n_routes == 55
    p = np.linspace(0.1, 1.0, 17)
    a = inputs.toll_cases(inputs.grid34(), big, p, 1, np.random.default_rng([3, 1]))
    b = inputs.toll_cases(inputs.grid34(), big, p, 1, np.random.default_rng([3, 1]))
    assert [c.label for c in a] == [c.label for c in b]
    for x, y in zip(a, b):
        assert np.array_equal(x.tolls, y.tolls)
        assert (x.x0 is None and y.x0 is None) or np.array_equal(x.x0, y.x0)
    for regime in inputs.REGIMES:
        s1 = inputs.aggregative_spec(50, regime, np.random.default_rng(5))
        s2 = inputs.aggregative_spec(50, regime, np.random.default_rng(5))
        assert np.array_equal(s1.A, s2.A) and np.array_equal(s1.q, s2.q)
    c1 = inputs.cli_configs(np.random.default_rng([4, 1]))
    c2 = inputs.cli_configs(np.random.default_rng([4, 1]))
    assert json.dumps(c1) == json.dumps(c2)


def test_externality_tolls_are_the_first_adaptation_step():
    net = inputs.grid34()
    x = net.uniform_route_flow()
    e = routing.edge_externality(net, net.incidence @ x)
    beta0 = dynamics.StepSchedule().beta(0)
    assert np.allclose(inputs.externality_tolls(net, x), beta0 * e)


def test_wardrop_check_rejects_flow_on_a_dearer_route():
    net = routing.braess_network()
    tolls = np.array([0.0, 0.0, 0.0, 0.0, 0.5])
    x, w = routing.wardrop_equilibrium(net, tolls)
    assert checks.check_wardrop(net, tolls, (x, w)).ok
    costs = routing.route_costs(net, w, tolls)
    cheap, dear = int(np.argmax(x)), int(np.argmax(costs))
    assert costs[dear] > costs[cheap] + 1e-3
    bad = x.copy()
    bad[cheap] -= 0.1
    bad[dear] += 0.1
    with pytest.raises(checks.WrongResult):
        checks.check_wardrop(net, tolls, (bad, net.incidence @ bad))
    with pytest.raises(checks.WrongResult):
        checks.check_wardrop(net, tolls, (x, w + 0.01))


def test_system_optimum_and_toll_checks_reject_corruption():
    net = routing.braess_network()
    x, w = routing.system_optimum(net)
    assert checks.check_system_optimum(net, (x, w)).ok
    dear = int(np.argmax(routing.route_costs(net, w, routing.edge_externality(net, w))))
    bad = x * 0.8
    bad[dear] += 0.2
    with pytest.raises(checks.WrongResult):
        checks.check_system_optimum(net, (bad, net.incidence @ bad))
    p = routing.optimal_edge_tolls(net)
    assert checks.check_tolls(p, p).ok
    with pytest.raises(checks.WrongResult):
        checks.check_tolls(p + 1e-3, p)


def _coupled(regime, budget):
    spec = inputs.aggregative_spec(5, regime, np.random.default_rng(0))
    p_star = workloads.agg.optimal_incentive(spec)
    cfg = RunConfig(max_iterations=budget, convergence_tol=workloads.TOL)
    return dynamics.run_coupled(spec.to_game(), np.zeros(5), np.zeros(5), cfg), p_star


def test_coupled_check_rejects_a_perturbed_incentive():
    rec, p_star = _coupled("well", workloads.WELL_BUDGET)
    verdict = checks.check_coupled(rec, np.zeros(5), p_star, workloads.WELL_BUDGET, True)
    assert verdict.ok and verdict.p_err <= checks.P_TOL
    rec.ps[-1] = rec.ps[-1] + 0.05
    with pytest.raises(checks.WrongResult):
        checks.check_coupled(rec, np.zeros(5), p_star, workloads.WELL_BUDGET, True)


def test_coupled_check_on_budget_runs():
    rec, p_star = _coupled("ill", 200)
    assert not rec.converged
    assert checks.check_coupled(rec, np.zeros(5), p_star, 200, False).ok
    # the same run counts as a failure when it was sized to converge
    assert not checks.check_coupled(rec, np.zeros(5), p_star, 200, True).ok
    rec.ps[-1] = rec.ps[-1] + 10.0
    with pytest.raises(checks.WrongResult):
        checks.check_coupled(rec, np.zeros(5), p_star, 200, False)


def test_cli_check_rejects_corrupted_outputs(tmp_path):
    configs = {"pigou": {"game": {"builtin": "pigou"}, "run": dict(inputs.CLI_RUN, record_every=1)}}
    (tmp_path / "cfg").mkdir()
    (tmp_path / "cfg" / "pigou.json").write_text(json.dumps(configs["pigou"]))
    out = tmp_path / "out"
    code, _ = workloads._cli(["run", "--config", str(tmp_path / "cfg"), "--out", str(out)])
    p_stars = {"pigou": routing.optimal_edge_tolls(routing.pigou_network())}
    verdict = checks.check_cli_run(code, out, configs, p_stars)
    assert verdict.ok and verdict.output_bytes > 0
    assert not checks.check_cli_run(2, out, configs, p_stars).ok
    summary = json.loads((out / "pigou" / "summary.json").read_text())
    summary["final_p"][0] += 0.1
    (out / "pigou" / "summary.json").write_text(json.dumps(summary))
    with pytest.raises(checks.WrongResult):
        checks.check_cli_run(code, out, configs, p_stars)
    summary["final_p"][0] -= 0.1
    (out / "pigou" / "summary.json").write_text(json.dumps(summary))
    csv = out / "pigou" / "trajectory.csv"
    csv.write_text("\n".join(csv.read_text().splitlines()[:-1]) + "\n")
    with pytest.raises(checks.WrongResult):
        checks.check_cli_run(code, out, configs, p_stars)


def test_verify_check_wants_a_pass_line_per_analysis():
    cfg = {"analyses": [{"op": "global_conditions"}, {"op": "verify_fixed_point_optimality"}]}
    good = "[pass] global_conditions\n[pass] verify_fixed_point_optimality\n"
    assert checks.check_cli_verify(0, good, cfg).ok
    with pytest.raises(checks.WrongResult):
        checks.check_cli_verify(0, "[pass] global_conditions\n", cfg)
    assert not checks.check_cli_verify(2, good, cfg).ok


def test_stall_is_a_failed_op_not_a_hang(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "WARDROP_BUDGET", 20)
    ops = workloads.route_grid(0, 1, tmp_path)[0]
    op = next(o for o in ops if o.label == "r0/grid34/ext_uniform/cold")
    t0 = time.perf_counter()
    (record,) = run.run_ops([[op]], checks)
    assert time.perf_counter() - t0 < 10.0
    assert record.ok or record.detail.startswith("ConvergenceError")
    if not record.ok:
        assert "gap" in record.detail


def test_latency_is_scaled_by_the_speed_probe():
    slow = run.OpRecord("op", 1.0, True, "", 0, None, 0, probe=2 * run.REFERENCE_S)
    assert run.reference_seconds(slow) == pytest.approx(0.5)
    assert 0.0 < run.speed_probe() < 1.0


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    value, pct = run.tail(list(range(40)))
    assert value == 29 and pct == 75.0
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def _run(*args) -> tuple:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], capture_output=True,
                          text=True, timeout=170, cwd=BENCH.parent)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_metric_of_the_spec(trace, section):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    code, out = _run("--workload", "cli_batch", "--seed", "3", "--seconds", "1",
                     "--trace", trace)
    assert code == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]}
    for m in spec[section]:
        assert f"  {m['name']} " in out


def test_layer_map_covers_every_per_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layer_map = json.loads((BENCH / "layer_map.json").read_text())["metrics"]
    assert list(layer_map) == [m["name"] for m in spec["per_layer"]]
    workloads_named = {w["name"] for w in spec["workloads"]}
    metrics_named = {m["name"] for m in spec["end_to_end"]}
    for entry in layer_map.values():
        for move in entry["should_move"]:
            assert move["workload"] in workloads_named and move["metric"] in metrics_named
        assert set(entry["predicted_unchanged_on"]) <= workloads_named


def test_tracer_patches_every_importer_and_closes_the_sum():
    original = dynamics.run_coupled
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.run_coupled is dynamics.run_coupled is not original
        rec, _ = _coupled("well", 300)
    finally:
        tracer.uninstall()
    assert cli.run_coupled is dynamics.run_coupled is original
    summary = tracer.summarize(0, len(tracer))
    spans = summary["spans"]
    assert spans["dynamics.run_coupled"]["calls"] == 1
    assert spans["dynamics.run_coupled"]["iterations"] == rec.iterations
    assert spans["dynamics.strategy_target"]["calls"] >= rec.iterations
    assert spans["aggregative.nash_closed_form"]["calls"] > 0
    self_sum = sum(v["self_s"] for v in spans.values())
    assert self_sum == pytest.approx(summary["top_level_s"], rel=1e-9)
    assert all(v["self_s"] >= -1e-9 for v in spans.values())
