import errno
import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from incentive_dynamics import aggregative as agg
from incentive_dynamics import analysis, cli, dynamics, routing
from incentive_dynamics.errors import (ConvergenceError, EvaluationError,
                                       InvalidArgumentError, SpecError)


def write_config(path, data):
    path.write_text(json.dumps(data, indent=2))
    return str(path)


TWO_LINK_RUN = {
    "game": {"builtin": "two_link"},
    "run": {"max_iterations": 4000, "convergence_tol": 1e-4,
            "record_every": 10},
}


def test_list_fixtures(capsys):
    assert cli.main(["list-fixtures"]) == 0
    out = capsys.readouterr().out
    for name in ("two_link", "pigou", "braess"):
        assert name in out


def test_run_two_link_externality(tmp_path):
    cfg = dict(TWO_LINK_RUN, output_dir=str(tmp_path / "out"))
    code = cli.main(["run", "--config", write_config(tmp_path / "c.json", cfg)])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["converged"] and summary["record_every"] == 10
    np.testing.assert_allclose(summary["final_p"], [0.5, 0.5], atol=1e-3)
    assert (tmp_path / "out" / "trajectory.csv").exists()
    assert (tmp_path / "out" / "plot.py").exists()
    header = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[0]
    assert header == "k,residual,social_cost,x0,x1,p0,p1"


def test_run_gradient_baseline_stalls(tmp_path):
    cfg = {
        "game": {"builtin": "two_link"},
        "run": {"max_iterations": 500, "p0": [1.5, 0.0]},
        "incentive_update": "gradient_baseline",
        "output_dir": str(tmp_path / "out"),
    }
    code = cli.main(["run", "--config", write_config(tmp_path / "c.json", cfg)])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["final_social_cost"] == pytest.approx(1.0, abs=1e-3)
    assert abs(summary["final_p"][0] - summary["final_p"][1]) >= 1.0
    assert summary["record_every"] == 10  # every 10th iteration and the last


def test_gradient_baseline_pigou_uses_finite_differences(tmp_path):
    # the two-link Clarke gradient points the wrong way on Pigou's network:
    # at p = (0.3, 0) it is (0.3, -0.3), the true gradient is (-0.4, 0.4)
    cfg = {
        "game": {"builtin": "pigou"},
        "run": {"max_iterations": 300, "p0": [0.3, 0.0]},
        "incentive_update": "gradient_baseline",
        "output_dir": str(tmp_path / "out"),
    }
    assert cli.main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["final_social_cost"] == pytest.approx(0.75, abs=1e-6)


@pytest.mark.parametrize("key, value", [
    ("rule", {"variant": "gradient"}), ("x0", [0.5, 0.5]), ("record_every", 1),
    ("convergence_tol", 1e-6),
])
def test_gradient_baseline_rejects_the_run_keys_it_ignores(tmp_path, capsys, key, value):
    cfg = {"game": {"builtin": "two_link"},
           "run": {"max_iterations": 50, "p0": [1.5, 0.0], key: value},
           "incentive_update": "gradient_baseline", "output_dir": str(tmp_path / "out")}
    assert cli.main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: gradient_baseline ignores run key {key!r}\n"
    assert not (tmp_path / "out").exists()


MALFORMED_ANALYSES = [
    ({"op": "ode_probe"}, "ode_probe"),                        # no start_points
    ({"op": "uniqueness_probe"}, "uniqueness_probe"),          # no p
    ({"op": "schedule_assumptions", "k0": 2}, "schedule_assumptions"),  # unknown keyword
]


@pytest.mark.parametrize("item, op", MALFORMED_ANALYSES)
@pytest.mark.parametrize("command", ["run", "verify"])
def test_malformed_analysis_item_exits_1(tmp_path, capsys, command, item, op):
    cfg = dict(TWO_LINK_RUN, output_dir=str(tmp_path / "out"), analyses=[item])
    code = cli.main([command, "--config", write_config(tmp_path / "c.json", cfg)])
    assert code == 1
    assert f"error in analysis '{op}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "verify"])
def test_analyses_not_a_list_of_objects_exits_1(tmp_path, capsys, command):
    cfg = dict(TWO_LINK_RUN, output_dir=str(tmp_path / "out"), analyses=["ode_probe"])
    assert cli.main([command, "--config", write_config(tmp_path / "c.json", cfg)]) == 1
    assert '"analyses" must be a list of objects' in capsys.readouterr().err


def test_wrong_length_p0_exits_1(tmp_path, capsys):
    cfg = dict(TWO_LINK_RUN, output_dir=str(tmp_path / "out"))
    cfg["run"] = dict(cfg["run"], p0=[0.0])
    assert cli.main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 1
    assert "incentive vector" in capsys.readouterr().err


def test_missing_game_key_exits_1(tmp_path, capsys):
    code = cli.main(["run", "--config",
                     write_config(tmp_path / "c.json", {"run": {}})])
    assert code == 1
    assert "game" in capsys.readouterr().err


def test_malformed_json_exits_1_with_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"game": {,}')
    assert cli.main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_unknown_fixture_exits_1(tmp_path):
    cfg = {"game": {"builtin": "mystery"}}
    assert cli.main(["run", "--config",
                     write_config(tmp_path / "c.json", cfg)]) == 1


def test_nonconvergent_run_exits_2(tmp_path):
    cfg = dict(TWO_LINK_RUN)
    cfg["run"] = {"max_iterations": 5, "convergence_tol": 1e-12}
    cfg["output_dir"] = str(tmp_path / "out")
    assert cli.main(["run", "--config",
                     write_config(tmp_path / "c.json", cfg)]) == 2


def test_verify_aggregative_pd(tmp_path, capsys):
    cfg = {
        "game": {"aggregative": {"q": [1.0, 1.0], "A": [[0, 1], [1, 0]],
                                 "alpha": 0.5, "zeta": [1.0, 2.0]}},
        "analyses": [
            {"op": "global_conditions"},
            {"op": "verify_fixed_point_optimality"},
            {"op": "schedule_assumptions"},
        ],
    }
    assert cli.main(["verify", "--config",
                     write_config(tmp_path / "c.json", cfg)]) == 0
    out = capsys.readouterr().out
    assert out.count("[pass]") == 3


def test_verify_singular_m_names_invertibility(tmp_path, capsys):
    cfg = {
        "game": {"aggregative": {"q": [1.0, 1.0], "A": [[0, 1], [1, 0]],
                                 "alpha": 1.0, "zeta": [0.0, 0.0]}},
        "analyses": [{"op": "global_conditions"}],
    }
    assert cli.main(["verify", "--config",
                     write_config(tmp_path / "c.json", cfg)]) == 1
    assert "M invertibility" in capsys.readouterr().err


def test_verify_counterexample(tmp_path):
    cfg = {
        "game": {"builtin": "two_link"},
        "analyses": [{"op": "counterexample", "grid": 9}],
    }
    assert cli.main(["verify", "--config",
                     write_config(tmp_path / "c.json", cfg)]) == 0


def test_verify_failing_check_exits_2(tmp_path, capsys):
    cfg = {
        "game": {"aggregative": {"q": [1.0, 1.0],
                                 "A": [[0.0, 0.1], [1.0, 0.0]],
                                 "alpha": 1.0, "zeta": [-1.0, -0.5]}},
        "analyses": [{"op": "global_conditions"}],  # M1 is asymmetric
    }
    assert cli.main(["verify", "--config",
                     write_config(tmp_path / "c.json", cfg)]) == 2
    assert "global_conditions" in capsys.readouterr().err


def test_trajectory_reproducible(tmp_path):
    cfg = dict(TWO_LINK_RUN)
    path = write_config(tmp_path / "c.json", cfg)
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a == b


def test_config_roundtrip(tmp_path):
    cfg = dict(TWO_LINK_RUN, analyses=[{"op": "verify_fixed_point_optimality"}])
    path = tmp_path / "c.json"
    loaded = cli.load_config(write_config(path, cfg))
    reloaded = cli.load_config(write_config(tmp_path / "c2.json", loaded))
    assert loaded == reloaded


def test_jobs_directory_fanout(tmp_path):
    configs = tmp_path / "configs"
    configs.mkdir()
    for i in range(3):
        write_config(configs / f"exp{i}.json",
                     dict(TWO_LINK_RUN, output_dir=str(tmp_path / f"out{i}")))
    code = cli.main(["run", "--config", str(configs)])
    assert code == 0
    for i in range(3):
        assert (tmp_path / f"out{i}" / "summary.json").exists()


# gradient steps of size 1e6 overflow to inf within a few iterations
OVERFLOW_RUN = {
    "game": {"aggregative": {"q": [1, 1], "A": [[0, 0.2], [0.2, 0]], "alpha": 0.5,
                             "zeta": [0.3, -0.2]}},
    "run": {"rule": {"variant": "gradient", "eta": 1e6}},
}
OVERFLOW_MESSAGE = "error: run diverged: social gradient oracle returned non-finite values\n"


def test_overflowing_run_exits_2_with_one_line(tmp_path, capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["run", "--config", write_config(tmp_path / "c.json", OVERFLOW_RUN)])
    assert code == 2
    assert capsys.readouterr().err == OVERFLOW_MESSAGE


# M = I + 1.001 [[0, 1], [1, 0]] is invertible but not positive definite: the
# incentives of the default equilibrium rule grow until the iterates overflow
DIVERGING_RUN = {
    "game": {"aggregative": {"q": [1, 1], "A": [[0, 1.001], [1.001, 0]], "alpha": 1,
                             "zeta": [0.3, -0.2]}},
    "run": {"max_iterations": 20000, "convergence_tol": 1e-6, "record_every": 100},
}


def test_diverging_run_exits_2_with_one_line_and_no_warning(tmp_path, capsys):
    # every warning is an error here, as under ``python -W error``
    code = cli.main(["run", "--config", write_config(tmp_path / "c.json", DIVERGING_RUN),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == OVERFLOW_MESSAGE
    assert not (tmp_path / "out").exists()  # the run failed before it had a record


def output_tree(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_directory_run_writes_each_config_in_sorted_order(tmp_path, capsys):
    configs, out = tmp_path / "configs", tmp_path / "out"
    configs.mkdir()
    write_config(configs / "a_overflow.json", OVERFLOW_RUN)
    write_config(configs / "b_pass.json",
                 dict(TWO_LINK_RUN, analyses=[{"op": "verify_fixed_point_optimality"}]))
    write_config(configs / "c_invalid.json", {"game": {"builtin": "mystery"}})
    write_config(configs / "d_no_convergence.json",
                 dict(TWO_LINK_RUN, run={"max_iterations": 5, "convergence_tol": 1e-12}))
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["run", "--config", str(configs), "--out", str(out)])
    stdout, stderr = capsys.readouterr()
    tree = output_tree(out)
    assert code == 2
    assert stdout == f"wrote {out / 'b_pass'}/trajectory.csv, summary.json, analysis/\n"
    assert stderr.startswith(OVERFLOW_MESSAGE + "error: unknown fixture")
    assert stderr.endswith("run did not converge within the iteration budget\n")
    assert "b_pass/analysis/00_verify_fixed_point_optimality.json" in tree


def test_directory_run_into_one_stream_reads_as_its_configs_run_in_order(tmp_path):
    configs, out = tmp_path / "configs", tmp_path / "out"
    configs.mkdir()
    write_config(configs / "a_failed_check.json",
                 {"game": {"builtin": "pigou"}, "run": TWO_LINK_RUN["run"],
                  "analyses": [{"op": "nondegeneracy"}]})
    write_config(configs / "b_pass.json",
                 dict(TWO_LINK_RUN, analyses=[{"op": "verify_fixed_point_optimality"}]))
    write_config(configs / "c_invalid.json", {"game": {"builtin": "mystery"}})
    write_config(configs / "d_no_convergence.json",
                 dict(TWO_LINK_RUN, run={"max_iterations": 5, "convergence_tol": 1e-12}))
    write_config(configs / "e_pass.json", TWO_LINK_RUN)

    def one_stream(job, *args):
        stream = io.StringIO()
        with redirect_stdout(stream), redirect_stderr(stream):
            code = job(*args)
        return code, stream.getvalue()

    expected = [one_stream(cli.run_experiment, c, out / c.stem)
                for c in sorted(configs.glob("*.json"))]
    tree = output_tree(out)
    shutil.rmtree(out)
    code, text = one_stream(cli.main, ["run", "--config", str(configs), "--out", str(out)])
    assert code == max(code for code, _ in expected) == 2
    assert text == "".join(text for _, text in expected)
    assert output_tree(out) == tree
    assert [code for code, _ in expected] == [2, 0, 1, 2, 0]


def test_directory_run_reports_unreadable_configs_in_order(tmp_path, capsys):
    # without --out an unreadable config has no output directory to compare
    configs = tmp_path / "configs"
    configs.mkdir()
    (configs / "a_malformed.json").write_text("{")
    write_config(configs / "b_pass.json", TWO_LINK_RUN)
    write_config(configs / "c_no_game.json", {"run": {}})
    code = cli.main(["run", "--config", str(configs)])
    stdout, stderr = capsys.readouterr()
    tree = output_tree(configs)
    assert code == 1
    assert stderr.startswith(f"error: malformed JSON in {configs / 'a_malformed.json'} at line 1")
    assert stderr.endswith('\nerror: config is missing the required "game" key\n')
    assert stderr.count("\n") == 2
    assert stdout == f"wrote {configs / 'b_pass'}/trajectory.csv, summary.json\n"
    assert sorted(tree) == ["a_malformed.json", "b_pass.json", "b_pass/plot.py",
                            "b_pass/summary.json", "b_pass/trajectory.csv", "c_no_game.json"]


def test_directory_run_propagates_a_crash_and_stops_the_runs(tmp_path, monkeypatch):
    configs = tmp_path / "configs"
    configs.mkdir()
    for stem in ("a", "b", "c"):
        write_config(configs / f"{stem}.json", TWO_LINK_RUN)
    called = []

    def crash(config_path, out_dir=None):
        called.append(config_path.name)
        raise RuntimeError(f"crashed on {config_path.name}")

    monkeypatch.setattr(cli, "run_experiment", crash)
    with pytest.raises(RuntimeError, match="crashed on a.json"):
        cli.main(["run", "--config", str(configs), "--out", str(tmp_path / "out")])
    assert called == ["a.json"]  # b and c never run


@pytest.mark.parametrize("second_dir", ["shared", "configs/a"])
def test_directory_configs_writing_one_directory_exit_1(tmp_path, capsys, second_dir):
    configs = tmp_path / "configs"
    configs.mkdir()
    first = {} if second_dir == "configs/a" else {"output_dir": str(tmp_path / "shared")}
    write_config(configs / "a.json", dict(TWO_LINK_RUN, **first))
    write_config(configs / "b.json", dict(TWO_LINK_RUN, output_dir=str(tmp_path / second_dir)))
    assert cli.main(["run", "--config", str(configs)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: configs {configs / 'a.json'} and {configs / 'b.json'} both "
                   f"write to {(tmp_path / second_dir).resolve()}\n")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a.json", "b.json", "configs"]


def test_counterexample_analysis_writes_grid_csv(tmp_path):
    cfg = dict(TWO_LINK_RUN,
               output_dir=str(tmp_path / "out"),
               analyses=[{"op": "counterexample", "grid": 9}])
    assert cli.main(["run", "--config",
                     write_config(tmp_path / "c.json", cfg)]) == 0
    grid = tmp_path / "out" / "analysis" / "counterexample_grid.csv"
    assert grid.exists()
    assert grid.read_text().startswith("p1,p2,equilibrium_cost")


def test_analysis_convergence_failure_exits_2_with_gap(tmp_path, monkeypatch, capsys):
    # exit 1 means an invalid config; a solver that fails inside an analysis
    # is a convergence failure, exit 2, and its duality gap is reported
    def stalled(*args, **kwargs):
        raise ConvergenceError("flow program did not close the duality gap", gap=5.73)

    monkeypatch.setattr(routing, "wardrop_equilibrium", stalled)
    cfg = {"game": {"builtin": "braess"}, "analyses": [{"op": "nondegeneracy"}]}
    assert cli.main(["verify", "--config", write_config(tmp_path / "v.json", cfg)]) == 2
    assert "gap 5.73" in capsys.readouterr().err
    cfg["run"] = {"max_iterations": 20, "rule": {"variant": "best_response"}}
    cfg["output_dir"] = str(tmp_path / "out")
    assert cli.main(["run", "--config", write_config(tmp_path / "r.json", cfg)]) == 2
    assert "gap 5.73" in capsys.readouterr().err


def test_run_failed_nondegeneracy_exits_2(tmp_path, capsys):
    # at zero tolls Pigou's constant link ties for cheapest but carries no flow
    cfg = {"game": {"builtin": "pigou"}, "run": TWO_LINK_RUN["run"],
           "analyses": [{"op": "nondegeneracy"}], "output_dir": str(tmp_path / "out")}
    path = write_config(tmp_path / "c.json", cfg)
    assert cli.main(["run", "--config", path]) == 2
    assert "nondegeneracy" in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "analysis" / "00_nondegeneracy.json").read_text())
    assert report == {"verdict": "fail"}
    assert cli.main(["verify", "--config", path]) == 2


def test_run_default_start_is_the_models_uniform_point(tmp_path):
    aggregative = {"q": [1.0, 2.0, 1.5], "A": [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
                   "alpha": 0.2, "zeta": [1.0, -1.0, 0.5]}
    for game, x0 in (({"builtin": "braess"}, routing.braess_network().uniform_route_flow()),
                     ({"aggregative": aggregative}, np.zeros(3))):
        out = tmp_path / str(len(x0))
        cfg = {"game": game, "run": {"max_iterations": 3}, "output_dir": str(out)}
        cli.main(["run", "--config", write_config(tmp_path / "c.json", cfg)])
        first = (out / "trajectory.csv").read_text().splitlines()[1].split(",")
        assert [float(v) for v in first[3:]] == [*x0, *np.zeros(len(first) - 3 - len(x0))]


def c2_item(n, weight=None):
    rng = np.random.default_rng(8)
    item = {"op": "condition_c2", "p_samples": [rng.uniform(0.0, 1.0, n) for _ in range(6)]}
    return item if weight is None else dict(item, weight=weight)


def test_condition_c2_default_weight_aggregative():
    spec = agg.from_json({"q": [1.0, 2.0, 1.5], "A": [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
                          "alpha": 0.2, "zeta": [1.0, -1.0, 0.5]})
    report = cli.run_analysis(spec, c2_item(3))
    assert report["passed"]
    assert report == cli.run_analysis(spec, c2_item(3, np.linalg.inv(spec.M).T))
    assert not spec.certificate_weight().flags.writeable


def test_condition_c2_default_weight_two_link():
    net = routing.two_link_network()
    report = cli.run_analysis(net, c2_item(2))
    assert report["passed"]
    weight = routing.delta_matrix(net, routing.system_optimum(net)[1])
    assert report == cli.run_analysis(net, c2_item(2, weight))


@pytest.mark.parametrize("fixture", ["braess", "pigou"])
def test_condition_c2_default_weight_needs_increasing_latencies(tmp_path, capsys, fixture):
    # both fixtures have a constant-latency link, so the paper's weight is undefined
    n = routing.load_fixture(fixture).n_edges
    cfg = {"game": {"builtin": fixture},
           "analyses": [{"op": "condition_c2", "p_samples": [[0.1] * n]}]}
    assert cli.main(["verify", "--config", write_config(tmp_path / "c.json", cfg)]) == 1
    assert "nonpositive certificate denominator" in capsys.readouterr().err


def test_run_seed_key_exits_1(tmp_path, capsys):
    cfg = dict(TWO_LINK_RUN, output_dir=str(tmp_path / "out"))
    cfg["run"] = dict(cfg["run"], seed=3)
    assert cli.main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 1
    assert "'seed'" in capsys.readouterr().err


M2_GAME = {"aggregative": {"q": [1.0, 1.0], "A": [[0.0, -0.1], [-0.1, 0.0]], "alpha": 1.0,
                           "zeta": [-1.0, -0.5]}}


@pytest.mark.parametrize("command", ["run", "verify"])
def test_condition_checks_without_evidence_exit_1(tmp_path, capsys, command):
    p_dagger = agg.optimal_incentive(agg.from_json(M2_GAME["aggregative"])).tolist()
    items = [{"op": "condition_c1", "p_samples": []},
             {"op": "condition_c2", "p_samples": []},
             {"op": "condition_c2", "p_samples": [p_dagger, p_dagger]}]
    for idx, item in enumerate(items):
        out = tmp_path / f"out{idx}"
        cfg = {"game": M2_GAME, "analyses": [item], "output_dir": str(out)}
        assert cli.main([command, "--config", write_config(tmp_path / f"c{idx}.json", cfg)]) == 1
        assert f"error in analysis '{item['op']}'" in capsys.readouterr().err
        assert not list(out.glob("analysis/*.json"))


BRAESS_ROUTING = {
    "nodes": ["s", "a", "b", "t"],
    "edges": [{"tail": "s", "head": "a", "poly": [0.0, 1.0]},
              {"tail": "a", "head": "t", "poly": [1.0]},
              {"tail": "s", "head": "b", "poly": [1.0]},
              {"tail": "b", "head": "t", "poly": [0.0, 1.0]},
              {"tail": "a", "head": "b", "poly": [0.25, 0.01]}],
    "od": [{"o": "s", "d": "t", "demand": 1.0, "routes": [[0, 1], [2, 3], [0, 4, 3]]}],
    "relax_monotonicity": True,
}


def test_routing_block_runs_like_its_builtin(tmp_path):
    trees = []
    analyses = [{"op": "verify_fixed_point_optimality"}, {"op": "nondegeneracy"},
                {"op": "uniqueness_probe", "p": [0.1, 0.2, 0.0, 0.3, 0.1], "n_starts": 3}]
    for name, game in (("builtin", {"builtin": "braess"}),
                       ("routing", {"routing": BRAESS_ROUTING})):
        out = tmp_path / name
        cfg = dict(TWO_LINK_RUN, game=game, analyses=analyses, output_dir=str(out))
        assert cli.main(["run", "--config", write_config(tmp_path / f"{name}.json", cfg)]) == 0
        trees.append({str(p.relative_to(out)): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert len(trees[0]) == 6  # trajectory.csv, summary.json, plot.py and three analyses
    assert trees[0] == trees[1]


@pytest.mark.parametrize("game", [{"builtin": "two_link"}, M2_GAME])
def test_nonfinite_p0_exits_1_before_running(tmp_path, capsys, game):
    cfg = dict(TWO_LINK_RUN, game=game, output_dir=str(tmp_path / "out"))
    cfg["run"] = dict(cfg["run"], p0=[float("nan"), 0.0])
    assert cli.main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 1
    assert "incentive vector must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_incentive_update_exits_1_without_output(tmp_path, capsys):
    cfg = dict(TWO_LINK_RUN, incentive_update="bogus", output_dir=str(tmp_path / "out"))
    assert cli.main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 1
    assert "unknown incentive_update 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spoil, message", [
    (lambda block: block["edges"][0].update(poly=[float("nan"), 1.0]),
     "latency coefficients must be finite"),
    (lambda block: block["od"][0].update(demand=float("nan")),
     "OD demands must be finite and positive"),
    (lambda block: block["od"][0].update(demand=float("inf")),
     "OD demands must be finite and positive"),
], ids=["nan_latency", "nan_demand", "inf_demand"])
def test_verify_nonfinite_routing_block_exits_1_before_solving(tmp_path, capsys, monkeypatch,
                                                               spoil, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("a flow program ran on an invalid network")

    monkeypatch.setattr(routing, "_solve_flow_program", no_solve)
    block = json.loads(json.dumps(BRAESS_ROUTING))
    spoil(block)
    cfg = {"game": {"routing": block}, "analyses": [{"op": "verify_fixed_point_optimality"}]}
    assert cli.main(["verify", "--config", write_config(tmp_path / "c.json", cfg)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("od, message", [
    ({"demand": "1.0"}, "\"demand\" must be a number, got '1.0'"),
    ({"demand": True}, "\"demand\" must be a number, got True"),
    ({"routes": [[0, 1], 1]}, "\"routes\" must be a list of edge-index lists"),
    ({"routes": {"0": [0, 1]}}, "\"routes\" must be a list of edge-index lists"),
], ids=["string_demand", "bool_demand", "number_route", "object_routes"])
def test_verify_malformed_od_values_exit_1_naming_the_pair(tmp_path, capsys, od, message):
    block = json.loads(json.dumps(BRAESS_ROUTING))
    block["od"][0].update(od)
    cfg = {"game": {"routing": block}, "analyses": [{"op": "nondegeneracy"}]}
    assert cli.main(["verify", "--config", write_config(tmp_path / "c.json", cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: OD pair 0 (s -> t): ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("rule, message", [
    # steps of 1e308 overflow the projected step to -inf
    ({"variant": "gradient", "eta": 1e308},
     "simplex projection of a vector with non-finite entries"),
    # logit weights at temperature 1e-320 are NaN
    ({"variant": "gradient", "regularizer": "entropy", "eta": 1e-320},
     "the fixed-point residual at iteration 0 is nan"),
], ids=["projection", "residual"])
def test_nonfinite_route_flows_exit_2_with_one_line(tmp_path, capsys, rule, message):
    out = tmp_path / "out"
    cfg = {"game": {"builtin": "braess"}, "run": {"rule": rule}, "output_dir": str(out)}
    assert cli.main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 2
    assert capsys.readouterr().err == f"error: run diverged: {message}\n"
    assert not out.exists()


def test_verify_nonfinite_tolls_exits_1(tmp_path, capsys):
    cfg = {"game": {"builtin": "braess"},
           "analyses": [{"op": "nondegeneracy", "tolls": [float("nan"), 0, 0, 0, 0]}]}
    assert cli.main(["verify", "--config", write_config(tmp_path / "c.json", cfg)]) == 1
    assert "error in analysis 'nondegeneracy'" in capsys.readouterr().err


def _strict_json(path):
    def reject(constant):
        raise ValueError(f"{path.name} holds {constant}, which is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.parametrize("game, item, key, code", [
    # one player: the slow map is scalar and has no off-diagonal entry
    ({"aggregative": {"q": [1.0], "A": [[0.0]], "alpha": 0.5, "zeta": [-0.5]}},
     {"op": "condition_c1", "p_samples": [[0.1]]}, "offdiag_min", 0),
    ({"builtin": "two_link"},
     {"op": "condition_c2", "p_samples": [[0.1, 0.9], [0.7, 0.2]],
      "weight": [[float("nan"), 0.0], [0.0, float("nan")]]}, "max_decrement", 2),
])
def test_run_writes_strict_json(tmp_path, game, item, key, code):
    out = tmp_path / "out"
    cfg = dict(TWO_LINK_RUN, game=game, analyses=[item], output_dir=str(out))
    assert cli.main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == code
    assert _strict_json(out / "summary.json")["converged"]
    (path,) = out.glob("analysis/*.json")
    assert _strict_json(path)[key] is None


EMPTY_DIRECTORY, MISSING_FILE = "empty directory", "missing file"
ROUTING_VERIFY = dict(TWO_LINK_RUN, analyses=[{"op": "verify_fixed_point_optimality"}])
M2_WITHOUT_ZETA = {k: v for k, v in M2_GAME["aggregative"].items() if k != "zeta"}
QUADRATIC_TERM = {"kind": "quadratic", "zeta": 0.0}


def m2_with(**block):
    return {"game": {"aggregative": dict(M2_WITHOUT_ZETA, **block)}}


def braess_with(spoil):
    block = json.loads(json.dumps(BRAESS_ROUTING))
    spoil(block)
    return {"game": {"routing": block}}


def with_rule(game, **rule):
    return {"game": game, "run": {"rule": dict(variant="gradient", **rule)}}


def ode_probe(config, start_points=([0.0, 0.0],)):
    return {"game": {"builtin": "two_link"},
            "analyses": [{"op": "ode_probe", "start_points": list(start_points),
                          "config": config}]}


# analyses that take a tolerance, each with the values that must exit 1 on Pigou: at
# zero tolls its nondegeneracy check fails with the default tol
TOL_ANALYSES = [
    ({"op": "nondegeneracy"}, [float("nan"), 0, -1]),
    ({"op": "verify_fixed_point_optimality"}, [float("nan")]),
    ({"op": "condition_c1", "p_samples": [[0.0, 0.0]]}, [float("nan")]),
    ({"op": "condition_c2", "p_samples": [[0.0, 0.0]], "weight": [[1.0, 0.0], [0.0, 1.0]]},
     [float("nan")]),
    ({"op": "counterexample", "grid": 3}, [float("nan")]),
]

# the analyses' integer keys, each with values that must exit 1 naming the key
BRAESS_P = [0.0] * 5
INT_KEYS = [
    ({"op": "counterexample"}, "grid", "positive", [0, 2.5, float("nan")]),
    ({"op": "uniqueness_probe", "p": BRAESS_P}, "n_starts", "positive", [0, 4.5]),
    ({"op": "nondegeneracy"}, "n_starts", "positive", [2.5]),
    ({"op": "uniqueness_probe", "p": BRAESS_P}, "seed", "non-negative",
     [float("nan"), 1.5, -1]),
    ({"op": "nondegeneracy"}, "seed", "non-negative", [float("nan"), -1]),
]


def test_whole_float_integer_keys_give_the_reports_of_their_ints():
    net = routing.braess_network()
    for item, whole, exact in (
            ({"op": "counterexample"}, {"grid": 3.0}, {"grid": 3}),
            ({"op": "uniqueness_probe", "p": BRAESS_P}, {"n_starts": 4.0, "seed": 1e0},
             {"n_starts": 4, "seed": 1})):
        whole_report, exact_report = (
            json.dumps(cli.strict_json(cli.run_analysis(net, dict(item, **keys))))
            for keys in (whole, exact))
        assert whole_report == exact_report


def test_table_operator_cost_runs_like_its_quadratic_twin(tmp_path):
    # samples of y - zeta at -20 and 20 interpolate the quadratic term's gradient
    table = [{"kind": "table", "points": [-20.0, 20.0], "grads": [-20.0 - z, 20.0 - z]}
             for z in M2_GAME["aggregative"]["zeta"]]
    summaries = []
    for name, game in (("zeta", M2_GAME), ("table", m2_with(h=table)["game"])):
        cfg = dict(TWO_LINK_RUN, game=game, output_dir=str(tmp_path / name))
        assert cli.main(["run", "--config", write_config(tmp_path / f"{name}.json", cfg)]) == 0
        summaries.append(json.loads((tmp_path / name / "summary.json").read_text()))
    quadratic, tabulated = summaries
    assert tabulated["converged"] and tabulated["iterations"] == quadratic["iterations"]
    for key in ("final_x", "final_p"):
        np.testing.assert_allclose(tabulated[key], quadratic[key], rtol=0, atol=1e-10)


@pytest.mark.parametrize("command, config, message", [
    ("verify", dict(TWO_LINK_RUN, analyses=[{"op": "mystery"}]),
     "error in analysis 'mystery': unknown analysis op 'mystery'\n"),
    ("verify", dict(TWO_LINK_RUN, analyses=[{"op": "global_conditions"}]),
     "error in analysis 'global_conditions': global_conditions applies to aggregative games\n"),
    ("run", dict(TWO_LINK_RUN, analyses=[{"op": "local_conditions"}]),
     "error in analysis 'local_conditions': local_conditions applies to aggregative games\n"),
    ("verify", {"game": M2_GAME, "analyses": [{"op": "nondegeneracy"}]},
     "error in analysis 'nondegeneracy': nondegeneracy applies to routing games\n"),
    ("run", EMPTY_DIRECTORY, "error: no *.json configs in {path}\n"),
    ("verify", dict(ROUTING_VERIFY, analyses=[]),
     'error: verify needs at least one entry in "analyses"\n'),
    ("run", [ROUTING_VERIFY], "error: config must be a JSON object\n"),
    ("verify", dict(ROUTING_VERIFY, game=["two_link"]), 'error: "game" must be an object\n'),
    ("run", dict(ROUTING_VERIFY, game={"network": BRAESS_ROUTING}),
     'error: "game" needs one of "builtin", "aggregative", "routing"\n'),
    ("run", MISSING_FILE, "error: cannot read config {path}: "),
    ("verify", MISSING_FILE, "error: cannot read config {path}: "),
    ("run", dict(TWO_LINK_RUN, run=dict(TWO_LINK_RUN["run"], record_every=2.5)),
     "error: record_every must be a positive integer\n"),
    ("run", {"game": M2_GAME, "run": {"rule": {"variant": "gradient", "regularizer": "entropy"}}},
     "error: entropy regularizer needs a simplex strategy space\n"),
    ("run", {"game": {"builtin": "braess"},
             "run": {"rule": {"variant": "best_response", "regularizer": "entropy"}}},
     "error: the entropy regularizer needs the gradient rule, not best_response\n"),
    ("verify", {"game": {"builtin": "braess"},
                "analyses": [{"op": "uniqueness_probe", "p": [0] * 5, "n_starts": 1}]},
     "error in analysis 'uniqueness_probe': the uniqueness probe needs at least two starts\n"),
    ("verify", {"game": {"builtin": "braess"}, "analyses": [{"op": "nondegeneracy", "n_starts": 1}]},
     "error in analysis 'nondegeneracy': the nondegeneracy check needs at least two starts\n"),
    ("run", m2_with(A=[[0.0, -0.1]], zeta=[-1.0, -0.5]),
     "error: network matrix must be square and match q\n"),
    ("run", m2_with(zeta=[-1.0]), "error: zeta must have one entry per player\n"),
    ("run", m2_with(h=[QUADRATIC_TERM]), "error: need one operator-cost term per player\n"),
    # the gradient is 0 at the first sample and flat before it: minimisers fill (-inf, 0]
    ("run", m2_with(h=[{"kind": "table", "points": [0, 1], "grads": [0, 1]}, QUADRATIC_TERM]),
     "error: operator-cost term 0 has no unique minimiser: its gradient must change sign "
     "strictly inside [0, 1]\n"),
    ("run", m2_with(h=[{"kind": "table", "points": [-20, 0, 20], "grads": [-20, 20]},
                       QUADRATIC_TERM]),
     "error: table term needs matching 1-d points/grads\n"),
    ("run", {"game": M2_GAME, "run": {"x0": [0.0]}},
     "error: strategy profile has shape (1,), expected (2,)\n"),
    ("run", {"game": M2_GAME, "run": {"p0": None}}, "error: p0 must not be null\n"),
    ("run", braess_with(lambda block: block["edges"][0].update(tail="z")),
     "error: edge (z, a) references unknown nodes\n"),
    ("run", braess_with(lambda block: block.update(od=[])),
     "error: network needs at least one OD pair\n"),
    ("run", braess_with(lambda block: block["od"][0].update(routes=[])),
     "error: every OD pair needs at least one route\n"),
    ("run", braess_with(lambda block: block["od"][0].update(routes=[[0, 1], []])),
     "error: routes must contain at least one edge\n"),
    ("run", braess_with(lambda block: block["od"][0].update(routes=[[0, 1], [2, 7]])),
     "error: route references unknown edge index 7\n"),
    ("run", {"game": {"routing": BRAESS_ROUTING}, "run": {"x0": [0.5, 0.5]}},
     "error: route flow has wrong length\n"),
    ("run", dict(TWO_LINK_RUN, run=dict(TWO_LINK_RUN["run"], x0=None)),
     "error: x0 must not be null\n"),
    ("run", dict(TWO_LINK_RUN, run=dict(TWO_LINK_RUN["run"], convergence_tol=0)),
     "error: convergence_tol must be finite and positive\n"),
    ("run", with_rule({"builtin": "braess"}, eta=float("nan")),
     "error: inner step size eta must be finite and positive\n"),
    ("run", with_rule({"builtin": "braess"}, eta=float("inf")),
     "error: inner step size eta must be finite and positive\n"),
    ("run", with_rule(M2_GAME, eta=float("nan")), "error: inner step size eta must be finite and positive\n"),
    ("run", dict(TWO_LINK_RUN, run=dict(TWO_LINK_RUN["run"], convergence_tol=float("nan"))),
     "error: convergence_tol must be finite and positive\n"),
    ("verify", ode_probe({"horizon": float("inf")}),
     "error in analysis 'ode_probe': need 0 < step < horizon with finite horizon / step\n"),
    ("verify", ode_probe({"step": float("nan")}),
     "error in analysis 'ode_probe': need 0 < step < horizon with finite horizon / step\n"),
    ("verify", ode_probe({"tol": float("nan")}),
     "error in analysis 'ode_probe': tol must be finite and positive\n"),
    ("run", {"game": M2_GAME, "run": {"x0": [float("inf"), 0.0]}},
     "error: strategy profile must be finite\n"),
    *[("verify", {"game": {"builtin": "pigou"}, "analyses": [dict(item, tol=tol)]},
       f"error in analysis '{item['op']}': tol must be finite and positive\n")
      for item, tols in TOL_ANALYSES for tol in tols],
    *[("verify", {"game": {"builtin": "braess"}, "analyses": [dict(item, **{key: value})]},
       f"error in analysis '{item['op']}': {key} must be a {kind} integer\n")
      for item, key, kind, values in INT_KEYS for value in values],
    ("run", dict(TWO_LINK_RUN, analysis=[{"op": "condition_c2", "p_samples": [[0.1, 0.9]]}]),
     "error: unknown config key 'analysis'\n"),
    *[("verify", {"game": M2_GAME, "analyses": [
        {"op": "condition_c2", "p_samples": [[0.1, 0.9]], "weight": weight}]},
       f"error in analysis 'condition_c2': weight must be a 2 x 2 array, not shape {shape}\n")
      for weight, shape in (([[1.0, 0.0]], (1, 2)), (1.0, ()), ([1.0, 2.0], (2,)))],
    ("verify", {"game": {"builtin": "two_link", **M2_GAME},
                "analyses": [{"op": "verify_fixed_point_optimality"}]},
     "error: \"game\" holds more than one key: 'builtin', 'aggregative'\n"),
    ("run", braess_with(lambda block: block.update(relax_monotonicity="false")),
     "error: relax_monotonicity must be true or false\n"),
    ("run", braess_with(lambda block: block["od"][0].update(routes=[[0.0, 1], [2, 3]])),
     "error: route (0.0, 1): edge index 0.0 is not an integer\n"),
    # false and true would be edges 0 and 1, a path from s to t
    ("run", braess_with(lambda block: block["od"][0].update(routes=[[False, True], [2, 3]])),
     "error: route (False, True): edge index False is not an integer\n"),
    ("run", {"game": {"aggregative": {k: v for k, v in M2_GAME["aggregative"].items()
                                      if k != "q"}}},
     "error: missing key 'q'\n"),
    ("run", braess_with(lambda block: block.pop("od")), "error: missing key 'od'\n"),
    ("verify", {"game": M2_GAME, "analyses": [{"op": "condition_c1"}]},
     "error in analysis 'condition_c1': missing key 'p_samples'\n"),
    ("run", m2_with(zeta=[-1.0, -0.5], h=[QUADRATIC_TERM, QUADRATIC_TERM]),
     "error: give exactly one of zeta or h\n"),
    *[("run", dict(TWO_LINK_RUN, run={key: value}), f'error: "{key}" must be an object\n')
      for key in ("rule", "schedule") for value in (None, [0.6, 0.9])],
    *[("verify", ode_probe(value), 'error in analysis \'ode_probe\': "config" must be '
      'an object\n') for value in (None, 0.5)],
    ("verify", ode_probe({}, start_points=()),
     "error in analysis 'ode_probe': the ODE probe needs at least one start point\n"),
], ids=["unknown-op", "global-on-routing", "local-on-routing", "nondegeneracy-on-aggregative",
        "empty-directory", "verify-no-analyses", "config-not-object", "game-not-object",
        "game-unknown-kind", "run-unreadable", "verify-unreadable", "fractional-record-every",
        "entropy-on-atomic", "entropy-under-best-response", "uniqueness-one-start", "nondegeneracy-one-start",
        "aggregative-A-not-square", "aggregative-zeta-length", "aggregative-h-length",
        "aggregative-table-flat", "aggregative-table-shapes", "aggregative-x0-length",
        "aggregative-p0-null", "routing-unknown-node", "routing-no-od", "routing-od-no-routes",
        "routing-empty-route", "routing-unknown-edge", "routing-x0-length", "routing-x0-null",
        "zero-convergence-tol", "routing-eta-nan", "routing-eta-inf", "aggregative-eta-nan",
        "convergence-tol-nan", "ode-horizon-inf", "ode-step-nan", "ode-tol-nan",
        "aggregative-x0-inf",
        *[f"{item['op']}-tol-{tol}" for item, tols in TOL_ANALYSES for tol in tols],
        *[f"{item['op']}-{key}-{value}" for item, key, _, values in INT_KEYS
          for value in values],
        "misspelled-top-level-key", "c2-weight-row", "c2-weight-scalar", "c2-weight-vector",
        "game-two-kinds", "routing-relax-string",
        "routing-float-edge", "routing-bool-edges", "aggregative-missing-q",
        "routing-missing-od", "condition_c1-missing-p_samples", "aggregative-zeta-and-h",
        "rule-null", "rule-list", "schedule-null", "schedule-list", "ode-config-null",
        "ode-config-number", "ode-no-start-points"])
def test_invalid_input_exits_1_with_one_line(tmp_path, capsys, command, config, message):
    path = tmp_path / "c.json"
    if config == EMPTY_DIRECTORY:
        path = tmp_path / "configs"
        path.mkdir()
    elif config != MISSING_FILE:
        write_config(path, config)
    assert cli.main([command, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message.format(path=path))
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    if not message.startswith("error in analysis"):  # no run has a record: no output
        assert [p for p in tmp_path.iterdir() if p != path] == []


@pytest.mark.parametrize("argv, code, err", [
    (["run"], 1, "error: the following arguments are required: --config\n"),
    (["verify", "--config", "c.json", "--seed", "1"], 1,
     "error: unrecognized arguments: --seed 1\n"),
    (["simulate"], 1, "error: argument command: invalid choice: 'simulate' (choose from "
                      "'run', 'verify', 'list-fixtures')\n"),
    ([], 1, "error: the following arguments are required: command\n"),
    (["--help"], 0, ""), (["run", "--help"], 0, "")])
def test_a_usage_error_exits_1_with_one_line_and_help_exits_0(capsys, argv, code, err):
    # argparse's own usage block exits 2, the code of a failed check
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == code
    out = capsys.readouterr()
    assert out.err == err and out.out.startswith("usage: " if code == 0 else "")


@pytest.mark.parametrize("game, key", [(M2_GAME, "x0"), ({"builtin": "two_link"}, "p0")],
                         ids=["aggregative-x0", "routing-p0"])
def test_a_null_start_is_named(tmp_path, capsys, game, key):
    cfg = {"game": game, "run": {key: None}, "output_dir": str(tmp_path / "out")}
    assert cli.main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 1
    assert capsys.readouterr().err == f"error: {key} must not be null\n"
    assert not (tmp_path / "out").exists()


# where each job stage is entered: the config step, the coupled run, an analysis
STAGES = {"config": (cli, "build_game"), "run": (cli, "run_coupled"),
          "analysis": (analysis, "verify_fixed_point_optimality")}
# one package error of each kind, with its exit code and stderr line
POLICY = [
    (InvalidArgumentError("injected"), 1, "{where}: injected"),
    (SpecError("injected"), 1, "{where}: injected"),
    (ConvergenceError("injected", gap=0.5), 2, "{where}: injected (gap 0.5)"),
    (EvaluationError("injected"), 2, "{where}: {diverged}: injected"),
]


def inject(monkeypatch, stage, error):
    """Make ``stage`` raise ``error`` while the config ``a_fail.json`` runs."""
    current = {}
    load, (module, name) = cli.load_config, STAGES[stage]
    entered = getattr(module, name)

    def tracking_load(path):
        current["name"] = Path(path).name
        return load(path)

    def failing(*args, **kwargs):
        if current.get("name") == "a_fail.json":
            raise error
        return entered(*args, **kwargs)

    monkeypatch.setattr(cli, "load_config", tracking_load)
    monkeypatch.setattr(module, name, failing)


@pytest.mark.parametrize("error, code, line", POLICY,
                         ids=[type(e).__name__ for e, _, _ in POLICY])
@pytest.mark.parametrize("stage", list(STAGES))
def test_every_job_maps_a_package_error_to_one_line_and_its_exit_code(
        tmp_path, monkeypatch, capsys, stage, error, code, line):
    configs, out = tmp_path / "configs", tmp_path / "out"
    configs.mkdir()
    failing = write_config(configs / "a_fail.json", ROUTING_VERIFY)
    write_config(configs / "b_pass.json", ROUTING_VERIFY)
    inject(monkeypatch, stage, error)
    where = " in analysis 'verify_fixed_point_optimality'" if stage == "analysis" else ""
    expected = "error" + line.format(where=where, diverged="diverged" if where else
                                     "run diverged") + "\n"

    def job(*argv):  # an escaping exception would fail the test with its traceback
        assert cli.main(list(argv)) == code
        return capsys.readouterr()

    assert job("run", "--config", failing, "--out", str(tmp_path / "single")).err == expected
    if stage != "run":  # verify has no run step
        verify = job("verify", "--config", failing)
        assert verify.err == expected and verify.out == ""
    captured = job("run", "--config", str(configs), "--out", str(out))
    tree = output_tree(out)
    assert captured.err == expected
    assert captured.out == f"wrote {out / 'b_pass'}/trajectory.csv, summary.json, analysis/\n"
    assert "b_pass/analysis/00_verify_fixed_point_optimality.json" in tree
    assert all(not path.startswith("a_fail/analysis/") for path in tree)


def test_invalid_rule_met_during_a_run_spares_the_rest_of_the_directory(tmp_path, capsys):
    configs, out = tmp_path / "configs", tmp_path / "out"
    configs.mkdir()
    write_config(configs / "a_entropy.json",
                 {"game": M2_GAME, "run": {"rule": {"variant": "gradient", "regularizer": "entropy"}}})
    write_config(configs / "b_pass.json", TWO_LINK_RUN)
    assert cli.main(["run", "--config", str(configs), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: entropy regularizer needs a simplex strategy space\n"
    assert captured.out == f"wrote {out / 'b_pass'}/trajectory.csv, summary.json\n"
    assert (out / "b_pass" / "summary.json").exists()


@pytest.mark.parametrize("blocked", ["file", "file/sub"])
def test_an_output_that_cannot_be_written_spares_the_rest_of_the_directory(tmp_path, capsys,
                                                                            blocked):
    # it once died in out.mkdir with a traceback and stopped the remaining configs
    configs = tmp_path / "configs"
    configs.mkdir()
    (tmp_path / "file").write_text("")
    write_config(configs / "a_blocked.json", dict(TWO_LINK_RUN, output_dir=str(tmp_path / blocked)))
    write_config(configs / "b_pass.json", TWO_LINK_RUN)
    assert cli.main(["run", "--config", str(configs)]) == 1
    captured = capsys.readouterr()
    reason = "File exists" if blocked == "file" else "Not a directory"
    assert captured.err == f"error: cannot write {tmp_path / blocked}: {reason}\n"
    assert captured.out == f"wrote {configs / 'b_pass'}/trajectory.csv, summary.json\n"
    assert cli.main(["run", "--config", str(configs / "b_pass.json"),
                     "--out", str(tmp_path / blocked)]) == 1
    assert capsys.readouterr().err == captured.err


def test_a_failed_write_without_a_file_name_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    # a full disk fails in write or close, and its OSError names no file
    def full_disk(self, path):
        raise OSError(errno.ENOSPC, "No space left on device")
    monkeypatch.setattr(dynamics.TrajectoryRecord, "to_json_summary", full_disk)
    assert cli.main(["run", "--config", write_config(tmp_path / "c.json", TWO_LINK_RUN),
                     "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: cannot write output: No space left on device\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["run", "verify"])
def test_an_analysis_output_that_cannot_be_written_exits_1_with_one_line(tmp_path, capsys,
                                                                         command):
    out = tmp_path / "out"
    grid = tmp_path / "missing" / "grid.csv"
    cfg = dict(TWO_LINK_RUN, analyses=[{"op": "counterexample", "grid": 3, "grid_csv": str(grid)}])
    assert cli.main([command, "--config", write_config(tmp_path / "c.json", cfg),
                     *(["--out", str(out)] if command == "run" else [])]) == 1
    assert capsys.readouterr().err == (f"error in analysis 'counterexample': cannot write "
                                       f"{grid}: No such file or directory\n")
    # an analysis result whose file name is taken by a directory
    report = out / "analysis" / "00_verify_fixed_point_optimality.json"
    report.mkdir(parents=True)
    cfg = dict(TWO_LINK_RUN, analyses=[{"op": "verify_fixed_point_optimality"}])
    assert cli.main(["run", "--config", write_config(tmp_path / "c.json", cfg),
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {report}: Is a directory\n"


def test_overflowing_analysis_exits_2_with_one_line(tmp_path, capsys):
    # every warning is an error here, as under ``python -W error``
    cfg = {"game": DIVERGING_RUN["game"],
           "analyses": [{"op": "ode_probe", "start_points": [[1, 0]],
                         "config": {"step": 0.5, "horizon": 100000}}]}
    assert cli.main(["verify", "--config", write_config(tmp_path / "c.json", cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error in analysis 'ode_probe': diverged: social gradient oracle "
                            "returned non-finite values\n")
    assert captured.out == ""


def test_whole_float_run_keys_run_as_integers(tmp_path):
    cfg = dict(TWO_LINK_RUN, run=dict(TWO_LINK_RUN["run"], max_iterations=1e3))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write_config(tmp_path / "a.json", cfg),
                     "--out", str(out / "float")]) == 0
    cfg["run"]["max_iterations"] = 1000
    assert cli.main(["run", "--config", write_config(tmp_path / "b.json", cfg),
                     "--out", str(out / "int")]) == 0
    assert output_tree(out / "float") == output_tree(out / "int")


def braess_run(**run):
    return {"game": {"builtin": "braess"}, "run": run}


# a JSON true where a number is meant, and the one line that names it
BOOLEAN_FIELDS = {
    "max_iterations": (braess_run(max_iterations=True),
                       "error: max_iterations must be a positive integer"),
    "record_every": (braess_run(record_every=True),
                     "error: record_every must be a positive integer"),
    "convergence_tol": (braess_run(convergence_tol=True),
                        "error: convergence_tol must be a number, got True"),
    "eta": (with_rule({"builtin": "braess"}, eta=True),
            "error: inner step size eta must be a number, got True"),
    "offset": (braess_run(schedule={"offset": True}), "error: offset must be a positive integer"),
    **{key: (braess_run(schedule={key: True}), f"error: {key} must be a number, got True")
       for key in ("a", "b", "gamma0", "beta0")},
    "analysis-tol": ({"game": {"builtin": "braess"},
                      "analyses": [{"op": "verify_fixed_point_optimality", "tol": True}]},
                     "error in analysis 'verify_fixed_point_optimality': "
                     "tol must be a number, got True"),
    # two_link would run from (1, 0)
    **{key: ({"game": {"builtin": "two_link"}, "run": {key: [True, False]}},
             f"error: {key} must hold numbers, got True") for key in ("p0", "x0")},
    "q-list": ({"game": {"aggregative": dict(M2_GAME["aggregative"], q=[1.0, True])}},
               "error: q must hold numbers, got True"),
    **{key: ({"game": {"aggregative": {"q": 1.0, "A": [[0.0]], "alpha": 1.0, "zeta": 0.5,
                                       key: True}}},
             f"error: {key} must be a number, got True") for key in ("q", "alpha", "zeta")},
    "h-zeta": (m2_with(h=[{"kind": "quadratic", "zeta": True}, QUADRATIC_TERM]),
               "error: operator-cost zeta must be a number, got True"),
    "poly": (braess_with(lambda block: block["edges"][0].update(poly=[0.0, True])),
             "error: poly must hold numbers, got True"),
    **{f"analysis-{key}": ({"game": {"builtin": "two_link"},
                            "analyses": [dict(item, **{key: value})]},
                           f"error: {key} must hold numbers, got True")
       for key, item, value in (("tolls", {"op": "nondegeneracy"}, [True, False]),
                                ("p", {"op": "uniqueness_probe"}, [True, False]),
                                ("p_samples", {"op": "condition_c1"}, [[True, False]]),
                                ("start_points", {"op": "ode_probe"}, [[True, False]]))},
    **{f"ode_probe-{key}": (ode_probe({key: True}),
                            f"error in analysis 'ode_probe': {key} must be a number, got True")
       for key in ("step", "horizon")},
}


@pytest.mark.parametrize("field", list(BOOLEAN_FIELDS))
def test_a_json_boolean_where_a_number_is_meant_exits_1(tmp_path, capsys, field):
    # Python takes true as 1: a braess run of one iteration at tol 1 once "converged"
    config, line = BOOLEAN_FIELDS[field]
    argv = ["--config", write_config(tmp_path / "c.json", config)]
    argv = ["verify", *argv] if "analyses" in config else ["run", *argv, "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == line + "\n"


def test_far_away_quartic_target_verifies_and_its_run_diverges(tmp_path, capsys):
    # y† = zeta = 1e120 is finite, and so is p†; a run from zero overflows
    game = {"aggregative": {"q": [1.0, 1.0], "A": [[0.0, 0.0], [0.0, 0.0]], "alpha": 1.0,
                            "h": [{"kind": "quartic", "zeta": 1e120}, QUADRATIC_TERM]}}
    path = write_config(tmp_path / "c.json", {
        "game": game, "run": {"max_iterations": 200},
        "analyses": [{"op": "verify_fixed_point_optimality"}]})
    assert cli.main(["verify", "--config", path]) == 0
    assert capsys.readouterr() == ("[pass] verify_fixed_point_optimality\n", "")
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == (
        "", "error: run diverged: social gradient oracle returned non-finite values\n")
