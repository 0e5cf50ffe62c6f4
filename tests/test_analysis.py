import csv
import dataclasses

import numpy as np
import pytest

from corpus import (M1_SPEC, M2_SPEC, aggregative_game, example_spec, grid34,
                    mixed_degree_network, two_link_game)
from incentive_dynamics import analysis, routing
from incentive_dynamics.aggregative import (QuadraticAggregativeSpec, QuadraticTerm,
                                            check_local_conditions,
                                            nash_closed_form,
                                            optimal_incentive)
from incentive_dynamics.analysis import (OdeProbeConfig, check_condition_C1,
                                         check_condition_C2,
                                         counterexample_grid_csv,
                                         equilibrium_cost_gradient,
                                         multistart_uniqueness_probe,
                                         ode_probe_slow_dynamics,
                                         reproduce_counterexample,
                                         run_gradient_baseline,
                                         two_link_clarke_gradient,
                                         two_link_equilibrium,
                                         two_link_equilibrium_cost,
                                         verify_fixed_point_optimality)
from incentive_dynamics.dynamics import StepSchedule, StrategyUpdateRule, TrajectoryRecord
from incentive_dynamics.errors import InvalidArgumentError
from incentive_dynamics.routing import (LatencyFunction, delta_matrix, optimal_edge_tolls,
                                        system_optimum, two_link_network)


EQUILIBRIUM = StrategyUpdateRule()


def phi(model, p):
    """The slow map e(x*(p)), with x*(p) the model's equilibrium-rule target."""
    return model.externality(model.target(None, p, EQUILIBRIUM))


# ---------------------------------------------------------------------------
# fixed-point / optimality verification
# ---------------------------------------------------------------------------

def test_verify_aggregative_fixed_point():
    spec = example_spec(zeta=(1.0, 2.0))
    report = verify_fixed_point_optimality(spec, optimal_incentive(spec),
                                           tol=1e-8)
    assert report["passed"]
    assert report["fixed_point_gap"] <= 1e-8


def test_verify_two_link_fixed_point():
    net = two_link_network()
    report = verify_fixed_point_optimality(net, np.array([0.5, 0.5]), tol=1e-6)
    assert report["passed"]
    x = net.target(None, np.array([0.5, 0.5]), EQUILIBRIUM)
    assert net.social(x) == pytest.approx(0.5, abs=1e-8)


def test_verify_game_fixed_points():
    # bare games reach the slow map through their equilibrium-rule target
    g = two_link_game()
    assert g.dim == 2
    np.testing.assert_allclose(phi(g, np.array([0.5, 0.5])), [0.5, 0.5], atol=1e-8)
    assert verify_fixed_point_optimality(g, np.array([0.5, 0.5]))["passed"]
    # x*(p) = -M^-1 p and e(x) = x - zeta - M x with M = Q + alpha A, so the
    # fixed point p = -M zeta induces the optimum x*(p) = zeta
    ga = aggregative_game([1.0, 1.0], [[0, 0.3], [0.3, 0]], 0.5, [1.0, 2.0])
    M = np.array([[1.0, 0.15], [0.15, 1.0]])
    p_opt = -M @ np.array([1.0, 2.0])
    assert ga.dim == 2
    assert verify_fixed_point_optimality(ga, p_opt)["passed"]
    assert not verify_fixed_point_optimality(ga, p_opt + 0.1)["passed"]


def test_verify_perturbed_incentive_fails_fixed_point_check():
    spec = example_spec(zeta=(1.0, 2.0))
    p = optimal_incentive(spec) + np.array([0.1, 0.0])
    report = verify_fixed_point_optimality(spec, p, tol=1e-6)
    assert not report["fixed_point_ok"]
    assert not report["passed"]
    net = two_link_network()
    report = verify_fixed_point_optimality(net, np.array([0.6, 0.5]), tol=1e-6)
    assert not report["fixed_point_ok"]


@pytest.mark.parametrize("make_net", [grid34, mixed_degree_network])
def test_verify_corpus_networks(make_net):
    net = make_net()
    p_dagger = optimal_edge_tolls(net)
    report = verify_fixed_point_optimality(net, p_dagger)
    assert report["passed"]
    assert report["distance_to_optimum"] <= 1e-5
    assert not verify_fixed_point_optimality(net, p_dagger + 0.1)["fixed_point_ok"]


def test_verify_judges_relative_to_the_scale_of_its_iterates():
    # y† = (1e13, -1) is solved to about 4e-5 in absolute terms, far below 1e-6 of its size
    spec = QuadraticAggregativeSpec(q=[1.0, 1.0], A=[[0.0, 0.5], [0.5, 0.0]], alpha=1.0,
                                    h=(QuadraticTerm(1e13), QuadraticTerm(-1.0)))
    report = verify_fixed_point_optimality(spec)
    assert report["passed"]
    assert report["optimality_residual"] > 1e-5 and report["distance_to_optimum"] > 1e-5
    report = verify_fixed_point_optimality(spec, 1.001 * optimal_incentive(spec))
    assert not report["fixed_point_ok"] and not report["passed"]


def test_verify_judges_the_optimality_residual_in_cost_units():
    # on a network the residual is a gap between route costs: grid34 with its
    # latencies (and so its tolls) in units 1 000 times smaller gets grid34's verdict
    net = grid34()
    costly = dataclasses.replace(net, edges=tuple(
        (tail, head, LatencyFunction(tuple(1e3 * c for c in lat.coeffs)))
        for tail, head, lat in net.edges))
    p_dagger = optimal_edge_tolls(net)
    for p in (p_dagger, p_dagger + 0.1):
        small = verify_fixed_point_optimality(net, p)
        large = verify_fixed_point_optimality(costly, 1e3 * p)
        assert large["optimality_residual"] > small["optimality_residual"]
        assert large["optimality_ok"] == small["optimality_ok"]
        assert large["passed"] == small["passed"] == (p is p_dagger)


def test_verify_defaults_to_the_models_optimal_incentive():
    spec = example_spec(zeta=(1.0, 2.0))
    assert verify_fixed_point_optimality(spec)["passed"]
    assert verify_fixed_point_optimality(routing.braess_network())["passed"]
    # a bare non-atomic game knows no optimal incentive, so p must be given
    with pytest.raises(InvalidArgumentError):
        verify_fixed_point_optimality(two_link_game())


def _count_calls(monkeypatch, name):
    calls = []
    solver = getattr(routing, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return solver(*args, **kwargs)

    monkeypatch.setattr(routing, name, counted)
    return calls


def test_verify_routing_solves_each_program_once(monkeypatch):
    net = routing.braess_network()
    wardrop = _count_calls(monkeypatch, "wardrop_equilibrium")
    optimum = _count_calls(monkeypatch, "system_optimum")
    for p in (optimal_edge_tolls(net), None):  # given p†, and the default
        wardrop.clear()
        optimum.clear()
        assert verify_fixed_point_optimality(net, p)["passed"]
        assert len(wardrop) == 1
        assert len(optimum) == 1


def test_cost_gradient_needs_no_system_optimum(monkeypatch):
    net = routing.braess_network()
    wardrop = _count_calls(monkeypatch, "wardrop_equilibrium")
    optimum = _count_calls(monkeypatch, "system_optimum")
    equilibrium_cost_gradient(net, np.full(net.n_edges, 0.1))
    assert len(optimum) == 0
    assert len(wardrop) == 2 * net.n_edges  # one central difference per edge


def test_slow_system_routing_holds_route_flows():
    net = routing.braess_network()
    p = np.array([0.1, 0.0, 0.2, 0.0, 0.3])
    x = net.target(None, p, EQUILIBRIUM)
    assert net.dim == net.n_edges and x.shape == (net.n_routes,)
    np.testing.assert_array_equal(x, routing.wardrop_equilibrium(net, p)[0])
    # the baseline records x*(p) and its social cost at its start
    record = run_gradient_baseline(net, p, max_iterations=1, gradient=lambda q: np.zeros(5))
    np.testing.assert_array_equal(record.final_x, x)
    assert record.social_costs[-1] == net.social(x)


# ---------------------------------------------------------------------------
# ODE probe
# ---------------------------------------------------------------------------

def test_ode_probe_stays_at_fixed_point():
    net = two_link_network()
    cfg = OdeProbeConfig(step=0.01, horizon=5.0)
    report = ode_probe_slow_dynamics(net, [np.array([0.5, 0.5])], cfg)
    assert report["distances"][0] <= 10 * cfg.step


def test_ode_probe_two_link_from_origin():
    net = two_link_network()
    cfg = OdeProbeConfig(step=0.01, horizon=20.0, tol=1e-3)
    report = ode_probe_slow_dynamics(net, [np.zeros(2)], cfg)
    assert report["distances"][0] <= 1e-3
    assert report["all_converged"]


def test_ode_probe_aggregative_random_starts():
    spec = example_spec(zeta=(1.0, 2.0))
    rng = np.random.default_rng(2)
    starts = [rng.normal(scale=2.0, size=2) for _ in range(20)]
    cfg = OdeProbeConfig(step=0.01, horizon=40.0, tol=1e-4)
    report = ode_probe_slow_dynamics(spec, starts, cfg)
    assert max(report["distances"]) <= 1e-4


def test_ode_probe_euler_step_sanity():
    spec = example_spec(zeta=(1.0, 2.0))
    start = [np.array([1.0, -1.0])]
    d1 = ode_probe_slow_dynamics(spec, start, OdeProbeConfig(0.02, 10.0))["distances"][0]
    d2 = ode_probe_slow_dynamics(spec, start, OdeProbeConfig(0.01, 10.0))["distances"][0]
    assert d2 <= 2 * d1 + 1e-12


def test_ode_probe_needs_a_start_point():
    # as C1, C2 and the uniqueness probe need a sample; no start once read as not converged
    with pytest.raises(InvalidArgumentError, match="the ODE probe needs at least one start point"):
        ode_probe_slow_dynamics(two_link_network(), [])


def test_ode_probe_config_validation():
    with pytest.raises(InvalidArgumentError):
        OdeProbeConfig(step=0.0, horizon=1.0)
    with pytest.raises(InvalidArgumentError):
        OdeProbeConfig(step=1.0, horizon=0.5)


@pytest.mark.parametrize("values", [
    {"horizon": np.inf}, {"horizon": np.nan}, {"step": np.nan}, {"step": np.inf},
    {"step": 5e-324},  # the step count horizon / step overflows
    {"tol": np.nan}, {"tol": np.inf}, {"tol": 0.0}, {"tol": -1.0},
])
def test_ode_probe_config_needs_finite_values(values):
    with pytest.raises(InvalidArgumentError):
        OdeProbeConfig(**values)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_analysis_tolerances_must_be_finite_and_positive(tol):
    spec = example_spec(zeta=(1.0, 2.0))
    checks = [
        lambda: verify_fixed_point_optimality(spec, tol=tol),
        lambda: check_condition_C1(spec, [np.zeros(2)], tol=tol),
        lambda: check_condition_C2(spec, np.eye(2), [np.zeros(2)], tol=tol),
        lambda: reproduce_counterexample(grid=3, tol=tol),
    ]
    for check in checks:
        with pytest.raises(InvalidArgumentError, match="tol must be finite and positive"):
            check()


BRAESS = routing.braess_network()


@pytest.mark.parametrize("check, message", [
    (lambda: reproduce_counterexample(grid=0), "grid must be a positive integer"),
    (lambda: reproduce_counterexample(grid=2.5), "grid must be a positive integer"),
    (lambda: multistart_uniqueness_probe(BRAESS, np.zeros(5), n_starts=4.5),
     "n_starts must be a positive integer"),
    (lambda: routing.nondegeneracy_check(BRAESS, np.zeros(5), n_starts=0),
     "n_starts must be a positive integer"),
    (lambda: multistart_uniqueness_probe(BRAESS, np.zeros(5), seed=np.nan),
     "seed must be a non-negative integer"),
    (lambda: multistart_uniqueness_probe(BRAESS, np.zeros(5), seed=1.5),
     "seed must be a non-negative integer"),
    (lambda: routing.nondegeneracy_check(BRAESS, np.zeros(5), seed=-1),
     "seed must be a non-negative integer"),
], ids=["grid-0", "grid-2.5", "probe-n_starts-4.5", "nondegeneracy-n_starts-0",
        "probe-seed-nan", "probe-seed-1.5", "nondegeneracy-seed--1"])
def test_analysis_integer_keys_take_whole_numbers(check, message):
    with pytest.raises(InvalidArgumentError, match=message):
        check()


# ---------------------------------------------------------------------------
# structural conditions
# ---------------------------------------------------------------------------

def test_condition_c1_holds_for_cooperative_instance():
    spec = QuadraticAggregativeSpec(**M1_SPEC)
    rng = np.random.default_rng(3)
    samples = [rng.normal(scale=1.0, size=2) for _ in range(10)]
    report = check_condition_C1(spec, samples)
    assert report["cooperative"]
    assert report["passed"]
    # analytic cross-partial: d e_i / d p_j = (-M^{-1})_{ij} for the
    # squared-distance operator cost; strictly positive for this instance
    Minv = np.linalg.inv(spec.M)
    assert np.all(-Minv[~np.eye(2, dtype=bool)] > 0)
    assert report["offdiag_min"] == pytest.approx(
        float(np.min(-Minv[~np.eye(2, dtype=bool)])), abs=1e-5)


def test_condition_c1_fails_without_coupling():
    spec = QuadraticAggregativeSpec(q=[1.0, 1.0], A=[[0.0, 0.0], [0.0, 0.0]],
                                    alpha=1.0, zeta=[-1.0, -0.5])
    samples = [np.zeros(2), np.array([0.5, -0.5])]
    report = check_condition_C1(spec, samples)
    assert not report["cooperative"] and not report["passed"]


def test_condition_c1_fails_for_competitive_instance():
    spec = QuadraticAggregativeSpec(**M2_SPEC)
    rng = np.random.default_rng(4)
    samples = [rng.normal(size=2) for _ in range(10)]
    report = check_condition_C1(spec, samples)
    assert not report["cooperative"] and not report["passed"]


def test_condition_c2_aggregative():
    spec = example_spec(zeta=(1.0, 2.0))
    rng = np.random.default_rng(5)
    samples = [optimal_incentive(spec) + rng.normal(scale=2.0, size=2)
               for _ in range(50)]
    W = np.linalg.inv(spec.M).T
    report = check_condition_C2(spec, W, samples)
    assert report["passed"] and report["max_decrement"] < 0


def test_condition_c2_routing_delta_certificate():
    net = two_link_network()
    p_dagger = optimal_edge_tolls(net)
    _, w_opt = system_optimum(net)
    Delta = delta_matrix(net, w_opt)
    rng = np.random.default_rng(6)
    radius = 0.1 * np.linalg.norm(p_dagger) + 0.01
    for _ in range(25):
        p = p_dagger + rng.uniform(-radius, radius, size=2)
        d = p - p_dagger
        V = float(d @ Delta @ d)
        drift = phi(net, p) - p
        dec = float((2 * Delta @ d) @ drift)
        assert dec < -2 * V + 1e-8


def test_condition_c1_nonpositive_orthant_variant():
    # y† = zeta > 0, so p† = -M y† < 0 and phi(0) = -zeta < 0: the mirror image
    spec = QuadraticAggregativeSpec(**dict(M1_SPEC, zeta=[1.0, 0.5]))
    report = check_condition_C1(spec, [np.zeros(2), np.array([0.5, -0.5])])
    assert report["cooperative"]
    assert report["negative_orthant_variant"] and not report["positive_orthant_variant"]
    assert report["passed"]
    local = check_local_conditions(spec)
    assert local["entries_nonnegative"] and local["inverse_offdiag_negative"]
    assert not local["y_dagger_nonpositive"] and not local["passed"]


def test_condition_c1_needs_a_sample():
    # one sample fails M2's cooperativity, so no sample must not pass it
    spec = QuadraticAggregativeSpec(**M2_SPEC)
    assert not check_condition_C1(spec, [np.zeros(2)])["passed"]
    with pytest.raises(InvalidArgumentError, match="at least one"):
        check_condition_C1(spec, [])


def test_condition_c1_scalar_map_is_vacuously_cooperative():
    spec = QuadraticAggregativeSpec(q=[1.0], A=[[0.0]], alpha=0.5, zeta=[-0.5])
    report = check_condition_C1(spec, [np.array([0.1])])
    assert report["offdiag_min"] is None
    assert report["cooperative"]


class NanSlowMap:
    """The least a model needs for the slow-map checks; its externality is NaN."""

    dim = 2

    def target(self, x, p, rule):
        return np.asarray(p, float)

    def externality(self, x):
        return np.full(2, np.nan)

    def social(self, x):
        return 0.0

    def known_optimum(self):
        return None


def test_condition_c1_nan_jacobian_fails():
    report = check_condition_C1(NanSlowMap(), [np.zeros(2)])
    assert np.isnan(report["offdiag_min"])
    assert not report["cooperative"] and not report["passed"]


def test_condition_c2_needs_a_sample_away_from_p_dagger():
    spec = example_spec(zeta=(1.0, 2.0))
    pd = optimal_incentive(spec)
    for samples in ([], [pd, pd + 1e-13]):
        with pytest.raises(InvalidArgumentError, match="away from p"):
            check_condition_C2(spec, spec.certificate_weight(), samples)


def test_condition_c2_needs_a_known_fixed_point():
    view = routing.nonatomic_view(two_link_network())
    with pytest.raises(InvalidArgumentError, match="needs a known fixed point"):
        check_condition_C2(view, np.eye(2), [[0.1, 0.9]])


@pytest.mark.parametrize("weight", [[[1.0, 0.0]], 1.0, [1.0, 2.0], np.eye(3)])
def test_condition_c2_weight_must_be_square_in_the_incentive_dimension(weight):
    spec = QuadraticAggregativeSpec(**M2_SPEC)
    with pytest.raises(InvalidArgumentError, match="weight must be a 2 x 2 array"):
        check_condition_C2(spec, weight, [np.zeros(2)])


def test_condition_c2_nan_weight_fails():
    net = two_link_network()
    nan_weight = [[np.nan, 0.0], [0.0, np.nan]]
    report = check_condition_C2(net, nan_weight, [[0.1, 0.9], [0.7, 0.2]])
    assert np.isnan(report["max_decrement"]) and not report["passed"]


# ---------------------------------------------------------------------------
# gradient baseline and two-link closed forms
# ---------------------------------------------------------------------------

def test_two_link_closed_forms():
    np.testing.assert_allclose(two_link_equilibrium(np.array([0.4, 0.0])),
                               [0.3, 0.7], atol=1e-12)
    assert two_link_equilibrium_cost(np.array([0.4, 0.0])) == pytest.approx(0.58)
    assert two_link_equilibrium_cost(np.array([1.5, 0.0])) == 1.0
    np.testing.assert_allclose(two_link_equilibrium(np.array([1.5, 0.0])),
                               [0.0, 1.0], atol=1e-12)


def test_clarke_gradient_cases():
    np.testing.assert_allclose(two_link_clarke_gradient(np.array([0.3, 0.1])),
                               [0.2, -0.2], atol=1e-12)
    np.testing.assert_allclose(two_link_clarke_gradient(np.array([3.0, 0.0])),
                               [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(two_link_clarke_gradient(np.array([0.7, 0.7])),
                               [0.0, 0.0], atol=1e-12)


def test_equilibrium_cost_gradient_matches_clarke():
    g_fd = equilibrium_cost_gradient(two_link_network(), np.array([0.3, 0.1]))
    np.testing.assert_allclose(g_fd, [0.2, -0.2], atol=1e-6)


def test_gradient_baseline_stalls_on_plateau():
    net = two_link_network()
    rec = run_gradient_baseline(net, np.array([1.5, 0.0]), max_iterations=100,
                                gradient=two_link_clarke_gradient)
    np.testing.assert_allclose(rec.final_p, [1.5, 0.0], atol=1e-12)
    assert rec.social_costs[-1] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("max_iterations", [0, 2.5, -1, float("nan")])
def test_gradient_baseline_validates_max_iterations(max_iterations):
    # 0 raised IndexError from an empty record, 2.5 a TypeError
    with pytest.raises(InvalidArgumentError, match="max_iterations must be a positive integer"):
        run_gradient_baseline(two_link_network(), [0.3, 0.0], max_iterations=max_iterations,
                              gradient=two_link_clarke_gradient)


def gradient_baseline_reference(obj, p0, max_iterations, gradient,
                                schedule=StepSchedule()) -> TrajectoryRecord:
    """The baseline with each recorded x*(p) solved cold, from the solver's
    own start: the reference for the warm-started baseline."""
    model = analysis.strategy_model(obj)
    p = np.array(p0, dtype=float)
    record = TrajectoryRecord()
    for k in range(max_iterations):
        g = np.asarray(gradient(p), float)
        if k % 10 == 0 or k == max_iterations - 1:
            x = model.target(None, p, EQUILIBRIUM)
            record.append(k, x, p, float(np.max(np.abs(g))), model.social(x))
        p = p - schedule.beta(k) * g
    return record


def test_warm_started_baseline_on_the_plateau_is_the_cold_one_bitwise():
    # on the plateau each warm start is already x*(p): the solve stops at its first gap test
    net = two_link_network()
    got = run_gradient_baseline(net, [1.5, 0.0], max_iterations=500,
                                gradient=two_link_clarke_gradient)
    want = gradient_baseline_reference(net, [1.5, 0.0], 500, two_link_clarke_gradient)
    assert got.ks == want.ks
    for key in ("xs", "ps", "residuals", "social_costs"):
        np.testing.assert_array_equal(getattr(got, key), getattr(want, key), strict=True)


def test_warm_started_baseline_follows_moving_tolls():
    net = two_link_network()
    got = run_gradient_baseline(net, [0.3, 0.0], max_iterations=200,
                                gradient=two_link_clarke_gradient)
    want = gradient_baseline_reference(net, [0.3, 0.0], 200, two_link_clarke_gradient)
    assert got.ks == want.ks
    np.testing.assert_array_equal(got.ps, want.ps, strict=True)
    np.testing.assert_array_equal(got.residuals, want.residuals, strict=True)
    assert np.max(np.abs(np.subtract(got.xs, want.xs))) <= 1e-9
    assert not np.array_equal(got.ps[0], got.ps[-1])  # the tolls did move


@pytest.mark.parametrize("model", [
    two_link_network(),
    dataclasses.replace(example_spec(zeta=(0.5, -0.5)).to_game(), equilibrium=None,
                        best_response=None),
], ids=["two_link", "atomic_no_closed_forms"])
def test_a_baseline_whose_tolls_stay_put_solves_once(monkeypatch, model):
    # a warm solve from its own output would return it unchanged
    solves, x_star = [], analysis._x_star

    def counted(*args):
        solves.append(args)
        return x_star(*args)

    monkeypatch.setattr(analysis, "_x_star", counted)
    zero = lambda q: np.zeros(model.dim)
    got = run_gradient_baseline(model, [0.3, 0.1], max_iterations=45, gradient=zero)
    monkeypatch.undo()
    assert len(solves) == 1 and got.ks == [0, 10, 20, 30, 40, 44]
    want = gradient_baseline_reference(model, [0.3, 0.1], 45, zero)
    assert got.ks == want.ks
    for key in ("xs", "ps", "residuals", "social_costs"):
        np.testing.assert_array_equal(getattr(got, key), getattr(want, key), strict=True)


def test_gradient_baseline_takes_a_whole_float_max_iterations():
    net = two_link_network()
    runs = [run_gradient_baseline(net, [0.3, 0.0], max_iterations=m,
                                  gradient=two_link_clarke_gradient) for m in (25, 25.0)]
    assert runs[0].iterations == runs[1].iterations == 25
    np.testing.assert_array_equal(runs[0].final_p, runs[1].final_p)


# ---------------------------------------------------------------------------
# counterexample reproduction
# ---------------------------------------------------------------------------

def test_reproduce_counterexample_small_grid(tmp_path):
    report = reproduce_counterexample(grid=11)
    assert report["grid_ok"]
    assert report["baseline_stuck"]
    assert report["externality_ok"]
    assert report["passed"]
    assert report["max_split_error"] <= 1e-6
    assert report["max_cost_error"] <= 1e-6
    path = tmp_path / "grid.csv"
    counterexample_grid_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "p1,p2,equilibrium_cost"
    assert len(lines) == 1 + 11 * 11


def counterexample_grid_reference(grid: int, tol: float = 1e-6) -> dict:
    """The grid check with every point solved cold, one at a time, against
    the closed forms called point by point: the reference for the grid of
    ``reproduce_counterexample``, with its edge flows under ``flows``."""
    net = two_link_network()
    values = np.linspace(-2.0, 2.0, grid)
    flows = np.empty((grid, grid, 2))
    costs = np.empty((grid, grid))
    split_err = cost_err = 0.0
    for i, p1 in enumerate(values):
        for j, p2 in enumerate(values):
            p = np.array([p1, p2])
            _, flows[i, j] = routing.wardrop_equilibrium(net, p)
            costs[i, j] = routing.total_latency_cost(net, flows[i, j])
            split_err = max(split_err, float(np.max(np.abs(flows[i, j] - two_link_equilibrium(p)))))
            cost_err = max(cost_err, abs(costs[i, j] - two_link_equilibrium_cost(p)))
    return {"grid_values": values, "grid_costs": costs, "flows": flows,
            "max_split_error": split_err, "max_cost_error": cost_err,
            "grid_ok": split_err <= tol and cost_err <= tol}


def _grid_flows(monkeypatch, grid):
    """``reproduce_counterexample(grid)``'s report and the edge flow of each
    grid point, from the first grid**2 solves of the Wardrop core (the grid
    comes first)."""
    solves = []
    solver = routing._wardrop

    def recorded(net, p, *args, **kwargs):
        x, w = solver(net, p, *args, **kwargs)
        solves.append((tuple(np.asarray(p).tolist()), w.copy()))
        return x, w

    monkeypatch.setattr(routing, "_wardrop", recorded)
    report = reproduce_counterexample(grid=grid)
    monkeypatch.undo()
    flows = dict(solves[:grid * grid])
    values = report["grid_values"].tolist()
    return report, np.array([[flows[p1, p2] for p2 in values] for p1 in values])


@pytest.mark.parametrize("grid", [21, 41])
def test_counterexample_grid_matches_cold_solves(monkeypatch, grid):
    report, flows = _grid_flows(monkeypatch, grid)
    want = counterexample_grid_reference(grid)
    np.testing.assert_array_equal(report["grid_values"], want["grid_values"], strict=True)
    assert np.max(np.abs(report["grid_costs"] - want["grid_costs"])) <= 1e-15
    assert report["max_split_error"] <= 1e-15
    assert report["max_cost_error"] <= 1e-15
    assert report["grid_ok"] == want["grid_ok"]
    baseline = gradient_baseline_reference(two_link_network(), [1.5, 0.0], 500,
                                           two_link_clarke_gradient)
    assert report["baseline_stuck"] == (
        np.array_equal(baseline.final_p, [1.5, 0.0]) and baseline.social_costs[-1] == 1.0)
    assert report["externality_ok"]
    assert report["passed"] == (want["grid_ok"] and report["baseline_stuck"])
    # where the split is 0 or 1 the cold solve lands exactly on it; so must the warm one
    p1, p2 = np.meshgrid(want["grid_values"], want["grid_values"], indexing="ij")
    split = np.array([[two_link_equilibrium([a, b])[0] for a, b in zip(r1, r2)]
                      for r1, r2 in zip(p1, p2)])
    plateau = (split == 0.0) | (split == 1.0)
    assert plateau.sum() > grid * grid // 2
    np.testing.assert_array_equal(flows[plateau], want["flows"][plateau], strict=True)
    np.testing.assert_array_equal(want["flows"][plateau][:, 0], split[plateau], strict=True)


def test_two_link_helpers_are_the_closed_forms_over_a_grid():
    values = np.concatenate([np.linspace(-2.0, 2.0, 41),
                             np.random.default_rng(3).uniform(-3.0, 3.0, 40)])
    p1, p2 = np.meshgrid(values, values, indexing="ij")
    split, cost = analysis._two_link_split(p1, p2), analysis._two_link_cost(p1, p2)
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            x = two_link_equilibrium([a, b])
            assert (split[i, j], 1.0 - split[i, j]) == (x[0], x[1])
            assert cost[i, j] == two_link_equilibrium_cost([a, b])
            # the formulas as scalar code
            assert x[0] == min(max((b - a + 1.0) / 2.0, 0.0), 1.0)
            assert cost[i, j] == (1.0 if abs(a - b) >= 1.0 else ((a - b) ** 2 + 1.0) / 2.0)


def test_counterexample_work_is_bounded(monkeypatch):
    """Grid 21 with its warm starts: at most 1 136 kernel passes and 259
    objective evaluations over 557 solves, where cold grid and baseline
    solves took 1 730 and 558. (1 086 and 259 today: the stuck baseline
    solves its x*(p) once, not 51 times.)"""
    counts = {"solves": 0, "edge_terms": 0, "objective": 0}
    program = routing._solve_flow_program

    def counted(name, f):
        def wrapped(w):
            counts[name] += 1
            return f(w)
        return wrapped

    def solve(net, edge_terms, objective, *args):
        counts["solves"] += 1
        return program(net, counted("edge_terms", edge_terms),
                       counted("objective", objective), *args)

    monkeypatch.setattr(routing, "_solve_flow_program", solve)
    assert reproduce_counterexample(grid=21)["passed"]
    assert counts["solves"] == 557
    assert counts["edge_terms"] <= 1136
    assert counts["objective"] <= 259


def test_counterexample_grid_csv_writes_the_csv_modules_bytes(tmp_path):
    report = reproduce_counterexample(grid=21)
    counterexample_grid_csv(report, tmp_path / "grid.csv")
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p1", "p2", "equilibrium_cost"])
        for i, p1 in enumerate(report["grid_values"]):
            for j, p2 in enumerate(report["grid_values"]):
                cost = report["grid_costs"][i, j]
                writer.writerow([f"{p1:.17g}", f"{p2:.17g}", f"{cost:.17g}"])
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# ---------------------------------------------------------------------------
# uniqueness probe
# ---------------------------------------------------------------------------

def test_multistart_probe_routing():
    net = routing.braess_network()
    report = multistart_uniqueness_probe(net, np.zeros(net.n_edges), n_starts=6)
    assert report["max_spread"] <= 1e-6


def test_multistart_probe_games():
    for game, p in ((two_link_game(), np.array([0.1, 0.3])),
                    (aggregative_game([1.0, 1.0], [[0, 0.3], [0.3, 0]], 0.5, [1.0, 2.0]),
                     np.array([0.3, -0.2]))):
        report = multistart_uniqueness_probe(game, p, n_starts=4)
        assert report["n_starts"] == 4
        assert report["max_spread"] <= 1e-6


def test_multistart_probe_aggregative_exact():
    spec = example_spec(zeta=(1.0, 2.0))
    report = multistart_uniqueness_probe(spec, np.array([0.3, -0.2]))
    assert report["max_spread"] == 0.0
    np.testing.assert_allclose(report["solutions"][0],
                               nash_closed_form(spec, np.array([0.3, -0.2])))
