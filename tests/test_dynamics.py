import csv
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incentive_dynamics import dynamics, games, routing
from incentive_dynamics.aggregative import QuadraticAggregativeSpec, optimal_incentive
from incentive_dynamics.analysis import verify_fixed_point_optimality
from incentive_dynamics.dynamics import (CONSECUTIVE_HITS, RunConfig, StepSchedule,
                                         StrategyUpdateRule, TrajectoryRecord,
                                         _with_default_step, externality, run_coupled,
                                         strategy_target, strict_json)
from incentive_dynamics.errors import EvaluationError, InvalidArgumentError, SpecError
from incentive_dynamics.games import AtomicGame, NonAtomicGame, sampled_lipschitz
from incentive_dynamics.routing import (braess_network, nonatomic_view, pigou_network,
                                        two_link_network)

from corpus import (FORMER_SCHEDULE, RULES, SIMPLEX_RULES, aggregative_game,
                    assert_records_equal, counting, former_route_step, grid34, mixed_spec,
                    seeded_spec, two_link_game)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_schedule_defaults_valid():
    s = StepSchedule()
    assert s.gamma(0) == pytest.approx(2 ** -0.6)
    assert s.beta(0) == pytest.approx(2 ** -0.9)
    report = s.assumption_report()
    assert report["passed"]
    assert report["gamma_sum_diverges"] and report["beta_sum_diverges"]
    assert report["squares_summable"] and report["ratio_vanishes"]


@pytest.mark.parametrize("given", [{}, {"a": 0.55, "b": 0.7}, {"offset": 3},
                                   {"a": 0.51, "b": 1.0, "offset": 16}])
def test_default_scales_keep_the_former_first_steps(given):
    # bench/inputs.py's BETA0 copies beta(0) of the former default (0.6, 0.9, 1, 1, 2)
    s = StepSchedule(**given)
    assert abs(s.beta(0) - FORMER_SCHEDULE.beta(0)) <= 1e-15
    assert abs(s.gamma(0) - FORMER_SCHEDULE.gamma(0)) <= 1e-15
    # a scale that is given is kept
    kept = StepSchedule(**given, gamma0=0.5, beta0=0.25)
    assert (kept.gamma0, kept.beta0) == (0.5, 0.25)


def test_schedule_rejects_swapped_exponents():
    with pytest.raises(SpecError):
        StepSchedule(a=0.9, b=0.6)


def test_schedule_rejects_boundary_exponents():
    with pytest.raises(SpecError):
        StepSchedule(a=0.5, b=0.9)
    with pytest.raises(SpecError):
        StepSchedule(a=0.6, b=1.1)
    with pytest.raises(SpecError):
        StepSchedule(gamma0=0.0)
    with pytest.raises(SpecError):
        StepSchedule(offset=0)


def test_schedule_rejects_steps_outside_unit_interval():
    with pytest.raises(SpecError):
        StepSchedule(gamma0=3.0, offset=1)


@given(a=st.floats(0.51, 0.89), gap=st.floats(0.01, 0.4))
@settings(derandomize=True, max_examples=50, deadline=None)
def test_schedule_timescale_separation(a, gap):
    b = min(a + gap, 1.0)
    s = StepSchedule(a=a, b=b)
    ratios = [s.beta(k) / s.gamma(k) for k in range(0, 200, 10)]
    assert all(0 < s.gamma(k) < 1 and 0 < s.beta(k) < 1 for k in range(200))
    assert all(r2 <= r1 + 1e-15 for r1, r2 in zip(ratios, ratios[1:]))


def test_rule_validation():
    with pytest.raises(SpecError):
        StrategyUpdateRule(variant="mystery")
    with pytest.raises(SpecError):
        StrategyUpdateRule(eta=-1.0)
    with pytest.raises(SpecError):
        StrategyUpdateRule(regularizer="cubic")


@pytest.mark.parametrize("variant", ["equilibrium", "best_response"])
def test_entropy_regularizer_needs_the_gradient_rule(variant):
    # only the gradient rule reads the regularizer
    with pytest.raises(SpecError, match=f"needs the gradient rule, not {variant}"):
        StrategyUpdateRule(variant, regularizer="entropy")
    assert StrategyUpdateRule("gradient", regularizer="entropy").regularizer == "entropy"


@pytest.mark.parametrize("make", [lambda: RunConfig(max_iterations=2.5),
                                  lambda: RunConfig(record_every=0),
                                  lambda: StepSchedule(offset=-1)],
                         ids=["max_iterations", "record_every", "offset"])
def test_constructors_reject_a_bad_count_with_spec_error(make):
    # bad call arguments of solvers and probes raise InvalidArgumentError instead
    with pytest.raises(SpecError, match="must be a positive integer"):
        make()


def test_positive_int_takes_whole_numbers_of_any_type():
    for value, least, whole in ((3, 1, 3), (0, 0, 0), (1e3, 1, 1000), (np.int64(7), 1, 7)):
        got = dynamics._positive_int(value, "n", least)
        assert got == whole and type(got) is int
    # a bool is JSON's true or false, not a count
    for value, least in ((0, 1), (-2, 0), (2.5, 1), (np.nan, 1), (np.inf, 1), (False, 1),
                         (True, 1), (False, 0), ("3", 1), (None, 1)):
        with pytest.raises(InvalidArgumentError, match="n must be a"):
            dynamics._positive_int(value, "n", least)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_run_numbers_are_rejected(bad):
    with pytest.raises(SpecError, match="eta must be finite"):
        StrategyUpdateRule("gradient", eta=bad)
    with pytest.raises(SpecError, match="convergence_tol must be finite"):
        RunConfig(convergence_tol=bad)
    for name in ("gamma0", "beta0"):
        with pytest.raises(SpecError, match=f"{name} must be finite and positive"):
            StepSchedule(**{name: bad})


def test_check_positive_takes_one_number():
    for good in (1e-8, 3, np.float64(2.0), np.array(0.5)):
        dynamics._check_positive(good, "v")
    for bad in (0.0, -1, np.nan, np.inf, np.float64(-2.0)):
        with pytest.raises(InvalidArgumentError, match="^v must be finite and positive$"):
            dynamics._check_positive(bad, "v", InvalidArgumentError)
    with pytest.raises(SpecError, match="^v must be a number, got True$"):
        dynamics._check_positive(True, "v")
    # a list or an array where one number is expected; q and population masses
    # are checked entry by entry
    for bad in ([1.0], np.array([1.0]), np.array([1.0, 2.0]), "1.0"):
        with pytest.raises(TypeError):
            dynamics._check_positive(bad, "v")


@pytest.mark.parametrize("build", [
    lambda v: QuadraticAggregativeSpec(q=[1.0, 1.0], A=np.zeros((2, 2)), alpha=v,
                                       zeta=[0.0, 1.0]),
    lambda v: StepSchedule(gamma0=v),
    lambda v: games.certify_social_optimum(routing.two_link_network(), [0.5, 0.5], tol=v),
], ids=["alpha", "gamma0", "tol"])
@pytest.mark.parametrize("value", [np.array([1.0, 2.0]), np.array([1.0])])
def test_a_number_parameter_rejects_an_array(build, value):
    # a two-entry alpha would build a game with one alpha per player, and a
    # one-entry tol once gave a certificate whose verdict was an array
    with pytest.raises(TypeError):
        build(value)


# ---------------------------------------------------------------------------
# single steps: the strategy target, the externality, one coupled step
# ---------------------------------------------------------------------------

def one_step(game, x, p, rule, schedule=StepSchedule()):
    """The iterate after one coupled update."""
    rec = run_coupled(game, x, p, RunConfig(schedule=schedule, rule=rule, max_iterations=1))
    return rec.final_x, rec.final_p


def test_step_strategy_full_step_equilibrium_rule():
    g = aggregative_game([1.0, 1.0], [[0, 1], [1, 0]], 0.5, [0.0, 0.0])  # numeric solver path
    p = np.array([1.0, 1.0])
    x = np.array([5.0, -3.0])
    out = strategy_target(g, x, p, StrategyUpdateRule("equilibrium"))[0]
    np.testing.assert_allclose(out, [-2.0 / 3.0, -2.0 / 3.0], atol=1e-4)


def test_step_strategy_best_response_closed_form():
    g = aggregative_game([2.0, 1.0], [[0, 1], [1, 0]], 0.5, [0.0, 0.0])
    x = np.array([1.0, 2.0])
    p = np.array([0.3, -0.1])
    f = strategy_target(g, x, p, StrategyUpdateRule("best_response"))[0]
    expect = -(0.5 * np.array([2.0, 1.0]) + p) / np.array([2.0, 1.0])
    np.testing.assert_allclose(f, expect, atol=1e-8)


def test_step_strategy_fixed_point_unchanged():
    # equilibrium and gradient rules leave a fixed point alone; the
    # best-response rule is checked on an atomic game where the response is
    # unique (under tied costs the deterministic tie-break would move mass)
    g = two_link_game()
    x = np.array([0.5, 0.5])
    p = np.array([0.5, 0.5])
    for rule in (StrategyUpdateRule("equilibrium"),
                 StrategyUpdateRule("gradient", eta=0.5)):
        np.testing.assert_allclose(strategy_target(g, x, p, rule)[0], x, atol=1e-9)
        np.testing.assert_allclose(one_step(g, x, p, rule)[0], x, atol=1e-9)
    ga = aggregative_game([1.0, 1.0], [[0, 1], [1, 0]], 0.5, [0.0, 0.0])
    x_eq = np.array([-2.0 / 3.0, -2.0 / 3.0])
    rule = StrategyUpdateRule("best_response")
    np.testing.assert_allclose(strategy_target(ga, x_eq, np.array([1.0, 1.0]), rule)[0],
                               x_eq, atol=1e-9)


def test_step_incentive_values():
    g = two_link_game()
    x = np.array([0.5, 0.5])
    np.testing.assert_allclose(externality(g, x), [0.5, 0.5], atol=1e-14)
    # beta(0) = 0.1: the fixed point is untouched, and p = 0 moves to 0.1 e(x)
    sched = StepSchedule(gamma0=0.5, beta0=0.1, offset=1)
    rule = StrategyUpdateRule("equilibrium")
    np.testing.assert_allclose(one_step(g, x, np.array([0.5, 0.5]), rule, sched)[1],
                               [0.5, 0.5], atol=1e-14)
    np.testing.assert_allclose(one_step(g, x, np.zeros(2), rule, sched)[1],
                               [0.05, 0.05], atol=1e-14)


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------

def start_residual(game, x0, p0, rule):
    """The fixed-point residual at the start, as ``run_coupled`` records it."""
    return run_coupled(game, x0, p0, RunConfig(rule=rule, max_iterations=1)).residuals[0]


def test_fixed_point_residual_at_fixed_point():
    g = two_link_game()
    r = start_residual(g, np.array([0.5, 0.5]), np.array([0.5, 0.5]),
                       StrategyUpdateRule("equilibrium"))
    assert r <= 1e-9


def test_fixed_point_residual_off_fixed_point():
    # x*(0) = (0.5, 0.5) and e((1,0)) = (1, 0), so the residual is
    # ||(0.5,0.5)-(1,0)||_inf + ||(1,0)-(0,0)||_inf = 0.5 + 1.0
    g = two_link_game()
    r = start_residual(g, np.array([1.0, 0.0]), np.zeros(2),
                       StrategyUpdateRule("equilibrium"))
    assert r == pytest.approx(1.5, abs=1e-8)


def test_fixed_point_residual_resolves_the_default_gradient_step():
    # run_coupled resolves eta before its loop, to 0.9 over the cost Lipschitz bound
    g = aggregative_game([1.0, 2.0], [[0, 1], [1, 0]], 0.5, [0.3, -0.2])
    x0, p0 = np.array([0.4, -0.1]), np.array([0.2, 0.1])
    default = start_residual(g, x0, p0, StrategyUpdateRule("gradient"))
    explicit = StrategyUpdateRule("gradient", eta=g.default_eta("quadratic"))
    assert start_residual(g, x0, p0, explicit) == default
    assert start_residual(g, x0, p0, StrategyUpdateRule("gradient", eta=0.1)) != default


# ---------------------------------------------------------------------------
# trajectory record
# ---------------------------------------------------------------------------

def test_trajectory_record_strictly_increasing():
    rec = TrajectoryRecord()
    rec.append(0, [1.0], [0.0], 1.0, 2.0)
    with pytest.raises(InvalidArgumentError):
        rec.append(0, [1.0], [0.0], 1.0, 2.0)


def test_trajectory_csv_format(tmp_path):
    rec = TrajectoryRecord()
    rec.append(0, [1.0, 2.0], [0.5], 0.25, 3.0)
    rec.append(3, [1.5, 2.5], [0.75], 0.125, 2.0)
    path = tmp_path / "t.csv"
    rec.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,residual,social_cost,x0,x1,p0"
    assert lines[1].startswith("0,0.25,3,")


def csv_module_reference(rec, path):
    """trajectory.csv as the csv module writes it, one row at a time."""
    nx, np_ = rec.xs[0].size, rec.ps[0].size
    header = (["k", "residual", "social_cost"]
              + [f"x{i}" for i in range(nx)] + [f"p{i}" for i in range(np_)])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k, r, c, x, p in zip(rec.ks, rec.residuals, rec.social_costs, rec.xs, rec.ps):
            row = [str(k), f"{r:.17g}", f"{c:.17g}"]
            row += [f"{v:.17g}" for v in x] + [f"{v:.17g}" for v in p]
            writer.writerow(row)


def test_trajectory_csv_matches_csv_module_bytes(tmp_path):
    rng = np.random.default_rng(5)
    special = [-0.0, 1e-300, 1e300, np.nan, np.inf, -np.inf, 5e-324, 0.1, -1.0 / 3.0]
    rec = TrajectoryRecord()
    for k in range(40):
        x = rng.normal(scale=10.0 ** rng.integers(-20, 20), size=3)
        x[k % 3] = special[k % len(special)]
        p = rng.normal(size=2)
        rec.append(3 * k + 1, x, p, special[(k + 1) % len(special)], rng.normal())
    rec.to_csv(tmp_path / "fast.csv")
    csv_module_reference(rec, tmp_path / "ref.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_summary_json_writes_nonfinite_as_null(tmp_path):
    rec = TrajectoryRecord(converged=False, iterations=2)
    rec.append(0, [0.5, np.float64(0.5)], [0.0, 0.0], 1.0, 0.5)
    rec.append(2, [np.nan, 1.0], [np.inf, -np.inf], np.nan, np.inf)
    rec.to_json_summary(tmp_path / "summary.json")

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
    assert summary == {"final_x": [None, 1.0], "final_p": [None, None],
                       "final_residual": None, "final_social_cost": None,
                       "iterations": 2, "converged": False, "record_every": 1}
    rec.record_every = 10
    assert list(rec.summary())[-1] == "record_every" and rec.summary()["record_every"] == 10


def test_strict_json_keeps_finite_values():
    obj = {"a": np.arange(3.0), "b": (np.float64(0.1), np.int64(2), np.bool_(True)),
           "c": [np.array([1.0, np.nan]), -np.inf, "text", None]}
    assert strict_json(obj) == {"a": [0.0, 1.0, 2.0], "b": [0.1, 2, True],
                                "c": [[1.0, None], None, "text", None]}
    assert type(strict_json(np.float64(0.1))) is float


# ---------------------------------------------------------------------------
# coupled runs
# ---------------------------------------------------------------------------

def test_run_coupled_starts_at_fixed_point():
    g = two_link_game()
    cfg = RunConfig(max_iterations=50, convergence_tol=1e-6)
    rec = run_coupled(g, np.array([0.5, 0.5]), np.array([0.5, 0.5]), cfg)
    assert rec.converged
    assert rec.residuals[0] <= 1e-6


def test_run_coupled_two_link_converges():
    g = two_link_game()
    cfg = RunConfig(max_iterations=4000, convergence_tol=1e-4)
    rec = run_coupled(g, np.array([1.0, 0.0]), np.zeros(2), cfg)
    assert rec.converged
    np.testing.assert_allclose(rec.final_p, [0.5, 0.5], atol=1e-3)


def test_run_coupled_rule_independent_limit():
    g = aggregative_game([1.0, 1.0], [[0, 0.3], [0.3, 0]], 0.5, [1.0, 2.0])
    cfg_tol = 1e-4
    finals = []
    for variant in ("equilibrium", "best_response", "gradient"):
        cfg = RunConfig(max_iterations=8000, convergence_tol=cfg_tol,
                        rule=StrategyUpdateRule(variant), record_every=5)
        rec = run_coupled(g, np.zeros(2), np.zeros(2), cfg)
        assert rec.converged
        finals.append(rec.final_p)
    for p in finals[1:]:
        assert np.max(np.abs(p - finals[0])) <= 10 * cfg_tol


def test_run_coupled_deterministic():
    g = two_link_game()
    cfg = RunConfig(max_iterations=300, convergence_tol=1e-12)
    r1 = run_coupled(g, np.array([1.0, 0.0]), np.zeros(2), cfg)
    r2 = run_coupled(g, np.array([1.0, 0.0]), np.zeros(2), cfg)
    assert all((a == b).all() for a, b in zip(r1.xs, r2.xs))
    assert all((a == b).all() for a, b in zip(r1.ps, r2.ps))
    assert r1.residuals == r2.residuals


def test_run_coupled_residual_tail_settles():
    g = two_link_game()
    cfg = RunConfig(max_iterations=4000, convergence_tol=1e-4)
    rec = run_coupled(g, np.array([1.0, 0.0]), np.zeros(2), cfg)
    tail = rec.residuals[-max(1, len(rec.residuals) // 10):]
    assert max(tail) <= tail[0] + 1e-12


def test_run_coupled_stops_at_a_nonfinite_residual():
    # at temperature 1e-320 every logit weight is exp(-inf + inf) = NaN
    net = braess_network()
    rule = StrategyUpdateRule("gradient", eta=1e-320, regularizer="entropy")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EvaluationError, match="residual at iteration 0 is nan"):
            run_coupled(net, net.uniform_point(), np.zeros(5), RunConfig(rule=rule))


# ---------------------------------------------------------------------------
# the default gradient step
# ---------------------------------------------------------------------------

def sampled_bound(game) -> float:
    """The cost Lipschitz bound that a game without ``lipschitz_bound`` samples:
    32 pairs of points drawn with ``default_rng(0)``."""
    rng = np.random.default_rng(0)
    if isinstance(game, NonAtomicGame):
        return sampled_lipschitz(game.action_cost, lambda: game.random_start(rng), "action cost")
    return sampled_lipschitz(
        game.loss_grad, lambda: game.project(rng.standard_normal(game.n_players) * 2.0),
        "loss gradient")


def test_default_eta_from_the_cost_lipschitz_bound():
    assert _with_default_step(two_link_game(), StrategyUpdateRule("gradient", eta=0.3)).eta == 0.3
    # two_link_game costs are the identity map, so every sampled ratio is 1
    assert two_link_game().default_eta("quadratic") == pytest.approx(0.9)
    # sampled ratios never exceed the Lipschitz constant ||Q + alpha A||_2 = 1.5
    g = aggregative_game([1.0, 1.0], [[0, 1], [1, 0]], 0.5, [0.0, 0.0])
    assert 0.9 / 1.5 <= g.default_eta("quadratic") < 0.9
    assert dataclasses.replace(g, lipschitz_bound=1.5).default_eta("quadratic") == 0.9 / 1.5
    # 0.9 / L on every game, bit for bit, whatever the regularizer
    for game in (g, two_link_game(), nonatomic_view(braess_network())):
        assert game.default_eta("quadratic") == game.default_eta("entropy") == 0.9 / sampled_bound(game)


# ---------------------------------------------------------------------------
# the loop against its reference
# ---------------------------------------------------------------------------

def run_coupled_reference(game, x0, p0, config):
    """run_coupled as it was before it recorded its iterates uncopied and took
    one evaluation per iteration: each iteration asks the model's single-quantity
    methods (``target``, ``externality``, ``strategy_gap``, ``social``), every
    record goes through TrajectoryRecord.append, which copies x and p, and the
    steps come from the schedule's gamma and beta methods. The stop rule counts
    the residual of every iteration, and the run stops at a recorded one."""
    x, p = game.check_start(x0, p0)
    rule = config.rule
    if rule.variant == "gradient" and rule.eta is None:
        rule = dataclasses.replace(rule, eta=game.default_eta(rule.regularizer))
    record = TrajectoryRecord(record_every=config.record_every)
    sched = config.schedule
    hits = 0
    for k in range(config.max_iterations):
        f = game.target(x, p, rule)
        e = game.externality(x)
        residual = float(game.strategy_gap(f, x) + np.abs(e - p).max())
        hits = hits + 1 if residual <= config.convergence_tol else 0
        if k % config.record_every == 0:
            record.append(k, x, p, residual, game.social(x))
            if hits >= CONSECUTIVE_HITS:
                record.converged = True
                record.iterations = k
                return record
        gamma, beta = sched.gamma(k), sched.beta(k)
        x = (1.0 - gamma) * x + gamma * f
        p = (1.0 - beta) * p + beta * e
    f, e = game.target(x, p, rule), game.externality(x)
    residual = float(game.strategy_gap(f, x) + np.abs(e - p).max())
    record.append(config.max_iterations, x, p, residual, game.social(x))
    record.iterations = config.max_iterations
    record.converged = residual <= config.convergence_tol
    return record


# the benchmark's ill-conditioned regime: a slow layer about three times slower
ILL_Q = (1.0, 3.0)


def compare_with_reference(game, x0, p0, variant, budget, record_every=1, tol=1e-4,
                           regularizer="quadratic", schedule=StepSchedule(), eta=None):
    config = RunConfig(schedule=schedule,
                       rule=StrategyUpdateRule(variant, eta, regularizer),
                       max_iterations=budget, convergence_tol=tol, record_every=record_every)
    rec = run_coupled(game, x0, p0, config)
    assert_records_equal(rec, run_coupled_reference(game, x0, p0, config))
    return rec


@pytest.mark.parametrize("n, budget", [(5, 2000), (50, 300)])
@pytest.mark.parametrize("variant", RULES)
def test_run_coupled_matches_reference_aggregative(n, budget, variant):
    game = seeded_spec(n, 7 + n).to_game()
    for record_every in (1, 7):
        compare_with_reference(game, np.zeros(n), np.zeros(n), variant, budget, record_every)


def test_run_coupled_matches_reference_without_closed_forms():
    spec = seeded_spec(5, 3)
    game = dataclasses.replace(spec.to_game(), equilibrium=None, best_response=None)
    start = np.random.default_rng(3).normal(size=5)
    for variant in RULES:
        compare_with_reference(game, start, np.zeros(5), variant, 300)


def ill_conditioned_runs(n, variant):
    """3 000-step runs on a seeded ill-conditioned spec under the default and
    the former default, and the spec's p†."""
    spec = seeded_spec(n, 40 + n, ILL_Q)
    config = RunConfig(rule=StrategyUpdateRule(variant), max_iterations=3000,
                       convergence_tol=1e-4)
    runs = [run_coupled(spec.to_game(), np.zeros(n), np.zeros(n), config),
            run_coupled(spec.to_game(), np.zeros(n), np.zeros(n),
                        dataclasses.replace(config, schedule=FORMER_SCHEDULE))]
    return spec, runs, optimal_incentive(spec)


@pytest.mark.parametrize("n", [5, 50])
@pytest.mark.parametrize("variant", RULES)
def test_default_schedule_settles_an_ill_conditioned_spec(n, variant):
    spec, (rec, former), _ = ill_conditioned_runs(n, variant)
    assert rec.converged and rec.iterations < 3000
    assert verify_fixed_point_optimality(spec, rec.final_p, tol=1e-3)["passed"]
    assert not former.converged  # the former default runs out of budget


def test_run_coupled_matches_reference_on_a_finite_box():
    spec = seeded_spec(5, 4)
    game = dataclasses.replace(spec.to_game(), equilibrium=None, best_response=None,
                               lower=np.full(5, -0.3), upper=np.full(5, 0.4), optimum=None)
    for variant in RULES:
        compare_with_reference(game, np.zeros(5), np.zeros(5), variant, 400)


def test_run_coupled_matches_reference_nonatomic():
    for game in (two_link_game(), nonatomic_view(braess_network())):
        x0 = game.uniform_point()
        p0 = np.linspace(0.0, 0.3, game.dim)
        for variant, regularizer in [(v, "quadratic") for v in RULES] + [("gradient", "entropy")]:
            compare_with_reference(game, x0, p0, variant, 400, 3, regularizer=regularizer)


@pytest.mark.parametrize("net, eta, converges", [
    (braess_network(), None, True), (grid34(), former_route_step(grid34()), False),
    (grid34(), None, True), (two_link_network(), None, True), (pigou_network(), None, True)],
    ids=["braess", "grid34", "grid34-default-step", "two_link", "pigou"])
def test_run_coupled_matches_reference_routing(net, eta, converges):
    # 1 500 steps are too few for grid34 at the former default step
    x0 = net.uniform_route_flow()
    p0 = np.random.default_rng(2).uniform(0.0, 0.5, net.n_edges)
    rec = compare_with_reference(net, x0, p0, "gradient", 1500, 5, eta=eta)
    assert rec.converged == converges
    # a tolerance no 40-step run meets, so that the run exhausts its budget
    short = compare_with_reference(net, x0, p0, "gradient", 40, tol=1e-10)
    assert not short.converged and short.iterations == 40
    for variant, regularizer in SIMPLEX_RULES:
        # the equilibrium rule costs one Wardrop solve per iteration
        budget = 40 if variant == "equilibrium" and net.n_routes > 3 else 400
        for record_every in (1, 7):
            compare_with_reference(net, x0, p0, variant, budget, record_every,
                                   regularizer=regularizer)


def test_run_coupled_records_own_copies():
    """The record never aliases the caller's start or two of its own entries."""
    net = braess_network()
    for game, x0 in ((seeded_spec(5, 1).to_game(), np.zeros(5)), (net, net.uniform_route_flow())):
        p0 = np.zeros(game.dim)
        x0_before, p0_before = x0.copy(), p0.copy()
        rec = run_coupled(game, x0, p0, RunConfig(max_iterations=30, convergence_tol=1e-14))
        x0 += 1.0
        p0 += 1.0
        np.testing.assert_array_equal(rec.xs[0], x0_before)
        np.testing.assert_array_equal(rec.ps[0], p0_before)
        arrays = rec.xs + rec.ps
        assert len(arrays) == 62  # 30 recorded iterations and the final record, x and p each
        assert len({id(a) for a in arrays}) == len(arrays)


# ---------------------------------------------------------------------------
# one evaluation per iteration
# ---------------------------------------------------------------------------

def step_outcome(step, *args):
    """``step(*args)`` as bytes, or the type and message of what it raises."""
    try:
        f, e, d, social = step(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return (*((a.dtype, a.shape, a.tobytes()) for a in (f, e, d)),
            type(social), np.float64(social).tobytes())


@pytest.mark.parametrize("n", [1, 5, 200])
@pytest.mark.parametrize("terms", ["zeta", "mixed"])
@pytest.mark.parametrize("form", ["closed_forms", "no_closed_forms", "finite_box"])
@pytest.mark.parametrize("variant, regularizer", SIMPLEX_RULES)
def test_a_spec_games_step_is_the_atomic_games_byte_for_byte(n, terms, form, variant,
                                                              regularizer):
    make = seeded_spec if terms == "zeta" else mixed_spec
    spec = make(n, 40 + n, q_range=ILL_Q)
    game = spec.to_game()
    if form == "no_closed_forms":
        game = dataclasses.replace(game, equilibrium=None, best_response=None)
    elif form == "finite_box":  # closed forms kept, strategies clamped
        game = dataclasses.replace(game, lower=np.full(n, -0.3), upper=np.full(n, 0.4))
    rng = np.random.default_rng(n)
    rule = _with_default_step(game, StrategyUpdateRule(variant, regularizer=regularizer))
    x, p = game.random_start(rng), rng.uniform(-1.0, 1.0, n)
    nan_p, huge_x = p.copy(), x.copy()
    nan_p[-1] = np.nan
    huge_x[0] = 1.79e308  # q_0 > 1 makes q_0 x_0 overflow
    cases = {"start": (x, p), "wide": (rng.normal(scale=1e3, size=n), p),
             "nan_p": (x, nan_p), "huge_x": (huge_x, p)}
    outcomes = {}
    for case, (x, p) in cases.items():
        want = step_outcome(AtomicGame.step, game, x, p, rule)
        assert step_outcome(game.step, x, p, rule) == want, case
        # as a command-line run evaluates it, overflow silenced
        with np.errstate(over="ignore", invalid="ignore"):
            outcomes[case] = step_outcome(AtomicGame.step, game, x, p, rule)
            assert step_outcome(game.step, x, p, rule) == outcomes[case], case
    if regularizer == "entropy":
        assert outcomes["start"][0] is InvalidArgumentError
    elif form == "closed_forms":
        if variant == "equilibrium":
            assert outcomes["nan_p"] == (InvalidArgumentError, "incentive vector must be finite")
        # player 0's quartic term overflows the social gradient first
        what = "loss gradient" if terms == "zeta" else "social gradient"
        assert outcomes["huge_x"] == (EvaluationError, f"{what} oracle returned non-finite values")


def test_a_routing_iteration_makes_one_kernel_pass(monkeypatch):
    # one pass per iteration; target, externality and social asked apart make three
    net = grid34()
    calls = []
    monkeypatch.setattr(routing, "_column_horner", counting(routing._column_horner, calls))
    config = RunConfig(rule=StrategyUpdateRule("gradient", eta=0.05), max_iterations=50)
    rec = run_coupled(net, net.uniform_route_flow(), np.zeros(net.n_edges), config)
    assert rec.iterations == 50 and not rec.converged
    assert len(calls) == 51


def test_an_equilibrium_iteration_makes_its_own_pass_besides_its_solve(monkeypatch):
    # each iteration's pass at w = incidence @ x, and its Wardrop solve's own
    # passes, the first gap test included: 1 162 over the 31 evaluations
    net = grid34()
    config = RunConfig(max_iterations=30)
    x0, p0 = net.uniform_route_flow(), np.zeros(net.n_edges)
    calls = []
    monkeypatch.setattr(routing, "_column_horner", counting(routing._column_horner, calls))
    rec = run_coupled(net, x0, p0, config)
    monkeypatch.undo()
    assert rec.iterations == 30 and not rec.converged
    assert len(calls) == 1162
    assert_records_equal(rec, run_coupled_reference(net, x0, p0, config))


def test_an_atomic_gradient_iteration_makes_one_loss_gradient_call(monkeypatch):
    # one call per iteration; target and externality asked apart make two
    calls = []
    monkeypatch.setattr(QuadraticAggregativeSpec, "loss_grad",
                        counting(QuadraticAggregativeSpec.loss_grad, calls))
    game = seeded_spec(5, 9).to_game()
    config = RunConfig(rule=StrategyUpdateRule("gradient"), max_iterations=50,
                       convergence_tol=1e-14)
    rec = run_coupled(game, np.zeros(5), np.zeros(5), config)
    assert rec.iterations == 50 and not rec.converged
    assert len(calls) == 51


# ---------------------------------------------------------------------------
# the stop rule, a block at a time
# ---------------------------------------------------------------------------

BLOCK_RUNS = {
    "spec": (seeded_spec(5, 12).to_game(), "gradient"),
    "grid34": (grid34(), "equilibrium"),
    "nonatomic_braess": (nonatomic_view(braess_network()), "gradient"),
}


@pytest.mark.parametrize("name", BLOCK_RUNS)
@pytest.mark.parametrize("record_every", [1, 7])
def test_the_loop_evaluates_no_iteration_past_the_stop(monkeypatch, name, record_every):
    model, variant = BLOCK_RUNS[name]
    calls = []
    monkeypatch.setattr(dynamics, "strategy_target", counting(strategy_target, calls))
    x0, p0 = model.uniform_point(), np.zeros(model.dim)
    for budget in (3000, 37):  # converged, then budget-exhausted
        calls.clear()
        # 37 steps of the former default are too few to converge
        rec = compare_with_reference(model, x0, p0, variant, budget, record_every, tol=1e-2,
                                     schedule=FORMER_SCHEDULE)
        assert rec.converged == (budget == 3000)
        assert len(calls) == rec.iterations + 1


THINNED_RUNS = {
    "ill_spec": seeded_spec(5, 45, ILL_Q).to_game(),
    "braess": braess_network(),
    "grid34": grid34(),
}


@pytest.mark.parametrize("name", THINNED_RUNS)
@pytest.mark.parametrize("record_every", [7, 10])
def test_a_thinned_run_is_the_unthinned_run_read_at_fewer_rows(name, record_every):
    model = THINNED_RUNS[name]
    x0, p0 = model.uniform_point(), np.zeros(model.dim)
    for variant in RULES:  # best response on a network runs out of budget
        config = RunConfig(rule=StrategyUpdateRule(variant), max_iterations=1000,
                           convergence_tol=1e-4)
        every = run_coupled(model, x0, p0, config)
        thinned = run_coupled(model, x0, p0,
                              dataclasses.replace(config, record_every=record_every))
        assert thinned.converged == every.converged
        assert abs(thinned.iterations - every.iterations) < record_every
        assert thinned.summary()["record_every"] == record_every
        # every row up to the thinned stop, from a run that no residual stops
        rows = run_coupled(model, x0, p0, dataclasses.replace(
            config, max_iterations=thinned.iterations, convergence_tol=5e-324))
        assert rows.iterations == thinned.iterations
        for i, k in enumerate(thinned.ks):
            assert rows.ks[k] == k
            assert thinned.residuals[i] == rows.residuals[k]
            assert thinned.social_costs[i] == rows.social_costs[k]
            np.testing.assert_array_equal(thinned.xs[i], rows.xs[k], strict=True)
            np.testing.assert_array_equal(thinned.ps[i], rows.ps[k], strict=True)


class StepFailed(Exception):
    pass


class ScriptedModel:
    """A one-dimensional model whose strategy gap is 1, or NaN at the
    iterations ``nan_at``, and whose step raises ``StepFailed`` at ``fail_at``."""

    dim = 1

    def __init__(self, nan_at=(), fail_at=None):
        self.nan_at, self.fail_at, self.k = nan_at, fail_at, 0

    def check_start(self, x0, p0):
        return np.asarray(x0, float), np.asarray(p0, float)

    def step(self, x, p, rule):
        k, self.k = self.k, self.k + 1
        if k == self.fail_at:
            raise StepFailed(f"step {k}")
        return x, p, np.array([np.nan if k in self.nan_at else 1.0]), 0.0


@pytest.mark.parametrize("record_every", [1, 2])
def test_a_nan_residual_is_reported_before_a_later_failure_of_its_block(record_every):
    config = RunConfig(max_iterations=100, record_every=record_every)
    # a NaN gap at recorded iteration 4, then a failing step in the same block
    model = ScriptedModel(nan_at=(4,), fail_at=7)
    with pytest.raises(EvaluationError, match="^the fixed-point residual at iteration 4 is nan$"):
        run_coupled(model, np.zeros(1), np.zeros(1), config)
    # the failure alone propagates unchanged
    with pytest.raises(StepFailed, match="^step 7$") as failed:
        run_coupled(ScriptedModel(fail_at=7), np.zeros(1), np.zeros(1), config)
    assert failed.value.__context__ is None
    # a NaN in the last recorded iteration, where the budget ends the block
    model = ScriptedModel(nan_at=(100,))
    with pytest.raises(EvaluationError, match="^the fixed-point residual at iteration 100 is nan$"):
        run_coupled(model, np.zeros(1), np.zeros(1), config)
    assert model.k == 101


def test_a_nan_residual_at_an_unrecorded_iteration_raises():
    model = ScriptedModel(nan_at=(5,))
    with pytest.raises(EvaluationError, match="^the fixed-point residual at iteration 5 is nan$"):
        run_coupled(model, np.zeros(1), np.zeros(1), RunConfig(max_iterations=100, record_every=2))
    assert model.k == 10  # the block of iterations 0 to 9
