import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incentive_dynamics.dynamics import (RunConfig, StepSchedule,
                                         StrategyUpdateRule, TrajectoryRecord,
                                         externality, fixed_point_residual,
                                         resolve_eta, run_coupled,
                                         strategy_target)
from incentive_dynamics.errors import InvalidArgumentError, SpecError

from test_games import aggregative_game, two_link_game


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
@settings(max_examples=50, deadline=None)
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
    out = strategy_target(g, x, p, StrategyUpdateRule("equilibrium"))
    np.testing.assert_allclose(out, [-2.0 / 3.0, -2.0 / 3.0], atol=1e-4)


def test_step_strategy_best_response_closed_form():
    g = aggregative_game([2.0, 1.0], [[0, 1], [1, 0]], 0.5, [0.0, 0.0])
    x = np.array([1.0, 2.0])
    p = np.array([0.3, -0.1])
    f = strategy_target(g, x, p, StrategyUpdateRule("best_response"))
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
        np.testing.assert_allclose(strategy_target(g, x, p, rule), x, atol=1e-9)
        np.testing.assert_allclose(one_step(g, x, p, rule)[0], x, atol=1e-9)
    ga = aggregative_game([1.0, 1.0], [[0, 1], [1, 0]], 0.5, [0.0, 0.0])
    x_eq = np.array([-2.0 / 3.0, -2.0 / 3.0])
    rule = StrategyUpdateRule("best_response")
    np.testing.assert_allclose(strategy_target(ga, x_eq, np.array([1.0, 1.0]), rule),
                               x_eq, atol=1e-9)


def test_step_strategy_entropy_needs_simplex():
    g = aggregative_game([1.0, 1.0], [[0, 1], [1, 0]], 0.5, [0.0, 0.0])
    rule = StrategyUpdateRule("gradient", eta=0.1, regularizer="entropy")
    with pytest.raises(InvalidArgumentError):
        strategy_target(g, np.zeros(2), np.zeros(2), rule)


def test_step_strategy_mass_conservation():
    g = two_link_game()
    rng = np.random.default_rng(0)
    x = g.random_start(rng)
    p = rng.normal(size=2)
    for rule in (StrategyUpdateRule("best_response"),
                 StrategyUpdateRule("gradient", eta=0.1),
                 StrategyUpdateRule("gradient", eta=0.1, regularizer="entropy")):
        assert g.is_feasible(strategy_target(g, x, p, rule))
        assert g.is_feasible(one_step(g, x, p, rule)[0])


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

def test_fixed_point_residual_at_fixed_point():
    g = two_link_game()
    r = fixed_point_residual(g, np.array([0.5, 0.5]), np.array([0.5, 0.5]),
                             StrategyUpdateRule("equilibrium"))
    assert r <= 1e-9


def test_fixed_point_residual_off_fixed_point():
    # x*(0) = (0.5, 0.5) and e((1,0)) = (1, 0), so the residual is
    # ||(0.5,0.5)-(1,0)||_inf + ||(1,0)-(0,0)||_inf = 0.5 + 1.0
    g = two_link_game()
    r = fixed_point_residual(g, np.array([1.0, 0.0]), np.zeros(2),
                             StrategyUpdateRule("equilibrium"))
    assert r == pytest.approx(1.5, abs=1e-8)


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


def test_run_coupled_infeasible_start_rejected():
    g = two_link_game()
    cfg = RunConfig(max_iterations=10)
    with pytest.raises(InvalidArgumentError):
        run_coupled(g, np.array([1.0, 1.0]), np.zeros(2), cfg)


def test_run_coupled_rejects_wrong_incentive_length():
    # a length-1 p0 used to broadcast against every player or action
    atomic = aggregative_game([1.0, 1.0, 1.0], np.zeros((3, 3)), 0.5, [0.0, 0.0, 0.0])
    nonatomic = two_link_game()
    cfg = RunConfig(rule=StrategyUpdateRule("gradient"), max_iterations=10)
    with pytest.raises(InvalidArgumentError):
        run_coupled(atomic, np.zeros(3), np.zeros(1), cfg)
    for variant in ("equilibrium", "best_response", "gradient"):
        cfg = RunConfig(rule=StrategyUpdateRule(variant), max_iterations=10)
        with pytest.raises(InvalidArgumentError):
            run_coupled(nonatomic, np.array([0.5, 0.5]), np.zeros(1), cfg)
    with pytest.raises(InvalidArgumentError):
        run_coupled(atomic, np.zeros(3), np.zeros(4), cfg)


def test_default_eta_from_the_cost_lipschitz_bound():
    rule = StrategyUpdateRule("gradient")
    assert resolve_eta(two_link_game(), StrategyUpdateRule("gradient", eta=0.3)) == 0.3
    # two_link_game costs are the identity map, so every sampled ratio is 1
    assert resolve_eta(two_link_game(), rule) == pytest.approx(0.9)
    # sampled ratios never exceed the Lipschitz constant ||Q + alpha A||_2 = 1.5
    g = aggregative_game([1.0, 1.0], [[0, 1], [1, 0]], 0.5, [0.0, 0.0])
    assert 0.9 / 1.5 <= resolve_eta(g, rule) < 0.9
    assert resolve_eta(dataclasses.replace(g, lipschitz_bound=1.5), rule) == 0.9 / 1.5
