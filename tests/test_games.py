import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incentive_dynamics import games
from incentive_dynamics.errors import (ConvergenceError, EvaluationError,
                                       InvalidArgumentError, SpecError)
from incentive_dynamics.games import (AtomicGame, NonAtomicGame,
                                      best_response_nonatomic,
                                      certify_nash_atomic,
                                      certify_nash_nonatomic,
                                      certify_social_optimum,
                                      externality_atomic,
                                      externality_nonatomic, project_interval,
                                      project_simplex, social_optimum,
                                      solve_equilibrium_atomic)
from incentive_dynamics import numdiff
from incentive_dynamics.aggregative import QuadraticAggregativeSpec
from incentive_dynamics.dynamics import RunConfig, StrategyUpdateRule, run_coupled


def aggregative_game(q, A, alpha, zeta):
    """Hand-built quadratic aggregative game (independent of the aggregative
    module, so it can serve as an oracle for it)."""
    q = np.asarray(q, float)
    A = np.asarray(A, float)
    zeta = np.asarray(zeta, float)
    n = q.size
    return AtomicGame(
        lower=np.full(n, -np.inf), upper=np.full(n, np.inf),
        loss=lambda x: 0.5 * q * x**2 + alpha * x * (A @ x),
        loss_grad=lambda x: q * x + alpha * (A @ x),
        social=lambda x: float(0.5 * np.sum((x - zeta) ** 2)),
        social_grad=lambda x: np.asarray(x, float) - zeta,
    )


def two_link_game():
    """The two parallel unit-slope links as a bare non-atomic game."""
    return NonAtomicGame(
        masses=np.array([1.0]), action_counts=(2,),
        action_cost=lambda x: np.array([x[0], x[1]]),
        social=lambda x: float(x[0] ** 2 + x[1] ** 2),
        social_grad=lambda x: 2.0 * np.asarray(x, float),
    )


# ---------------------------------------------------------------------------
# simplex projection
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(-10, 10), min_size=1, max_size=8),
       st.floats(0.1, 5.0))
@settings(max_examples=100, deadline=None)
def test_project_simplex_feasible(vals, mass):
    y = project_simplex(np.array(vals), mass)
    assert np.all(y >= 0)
    assert abs(y.sum() - mass) < 1e-9


def test_project_simplex_idempotent_on_feasible():
    x = np.array([0.2, 0.3, 0.5])
    np.testing.assert_allclose(project_simplex(x, 1.0), x, atol=1e-12)


def test_project_simplex_rejects_nonpositive_mass():
    with pytest.raises(InvalidArgumentError):
        project_simplex(np.array([1.0, 2.0]), 0.0)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_atomic_game_rejects_crossed_bounds():
    with pytest.raises(SpecError):
        AtomicGame(lower=[1.0], upper=[0.0], loss=lambda x: x,
                   loss_grad=lambda x: x, social=lambda x: 0.0,
                   social_grad=lambda x: np.zeros(1))


def test_atomic_project_on_unbounded_box_matches_project_interval():
    unbounded = aggregative_game(np.ones(5), np.zeros((5, 5)), 0.5, np.zeros(5))
    x = np.array([np.nan, np.inf, -np.inf, -0.0, 1e308])
    y = unbounded.project(x)
    assert y is not x and not np.shares_memory(y, x)
    ref = project_interval(x, unbounded.lower, unbounded.upper)
    np.testing.assert_array_equal(y, ref, strict=True)
    np.testing.assert_array_equal(np.signbit(y), np.signbit(ref))
    # other shapes broadcast or fail as project_interval does
    np.testing.assert_array_equal(unbounded.project([2.0]), np.full(5, 2.0), strict=True)
    with pytest.raises(ValueError):
        unbounded.project(np.zeros(3))
    # an infinite bound on one side only still clamps the other
    half = dataclasses.replace(unbounded, upper=np.full(5, 0.5))
    np.testing.assert_array_equal(half.project(x), project_interval(x, half.lower, half.upper))
    assert half.project(x)[1] == 0.5


def test_nonatomic_game_rejects_zero_mass():
    with pytest.raises(SpecError):
        NonAtomicGame(masses=[0.0], action_counts=(2,),
                      action_cost=lambda x: x, social=lambda x: 0.0,
                      social_grad=lambda x: np.zeros(2))


def test_nonatomic_feasibility_checks():
    g = two_link_game()
    assert g.is_feasible(np.array([0.4, 0.6]))
    assert not g.is_feasible(np.array([0.4, 0.4]))
    assert not g.is_feasible(np.array([-0.1, 1.1]))
    with pytest.raises(InvalidArgumentError):
        g.check_feasible(np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# externalities
# ---------------------------------------------------------------------------

def test_externality_atomic_separable_is_zero():
    g = AtomicGame(lower=np.full(3, -np.inf), upper=np.full(3, np.inf),
                   loss=lambda x: 0.5 * x**2, loss_grad=lambda x: np.asarray(x),
                   social=lambda x: float(0.5 * np.sum(np.asarray(x)**2)),
                   social_grad=lambda x: np.asarray(x, float))
    np.testing.assert_allclose(externality_atomic(g, np.array([1.0, -2.0, 0.3])),
                               np.zeros(3), atol=1e-14)


def test_externality_atomic_aggregative_value():
    g = aggregative_game([1.0, 1.0], [[0, 1], [1, 0]], 0.5, [0.0, 0.0])
    e = externality_atomic(g, np.array([1.0, 1.0]))
    np.testing.assert_allclose(e, [-0.5, -0.5], atol=1e-12)


def test_externality_atomic_matches_finite_differences():
    rng = np.random.default_rng(3)
    q = rng.uniform(1, 2, 3)
    A = rng.uniform(0, 0.3, (3, 3))
    np.fill_diagonal(A, 0.0)
    zeta = rng.uniform(-1, 1, 3)
    g = aggregative_game(q, A, 0.5, zeta)
    for _ in range(5):
        x = rng.uniform(-2, 2, 3)
        fd = numdiff.central_gradient(g.social, x) - np.array(
            [numdiff.central_partial(lambda z, i=i: float(g.loss(z)[i]), x, i)
             for i in range(3)])
        np.testing.assert_allclose(externality_atomic(g, x), fd,
                                   rtol=1e-5, atol=1e-5)


def test_externality_nonatomic_two_link():
    g = two_link_game()
    np.testing.assert_allclose(externality_nonatomic(g, np.array([0.5, 0.5])),
                               [0.5, 0.5], atol=1e-14)


def test_externality_nonatomic_constant_costs_zero():
    g = NonAtomicGame(masses=[1.0], action_counts=(2,),
                      action_cost=lambda x: np.array([3.0, 3.0]),
                      social=lambda x: float(3.0 * np.sum(x)),
                      social_grad=lambda x: np.full(2, 3.0))
    np.testing.assert_allclose(externality_nonatomic(g, np.array([0.3, 0.7])),
                               np.zeros(2), atol=1e-14)


def test_externality_nonatomic_matches_finite_differences():
    rng = np.random.default_rng(7)
    B = rng.uniform(0.5, 1.5, (5, 5))
    B = B + B.T  # symmetric so that grad of 0.5 x'Bx is Bx

    def social(x):
        return float(0.5 * np.asarray(x) @ B @ np.asarray(x))

    g = NonAtomicGame(masses=[1.0, 2.0], action_counts=(2, 3),
                      action_cost=lambda x: 0.5 * (B @ np.asarray(x)),
                      social=social,
                      social_grad=lambda x: B @ np.asarray(x))
    x = g.random_start(rng)
    fd = numdiff.central_gradient(social, x) - g.action_cost(x)
    np.testing.assert_allclose(externality_nonatomic(g, x), fd,
                               rtol=1e-5, atol=1e-5)


def counting(oracle, calls):
    def wrapped(x):
        calls.append(1)
        return oracle(x)
    return wrapped


def test_externality_checks_each_oracle_value_once():
    bad, good = (lambda x: np.array([np.nan, 0.0])), (lambda x: np.zeros(2))
    for social_grad, loss_grad, what in ((bad, good, "social gradient"),
                                         (good, bad, "loss gradient")):
        sg_calls, lg_calls = [], []
        g = AtomicGame(lower=np.full(2, -np.inf), upper=np.full(2, np.inf),
                       loss=lambda x: x * x, social=lambda x: 0.0,
                       loss_grad=counting(loss_grad, lg_calls),
                       social_grad=counting(social_grad, sg_calls))
        with pytest.raises(EvaluationError, match=f"^{what} oracle returned non-finite values$"):
            externality_atomic(g, np.zeros(2))
        assert (len(sg_calls), len(lg_calls)) == (1, 1)
    # finite values whose difference overflows are not an oracle failure
    g = NonAtomicGame(masses=[1.0], action_counts=(2,),
                      action_cost=lambda x: np.array([-1e308, 0.0]),
                      social=lambda x: 0.0, social_grad=lambda x: np.array([1e308, 0.0]))
    with np.errstate(over="ignore"):
        np.testing.assert_array_equal(externality_nonatomic(g, np.array([0.5, 0.5])),
                                      [np.inf, 0.0])


def test_externality_nonfinite_oracle_raises():
    g = NonAtomicGame(masses=[1.0], action_counts=(2,),
                      action_cost=lambda x: np.array([np.nan, 0.0]),
                      social=lambda x: 0.0,
                      social_grad=lambda x: np.zeros(2))
    with pytest.raises(EvaluationError):
        externality_nonatomic(g, np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def test_certify_nash_atomic_zero_incentive():
    g = aggregative_game([1.0, 1.0], [[0, 1], [1, 0]], 0.5, [0.0, 0.0])
    ok, resid = certify_nash_atomic(g, np.zeros(2), np.zeros(2), 1e-8)
    assert ok and resid == 0.0


def test_certify_nash_atomic_linear_solve():
    g = aggregative_game([1.0, 1.0], [[0, 1], [1, 0]], 0.5, [0.0, 0.0])
    x = np.array([-2.0 / 3.0, -2.0 / 3.0])
    ok, _ = certify_nash_atomic(g, x, np.array([1.0, 1.0]), 1e-10)
    assert ok


def test_certify_nash_atomic_perturbation_fails():
    g = aggregative_game([1.0, 1.0], [[0, 1], [1, 0]], 0.5, [0.0, 0.0])
    tol = 1e-6
    x = np.array([-2.0 / 3.0, -2.0 / 3.0])
    x[0] += 10 * tol
    ok, resid = certify_nash_atomic(g, x, np.array([1.0, 1.0]), tol)
    assert not ok and resid > tol


def test_certify_nash_nonatomic_two_link():
    g = two_link_game()
    ok, _ = certify_nash_nonatomic(g, np.array([0.5, 0.5]), np.zeros(2), 1e-8)
    assert ok
    ok, _ = certify_nash_nonatomic(g, np.array([0.0, 1.0]),
                                   np.array([2.0, 0.0]), 1e-8)
    assert ok
    ok, _ = certify_nash_nonatomic(g, np.array([1.0, 0.0]), np.zeros(2), 1e-8)
    assert not ok


def test_certify_nash_nonatomic_single_action_always_passes():
    g = NonAtomicGame(masses=[1.0], action_counts=(1,),
                      action_cost=lambda x: np.array([5.0]),
                      social=lambda x: 5.0, social_grad=lambda x: np.array([5.0]))
    ok, resid = certify_nash_nonatomic(g, np.array([1.0]), np.zeros(1), 1e-8)
    assert ok and resid == 0.0


# ---------------------------------------------------------------------------
# social optimum
# ---------------------------------------------------------------------------

def test_social_optimum_aggregative_target():
    g = aggregative_game([1.0, 1.0], [[0, 1], [1, 0]], 0.5, [1.0, 2.0])
    x = social_optimum(g, tol=1e-9)
    np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-8)
    ok, _ = certify_social_optimum(g, x, 1e-8)
    assert ok


def test_social_optimum_atomic_finite_box():
    # the unconstrained optimum (1, 2) lies outside the box, so the answer
    # clips to the upper bounds; the search starts at the box midpoint
    g = AtomicGame(lower=[-1.0, 0.0], upper=[0.5, 1.0],
                   loss=lambda x: x * x, loss_grad=lambda x: 2.0 * x,
                   social=lambda x: float(0.5 * np.sum((x - [1.0, 2.0]) ** 2)),
                   social_grad=lambda x: np.asarray(x, float) - [1.0, 2.0])
    np.testing.assert_array_equal(g.uniform_point(), [-0.25, 0.5])
    x = social_optimum(g, tol=1e-10)
    np.testing.assert_allclose(x, [0.5, 1.0], atol=1e-10)
    assert certify_social_optimum(g, x, 1e-8)[0]


def test_atomic_game_closed_form_optimum():
    g = aggregative_game([1.0, 1.0], [[0, 1], [1, 0]], 0.5, [1.0, 2.0])
    assert g.known_optimum() is None and g.optimal_incentive() is None
    with_opt = AtomicGame(g.lower, g.upper, g.loss, g.loss_grad, g.social,
                          g.social_grad, optimum=[1.0, 2.0])
    np.testing.assert_array_equal(with_opt.known_optimum(), [1.0, 2.0])
    # p† = e(x†) = -M x† with M = [[1, 0.5], [0.5, 1]]
    np.testing.assert_allclose(with_opt.optimal_incentive(), [-2.0, -2.5], atol=1e-15)
    with pytest.raises(SpecError):
        AtomicGame(g.lower, g.upper, g.loss, g.loss_grad, g.social,
                   g.social_grad, optimum=[1.0])
    assert two_link_game().known_optimum() is None
    assert two_link_game().optimal_incentive() is None


def test_social_optimum_two_link():
    g = two_link_game()
    x = social_optimum(g, tol=1e-9)
    np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-8)
    assert g.social(x) == pytest.approx(0.5, abs=1e-8)


# ---------------------------------------------------------------------------
# responses and equilibrium solvers
# ---------------------------------------------------------------------------

def test_best_response_nonatomic_lowest_index_tiebreak():
    g = NonAtomicGame(masses=[1.0], action_counts=(3,),
                      action_cost=lambda x: np.array([1.0, 1.0, 1.0]),
                      social=lambda x: float(np.sum(x)),
                      social_grad=lambda x: np.ones(3))
    f = best_response_nonatomic(g, g.uniform_point(), np.zeros(3))
    np.testing.assert_allclose(f, [1.0, 0.0, 0.0])


def test_solve_equilibrium_atomic_matches_closed_form():
    g = aggregative_game([1.0, 1.0], [[0, 1], [1, 0]], 0.5, [0.0, 0.0])
    p = np.array([1.0, 1.0])
    x = solve_equilibrium_atomic(g, p, tol=1e-11)
    np.testing.assert_allclose(x, [-2.0 / 3.0, -2.0 / 3.0], atol=1e-8)


def certify_loop_reference(game, p, tol=1e-10, x0=None, max_iter=5000):
    """The generic solver as it was before it reused the gradient: every
    candidate is certified with certify_nash_atomic, and the step direction
    evaluates loss_grad at the same point once more."""
    p = np.asarray(p, float)
    x = game.project(np.zeros(game.n_players) if x0 is None else np.asarray(x0, float))
    eta = 1.0
    _, res = certify_nash_atomic(game, x, p, tol)
    for _ in range(max_iter):
        if res <= tol:
            return x
        cand = game.project(x - eta * (np.asarray(game.loss_grad(x), float) + p))
        _, res_c = certify_nash_atomic(game, cand, p, tol)
        if res_c <= res:
            x, res = cand, res_c
        else:
            eta *= 0.5
            if eta < 1e-12:
                f = games.best_response_atomic(game, x, p)
                x = 0.5 * x + 0.5 * f
                _, res = certify_nash_atomic(game, x, p, tol)
                eta = 1.0
    raise ConvergenceError("atomic equilibrium iteration stalled", best=x)


def counting_game(game):
    calls = []
    return dataclasses.replace(game, loss_grad=counting(game.loss_grad, calls)), calls


def test_solve_equilibrium_atomic_matches_certify_loop_bitwise():
    rng = np.random.default_rng(11)
    n = 5
    A = rng.uniform(0.0, 1.0, (n, n))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    A *= 0.8 / (n - 1)
    box = dataclasses.replace(aggregative_game(rng.uniform(1.0, 2.0, n), A, 1.0, np.zeros(n)),
                              lower=np.full(n, -0.3), upper=np.full(n, 0.4))
    unbounded = aggregative_game(rng.uniform(1.0, 2.0, n), A, 1.0, np.zeros(n))
    for game in (unbounded, box):
        for _ in range(4):
            p = rng.normal(size=n)
            x0 = game.project(rng.normal(size=n))
            new_game, new_calls = counting_game(game)
            ref_game, ref_calls = counting_game(game)
            x = solve_equilibrium_atomic(new_game, p, x0=x0)
            np.testing.assert_array_equal(x, certify_loop_reference(ref_game, p, x0=x0))
            # one gradient per visited point, where the certify loop took two
            assert len(new_calls) <= 0.5 * len(ref_calls) + 1


def test_solve_equilibrium_atomic_rejects_wrong_incentive_length():
    g = aggregative_game([1.0, 1.0], [[0, 1], [1, 0]], 0.5, [0.0, 0.0])
    for p in (np.zeros(3), np.zeros(1), np.zeros((2, 1))):
        with pytest.raises(InvalidArgumentError):
            solve_equilibrium_atomic(g, p)


# ---------------------------------------------------------------------------
# closed-form-free atomic best response
# ---------------------------------------------------------------------------

def separable_game(lower, upper, loss, loss_grad):
    """Players whose costs do not depend on each other."""
    n = len(lower)
    return AtomicGame(lower=lower, upper=upper, loss=loss,
                      loss_grad=loss_grad, social=lambda x: 0.0,
                      social_grad=lambda x: np.zeros(n))


def seeded_spec(rng, n):
    """A quadratic aggregative spec of the benchmark's well-conditioned kind."""
    A = rng.uniform(0.0, 1.0, (n, n))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    A *= 0.2 / max(1, n - 1)
    return QuadraticAggregativeSpec(q=rng.uniform(0.8, 1.2, n), A=A, alpha=0.5,
                                    zeta=rng.uniform(-1.0, 1.0, n))


def without_closed_forms(game):
    return dataclasses.replace(game, equilibrium=None, best_response=None)


def test_best_response_atomic_finite_box():
    # own partial 2 (x - c): minimisers below, above and inside [0, 1]
    c = np.array([-0.7, 1.9, 0.3])
    g = separable_game(np.zeros(3), np.ones(3), lambda x: (x - c) ** 2,
                       lambda x: 2.0 * (x - c))
    # the last start lies outside the box; the search starts from its projection
    for x in (np.zeros(3), np.ones(3), np.full(3, 0.5), np.array([-2.0, 3.0, 5.0])):
        f = games.best_response_atomic(g, x, np.zeros(3))
        np.testing.assert_allclose(f, [0.0, 1.0, 0.3], rtol=0, atol=1e-15)
    # a payment moves the inside minimiser: 2 (y - 0.3) + 0.4 = 0
    f = games.best_response_atomic(g, np.full(3, 0.5), np.array([0.0, 0.0, 0.4]))
    np.testing.assert_allclose(f, [0.0, 1.0, 0.1], rtol=0, atol=1e-15)


def test_best_response_atomic_one_sided_bounds():
    inf = np.inf
    c = np.array([-5.0, 3.5, 2.0, -20.0])
    g = separable_game(np.array([-inf, -inf, 0.0, 0.0]), np.array([0.0, 2.0, inf, inf]),
                       lambda x: 0.5 * (x - c) ** 2, lambda x: x - c)
    f = games.best_response_atomic(g, np.array([-1.0, 0.0, 40.0, 1.0]), np.zeros(4))
    np.testing.assert_allclose(f, [-5.0, 2.0, 2.0, 0.0], rtol=0, atol=1e-14)


def test_best_response_atomic_quartic_own_cost():
    # loss_i = (x_i - a_i)^4 / 4 + b_i x_i sum_{j != i} x_j
    rng = np.random.default_rng(21)
    n = 6
    a, b = rng.uniform(-1, 1, n), rng.uniform(-0.5, 0.5, n)
    g = AtomicGame(lower=np.full(n, -np.inf), upper=np.full(n, np.inf),
                   loss=lambda x: (x - a) ** 4 / 4 + b * x * (x.sum() - x),
                   loss_grad=lambda x: (x - a) ** 3 + b * (x.sum() - x),
                   social=lambda x: 0.0, social_grad=lambda x: np.zeros(n))
    for _ in range(20):
        x = rng.normal(scale=3.0, size=n)
        p = rng.normal(scale=3.0, size=n)
        reference = a + np.cbrt(-(b * (x.sum() - x) + p))
        np.testing.assert_allclose(games.best_response_atomic(g, x, p), reference,
                                   rtol=0, atol=1e-10)


def test_best_response_atomic_matches_closed_form_on_seeded_specs():
    rng = np.random.default_rng(22)
    for n in (5, 50):
        game = seeded_spec(rng, n).to_game()
        generic = without_closed_forms(game)
        for _ in range(10):
            x = rng.normal(scale=2.0, size=n)
            p = rng.normal(scale=2.0, size=n)
            np.testing.assert_allclose(games.best_response_atomic(generic, x, p),
                                       game.best_response(x, p), rtol=0, atol=1e-12)


def test_best_response_atomic_gradient_calls():
    """One shared gradient, then per player at most three secant points and
    one doubling step for each power of two the response lies away."""
    rng = np.random.default_rng(23)
    for n in (5, 50):
        game = seeded_spec(rng, n).to_game()
        generic, calls = counting_game(without_closed_forms(game))
        for scale in (0.3, 10.0):
            for _ in range(10):
                x = rng.normal(scale=scale, size=n)
                p = rng.normal(scale=scale, size=n)
                distance = np.abs(game.best_response(x, p) - x)
                doublings = np.ceil(np.log2(np.maximum(distance, 1.0)))
                calls.clear()
                games.best_response_atomic(generic, x, p)
                assert len(calls) <= 1 + np.sum(4 + doublings)
                if distance.max() <= 1.0:
                    assert len(calls) <= 4 * n + 1
        # every player already at its best response: the shared gradient suffices
        x = rng.normal(size=n)
        calls.clear()
        np.testing.assert_array_equal(
            games.best_response_atomic(generic, x, -game.loss_grad(x)), x)
        assert len(calls) == 1


def test_best_response_atomic_coupled_records_match_closed_form():
    rng = np.random.default_rng(24)
    for n, budget in ((5, 20000), (50, 200)):
        game = seeded_spec(rng, n).to_game()
        cfg = RunConfig(rule=StrategyUpdateRule("best_response"), max_iterations=budget,
                        convergence_tol=1e-4)
        ref = run_coupled(game, np.zeros(n), np.zeros(n), cfg)
        rec = run_coupled(without_closed_forms(game), np.zeros(n), np.zeros(n), cfg)
        assert (rec.iterations, rec.converged) == (ref.iterations, ref.converged)
        assert ref.converged == (n == 5)
        np.testing.assert_allclose(rec.xs, ref.xs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rec.ps, ref.ps, rtol=0, atol=1e-12)


def test_best_response_atomic_unbounded_own_cost_fails_fast():
    # player 1's cost x_1 falls without end on the real line
    g, calls = counting_game(separable_game(np.full(2, -np.inf), np.full(2, np.inf),
                                            lambda x: np.array([0.5 * x[0] ** 2, x[1]]),
                                            lambda x: np.array([x[0], 1.0])))
    with pytest.raises(ConvergenceError, match="player 1 has no minimiser"):
        games.best_response_atomic(g, np.zeros(2), np.zeros(2))
    assert len(calls) < 50


def test_best_response_atomic_nonfinite_partial_raises():
    nan_everywhere = separable_game(np.full(2, -np.inf), np.full(2, np.inf),
                                    lambda x: np.full(2, np.nan), lambda x: np.full(2, np.nan))
    with pytest.raises(EvaluationError, match="player 0"):
        games.best_response_atomic(nan_everywhere, np.zeros(2), np.zeros(2))
    # finite at the start, infinite beyond x = 2 on the way to the root at 3
    blows_up = separable_game(np.full(2, -np.inf), np.full(2, np.inf),
                              lambda x: np.where(x > 2.0, np.inf, 0.5 * (x - 3.0) ** 2),
                              lambda x: np.where(x > 2.0, np.inf, x - 3.0))
    with pytest.raises(EvaluationError, match="player 0"):
        games.best_response_atomic(blows_up, np.zeros(2), np.zeros(2))
