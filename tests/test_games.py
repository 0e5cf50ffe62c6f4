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
                                      externality_nonatomic, project_simplex,
                                      social_optimum, solve_equilibrium_atomic)
from incentive_dynamics import numdiff


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

    def loss_grad(x):
        calls.append(1)
        return game.loss_grad(x)

    return dataclasses.replace(game, loss_grad=loss_grad), calls


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
