import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from incentive_dynamics import games
from incentive_dynamics.errors import (ConvergenceError, EvaluationError,
                                       InvalidArgumentError, SpecError)
from incentive_dynamics.games import (AtomicGame, NonAtomicGame,
                                      certify_nash_atomic,
                                      certify_nash_nonatomic,
                                      certify_social_optimum, project_interval,
                                      solve_equilibrium_atomic)
from incentive_dynamics import numdiff
from incentive_dynamics.aggregative import QuadraticAggregativeSpec
from incentive_dynamics.dynamics import RunConfig, StrategyUpdateRule, run_coupled

from corpus import (FORMER_SCHEDULE, aggregative_game, counting, nonatomic_loop_reference,
                    seeded_spec, two_link_game, without_closed_forms)


# ---------------------------------------------------------------------------
# simplex projection
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(-10, 10), min_size=1, max_size=8),
       st.floats(0.1, 5.0))
@settings(derandomize=True, max_examples=100, deadline=None)
def test_project_simplex_feasible(vals, mass):
    v = np.array(vals)
    y = games.project_blocks(v, games.BlockLayout((v.size,), (mass,)))
    assert np.all(y >= 0)
    assert abs(y.sum() - mass) < 1e-9


def test_project_simplex_of_a_swamped_vector_is_taken_from_its_maximum():
    # 1e300 - 1 == 1e300: no rank passes the threshold test as written
    v = np.array([1e300, -1e300, 5.0])
    np.testing.assert_array_equal(games.project_blocks(v, games.BlockLayout((v.size,), (1.0,))),
                                  [1.0, 0.0, 0.0])


@pytest.mark.parametrize("bad", [[np.nan, 1.0], [1.0, np.inf], [-np.inf, -np.inf]])
def test_project_simplex_rejects_a_nonfinite_vector(bad):
    v = np.array(bad)
    with pytest.raises(EvaluationError, match="non-finite"):
        games.project_blocks(v, games.BlockLayout((v.size,), (1.0,)))


def test_a_swamped_or_nonfinite_block_leaves_the_others_alone():
    layout = games.BlockLayout((2, 3), (2.0, 1.0))
    good = np.array([0.3, -1.2])
    good_alone = games.project_blocks(good, games.BlockLayout((good.size,), (2.0,)))
    swamped = np.concatenate([good, [1e300, -1e300, 5.0]])
    np.testing.assert_array_equal(games.project_blocks(swamped, layout),
                                  [*good_alone, 1.0, 0.0, 0.0])
    with pytest.raises(EvaluationError):
        games.project_blocks(np.concatenate([good, [1.0, np.nan, 0.0]]), layout)
    # -inf in a block whose top rank passes: the entry is projected to 0
    np.testing.assert_array_equal(
        games.project_blocks(np.concatenate([good, [-np.inf, 0.5, 0.5]]), layout),
        [*good_alone, 0.0, 0.5, 0.5])


# ---------------------------------------------------------------------------
# block layouts: one padded pass against the per-block loops
# ---------------------------------------------------------------------------

def simplex_reference(v, m):
    """One block's projection, as the per-block loop computed it: the
    sort-based rule of Duchi et al. (2008), with a block whose top rank fails
    the threshold test (its range swamps m) projected after its maximum is
    subtracted."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - m
    passes = u * np.arange(1, v.size + 1) > css
    if not passes[0]:
        return simplex_reference(v - u[0], m)
    rho = np.nonzero(passes)[0][-1]
    return np.maximum(v - css[rho] / (rho + 1.0), 0.0)


def blocks_reference(layout, one_block):
    return lambda v, *args: np.concatenate(
        [one_block(v[s], m, *args) for s, m in zip(layout.slices, layout.masses)])


def best_response_reference(c, m):
    out = np.zeros(c.size)
    out[np.argmin(c)] = m
    return out


def logit_reference(c, m, temperature):
    z = -c / temperature
    z -= z.max()
    w = np.exp(z)
    return m * w / w.sum()


# ties, signed zeros, and magnitudes from subnormal to 1e4
LAYOUT_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                          st.floats(-1e4, 1e4, allow_subnormal=True))


@st.composite
def layouts(draw):
    counts = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6))
    masses = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(counts), max_size=len(counts)))
    values = draw(st.lists(LAYOUT_VALUES, min_size=sum(counts), max_size=sum(counts)))
    return games.BlockLayout(counts, masses), np.array(values)


def assert_feasible(y, layout):
    assert (y >= 0.0).all()
    sums = np.array([y[s].sum() for s in layout.slices])
    tol = 1e-8  # stricter than the feasibility check's 1e-7
    assert (np.abs(sums - layout.masses) <= np.maximum(tol, tol * layout.masses)).all()


# a weight of 1 and 15 of 1.7e-8 in one block: added left to right, they
# drift 5 ulp from the pairwise sum
SMALL_WEIGHTS = np.where(np.arange(19) == 6, -161.0, 0.0)


@given(layouts(), st.floats(1e-2, 1e2))
@example(case=(games.BlockLayout([3, 16], [3.0, 3.0]), SMALL_WEIGHTS), temperature=9.0)
@settings(derandomize=True, max_examples=300, deadline=None)
def test_padded_block_passes_match_the_per_block_loops(case, temperature):
    layout, v = case
    projected = games.project_blocks(v, layout)
    assert projected.tobytes() == blocks_reference(layout, simplex_reference)(v).tobytes()
    best = games.best_response_blocks(v, layout)
    assert best.tobytes() == blocks_reference(layout, best_response_reference)(v).tobytes()
    # a padded row's pairwise sum groups a block's weights differently from
    # numpy's pairwise sum of the block alone, which can change the last bits
    logit = games.logit_blocks(v, layout, temperature)
    np.testing.assert_allclose(
        logit, blocks_reference(layout, logit_reference)(v, temperature), rtol=1e-15, atol=0)
    for y in (projected, best, logit):
        assert_feasible(y, layout)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_atomic_game_rejects_crossed_bounds():
    with pytest.raises(SpecError):
        AtomicGame(lower=[1.0], upper=[0.0],
                   loss_grad=lambda x: x, social=lambda x: 0.0,
                   social_grad=lambda x: np.zeros(1))


def test_atomic_game_rejects_bounds_of_different_shapes():
    with pytest.raises(SpecError, match="matching shapes"):
        AtomicGame(lower=[0.0, 0.0], upper=[1.0],
                   loss_grad=lambda x: x, social=lambda x: 0.0,
                   social_grad=lambda x: np.zeros(2))


def box_game(**fields):
    """A two-player oracle game on [0, 1] x (-inf, inf), ``fields`` replaced."""
    return AtomicGame(**{"lower": [0.0, -np.inf], "upper": [1.0, np.inf],
                         "loss_grad": lambda x: x, "social": lambda x: 0.0,
                         "social_grad": lambda x: np.zeros(2), **fields})


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_atomic_game_rejects_a_nan_bound(side):
    # it once built, and a solve from its NaN uniform_point blamed the loss gradient oracle
    with pytest.raises(SpecError, match=f"{side} bound must not be NaN"):
        box_game(**{side: [0.5, np.nan]})


@pytest.mark.parametrize("lower, upper, message", [
    ([np.inf, 0.0], [np.inf, 1.0], "lower bound must not be NaN or +inf"),
    ([0.0, -np.inf], [1.0, -np.inf], "upper bound must not be NaN or -inf"),
])
def test_atomic_game_rejects_a_bound_that_leaves_no_finite_strategy(lower, upper, message):
    # it once built, and a run from its uniform_point failed on "strategy profile must be finite"
    with pytest.raises(SpecError, match=re.escape(message)):
        box_game(lower=lower, upper=upper)
    # every game that builds has a uniform_point that check_feasible passes
    for lower, upper in (([-np.inf, 0.0], [np.inf, np.inf]), ([-np.inf, -np.inf], [-1.0, 0.0])):
        game = box_game(lower=lower, upper=upper)
        game.check_feasible(game.uniform_point())


@pytest.mark.parametrize("bound", [np.nan, -1.0, 0.0, np.inf])
def test_atomic_game_rejects_a_bad_lipschitz_bound(bound):
    # it once built, and the first gradient run blamed the inner step size eta
    with pytest.raises(SpecError, match="lipschitz_bound must be"):
        box_game(lipschitz_bound=bound)
    assert box_game(lipschitz_bound=2.0).default_eta("quadratic") == 0.45


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_atomic_game_rejects_a_nonfinite_optimum(bad):
    # it once built, and verify_fixed_point_optimality blamed the social gradient oracle
    with pytest.raises(SpecError, match="the closed-form optimum must be finite"):
        box_game(optimum=[bad, 0.0])


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


@pytest.mark.parametrize("mass", [np.nan, np.inf])
def test_nonatomic_game_rejects_a_nonfinite_mass(mass):
    # a NaN mass once built and then died in project with RecursionError
    with pytest.raises(SpecError, match="masses must be finite and positive"):
        NonAtomicGame(masses=[1.0, mass], action_counts=(2, 2),
                      action_cost=lambda x: x, social=lambda x: 0.0,
                      social_grad=lambda x: np.zeros(4))


@pytest.mark.parametrize("count", [2.5, np.inf, np.nan])
def test_nonatomic_game_rejects_a_fractional_action_count(count):
    # 2.5 was silently truncated to 2
    with pytest.raises(SpecError, match="action count"):
        NonAtomicGame(masses=[1.0], action_counts=(count,),
                      action_cost=lambda x: x, social=lambda x: 0.0,
                      social_grad=lambda x: np.zeros(2))


def test_nonatomic_game_takes_whole_float_action_counts():
    g = NonAtomicGame(masses=[1.0, 2.0], action_counts=(2.0, np.int64(3)),
                      action_cost=lambda x: x, social=lambda x: 0.0,
                      social_grad=lambda x: np.zeros(5))
    assert g.action_counts == (2, 3) and all(type(c) is int for c in g.action_counts)


def test_nonatomic_game_rejects_an_empty_action_set():
    with pytest.raises(SpecError, match="action count >= 1"):
        NonAtomicGame(masses=[1.0, 1.0], action_counts=(2, 0),
                      action_cost=lambda x: x, social=lambda x: 0.0,
                      social_grad=lambda x: np.zeros(2))


# ---------------------------------------------------------------------------
# externalities
# ---------------------------------------------------------------------------

def test_externality_atomic_separable_is_zero():
    g = AtomicGame(lower=np.full(3, -np.inf), upper=np.full(3, np.inf),
                   loss_grad=lambda x: np.asarray(x),
                   social=lambda x: float(0.5 * np.sum(np.asarray(x)**2)),
                   social_grad=lambda x: np.asarray(x, float))
    np.testing.assert_allclose(g.externality(np.array([1.0, -2.0, 0.3])),
                               np.zeros(3), atol=1e-14)


def test_externality_atomic_aggregative_value():
    g = aggregative_game([1.0, 1.0], [[0, 1], [1, 0]], 0.5, [0.0, 0.0])
    e = g.externality(np.array([1.0, 1.0]))
    np.testing.assert_allclose(e, [-0.5, -0.5], atol=1e-12)


def test_externality_atomic_matches_finite_differences():
    rng = np.random.default_rng(3)
    q = rng.uniform(1, 2, 3)
    A = rng.uniform(0, 0.3, (3, 3))
    np.fill_diagonal(A, 0.0)
    zeta = rng.uniform(-1, 1, 3)
    g = aggregative_game(q, A, 0.5, zeta)

    def loss(x):
        return 0.5 * q * x**2 + 0.5 * x * (A @ x)

    for _ in range(5):
        x = rng.uniform(-2, 2, 3)
        fd = numdiff.central_gradient(g.social, x) - np.diag(
            numdiff.central_jacobian(loss, x))
        np.testing.assert_allclose(g.externality(x), fd,
                                   rtol=1e-5, atol=1e-5)


def test_externality_nonatomic_two_link():
    g = two_link_game()
    np.testing.assert_allclose(g.externality(np.array([0.5, 0.5])),
                               [0.5, 0.5], atol=1e-14)


def test_externality_nonatomic_constant_costs_zero():
    g = NonAtomicGame(masses=[1.0], action_counts=(2,),
                      action_cost=lambda x: np.array([3.0, 3.0]),
                      social=lambda x: float(3.0 * np.sum(x)),
                      social_grad=lambda x: np.full(2, 3.0))
    np.testing.assert_allclose(g.externality(np.array([0.3, 0.7])),
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
    np.testing.assert_allclose(g.externality(x), fd,
                               rtol=1e-5, atol=1e-5)


def test_externality_checks_each_oracle_value_once():
    bad, good = (lambda x: np.array([np.nan, 0.0])), (lambda x: np.zeros(2))
    for social_grad, loss_grad, what in ((bad, good, "social gradient"),
                                         (good, bad, "loss gradient")):
        sg_calls, lg_calls = [], []
        g = AtomicGame(lower=np.full(2, -np.inf), upper=np.full(2, np.inf),
                       social=lambda x: 0.0,
                       loss_grad=counting(loss_grad, lg_calls),
                       social_grad=counting(social_grad, sg_calls))
        with pytest.raises(EvaluationError, match=f"^{what} oracle returned non-finite values$"):
            g.externality(np.zeros(2))
        assert (len(sg_calls), len(lg_calls)) == (1, 1)
    # finite values whose difference overflows are not an oracle failure
    g = NonAtomicGame(masses=[1.0], action_counts=(2,),
                      action_cost=lambda x: np.array([-1e308, 0.0]),
                      social=lambda x: 0.0, social_grad=lambda x: np.array([1e308, 0.0]))
    with np.errstate(over="ignore"):
        np.testing.assert_array_equal(g.externality(np.array([0.5, 0.5])),
                                      [np.inf, 0.0])


class OracleFailed(Exception):
    pass


def failing(name):
    def oracle(x):
        raise OracleFailed(name)
    return oracle


def oracle_game(kind, own, social_grad):
    """A two-strategy game whose own-cost oracle is ``own``; the atomic one has
    a closed-form best response, so that only the externality asks ``own``."""
    if kind == "atomic":
        return AtomicGame(lower=np.full(2, -np.inf), upper=np.full(2, np.inf),
                          loss_grad=own, social=lambda x: 0.0, social_grad=social_grad,
                          best_response=lambda x, p: np.zeros(2))
    return NonAtomicGame(masses=[1.0], action_counts=(2,), action_cost=own,
                         social=lambda x: 0.0, social_grad=social_grad)


OWN_COST = {"atomic": "loss gradient", "nonatomic": "action cost"}
BEST_RESPONSE = StrategyUpdateRule("best_response")
ORACLE_ENTRIES = {
    "externality": lambda g: g.externality(np.array([0.5, 0.5])),
    "step": lambda g: g.step(np.array([0.5, 0.5]), np.zeros(2), BEST_RESPONSE),
    "run_coupled": lambda g: run_coupled(g, np.array([0.5, 0.5]), np.zeros(2),
                                         RunConfig(rule=BEST_RESPONSE, max_iterations=5)),
}


@pytest.mark.parametrize("kind", OWN_COST)
@pytest.mark.parametrize("entry", ORACLE_ENTRIES)
def test_an_oracle_failure_names_the_oracle_and_the_own_cost_fails_first(kind, entry):
    call = ORACLE_ENTRIES[entry]
    nan, zero = (lambda x: np.array([np.nan, 0.0])), (lambda x: np.zeros(2))
    for own, social_grad, what in ((nan, zero, OWN_COST[kind]), (zero, nan, "social gradient")):
        with pytest.raises(EvaluationError, match=f"^{what} oracle returned non-finite values$"):
            call(oracle_game(kind, own, social_grad))
    # the own-cost oracle is called before social_grad
    with pytest.raises(OracleFailed, match="^own$"):
        call(oracle_game(kind, failing("own"), failing("social")))


@pytest.mark.parametrize("kind", OWN_COST)
def test_a_nonfinite_oracle_fails_the_sampled_lipschitz_bound(kind):
    # a NaN ratio once dropped out of the max: a bound of 1e-12 and a step of 9e11
    game = oracle_game(kind, lambda x: np.array([np.nan, 0.0]), lambda x: np.zeros(2))
    message = f"^{OWN_COST[kind]} oracle returned non-finite values$"
    with pytest.raises(EvaluationError, match=message):
        game.default_eta("quadratic")
    config = RunConfig(rule=StrategyUpdateRule("gradient"), max_iterations=5)
    with pytest.raises(EvaluationError, match=message):
        run_coupled(game, np.array([0.5, 0.5]), np.zeros(2), config)


@pytest.mark.parametrize("rule", [StrategyUpdateRule("best_response"),
                                  StrategyUpdateRule("gradient", eta=0.1),
                                  StrategyUpdateRule("gradient", eta=0.1, regularizer="entropy")],
                         ids=["best_response", "quadratic", "entropy"])
def test_a_nonfinite_action_cost_is_named_under_every_simplex_rule(rule):
    # the quadratic rule's projection once failed first, naming no oracle
    game = oracle_game("nonatomic", lambda x: np.array([np.nan, 0.0]), lambda x: np.zeros(2))
    with pytest.raises(EvaluationError, match="^action cost oracle returned non-finite values$"):
        run_coupled(game, np.array([0.5, 0.5]), np.zeros(2),
                    RunConfig(rule=rule, max_iterations=5))


def test_externality_nonfinite_oracle_raises():
    g = NonAtomicGame(masses=[1.0], action_counts=(2,),
                      action_cost=lambda x: np.array([np.nan, 0.0]),
                      social=lambda x: 0.0,
                      social_grad=lambda x: np.zeros(2))
    with pytest.raises(EvaluationError):
        g.externality(np.array([0.5, 0.5]))


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


def test_certificates_pass_a_point_within_the_slack_of_a_bound():
    # check_feasible lets such a point through, and the verdict is the certificate's
    assert certify_nash_atomic(box_game(), [-5e-10, 0.0], np.zeros(2))[0]
    game = QuadraticAggregativeSpec(q=[1.0, 1.0, 1.0], A=np.zeros((3, 3)), alpha=1.0,
                                    zeta=[0.0, 0.0, 1.0]).to_game()
    assert certify_social_optimum(game, [0.0, 0.0, 1.0]) == (True, 0.0)


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

def test_atomic_finite_box_midpoint_and_clipped_optimum():
    # the unconstrained optimum (1, 2) lies outside the box, so the optimum
    # clips to the upper bounds
    g = AtomicGame(lower=[-1.0, 0.0], upper=[0.5, 1.0],
                   loss_grad=lambda x: 2.0 * x,
                   social=lambda x: float(0.5 * np.sum((x - [1.0, 2.0]) ** 2)),
                   social_grad=lambda x: np.asarray(x, float) - [1.0, 2.0])
    np.testing.assert_array_equal(g.uniform_point(), [-0.25, 0.5])
    assert certify_social_optimum(g, np.array([0.5, 1.0]), 1e-8)[0]


def test_atomic_game_closed_form_optimum():
    g = aggregative_game([1.0, 1.0], [[0, 1], [1, 0]], 0.5, [1.0, 2.0])
    assert g.known_optimum() is None
    with_opt = AtomicGame(g.lower, g.upper, g.loss_grad, g.social,
                          g.social_grad, optimum=[1.0, 2.0])
    np.testing.assert_array_equal(with_opt.known_optimum(), [1.0, 2.0])
    # p† = e(x†) = -M x† with M = [[1, 0.5], [0.5, 1]]
    np.testing.assert_allclose(with_opt.externality(with_opt.known_optimum()), [-2.0, -2.5],
                               atol=1e-15)
    with pytest.raises(SpecError):
        AtomicGame(g.lower, g.upper, g.loss_grad, g.social,
                   g.social_grad, optimum=[1.0])
    assert two_link_game().known_optimum() is None


# ---------------------------------------------------------------------------
# responses and equilibrium solvers
# ---------------------------------------------------------------------------

def test_best_response_nonatomic_lowest_index_tiebreak():
    g = NonAtomicGame(masses=[1.0], action_counts=(3,),
                      action_cost=lambda x: np.array([1.0, 1.0, 1.0]),
                      social=lambda x: float(np.sum(x)),
                      social_grad=lambda x: np.ones(3))
    f = g.target(g.uniform_point(), np.zeros(3), StrategyUpdateRule("best_response"))
    np.testing.assert_allclose(f, [1.0, 0.0, 0.0])


def test_solve_equilibrium_nonatomic_halves_a_step_that_overshoots():
    # steep costs: the first full step from the uniform point raises the
    # residual from 0.3 to 11.7, and the step is halved until it does not
    g = NonAtomicGame(masses=[1.0, 2.0], action_counts=(2, 3),
                      action_cost=lambda x: 40.0 * x + [0.0, 0.1, 0.0, 0.2, 0.3],
                      social=lambda x: 0.0, social_grad=lambda x: np.zeros(5))
    p = np.zeros(5)
    x0 = g.uniform_point()
    assert (certify_nash_nonatomic(g, g.project(x0 - g.action_cost(x0)), p)[1]
            > certify_nash_nonatomic(g, x0, p)[1])
    x = games.solve_equilibrium_nonatomic(g, p)
    assert certify_nash_nonatomic(g, x, p, 1e-8)[0]
    # equal costs within each population: 40 x_a + c_a is constant on a block
    np.testing.assert_allclose(x, [0.50125, 0.49875, 2.0125 / 3, 1.9975 / 3, 1.99 / 3],
                               rtol=0, atol=1e-10)


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


def nonatomic_games():
    from incentive_dynamics import routing
    offsets = np.array([0.0, 0.1, 0.0, 0.2, 0.3])
    steep = NonAtomicGame(masses=[1.0, 2.0], action_counts=(2, 3),
                          action_cost=lambda x: 40.0 * x + offsets,
                          social=lambda x: 0.0, social_grad=lambda x: np.zeros(5))
    # costs that fall with use: steps that raise the residual are refused until a restart
    crowding = dataclasses.replace(steep, action_cost=lambda x: offsets - 4.0 * x)
    views = [routing.nonatomic_view(routing.load_fixture(name))
             for name in ("two_link", "pigou", "braess")]
    return [steep, crowding, *views]


def test_solve_equilibrium_nonatomic_matches_its_reference_loop_bitwise():
    def outcome(solve, game, p, x0, max_iter):
        calls = []
        game = dataclasses.replace(game, action_cost=counting(game.action_cost, calls))
        try:
            return solve(game, p, x0=x0, max_iter=max_iter), None, len(calls)
        except ConvergenceError as exc:  # a stall: compare where it stopped
            return exc.best, exc.args, len(calls)

    rng = np.random.default_rng(12)
    for game in nonatomic_games():
        zero = np.zeros(game.dim)
        # a budget of 300 stops the crowding game between restarts
        cases = [(zero, None, 200000), (zero, None, 300)]
        cases += [(rng.normal(size=game.dim), x0, 200000)
                  for x0 in (None, game.random_start(rng), game.random_start(rng))]
        for p, x0, max_iter in cases:
            x, stall, calls = outcome(games.solve_equilibrium_nonatomic, game, p, x0, max_iter)
            ref, ref_stall, ref_calls = outcome(nonatomic_loop_reference, game, p, x0, max_iter)
            np.testing.assert_array_equal(x, ref)
            assert stall == ref_stall
            assert calls <= ref_calls


def tolerance_entries():
    """Each public solver and certificate that takes a ``tol``, as a call on
    a game whose oracles count their calls: name -> (call, calls, budgeted)."""
    atomic_calls, nonatomic_calls = [], []
    atomic = aggregative_game([1.0, 1.0], [[0, 1], [1, 0]], 0.5, [0.0, 0.0])
    atomic = dataclasses.replace(atomic, loss_grad=counting(atomic.loss_grad, atomic_calls),
                                 social_grad=counting(atomic.social_grad, atomic_calls))
    nonatomic = two_link_game()
    nonatomic = dataclasses.replace(
        nonatomic, action_cost=counting(nonatomic.action_cost, nonatomic_calls))
    x, y, zero = np.zeros(2), np.array([0.5, 0.5]), np.zeros(2)
    return {
        "certify_nash_atomic": (lambda **kw: certify_nash_atomic(atomic, x, zero, **kw),
                                atomic_calls, False),
        "certify_nash_nonatomic": (lambda **kw: certify_nash_nonatomic(nonatomic, y, zero, **kw),
                                   nonatomic_calls, False),
        "certify_social_optimum": (lambda **kw: certify_social_optimum(atomic, x, **kw),
                                   atomic_calls, False),
        "solve_equilibrium_atomic": (lambda **kw: solve_equilibrium_atomic(atomic, zero, **kw),
                                     atomic_calls, True),
        "solve_equilibrium_nonatomic": (
            lambda **kw: games.solve_equilibrium_nonatomic(nonatomic, zero, **kw),
            nonatomic_calls, True),
    }


@pytest.mark.parametrize("name", sorted(tolerance_entries()))
@pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
def test_a_bad_tolerance_fails_before_any_oracle_call(name, tol):
    # a NaN tol fails every ``<=``: solvers ran their whole budget, and the
    # certificates reported a zero residual as failing
    call, calls, _ = tolerance_entries()[name]
    with pytest.raises(InvalidArgumentError, match="tol must be finite and positive"):
        call(tol=tol)
    assert calls == []


@pytest.mark.parametrize("name", [n for n, (_, _, budgeted) in tolerance_entries().items()
                                  if budgeted])
def test_solvers_reject_a_budget_that_is_no_positive_integer(name):
    call, calls, _ = tolerance_entries()[name]
    for max_iter in (0, -3, 2.5, np.nan):
        with pytest.raises(InvalidArgumentError, match="max_iter must be a positive integer"):
            call(max_iter=max_iter)
    assert calls == []
    np.testing.assert_array_equal(call(max_iter=1e3), call(), strict=True)


# ---------------------------------------------------------------------------
# closed-form-free atomic best response
# ---------------------------------------------------------------------------

def separable_game(lower, upper, loss_grad):
    """Players whose costs do not depend on each other."""
    n = len(lower)
    return AtomicGame(lower=lower, upper=upper, loss_grad=loss_grad, social=lambda x: 0.0,
                      social_grad=lambda x: np.zeros(n))


def test_best_response_atomic_finite_box():
    # own partial 2 (x - c): minimisers below, above and inside [0, 1]
    c = np.array([-0.7, 1.9, 0.3])
    g = separable_game(np.zeros(3), np.ones(3), lambda x: 2.0 * (x - c))
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
                       lambda x: x - c)
    f = games.best_response_atomic(g, np.array([-1.0, 0.0, 40.0, 1.0]), np.zeros(4))
    np.testing.assert_allclose(f, [-5.0, 2.0, 2.0, 0.0], rtol=0, atol=1e-14)


def test_best_response_atomic_stops_at_a_far_finite_bound():
    # the own partial y - 2e15 is negative on all of [0, 1e15]: the doubling
    # steps pass BRACKET_MAX_STEP, so the next trial point is the bound itself
    assert games.nondecreasing_root(lambda y: y - 2e15, 0, 0.0, None, 0.0, 1e15) == 1e15
    g = separable_game(np.zeros(1), np.full(1, 1e15), lambda x: x - 2e15)
    assert games.best_response_atomic(g, np.zeros(1), np.zeros(1))[0] == 1e15


def test_best_response_atomic_quartic_own_cost():
    # loss_i = (x_i - a_i)^4 / 4 + b_i x_i sum_{j != i} x_j
    rng = np.random.default_rng(21)
    n = 6
    a, b = rng.uniform(-1, 1, n), rng.uniform(-0.5, 0.5, n)
    g = AtomicGame(lower=np.full(n, -np.inf), upper=np.full(n, np.inf),
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
        game = seeded_spec(n, rng).to_game()
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
        game = seeded_spec(n, rng).to_game()
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


def test_best_response_step_takes_the_gradient_at_x_once():
    # the externality reuses the gradient that the best response took at x
    rng = np.random.default_rng(25)
    generic, calls = counting_game(without_closed_forms(seeded_spec(5, rng).to_game()))
    x, p = rng.normal(size=5), rng.normal(size=5)
    games.best_response_atomic(generic, x, p)
    alone = len(calls)
    calls.clear()
    generic.step(x, p, StrategyUpdateRule("best_response"))
    assert len(calls) == alone


def test_best_response_atomic_coupled_records_match_closed_form():
    rng = np.random.default_rng(24)
    for n, budget in ((5, 20000), (50, 200)):
        game = seeded_spec(n, rng).to_game()
        # under the former default the n = 50 run still stops on its budget of 200
        cfg = RunConfig(schedule=FORMER_SCHEDULE, rule=StrategyUpdateRule("best_response"),
                        max_iterations=budget, convergence_tol=1e-4)
        ref = run_coupled(game, np.zeros(n), np.zeros(n), cfg)
        rec = run_coupled(without_closed_forms(game), np.zeros(n), np.zeros(n), cfg)
        assert (rec.iterations, rec.converged) == (ref.iterations, ref.converged)
        assert ref.converged == (n == 5)
        np.testing.assert_allclose(rec.xs, ref.xs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rec.ps, ref.ps, rtol=0, atol=1e-12)


def test_best_response_atomic_unbounded_own_cost_fails_fast():
    # player 1's cost x_1 falls without end on the real line
    g, calls = counting_game(separable_game(np.full(2, -np.inf), np.full(2, np.inf),
                                            lambda x: np.array([x[0], 1.0])))
    with pytest.raises(ConvergenceError, match="player 1 has no minimiser"):
        games.best_response_atomic(g, np.zeros(2), np.zeros(2))
    assert len(calls) < 50


def test_best_response_atomic_nonfinite_partial_raises():
    nan_everywhere = separable_game(np.full(2, -np.inf), np.full(2, np.inf),
                                    lambda x: np.full(2, np.nan))
    with pytest.raises(EvaluationError, match="player 0"):
        games.best_response_atomic(nan_everywhere, np.zeros(2), np.zeros(2))
    # finite at the start, infinite beyond x = 2 on the way to the root at 3
    blows_up = separable_game(np.full(2, -np.inf), np.full(2, np.inf),
                              lambda x: np.where(x > 2.0, np.inf, x - 3.0))
    with pytest.raises(EvaluationError, match="player 0"):
        games.best_response_atomic(blows_up, np.zeros(2), np.zeros(2))
