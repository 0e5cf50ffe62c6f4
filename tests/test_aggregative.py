import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incentive_dynamics import aggregative as agg
from incentive_dynamics import analysis, games, numdiff
from incentive_dynamics.aggregative import (QuadraticAggregativeSpec,
                                            QuadraticTerm, QuarticTerm,
                                            TableTerm, check_global_conditions,
                                            check_local_conditions, from_json,
                                            lyapunov_decrement, lyapunov_value,
                                            nash_closed_form,
                                            optimal_incentive)
from incentive_dynamics.dynamics import RunConfig, StrategyUpdateRule, run_coupled
from incentive_dynamics.errors import GameError, InvalidArgumentError, SpecError

M1_SPEC = dict(q=[1.0, 1.0], A=[[0.0, 0.1], [1.0, 0.0]], alpha=1.0,
               zeta=[-1.0, -0.5])  # M = [[1, 0.1], [1, 1]]
M2_SPEC = dict(q=[1.0, 1.0], A=[[0.0, -0.1], [-0.1, 0.0]], alpha=1.0,
               zeta=[-1.0, -0.5])  # M = [[1, -0.1], [-0.1, 1]]


def example_spec(zeta=(0.0, 0.0)):
    return QuadraticAggregativeSpec(q=[1.0, 1.0], A=[[0, 1], [1, 0]],
                                    alpha=0.5, zeta=list(zeta))


def spec_losses(spec, x):
    """Each player's own cost q_i x_i^2 / 2 + alpha x_i (A x)_i, whose
    derivative in x_i is ``spec.loss_grad``."""
    x = np.asarray(x, dtype=float)
    return 0.5 * spec.q * x * x + spec.alpha * x * (spec.A @ x)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(SpecError):
        QuadraticAggregativeSpec(q=[0.0, 1.0], A=[[0, 0], [0, 0]], alpha=1.0,
                                 zeta=[0.0, 0.0])
    with pytest.raises(SpecError):
        QuadraticAggregativeSpec(q=[1.0, 1.0], A=[[1, 0], [0, 0]], alpha=1.0,
                                 zeta=[0.0, 0.0])
    with pytest.raises(SpecError):
        QuadraticAggregativeSpec(q=[1.0, 1.0], A=[[0, 0], [0, 0]], alpha=-1.0,
                                 zeta=[0.0, 0.0])
    with pytest.raises(SpecError):
        QuadraticAggregativeSpec(q=[1.0, 1.0], A=[[0, 0], [0, 0]], alpha=1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, value, message", [
    ("q", [NAN, 1.0], "q must be finite"),
    ("q", [INF, 1.0], "q must be finite"),
    ("A", [[NAN, 0.0], [0.0, 0.0]], "network matrix must be finite"),
    ("A", [[0.0, INF], [0.0, 0.0]], "network matrix must be finite"),
    ("alpha", NAN, "alpha must be finite"),
    ("alpha", INF, "alpha must be finite"),
    ("zeta", [NAN, 0.0], "operator-cost zeta must be finite"),
    ("zeta", [0.0, -INF], "operator-cost zeta must be finite"),
])
def test_nonfinite_spec_fails_before_the_condition_check(monkeypatch, field, value, message):
    def no_svd(*args, **kwargs):
        raise AssertionError("the condition check ran on an invalid spec")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    kwargs = dict(q=[1.0, 1.0], A=[[0.0, 0.2], [0.2, 0.0]], alpha=0.5, zeta=[0.0, 0.0])
    kwargs[field] = value
    with pytest.raises(SpecError, match=message):
        QuadraticAggregativeSpec(**kwargs)


def test_spec_without_players_fails_before_any_factorisation(monkeypatch):
    def no_factorisation(*args, **kwargs):
        raise AssertionError("a spec without players was factored")

    for name in ("svd", "inv"):
        monkeypatch.setattr(np.linalg, name, no_factorisation)
    with pytest.raises(SpecError, match="at least one player"):
        QuadraticAggregativeSpec(q=[], A=np.zeros((0, 0)), alpha=1.0, zeta=[])


@pytest.mark.parametrize("make, message", [
    (lambda: QuadraticTerm(NAN), "operator-cost zeta must be finite"),
    (lambda: QuarticTerm(INF), "operator-cost zeta must be finite"),
    (lambda: TableTerm([0.0, NAN, 2.0], [0.0, 1.0, 2.0]), "table term points must be finite"),
    (lambda: TableTerm([0.0, 1.0, 2.0], [-INF, 1.0, 2.0]),
     "table term gradients must be finite"),
], ids=["quadratic", "quartic", "table_points", "table_grads"])
def test_operator_cost_terms_reject_nonfinite_parameters(make, message):
    with pytest.raises(SpecError, match=message):
        make()


def test_singular_m_rejected_naming_invertibility():
    # q = (1, 1), alpha = 1, A = [[0, 1], [1, 0]] gives singular M
    with pytest.raises(SpecError, match="M invertibility"):
        QuadraticAggregativeSpec(q=[1.0, 1.0], A=[[0, 1], [1, 0]], alpha=1.0,
                                 zeta=[0.0, 0.0])


def test_gradient_oracles_match_finite_differences():
    spec = example_spec(zeta=(1.0, -2.0))
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.uniform(-2, 2, 2)
        fd_social = numdiff.central_gradient(spec.social, x)
        np.testing.assert_allclose(spec.social_grad(x), fd_social,
                                   rtol=1e-5, atol=1e-5)
        fd_loss = np.diag(numdiff.central_jacobian(lambda y: spec_losses(spec, y), x))
        np.testing.assert_allclose(spec.loss_grad(x), fd_loss,
                                   rtol=1e-5, atol=1e-5)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_nash_closed_form_values():
    spec = example_spec()
    np.testing.assert_allclose(nash_closed_form(spec, np.zeros(2)), np.zeros(2))
    x = nash_closed_form(spec, np.array([1.0, 1.0]))
    np.testing.assert_allclose(x, [-2.0 / 3.0, -2.0 / 3.0], atol=1e-12)
    ok, _ = games.certify_nash_atomic(spec.to_game(), x,
                                      np.array([1.0, 1.0]), 1e-8)
    assert ok


def test_nash_closed_form_dimension_check():
    with pytest.raises(InvalidArgumentError):
        nash_closed_form(example_spec(), np.zeros(3))


def test_nash_closed_form_matches_a_linear_solve():
    rng = np.random.default_rng(4)
    for n in (1, 5, 50):
        A = rng.uniform(0.0, 1.0, (n, n)) / n
        np.fill_diagonal(A, 0.0)
        spec = QuadraticAggregativeSpec(q=rng.uniform(0.5, 2.0, n), A=A, alpha=0.5,
                                        zeta=rng.uniform(-1.0, 1.0, n))
        for _ in range(5):
            p = rng.normal(scale=3.0, size=n)
            np.testing.assert_allclose(nash_closed_form(spec, p), np.linalg.solve(spec.M, -p),
                                       rtol=1e-12, atol=0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="incentive vector must be finite"):
            nash_closed_form(example_spec(), np.array([0.0, bad]))


def test_optimal_incentive_values():
    assert np.all(optimal_incentive(example_spec()) == 0.0)
    spec = example_spec(zeta=(1.0, 2.0))
    p = optimal_incentive(spec)
    np.testing.assert_allclose(p, [-2.0, -2.5], atol=1e-12)
    # fixed-point equation e(x*(p†)) = p†
    x = nash_closed_form(spec, p)
    np.testing.assert_allclose(spec.to_game().externality(x), p, atol=1e-10)


def test_fixed_point_alignment_with_social_optimum():
    spec = example_spec(zeta=(1.0, 2.0))
    x = nash_closed_form(spec, optimal_incentive(spec))
    ok, resid = games.certify_social_optimum(spec.to_game(), x, 1e-8)
    assert ok, resid
    np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-10)


def test_game_view_carries_the_closed_form_optimum():
    rng = np.random.default_rng(3)
    specs = [example_spec(zeta=(1.0, 2.0)),
             QuadraticAggregativeSpec(q=[1.0, 1.0], A=[[0, 0.2], [0.2, 0]], alpha=0.5,
                                      h=(QuarticTerm(0.7), QuarticTerm(-0.4)))]
    for n in (5, 50):
        A = rng.uniform(0.0, 1.0, (n, n)) / n
        np.fill_diagonal(A, 0.0)
        specs.append(QuadraticAggregativeSpec(q=rng.uniform(1.0, 2.0, n), A=A, alpha=0.5,
                                              zeta=rng.uniform(-1.0, 1.0, n)))
    for spec in specs:
        game = spec.to_game()
        np.testing.assert_array_equal(game.known_optimum(), spec.y_dagger())
        np.testing.assert_allclose(game.externality(game.known_optimum()),
                                   optimal_incentive(spec), rtol=0, atol=1e-12)


def test_closed_form_matches_best_response_iteration():
    spec = example_spec(zeta=(0.5, -0.5))
    p = np.array([0.2, -0.7])
    game = spec.to_game()
    x = spec.q * 0.0  # start at the origin
    for _ in range(200):
        x = games.best_response_atomic(game, x, p)
    np.testing.assert_allclose(x, nash_closed_form(spec, p), atol=1e-6)


# ---------------------------------------------------------------------------
# operator-cost forms
# ---------------------------------------------------------------------------

def test_h_form_quadratic_recovers_zeta_answer():
    zeta = np.array([1.0, 2.0])
    s1 = example_spec(zeta=tuple(zeta))
    s2 = QuadraticAggregativeSpec(q=[1.0, 1.0], A=[[0, 1], [1, 0]], alpha=0.5,
                                  h=tuple(QuadraticTerm(z) for z in zeta))
    np.testing.assert_allclose(optimal_incentive(s2), optimal_incentive(s1),
                               atol=1e-10)
    np.testing.assert_allclose(s2.y_dagger(), zeta, atol=1e-12)


def random_spec(rng, n, **cost):
    A = rng.uniform(0.0, 1.0, (n, n)) / n
    np.fill_diagonal(A, 0.0)
    return QuadraticAggregativeSpec(q=rng.uniform(1.0, 2.0, n), A=A, alpha=0.5, **cost)


def test_zeta_and_quadratic_h_forms_agree_bitwise():
    rng = np.random.default_rng(7)
    for n in (1, 5, 40):
        zeta = rng.uniform(-1.0, 1.0, n)
        s1 = random_spec(rng, n, zeta=zeta)
        s2 = QuadraticAggregativeSpec(q=s1.q, A=s1.A, alpha=s1.alpha,
                                      h=tuple(QuadraticTerm(z) for z in zeta))
        for _ in range(5):
            x = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=n)
            assert s1.social(x) == s2.social(x)
            np.testing.assert_array_equal(s1.social_grad(x), s2.social_grad(x))
        for variant in ("equilibrium", "best_response", "gradient"):
            cfg = RunConfig(rule=StrategyUpdateRule(variant), max_iterations=300,
                            convergence_tol=1e-9)
            r1 = run_coupled(s1.to_game(), np.zeros(n), np.zeros(n), cfg)
            r2 = run_coupled(s2.to_game(), np.zeros(n), np.zeros(n), cfg)
            for f in ("ks", "xs", "ps", "residuals", "social_costs", "converged",
                      "iterations"):
                assert np.array_equal(getattr(r1, f), getattr(r2, f)), (n, variant, f)


def test_mixed_operator_cost_matches_per_term_sum_bitwise():
    rng = np.random.default_rng(8)
    table = TableTerm([-12.0, -0.5, 0.0, 1.5, 12.0], [-30.0, -1.0, 0.25, 1.0, 40.0])
    # 35 players, enough for a pairwise (non-sequential) sum to differ
    terms = (QuadraticTerm(0.3), QuarticTerm(-0.6), table, QuarticTerm(1.1),
             QuadraticTerm(-2.0), table, QuadraticTerm(0.0)) * 5
    spec = random_spec(rng, len(terms), h=terms)
    for _ in range(200):
        x = rng.normal(scale=10.0 ** rng.integers(-3, 3), size=len(terms))
        # the per-player evaluation the arrays replace: builtin sum, left to right
        assert spec.social(x) == float(sum(t.value(xi) for t, xi in zip(terms, x)))
        np.testing.assert_array_equal(spec.social_grad(x),
                                      np.array([t.grad(xi) for t, xi in zip(terms, x)]))
    # one player per spec, so that no sum can absorb a last-bit difference
    for term in terms[:3]:
        single = random_spec(rng, 1, h=(term,))
        for xi in rng.normal(scale=10.0 ** rng.integers(-3, 3, 3000)):
            assert single.social(np.array([xi])) == float(0 + term.value(xi))
            assert single.social_grad(np.array([xi]))[0] == term.grad(xi)


def test_spec_invariants_are_computed_once(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    # np.linalg.cond and np.linalg.norm(M, 2) call the implementation module's svd
    impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    for module in (np.linalg, impl):
        monkeypatch.setattr(module, "svd", counting_svd)
    spec = example_spec(zeta=(1.0, 2.0))
    g1, g2 = spec.to_game(), spec.to_game()
    assert len(calls) == 1
    monkeypatch.undo()
    expected_norm = float(np.linalg.norm(spec.M, 2))
    assert g1.lipschitz_bound == g2.lipschitz_bound == expected_norm
    W = np.linalg.inv(spec.M).T
    rng = np.random.default_rng(2)
    for _ in range(5):
        p = rng.normal(size=2)
        d = p - optimal_incentive(spec)
        assert lyapunov_value(spec, p) == float(d @ W @ d)
        drift = spec.to_game().externality(nash_closed_form(spec, p)) - p
        assert lyapunov_decrement(spec, p) == float(((W + W.T) @ d) @ drift)


def test_quartic_root_and_externality():
    s = QuadraticAggregativeSpec(q=[1.0, 1.0], A=[[0, 0.2], [0.2, 0]], alpha=0.5,
                                 h=(QuarticTerm(0.7), QuarticTerm(-0.4)))
    np.testing.assert_allclose(s.y_dagger(), [0.7, -0.4], atol=1e-9)
    p = optimal_incentive(s)
    x = nash_closed_form(s, p)
    np.testing.assert_allclose(s.to_game().externality(x), p, atol=1e-8)


def test_table_term_interpolation():
    pts = np.linspace(-2.0, 2.0, 9)
    term = TableTerm(pts, pts - 0.5)  # gradient of 0.5 (y - 0.5)^2
    assert term.grad(0.5) == pytest.approx(0.0, abs=1e-12)
    # value matches the quadratic it samples, up to the integration constant
    ref = QuadraticTerm(0.5)
    offset = term.value(0.0) - ref.value(0.0)
    for y in (-1.5, -0.3, 0.5, 1.9):
        assert term.value(y) - ref.value(y) == pytest.approx(offset, abs=1e-9)


def test_table_term_validation():
    with pytest.raises(SpecError):
        TableTerm([0.0, 1.0], [1.0, 0.0])  # decreasing gradient
    with pytest.raises(SpecError):
        TableTerm([0.0, 0.0], [0.0, 1.0])


@pytest.mark.parametrize("points, root", [((-1.0, 0.0, 1.0), -0.2), ((-9.0, 0.0, 9.0), -1.8)])
def test_a_table_is_probed_on_its_own_points(points, root):
    # samples that stop short of [-10, 10] once failed a probe there
    term = TableTerm(points, (-2.0, 0.5, 3.0))
    spec = QuadraticAggregativeSpec(q=[1.0], A=[[0.0]], alpha=0.5, h=(term,))
    assert spec.y_dagger()[0] == pytest.approx(root, abs=1e-12)
    assert term.grad(spec.y_dagger()[0]) == pytest.approx(0.0, abs=1e-12)


class UserTerm:
    """A term object that is not one of the package's: a gradient, and a probe if given."""

    def __init__(self, grad, probe=None):
        self.grad = grad
        if probe is not None:
            self.probe = probe

    def value(self, y):
        return 0.0


@pytest.mark.parametrize("term, message", [
    # the gradient is 0 from the first sample down: minimisers fill (-inf, 0]
    (TableTerm([0.0, 1.0], [0.0, 1.0]), "operator-cost term 0 has no unique minimiser: its "
     "gradient must change sign strictly inside [0, 1]"),
    (TableTerm([0.0, 1.0], [0.5, 1.0]), "operator-cost term 0 has no unique minimiser"),
    (UserTerm(lambda y: -np.asarray(y)), "operator-cost gradients must be strictly increasing"),
    (UserTerm(lambda y: np.abs(y) - 1.0), "operator-cost gradients must be strictly increasing"),
    # without a probe of its own a user term is probed on [-10, 10], which misses its root
    (UserTerm(lambda y: np.asarray(y) - 50.0), "operator-cost term 0 has no unique minimiser: "
     "its gradient must change sign strictly inside [-10, 10]"),
], ids=["table_flat_from_its_root", "table_without_root", "user_decreasing", "user_not_monotone",
        "user_root_outside_the_default_probe"])
def test_a_term_without_one_minimiser_in_its_probe_is_rejected(term, message):
    with pytest.raises(SpecError, match=re.escape(message)):
        QuadraticAggregativeSpec(q=[1.0], A=[[0.0]], alpha=0.5, h=(term,))


def test_a_user_term_may_give_its_own_probe():
    term = UserTerm(lambda y: np.asarray(y) - 50.0, probe=np.array([40.0, 50.5, 60.0]))
    spec = QuadraticAggregativeSpec(q=[1.0], A=[[0.0]], alpha=0.5, h=(term,))
    assert spec.y_dagger()[0] == pytest.approx(50.0, abs=1e-12)


def test_grad_root_bracket_failure():
    class AlwaysPositive:
        def grad(self, y):
            return np.asarray(y) * 0.0 + 1.0

    with pytest.raises(SpecError):
        agg._grad_root(AlwaysPositive())


def test_from_json_forms():
    s = from_json({"q": [1.0, 1.0], "A": [[0, 1], [1, 0]], "alpha": 0.5,
                   "zeta": [1.0, 2.0]})
    np.testing.assert_allclose(optimal_incentive(s), [-2.0, -2.5])
    s2 = from_json({"q": [1.0, 1.0], "A": [[0, 0.2], [0.2, 0]], "alpha": 0.5,
                    "h": [{"kind": "quadratic", "zeta": 1.0},
                          {"kind": "quartic", "zeta": -1.0}]})
    np.testing.assert_allclose(s2.y_dagger(), [1.0, -1.0], atol=1e-9)
    with pytest.raises(SpecError):
        from_json({"q": [1.0], "A": [[0.0]], "alpha": 1.0,
                   "h": [{"kind": "mystery"}]})


# ---------------------------------------------------------------------------
# condition checkers
# ---------------------------------------------------------------------------

def test_global_conditions_pass_case():
    report = check_global_conditions(example_spec())
    assert report["passed"] and report["symmetric"]
    np.testing.assert_allclose(sorted([0.5, 1.5]),
                               [report["min_eigenvalue"], 1.5], atol=1e-12)


def test_global_conditions_m1_fails_symmetry():
    report = check_global_conditions(QuadraticAggregativeSpec(**M1_SPEC))
    assert not report["symmetric"] and not report["passed"]


def test_global_conditions_m2_passes():
    report = check_global_conditions(QuadraticAggregativeSpec(**M2_SPEC))
    assert report["passed"]


def test_local_conditions_m1_passes():
    report = check_local_conditions(QuadraticAggregativeSpec(**M1_SPEC))
    assert report["passed"]
    assert report["entries_nonnegative"]
    assert report["inverse_offdiag_negative"]
    assert report["y_dagger_nonpositive"]


def test_local_conditions_m2_fails():
    report = check_local_conditions(QuadraticAggregativeSpec(**M2_SPEC))
    assert not report["entries_nonnegative"] and not report["passed"]


def test_local_conditions_diagonal_m():
    s = QuadraticAggregativeSpec(q=[1.0], A=[[0.0]], alpha=1.0, zeta=[0.0])
    assert check_local_conditions(s)["passed"]


# ---------------------------------------------------------------------------
# Lyapunov certificate
# ---------------------------------------------------------------------------

def test_lyapunov_zero_at_fixed_point():
    spec = example_spec(zeta=(1.0, 2.0))
    p = optimal_incentive(spec)
    assert lyapunov_value(spec, p) == pytest.approx(0.0, abs=1e-14)
    assert lyapunov_decrement(spec, p) == pytest.approx(0.0, abs=1e-12)


def test_lyapunov_decrement_identity_zeta_form():
    spec = example_spec(zeta=(1.0, 2.0))
    rng = np.random.default_rng(1)
    zeta = np.array([1.0, 2.0])
    for _ in range(20):
        p = rng.normal(scale=2.0, size=2)
        dec = lyapunov_decrement(spec, p)
        x = nash_closed_form(spec, p)
        assert dec == pytest.approx(-2.0 * float(np.sum((x - zeta) ** 2)),
                                    abs=1e-8)
        if np.max(np.abs(p - optimal_incentive(spec))) > 1e-8:
            assert dec < 0.0
            assert lyapunov_value(spec, p) > 0.0


# ---------------------------------------------------------------------------
# power terms: minimised at zeta, one spec for the zeta and the h form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("terms", [
    (QuadraticTerm(1e13), QuadraticTerm(-1.0)),
    (QuadraticTerm(1e60), QuadraticTerm(-1.0)),
    (QuarticTerm(1e120), QuadraticTerm(-1.0)),
    (QuarticTerm(0.7), QuarticTerm(-0.4), QuarticTerm(1.1), QuarticTerm(2.5)),
], ids=["quadratic-1e13", "quadratic-1e60", "quartic-1e120", "quartic-ordinary"])
def test_power_terms_are_minimised_exactly_at_zeta(terms):
    # a gradient root search would give up beyond its 1e12 bracket, a probe of
    # the gradients would round to flat or overflow, and a root misses by ulps
    n = len(terms)
    spec = QuadraticAggregativeSpec(q=np.ones(n), A=np.zeros((n, n)), alpha=1.0, h=terms)
    np.testing.assert_array_equal(spec.y_dagger(), [t.zeta for t in terms])
    assert analysis.verify_fixed_point_optimality(spec)["passed"]


# finite zeta of either sign, with magnitudes from 1e-300 to 1e300
ZETAS = st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
                  st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0))


def table_term(start, grad_start, steps):
    """Samples from ``(start, grad_start)`` on, each step a positive (dx, dg)."""
    dx, dg = np.array(steps).T
    return TableTerm(np.cumsum([start, *dx]), np.cumsum([grad_start, *dg]))


# tables that may or may not cover the gradient probe's [-10, 10] or a root
TERMS = st.one_of(
    ZETAS.map(QuadraticTerm), ZETAS.map(QuarticTerm),
    st.builds(table_term, st.floats(-25.0, -8.0), st.floats(-40.0, 5.0),
              st.lists(st.tuples(st.floats(2.0, 30.0), st.floats(0.5, 15.0)),
                       min_size=1, max_size=4)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(TERMS, min_size=1, max_size=6), st.integers(0, 2 ** 32 - 1))
def test_mixed_specs_build_or_raise_spec_error(terms, seed):
    try:
        spec = random_spec(np.random.default_rng(seed), len(terms), h=tuple(terms))
    except SpecError:
        return
    for y, t in zip(spec.y_dagger(), terms):
        if not isinstance(t, TableTerm):
            assert y == t.zeta


def outcome(make):
    """``make()``, or the type and message of the package error it raises."""
    try:
        return make()
    except GameError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(ZETAS, min_size=1, max_size=6), st.integers(0, 2 ** 32 - 1))
def test_zeta_and_quadratic_h_forms_are_one_spec(zetas, seed):
    # one seed draws the same q and A for both forms
    s1, s2 = (outcome(lambda: random_spec(np.random.default_rng(seed), len(zetas), **cost))
              for cost in ({"zeta": zetas}, {"h": tuple(QuadraticTerm(z) for z in zetas)}))
    if isinstance(s1, tuple) or isinstance(s2, tuple):
        assert s1 == s2
        return
    np.testing.assert_array_equal(s1.y_dagger(), zetas)
    np.testing.assert_array_equal(s2.y_dagger(), zetas)
    n = len(zetas)
    # overflow is silenced as in a CLI run: the oracle checks report it
    with np.errstate(over="ignore", invalid="ignore"):
        for x in (np.zeros(n), s1.y_dagger(), np.random.default_rng(seed).normal(size=n)):
            assert np.array_equal(s1.social(x), s2.social(x))
            np.testing.assert_array_equal(s1.social_grad(x), s2.social_grad(x))
        for variant in ("equilibrium", "best_response", "gradient"):
            cfg = RunConfig(rule=StrategyUpdateRule(variant), max_iterations=50)
            r1, r2 = (outcome(lambda: run_coupled(s.to_game(), np.zeros(n), np.zeros(n), cfg))
                      for s in (s1, s2))
            if isinstance(r1, tuple) or isinstance(r2, tuple):
                assert r1 == r2, variant
                continue
            for f in ("ks", "xs", "ps", "residuals", "social_costs", "converged",
                      "iterations"):
                assert np.array_equal(getattr(r1, f), getattr(r2, f)), (variant, f)
