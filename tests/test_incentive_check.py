"""Every solver, certificate, analysis and model ``target`` takes its incentive
through ``games.check_incentive``: a malformed incentive raises
``InvalidArgumentError`` naming the incentive vector, before any arithmetic on it."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incentive_dynamics import aggregative as agg
from incentive_dynamics import analysis, games, routing
from incentive_dynamics.dynamics import RunConfig, StrategyUpdateRule, run_coupled
from incentive_dynamics.errors import InvalidArgumentError

SPEC = agg.QuadraticAggregativeSpec(
    q=[1.0, 2.0, 1.5], A=[[0.0, 0.2, 0.1], [0.3, 0.0, 0.2], [0.1, 0.1, 0.0]],
    alpha=0.5, zeta=[0.5, -0.5, 1.0])
BRAESS = routing.braess_network()
MODELS = {
    "aggregative": SPEC,
    "atomic_no_closed_forms": dataclasses.replace(
        SPEC.to_game(), equilibrium=None, best_response=None, optimum=None),
    "nonatomic_braess": routing.nonatomic_view(BRAESS),
    "braess": BRAESS,
}
KINDS = {"aggregative": "spec", "atomic_no_closed_forms": "atomic",
         "nonatomic_braess": "nonatomic", "braess": "routing"}
ATOMIC = {"spec", "atomic"}
ALL = {"spec", "atomic", "nonatomic", "routing"}
WITH_P_DAGGER = {"spec", "routing"}  # the models whose optimum is known


def _at_start(solver):
    """``solver(model, x, p)`` at the model's uniform strategy."""
    def call(obj, p):
        model = analysis.strategy_model(obj)
        return solver(model, model.uniform_point(), p)
    return call


def _on_model(solver):
    return lambda obj, p: solver(analysis.strategy_model(obj), p)


def _target(variant):
    """The model's ``target`` under the rule, at its uniform strategy."""
    rule = StrategyUpdateRule(variant, eta=0.1)
    return _at_start(lambda model, x, p: model.target(x, p, rule))


def _at_edge_flow(function):
    """``function(net, w, p)`` at the edge flow of the uniform route flow."""
    return lambda net, p: function(net, net.incidence @ net.uniform_route_flow(), p)


ENTRY_POINTS = {
    "nash_closed_form": ({"spec"}, agg.nash_closed_form),
    "lyapunov_value": ({"spec"}, agg.lyapunov_value),
    "lyapunov_decrement": ({"spec"}, agg.lyapunov_decrement),
    "solve_equilibrium_atomic": (ATOMIC, _on_model(games.solve_equilibrium_atomic)),
    "best_response_atomic": (ATOMIC, _at_start(games.best_response_atomic)),
    "certify_nash_atomic": (ATOMIC, _at_start(games.certify_nash_atomic)),
    "solve_equilibrium_nonatomic": ({"nonatomic"}, games.solve_equilibrium_nonatomic),
    "certify_nash_nonatomic": ({"nonatomic"}, _at_start(games.certify_nash_nonatomic)),
    "wardrop_equilibrium": ({"routing"}, routing.wardrop_equilibrium),
    "route_costs": ({"routing"}, _at_edge_flow(routing.route_costs)),
    "beckmann_potential": ({"routing"}, _at_edge_flow(routing.beckmann_potential)),
    **{f"target_{variant}": (ALL, _target(variant))
       for variant in ("equilibrium", "best_response", "gradient")},
    "run_coupled": (ALL, _at_start(
        lambda model, x, p: run_coupled(model, x, p, RunConfig(max_iterations=3)))),
    "verify_fixed_point_optimality": (
        ALL, lambda obj, p: analysis.verify_fixed_point_optimality(obj, p=p)),
    "ode_probe": (ALL, lambda obj, p: analysis.ode_probe_slow_dynamics(
        obj, [p], analysis.OdeProbeConfig(step=0.5, horizon=1.0))),
    "condition_c1": (ALL, lambda obj, p: analysis.check_condition_C1(obj, [p])),
    "condition_c2": (WITH_P_DAGGER, lambda obj, p: analysis.check_condition_C2(
        obj, np.eye(analysis.strategy_model(obj).dim), [p])),
    "uniqueness_probe": (ALL, lambda obj, p: analysis.multistart_uniqueness_probe(
        obj, p, n_starts=2)),
    "equilibrium_cost_gradient": (ALL, analysis.equilibrium_cost_gradient),
    "gradient_baseline": (ALL, lambda obj, p: analysis.run_gradient_baseline(
        obj, p, max_iterations=3)),
}
CASES = [(entry, model) for entry, (kinds, _) in ENTRY_POINTS.items()
         for model in MODELS if KINDS[model] in kinds]

FINITE = st.floats(-2.0, 2.0)


@st.composite
def malformed_incentives(draw, n: int):
    """A wrong length (0-d included), a 2-D array, or a NaN or ±inf entry;
    as an array or as the nested lists a JSON config gives."""
    kind = draw(st.sampled_from(["length", "0-d", "2-D", "non-finite"]))
    if kind == "length":
        m = draw(st.integers(0, n + 3).filter(lambda m: m != n))
        p = np.array(draw(st.lists(FINITE, min_size=m, max_size=m)), dtype=float)
    elif kind == "0-d":
        p = np.array(draw(FINITE))
    elif kind == "2-D":
        rows, cols = draw(st.sampled_from([(n, 1), (1, n), (2, n)]))
        p = np.array(draw(st.lists(FINITE, min_size=rows * cols,
                                   max_size=rows * cols))).reshape(rows, cols)
    else:
        p = np.array(draw(st.lists(FINITE, min_size=n, max_size=n)))
        p[draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return p.tolist() if draw(st.booleans()) else p


@pytest.mark.parametrize("entry, model", CASES, ids=[f"{e}-{m}" for e, m in CASES])
@given(data=st.data())
@settings(derandomize=True, max_examples=25, deadline=None)
def test_every_entry_point_rejects_a_malformed_incentive(entry, model, data):
    obj = MODELS[model]
    p = data.draw(malformed_incentives(analysis.strategy_model(obj).dim))
    with pytest.raises(InvalidArgumentError, match="incentive vector"):
        ENTRY_POINTS[entry][1](obj, p)


def test_the_table_covers_every_model_and_entry_point():
    assert {m for _, m in CASES} == set(MODELS)
    assert {e for e, _ in CASES} == set(ENTRY_POINTS)
    assert len(CASES) == 56


def test_a_zero_dimensional_incentive_is_rejected_for_one_player():
    # as run_coupled rejects it; nash_closed_form once took it as a length-1 vector
    spec = agg.QuadraticAggregativeSpec(q=[2.0], A=[[0.0]], alpha=1.0, zeta=[0.5])
    for call in (lambda p: agg.nash_closed_form(spec, p),
                 lambda p: spec.to_game().equilibrium(p),
                 lambda p: run_coupled(spec.to_game(), [0.0], p, RunConfig(max_iterations=3))):
        np.testing.assert_array_equal(call([0.4]), call(np.array([0.4])))
        with pytest.raises(InvalidArgumentError, match=r"incentive vector has shape \(\)"):
            call(0.4)


def test_condition_c2_rejects_a_wrong_length_sample_before_subtracting_p_dagger():
    # [0.5] - p† broadcast to (0, 0) on two_link and was skipped as a sample at p†
    net = routing.two_link_network()
    with pytest.raises(InvalidArgumentError, match=r"incentive vector has shape \(1,\)"):
        analysis.check_condition_C2(net, np.eye(2), [[0.5]])


def test_verify_rejects_a_wrong_length_p_on_a_nonatomic_view():
    # it once printed a FAIL verdict computed from the broadcast p
    with pytest.raises(InvalidArgumentError, match=r"expected \(3,\)"):
        analysis.verify_fixed_point_optimality(MODELS["nonatomic_braess"], p=[0.5])


@pytest.mark.parametrize("helper", [analysis.two_link_equilibrium,
                                    analysis.two_link_equilibrium_cost,
                                    analysis.two_link_clarke_gradient])
@pytest.mark.parametrize("p", [[0.5], [0.1, 0.2, 0.3], [[0.1, 0.2]], [np.nan, 0.0]])
def test_two_link_closed_forms_take_two_finite_tolls(helper, p):
    with pytest.raises(InvalidArgumentError, match="incentive vector"):
        helper(p)
