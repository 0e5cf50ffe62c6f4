"""The model protocol as an executable contract.

``MODELS`` holds each test model once, tagged with its kind (``"box"``, an
atomic game; ``"simplex"``, a non-atomic game; ``"network"``, a routing
network) and with whether it knows its optimum; the rules it accepts follow
from its kind, as only a simplex takes the entropy step. Each clause runs on
every model of the kinds it applies to, under every rule the model accepts.
An adapter joins the contract with one entry in ``MODELS``.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (BOX_RULES, RULES, SIMPLEX_RULES, grid34, mixed_spec, seeded_spec,
                    two_link_game, without_closed_forms)
from incentive_dynamics import aggregative as agg
from incentive_dynamics import analysis, games, routing
from incentive_dynamics.aggregative import QuadraticAggregativeSpec, QuadraticTerm, QuarticTerm
from incentive_dynamics.analysis import OdeProbeConfig
from incentive_dynamics.dynamics import (RunConfig, StrategyUpdateRule, _with_default_step,
                                         externality, run_coupled, strategy_target)
from incentive_dynamics.errors import InvalidArgumentError
from incentive_dynamics.games import AtomicGame, NonAtomicGame, check_incentive
from incentive_dynamics.routing import RoutingNetwork, braess_network, nonatomic_view


@dataclasses.dataclass(frozen=True)
class Entry:
    model: object
    kind: str  # "box", "simplex" or "network"
    knows_optimum: bool  # whether known_optimum() gives x†

    @property
    def rules(self) -> tuple:
        """The (variant, regularizer) pairs the model accepts."""
        return BOX_RULES if self.kind == "box" else SIMPLEX_RULES


def _oracle_atomic(lower, upper):
    return AtomicGame(lower=lower, upper=upper, loss_grad=lambda x: x,
                      social=lambda x: float(x @ x), social_grad=lambda x: 2.0 * x)


_SOLVED = without_closed_forms(seeded_spec(4, 5).to_game())
MODELS = {
    # spec games: closed forms, and one pass per step
    "aggregative": Entry(seeded_spec(4, 5).to_game(), "box", True),
    "aggregative_quartic": Entry(
        mixed_spec(4, 5, (QuarticTerm(0.3), QuadraticTerm(-0.4))).to_game(), "box", True),
    "aggregative_table": Entry(mixed_spec(4, 5).to_game(), "box", True),
    # the inner solves run in ``games``
    "atomic_no_closed_forms": Entry(_SOLVED, "box", True),
    "finite_box": Entry(dataclasses.replace(_SOLVED, optimum=None, lower=np.full(4, -0.3),
                                            upper=np.full(4, 0.4)), "box", False),
    "boxed_atomic": Entry(_oracle_atomic([-1.0, 0.0, 0.5], [1.0, 2.0, 0.5]), "box", False),
    "half_infinite_atomic": Entry(_oracle_atomic([0.0, -np.inf], [np.inf, 1.0]), "box", False),
    "nonatomic": Entry(NonAtomicGame(
        masses=[1.0, 2.5], action_counts=(2, 3), action_cost=lambda x: x,
        social=lambda x: float(x @ x), social_grad=lambda x: 2.0 * x), "simplex", False),
    "two_link_game": Entry(two_link_game(), "simplex", False),
    "nonatomic_braess": Entry(nonatomic_view(braess_network()), "simplex", False),
    "two_link": Entry(routing.two_link_network(), "network", True),
    "pigou": Entry(routing.pigou_network(), "network", True),
    "braess": Entry(braess_network(), "network", True),
    "grid34": Entry(grid34(), "network", True),
}
EQUILIBRIUM = StrategyUpdateRule()


# ---------------------------------------------------------------------------
# feasibility: one rule per model
# ---------------------------------------------------------------------------

def raised(call, *args):
    """The type and message of what ``call(*args)`` raises, None if it returns."""
    try:
        call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def past_a_bound(entry, x, by):
    """``x`` moved ``by`` past each bound it has, one point per bound: an
    atomic player past a finite end of its interval; a simplex model's first
    entry at ``-by``, its mass moved to the second entry of the same block."""
    model, points = entry.model, []
    if entry.kind == "box":
        for i in range(x.size):
            for bound, sign in ((model.lower[i], -1.0), (model.upper[i], 1.0)):
                if np.isfinite(bound):
                    points.append(x.copy())
                    points[-1][i] = bound + sign * by
        return points
    assert model.layout.owner[1] == model.layout.owner[0]
    y = x.copy()
    y[1] += y[0] + by
    y[0] = -by
    return [y]


@pytest.mark.parametrize("name", MODELS)
def test_every_model_decides_feasibility_with_one_rule(name):
    entry = MODELS[name]
    model = entry.model
    rng = np.random.default_rng(46)
    x = model.uniform_point()
    p = np.zeros(model.dim)
    # its own points are feasible, and projection onto the feasible set is idempotent
    own = [x] + [model.random_start(rng) for _ in range(3)]
    for v in [rng.normal(scale=3.0, size=x.size) for _ in range(5)]:
        own.append(model.project(v))
        np.testing.assert_allclose(model.project(own[-1]), own[-1], rtol=0, atol=1e-12)
    for y in own:
        np.testing.assert_array_equal(model.check_feasible(y), y, strict=True)
    # check_start and a run under every rule raise exactly what check_feasible
    # raises on x, and then what check_incentive raises on p0; so do the
    # certificates, and a network's edge flow, on x
    starts = [model.check_start] + [
        lambda y, q, rule=StrategyUpdateRule(variant, regularizer=regularizer):
        run_coupled(model, y, q, RunConfig(rule=rule, max_iterations=1))
        for variant, regularizer in entry.rules]
    on_x = [lambda y: games.certify_social_optimum(model, y),
            {"box": lambda y: games.certify_nash_atomic(model, y, p),
             "simplex": lambda y: games.certify_nash_nonatomic(model, y, p),
             "network": lambda y: routing.route_to_edge_flow(model, y)}[entry.kind]]
    nonfinite = [np.where(np.arange(x.size) == 0, value, x) for value in (np.nan, np.inf, -np.inf)]
    bad_x = [np.append(x, 0.0), x[:1], x[0], x[:, None], *past_a_bound(entry, x, 2e-9),
             *nonfinite]
    if entry.kind != "box":  # the mass of every block off
        bad_x += [0.8 * x, 2.0 * x]
    for y in bad_x:
        want = raised(model.check_feasible, y)
        assert want is not None and want[0] is InvalidArgumentError, y
        assert [raised(start, y, p) for start in starts] == [want] * len(starts), y
        assert [raised(call, y) for call in on_x] == [want] * len(on_x), y
    if entry.kind == "box":  # an infinite bound admits inf; the finiteness rule does not
        assert {raised(model.check_feasible, y)[1] for y in nonfinite} == {
            "strategy profile must be finite"}
    nonfinite_p = [np.full(model.dim, np.nan), np.full(model.dim, np.inf)] + [
        np.where(np.arange(p.size) == p.size - 1, value, p) for value in (np.nan, np.inf, -np.inf)]
    assert {raised(check_incentive, q, model.dim) for q in nonfinite_p} == {
        (InvalidArgumentError, "incentive vector must be finite")}
    for bad_p in (np.zeros(1), np.zeros(model.dim + 1), *nonfinite_p):
        want = raised(check_incentive, bad_p, model.dim)
        assert want is not None
        assert [raised(start, x, bad_p) for start in starts] == [want] * len(starts)
    # a start within the slack of a bound passes, and so does such an x alone
    for y in past_a_bound(entry, x, 5e-10):
        start, p0 = model.check_start(y, p)
        np.testing.assert_array_equal(start, y, strict=True)
        np.testing.assert_array_equal(p0, p, strict=True)
        for call in on_x:
            call(y)


# ---------------------------------------------------------------------------
# the gap, the paper's converse, the default step and the limits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", MODELS)
def test_every_model_meets_the_gap_optimum_and_step_clauses(name):
    entry = MODELS[name]
    model = entry.model
    kinds = {"box": AtomicGame, "simplex": NonAtomicGame, "network": RoutingNetwork}
    assert isinstance(model, kinds[entry.kind])
    assert (model.known_optimum() is not None) == entry.knows_optimum
    # of the rules, only the entropy step needs a simplex
    entropy = StrategyUpdateRule("gradient", eta=0.1, regularizer="entropy")
    rejected = (InvalidArgumentError, "entropy regularizer needs a simplex strategy space")
    assert raised(strategy_target, model, model.uniform_point(), np.zeros(model.dim),
                  entropy) == (rejected if entry.kind == "box" else None)
    rng = np.random.default_rng(47)
    own = [model.uniform_point()] + [model.random_start(rng) for _ in range(3)]
    # strategy_gap is a distance on the model's own points
    for y in own:
        assert model.strategy_gap(y, y) == 0.0
        for z in own:
            assert model.strategy_gap(y, z) == model.strategy_gap(z, y)
    # the paper's converse: at p† = e(x†) the equilibrium target is x† itself
    x_opt = model.known_optimum()
    if x_opt is not None:
        f = model.target(model.uniform_point(), model.externality(x_opt), EQUILIBRIUM)
        assert model.strategy_gap(f, x_opt) <= 1e-6 * max(1.0, float(np.max(np.abs(x_opt))))
    for regularizer in ("quadratic", "entropy"):
        eta = model.default_eta(regularizer)
        assert np.isfinite(eta) and eta > 0, regularizer
    # a gradient rule without a step takes that one; it once reached None * eta in target
    x, p = model.random_start(rng), rng.uniform(-1.0, 1.0, model.dim)
    for regularizer in {r for v, r in entry.rules if v == "gradient"}:
        rule = StrategyUpdateRule("gradient", regularizer=regularizer)
        explicit = dataclasses.replace(rule, eta=model.default_eta(regularizer))
        got, want = strategy_target(model, x, p, rule), model.step(x, p, explicit)
        for a, b in zip(got[:3], want[:3]):
            np.testing.assert_array_equal(a, b, strict=True)
        assert got[3] == want[3]
        for f in (model.target(x, p, rule), model.target(x, p, explicit)):
            np.testing.assert_array_equal(f, want[0], strict=True)
        np.testing.assert_array_equal(externality(model, x), want[1], strict=True)
        gap = np.maximum.reduce(np.abs(got[2]), axis=None)
        assert gap.tobytes() == model.strategy_gap(got[0], x).tobytes()


@pytest.mark.parametrize("name", MODELS)
def test_an_equilibrium_is_a_fixed_point_of_the_gradient_and_best_response_targets(name):
    # the Limits clause: x* = target(., p, equilibrium) is a fixed point of the
    # quadratic gradient target on every model, and of the best response on a
    # box model. The best response on a simplex (ROADMAP item 19) and the
    # entropy step (item 20) are not fixed points at x* today
    entry = MODELS[name]
    model = entry.model
    rules = [StrategyUpdateRule("gradient")]
    if entry.kind == "box":
        rules.append(StrategyUpdateRule("best_response"))
    rng = np.random.default_rng(48)
    for _ in range(5):
        p = rng.uniform(-1.0, 1.0, model.dim)
        x_star = model.target(model.uniform_point(), p, EQUILIBRIUM)
        tol = 1e-8 * max(1.0, float(np.max(np.abs(x_star))))
        for rule in rules:
            assert model.strategy_gap(model.target(x_star, p, rule), x_star) <= tol, rule


# ---------------------------------------------------------------------------
# step: one evaluation, one shape, no writes
# ---------------------------------------------------------------------------

STEP_CASES = [(name, variant, regularizer) for name, entry in MODELS.items()
              for variant, regularizer in entry.rules]
STEP_IDS = [f"{n}-{v}-{r}" for n, v, r in STEP_CASES]


@pytest.mark.parametrize("name, variant, regularizer", STEP_CASES, ids=STEP_IDS)
@given(seed=st.integers(0, 2**32 - 1), eta=st.floats(0.01, 2.0))
@settings(derandomize=True, max_examples=15, deadline=None)
def test_step_equals_the_single_quantity_methods(name, variant, regularizer, seed, eta):
    model = MODELS[name].model
    rng = np.random.default_rng(seed)
    x = model.random_start(rng)
    p = rng.uniform(-1.0, 1.0, model.dim)
    rule = StrategyUpdateRule(variant, eta=eta, regularizer=regularizer)
    f, e, d, social = model.step(x, p, rule)
    f_alone = model.target(x, p, rule)
    np.testing.assert_array_equal(f, f_alone, strict=True)
    np.testing.assert_array_equal(e, model.externality(x), strict=True)
    gap = np.maximum.reduce(np.abs(d), axis=None)
    assert gap.tobytes() == model.strategy_gap(f_alone, x).tobytes()
    assert social == model.social(x)


def _read_only(a):
    a = a.copy()
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("name, variant, regularizer", STEP_CASES, ids=STEP_IDS)
def test_step_has_one_shape_and_no_method_writes_into_its_arguments(name, variant, regularizer):
    entry = MODELS[name]
    model = entry.model
    rng = np.random.default_rng(3)
    x = model.random_start(rng)
    p = rng.uniform(-1.0, 1.0, model.dim)
    rule = _with_default_step(model, StrategyUpdateRule(variant, regularizer=regularizer))
    f, e, d, social = model.step(x, p, rule)
    assert f.shape == x.shape and e.shape == (model.dim,)
    assert d.shape == ((model.n_edges,) if entry.kind == "network" else x.shape)
    assert isinstance(social, float)
    # the target, and the iterate after one coupled step, are strategies of the model
    model.check_feasible(f)
    model.check_feasible(run_coupled(model, x, p, RunConfig(rule=rule, max_iterations=1)).final_x)
    calls = {
        "check_start": lambda x, p, f: model.check_start(x, p),
        "step": lambda x, p, f: model.step(x, p, rule),
        "target": lambda x, p, f: model.target(x, p, rule),
        "externality": lambda x, p, f: model.externality(x),
        "social": lambda x, p, f: model.social(x),
        "strategy_gap": lambda x, p, f: model.strategy_gap(f, x),
        "project": lambda x, p, f: model.project(x),
    }
    for method, call in calls.items():
        writable = call(x, p, f)
        read_only = call(_read_only(x), _read_only(p), _read_only(f))
        if not isinstance(writable, tuple):
            writable, read_only = (writable,), (read_only,)
        for a, b in zip(writable, read_only, strict=True):
            np.testing.assert_array_equal(b, a, strict=True, err_msg=method)


# ---------------------------------------------------------------------------
# the inner solves below ``target``
# ---------------------------------------------------------------------------

# every inner solve as solve(model, p, x0), x0 None for its cold start, and the
# kind it runs on; the best response starts cold from the uniform point
INNER_SOLVES = {
    "_wardrop": ("network", routing._wardrop),
    "wardrop_equilibrium": ("network", lambda net, p, x0:
                            routing.wardrop_equilibrium(net, p, x0=x0)),
    "system_optimum": ("network", lambda net, p, x0: routing.system_optimum(net, x0=x0)),
    "solve_equilibrium_atomic": ("box", lambda game, p, x0:
                                 games.solve_equilibrium_atomic(game, p, x0=x0)),
    "solve_equilibrium_nonatomic": ("simplex", lambda game, p, x0:
                                    games.solve_equilibrium_nonatomic(game, p, x0=x0)),
    "best_response_atomic": ("box", lambda game, p, x0: games.best_response_atomic(
        game, game.uniform_point() if x0 is None else x0, p)),
}
INNER_SOLVE_CASES = [(solve, model, start) for solve, (kind, _) in INNER_SOLVES.items()
                     for model, entry in MODELS.items() if entry.kind == kind
                     for start in ("cold", "uniform", "random")]


@pytest.mark.parametrize("solve, model, start", INNER_SOLVE_CASES,
                         ids=["-".join(case) for case in INNER_SOLVE_CASES])
def test_every_inner_solve_returns_a_new_flow_and_writes_into_no_input(solve, model, start):
    # one contract: a checked start (or None), clipped into the solve's own
    # array, which it returns; read-only inputs make any write raise. The
    # two-link solve at zero tolls once returned its uniform start itself,
    # and the Braess one wrote into it
    game = MODELS[model].model
    p = np.zeros(game.dim)
    x0 = {"cold": None, "uniform": game.uniform_point(),
          "random": game.random_start(np.random.default_rng(2))}[start]
    inputs = [a for a in (p, x0) if a is not None]
    for a in inputs:
        a.setflags(write=False)
    out = INNER_SOLVES[solve][1](game, p, x0)
    for got in out if isinstance(out, tuple) else (out,):
        assert not any(np.shares_memory(got, a) for a in inputs)


# ---------------------------------------------------------------------------
# a malformed incentive at every entry point
# ---------------------------------------------------------------------------

def _at_uniform(call):
    """``call(model, x, p)`` at the model's uniform strategy."""
    return lambda model, p: call(model, model.uniform_point(), p)


def as_given(model):
    """The model as the command line hands it over: a spec game's spec, else the model."""
    return getattr(model, "spec", None) or model


# entry point -> (the tag of the models it applies to, its call on a model)
ENTRY_POINTS = {
    **{point.__name__: ("spec", lambda model, p, point=point: point(model.spec, p))
       for point in (agg.nash_closed_form, agg.lyapunov_value, agg.lyapunov_decrement)},
    "solve_equilibrium_atomic": ("box", games.solve_equilibrium_atomic),
    "best_response_atomic": ("box", _at_uniform(games.best_response_atomic)),
    "certify_nash_atomic": ("box", _at_uniform(games.certify_nash_atomic)),
    "solve_equilibrium_nonatomic": ("simplex", games.solve_equilibrium_nonatomic),
    "certify_nash_nonatomic": ("simplex", _at_uniform(games.certify_nash_nonatomic)),
    "wardrop_equilibrium": ("network", routing.wardrop_equilibrium),
    # at the edge flow of the uniform route flow
    "route_costs": ("network", _at_uniform(
        lambda net, x, p: routing.route_costs(net, net.incidence @ x, p))),
    "beckmann_potential": ("network", _at_uniform(
        lambda net, x, p: routing.beckmann_potential(net, net.incidence @ x, p))),
    **{f"target_{variant}": ("any", _at_uniform(
        lambda model, x, p, rule=StrategyUpdateRule(variant, eta=0.1):
        model.target(x, p, rule))) for variant in RULES},
    "run_coupled": ("any", _at_uniform(
        lambda model, x, p: run_coupled(model, x, p, RunConfig(max_iterations=3)))),
    "verify_fixed_point_optimality": ("any", lambda model, p: (
        analysis.verify_fixed_point_optimality(as_given(model), p=p))),
    "ode_probe": ("any", lambda model, p: analysis.ode_probe_slow_dynamics(
        as_given(model), [p], OdeProbeConfig(step=0.5, horizon=1.0))),
    "condition_c1": ("any", lambda model, p: analysis.check_condition_C1(as_given(model), [p])),
    "condition_c2": ("optimum", lambda model, p: analysis.check_condition_C2(
        as_given(model), np.eye(model.dim), [p])),
    "uniqueness_probe": ("any", lambda model, p: analysis.multistart_uniqueness_probe(
        as_given(model), p, n_starts=2)),
    "equilibrium_cost_gradient": ("any", lambda model, p:
                                  analysis.equilibrium_cost_gradient(as_given(model), p)),
    "gradient_baseline": ("any", lambda model, p: analysis.run_gradient_baseline(
        as_given(model), p, max_iterations=3)),
}


def entry_points(name) -> list:
    """The entry points that apply to a model: those of "any" model, of its
    kind, of a spec's game if it is one, and of a known optimum if it has one."""
    entry = MODELS[name]
    tags = {"any", entry.kind}
    tags |= {"spec"} if getattr(entry.model, "spec", None) else set()
    tags |= {"optimum"} if entry.knows_optimum else set()
    return [point for point, (tag, _) in ENTRY_POINTS.items() if tag in tags]


def assert_every_entry_point_rejects(name, p):
    """Each entry point raises on ``p`` what ``check_incentive`` raises."""
    model = MODELS[name].model
    want = raised(check_incentive, p, model.dim)
    assert want is not None and want[0] is InvalidArgumentError
    points = entry_points(name)
    assert {point: raised(ENTRY_POINTS[point][1], model, p) for point in points} == dict.fromkeys(
        points, want)


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


@pytest.mark.parametrize("name", MODELS)
@given(data=st.data())
@settings(derandomize=True, max_examples=25, deadline=None)
def test_every_entry_point_rejects_a_malformed_incentive(name, data):
    assert_every_entry_point_rejects(
        name, data.draw(malformed_incentives(MODELS[name].model.dim)))


@pytest.mark.parametrize("name", MODELS)
def test_every_entry_point_rejects_a_short_long_column_or_scalar_incentive(name):
    # a length-1 p once broadcast against every player or action: a C2 sample
    # of [0.5] on two_link was skipped as one at p†, and verify on a
    # non-atomic view printed a FAIL verdict computed from it
    n = MODELS[name].model.dim
    for p in ([0.5], np.zeros(n + 1), np.zeros((n, 1)), 0.4):
        assert_every_entry_point_rejects(name, p)


def test_the_table_covers_every_model_and_entry_point():
    cases = [(point, name) for name in MODELS for point in entry_points(name)]
    assert {name for _, name in cases} == set(MODELS)
    assert {point for point, _ in cases} == set(ENTRY_POINTS)
    assert len(cases) == 196


def test_a_zero_dimensional_incentive_is_rejected_for_one_player():
    # as run_coupled rejects it; nash_closed_form once took it as a length-1 vector
    spec = QuadraticAggregativeSpec(q=[2.0], A=[[0.0]], alpha=1.0, zeta=[0.5])
    for call in (lambda p: agg.nash_closed_form(spec, p),
                 lambda p: spec.to_game().equilibrium(p),
                 lambda p: run_coupled(spec.to_game(), [0.0], p, RunConfig(max_iterations=3))):
        np.testing.assert_array_equal(call([0.4]), call(np.array([0.4])))
        with pytest.raises(InvalidArgumentError, match=r"incentive vector has shape \(\)"):
            call(0.4)


@pytest.mark.parametrize("helper", [analysis.two_link_equilibrium,
                                    analysis.two_link_equilibrium_cost,
                                    analysis.two_link_clarke_gradient])
@pytest.mark.parametrize("p", [[0.5], [0.1, 0.2, 0.3], [[0.1, 0.2]], [np.nan, 0.0]])
def test_two_link_closed_forms_take_two_finite_tolls(helper, p):
    with pytest.raises(InvalidArgumentError, match="incentive vector"):
        helper(p)


# ---------------------------------------------------------------------------
# the ODE probe, warm-started
# ---------------------------------------------------------------------------

def ode_probe_reference(obj, start_points, config: OdeProbeConfig) -> list:
    """The probe's endpoints with each Euler step's x*(p) solved cold, from
    the solver's own start: the reference for the warm-started probe."""
    model = analysis.strategy_model(obj)
    endpoints = []
    for p0 in start_points:
        p = np.array(p0, dtype=float)
        for _ in range(int(round(config.horizon / config.step))):
            p = p + config.step * (model.externality(model.target(None, p, EQUILIBRIUM)) - p)
        endpoints.append(p)
    return endpoints


@pytest.mark.parametrize("name", MODELS)
def test_warm_started_ode_probe_matches_cold_solves(name):
    model = MODELS[name].model
    starts = [np.zeros(model.dim), np.random.default_rng(5).uniform(0.0, 1.0, model.dim)]
    cfg = OdeProbeConfig(step=0.1, horizon=10.0, tol=1e-2)
    report = analysis.ode_probe_slow_dynamics(model, starts, cfg)
    # in units of the tolls: on grid34 (tolls up to 13) the cold endpoints are
    # themselves about 1e-9 from those of solves to a duality gap of 1e-15
    for got, want in zip(report["endpoints"], ode_probe_reference(model, starts, cfg),
                         strict=True):
        assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))
    # each start begins cold, so its endpoint does not depend on the starts before it
    for i, start in enumerate(starts):
        alone = analysis.ode_probe_slow_dynamics(model, [start], cfg)
        for key in ("start_points", "endpoints"):
            np.testing.assert_array_equal(report[key][i], alone[key][0], strict=True)
        assert report["distances"][i:i + 1] == alone["distances"]
