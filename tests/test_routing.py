import dataclasses
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (CORPUS, FORMER_SCHEDULE, counting, former_route_step, grid34, grid45, grid67,
                    grid_network, mixed_degree_network, nonatomic_loop_reference)
from incentive_dynamics import games, numdiff, routing
from incentive_dynamics.analysis import verify_fixed_point_optimality
from incentive_dynamics.dynamics import RunConfig, StepSchedule, StrategyUpdateRule, run_coupled
from incentive_dynamics.errors import (ConvergenceError, InconsistencyError,
                                       InvalidArgumentError, SpecError)
from incentive_dynamics.routing import (FIXTURES, NETWORK_STEP_GAIN, LatencyFunction,
                                        OdPair, RoutingNetwork, all_simple_paths,
                                        beckmann_potential, braess_network,
                                        delta_matrix,
                                        edge_externality,
                                        flow_monotonicity_check, load_fixture,
                                        network_from_json, nonatomic_view,
                                        optimal_edge_tolls, pigou_network,
                                        route_costs, route_to_edge_flow,
                                        run_toll_adaptation, system_optimum,
                                        total_latency_cost, two_link_network,
                                        wardrop_equilibrium)


# ---------------------------------------------------------------------------
# latency functions
# ---------------------------------------------------------------------------

def polyval_reference(lat, w, order: int = 0):
    """The latency ``lat`` (order 0), its first or second derivative (1, 2) or
    its integral from 0 (-1) at ``w``, by numpy's polyval on its coefficients:
    the per-edge reference that the latency kernel matches bit for bit."""
    P = np.polynomial.polynomial
    return P.polyval(w, P.polyint(lat.coeffs) if order < 0 else P.polyder(lat.coeffs, order))


def test_latency_polynomial_values():
    lat = LatencyFunction((1.0, 0.0, 0.0, 0.0, 1.0))  # 1 + w^4
    assert polyval_reference(lat, 1.0) == pytest.approx(2.0)
    assert polyval_reference(lat, 1.0, 1) == pytest.approx(4.0)
    assert polyval_reference(lat, 1.0, 2) == pytest.approx(12.0)
    assert polyval_reference(lat, 1.0, -1) == pytest.approx(1.2)


def test_latency_rejects_negative_coefficients():
    with pytest.raises(SpecError):
        LatencyFunction((1.0, -0.5))
    with pytest.raises(SpecError):
        LatencyFunction(())


@pytest.mark.parametrize("coeffs", [(np.nan, 1.0), (0.0, np.inf), (1.0, -np.inf)])
def test_latency_rejects_nonfinite_coefficients(coeffs):
    with pytest.raises(SpecError, match="latency coefficients must be finite"):
        LatencyFunction(coeffs)


@pytest.mark.parametrize("demand, message", [
    *[(d, "OD demands must be finite and positive") for d in (0.0, -1.0, np.nan, np.inf)],
    (True, "OD demands must be a number, got True")])  # True once built a demand of 1
def test_od_demand_must_be_finite_and_positive(demand, message):
    with pytest.raises(SpecError, match=message):
        RoutingNetwork(nodes=("a", "b"), edges=(("a", "b", LatencyFunction((0.0, 1.0))),),
                       od_pairs=(OdPair("a", "b", demand, ((0,),)),))


def test_constant_latency_needs_relaxed_validation():
    lat_const = LatencyFunction((1.0,))
    with pytest.raises(SpecError):
        RoutingNetwork(nodes=("S", "D"),
                       edges=(("S", "D", lat_const),),
                       od_pairs=(OdPair("S", "D", 1.0, ((0,),)),))
    net = RoutingNetwork(nodes=("S", "D"), edges=(("S", "D", lat_const),),
                         od_pairs=(OdPair("S", "D", 1.0, ((0,),)),),
                         relax_monotonicity=True)
    assert net.n_edges == 1


def test_network_route_validation():
    lat = LatencyFunction((0.0, 1.0))
    with pytest.raises(SpecError):  # not contiguous
        RoutingNetwork(nodes=("a", "b", "c"),
                       edges=(("a", "b", lat), ("a", "c", lat)),
                       od_pairs=(OdPair("a", "c", 1.0, ((0, 1),)),))
    with pytest.raises(SpecError):  # wrong destination
        RoutingNetwork(nodes=("a", "b", "c"),
                       edges=(("a", "b", lat),),
                       od_pairs=(OdPair("a", "c", 1.0, ((0,),)),))
    with pytest.raises(SpecError):  # nonpositive demand
        RoutingNetwork(nodes=("a", "b"), edges=(("a", "b", lat),),
                       od_pairs=(OdPair("a", "b", 0.0, ((0,),)),))


NETWORKS = {**CORPUS, **{name: make for name, (make, _) in FIXTURES.items()}}


def test_corpus_grid_shapes():
    g34 = grid34()
    assert (g34.n_edges, g34.n_routes) == (17, 16)
    for od in g34.od_pairs:
        assert list(od.routes) == all_simple_paths(g34.nodes, g34.edges,
                                                   od.origin, od.destination)
    assert grid45().n_edges == 31


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_vectorised_latencies_match_per_edge_path(name):
    """The coefficient-matrix evaluation is bitwise equal to per-edge polyval."""
    net = NETWORKS[name]()
    lats = [lat for _, _, lat in net.edges]
    rng = np.random.default_rng(17)
    flows = [np.zeros(net.n_edges), net.incidence @ net.uniform_route_flow()]
    flows += [net.incidence @ net.random_start(rng) for _ in range(20)]
    flows += [rng.uniform(0.0, 10.0, net.n_edges) for _ in range(5)]
    for w in flows:
        tolls = rng.uniform(-1.0, 1.0, net.n_edges)
        assert np.array_equal(net.latency(w),
                              [polyval_reference(lat, wa) for lat, wa in zip(lats, w)])
        assert np.array_equal(net.latency_deriv(w),
                              [polyval_reference(lat, wa, 1) for lat, wa in zip(lats, w)])
        assert np.array_equal(net.latency_second_deriv(w),
                              [polyval_reference(lat, wa, 2) for lat, wa in zip(lats, w)])
        expect = float(sum(polyval_reference(lat, wa, -1) for lat, wa in zip(lats, w))
                       + tolls @ w)
        assert beckmann_potential(net, w, tolls) == expect


def _per_edge(net, w, tolls):
    """latency, l', l'', the stacks (l, l') and (l, l', l''), and the Beckmann
    potential through per-edge polyval."""
    lats = [lat for _, _, lat in net.edges]
    value, deriv, second, integral = (
        np.array([polyval_reference(lat, wa, order) for lat, wa in zip(lats, w)])
        for order in (0, 1, 2, -1))
    return (value, deriv, second, np.array([value, deriv]), np.array([value, deriv, second]),
            float(sum(integral) + tolls @ w))


def _kernel(net, w, tolls):
    """The same through the kernel: single polynomials, the stacked passes of
    ``step`` and the flow solver (broadcast at width 2, tiled from width 3),
    and the potential."""
    return (net.latency(w), net.latency_deriv(w), net.latency_second_deriv(w),
            routing._column_horner(net._cost_rows, w), routing._column_horner(net._all_rows, w),
            beckmann_potential(net, w, tolls))


def constant_network():
    """Constant latencies only, so every coefficient column has width 1."""
    return RoutingNetwork(
        nodes=("S", "D"),
        edges=tuple(("S", "D", LatencyFunction((c,))) for c in (2.0, 1.0, 0.0)),
        od_pairs=(OdPair("S", "D", 3.0, ((0,), (1,), (2,))),),
        relax_monotonicity=True)


@pytest.mark.parametrize("name", sorted(NETWORKS) + ["constant"])
def test_column_kernel_matches_per_edge_path_on_negative_flows(name):
    """Negative and mixed-sign flows, where polyval's w*0 start is -0.0."""
    net = constant_network() if name == "constant" else NETWORKS[name]()
    rng = np.random.default_rng(23)
    flows = [np.full(net.n_edges, -0.0), rng.uniform(-10.0, 0.0, net.n_edges),
             rng.uniform(-3.0, 3.0, net.n_edges), rng.uniform(0.0, 10.0, net.n_edges)]
    for w in flows:
        tolls = rng.uniform(-1.0, 1.0, net.n_edges)
        new, ref = _kernel(net, w, tolls), _per_edge(net, w, tolls)
        for a, b in zip(new[:-1], ref[:-1]):
            np.testing.assert_array_equal(a, b, strict=True)
            assert np.array_equal(np.signbit(a), np.signbit(b))
        assert new[-1] == ref[-1]


def test_constant_network_has_width_one_columns():
    net = constant_network()
    rows = (net._value_rows, net._deriv_rows, net._second_rows, net._cost_rows, net._all_rows)
    assert [len(r) for r in rows] == [1, 1, 1, 1, 1]
    assert len(net._integral_rows) == 2
    w = np.array([0.5, 2.0, 0.5])
    np.testing.assert_array_equal(net.latency(w), [2.0, 1.0, 0.0])
    np.testing.assert_array_equal(net.latency_deriv(w), np.zeros(3))
    _, w_eq = wardrop_equilibrium(net, np.zeros(3))
    np.testing.assert_array_equal(w_eq, [0.0, 0.0, 3.0])


@pytest.mark.parametrize("name", sorted(NETWORKS) + ["constant"])
def test_column_kernel_nonfinite_flows_give_nonfinite_values(name):
    """At inf or NaN the kernel gives IEEE Horner values (inf or NaN), polyval NaN;
    the finite entries of the same flow keep polyval's bits."""
    net = constant_network() if name == "constant" else NETWORKS[name]()
    rng = np.random.default_rng(29)
    tolls = np.zeros(net.n_edges)
    for bad in (np.inf, -np.inf, np.nan):
        w = rng.uniform(0.0, 5.0, net.n_edges)
        w[::2] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            new, ref = _kernel(net, w, tolls), _per_edge(net, w, tolls)
        finite = np.isfinite(w)
        for a in new[:-1]:
            assert not np.isfinite(a[..., ~finite]).any()
        for a, b in zip(new[:-1], ref[:-1]):
            np.testing.assert_array_equal(a[..., finite], b[..., finite], strict=True)
            assert np.array_equal(np.signbit(a[..., finite]), np.signbit(b[..., finite]))
        assert not np.isfinite(new[-1])


CONSTANT, AFFINE = (1.0,), (0.0, 1.0)
QUADRATIC = (0.5, 0.0, 2.0)         # l' vanishes at zero flow
BPR = (1.0, 0.0, 0.0, 0.0, 0.15)    # l' vanishes at zero flow


@pytest.mark.parametrize("polys, strict, relaxed", [
    ((CONSTANT, AFFINE), "increasing", None),
    ((AFFINE, QUADRATIC), None, None),
    ((BPR, CONSTANT), "increasing", None),
    ((QUADRATIC, BPR), None, None),
    ((AFFINE, AFFINE), None, None),
])
@pytest.mark.parametrize("relax", [False, True])
def test_latency_shape_checks(polys, strict, relaxed, relax):
    """Nonnegative coefficients leave one shape to reject, a constant latency,
    and relax_monotonicity admits it: relaxed validation rejects no latency."""
    def build():
        return RoutingNetwork(
            nodes=("S", "D"),
            edges=tuple(("S", "D", LatencyFunction(c)) for c in polys),
            od_pairs=(OdPair("S", "D", 1.0, ((0,), (1,))),),
            relax_monotonicity=relax)

    message = relaxed if relax else strict
    if message is None:
        assert build().n_edges == 2
    else:
        with pytest.raises(SpecError, match=message):
            build()


def bpr_latency(t0, capacity):
    """The BPR latency t0 (1 + 0.15 (w / capacity)^4), whose slope vanishes at w = 0."""
    return LatencyFunction((t0, 0.0, 0.0, 0.0, 0.15 * t0 / capacity ** 4))


def test_bpr_latencies_need_no_relaxed_monotonicity():
    net = RoutingNetwork(nodes=("S", "D"),
                         edges=(("S", "D", bpr_latency(1.0, 1.0)),
                                ("S", "D", bpr_latency(1.5, 2.0))),
                         od_pairs=(OdPair("S", "D", 3.0, ((0,), (1,))),))
    tolls = optimal_edge_tolls(net)
    w = route_to_edge_flow(net, system_optimum(net)[0])
    np.testing.assert_allclose(tolls, w * net.latency_deriv(w), rtol=1e-12)
    assert verify_fixed_point_optimality(net, tolls)["passed"]
    # a constant latency's slope vanishes at every flow
    with pytest.raises(SpecError, match="strictly increasing"):
        RoutingNetwork(nodes=("S", "D"),
                       edges=(("S", "D", bpr_latency(1.0, 1.0)),
                              ("S", "D", LatencyFunction((1.0,)))),
                       od_pairs=(OdPair("S", "D", 1.0, ((0,), (1,))),))


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

def test_route_to_edge_flow_single_route():
    lat = LatencyFunction((0.0, 1.0))
    net = RoutingNetwork(nodes=("a", "b", "c"),
                         edges=(("a", "b", lat), ("b", "c", lat)),
                         od_pairs=(OdPair("a", "c", 1.0, ((0, 1),)),))
    np.testing.assert_allclose(route_to_edge_flow(net, [1.0]), [1.0, 1.0])


def test_route_to_edge_flow_two_link():
    net = two_link_network()
    np.testing.assert_allclose(route_to_edge_flow(net, [0.3, 0.7]), [0.3, 0.7])


def test_route_to_edge_flow_braess_incidence():
    net = braess_network()
    x = np.array([0.5, 0.5, 0.0])
    # routes: (0,1), (2,3), (0,4,3)
    expect = np.array([0.5, 0.5, 0.5, 0.5, 0.0])
    np.testing.assert_allclose(route_to_edge_flow(net, x), expect)
    inc = np.zeros((5, 3))
    for col, route in enumerate(net.od_pairs[0].routes):
        for a in route:
            inc[a, col] = 1.0
    np.testing.assert_allclose(net.incidence, inc)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_route_flow_is_rejected(bad):
    net = two_link_network()
    with pytest.raises(InvalidArgumentError):
        net.check_route_flow([bad, 1.0])
    with pytest.raises(InvalidArgumentError):
        wardrop_equilibrium(net, np.zeros(2), x0=[bad, 1.0])
    with pytest.raises(InvalidArgumentError):
        nonatomic_view(net).check_feasible([bad, 1.0])


def feasibility_probes(net):
    """The uniform route flow; +5e-8 and +2e-7 on route 0; entries of -5e-9
    and -5e-8 on route 0, whose mass moved to route 1 of the same OD pair;
    a NaN and a +inf entry; and a flow one entry too long."""
    x = net.uniform_route_flow()
    assert net.layout.owner[1] == net.layout.owner[0]

    def with_route0(v, moved=0.0):
        y = x.copy()
        y[0], y[1] = v, y[1] + moved
        return y

    return {"uniform": x, "+5e-8": with_route0(x[0] + 5e-8), "+2e-7": with_route0(x[0] + 2e-7),
            "-5e-9": with_route0(-5e-9, x[0] + 5e-9), "-5e-8": with_route0(-5e-8, x[0] + 5e-8),
            "nan": with_route0(np.nan), "inf": with_route0(np.inf),
            "length": np.append(x, 0.0)}


# +2e-7 is within the mass tolerance 1e-7 max(1, m) of a block of mass 2 or more only
PROBE_VERDICTS = {"uniform": True, "+5e-8": True, "-5e-9": False, "-5e-8": False,
                  "nan": False, "inf": False, "length": False}


def verdict(check, *args):
    """True where ``check`` accepts its arguments, False where it raises
    InvalidArgumentError."""
    try:
        check(*args)
    except InvalidArgumentError:
        return False
    return True


@pytest.mark.parametrize("make", [braess_network, grid34, mixed_degree_network])
def test_a_network_and_its_route_level_view_accept_the_same_flows(make):
    # one rule, with one set of tolerances, decides feasibility on both
    net = make()
    view = nonatomic_view(net)
    for name, x in feasibility_probes(net).items():
        accepted = verdict(net.check_route_flow, x)
        assert verdict(view.check_feasible, x) == accepted, name
        assert (verdict(net.check_start, x, np.zeros(net.dim))
                == verdict(view.check_start, x, np.zeros(view.dim)) == accepted), name
        assert PROBE_VERDICTS.get(name, accepted) == accepted, name


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_tolls_are_rejected(bad):
    net = braess_network()
    tolls = np.array([bad, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(InvalidArgumentError, match="finite"):
        wardrop_equilibrium(net, tolls)
    with pytest.raises(InvalidArgumentError, match="finite"):
        routing.nondegeneracy_check(net, tolls)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_nondegeneracy_tolerance_must_be_finite_and_positive(tol):
    # a tolerance of 0 or below marks no route minimum-cost, so Pigou's fail would pass
    with pytest.raises(InvalidArgumentError, match="tol must be finite and positive"):
        routing.nondegeneracy_check(routing.pigou_network(), np.zeros(2), tol=tol)


START_ENTRIES = {
    "wardrop_equilibrium": lambda net, x: wardrop_equilibrium(net, np.zeros(net.n_edges), x0=x),
    "system_optimum": lambda net, x: system_optimum(net, x0=x),
    "target_equilibrium": lambda net, x: net.target(x, np.zeros(net.n_edges),
                                                    StrategyUpdateRule()),
    "run_toll_adaptation": lambda net, x: run_toll_adaptation(
        net, x, np.zeros(net.n_edges), RunConfig(max_iterations=3)),
}
START_NETWORKS = {"braess": braess_network(), "grid34": grid34()}


@st.composite
def malformed_route_flows(draw, net):
    """A wrong length (0-d included), a 2-D array, an entry below -1e-9 (its
    OD demand kept), a NaN or ±inf entry, or an OD demand off by more than
    1e-7 max(1, d); as an array or as the nested lists a JSON config gives."""
    n, x = net.n_routes, net.uniform_route_flow()
    kind = draw(st.sampled_from(["length", "0-d", "2-D", "negative", "non-finite", "demand"]))
    i = draw(st.integers(0, n - 1))
    if kind == "length":
        m = draw(st.integers(0, n + 3).filter(lambda m: m != n))
        x = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=m, max_size=m)), dtype=float)
    elif kind == "0-d":
        x = np.array(draw(st.floats(0.0, 2.0)))
    elif kind == "2-D":
        x = np.tile(x, draw(st.sampled_from([(1, 1), (2, 1)])))
        x = x.T if draw(st.booleans()) else x
    elif kind == "negative":  # moved onto a route of the same OD pair
        j = next(j for j in range(n) if j != i and net.layout.owner[j] == net.layout.owner[i])
        below = draw(st.floats(2e-9, 1.0))
        x[j] += x[i] + below
        x[i] = -below
    elif kind == "non-finite":
        x[i] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    else:
        demand = net.layout.masses[net.layout.owner[i]]
        x[i] += draw(st.sampled_from([1.0, -1.0])) * draw(
            st.floats(2e-7 * max(1.0, demand), 0.5 * x[i]))
    return x.tolist() if draw(st.booleans()) else x


START_CASES = [(entry, name) for entry in START_ENTRIES for name in START_NETWORKS]


@pytest.mark.parametrize("entry, name", START_CASES, ids=[f"{e}-{n}" for e, n in START_CASES])
@given(data=st.data())
@settings(derandomize=True, max_examples=25, deadline=None)
def test_every_flow_solve_entry_rejects_a_malformed_start(entry, name, data):
    # the checks stay where a start enters the package; in-package callers
    # that hold checked flows enter the solver core behind them
    net = START_NETWORKS[name]
    x = data.draw(malformed_route_flows(net))
    with pytest.raises(InvalidArgumentError, match="route flow"):
        START_ENTRIES[entry](net, x)


FLOW_SOLVES = {
    "wardrop_equilibrium": lambda net, **kw: wardrop_equilibrium(net, np.zeros(net.n_edges), **kw),
    "system_optimum": system_optimum,
}


@pytest.mark.parametrize("solve", FLOW_SOLVES.values(), ids=list(FLOW_SOLVES))
@pytest.mark.parametrize("bad", [dict(tol=np.nan), dict(tol=-1.0), dict(tol=0.0),
                                 dict(tol=np.inf), dict(max_iter=0), dict(max_iter=2.5),
                                 dict(max_iter=-3), dict(max_iter=np.nan)],
                         ids=lambda bad: "{}={}".format(*next(iter(bad.items()))))
def test_flow_solves_reject_a_bad_tolerance_or_budget(solve, bad):
    # a NaN tol fails every gap test, so the solve would run its whole budget
    message = ("tol must be finite and positive" if "tol" in bad
               else "max_iter must be a positive integer")
    with pytest.raises(InvalidArgumentError, match=message):
        solve(braess_network(), **bad)


@pytest.mark.parametrize("solve", FLOW_SOLVES.values(), ids=list(FLOW_SOLVES))
def test_flow_solves_take_a_whole_float_budget(solve):
    net = braess_network()
    for a, b in zip(solve(net, max_iter=1e3), solve(net)):
        np.testing.assert_array_equal(a, b, strict=True)


@pytest.mark.parametrize("w", [[1.0], 1.0, np.zeros(6), np.zeros((5, 1))])
def test_routing_helpers_reject_an_edge_flow_of_the_wrong_length(w):
    net, p = braess_network(), np.zeros(5)
    helpers = (lambda: edge_externality(net, w), lambda: route_costs(net, w),
               lambda: route_costs(net, w, p), lambda: total_latency_cost(net, w),
               lambda: beckmann_potential(net, w, p))
    for helper in helpers:
        with pytest.raises(InvalidArgumentError, match=r"edge flow must have 5 entries"):
            helper()


# ---------------------------------------------------------------------------
# equilibrium and optimum
# ---------------------------------------------------------------------------

def test_wardrop_two_link():
    net = two_link_network()
    _, w = wardrop_equilibrium(net, np.zeros(2))
    np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-9)
    _, w = wardrop_equilibrium(net, np.array([2.0, 0.0]))
    np.testing.assert_allclose(w, [0.0, 1.0], atol=1e-9)


def test_wardrop_pigou_untolled():
    net = pigou_network()
    _, w = wardrop_equilibrium(net, np.zeros(2))
    np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-9)


def test_wardrop_certificate():
    rng = np.random.default_rng(5)
    for name in ("two_link", "pigou", "braess"):
        net = load_fixture(name)
        for _ in range(5):
            p = rng.uniform(-1, 2, net.n_edges)
            x, w = wardrop_equilibrium(net, p)
            view = nonatomic_view(net)
            ok, resid = __import__("incentive_dynamics.games", fromlist=["x"]) \
                .certify_nash_nonatomic(view, x, net.incidence.T @ p, 1e-8)
            assert ok, (name, p, resid)


def test_system_optimum_values():
    pigou = pigou_network()
    _, w = system_optimum(pigou)
    np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-9)
    assert total_latency_cost(pigou, w) == pytest.approx(0.75, abs=1e-9)
    two = two_link_network()
    _, w2 = system_optimum(two)
    np.testing.assert_allclose(w2, [0.5, 0.5], atol=1e-9)
    assert total_latency_cost(two, w2) == pytest.approx(0.5, abs=1e-9)


def test_system_optimum_single_route():
    lat = LatencyFunction((0.0, 1.0))
    net = RoutingNetwork(nodes=("a", "b"), edges=(("a", "b", lat),),
                         od_pairs=(OdPair("a", "b", 2.0, ((0,),)),))
    _, w = system_optimum(net)
    np.testing.assert_allclose(w, [2.0], atol=1e-12)


def _relative_gap(net, x, w, p):
    c = route_costs(net, w, p)
    gap = sum(c[s] @ x[s] - od.demand * c[s].min()
              for s, od in zip(net.route_slices, net.od_pairs))
    return gap / max(1.0, abs(beckmann_potential(net, w, p)))


@pytest.mark.parametrize("start", ["cold", "warm"])
def test_wardrop_grid34_externality_tolls(start):
    """First-step tolls of the adaptation loop, beta_0 e(uniform flow), close the gap."""
    net = grid34()
    p = StepSchedule().beta(0) * edge_externality(net, net.incidence @ net.uniform_route_flow())
    rng = np.random.default_rng(3)
    x0 = None if start == "cold" else 0.5 * (net.uniform_route_flow() + net.random_start(rng))
    x, w = wardrop_equilibrium(net, p, x0=x0, max_iter=500)
    net.check_route_flow(x)
    np.testing.assert_allclose(w, net.incidence @ x, atol=1e-12)
    assert _relative_gap(net, x, w, p) <= 1e-10
    c = route_costs(net, w, p)
    for s in net.route_slices:
        used = x[s] > 0.0
        assert used.any() and c[s][used].max() - c[s].min() <= 1e-6


def test_equilibrium_rule_toll_adaptation_grid34():
    net = grid34()
    cfg = RunConfig(max_iterations=4000, convergence_tol=1e-4)
    rec = run_toll_adaptation(net, net.uniform_route_flow(), np.zeros(net.n_edges), cfg)
    assert rec.converged
    assert np.max(np.abs(rec.final_p - optimal_edge_tolls(net))) <= 1e-3


def test_default_schedule_settles_grid34_under_the_equilibrium_rule():
    # the former default (0.6, 0.9, 1, 1, 2) ran out of 3 000 steps here, 2.1e-5 from p†
    net = grid34()
    cfg = RunConfig(max_iterations=400, convergence_tol=1e-6)
    rec = run_coupled(net, net.uniform_route_flow(), np.zeros(net.n_edges), cfg)
    assert rec.converged and rec.iterations < 400
    assert np.max(np.abs(rec.final_p - optimal_edge_tolls(net))) <= 1e-5
    assert verify_fixed_point_optimality(net, rec.final_p, tol=1e-5)["passed"]


def test_flow_program_budget_error_carries_a_feasible_flow():
    net = grid34()
    with pytest.raises(ConvergenceError) as info:
        wardrop_equilibrium(net, np.zeros(net.n_edges), max_iter=1)
    x, w = info.value.best
    assert info.value.gap > 1e-10
    net.check_route_flow(x)
    np.testing.assert_allclose(w, net.incidence @ x, atol=1e-12)


def test_wardrop_constant_links_moves_all_flow():
    """Zero curvature on the exchanged edges: the whole route flow moves at once."""
    net = RoutingNetwork(nodes=("S", "D"),
                         edges=(("S", "D", LatencyFunction((2.0,))),
                                ("S", "D", LatencyFunction((1.0,)))),
                         od_pairs=(OdPair("S", "D", 3.0, ((0,), (1,))),),
                         relax_monotonicity=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, w = wardrop_equilibrium(net, np.zeros(2))
        x_so, _ = system_optimum(net)
    np.testing.assert_array_equal(x, [0.0, 3.0])
    np.testing.assert_array_equal(w, [0.0, 3.0])
    np.testing.assert_array_equal(x_so, [0.0, 3.0])


def flow_program_reference(net, edge_cost, edge_cost_deriv, objective, tol, x0, max_iter):
    """routing's flow-program solver before its Newton steps: pairwise sweeps
    only, with slices, demands and incidence rows built on every call and
    the objective evaluated at every gap test."""
    inc = net.incidence
    x = net.uniform_route_flow() if x0 is None else np.maximum(net.check_route_flow(x0), 0.0)
    blocks = [(x[s], inc[:, s].T.copy(), m) for s, m in zip(net.route_slices, net.demands)]
    gap = np.inf
    for _ in range(max_iter):
        w = inc @ x
        c_edge = edge_cost(w)
        gap = 0.0
        for xs, inc_s, m in blocks:
            c = inc_s @ c_edge
            gap += float(c @ xs - m * c.min())
        if gap <= tol * max(1.0, abs(objective(w))):
            return x, w
        for xs, inc_s, _ in blocks:
            c = inc_s @ c_edge
            for r in range(len(xs)):
                b = int(np.argmin(c))
                if xs[r] <= 0.0 or c[r] <= c[b]:
                    continue
                diff = inc_s[r] - inc_s[b]
                curv = float((diff * diff) @ edge_cost_deriv(w))
                shift = xs[r] if curv <= 0.0 else min(xs[r], (c[r] - c[b]) / curv)
                xs[r] -= shift
                xs[b] += shift
                w -= shift * diff
                c_edge = edge_cost(w)
                c = inc_s @ c_edge
    raise ConvergenceError("flow program did not close the duality gap",
                           best=(x, inc @ x), gap=gap)


def wardrop_reference(net, p, x0=None):
    return flow_program_reference(net, lambda w: net.latency(w) + p, net.latency_deriv,
                                  lambda w: beckmann_potential(net, w, p), 1e-10, x0, 200000)


def system_optimum_reference(net, x0=None):
    return flow_program_reference(
        net, lambda w: net.latency(w) + w * net.latency_deriv(w),
        lambda w: 2.0 * net.latency_deriv(w) + w * net.latency_second_deriv(w),
        lambda w: total_latency_cost(net, w), 1e-10, x0, 200000)


def _gap_passes(net, x, w, edge_cost, objective, tol=1e-10):
    """The solver's stop rule: relative duality gap of route flow x within tol."""
    c = net.incidence.T @ edge_cost(w)
    gap = sum(c[s] @ x[s] - od.demand * c[s].min()
              for s, od in zip(net.route_slices, net.od_pairs))
    return gap <= tol * max(1.0, abs(objective(w)))


def _flow_cases(net, p):
    """(solve, reference, edge cost, objective) of the Wardrop and system-optimum programs."""
    return (
        (lambda x0: wardrop_equilibrium(net, p, x0=x0), lambda x0: wardrop_reference(net, p, x0),
         lambda w: net.latency(w) + p, lambda w: beckmann_potential(net, w, p)),
        (lambda x0: system_optimum(net, x0=x0), lambda x0: system_optimum_reference(net, x0),
         lambda w: net.latency(w) + w * net.latency_deriv(w),
         lambda w: total_latency_cost(net, w)),
    )


@pytest.mark.parametrize("name", [*FIXTURES, *CORPUS])
def test_flow_solves_match_per_call_reference(name):
    """Edge flows within 1e-8 of the sweep-only reference, and a route flow
    that passes the relative-gap test; route flows are not unique."""
    net = load_fixture(name) if name in FIXTURES else CORPUS[name]()
    rng = np.random.default_rng(8)
    for x0 in (None, net.random_start(rng)):
        for p in (np.zeros(net.n_edges), rng.uniform(0.0, 1.0, net.n_edges)):
            for solve, reference, edge_cost, objective in _flow_cases(net, p):
                x, w = solve(x0)
                net.check_route_flow(x)
                np.testing.assert_allclose(w, net.incidence @ x, rtol=0, atol=1e-12)
                np.testing.assert_allclose(w, reference(x0)[1], rtol=0, atol=1e-8)
                assert _gap_passes(net, x, w, edge_cost, objective)


@pytest.mark.parametrize("solve, passes", [
    (lambda net: wardrop_equilibrium(net, np.zeros(net.n_edges)), 37),
    (system_optimum, 39),
    (optimal_edge_tolls, 41),
])
def test_flow_solves_make_one_kernel_pass_per_shift(monkeypatch, solve, passes):
    """Latency-kernel passes of a cold grid34 solve: one per shift, one per
    gap (the start, each sweep and each Newton step) and one per objective
    evaluation; a second pass per shift fails. The tolls take the system
    optimum's 39, one for the externality and one for the gap of their
    Wardrop check, which starts at the optimum (a cold check made 78)."""
    kernel, calls = routing._column_horner, []

    def counted(rows, w):
        calls.append(len(rows))
        return kernel(rows, w)

    monkeypatch.setattr(routing, "_column_horner", counted)
    net = grid34()
    calls.clear()
    solve(net)
    assert len(calls) == passes


def test_newton_step_is_shortened_to_keep_flows_nonnegative():
    """Two unit-slope links at x = (0.9, 0.1) with tolls (2, 0): the full step
    moves (c_1 - c_0) / 2 = -1.4 onto link 0, which would leave it -0.5; the
    step stops where link 0 empties."""
    net = two_link_network()
    x, p = np.array([0.9, 0.1]), np.array([2.0, 0.0])
    w = net.incidence @ x
    step = routing._newton_step(net, x, net.latency(w) + p, net.latency_deriv(w))
    np.testing.assert_array_equal(step, [0.0, 1.0])


def bpr_two_link():
    """Two BPR links t0 (1 + 0.15 w^4), t0 = 1 and 1.2, unit demand: the
    dearer link is unused at the Wardrop equilibrium, where its l'(0) = 0."""
    bpr = lambda t0: LatencyFunction((t0, 0.0, 0.0, 0.0, 0.15 * t0))
    return RoutingNetwork(nodes=("S", "D"), edges=(("S", "D", bpr(1.0)), ("S", "D", bpr(1.2))),
                          od_pairs=(OdPair("S", "D", 1.0, ((0,), (1,))),))


def test_newton_step_takes_a_singular_d():
    net = bpr_two_link()
    x = np.array([0.0, 1.0])  # the cheap link is empty: l'(0) = 0 there
    w = net.incidence @ x
    d = net.latency_deriv(w)
    assert d[0] == 0.0
    step = routing._newton_step(net, x, net.latency(w), d)
    assert np.isfinite(step).all() and (step >= 0.0).all() and step[0] > 0.0
    assert step.sum() == pytest.approx(1.0, abs=1e-15)
    for x0 in (None, x, x[::-1]):
        for solve, reference, edge_cost, objective in _flow_cases(net, np.zeros(2)):
            x_new, w_new = solve(x0)
            np.testing.assert_allclose(w_new, reference(x0)[1], rtol=0, atol=1e-8)
            assert _gap_passes(net, x_new, w_new, edge_cost, objective)
        np.testing.assert_array_equal(wardrop_equilibrium(net, np.zeros(2), x0=x0)[1], [1.0, 0.0])


def test_grid67_solves_match_the_reference_within_a_pass_budget(monkeypatch):
    """The ROADMAP's 6x7 grid (71 edges, 910 routes), cold and warm, at zero
    and random tolls and at the system optimum: edge flows within 1e-8 of the
    sweep-only reference, at most 2 000 kernel passes a solve (the solves
    take 1 250-1 670; the reference, which evaluates latencies and slopes
    apart, makes 8 200-26 400), and at least one Newton step shortened by a
    route that empties."""
    net = grid67()
    rng = np.random.default_rng(8)
    kernel, newton, passes, shortened = routing._column_horner, routing._newton_step, [], []

    def counted(rows, w):
        passes.append(1)
        return kernel(rows, w)

    def watched(net, x, c_edge, d_edge):
        step = newton(net, x, c_edge, d_edge)
        if step is not None and np.any((x > 0.0) & (step == 0.0)):
            shortened.append(1)
        return step

    x0s = (None, net.random_start(rng))
    for p in (np.zeros(net.n_edges), rng.uniform(0.0, 1.0, net.n_edges)):
        for case, (solve, reference, edge_cost, objective) in enumerate(_flow_cases(net, p)):
            if case == 1 and p.any():  # the system optimum takes no tolls
                continue
            for x0 in x0s:
                monkeypatch.setattr(routing, "_column_horner", counted)
                monkeypatch.setattr(routing, "_newton_step", watched)
                passes.clear()
                x, w = solve(x0)
                assert len(passes) <= 2000
                monkeypatch.undo()
                np.testing.assert_allclose(w, reference(x0)[1], rtol=0, atol=1e-8)
                assert _gap_passes(net, x, w, edge_cost, objective)
    assert shortened


@pytest.mark.parametrize("name, verdicts", [
    ("two_link", ("pass", "pass", "pass")),
    ("pigou", ("fail", "pass", "pass")),
    ("braess", ("pass", "pass", "pass")),
    ("grid34", ("pass", "pass", "pass")),
    ("grid45", ("pass", "pass", "pass")),
    ("mixed_degree", ("pass", "pass", "pass")),
])
def test_nondegeneracy_verdicts_at_zero_optimal_and_random_tolls(name, verdicts):
    """The verdicts that the sweep-only solver gave, pinned."""
    net = load_fixture(name) if name in FIXTURES else CORPUS[name]()
    tolls = (np.zeros(net.n_edges), optimal_edge_tolls(net),
             np.random.default_rng(5).uniform(0.0, 1.0, net.n_edges))
    assert tuple(routing.nondegeneracy_check(net, p) for p in tolls) == verdicts


def test_route_slices_and_demands_are_fresh_copies():
    net = grid34()
    p = np.random.default_rng(4).uniform(0.0, 1.0, net.n_edges)
    before = wardrop_equilibrium(net, p)
    slices, demands = net.route_slices, net.demands
    expected_slices, expected_demands = list(slices), demands.copy()
    slices[0] = slice(0, 1)
    slices.append(slice(0, 2))
    demands[:] = 100.0
    assert net.route_slices == expected_slices
    np.testing.assert_array_equal(net.demands, expected_demands)
    with pytest.raises(ValueError):
        net.incidence[0, 0] = 1.0
    for a, b in zip(wardrop_equilibrium(net, p), before):
        np.testing.assert_array_equal(a, b, strict=True)


# ---------------------------------------------------------------------------
# externality and tolls
# ---------------------------------------------------------------------------

def test_edge_externality_values():
    net = pigou_network()
    np.testing.assert_allclose(edge_externality(net, np.zeros(2)), np.zeros(2))
    np.testing.assert_allclose(edge_externality(net, np.array([0.5, 0.5])),
                               [0.5, 0.0], atol=1e-12)


def test_optimal_edge_tolls_fixtures():
    np.testing.assert_allclose(optimal_edge_tolls(pigou_network()),
                               [0.5, 0.0], atol=1e-8)
    np.testing.assert_allclose(optimal_edge_tolls(two_link_network()),
                               [0.5, 0.5], atol=1e-8)


def test_optimal_edge_tolls_reproduce_optimum():
    for name in ("two_link", "pigou", "braess"):
        net = load_fixture(name)
        p = optimal_edge_tolls(net)
        _, w_opt = system_optimum(net)
        np.testing.assert_allclose(p, w_opt * net.latency_deriv(w_opt),
                                   atol=1e-10)
        _, w_eq = wardrop_equilibrium(net, p)
        np.testing.assert_allclose(w_eq, w_opt, atol=1e-6)


def test_nondegeneracy_two_link():
    net = two_link_network()
    assert routing.nondegeneracy_check(net, np.array([0.5, 0.5])) == "pass"


def test_nondegeneracy_dominated_route_does_not_block():
    # second link strictly dominated at its whole flow range
    lat1 = LatencyFunction((0.0, 1.0))
    lat2 = LatencyFunction((5.0, 1.0))
    net = RoutingNetwork(nodes=("S", "D"),
                         edges=(("S", "D", lat1), ("S", "D", lat2)),
                         od_pairs=(OdPair("S", "D", 1.0, ((0,), (1,))),))
    assert routing.nondegeneracy_check(net, np.zeros(2)) == "pass"


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_nondegeneracy_corpus_untolled(name):
    """Single solves may leave a cheapest route empty; their average uses it."""
    net = CORPUS[name]()
    assert routing.nondegeneracy_check(net, np.zeros(net.n_edges)) == "pass"


def nondegeneracy_reference(net, edge_tolls, tol=1e-6, n_starts=8, seed=0):
    """``routing.nondegeneracy_check`` before it stopped at the first start
    that passes: every start solved, then each solution and their average
    tested."""
    rng = np.random.default_rng(seed)
    solutions = [routing.wardrop_equilibrium(net, edge_tolls)[0]]
    for _ in range(n_starts - 1):
        solutions.append(routing.wardrop_equilibrium(net, edge_tolls,
                                                     x0=net.random_start(rng))[0])

    def verdict(x):
        c = route_costs(net, net.incidence @ x, edge_tolls)
        cmin = np.minimum.reduce(net.layout.padded(c, np.inf), axis=1)
        return not np.any((c <= cmin[net.layout.owner] + tol) & (x <= tol))

    if any(verdict(x) for x in [*solutions, np.mean(solutions, axis=0)]):
        return "pass"
    spread = max(float(np.max(np.abs(a - b)))
                 for a in solutions for b in solutions)
    return "fail" if spread <= tol else "indeterminate"


# grid34 drawn from seed 20 is "indeterminate" at zero tolls
NONDEGENERACY_NETWORKS = {**NETWORKS, "grid34_seed20": lambda: grid34(20)}


@pytest.mark.parametrize("name", sorted(NONDEGENERACY_NETWORKS))
def test_nondegeneracy_check_matches_the_all_starts_reference(name):
    net = NONDEGENERACY_NETWORKS[name]()
    rng = np.random.default_rng(6)
    tolls = [np.zeros(net.n_edges), optimal_edge_tolls(net),
             *(rng.uniform(0.0, 2.0, net.n_edges) for _ in range(2))]
    for p in tolls:
        assert routing.nondegeneracy_check(net, p) == nondegeneracy_reference(net, p)


@pytest.mark.parametrize("make, n_starts, verdict, solves", [
    (braess_network, 8, "pass", 1),
    (grid45, 8, "pass", 7),
    (grid34, 8, "pass", 8),       # only the average of the starts passes
    (pigou_network, 8, "fail", 8),
    (lambda: grid34(20), 8, "indeterminate", 8),
    (lambda: grid34(20), 3, "indeterminate", 3),
])
def test_nondegeneracy_check_solves_a_prefix_of_the_reference_starts(
        monkeypatch, make, n_starts, verdict, solves):
    """The check solves the reference's starts in its order, from the same
    draws, and stops at the first solution that passes: each call's start
    and solution equal the reference's, bitwise."""
    net = make()
    solve, calls = routing.wardrop_equilibrium, []

    def recorded(net, edge_tolls, x0=None):
        result = solve(net, edge_tolls, x0=x0)
        calls.append((None if x0 is None else x0.copy(), result[0].copy()))
        return result

    monkeypatch.setattr(routing, "wardrop_equilibrium", recorded)
    p = np.zeros(net.n_edges)
    assert routing.nondegeneracy_check(net, p, n_starts=n_starts) == verdict
    checked = calls.copy()
    calls.clear()
    assert nondegeneracy_reference(net, p, n_starts=n_starts) == verdict
    assert len(checked) == solves and len(calls) == n_starts
    for (x0, x), (ref_x0, ref_x) in zip(checked, calls):
        assert (x0 is None) == (ref_x0 is None)
        if x0 is not None:
            np.testing.assert_array_equal(x0, ref_x0, strict=True)
        np.testing.assert_array_equal(x, ref_x, strict=True)


def optimal_edge_tolls_reference(net):
    """``optimal_edge_tolls`` with its Wardrop cross-check solved cold."""
    _, w_opt = system_optimum(net)
    p = edge_externality(net, w_opt)
    _, w_eq = wardrop_equilibrium(net, p)
    assert np.max(np.abs(w_eq - w_opt)) <= 1e-7
    return p


@pytest.mark.parametrize("name", [*NETWORKS, "grid67"])
def test_optimal_edge_tolls_match_the_cold_check_reference_bitwise(name):
    net = grid67() if name == "grid67" else NETWORKS[name]()
    np.testing.assert_array_equal(optimal_edge_tolls(net), optimal_edge_tolls_reference(net),
                                  strict=True)


@pytest.mark.parametrize("make", [pigou_network, grid34, grid45, CORPUS["mixed_degree"]])
def test_optimal_edge_tolls_reject_tolls_that_miss_the_optimum(monkeypatch, make):
    """Half the marginal-cost tolls move the equilibrium off the optimum, so
    the check's warm start at the optimum hides no inconsistency."""
    externality = routing.edge_externality
    monkeypatch.setattr(routing, "edge_externality", lambda net, w: 0.5 * externality(net, w))
    with pytest.raises(InconsistencyError, match="does not reproduce the system optimum"):
        optimal_edge_tolls(make())


def test_delta_matrix_values():
    pigou = pigou_network()
    with pytest.raises(InvalidArgumentError):
        delta_matrix(pigou, np.array([0.5, 0.5]))  # constant link has zero slope
    two = two_link_network()
    np.testing.assert_allclose(delta_matrix(two, np.array([0.5, 0.5])),
                               np.eye(2), atol=1e-12)
    quartic = RoutingNetwork(
        nodes=("S", "D"),
        edges=(("S", "D", LatencyFunction((1.0, 0.0, 0.0, 0.0, 1.0))),),
        od_pairs=(OdPair("S", "D", 1.0, ((0,),)),),
        relax_monotonicity=True)  # quartic slope vanishes at w = 0
    np.testing.assert_allclose(delta_matrix(quartic, np.array([1.0])),
                               [[1.0 / 16.0]], atol=1e-12)
    affine = RoutingNetwork(
        nodes=("S", "D"), edges=(("S", "D", LatencyFunction((3.0, 2.0))),),
        od_pairs=(OdPair("S", "D", 1.0, ((0,),)),))
    np.testing.assert_allclose(delta_matrix(affine, np.array([0.77])),
                               [[0.5]], atol=1e-12)


@pytest.mark.parametrize("w", [[0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]]])
def test_delta_matrix_takes_one_flow_per_edge(w):
    # [0.5] once broadcast into a full 2x2 weight; three entries raised numpy's ValueError
    with pytest.raises(InvalidArgumentError, match=r"edge flow must have 2 entries"):
        delta_matrix(two_link_network(), w)


# ---------------------------------------------------------------------------
# adaptation
# ---------------------------------------------------------------------------

def test_toll_adaptation_starts_at_optimum():
    net = two_link_network()
    p = np.array([0.5, 0.5])
    x = np.array([0.5, 0.5])
    cfg = RunConfig(max_iterations=50, convergence_tol=1e-6)
    rec = run_toll_adaptation(net, x, p, cfg)
    assert rec.converged and rec.residuals[0] <= 1e-6


def test_toll_adaptation_pigou():
    net = pigou_network()
    cfg = RunConfig(max_iterations=4000, convergence_tol=1e-4)
    rec = run_toll_adaptation(net, net.uniform_route_flow(), np.zeros(2), cfg)
    assert rec.converged
    np.testing.assert_allclose(rec.final_p, [0.5, 0.0], atol=1e-3)


def test_toll_adaptation_two_link():
    net = two_link_network()
    cfg = RunConfig(max_iterations=4000, convergence_tol=1e-4)
    rec = run_toll_adaptation(net, net.uniform_route_flow(), np.zeros(2), cfg)
    assert rec.converged
    np.testing.assert_allclose(rec.final_p, [0.5, 0.5], atol=1e-3)


def test_toll_adaptation_route_flow_stays_feasible():
    # a schedule under which no rule converges at 1e-12 within the 200 steps;
    # under the equilibrium rule this is what lets step solve from x unchecked
    for net, rule in ((braess_network(), StrategyUpdateRule()),
                      (grid34(), StrategyUpdateRule()),
                      (braess_network(), StrategyUpdateRule("best_response")),
                      (braess_network(), StrategyUpdateRule("gradient")),
                      (braess_network(), StrategyUpdateRule("gradient", regularizer="entropy"))):
        cfg = RunConfig(schedule=StepSchedule(a=0.8, b=1.0, offset=8), max_iterations=200,
                        convergence_tol=1e-12, rule=rule)
        rec = run_toll_adaptation(net, net.uniform_route_flow(),
                                  np.zeros(net.n_edges), cfg)
        assert len(rec.xs) == 201
        for x in rec.xs:
            net.check_route_flow(x)


@pytest.mark.parametrize("regularizer", ["quadratic", "entropy"])
def test_toll_adaptation_gradient_rules(regularizer):
    net = two_link_network()
    cfg = RunConfig(max_iterations=4000, convergence_tol=1e-4,
                    rule=StrategyUpdateRule("gradient", regularizer=regularizer))
    rec = run_toll_adaptation(net, np.array([0.9, 0.1]), np.zeros(2), cfg)
    assert rec.converged
    np.testing.assert_allclose(rec.final_x, [0.5, 0.5], atol=1e-3)
    np.testing.assert_allclose(rec.final_p, [0.5, 0.5], atol=1e-3)
    for x in rec.xs:
        net.check_route_flow(x)


def route_cost_jacobian(net) -> np.ndarray:
    """The dense R×R route-cost Jacobian Δᵀ diag(l'(w_u)) Δ at the uniform flow."""
    w = net.incidence @ net.uniform_route_flow()
    return net.incidence.T @ np.diag(net.latency_deriv(w)) @ net.incidence


def test_toll_adaptation_default_eta():
    # quadratic: NETWORK_STEP_GAIN / max(||J(w_u)||, 1e-12); entropy: the former
    # step 0.9 / max(max_a l_a'(total demand) * n_edges, 1e-12), bit for bit
    rule = StrategyUpdateRule("gradient")
    constant = RoutingNetwork(
        nodes=("S", "D"), edges=(("S", "D", LatencyFunction((1.0,))),),
        od_pairs=(OdPair("S", "D", 1.0, ((0,),)),), relax_monotonicity=True)
    for net in (two_link_network(), pigou_network(), braess_network(),
                *(build() for build in CORPUS.values()), grid67(), constant):
        assert net.default_eta("quadratic") == NETWORK_STEP_GAIN / net.cost_jacobian_norm()
        assert net.default_eta("entropy") == former_route_step(net)
    assert two_link_network().default_eta("quadratic") == NETWORK_STEP_GAIN  # J = I
    net = braess_network()
    norm = np.linalg.eigvalsh(route_cost_jacobian(net))[-1]
    assert net.default_eta("quadratic") == pytest.approx(NETWORK_STEP_GAIN / norm, rel=1e-12)
    assert net.default_eta("entropy") == 0.9 / 5.0
    assert constant.default_eta("quadratic") == NETWORK_STEP_GAIN / 1e-12
    assert constant.default_eta("entropy") == 0.9 / 1e-12
    runs = [run_toll_adaptation(net, net.uniform_route_flow(), np.zeros(5),
                                RunConfig(max_iterations=50, rule=r))
            for r in (rule, StrategyUpdateRule("gradient", eta=net.default_eta("quadratic")))]
    assert all(np.array_equal(a, b) for a, b in zip(runs[0].xs, runs[1].xs))


def test_a_run_resolves_the_default_step_once(monkeypatch):
    # ||J|| is computed on each call, so the loop must not ask for it per iteration
    calls = []
    monkeypatch.setattr(RoutingNetwork, "cost_jacobian_norm",
                        counting(RoutingNetwork.cost_jacobian_norm, calls))
    net = grid34()
    config = RunConfig(rule=StrategyUpdateRule("gradient"), max_iterations=30)
    rec = run_coupled(net, net.uniform_route_flow(), np.zeros(net.n_edges), config)
    assert rec.iterations == 30
    assert len(calls) == 1


def test_target_checks_the_tolls_once(monkeypatch):
    calls = []
    check = routing.check_incentive

    def counted(p, n):
        calls.append(1)
        return check(p, n)

    monkeypatch.setattr(routing, "check_incentive", counted)
    net = braess_network()
    x, p = net.uniform_route_flow(), np.full(net.n_edges, 0.1)
    for rule in (StrategyUpdateRule(), StrategyUpdateRule("gradient")):
        calls.clear()
        net.target(x, p, rule)
        assert len(calls) == 1
        with pytest.raises(InvalidArgumentError, match="incentive vector must be finite"):
            net.target(x, np.full(net.n_edges, np.nan), rule)
        with pytest.raises(InvalidArgumentError, match=r"incentive vector has shape \(2,\)"):
            net.target(x, np.zeros(2), rule)


# ---------------------------------------------------------------------------
# lemmas
# ---------------------------------------------------------------------------

def test_monotonicity_values():
    net = two_link_network()
    assert flow_monotonicity_check(net, np.zeros(2), np.zeros(2)) == pytest.approx(0.0, abs=1e-9)
    val = flow_monotonicity_check(net, np.array([1.0, 0.0]), np.zeros(2))
    assert val == pytest.approx(-0.5, abs=1e-8)


def test_social_cost_identity_random_flows():
    rng = np.random.default_rng(11)
    for name in ("two_link", "pigou", "braess"):
        net = load_fixture(name)
        view = nonatomic_view(net)
        for _ in range(10):
            x = net.random_start(rng)
            w = route_to_edge_flow(net, x)
            lhs = float(x @ view.action_cost(x))
            rhs = total_latency_cost(net, w)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_route_externality_aggregation():
    rng = np.random.default_rng(13)
    for name in ("two_link", "pigou", "braess"):
        net = load_fixture(name)
        view = nonatomic_view(net)
        x = net.random_start(rng)
        w = route_to_edge_flow(net, x)
        fd = numdiff.central_gradient(view.social, x) - view.action_cost(x)
        expect = net.incidence.T @ (w * net.latency_deriv(w))
        np.testing.assert_allclose(fd, expect, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("make", [braess_network, grid34])
def test_nonatomic_solve_checks_only_its_start(monkeypatch, make):
    # the certificate and the start check check; the solve's iterates need not
    view = nonatomic_view(make())
    p = np.random.default_rng(31).uniform(0.0, 0.5, view.dim)
    check, calls = games.NonAtomicGame.check_feasible, []

    def counted(self, x):
        calls.append(1)
        return check(self, x)

    monkeypatch.setattr(games.NonAtomicGame, "check_feasible", counted)
    x = games.solve_equilibrium_nonatomic(view, p)
    assert calls == []
    assert games.certify_nash_nonatomic(view, x, p)[0] and len(calls) == 1
    view.check_start(x, p)
    assert len(calls) == 2
    with pytest.raises(InvalidArgumentError, match="strategy distribution violates"):
        view.check_start(2.0 * x, p)
    # the solve's flows are those of the loop that certified every iterate
    np.testing.assert_array_equal(x, nonatomic_loop_reference(view, p))


@pytest.mark.parametrize("name", sorted(NETWORKS) + ["grid67"])
def test_social_grad_matches_two_kernel_passes_bitwise(name):
    # one (l, l') pass gives the bits that the latency and its slope give apart
    net = grid67() if name == "grid67" else NETWORKS[name]()
    rng = np.random.default_rng(37)
    for _ in range(50):
        x = net.random_start(rng)
        w = net.incidence @ x
        np.testing.assert_array_equal(
            net.social_grad(x),
            net.incidence.T @ (net.latency(w) + w * net.latency_deriv(w)), strict=True)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_network_slow_layer_methods(name):
    net = CORPUS[name]()
    assert net.dim == net.n_edges
    rng = np.random.default_rng(17)
    x = net.random_start(rng)
    fd = numdiff.central_gradient(net.social, x)
    np.testing.assert_allclose(net.social_grad(x), fd, rtol=1e-5, atol=1e-5)
    y = net.project(x + rng.normal(size=net.n_routes))
    net.check_route_flow(y)  # raises unless the demands are met
    np.testing.assert_allclose(net.project(x), x, atol=1e-12)
    np.testing.assert_array_equal(net.known_optimum(), system_optimum(net)[0])


# ---------------------------------------------------------------------------
# helpers, fixtures, serialization
# ---------------------------------------------------------------------------

def test_all_simple_paths_braess():
    net = braess_network()
    paths = all_simple_paths(net.nodes, net.edges, "s", "t")
    assert sorted(paths) == sorted([(0, 1), (2, 3), (0, 4, 3)])


def test_all_simple_paths_node_limit():
    nodes = tuple(range(13))
    with pytest.raises(InvalidArgumentError):
        all_simple_paths(nodes, (), 0, 12)


def test_load_fixture_unknown():
    with pytest.raises(InvalidArgumentError):
        load_fixture("mystery")


def test_network_from_json():
    data = {
        "nodes": ["S", "D"],
        "edges": [{"tail": "S", "head": "D", "poly": [0.0, 1.0]},
                  {"tail": "S", "head": "D", "poly": [0.0, 1.0]}],
        "od": [{"o": "S", "d": "D", "demand": 1.0, "routes": [[0], [1]]}],
    }
    net = network_from_json(data)
    _, w = wardrop_equilibrium(net, np.zeros(2))
    np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-9)


def test_network_from_json_names_the_od_pair_of_a_bad_value():
    data = {
        "nodes": ["S", "D"],
        "edges": [{"tail": "S", "head": "D", "poly": [0.0, 1.0]}],
        "od": [{"o": "S", "d": "D", "demand": 1.0, "routes": [[0]]},
               {"o": "S", "d": "D", "demand": 1.0, "routes": [0]}],
    }
    with pytest.raises(SpecError, match=re.escape("OD pair 1 (S -> D): route 0 must be a list")):
        network_from_json(data)
    data["od"][1].update(routes=0)
    with pytest.raises(SpecError, match=re.escape('OD pair 1 (S -> D): "routes" must be a list')):
        network_from_json(data)
    data["od"][1].update(routes=[[0]], demand=[1.0])
    with pytest.raises(SpecError, match=re.escape('OD pair 1 (S -> D): "demand" must be')):
        network_from_json(data)


COUPLED_RECORDS = Path(__file__).parent / "data" / "coupled_records.json"
RECORD_MODELS = {
    "braess": braess_network,
    "grid34": grid34,
    "grid45": grid45,
    "braess_view": lambda: nonatomic_view(braess_network()),
}
RECORD_RULES = {
    "best_response": StrategyUpdateRule("best_response"),
    "gradient": StrategyUpdateRule("gradient"),
    "gradient_eta0.2": StrategyUpdateRule("gradient", eta=0.2),
    "entropy": StrategyUpdateRule("gradient", regularizer="entropy"),
    "equilibrium": StrategyUpdateRule("equilibrium"),
}


@pytest.mark.parametrize("case", sorted(json.loads(COUPLED_RECORDS.read_text())))
def test_coupled_records_match_the_per_block_loops(case):
    """Records written by the per-block projection, best response and logit
    that the padded block layout replaced (commit 03d5674): 300 iterations
    from a seeded random start, recorded every 30, under the schedule and, on
    a network, the gradient step that were then the defaults. Equal to the
    bit, but for logit's row sums, which may round differently in blocks of 8
    or more routes."""
    expected = json.loads(COUPLED_RECORDS.read_text())[case]
    model_name, rule_name = case.split("/")
    model = RECORD_MODELS[model_name]()
    rule = RECORD_RULES[rule_name]
    if rule.eta is None and rule.variant == "gradient" and model_name != "braess_view":
        rule = dataclasses.replace(rule, eta=former_route_step(model))
    config = RunConfig(schedule=FORMER_SCHEDULE, rule=rule, max_iterations=300,
                       record_every=30)
    x0 = model.random_start(np.random.default_rng(5))
    record = run_coupled(model, x0, np.zeros(model.dim), config)
    assert (record.ks, record.converged, record.iterations) == (
        expected["ks"], expected["converged"], expected["iterations"])
    for key in ("xs", "ps", "residuals", "social_costs"):
        got = np.array(getattr(record, key))
        if rule_name == "entropy":
            np.testing.assert_allclose(got, expected[key], rtol=1e-12, atol=1e-15)
        else:
            np.testing.assert_array_equal(got, expected[key])


@given(st.floats(-1, 2), st.floats(-1, 2))
@settings(derandomize=True, max_examples=30, deadline=None)
def test_monotonicity_property_two_link(p1, p2):
    net = two_link_network()
    val = flow_monotonicity_check(net, np.array([p1, p2]), np.array([p2, p1]))
    assert val <= 1e-8


def test_route_edge_indices_may_be_numpy_integers():
    net = braess_network()
    od = net.od_pairs[0]
    routes = tuple(tuple(np.int64(a) for a in route) for route in od.routes)
    twin = RoutingNetwork(net.nodes, net.edges,
                          (OdPair(od.origin, od.destination, od.demand, routes),),
                          relax_monotonicity=np.True_)
    np.testing.assert_array_equal(twin.incidence, net.incidence)


@pytest.mark.parametrize("route, index", [((0.0, 1), "0.0"), ((0, 1.0), "1.0"),
                                          ((False, True), "False"), (("0", 1), "'0'")])
def test_route_edge_indices_must_be_integers(route, index):
    net = braess_network()
    od = OdPair("s", "t", 1.0, (route, (2, 3)))
    message = f"route {route!r}: edge index {index} is not an integer"
    with pytest.raises(SpecError, match=re.escape(message)):
        RoutingNetwork(net.nodes, net.edges, (od,), relax_monotonicity=True)


@pytest.mark.parametrize("relax", [1, 0.0, "false", None])
def test_relax_monotonicity_must_be_a_bool(relax):
    net = braess_network()
    with pytest.raises(SpecError, match="relax_monotonicity must be true or false"):
        RoutingNetwork(net.nodes, net.edges, net.od_pairs, relax_monotonicity=relax)


@st.composite
def small_grids(draw):
    """A corpus grid with 2-5 rows and columns, seeded latencies and 1-4 OD
    pairs, each from a node to another below or right of it."""
    rows, cols = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    ods = []
    for _ in range(draw(st.integers(1, 4))):
        r, c = divmod(draw(st.integers(0, rows * cols - 2)), cols)  # not the last node
        below = [(r2, c2) for r2 in range(r, rows) for c2 in range(c, cols) if (r2, c2) != (r, c)]
        ods.append(((r, c), draw(st.sampled_from(below)), draw(st.floats(0.5, 3.0))))
    return grid_network(rows, cols, draw(st.integers(0, 2**16)), tuple(ods))


@given(small_grids())
@settings(derandomize=True, max_examples=40, deadline=None)
def test_default_step_rests_on_the_route_cost_jacobian(net):
    dense = np.linalg.eigvalsh(route_cost_jacobian(net))[-1]
    assert net.cost_jacobian_norm() == pytest.approx(dense, rel=1e-10)
    p_dagger = optimal_edge_tolls(net)
    config = RunConfig(rule=StrategyUpdateRule("gradient"), max_iterations=300,
                       convergence_tol=1e-6)
    p0 = np.zeros(net.n_edges)
    rec = run_toll_adaptation(net, net.uniform_route_flow(), p0, config)
    assert np.isfinite(rec.final_x).all() and np.isfinite(rec.final_p).all()
    assert np.max(np.abs(rec.final_p - p_dagger)) < np.max(np.abs(p0 - p_dagger))
