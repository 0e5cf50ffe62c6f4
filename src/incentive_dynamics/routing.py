"""Non-atomic routing games with edge tolls.

Tolled Wardrop equilibria are computed by minimizing the Beckmann potential
over the route-flow polytope with route-based gradient projection, which
shifts flow onto the cheapest route of each OD pair until the relative
duality gap is at most ``tol``; the system optimum minimizes total latency
cost with the same solver. Marginal-cost tolls
``w_a * l_a'(w_a)`` make the two coincide. A network is a model of the
coupled loop in ``dynamics``: route flows are its strategies and edge tolls
its incentives.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import RunConfig, TrajectoryRecord, run_coupled
from .errors import (ConvergenceError, InconsistencyError, InvalidArgumentError,
                     SpecError)
from .games import (NonAtomicGame, check_incentive, project_blocks, random_blocks,
                    simplex_target)

DEFAULT_GAP_TOL = 1e-10
MAX_PATH_NODES = 12


@dataclass(frozen=True)
class LatencyFunction:
    """Polynomial latency with nonnegative coefficients (ascending order)."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise SpecError("latency polynomial needs at least one coefficient")
        if any(c < 0 for c in coeffs):
            raise SpecError("latency coefficients must be nonnegative")
        object.__setattr__(self, "coeffs", coeffs)

    def value(self, w):
        return np.polynomial.polynomial.polyval(w, self.coeffs)

    def deriv(self, w):
        c = np.polynomial.polynomial.polyder(self.coeffs)
        return np.polynomial.polynomial.polyval(w, c) if c.size else np.zeros_like(np.asarray(w, float))

    def second_deriv(self, w):
        c = np.polynomial.polynomial.polyder(self.coeffs, 2)
        return np.polynomial.polynomial.polyval(w, c) if c.size else np.zeros_like(np.asarray(w, float))

    def integral(self, w):
        c = np.polynomial.polynomial.polyint(self.coeffs)
        return np.polynomial.polynomial.polyval(w, c)


def _padded(coeff_rows) -> np.ndarray:
    """Ascending coefficient rows, zero-padded on the high-degree side to one width."""
    out = np.zeros((len(coeff_rows), max(len(c) for c in coeff_rows)))
    for row, c in zip(out, coeff_rows):
        row[:len(c)] = c
    return out


def _horner(coeffs, w):
    """Evaluate each row of an ascending coefficient matrix at ``w``.

    Same operations in the same order as ``polyval``, so the result is
    bitwise equal to the per-edge ``LatencyFunction`` path and zero padding
    of the leading coefficients is exact.
    """
    out = coeffs[..., -1] + w * 0
    for j in range(coeffs.shape[-1] - 2, -1, -1):
        out = coeffs[..., j] + out * w
    return out


@dataclass(frozen=True)
class OdPair:
    origin: object
    destination: object
    demand: float
    routes: tuple  # tuple of edge-index tuples


@dataclass(frozen=True)
class RoutingNetwork:
    nodes: tuple
    edges: tuple  # (tail, head, LatencyFunction)
    od_pairs: tuple
    relax_monotonicity: bool = False

    def __post_init__(self):
        nodes = tuple(self.nodes)
        edges = tuple((t, h, lat) for (t, h, lat) in self.edges)
        ods = tuple(self.od_pairs)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "od_pairs", ods)
        node_set = set(nodes)
        for t, h, _ in edges:
            if t not in node_set or h not in node_set:
                raise SpecError(f"edge ({t}, {h}) references unknown nodes")
        if not ods:
            raise SpecError("network needs at least one OD pair")
        total_demand = 0.0
        for od in ods:
            if od.demand <= 0:
                raise SpecError("OD demands must be strictly positive")
            if not od.routes:
                raise SpecError("every OD pair needs at least one route")
            total_demand += od.demand
            for route in od.routes:
                self._check_route(route, od)
        poly = np.polynomial.polynomial
        coeffs = [lat.coeffs for _, _, lat in edges]
        object.__setattr__(self, "_value_coeffs", _padded(coeffs))
        object.__setattr__(self, "_deriv_coeffs", _padded([poly.polyder(c) for c in coeffs]))
        object.__setattr__(self, "_second_coeffs", _padded([poly.polyder(c, 2) for c in coeffs]))
        object.__setattr__(self, "_integral_coeffs", _padded([poly.polyint(c) for c in coeffs]))
        ws = np.linspace(0.0, total_demand, 33)
        increasing = np.all(_horner(self._deriv_coeffs[:, None, :], ws) > 0, axis=1)
        decreasing = ~(increasing | self.relax_monotonicity)
        concave = np.any(_horner(self._second_coeffs[:, None, :], ws) < 0, axis=1)
        bad = decreasing | concave
        if bad.any():  # report the first offending edge, monotonicity before convexity
            if decreasing[np.argmax(bad)]:
                raise SpecError("edge latencies must be strictly increasing; "
                                "set relax_monotonicity for boundary cases")
            raise SpecError("edge latencies must be convex")
        inc = np.zeros((len(edges), sum(len(od.routes) for od in ods)))
        col = 0
        for od in ods:
            for route in od.routes:
                for a in route:
                    inc[a, col] += 1.0
                col += 1
        inc.setflags(write=False)  # _od_blocks caches copies of its columns
        object.__setattr__(self, "incidence", inc)

    def _check_route(self, route, od: OdPair):
        if not route:
            raise SpecError("routes must contain at least one edge")
        current = od.origin
        for a in route:
            if not 0 <= a < len(self.edges):
                raise SpecError(f"route references unknown edge index {a}")
            tail, head, _ = self.edges[a]
            if tail != current:
                raise SpecError(f"route {route} is not a contiguous path from {od.origin}")
            current = head
        if current != od.destination:
            raise SpecError(f"route {route} does not end at {od.destination}")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_routes(self) -> int:
        return self.incidence.shape[1]

    # Per-network invariants, built on first use. The public properties
    # return fresh copies, so a caller's mutation cannot reach the cache.
    @cached_property
    def _route_slices(self) -> tuple:
        out, start = [], 0
        for od in self.od_pairs:
            out.append(slice(start, start + len(od.routes)))
            start += len(od.routes)
        return tuple(out)

    @cached_property
    def _demands(self) -> np.ndarray:
        demands = np.array([od.demand for od in self.od_pairs])
        demands.setflags(write=False)
        return demands

    @cached_property
    def _od_blocks(self) -> tuple:
        """Per OD pair: its route slice, the incidence rows of its routes, its demand."""
        blocks = []
        for s, m in zip(self._route_slices, self._demands):
            inc_s = self.incidence[:, s].T.copy()
            inc_s.setflags(write=False)
            blocks.append((s, inc_s, m))
        return tuple(blocks)

    @property
    def route_slices(self) -> list:
        return list(self._route_slices)

    @property
    def demands(self) -> np.ndarray:
        return self._demands.copy()

    @property
    def dim(self) -> int:
        """The incentive dimension: one toll per edge."""
        return self.n_edges

    def latency(self, w) -> np.ndarray:
        return _horner(self._value_coeffs, np.asarray(w, dtype=float))

    def latency_deriv(self, w) -> np.ndarray:
        return _horner(self._deriv_coeffs, np.asarray(w, dtype=float))

    def latency_second_deriv(self, w) -> np.ndarray:
        return _horner(self._second_coeffs, np.asarray(w, dtype=float))

    def check_route_flow(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_routes,):
            raise InvalidArgumentError("route flow has wrong length")
        if np.any(x < -1e-9):
            raise InvalidArgumentError("route flows must be nonnegative")
        for s, od in zip(self._route_slices, self.od_pairs):
            if abs(x[s].sum() - od.demand) > 1e-7 * max(1.0, od.demand):
                raise InvalidArgumentError("route flow violates an OD demand")
        return x

    def uniform_route_flow(self) -> np.ndarray:
        x = np.empty(self.n_routes)
        for s, od in zip(self._route_slices, self.od_pairs):
            x[s] = od.demand / len(od.routes)
        return x

    # Coupled-loop model: route flows x, edge tolls p.

    def random_start(self, rng: np.random.Generator) -> np.ndarray:
        return random_blocks(rng, self._route_slices, self._demands)

    def check_start(self, x0, p0) -> tuple:
        return self.check_route_flow(x0), check_incentive(p0, self.n_edges)

    def target(self, x, p, rule, eta=None) -> np.ndarray:
        if rule.variant == "equilibrium":
            return wardrop_equilibrium(self, p, x0=x)[0]
        c = route_costs(self, self.incidence @ x, p)
        return simplex_target(x, c, self._route_slices, self._demands, rule, eta)

    def externality(self, x) -> np.ndarray:
        return edge_externality(self, self.incidence @ x)

    def social(self, x) -> float:
        return total_latency_cost(self, self.incidence @ x)

    def social_grad(self, x) -> np.ndarray:
        """Route marginal social costs: incidence^T (l(w) + w l'(w))."""
        w = self.incidence @ np.asarray(x, float)
        return self.incidence.T @ (self.latency(w) + w * self.latency_deriv(w))

    def project(self, x) -> np.ndarray:
        return project_blocks(np.asarray(x, dtype=float), self._route_slices, self._demands)

    def strategy_gap(self, f, x):
        """Sup distance of the edge flows; route decompositions are interchangeable."""
        return np.max(np.abs(self.incidence @ f - self.incidence @ x))

    def known_optimum(self) -> np.ndarray:
        return system_optimum(self)[0]

    def optimal_incentive(self) -> np.ndarray:
        return optimal_edge_tolls(self)

    def cost_lipschitz(self) -> float:
        """Crude bound on the route-cost Lipschitz constant: max l'(total demand) * E."""
        slope = float(np.max(self.latency_deriv(np.full(self.n_edges, self._demands.sum()))))
        return max(slope * self.n_edges, 1e-12)


def route_to_edge_flow(net: RoutingNetwork, x) -> np.ndarray:
    return net.incidence @ net.check_route_flow(x)


def route_costs(net: RoutingNetwork, w, edge_tolls=None) -> np.ndarray:
    c_edge = net.latency(w)
    if edge_tolls is not None:
        c_edge = c_edge + np.asarray(edge_tolls, dtype=float)
    return net.incidence.T @ c_edge


def beckmann_potential(net: RoutingNetwork, w, edge_tolls) -> float:
    w = np.asarray(w, dtype=float)
    # cumsum adds left to right; sum() would reorder pairwise and change bits
    integrals = np.cumsum(_horner(net._integral_coeffs, w))[-1]
    return float(integrals + np.asarray(edge_tolls, float) @ w)


def total_latency_cost(net: RoutingNetwork, w) -> float:
    w = np.asarray(w, dtype=float)
    return float(w @ net.latency(w))


def edge_externality(net: RoutingNetwork, w) -> np.ndarray:
    """Marginal-cost toll per edge: w_a * l_a'(w_a)."""
    w = np.asarray(w, dtype=float)
    return w * net.latency_deriv(w)


# ---------------------------------------------------------------------------
# Convex flow programs (route-based gradient projection)
# ---------------------------------------------------------------------------

def _solve_flow_program(net, edge_cost, edge_cost_deriv, objective, tol, x0, max_iter):
    """Minimize a convex separable edge objective over the route-flow polytope.

    Route-based gradient projection (Bertsekas and Gafni 1982; Jayakrishnan
    et al. 1994). ``edge_cost(w)`` must be the gradient of ``objective`` in
    edge flows and ``edge_cost_deriv(w)`` its derivative. A sweep visits the
    OD pairs, and within each its routes in order: a route r that carries
    flow and costs more than the cheapest route b of its OD shifts
    ``min(x_r, (c_r - c_b) / sum_{a in r △ b} d_a(w))`` onto b, the
    Newton step of the exchange, or all of x_r where that sum is zero
    (constant costs only). Edge flow and costs are updated after every
    shift. Before each sweep the relative duality gap
    ``sum_od (c_od . x_od - m_od min c_od) / max(1, |objective|)`` is
    checked against ``tol``; after ``max_iter`` sweeps ConvergenceError
    carries the last flow.
    """
    inc = net.incidence
    x = net.uniform_route_flow() if x0 is None else np.maximum(net.check_route_flow(x0), 0.0)
    blocks = [(x[s], inc_s, m) for s, inc_s, m in net._od_blocks]
    gap = np.inf
    for _ in range(max_iter):
        w = inc @ x
        c_edge = edge_cost(w)
        gap = 0.0
        for xs, inc_s, m in blocks:
            c = inc_s @ c_edge
            gap += float(c @ xs - m * c.min())
        # max(1, |objective|) >= 1, so a gap within tol passes without it
        if gap <= tol or gap <= tol * max(1.0, abs(objective(w))):
            return x, w
        for xs, inc_s, _ in blocks:  # xs is a view into x
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


def wardrop_equilibrium(net: RoutingNetwork, edge_tolls, tol: float = DEFAULT_GAP_TOL,
                        x0=None, max_iter: int = 200000):
    """Tolled user equilibrium; returns (route_flow, edge_flow).

    The edge flow is the unique Beckmann minimizer; the route flow is one of
    possibly many consistent decompositions.
    """
    p = np.asarray(edge_tolls, dtype=float)
    if p.shape != (net.n_edges,):
        raise InvalidArgumentError("edge toll vector has wrong length")
    cost = lambda w: net.latency(w) + p
    obj = lambda w: beckmann_potential(net, w, p)
    x, w = _solve_flow_program(net, cost, net.latency_deriv, obj, tol, x0, max_iter)
    return x, w


def system_optimum(net: RoutingNetwork, tol: float = DEFAULT_GAP_TOL,
                   x0=None, max_iter: int = 200000):
    """Total-latency-minimizing flow; returns (route_flow, edge_flow)."""
    cost = lambda w: net.latency(w) + w * net.latency_deriv(w)
    deriv = lambda w: 2.0 * net.latency_deriv(w) + w * net.latency_second_deriv(w)
    obj = lambda w: total_latency_cost(net, w)
    x, w = _solve_flow_program(net, cost, deriv, obj, tol, x0, max_iter)
    return x, w


def optimal_edge_tolls(net: RoutingNetwork, tol: float = 1e-8) -> np.ndarray:
    """Marginal-cost tolls at the system optimum, cross-checked in equilibrium."""
    _, w_opt = system_optimum(net, tol=min(tol, DEFAULT_GAP_TOL))
    p = edge_externality(net, w_opt)
    _, w_eq = wardrop_equilibrium(net, p)
    if np.max(np.abs(w_eq - w_opt)) > max(tol, 1e-7):
        raise InconsistencyError(
            "tolled equilibrium does not reproduce the system optimum "
            f"(deviation {np.max(np.abs(w_eq - w_opt)):.3g})")
    return p


def nondegeneracy_check(net: RoutingNetwork, edge_tolls, tol: float = 1e-6,
                        n_starts: int = 8, seed: int = 0) -> str:
    """Do all minimum-cost routes carry flow at the tolled equilibrium?

    Returns "pass", "fail", or "indeterminate". Route-flow minimizers can be
    non-unique, so zero flow in one decomposition is inconclusive; several
    warm starts, and their average, are probed before giving up. The
    equilibrium route flows form a convex set, so the average is one too and
    uses every route that any start uses.
    """
    rng = np.random.default_rng(seed)
    solutions = [wardrop_equilibrium(net, edge_tolls)[0]]
    for _ in range(n_starts - 1):
        solutions.append(wardrop_equilibrium(net, edge_tolls, x0=net.random_start(rng))[0])

    def verdict(x):
        c = route_costs(net, net.incidence @ x, edge_tolls)
        for s in net._route_slices:
            cmin = c[s].min()
            min_cost = c[s] <= cmin + tol
            if np.any(min_cost & (x[s] <= tol)):
                return False
        return True

    if any(verdict(x) for x in [*solutions, np.mean(solutions, axis=0)]):
        return "pass"
    spread = max(float(np.max(np.abs(a - b)))
                 for a in solutions for b in solutions)
    return "fail" if spread <= tol else "indeterminate"


def delta_matrix(net: RoutingNetwork, w_opt) -> np.ndarray:
    """Diagonal certificate weights 1 / (l' + w l'') at the optimal flow."""
    w = np.asarray(w_opt, dtype=float)
    denom = net.latency_deriv(w) + w * net.latency_second_deriv(w)
    if np.any(denom <= 0):
        raise InvalidArgumentError(
            "nonpositive certificate denominator; latencies must be strictly "
            "increasing and convex at the optimum")
    return np.diag(1.0 / denom)


def flow_monotonicity_check(net: RoutingNetwork, p, p2, tol: float = DEFAULT_GAP_TOL) -> float:
    """(p - p') . (w*(p) - w*(p')); nonpositive for monotone latencies."""
    _, w1 = wardrop_equilibrium(net, p, tol=tol)
    _, w2 = wardrop_equilibrium(net, p2, tol=tol)
    diff = np.asarray(p, float) - np.asarray(p2, float)
    return float(diff @ (w1 - w2))


# ---------------------------------------------------------------------------
# Coupled toll adaptation
# ---------------------------------------------------------------------------

def run_toll_adaptation(net: RoutingNetwork, x0, p0, config: RunConfig,
                        raise_on_failure: bool = False) -> TrajectoryRecord:
    """Coupled route-flow and edge-toll updates: ``run_coupled`` on the network.

    The strategy residual is measured in edge flows; the incentive residual
    compares the tolls with the marginal-cost externality of the current flow.
    """
    return run_coupled(net, x0, p0, config, raise_on_failure)


# ---------------------------------------------------------------------------
# Adapters and helpers
# ---------------------------------------------------------------------------

def nonatomic_view(net: RoutingNetwork) -> NonAtomicGame:
    """Route-level view of the routing game (per-route incentives)."""
    return NonAtomicGame(
        masses=net.demands,
        action_counts=tuple(len(od.routes) for od in net.od_pairs),
        action_cost=lambda x: route_costs(net, net.incidence @ np.asarray(x, float)),
        social=net.social,
        social_grad=net.social_grad,
    )


def all_simple_paths(nodes, edges, origin, destination) -> list:
    """All simple directed paths as edge-index tuples (small networks only)."""
    if len(tuple(nodes)) > MAX_PATH_NODES:
        raise InvalidArgumentError(
            f"path enumeration is limited to {MAX_PATH_NODES} nodes")
    out_edges = {}
    for idx, (t, h, *_) in enumerate(edges):
        out_edges.setdefault(t, []).append((idx, h))
    paths = []

    def dfs(node, visited, prefix):
        if node == destination:
            paths.append(tuple(prefix))
            return
        for idx, nxt in out_edges.get(node, []):
            if nxt not in visited:
                dfs(nxt, visited | {nxt}, prefix + [idx])

    dfs(origin, {origin}, [])
    return sorted(paths)


# ---------------------------------------------------------------------------
# Builtin fixtures
# ---------------------------------------------------------------------------

def two_link_network() -> RoutingNetwork:
    """Two parallel unit-slope links shared by one unit of demand."""
    lat = LatencyFunction((0.0, 1.0))
    return RoutingNetwork(
        nodes=("S", "D"),
        edges=((("S"), ("D"), lat), (("S"), ("D"), lat)),
        od_pairs=(OdPair("S", "D", 1.0, ((0,), (1,))),),
    )


def pigou_network() -> RoutingNetwork:
    """Pigou's example: l1(w) = w against a constant l2 = 1."""
    return RoutingNetwork(
        nodes=("S", "D"),
        edges=(("S", "D", LatencyFunction((0.0, 1.0))),
               ("S", "D", LatencyFunction((1.0,)))),
        od_pairs=(OdPair("S", "D", 1.0, ((0,), (1,))),),
        relax_monotonicity=True,
    )


def braess_network() -> RoutingNetwork:
    """Four-node Braess network with a mildly congestible bridge."""
    edges = (
        ("s", "a", LatencyFunction((0.0, 1.0))),      # 0: s -> a
        ("a", "t", LatencyFunction((1.0,))),          # 1: a -> t
        ("s", "b", LatencyFunction((1.0,))),          # 2: s -> b
        ("b", "t", LatencyFunction((0.0, 1.0))),      # 3: b -> t
        ("a", "b", LatencyFunction((0.25, 0.01))),    # 4: bridge
    )
    return RoutingNetwork(
        nodes=("s", "a", "b", "t"),
        edges=edges,
        od_pairs=(OdPair("s", "t", 1.0, ((0, 1), (2, 3), (0, 4, 3))),),
        relax_monotonicity=True,
    )


FIXTURES = {
    "two_link": (two_link_network, "two parallel unit-slope links, unit demand"),
    "pigou": (pigou_network, "Pigou's example: linear link vs constant link"),
    "braess": (braess_network, "four-node Braess network with a congestible bridge"),
}


def load_fixture(name: str) -> RoutingNetwork:
    try:
        return FIXTURES[name][0]()
    except KeyError:
        raise InvalidArgumentError(f"unknown fixture {name!r}") from None


def network_from_json(data: dict) -> RoutingNetwork:
    nodes = tuple(data["nodes"])
    edges = tuple((e["tail"], e["head"], LatencyFunction(tuple(e["poly"])))
                  for e in data["edges"])
    ods = tuple(OdPair(od["o"], od["d"], float(od["demand"]),
                       tuple(tuple(r) for r in od["routes"]))
                for od in data["od"])
    return RoutingNetwork(nodes=nodes, edges=edges, od_pairs=ods,
                          relax_monotonicity=bool(data.get("relax_monotonicity", False)))
