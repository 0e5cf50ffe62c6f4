"""Non-atomic routing games with edge tolls.

Tolled Wardrop equilibria are computed by minimizing the Beckmann potential
over the route-flow polytope with route-based gradient projection: sweeps
shift flow onto the cheapest route of each OD pair, and from the second
sweep on, joint Newton steps on the routes that carry flow finish the
solve, each kept only if it lowers the duality gap, until the relative gap
is at most ``tol``; the system optimum minimizes total latency cost with
the same solver. Marginal-cost tolls
``w_a * l_a'(w_a)`` make the two coincide. A network is a model of the
coupled loop in ``dynamics``: route flows are its strategies and edge tolls
its incentives.

Every latency evaluation goes through one kernel, ``_column_horner``: a
network builds its coefficient columns once, highest degree first, as one
stack for (l, l', l'') and one for the antiderivative, and the kernel runs
Horner's rule in place over them for all edges at once. A stack of k
polynomials per edge is evaluated in one of two forms, chosen from its
shape: with three or more coefficient rows (a latency of degree 2 or more,
such as a BPR latency) the kernel tiles the edge flow k times first, so
that each Horner pass is a same-shape contiguous ufunc, which numpy runs
faster than a broadcast one; with two rows (affine latencies) it keeps the
one broadcast multiply, which costs less than the tile. The flow solver
gets an edge cost and its derivative from one kernel pass, so it makes one
pass per shift, per duality gap (at the start, after each sweep and at each
Newton step) and per objective evaluation, and the coupled loop's
``RoutingNetwork.step`` makes one pass per iteration, besides its Wardrop
solve's under the equilibrium rule.

The solver core (``_solve_flow_program``, and ``_wardrop`` on it) keeps one
contract, as the equilibrium solvers in ``games`` do: it takes a checked,
feasible start, or None for the uniform route flow, copies it into an array
of its own, projected if an entry lies below zero, and returns that array as
the new route flow; it takes no other input from its caller and writes into none.
``wardrop_equilibrium`` and ``system_optimum`` check the tolerance, the
sweep budget, the tolls and the start flow, in that order, and then call
the core. ``RoutingNetwork.step`` under the equilibrium rule and the
two-link counterexample's toll grid in ``analysis`` call ``_wardrop``
directly: the coupled loop checked its tolls and its route flow is a convex
combination of feasible ones, and the grid's tolls are finite and each of
its starts is a solve's own output.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (RunConfig, TrajectoryRecord, _check_positive, _json_value,
                       _positive_int, _require_finite, _with_default_step, run_coupled)
from .errors import (ConvergenceError, InconsistencyError, InvalidArgumentError,
                     SpecError)
from .games import (BlockLayout, NonAtomicGame, _BlockSpace, check_incentive,
                    check_tolerance, simplex_target, sup_distance)

DEFAULT_GAP_TOL = 1e-10
MAX_SWEEPS = 200000  # a flow solve's default sweep budget
MAX_PATH_NODES = 12
# G of the default gradient step G / ||J|| under the quadratic regularizer,
# chosen by studies/step_study.py (STEP_STUDY.json)
NETWORK_STEP_GAIN = 9.0


@dataclass(frozen=True)
class LatencyFunction:
    """Polynomial latency with nonnegative coefficients (ascending order)."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise SpecError("latency polynomial needs at least one coefficient")
        _require_finite(coeffs, "latency coefficients")
        if any(c < 0 for c in coeffs):
            raise SpecError("latency coefficients must be nonnegative")
        object.__setattr__(self, "coeffs", coeffs)


def _columns(polys, width: int) -> np.ndarray:
    """Ascending coefficient lists as zero-padded columns, highest degree first:
    row j holds every edge's coefficient of degree ``width - 1 - j``."""
    out = np.zeros((width, len(polys)))
    for a, c in enumerate(polys):
        out[width - len(c):, a] = c[::-1]
    return out


def _column_horner(rows, w):
    """Evaluate coefficient rows, highest degree first, at ``w`` by Horner's rule.

    In place: ``out = rows[0] * w; out += rows[1]``, then ``out *= w; out += row``
    for each further row. Rows of shape (k, E) give k polynomials per edge in
    one pass; with three or more of them, ``w`` is first tiled to their shape
    (the module docstring says why). For finite ``w`` these are
    polyval's operations in its order (its ``c + w*0`` start is ``c``), so the
    values are bitwise equal to polyval's on each edge's coefficients, and
    leading zero rows are exact. At an infinite or NaN ``w`` the result is the
    IEEE Horner value (inf or NaN) where polyval gives NaN.
    """
    if len(rows) == 1:
        return rows[0] + w * 0.0
    if len(rows) > 2 and rows[0].ndim == 2:  # k polynomials per edge, at one edge flow
        w = w[None].repeat(len(rows[0]), axis=0)
    out = rows[0] * w
    out += rows[1]
    for row in rows[2:]:
        out *= w
        out += row
    return out


@dataclass(frozen=True)
class OdPair:
    origin: object
    destination: object
    demand: float
    routes: tuple  # tuple of edge-index tuples


@dataclass(frozen=True)
class RoutingNetwork(_BlockSpace):
    _strategy, _block = "route flow", "an OD demand"

    nodes: tuple
    edges: tuple  # (tail, head, LatencyFunction)
    od_pairs: tuple
    relax_monotonicity: bool = False

    def __post_init__(self):
        if not isinstance(self.relax_monotonicity, (bool, np.bool_)):
            raise SpecError("relax_monotonicity must be true or false")
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
        for od in ods:
            _check_positive(od.demand, "OD demands")
            if not od.routes:
                raise SpecError("every OD pair needs at least one route")
            for route in od.routes:
                self._check_route(route, od)
        # Coefficient columns, built once: a (width, 3, E) stack whose row j
        # holds degree width-1-j of (l, l', l'') for every edge, and the
        # Beckmann antiderivative's (width+1, E) columns. Row tuples are
        # cached per use; the derivatives skip their all-zero top rows.
        poly = np.polynomial.polynomial
        polys = [lat.coeffs for _, _, lat in edges]
        width = max(map(len, polys))
        stack = np.stack([_columns([poly.polyder(c, q) for c in polys], width)
                          for q in range(3)], axis=1)
        integral = _columns([poly.polyint(c) for c in polys], width + 1)
        stack.setflags(write=False)
        integral.setflags(write=False)
        object.__setattr__(self, "_value_rows", tuple(stack[:, 0]))
        object.__setattr__(self, "_deriv_rows", tuple(stack[min(1, width - 1):, 1]))
        object.__setattr__(self, "_second_rows", tuple(stack[min(2, width - 1):, 2]))
        object.__setattr__(self, "_cost_rows", tuple(stack[:, :2]))
        object.__setattr__(self, "_all_rows", tuple(stack))
        object.__setattr__(self, "_integral_rows", tuple(integral))
        # nonnegative coefficients make every latency convex, and strictly increasing
        # at w > 0 unless it is constant (a BPR latency's slope vanishes at w = 0)
        if not self.relax_monotonicity and not all(any(c[1:]) for c in polys):
            raise SpecError("edge latencies must be strictly increasing; "
                            "set relax_monotonicity for boundary cases")
        # The incidence, its transpose (one row per route), the block layout
        # of the route flows (one block per OD pair, summing to its demand),
        # and per OD pair its route slice, demand and rows of the transpose,
        # all read-only: the public properties return fresh copies.
        layout = BlockLayout([len(od.routes) for od in ods], [od.demand for od in ods])
        inc = np.zeros((len(edges), layout.owner.size))
        for col, route in enumerate(r for od in ods for r in od.routes):
            for a in route:
                inc[a, col] += 1.0
        rows = inc.T.copy()
        for a in (inc, rows):
            a.setflags(write=False)
        object.__setattr__(self, "incidence", inc)
        object.__setattr__(self, "_route_rows", rows)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "_od_blocks", tuple(
            (s, rows[s], float(m)) for s, m in zip(layout.slices, layout.masses)))

    def _check_route(self, route, od: OdPair):
        if not route:
            raise SpecError("routes must contain at least one edge")
        current = od.origin
        for a in route:
            if isinstance(a, bool) or not isinstance(a, (int, np.integer)):
                raise SpecError(f"route {route}: edge index {a!r} is not an integer")
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

    @property
    def route_slices(self) -> list:
        return list(self.layout.slices)

    @property
    def demands(self) -> np.ndarray:
        return self.layout.masses.copy()

    @property
    def dim(self) -> int:
        """The incentive dimension: one toll per edge."""
        return self.n_edges

    def latency(self, w) -> np.ndarray:
        return _column_horner(self._value_rows, np.asarray(w, dtype=float))

    def latency_deriv(self, w) -> np.ndarray:
        return _column_horner(self._deriv_rows, np.asarray(w, dtype=float))

    def latency_second_deriv(self, w) -> np.ndarray:
        return _column_horner(self._second_rows, np.asarray(w, dtype=float))

    check_route_flow = _BlockSpace.check_feasible
    uniform_route_flow = _BlockSpace.uniform_point

    # Coupled-loop model: route flows x, edge tolls p.

    def target(self, x, p, rule) -> np.ndarray:
        if rule.variant == "equilibrium":  # the solve checks p
            return wardrop_equilibrium(self, p, x0=x)[0]
        p = check_incentive(p, self.n_edges)
        rule = _with_default_step(self, rule)
        return self._simplex_target(x, self.latency(self.incidence @ x), p, rule)

    def _simplex_target(self, x, latency, p, rule) -> np.ndarray:
        """The best-response or gradient target from the edge latencies at ``x``."""
        return simplex_target(x, self.incidence.T @ (latency + p), self.layout, rule)

    def step(self, x, p, rule) -> tuple:
        """``(f, e, d, social)`` at (x, p) from one edge flow
        ``w = incidence @ x`` and one kernel pass for (l, l') at ``w``.

        Takes x and p as the coupled loop holds them (checked) and returns a
        new target ``f``: under the equilibrium rule the Wardrop solve's route
        flow from x (``_wardrop``), else the simplex target from the pass.
        ``d = w_f - w``, whose sup norm is the strategy gap, compares ``w``
        with the edge flow ``w_f`` of ``f``: the one the Wardrop solve returns
        under the equilibrium rule, else ``incidence @ f``.
        """
        w = self.incidence @ x
        latency, slope = _column_horner(self._cost_rows, w)
        if rule.variant == "equilibrium":
            f, w_f = _wardrop(self, p, x)
        else:
            f = self._simplex_target(x, latency, p, rule)
            w_f = self.incidence @ f
        return f, w * slope, w_f - w, float(w @ latency)

    def externality(self, x) -> np.ndarray:
        return edge_externality(self, self.incidence @ x)

    def social(self, x) -> float:
        return total_latency_cost(self, self.incidence @ x)

    def social_grad(self, x) -> np.ndarray:
        """Route marginal social costs: incidence^T (l(w) + w l'(w)), in one kernel pass."""
        w = self.incidence @ np.asarray(x, float)
        latency, slope = _column_horner(self._cost_rows, w)
        return self.incidence.T @ (latency + w * slope)

    def strategy_gap(self, f, x):
        """Sup distance of the edge flows; route decompositions are interchangeable."""
        return sup_distance(self.incidence @ f, self.incidence @ x)

    def known_optimum(self) -> np.ndarray:
        return system_optimum(self)[0]

    def certificate_weight(self) -> np.ndarray:
        """The paper's diagonal certificate weight at the system optimum."""
        return delta_matrix(self, system_optimum(self)[1])

    def default_eta(self, regularizer: str) -> float:
        """``NETWORK_STEP_GAIN`` / ||J|| (:meth:`cost_jacobian_norm`) under the
        quadratic regularizer; under entropy the temperature
        0.9 / max(max l'(total demand) * E, 1e-12), which rests on no bound:
        every larger one tried, G / ||J|| for G from 1 to 243, ended entropy
        runs from uniform flows farther from p† on the fixtures and the corpus."""
        if regularizer == "quadratic":
            return NETWORK_STEP_GAIN / self.cost_jacobian_norm()
        slope = float(np.max(self.latency_deriv(np.full(self.n_edges, self.layout.masses.sum()))))
        return 0.9 / max(slope * self.n_edges, 1e-12)

    def cost_jacobian_norm(self) -> float:
        """‖J‖, the spectral norm of the route-cost Jacobian
        J = Δᵀ diag(l'(w_u)) Δ at the uniform edge flow w_u (at least 1e-12).

        It is the largest eigenvalue of the E×E matrix B Bᵀ, with
        B = √l'(w_u) ⊙ Δ, so the R×R J is never built.
        """
        w = self.incidence @ self.uniform_point()
        b = np.sqrt(self.latency_deriv(w))[:, None] * self.incidence
        return max(float(np.linalg.eigvalsh(b @ b.T)[-1]), 1e-12)


def route_to_edge_flow(net: RoutingNetwork, x) -> np.ndarray:
    return net.incidence @ net.check_route_flow(x)


def _edge_flow(net: RoutingNetwork, w) -> np.ndarray:
    """``w`` as a float array, if it holds one flow per edge of ``net``."""
    w = np.asarray(w, dtype=float)
    if w.shape != (net.n_edges,):
        raise InvalidArgumentError(
            f"edge flow must have {net.n_edges} entries, got shape {w.shape}")
    return w


def route_costs(net: RoutingNetwork, w, edge_tolls=None) -> np.ndarray:
    c_edge = net.latency(_edge_flow(net, w))
    if edge_tolls is not None:
        c_edge = c_edge + check_incentive(edge_tolls, net.n_edges)
    return net.incidence.T @ c_edge


def beckmann_potential(net: RoutingNetwork, w, edge_tolls) -> float:
    return _beckmann_potential(net, _edge_flow(net, w), check_incentive(edge_tolls, net.n_edges))


def _beckmann_potential(net, w, p) -> float:
    """The Beckmann potential at an edge flow ``w`` and tolls ``p`` taken as checked."""
    # a running sum adds left to right; sum() would reorder pairwise and change bits
    integrals = np.add.accumulate(_column_horner(net._integral_rows, w))[-1]
    return float(integrals + p @ w)


def total_latency_cost(net: RoutingNetwork, w) -> float:
    w = _edge_flow(net, w)
    return float(w @ net.latency(w))


def edge_externality(net: RoutingNetwork, w) -> np.ndarray:
    """Marginal-cost toll per edge: w_a * l_a'(w_a)."""
    w = _edge_flow(net, w)
    return w * net.latency_deriv(w)


# ---------------------------------------------------------------------------
# Convex flow programs (route-based gradient projection)
# ---------------------------------------------------------------------------

def _newton_step(net, x, c_edge, d_edge):
    """The joint Newton step on the routes that carry flow, shortened so that
    every flow stays nonnegative; None where there is no step to take.

    ``c_edge`` holds the edge costs and ``d_edge`` their derivatives. Each
    used route r other than the cheapest route b of its OD pair gives one
    row Δ_r - Δ_b of K, with right-hand side c_b - c_r. The step
    y = (K D Kᵀ)⁺ rhs, with D = diag(d_edge), moves y_r onto each such r and
    -Σ y_r onto its b. It is solved in edge space: with L = K sqrt(D) =
    U S Vᵀ, y = U S⁻² Uᵀ rhs over the singular values above numpy's
    least-squares cutoff. That costs O(m E min(m, E)) for m rows and E
    edges, and an edge whose cost is flat (a zero in D) needs no special case.
    """
    rows = net._route_rows
    c = rows @ c_edge
    best = net.layout.argmin(c)
    used = x > 0.0
    used[best] = False
    r = np.flatnonzero(used)
    if not r.size:
        return None
    b = best[net.layout.owner[r]]
    u, sv, _ = np.linalg.svd((rows[r] - rows[b]) * np.sqrt(d_edge), full_matrices=False)
    keep = sv > sv[0] * max(r.size, rows.shape[1]) * np.finfo(float).eps
    u = u[:, keep]
    y = u @ ((u.T @ (c[b] - c[r])) / sv[keep] ** 2)
    dx = np.zeros_like(x)
    dx[r] = y
    dx -= np.bincount(b, y, minlength=x.size)
    down = dx < 0.0
    step = min(1.0, float(np.min(x[down] / -dx[down]))) if down.any() else 1.0
    return np.maximum(x + step * dx, 0.0) if step > 0.0 else None


def _solve_flow_program(net, edge_terms, objective, tol, x0, max_iter):
    """Minimize a convex separable edge objective over the route-flow polytope.

    Route-based gradient projection (Bertsekas and Gafni 1982; Jayakrishnan
    et al. 1994), finished by projected Newton steps on the used routes
    (Bertsekas and Gafni 1983). ``edge_terms(w)`` returns the edge costs c,
    the gradient of ``objective`` in edge flows, and their derivatives d,
    from one pass of the latency kernel. ``x0`` is the start, a feasible
    route flow taken as checked, or None for the uniform route flow. The solve
    copies it, projected if an entry lies within the slack below zero, and
    returns that array as the new route flow ``x`` with its edge flow ``w``;
    it writes into no input.

    A sweep visits the OD pairs, and within each its routes in order: a
    route r that carries flow and costs more than the cheapest route b of
    its OD shifts ``min(x_r, (c_r - c_b) / sum_{a in r △ b} d_a(w))`` onto
    b, the Newton step of the exchange, or all of x_r where that sum is
    zero (constant costs only); edge flow, costs and derivatives are
    updated after every shift. The per-route tests and the shift run on
    Python floats, the same IEEE operations as on numpy scalars, without
    numpy's overflow warnings. After each sweep the edge flow is recomputed
    from the route flow and the relative duality gap
    ``sum_od (c_od . x_od - m_od min c_od) / max(1, |objective|)`` is tested
    against ``tol``. Where it fails after the second or a later sweep, joint
    Newton steps on the used routes (``_newton_step``) follow while each
    lowers the gap, and each kept step's costs serve the next test; the
    first step that does not lower the gap is undone. The first sweep runs
    alone because on a warm start it often leaves a gap that one more cheap
    sweep closes. So the solver makes one kernel pass per shift, per gap
    (the start, each sweep and each Newton step) and per objective
    evaluation. After ``max_iter`` sweeps ConvergenceError carries the last
    flow and its gap.
    """
    inc = net.incidence
    x = (net.uniform_route_flow() if x0 is None
         else net.project(x0) if (x0 < 0.0).any() else np.maximum(x0, 0.0))
    blocks = [(x[s], inc_s, m) for s, inc_s, m in net._od_blocks]  # xs is a view into x

    def measure():  # edge flow, edge terms and duality gap
        w = inc @ x
        c_edge, d_edge = edge_terms(w)
        gap = 0.0
        for xs, inc_s, m in blocks:
            c = inc_s @ c_edge
            gap += float(c @ xs) - m * float(np.minimum.reduce(c))
        return w, c_edge, d_edge, gap

    def converged(w, gap):  # max(1, |objective|) >= 1, so a gap within tol passes
        return gap <= tol or gap <= tol * max(1.0, abs(objective(w)))

    w, c_edge, d_edge, gap = measure()
    done = converged(w, gap)
    for sweep in range(max_iter):
        if done:
            break
        for xs, inc_s, _ in blocks:
            c = inc_s @ c_edge
            flows, costs = xs.tolist(), c.tolist()
            for r in range(len(flows)):
                b = int(c.argmin())
                x_r, c_r, c_b = flows[r], costs[r], costs[b]
                if x_r <= 0.0 or c_r <= c_b:
                    continue
                diff = inc_s[r] - inc_s[b]
                curv = float((diff * diff) @ d_edge)
                shift = x_r if curv <= 0.0 else min(x_r, (c_r - c_b) / curv)
                xs[r] = flows[r] = x_r - shift
                xs[b] = flows[b] = flows[b] + shift
                w -= shift * diff
                c_edge, d_edge = edge_terms(w)
                c = inc_s @ c_edge
                costs = c.tolist()
        w, c_edge, d_edge, gap = measure()
        done = converged(w, gap)
        while sweep > 0 and not done:
            step = _newton_step(net, x, c_edge, d_edge)
            if step is None:
                break
            kept = x.copy()
            x[:] = step
            trial = measure()
            if trial[-1] >= gap:
                x[:] = kept
                break
            w, c_edge, d_edge, gap = trial
            done = converged(w, gap)
    if done:
        return x, w
    raise ConvergenceError("flow program did not close the duality gap",
                           best=(x, inc @ x), gap=gap)


def _wardrop(net: RoutingNetwork, p, x0, tol=DEFAULT_GAP_TOL, max_iter=MAX_SWEEPS):
    """``wardrop_equilibrium`` on inputs taken as checked: tolls ``p`` and a
    start ``x0`` (or None) as ``_solve_flow_program`` takes it. Returns a new
    ``(route_flow, edge_flow)``."""
    rows = net._cost_rows

    def terms(w):  # (l + p, l')
        out = _column_horner(rows, w)
        out[0] += p
        return out

    obj = lambda w: _beckmann_potential(net, w, p)
    return _solve_flow_program(net, terms, obj, tol, x0, max_iter)


def wardrop_equilibrium(net: RoutingNetwork, edge_tolls, tol: float = DEFAULT_GAP_TOL,
                        x0=None, max_iter: int = MAX_SWEEPS):
    """Tolled user equilibrium; returns (route_flow, edge_flow).

    The edge flow is the unique Beckmann minimizer; the route flow is one of
    possibly many consistent decompositions.
    """
    check_tolerance(tol)
    max_iter = _positive_int(max_iter, "max_iter")
    p = check_incentive(edge_tolls, net.n_edges)
    x0 = None if x0 is None else net.check_route_flow(x0)
    return _wardrop(net, p, x0, tol, max_iter)


def system_optimum(net: RoutingNetwork, tol: float = DEFAULT_GAP_TOL,
                   x0=None, max_iter: int = MAX_SWEEPS):
    """Total-latency-minimizing flow; returns (route_flow, edge_flow)."""
    check_tolerance(tol)
    max_iter = _positive_int(max_iter, "max_iter")
    x0 = None if x0 is None else net.check_route_flow(x0)
    rows = net._all_rows

    def terms(w):  # (l + w l', 2 l' + w l'')
        value, slope, curve = _column_horner(rows, w)
        return value + w * slope, 2.0 * slope + w * curve

    obj = lambda w: total_latency_cost(net, w)
    return _solve_flow_program(net, terms, obj, tol, x0, max_iter)


def optimal_edge_tolls(net: RoutingNetwork) -> np.ndarray:
    """Marginal-cost tolls ``w l'(w)`` at the system optimum w_opt.

    Cross-check: the equilibrium edge flow under these tolls is unique, and
    must equal w_opt to 1e-7, else ``InconsistencyError``. The Wardrop solve
    starts at the optimal route flow x_opt. Under consistent tolls x_opt is
    already an equilibrium, so the solve usually stops at its first gap
    test; under inconsistent ones it moves the flow away from w_opt.
    """
    x_opt, w_opt = system_optimum(net)
    p = edge_externality(net, w_opt)
    _, w_eq = wardrop_equilibrium(net, p, x0=x_opt)
    if np.max(np.abs(w_eq - w_opt)) > 1e-7:
        raise InconsistencyError(
            "tolled equilibrium does not reproduce the system optimum "
            f"(deviation {np.max(np.abs(w_eq - w_opt)):.3g})")
    return p


def nondegeneracy_check(net: RoutingNetwork, edge_tolls, tol: float = 1e-6,
                        n_starts: int = 8, seed: int = 0) -> str:
    """Do all minimum-cost routes carry flow at the tolled equilibrium?

    Returns "pass", "fail", or "indeterminate". Route-flow minimizers can be
    non-unique, so zero flow in one decomposition is inconclusive. The
    starts (at least two) are solved one at a time: the cold start first,
    then warm starts drawn from ``seed``, and the first solution that uses
    every minimum-cost route returns "pass". Only when none does is their
    average tested: the equilibrium route flows form a convex set, so the
    average is one too and uses every route that any start uses. Where it
    fails as well, starts that all agree within ``tol`` give "fail", and
    starts that differ give "indeterminate".
    """
    check_tolerance(tol)
    n_starts = _positive_int(n_starts, "n_starts")
    if n_starts < 2:
        raise InvalidArgumentError("the nondegeneracy check needs at least two starts")
    rng = np.random.default_rng(_positive_int(seed, "seed", least=0))

    def verdict(x):
        c = route_costs(net, net.incidence @ x, edge_tolls)
        cmin = np.minimum.reduce(net.layout.padded(c, np.inf), axis=1)
        return not np.any((c <= cmin[net.layout.owner] + tol) & (x <= tol))

    solutions = []
    for k in range(n_starts):
        x = wardrop_equilibrium(net, edge_tolls, x0=net.random_start(rng) if k else None)[0]
        if verdict(x):
            return "pass"
        solutions.append(x)
    if verdict(np.mean(solutions, axis=0)):
        return "pass"
    spread = max(float(np.max(np.abs(a - b)))
                 for a in solutions for b in solutions)
    return "fail" if spread <= tol else "indeterminate"


def delta_matrix(net: RoutingNetwork, w_opt) -> np.ndarray:
    """Diagonal certificate weights 1 / (l' + w l'') at the optimal flow."""
    w = _edge_flow(net, w_opt)
    denom = net.latency_deriv(w) + w * net.latency_second_deriv(w)
    if np.any(denom <= 0):
        raise InvalidArgumentError(
            "nonpositive certificate denominator; latencies must be strictly "
            "increasing and convex at the optimum")
    return np.diag(1.0 / denom)


def flow_monotonicity_check(net: RoutingNetwork, p, p2) -> float:
    """(p - p') . (w*(p) - w*(p')); nonpositive for monotone latencies."""
    _, w1 = wardrop_equilibrium(net, p)
    _, w2 = wardrop_equilibrium(net, p2)
    diff = np.asarray(p, float) - np.asarray(p2, float)
    return float(diff @ (w1 - w2))


# ---------------------------------------------------------------------------
# Coupled toll adaptation
# ---------------------------------------------------------------------------

def run_toll_adaptation(net: RoutingNetwork, x0, p0, config: RunConfig) -> TrajectoryRecord:
    """Coupled route-flow and edge-toll updates: ``run_coupled`` on the network.

    The strategy residual is measured in edge flows; the incentive residual
    compares the tolls with the marginal-cost externality of the current flow.
    """
    return run_coupled(net, x0, p0, config)


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


def _od_from_json(i: int, od) -> OdPair:
    """OD pair ``i`` of a JSON routing block: a number "demand", and "routes"
    a list of lists (``RoutingNetwork`` checks that their entries are edge indices)."""
    od = _json_value(od, f"OD pair {i}", keys=("o", "d", "demand", "routes"))
    origin, destination, demand = od["o"], od["d"], od["demand"]
    where = f"OD pair {i} ({origin} -> {destination})"
    if isinstance(demand, bool) or not isinstance(demand, (int, float)):
        raise SpecError(f'{where}: "demand" must be a number, got {demand!r}')
    routes = enumerate(_json_value(od["routes"], f'{where}: "routes"', list))
    routes = tuple(tuple(_json_value(r, f"{where}: route {j}", list)) for j, r in routes)
    return OdPair(origin, destination, float(demand), routes)


def network_from_json(data: dict) -> RoutingNetwork:
    data = _json_value(data, '"routing"', keys=("nodes", "edges", "od", "relax_monotonicity"))
    nodes = tuple(_json_value(data["nodes"], '"nodes"', list))
    edges = [_json_value(e, f"edge {i}", keys=("tail", "head", "poly"))
             for i, e in enumerate(_json_value(data["edges"], '"edges"', list))]
    edges = tuple((e["tail"], e["head"], LatencyFunction(tuple(e["poly"]))) for e in edges)
    ods = tuple(_od_from_json(i, od) for i, od in enumerate(_json_value(data["od"], '"od"', list)))
    return RoutingNetwork(nodes=nodes, edges=edges, od_pairs=ods,
                          relax_monotonicity=data.get("relax_monotonicity", False))
