"""Seeded routing networks that serve as a fixed regression corpus.

``grid34`` is the 3x4 stress grid of ROADMAP item 1 (17 edges, 16 routes);
``grid45`` is the same construction on a 4x5 grid, and ``grid67`` on a 6x7
grid with the four OD pairs of the ROADMAP's larger grids (71 edges, 910
routes). All carry BPR-style degree-4 latencies
``(U(.5,2), U(.5,2), 0, 0, U(.01,.1))`` drawn from
``np.random.default_rng(seed)``, edge by edge in row-major node order, the
right edge of a node before its down edge. ``mixed_degree_network`` mixes
constant, affine and quartic latencies, so its coefficient columns are
zero-padded below degree 4 for all but the quartic edges.

``former_route_step`` gives the gradient rule's former default step on a
network, under which pinned records and ``studies/schedule_study.py`` ran.

Below them are the games and helpers that several test modules share: no
``tests/test_*.py`` imports another.
"""
import dataclasses

import numpy as np

from incentive_dynamics.aggregative import (QuadraticAggregativeSpec, QuadraticTerm,
                                            QuarticTerm, TableTerm)
from incentive_dynamics.dynamics import StepSchedule
from incentive_dynamics.errors import ConvergenceError
from incentive_dynamics.games import (AtomicGame, NonAtomicGame, best_response_blocks,
                                      certify_nash_nonatomic)
from incentive_dynamics.routing import LatencyFunction, OdPair, RoutingNetwork

# (origin, destination, demand) of the two OD pairs of ROADMAP item 1
GRID_ODS = (((0, 0), (2, 3), 3.0), ((0, 1), (2, 3), 2.0))


def large_grid_ods(rows: int, cols: int) -> tuple:
    """The four OD pairs of the ROADMAP's larger grids."""
    far = (rows - 1, cols - 1)
    return (((0, 0), far, 3.0), ((0, 1), far, 2.0),
            ((1, 0), (rows - 1, cols - 2), 2.0), ((0, 2), (rows - 2, cols - 1), 1.0))


def grid_paths(edges, origin, destination) -> list:
    """All origin->destination paths of an acyclic network, as sorted edge-index tuples."""
    succ = {}
    for idx, (tail, head, _) in enumerate(edges):
        succ.setdefault(tail, []).append((idx, head))

    def paths_from(node):
        if node == destination:
            return [()]
        return [(idx,) + rest for idx, head in succ.get(node, []) for rest in paths_from(head)]

    return sorted(paths_from(origin))


def grid_network(rows: int, cols: int, seed: int = 0, ods=GRID_ODS) -> RoutingNetwork:
    """Right/down grid with seeded degree-4 latencies; the two grid OD pairs by default."""
    rng = np.random.default_rng(seed)
    nodes = tuple((r, c) for r in range(rows) for c in range(cols))
    edges = []
    for r, c in nodes:
        for head in ((r, c + 1), (r + 1, c)):
            if head[0] < rows and head[1] < cols:
                c0, c1 = rng.uniform(0.5, 2.0, 2)
                c4 = rng.uniform(0.01, 0.1)
                edges.append(((r, c), head, LatencyFunction((c0, c1, 0.0, 0.0, c4))))
    ods = tuple(OdPair(o, d, demand, tuple(grid_paths(edges, o, d)))
                for o, d, demand in ods)
    return RoutingNetwork(nodes=nodes, edges=tuple(edges), od_pairs=ods)


def grid34(seed: int = 0) -> RoutingNetwork:
    return grid_network(3, 4, seed)


def grid45(seed: int = 0) -> RoutingNetwork:
    return grid_network(4, 5, seed)


def grid67(seed: int = 0) -> RoutingNetwork:
    """The ROADMAP's 6x7 grid with its four OD pairs: 71 edges, 910 routes."""
    return grid_network(6, 7, seed, large_grid_ods(6, 7))


def mixed_degree_network() -> RoutingNetwork:
    """Three nodes with constant, affine and quartic edges and two OD pairs."""
    edges = (
        ("s", "a", LatencyFunction((1.0,))),                      # 0: constant
        ("s", "a", LatencyFunction((0.2, 1.0))),                  # 1: affine
        ("a", "t", LatencyFunction((0.5, 0.3, 0.0, 0.0, 0.05))),  # 2: quartic
        ("s", "t", LatencyFunction((1.5, 0.1, 0.0, 0.2, 0.1))),   # 3: quartic
    )
    return RoutingNetwork(
        nodes=("s", "a", "t"),
        edges=edges,
        od_pairs=(OdPair("s", "t", 2.0, ((0, 2), (1, 2), (3,))),
                  OdPair("a", "t", 1.0, ((2,),))),
        relax_monotonicity=True,
    )


def former_route_step(net: RoutingNetwork) -> float:
    """The default gradient step on a network before G / ||J||, and still the
    entropy rule's default temperature: 0.9 / max(max_a l_a'(total demand) E, 1e-12)."""
    slope = float(np.max(net.latency_deriv(np.full(net.n_edges, net.demands.sum()))))
    return 0.9 / max(slope * net.n_edges, 1e-12)


CORPUS = {
    "grid34": grid34,
    "grid45": grid45,
    "mixed_degree": mixed_degree_network,
}


# the default schedule before (0.8, 1, 2^1.8, 2^2.1, 8); pinned records were written under it
FORMER_SCHEDULE = StepSchedule(a=0.6, b=0.9, gamma0=1.0, beta0=1.0, offset=2)

RULES = ("equilibrium", "best_response", "gradient")
# (variant, regularizer) pairs: every rule of a box model, and of a simplex one
BOX_RULES = tuple((variant, "quadratic") for variant in RULES)
SIMPLEX_RULES = BOX_RULES + (("gradient", "entropy"),)

M1_SPEC = dict(q=[1.0, 1.0], A=[[0.0, 0.1], [1.0, 0.0]], alpha=1.0,
               zeta=[-1.0, -0.5])  # M = [[1, 0.1], [1, 1]]
M2_SPEC = dict(q=[1.0, 1.0], A=[[0.0, -0.1], [-0.1, 0.0]], alpha=1.0,
               zeta=[-1.0, -0.5])  # M = [[1, -0.1], [-0.1, 1]]


def example_spec(zeta=(0.0, 0.0)):
    return QuadraticAggregativeSpec(q=[1.0, 1.0], A=[[0, 1], [1, 0]],
                                    alpha=0.5, zeta=list(zeta))


def seeded_spec(n, seed, q_range=(0.8, 1.2)):
    """A quadratic aggregative spec with symmetric coupling, drawn from
    ``np.random.default_rng(seed)`` (a seed or a Generator): well conditioned
    by default, ill conditioned with a wider ``q_range``."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.0, 1.0, (n, n))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    A *= 0.2 / max(1, n - 1)
    return QuadraticAggregativeSpec(q=rng.uniform(*q_range, n), A=A, alpha=0.5,
                                    zeta=rng.uniform(-1.0, 1.0, n))


# operator-cost terms of every kind, cycled over the players
MIXED_TERMS = (QuarticTerm(0.3), TableTerm([-2.0, 0.0, 2.0], [-3.0, 0.5, 2.0]),
               QuadraticTerm(-0.4))


def mixed_spec(n, seed, terms=MIXED_TERMS, q_range=(0.8, 1.2)):
    """``seeded_spec(n, seed, q_range)`` with the operator-cost terms ``terms``, cycled."""
    return dataclasses.replace(seeded_spec(n, seed, q_range), zeta=None, h=(terms * n)[:n])


def without_closed_forms(game):
    return dataclasses.replace(game, equilibrium=None, best_response=None)


def aggregative_game(q, A, alpha, zeta):
    """Hand-built quadratic aggregative game (independent of the aggregative
    module, so it can serve as an oracle for it)."""
    q = np.asarray(q, float)
    A = np.asarray(A, float)
    zeta = np.asarray(zeta, float)
    n = q.size
    return AtomicGame(
        lower=np.full(n, -np.inf), upper=np.full(n, np.inf),
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


def counting(fn, calls):
    """``fn``, appending to ``calls`` at each call."""
    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)
    return counted


def assert_records_equal(rec, ref):
    """Two trajectory records are equal, bit for bit."""
    assert rec.ks == ref.ks
    assert rec.residuals == ref.residuals
    assert rec.social_costs == ref.social_costs
    assert (rec.converged, rec.iterations, rec.record_every) == (
        ref.converged, ref.iterations, ref.record_every)
    for new, old in ((rec.xs, ref.xs), (rec.ps, ref.ps)):
        assert len(new) == len(old)
        for a, b in zip(new, old):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b, strict=True)


def nonatomic_loop_reference(game, p, tol=1e-10, x0=None, max_iter=200000):
    """The non-atomic solver as it was before it shared the atomic loop: every
    candidate is certified with certify_nash_nonatomic, and the step and the
    restart evaluate action_cost at the current point once more."""
    p = np.asarray(p, float)
    x = game.uniform_point() if x0 is None else game.project(np.asarray(x0, float))
    eta = 1.0
    ok, res = certify_nash_nonatomic(game, x, p, tol)
    for k in range(max_iter):
        if res <= tol:
            return x
        cand = game.project(x - eta * (np.asarray(game.action_cost(x), float) + p))
        _, res_c = certify_nash_nonatomic(game, cand, p, tol)
        if res_c <= res:
            x, res = cand, res_c
        else:
            eta *= 0.5
            if eta < 1e-12:
                f = best_response_blocks(np.asarray(game.action_cost(x), float) + p,
                                         game.layout)
                x = x + (2.0 / (k + 3.0)) * (f - x)
                _, res = certify_nash_nonatomic(game, x, p, tol)
                eta = 1.0
    raise ConvergenceError("non-atomic equilibrium iteration stalled", best=x)


RUN_KEYS = {"model", "rule", "budget", "tol", "iterations", "converged", "finite", "p_err",
            "p_err_start", "p_err_peak", "overshoot"}


def check_runs(point):
    """Each run of a study point has the run keys, finite iterates, and a
    verified optimum where it converged."""
    for run in point["runs"]:
        assert RUN_KEYS <= set(run) <= RUN_KEYS | {"verified"}
        assert run["finite"] and run.get("verified", not run["converged"])
