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
"""
import numpy as np

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
