"""Seeded input generators for the benchmark workloads.

Every generator takes its seed (or a ``numpy.random.Generator`` built from
it) as an argument, so the same seed always yields the same inputs. The
program under test only ever receives the generated objects.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from incentive_dynamics import aggregative as agg
from incentive_dynamics import routing

# grid34 is the ROADMAP's stress network: its latencies come from
# default_rng(0), whatever the benchmark seed, so its known stall is a fixed
# regression target.
GRID34_SEED = 0
GRID34_ODS = (((0, 0), (2, 3), 3.0), ((0, 1), (2, 3), 2.0))
# 4x5 has 20 nodes, past the 12-node limit of routing.all_simple_paths, so
# its routes are enumerated here.
GRID45_ODS = (((0, 0), (3, 4), 4.0), ((0, 1), (3, 4), 2.0))

# Seed of the fixed corpus: the 4x5 grid and the toll vectors whose outcome
# is chaotic (see toll_cases).
CORPUS_SEED = 0

# beta_0 of the default StepSchedule (beta0=1, offset=2, b=0.9): the weight
# of the externality in the first toll update of the adaptation loop.
BETA0 = 2.0 ** -0.9


def right_down_paths(edges, origin, destination) -> list:
    """All origin->destination paths, as edge-index tuples, of an acyclic grid."""
    out = {}
    for idx, (tail, head, _) in enumerate(edges):
        out.setdefault(tail, []).append((idx, head))

    def walk(node):
        if node == destination:
            return [()]
        return [(idx,) + rest for idx, head in out.get(node, []) for rest in walk(head)]

    return sorted(walk(origin))


def grid_network(rows: int, cols: int, ods, seed: int) -> routing.RoutingNetwork:
    """Right/down grid with degree-4 BPR-style latencies drawn from ``seed``.

    Edge latency is ``(U(.5,2), U(.5,2), 0, 0, U(.01,.1))`` in ascending
    coefficients; edges are numbered row-major, the right edge of a node
    before its down edge.
    """
    rng = np.random.default_rng(seed)
    nodes = tuple((r, c) for r in range(rows) for c in range(cols))
    edges = []
    for r, c in nodes:
        for head in ((r, c + 1), (r + 1, c)):
            if head[0] < rows and head[1] < cols:
                a, b = rng.uniform(0.5, 2.0, 2)
                d = rng.uniform(0.01, 0.1)
                edges.append(((r, c), head, routing.LatencyFunction((a, b, 0.0, 0.0, d))))
    od_pairs = tuple(routing.OdPair(o, d, demand, tuple(right_down_paths(edges, o, d)))
                     for o, d, demand in ods)
    return routing.RoutingNetwork(nodes=nodes, edges=tuple(edges), od_pairs=od_pairs)


def grid34(seed: int = GRID34_SEED) -> routing.RoutingNetwork:
    """The ROADMAP's 3x4 grid: 17 edges, two OD pairs, 16 routes."""
    return grid_network(3, 4, GRID34_ODS, seed)


def grid45(seed: int) -> routing.RoutingNetwork:
    """A 4x5 grid: 31 edges, two OD pairs, 55 routes."""
    return grid_network(4, 5, GRID45_ODS, seed)


def random_route_flow(net: routing.RoutingNetwork, rng: np.random.Generator) -> np.ndarray:
    """A feasible route flow with exponential (flat Dirichlet) splits per OD pair."""
    x = np.empty(net.n_routes)
    for s, od in zip(net.route_slices, net.od_pairs):
        g = rng.exponential(size=s.stop - s.start)
        x[s] = od.demand * g / g.sum()
    return x


def mixed_flow(net: routing.RoutingNetwork, rng: np.random.Generator) -> np.ndarray:
    """Half uniform, half random: the kind of iterate the adaptation loop warm-starts from."""
    return 0.5 * net.uniform_route_flow() + 0.5 * random_route_flow(net, rng)


def externality_tolls(net, x) -> np.ndarray:
    """``beta_0 * e(x)`` at a route flow x.

    This is the toll vector the adaptation loop hands the Wardrop solver
    after one step from zero tolls at a non-equilibrium flow.
    """
    return BETA0 * routing.edge_externality(net, net.incidence @ x)


@dataclass(frozen=True)
class TollCase:
    """One Wardrop solve: a labelled toll vector and an optional warm start."""

    label: str
    net: routing.RoutingNetwork
    tolls: np.ndarray
    x0: np.ndarray | None


def toll_cases(g34, g45, p_star34: np.ndarray, round_index: int,
               rng: np.random.Generator) -> list:
    """The toll vectors of one ``route_grid`` round.

    Externality tolls at non-equilibrium flows, cold and warm-started, are
    what the adaptation loop hands the solver, and today they stall. On the
    4x5 grid even random tolls sometimes stall or break the line search.
    Those vectors come from a fixed corpus (the same in every run), because
    whether one fails flips under a 1% perturbation: seeded, the number of
    failures, and so the run's time, would follow the seed rather than the
    program. The grid34 random and scaled-optimal tolls come from ``rng``.
    """
    corpus = np.random.default_rng([CORPUS_SEED, round_index])
    uniform, flow = g34.uniform_route_flow(), random_route_flow(g34, corpus)
    ext_uniform, ext_flow = externality_tolls(g34, uniform), externality_tolls(g34, flow)
    scale = rng.uniform(0.5, 1.5)
    scaled_opt = scale * p_star34 * (1.0 + 0.05 * rng.standard_normal(g34.n_edges)).clip(0.0)
    return [
        TollCase("grid34/ext_uniform/cold", g34, ext_uniform, None),
        TollCase(f"grid34/ext_uniform/warm{round_index}", g34, ext_uniform,
                 mixed_flow(g34, corpus)),
        TollCase(f"grid34/ext_flow{round_index}/cold", g34, ext_flow, None),
        TollCase(f"grid34/ext_flow{round_index}/warm", g34, ext_flow,
                 mixed_flow(g34, corpus)),
        TollCase("grid34/random/cold", g34, rng.uniform(0.0, 2.0, g34.n_edges), None),
        TollCase("grid34/scaled_opt/warm", g34, scaled_opt, mixed_flow(g34, rng)),
        TollCase(f"grid45/random{round_index}/cold", g45,
                 corpus.uniform(0.0, 2.0, g45.n_edges), None),
    ]


# ---------------------------------------------------------------------------
# Quadratic aggregative specs
# ---------------------------------------------------------------------------

# (q range, coupling scale). The slow layer contracts like exp(-sum beta_k /
# lambda_max(M)); with q up to 3 it is about three times slower and no run
# reaches tol 1e-4 in a budget of thousands of iterations.
REGIMES = {"well": ((0.8, 1.2), 0.2), "ill": ((1.0, 3.0), 0.2)}
ALPHA = 0.5


def aggregative_spec(n: int, regime: str, rng: np.random.Generator) -> agg.QuadraticAggregativeSpec:
    """Quadratic aggregative spec with symmetric nonnegative coupling of row sum <= scale."""
    (q_lo, q_hi), scale = REGIMES[regime]
    q = rng.uniform(q_lo, q_hi, n)
    A = rng.uniform(0.0, 1.0, (n, n))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    A *= scale / max(1, n - 1)
    zeta = rng.uniform(-1.0, 1.0, n)
    return agg.QuadraticAggregativeSpec(q=q, A=A, alpha=ALPHA, zeta=zeta)


def aggregative_json(spec: agg.QuadraticAggregativeSpec) -> dict:
    return {"q": spec.q.tolist(), "A": spec.A.tolist(), "alpha": spec.alpha,
            "zeta": spec.zeta.tolist()}


# ---------------------------------------------------------------------------
# cli_batch config directory
# ---------------------------------------------------------------------------

CLI_RUN = {"max_iterations": 4000, "convergence_tol": 1e-4, "record_every": 10}


def cli_configs(rng: np.random.Generator) -> dict:
    """The ``cli_batch`` configs: ``{"run": {stem: config}, "verify": {stem: config}}``."""
    spec50 = aggregative_spec(50, "well", rng)
    braess_p = (rng.uniform(0.0, 0.5, 5)).round(6).tolist()
    starts = [rng.uniform(0.0, 0.5, 5).round(6).tolist() for _ in range(2)]
    run = {
        "braess": {
            "game": {"builtin": "braess"},
            "run": CLI_RUN,
            "analyses": [
                {"op": "verify_fixed_point_optimality"},
                {"op": "nondegeneracy"},
                {"op": "uniqueness_probe", "p": braess_p, "n_starts": 4},
                {"op": "ode_probe", "start_points": starts,
                 "config": {"step": 0.1, "horizon": 10.0, "tol": 1e-2}},
            ],
        },
        "two_link": {
            "game": {"builtin": "two_link"},
            "run": CLI_RUN,
            "analyses": [{"op": "counterexample", "grid": 21}],
        },
        "pigou": {"game": {"builtin": "pigou"}, "run": dict(CLI_RUN, record_every=1)},
        "agg50": {"game": {"aggregative": aggregative_json(spec50)},
                  "run": dict(CLI_RUN, record_every=1)},
    }
    verify = {
        "verify_braess": {
            "game": {"builtin": "braess"},
            "analyses": [{"op": "verify_fixed_point_optimality"}, {"op": "nondegeneracy"}],
        },
        "verify_agg50": {
            "game": {"aggregative": aggregative_json(spec50)},
            "analyses": [{"op": "global_conditions"}, {"op": "verify_fixed_point_optimality"}],
        },
    }
    return {"run": run, "verify": verify}


def write_cli_configs(configs: dict, root: Path) -> tuple:
    """Write the configs; returns (run directory, [verify config paths])."""
    run_dir = root / "configs"
    run_dir.mkdir(parents=True, exist_ok=True)
    for stem, cfg in configs["run"].items():
        (run_dir / f"{stem}.json").write_text(json.dumps(cfg))
    verify_paths = []
    for stem, cfg in configs["verify"].items():
        path = root / f"{stem}.json"
        path.write_text(json.dumps(cfg))
        verify_paths.append(path)
    return run_dir, verify_paths
