"""The three benchmark workloads, each a list of rounds of ops.

Every workload is a closed loop with one caller: an op starts only after the
previous one has finished. A round is one set of inputs drawn from
``default_rng([seed, round])``.
"""
from __future__ import annotations

import dataclasses
import io
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import checks
import inputs
from incentive_dynamics import aggregative as agg
from incentive_dynamics import cli, dynamics, routing
from incentive_dynamics.dynamics import RunConfig, StrategyUpdateRule

TOL = 1e-4
RULES = ("equilibrium", "best_response", "gradient")
SIZES = (5, 50, 200)
# Well-conditioned runs need about 0.6k-3k iterations, so 20 000 is a budget
# they are sized to meet; ill-conditioned runs stop on their budget. At 3000
# iterations the n=50 ill-conditioned runs, whose cost does not depend on
# the seed, sit at the median op latency.
WELL_BUDGET = 20000
ILL_BUDGET = 3000
# Non-stalling toll vectors close the gap in at most about 1.3k iterations.
WARDROP_BUDGET = 1500
ADAPT_BUDGET = 1000


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], checks.Verdict]
    prepare: Optional[Callable[[], None]] = None


# ---------------------------------------------------------------------------
# agg_coupled
# ---------------------------------------------------------------------------

def _coupled_op(label, game, p_star, rule, budget, sized_to_converge) -> Op:
    n = game.n_players
    x0, p0 = np.zeros(n), np.zeros(n)
    config = RunConfig(rule=StrategyUpdateRule(variant=rule), max_iterations=budget,
                       convergence_tol=TOL)
    return Op(label, lambda: dynamics.run_coupled(game, x0, p0, config),
              lambda rec: checks.check_coupled(rec, p0, p_star, budget, sized_to_converge))


def agg_coupled(seed: int, rounds: int, workdir: Path) -> list:
    out = []
    for r in range(rounds):
        rng = np.random.default_rng([seed, r])
        ops = []
        for regime, budget, sized in (("well", WELL_BUDGET, True), ("ill", ILL_BUDGET, False)):
            for n in SIZES:
                spec = inputs.aggregative_spec(n, regime, rng)
                game, p_star = spec.to_game(), agg.optimal_incentive(spec)
                for rule in RULES:
                    ops.append(_coupled_op(f"r{r}/{regime}/n{n}/{rule}", game, p_star,
                                           rule, budget, sized))
        # Closed forms removed: the generic solvers in games do the inner work.
        spec = inputs.aggregative_spec(5, "well", rng)
        game = dataclasses.replace(spec.to_game(), equilibrium=None, best_response=None)
        for rule in ("equilibrium", "best_response"):
            ops.append(_coupled_op(f"r{r}/no_closed_form/n5/{rule}", game,
                                   agg.optimal_incentive(spec), rule, WELL_BUDGET, True))
        out.append(ops)
    return out


# ---------------------------------------------------------------------------
# route_grid
# ---------------------------------------------------------------------------

def _wardrop_op(label, case) -> Op:
    return Op(label,
              lambda: routing.wardrop_equilibrium(case.net, case.tolls, x0=case.x0,
                                                  max_iter=WARDROP_BUDGET),
              lambda res: checks.check_wardrop(case.net, case.tolls, res))


def route_grid(seed: int, rounds: int, workdir: Path) -> list:
    g34, g45 = inputs.grid34(), inputs.grid45(inputs.CORPUS_SEED)
    p_star = routing.optimal_edge_tolls(g34)
    adapt = RunConfig(rule=StrategyUpdateRule(variant="gradient"),
                      max_iterations=ADAPT_BUDGET, convergence_tol=TOL)
    out = []
    for r in range(rounds):
        rng = np.random.default_rng([seed, r])
        ops = [
            Op(f"r{r}/grid34/system_optimum",
               lambda: routing.system_optimum(g34, max_iter=WARDROP_BUDGET),
               lambda res: checks.check_system_optimum(g34, res)),
            Op(f"r{r}/grid34/optimal_edge_tolls", lambda: routing.optimal_edge_tolls(g34),
               lambda p: checks.check_tolls(p, p_star)),
        ]
        for case in inputs.toll_cases(g34, g45, p_star, r, rng):
            ops.append(_wardrop_op(f"r{r}/{case.label}", case))
        x0, p0 = g34.uniform_route_flow(), rng.uniform(0.0, 0.5, g34.n_edges)
        ops.append(Op(f"r{r}/grid34/toll_adaptation/gradient",
                      lambda x0=x0, p0=p0: routing.run_toll_adaptation(g34, x0, p0, adapt),
                      lambda rec, p0=p0: checks.check_coupled(rec, p0, p_star,
                                                              ADAPT_BUDGET, False)))
        out.append(ops)
    return out


# ---------------------------------------------------------------------------
# cli_batch
# ---------------------------------------------------------------------------

def _cli(argv) -> tuple:
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _p_star(cfg: dict) -> np.ndarray:
    game = cfg["game"]
    if "builtin" in game:
        return routing.optimal_edge_tolls(routing.load_fixture(game["builtin"]))
    return agg.optimal_incentive(agg.from_json(game["aggregative"]))


def cli_batch(seed: int, rounds: int, workdir: Path) -> list:
    out = []
    for r in range(rounds):
        configs = inputs.cli_configs(np.random.default_rng([seed, r]))
        root = workdir / f"r{r}"
        run_dir, verify_paths = inputs.write_cli_configs(configs, root)
        p_stars = {stem: _p_star(cfg) for stem, cfg in configs["run"].items()}
        out_dir = root / "out"
        ops = [Op(f"r{r}/run_dir",
                  lambda run_dir=run_dir, out_dir=out_dir: _cli(
                      ["run", "--config", str(run_dir), "--out", str(out_dir)]),
                  lambda res, out_dir=out_dir, configs=configs, p_stars=p_stars:
                      checks.check_cli_run(res[0], out_dir, configs["run"], p_stars),
                  prepare=lambda out_dir=out_dir: shutil.rmtree(out_dir, ignore_errors=True))]
        for path in verify_paths:
            cfg = configs["verify"][path.stem]
            ops.append(Op(f"r{r}/{path.stem}", lambda path=path: _cli(["verify", "--config", str(path)]),
                          lambda res, cfg=cfg: checks.check_cli_verify(res[0], res[1], cfg)))
        out.append(ops)
    return out


WORKLOADS = {"agg_coupled": agg_coupled, "route_grid": route_grid, "cli_batch": cli_batch}
