"""Command-line experiment runner.

Subcommands:
  run --config PATH [--out DIR]   execute a run + analyses; a directory of
                                  configs runs them in sorted order
  verify --config PATH             run the analysis suite only
  list-fixtures                    show builtin routing fixtures

One JSON config describes one experiment: the game, the run parameters, the
incentive update (externality-based by default, or the naive social-cost
gradient baseline), and any requested analyses. Outputs: trajectory.csv,
summary.json, analysis/*.json, and a plot.py rendering residual and
social-cost curves. The JSON files are strict JSON: a non-finite number
is written as ``null``. Exit codes, the same for run and verify, each error
on one stderr line: 0 success (``--help`` included), 1 invalid input, in the
command line, a config, an analysis item or a run, or an output that cannot be
written, 2 a solver that does not converge, iterates that overflow, or a
failed analysis check. A check fails when its result has ``"passed": false``
or a ``"verdict"`` other than ``"pass"``.
"""
from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from . import aggregative as agg
from . import analysis, routing
from .dynamics import (RunConfig, StepSchedule, StrategyUpdateRule, _json_value,
                       run_coupled, strict_json)
from .errors import ConvergenceError, EvaluationError, GameError, SpecError

PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Render residual and social-cost curves from trajectory.csv.\"\"\"
import csv
from pathlib import Path

import matplotlib.pyplot as plt

here = Path(__file__).resolve().parent
ks, residuals, costs = [], [], []
with open(here / "trajectory.csv") as fh:
    for row in csv.DictReader(fh):
        ks.append(int(row["k"]))
        residuals.append(float(row["residual"]))
        costs.append(float(row["social_cost"]))

fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
ax1.semilogy(ks, residuals)
ax1.set_xlabel("iteration")
ax1.set_ylabel("fixed-point residual")
ax2.plot(ks, costs)
ax2.set_xlabel("iteration")
ax2.set_ylabel("social cost")
fig.tight_layout()
fig.savefig(here / "trajectory.png", dpi=150)
print("wrote", here / "trajectory.png")
"""


# what a config or analysis item raises: a package error, or a builtin one from
# JSON values unpacked into calls
INVALID_INPUT = (GameError, KeyError, TypeError, ValueError)

# the run's incentive update: the paper's externality rule, or the naive baseline
INCENTIVE_UPDATES = ("externality", "gradient_baseline")
# "run" keys that only the coupled loop reads: the baseline rejects them
COUPLED_ONLY = ("rule", "x0", "record_every", "convergence_tol")

# verify's line per analysis: a passed or failed check, or a result that only informs
STATUS = {True: "pass", False: "FAIL", None: "info"}


def _failure(exc: Exception, where: str = "") -> int:
    """Print the job's one stderr line for ``exc`` and return its exit code: 2
    for a solver that does not converge or iterates that overflow, else 1.
    ``where`` names the analysis that raised, if one did."""
    message = str(exc)
    if isinstance(exc, ConvergenceError) and exc.gap is not None:
        message += f" (gap {exc.gap:.6g})"
    elif isinstance(exc, EvaluationError):  # the iterates overflowed
        message = f"{'diverged' if where else 'run diverged'}: {message}"
    elif isinstance(exc, KeyError):  # a JSON object lacks a required key
        message = f"missing key {message}"
    elif isinstance(exc, OSError):  # an output file or directory; a failed write names none
        message = f"cannot write {exc.filename or 'output'}: {exc.strerror or exc}"
    print(f"error{where}: {message}", file=sys.stderr)
    return 2 if isinstance(exc, (ConvergenceError, EvaluationError)) else 1


def load_config(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SpecError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    data = _json_value(data, "config",  # a misspelled key would skip its part of the config
                       keys=("game", "run", "analyses", "incentive_update", "output_dir"))
    _json_value(data.get("output_dir", ""), '"output_dir"', str)
    if "true" in text or "false" in text:  # else no boolean, and a large spec skips the walk
        _reject_booleans(data)
    return data


def _reject_booleans(value, key=None) -> None:
    """Raise at the first JSON boolean in a list, naming the key that holds
    the list: Python would take ``true`` as the number 1."""
    if isinstance(value, dict):
        for name, item in value.items():
            if name not in ("nodes", "routes"):  # labels, and edge indices checked apart
                _reject_booleans(item, name)
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, bool):
                raise SpecError(f"{key} must hold numbers, got {item}")
            _reject_booleans(item, key)


def build_game(spec: dict):
    """The model of a "game" block's one key: a fixture, an aggregative spec or a network."""
    games = {"builtin": lambda name: routing.load_fixture(_json_value(name, '"builtin"', str)),
             "aggregative": agg.from_json, "routing": routing.network_from_json}
    if len(_json_value(spec, '"game"', keys=games)) != 1:
        raise SpecError('"game" needs exactly one of "builtin", "aggregative", "routing"')
    (kind, block), = spec.items()
    return games[kind](block)


def _pop_object(block: dict, key: str, keys=()) -> dict:
    """``block.pop(key)``, a JSON object, or {} if ``block`` lacks the key."""
    return _json_value(block.pop(key, {}), f'"{key}"', keys=keys)


def _load(config_path) -> tuple:
    """Run's and verify's one read of a config, so that a config is valid for both or neither."""
    data = load_config(config_path)
    analyses = [_json_value(item, f"analysis {i}") for i, item in
                enumerate(_json_value(data.get("analyses", []), '"analyses"', list))]
    model = build_game(data["game"])
    run_spec = _pop_object(data, "run", (RunConfig, "x0", "p0"))
    update = data.get("incentive_update", "externality")
    if update not in INCENTIVE_UPDATES:
        raise SpecError(f"unknown incentive_update {update!r}")
    for key in COUPLED_ONLY if update == "gradient_baseline" else ():
        if key in run_spec:
            raise SpecError(f"gradient_baseline ignores run key {key!r}")
    sched = StepSchedule(**_pop_object(run_spec, "schedule", (StepSchedule,)))
    rule = StrategyUpdateRule(**_pop_object(run_spec, "rule", (StrategyUpdateRule,)))
    start = {key: run_spec.pop(key) for key in ("x0", "p0") if key in run_spec}
    for key, value in start.items():
        if value is None:
            raise SpecError(f"{key} must not be null")
    config = RunConfig(schedule=sched, rule=rule, **run_spec)
    game = analysis.strategy_model(model)
    x0, p0 = start.get("x0", game.uniform_point()), start.get("p0", np.zeros(game.dim))
    return (data, model, analyses, update, config, game, *game.check_start(x0, p0))


def _call(function, item: dict, *args):
    """``function(*args, **item)``, if ``item`` names only its "op" and parameters past ``args``."""
    code = inspect.unwrap(function).__code__  # a wrapped function's own: parameters lead its names
    keys = ("op", *code.co_varnames[len(args):code.co_argcount])
    return function(*args, **_json_value(item, "analysis", keys=keys))


def run_analysis(model, item: dict) -> dict:
    item = dict(item)
    op = item.pop("op", None)
    if op == "verify_fixed_point_optimality":  # p defaults to the model's p†
        return _call(analysis.verify_fixed_point_optimality, item, model)
    if op == "ode_probe":
        cfg = analysis.OdeProbeConfig(**_pop_object(item, "config", (analysis.OdeProbeConfig,)))
        starts = _json_value(item.pop("start_points"), '"start_points"', list)
        return _call(analysis.ode_probe_slow_dynamics, item, model, starts, cfg)
    if op in ("condition_c1", "condition_c2"):
        samples = _json_value(item.pop("p_samples"), '"p_samples"', list)
        if op == "condition_c1":
            return _call(analysis.check_condition_C1, item, model, samples)
        weight = item.pop("weight") if "weight" in item else model.certificate_weight()
        return _call(analysis.check_condition_C2, item, model, weight, samples)
    if op in ("global_conditions", "local_conditions"):
        if not isinstance(model, agg.QuadraticAggregativeSpec):
            raise SpecError(f"{op} applies to aggregative games")
        return _call(getattr(agg, f"check_{op}"), item, model)
    if op == "counterexample":
        grid_csv = _json_value(item.pop("grid_csv", ""), '"grid_csv"', str)
        report = _call(analysis.reproduce_counterexample, item)
        if grid_csv:
            analysis.counterexample_grid_csv(report, grid_csv)
        for key in ("externality_runs", "grid_values", "grid_costs"):
            report.pop(key, None)
        return report
    if op == "nondegeneracy":
        if not isinstance(model, routing.RoutingNetwork):
            raise SpecError("nondegeneracy applies to routing games")
        tolls = np.asarray(item.pop("tolls", np.zeros(model.n_edges)), float)
        return {"verdict": _call(routing.nondegeneracy_check, item, model, tolls)}
    if op == "uniqueness_probe":
        out = _call(analysis.multistart_uniqueness_probe, item, model, item.pop("p"))
        out.pop("solutions", None)
        return out
    if op == "schedule_assumptions":
        schedule = _json_value(item, "analysis", keys=("op", StepSchedule))
        return StepSchedule(**schedule).assumption_report()
    raise SpecError(f"unknown analysis op {op!r}")


def _run_analyses(model, analyses, adir=None) -> int:
    """Run the analyses in order and return the exit code of their outcome.

    With ``adir`` each result is written there as ``NN_op.json``, and a directory
    or file it cannot write raises ``OSError``; without, one ``[pass]``/``[FAIL]``/
    ``[info]`` line is printed per analysis. An error exits at once with the code of
    :func:`_failure`; a failed check exits 2 once every analysis has run. Overflow is
    silenced as in the run.
    """
    if adir is not None and analyses:
        adir.mkdir(exist_ok=True)
    failed = []
    for idx, item in enumerate(analyses):
        op = item.get("op", "?")
        if adir is not None and op == "counterexample" and "grid_csv" not in item:
            item = dict(item, grid_csv=str(adir / "counterexample_grid.csv"))
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                result = run_analysis(model, item)
        except (*INVALID_INPUT, OSError) as exc:  # OSError: a grid_csv it cannot write
            return _failure(exc, f" in analysis {op!r}")
        verdict = result["verdict"] == "pass" if "verdict" in result else result.get("passed")
        if adir is None:
            print(f"[{STATUS[verdict]}] {op}")
        else:
            with open(adir / f"{idx:02d}_{op}.json", "w") as fh:
                json.dump(strict_json(result), fh, indent=2, allow_nan=False)
        if verdict is False:
            failed.append(op)
    if failed:
        print("failed checks: " + ", ".join(failed), file=sys.stderr)
        return 2
    return 0


def output_dir(config_path, data: dict, out_dir=None) -> Path:
    """Where a run writes: ``out_dir``, else the config's "output_dir", else
    the config path without its suffix."""
    return Path(out_dir or data.get("output_dir") or Path(config_path).with_suffix(""))


def run_experiment(config_path, out_dir=None) -> int:
    try:
        data, model, analyses, update, config, game, x0, p0 = _load(config_path)
        out = output_dir(config_path, data, out_dir)
    except INVALID_INPUT as exc:
        return _failure(exc)

    # numpy's overflow warnings are silenced: the oracle checks report iterates
    # that overflow, and a social cost that overflows is written as null. A
    # package error is an outcome; a builtin one is a bug and keeps its traceback.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if update == "gradient_baseline":
                # the closed-form generalized gradient holds for the two-link fixture only
                two_link = data["game"].get("builtin") == "two_link"
                record = analysis.run_gradient_baseline(
                    model, p0, schedule=config.schedule,
                    max_iterations=config.max_iterations,
                    gradient=analysis.two_link_clarke_gradient if two_link else None)
            else:
                record = run_coupled(game, x0, p0, config)
    except GameError as exc:
        return _failure(exc)

    try:
        out.mkdir(parents=True, exist_ok=True)  # only a run that has a record writes
        record.to_csv(out / "trajectory.csv")
        record.to_json_summary(out / "summary.json")
        (out / "plot.py").write_text(PLOT_SCRIPT)
        code = _run_analyses(model, analyses, out / "analysis")
    except OSError as exc:
        return _failure(exc)
    if code:
        return code
    if update != "gradient_baseline" and not record.converged:
        print("run did not converge within the iteration budget", file=sys.stderr)
        return 2
    print(f"wrote {out}/trajectory.csv, summary.json"
          + (", analysis/" if analyses else ""))
    return 0


def _output_clash(jobs: list):
    """The message naming the first two configs whose runs would write the same
    directory, or None. A config that cannot be read has no directory; its run reports it."""
    seen = {}
    for config_path, out_dir in jobs:
        try:
            data = {} if out_dir else load_config(config_path)
            out = output_dir(config_path, data, out_dir).resolve()
        except INVALID_INPUT:
            continue
        if out in seen:
            return f"configs {seen[out]} and {config_path} both write to {out}"
        seen[out] = config_path
    return None


def run_directory(dir_path, out_dir=None) -> int:
    """Run every config in a directory; the worst exit code wins.

    The configs run one after another in this process, in sorted order, and
    a crash stops the runs. For parallel runs, start one process per config.
    A config that fails before its run has a record writes no directory. Two
    configs that write the same directory exit 1 before any runs.
    """
    configs = sorted(Path(dir_path).glob("*.json"))
    jobs = [(c, Path(out_dir) / c.stem if out_dir else None) for c in configs]
    error = _output_clash(jobs) if configs else f"no *.json configs in {dir_path}"
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return max(run_experiment(*job) for job in jobs)


def verify(config_path) -> int:
    try:
        _, model, analyses, *_ = _load(config_path)
        if not analyses:
            raise SpecError('verify needs at least one entry in "analyses"')
    except INVALID_INPUT as exc:
        return _failure(exc)
    return _run_analyses(model, analyses)


def list_fixtures() -> int:
    for name, (_, desc) in sorted(routing.FIXTURES.items()):
        print(f"{name:10s} {desc}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1 with one stderr line, as
    a config's do, rather than with argparse's usage block and exit 2."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="incentive-dynamics",
        description="Adaptive incentive-design simulations over atomic and "
                    "non-atomic games.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("--config", required=True,
                       help="JSON config file, or a directory of configs")
    p_run.add_argument("--out", default=None, help="output directory override")

    p_verify = sub.add_parser("verify", help="run the analysis suite only")
    p_verify.add_argument("--config", required=True)

    sub.add_parser("list-fixtures", help="list builtin routing fixtures")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-fixtures":
        return list_fixtures()
    if args.command == "verify":
        return verify(args.config)
    if Path(args.config).is_dir():
        return run_directory(args.config, args.out)
    return run_experiment(args.config, args.out)


if __name__ == "__main__":
    sys.exit(main())
