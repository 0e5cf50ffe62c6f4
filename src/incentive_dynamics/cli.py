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
import json
import sys
from pathlib import Path

import numpy as np

from . import aggregative as agg
from . import analysis, routing
from .dynamics import (RunConfig, StepSchedule, StrategyUpdateRule, run_coupled,
                       strict_json)
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
    if not isinstance(data, dict):
        raise SpecError("config must be a JSON object")
    if "game" not in data:
        raise SpecError('config is missing the required "game" key')
    for key in data:  # a misspelled key would skip its part of the config
        if key not in ("game", "run", "analyses", "incentive_update", "output_dir"):
            raise SpecError(f"unknown config key {key!r}")
    analyses = data.get("analyses", [])
    if not isinstance(analyses, list) or not all(isinstance(a, dict) for a in analyses):
        raise SpecError('"analyses" must be a list of objects')
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
    """The model of a "game" block: a routing network or an aggregative spec."""
    if not isinstance(spec, dict):
        raise SpecError('"game" must be an object')
    if len(spec) > 1:
        raise SpecError(f'"game" holds more than one key: {", ".join(map(repr, spec))}')
    if "builtin" in spec:
        return routing.load_fixture(spec["builtin"])
    if "aggregative" in spec:
        return agg.from_json(spec["aggregative"])
    if "routing" in spec:
        return routing.network_from_json(spec["routing"])
    raise SpecError('"game" needs one of "builtin", "aggregative", "routing"')


def _pop_object(block: dict, key: str) -> dict:
    """``block.pop(key)``, a JSON object, or {} if ``block`` lacks the key."""
    value = block.pop(key, {})
    if not isinstance(value, dict):
        raise SpecError(f'"{key}" must be an object')
    return value


def _run_setup(model, run_spec) -> tuple:
    """A config's "run" block, parsed once: ``(config, game, x0, p0)``, where
    ``game`` is the model the coupled loop runs on and (x0, p0) its checked start."""
    run_spec = dict(run_spec or {})
    sched = StepSchedule(**_pop_object(run_spec, "schedule"))
    rule = StrategyUpdateRule(**_pop_object(run_spec, "rule"))
    start = {key: run_spec.pop(key) for key in ("x0", "p0") if key in run_spec}
    for key, value in start.items():
        if value is None:
            raise SpecError(f"{key} must not be null")
    config = RunConfig(schedule=sched, rule=rule, **run_spec)
    game = analysis.strategy_model(model)
    x0, p0 = start.get("x0", game.uniform_point()), start.get("p0", np.zeros(game.dim))
    return (config, game, *game.check_start(x0, p0))


def run_analysis(model, item: dict) -> dict:
    item = dict(item)
    op = item.pop("op", None)
    if op == "verify_fixed_point_optimality":  # p defaults to the model's p†
        return analysis.verify_fixed_point_optimality(model, **item)
    if op == "ode_probe":
        cfg = analysis.OdeProbeConfig(**_pop_object(item, "config"))
        return analysis.ode_probe_slow_dynamics(model, item.pop("start_points"), cfg, **item)
    if op == "condition_c1":
        return analysis.check_condition_C1(model, item.pop("p_samples"), **item)
    if op == "condition_c2":
        samples = item.pop("p_samples")
        weight = item.pop("weight") if "weight" in item else model.certificate_weight()
        return analysis.check_condition_C2(model, weight, samples, **item)
    if op in ("global_conditions", "local_conditions"):
        if not isinstance(model, agg.QuadraticAggregativeSpec):
            raise SpecError(f"{op} applies to aggregative games")
        return getattr(agg, f"check_{op}")(model)
    if op == "counterexample":
        grid_csv = item.pop("grid_csv", None)
        report = analysis.reproduce_counterexample(**item)
        if grid_csv:
            analysis.counterexample_grid_csv(report, grid_csv)
        report.pop("externality_runs", None)
        report.pop("grid_values", None)
        report.pop("grid_costs", None)
        return report
    if op == "nondegeneracy":
        if not isinstance(model, routing.RoutingNetwork):
            raise SpecError("nondegeneracy applies to routing games")
        tolls = np.asarray(item.pop("tolls", np.zeros(model.n_edges)), float)
        return {"verdict": routing.nondegeneracy_check(model, tolls, **item)}
    if op == "uniqueness_probe":
        out = analysis.multistart_uniqueness_probe(model, item.pop("p"), **item)
        out.pop("solutions", None)
        return out
    if op == "schedule_assumptions":
        return StepSchedule(**item).assumption_report()
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
        data = load_config(config_path)
        model = build_game(data["game"])
        run_spec = dict(data.get("run") or {})
        update = data.get("incentive_update", "externality")
        if update not in INCENTIVE_UPDATES:
            raise SpecError(f"unknown incentive_update {update!r}")
        if update == "gradient_baseline":
            for key in COUPLED_ONLY:
                if key in run_spec:
                    raise SpecError(f"gradient_baseline ignores run key {key!r}")
        config, game, x0, p0 = _run_setup(model, run_spec)
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

    analyses = data.get("analyses", [])
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
    """The first two configs whose runs would write the same directory, or None.
    A config that cannot be read has no directory; its run reports it."""
    seen = {}
    for config_path, out_dir in jobs:
        try:
            data = {} if out_dir else load_config(config_path)
            out = output_dir(config_path, data, out_dir).resolve()
        except INVALID_INPUT:
            continue
        if out in seen:
            return seen[out], config_path, out
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
    if not configs:
        print(f"error: no *.json configs in {dir_path}", file=sys.stderr)
        return 1
    jobs = [(c, Path(out_dir) / c.stem if out_dir else None) for c in configs]
    clash = _output_clash(jobs)
    if clash:
        first, second, out = clash
        print(f"error: configs {first} and {second} both write to {out}", file=sys.stderr)
        return 1
    return max(run_experiment(*job) for job in jobs)


def verify(config_path) -> int:
    try:
        data = load_config(config_path)
        model = build_game(data["game"])
    except INVALID_INPUT as exc:
        return _failure(exc)
    analyses = data.get("analyses", [])
    if not analyses:
        print("error: verify needs at least one entry in \"analyses\"", file=sys.stderr)
        return 1
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
