"""Alternate ``bench/run.py`` between a parent and a change checkout, and summarize the pairs.

Each checkout is a directory that holds ``src/``, ``bench/`` and
``BENCHMARK.json``, such as a ``git clone`` of the parent commit and the
working tree of the change. Run from the repository root::

    python3 studies/ab_bench.py --parent ../parent --change . \\
        --workload cli_batch --seeds 1000-1009 --out ab.json

Before the first pair, ``src/`` of both checkouts is compiled with
``python -m compileall -q``: a checkout without bytecode pays for compiling
it inside its ``setup_s``, which made one comparison read +21.9% from that
alone. Pair i runs seed i on both sides, one process at a time, with the
parent first on even pairs and the change first on odd ones. Each run is
kept as one entry of a ``BENCH_*.json`` ``runs`` list: batch, workload,
seed, side, ran_first, exit, failed and the end-to-end metrics of
``BENCHMARK.json``. ``--out`` is rewritten after every pair, so an
interrupted batch keeps the pairs it finished.

The summary gives, per workload and metric, each side's median and
quartiles, the relative change of the medians (change / parent - 1), and the
pairs the change wins in the metric's ``better`` direction; equal values are
ties and count for neither side. A metric is unresolved when the parent's
runs spread wider than its ``BENCHMARK.json`` bound, q3 - q1 > bound *
median, unless every change run reads better than every parent run: such a
metric cannot show a change within the bound either way. A claim of a gain
in a metric is met when the change wins at least nine tenths of the pairs,
ties counting for neither side, and the change's median is better than the
parent's by more than the parent's interquartile distance q3 - q1. Nothing
under ``bench/`` is written.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def compile_sources(checkout: Path) -> None:
    """Write the bytecode of ``checkout/src``, so that no run compiles it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(checkout / "src")],
                   check=True)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``checkout``: its exit code, failed ops
    and end-to-end metric values (none where it printed no result)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    entry = {"exit": proc.returncode, "failed": None}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return entry
    entry["failed"] = result["failed"]
    entry.update({name: m["value"] for name, m in result["metrics"].items()})
    return entry


def quartiles(values) -> dict:
    """Median, quartiles (numpy's default, linear, method) and extremes."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def summarize(runs: list, metrics: list) -> dict:
    """Per batch and metric: both sides' quartiles, the relative change of the
    medians, the change's wins and the ties, over the batch's pairs, whether
    the metric is unresolved and whether a claim of a gain in it is met (see
    the module docstring).

    ``runs`` are entries as ``run_once`` extends them; ``metrics`` are the
    ``end_to_end`` entries of ``BENCHMARK.json``. A pair is the two runs of
    one batch and seed; a seed with one side missing is left out.
    """
    batches = {}
    for run in runs:
        batches.setdefault(run["batch"], {}).setdefault(run["seed"], {})[run["side"]] = run
    out = {}
    for batch, seeds in batches.items():
        pairs = [seeds[s] for s in sorted(seeds) if set(seeds[s]) == set(SIDES)]
        summary = {}
        for metric in metrics:
            name = metric["name"]
            values = {side: [pair[side].get(name) for pair in pairs] for side in SIDES}
            if not pairs or None in values["parent"] + values["change"]:
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
            ties = sum(c == p for p, c in zip(values["parent"], values["change"]))
            parent, change = quartiles(values["parent"]), quartiles(values["change"])
            # every change run beats every parent run if the change's worst beats the parent's best
            worst_change, best_parent = ((change["max"], parent["min"]) if sign > 0
                                         else (change["min"], parent["max"]))
            iqr = parent["q3"] - parent["q1"]
            spread = iqr > metric["bound"] * parent["median"]
            summary[name] = {
                "parent": parent, "change": change,
                "relative_change": (change["median"] / parent["median"] - 1.0
                                    if parent["median"] else None),
                "change_wins": wins, "ties": ties, "same_per_seed": ties == len(pairs),
                "unresolved": spread and not sign * (worst_change - best_parent) < 0,
                "claim_met": (10 * wins >= 9 * len(pairs)
                              and sign * (parent["median"] - change["median"]) > iqr),
            }
        out[batch] = {"pairs": len(pairs), "summary": summary}
    return out


def format_summary(workloads: dict) -> str:
    lines = []
    for batch, data in workloads.items():
        lines.append(f"{batch}: {data['pairs']} pairs")
        for name, s in data["summary"].items():
            p, c, rel = s["parent"], s["change"], s["relative_change"]
            lines.append(
                f"  {name:12s} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
                f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
                f"{'n/a' if rel is None else f'{rel:+.1%}'}  "
                f"wins {s['change_wins']}/{data['pairs']}, ties {s['ties']}, "
                f"claim {'met' if s['claim_met'] else 'not met'}"
                + ("  unresolved" if s["unresolved"] else ""))
    return "\n".join(lines)


def parse_seeds(text: str) -> list:
    """``"1000-1009"`` or ``"1,5,9"`` as a list of seeds."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    batch = f"{args.workload}/{args.seeds[0]}-{args.seeds[-1]}"
    for checkout in checkouts.values():
        compile_sources(checkout)
    runs = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            entry = {"batch": batch, "workload": args.workload, "seed": seed, "side": side,
                     "ran_first": side == order[0]}
            entry.update(run_once(checkouts[side], args.workload, seed, args.seconds))
            runs.append(entry)
            print(json.dumps(entry), flush=True)
        args.out.write_text(json.dumps({"runs": runs, "workloads": summarize(runs, metrics)},
                                       indent=1))
    print(format_summary(summarize(runs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
