"""The A/B bench driver's summary and run order, on synthetic runs: no bench run."""
import json

import pytest

import ab_bench

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "ok_ratio", "unit": "ratio", "better": "higher", "bound": 0.1}]


def _runs(parent, change, batch="cli_batch/1-4", ok=None):
    """One synthetic pair per seed, with ``wall_s`` from the two lists."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        for side, value in (("parent", p), ("change", c)):
            runs.append({"batch": batch, "workload": "cli_batch", "seed": seed, "side": side,
                         "ran_first": side == "parent", "exit": 0, "failed": 0,
                         "wall_s": value, "ok_ratio": 1.0 if ok is None else ok[side]})
    return runs


def test_summary_gives_quartiles_relative_change_and_wins():
    runs = _runs([1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 2.5, 5.0])
    summary = ab_bench.summarize(runs, METRICS)
    assert list(summary) == ["cli_batch/1-4"]
    assert summary["cli_batch/1-4"]["pairs"] == 4
    wall = summary["cli_batch/1-4"]["summary"]["wall_s"]
    assert wall["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25, "min": 1.0, "max": 4.0}
    assert wall["change"] == {"median": 2.25, "q1": 1.625, "q3": 3.125, "min": 0.5, "max": 5.0}
    assert wall["relative_change"] == pytest.approx(2.25 / 2.5 - 1.0)
    # seed 2 is a tie and counts for neither side; seed 4 is a loss
    assert (wall["change_wins"], wall["ties"], wall["same_per_seed"]) == (2, 1, False)
    ok = summary["cli_batch/1-4"]["summary"]["ok_ratio"]
    assert (ok["change_wins"], ok["ties"], ok["same_per_seed"]) == (0, 4, True)
    assert ok["relative_change"] == 0.0


def test_a_higher_metric_wins_upward():
    runs = _runs([1.0, 2.0], [1.5, 2.5], ok={"parent": 0.5, "change": 1.0})
    ok = ab_bench.summarize(runs, METRICS)["cli_batch/1-4"]["summary"]["ok_ratio"]
    assert ok["change_wins"] == 2
    wall = ab_bench.summarize(runs, METRICS)["cli_batch/1-4"]["summary"]["wall_s"]
    assert wall["change_wins"] == 0


def test_summary_skips_unpaired_seeds_and_missing_values():
    runs = _runs([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    runs.pop()  # seed 3 has no change run
    runs.append({"batch": "cli_batch/9", "workload": "cli_batch", "seed": 9, "side": "parent",
                 "exit": 2, "failed": None})
    runs.append({"batch": "cli_batch/9", "workload": "cli_batch", "seed": 9, "side": "change",
                 "exit": 0, "failed": 0, "wall_s": 1.0, "ok_ratio": 1.0})
    summary = ab_bench.summarize(runs, METRICS)
    assert summary["cli_batch/1-4"]["pairs"] == 2
    assert summary["cli_batch/1-4"]["summary"]["wall_s"]["change_wins"] == 1
    # a run that printed no result leaves its batch without a summary
    assert summary["cli_batch/9"] == {"pairs": 1, "summary": {}}


def test_a_single_pair_has_degenerate_quartiles():
    wall = ab_bench.summarize(_runs([2.0], [1.0]), METRICS)["cli_batch/1-4"]["summary"]["wall_s"]
    assert wall["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "min": 2.0, "max": 2.0}
    assert wall["relative_change"] == -0.5


def test_format_summary_prints_medians_change_and_wins():
    text = ab_bench.format_summary(ab_bench.summarize(_runs([1.0, 3.0], [0.5, 1.5]), METRICS))
    lines = text.splitlines()
    assert lines[0] == "cli_batch/1-4: 2 pairs"
    # the medians differ by 1, the parent's interquartile distance: no claim
    assert lines[1].split() == ["wall_s", "parent", "2", "[1.5,", "2.5]", "change", "1",
                                "[0.75,", "1.25]", "-50.0%", "wins", "2/2,", "ties", "0,",
                                "claim", "not", "met", "unresolved"]
    assert lines[2].split()[-4:] == ["2,", "claim", "not", "met"]  # ok_ratio does not spread


@pytest.mark.parametrize("parent, change, unresolved", [
    ([1.0, 1.1, 1.2, 1.3], [2.0, 2.0, 2.0, 2.0], False),  # IQR 0.15 <= 0.25 * median 1.15
    ([1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 2.5, 5.0], True),  # IQR 1.5 > 0.25 * 2.5
    ([1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 0.9], False),  # every change run is faster
    ([1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 1.0], True),  # the slowest only equals the fastest
])
def test_a_metric_whose_parent_spreads_past_its_bound_is_unresolved(parent, change, unresolved):
    wall = ab_bench.summarize(_runs(parent, change), METRICS)["cli_batch/1-4"]["summary"]["wall_s"]
    assert wall["unresolved"] is unresolved


def test_a_higher_metric_is_resolved_only_by_higher_runs():
    def ok_ratio(parent, change):
        runs = _runs([1.0] * 4, [1.0] * 4)
        for run in runs:
            run["ok_ratio"] = (parent if run["side"] == "parent" else change)[run["seed"] - 1]
        return ab_bench.summarize(runs, METRICS)["cli_batch/1-4"]["summary"]["ok_ratio"]

    # IQR 0.15 > 0.1 * median 0.65 in both cases
    assert ok_ratio([0.5, 0.6, 0.7, 0.8], [0.9, 0.9, 0.95, 1.0])["unresolved"] is False
    assert ok_ratio([0.5, 0.6, 0.7, 0.8], [0.4, 0.9, 0.95, 1.0])["unresolved"] is True


PARENT_TEN = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]  # median 14.5, IQR 4.5


def _shifted(by, keep=0, last=()):
    """PARENT_TEN less ``by``, its last ``keep`` runs replaced by ``last``."""
    return [v - by for v in PARENT_TEN[:len(PARENT_TEN) - keep]] + list(last)


@pytest.mark.parametrize("change, met", [
    (_shifted(5.0), True),  # 10 wins, medians 5 apart
    (_shifted(5.0, 1, [20.0]), True),  # 9 wins of 10
    (_shifted(5.0, 1, [19.0]), True),  # 9 wins and a tie
    (_shifted(5.0, 2, [18.0, 19.0]), False),  # 8 wins and two ties
    (_shifted(5.0, 2, [20.0, 20.0]), False),  # 8 wins of 10
    (_shifted(4.75), True),  # medians 4.75 apart, IQR 4.5
    (_shifted(4.5), False),  # medians apart by the IQR alone
    (_shifted(3.0), False),  # 10 wins inside the parent's spread
])
def test_a_claim_needs_nine_tenths_of_the_pairs_and_medians_apart_by_the_iqr(change, met):
    wall = ab_bench.summarize(_runs(PARENT_TEN, change), METRICS)["cli_batch/1-4"]["summary"]
    assert wall["wall_s"]["claim_met"] is met


def test_a_claim_in_a_higher_metric_needs_higher_runs():
    def ok_ratio(parent, change):
        runs = _runs([1.0] * 4, [1.0] * 4)
        for run in runs:
            run["ok_ratio"] = (parent if run["side"] == "parent" else change)[run["seed"] - 1]
        return ab_bench.summarize(runs, METRICS)["cli_batch/1-4"]["summary"]["ok_ratio"]

    # parent median 0.65, IQR 0.15
    assert ok_ratio([0.5, 0.6, 0.7, 0.8], [0.9, 0.9, 0.95, 1.0])["claim_met"] is True
    assert ok_ratio([0.5, 0.6, 0.7, 0.8], [0.75, 0.78, 0.8, 0.9])["claim_met"] is False
    assert ok_ratio([0.5, 0.6, 0.7, 0.8], [0.4, 0.5, 0.6, 0.7])["claim_met"] is False


def test_parse_seeds():
    assert ab_bench.parse_seeds("1000-1003") == [1000, 1001, 1002, 1003]
    assert ab_bench.parse_seeds("5,1,9") == [5, 1, 9]


def test_main_compiles_both_sides_first_and_alternates_the_order(tmp_path, monkeypatch):
    events = []
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    monkeypatch.setattr(ab_bench, "compile_sources",
                        lambda checkout: events.append(("compile", checkout.name)))

    def run_once(checkout, workload, seed, seconds):
        events.append(("run", checkout.name, seed))
        return {"exit": 0, "failed": 0, "wall_s": 1.0 if checkout.name == "parent" else 0.5,
                "ok_ratio": 1.0}

    monkeypatch.setattr(ab_bench, "run_once", run_once)
    out = tmp_path / "ab.json"
    assert ab_bench.main(["--parent", str(tmp_path / "parent"),
                          "--change", str(tmp_path / "change"), "--workload", "cli_batch",
                          "--seeds", "7-9", "--out", str(out)]) == 0
    assert events == [("compile", "parent"), ("compile", "change"),
                      ("run", "parent", 7), ("run", "change", 7),
                      ("run", "change", 8), ("run", "parent", 8),
                      ("run", "parent", 9), ("run", "change", 9)]
    saved = json.loads(out.read_text())
    assert [(r["seed"], r["side"], r["ran_first"]) for r in saved["runs"]] == [
        (7, "parent", True), (7, "change", False), (8, "change", True), (8, "parent", False),
        (9, "parent", True), (9, "change", False)]
    assert all(r["batch"] == "cli_batch/7-9" for r in saved["runs"])
    assert saved["workloads"]["cli_batch/7-9"]["summary"]["wall_s"]["change_wins"] == 3
