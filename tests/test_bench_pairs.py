"""The summary of ``tools/bench_pairs.py`` on canned runs, with no subprocess."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def run(verdict_s, cases_per_s, passes=None):
    out = {"correct": True, "metrics": {"verdict_s": {"value": verdict_s, "unit": "s"},
                                        "cases_per_s": {"value": cases_per_s, "unit": "1/s"}}}
    if passes is not None:
        out["passes_s"] = passes
    return out


def test_summary_of_canned_pairs():
    pairs = [
        {"parent": run(0.80, 40.0), "change": run(0.50, 66.0)},
        {"parent": run(0.78, 42.0), "change": run(0.52, 42.0)},  # a tie on cases_per_s
        {"parent": run(0.79, 41.0), "change": run(0.81, 40.0)},
        {"parent": run(0.82, 39.0), "change": run(0.49, 67.0)},
    ]
    got = bench_pairs.summarize(pairs, {"verdict_s": "lower", "cases_per_s": "higher"})
    verdict = got["verdict_s"]
    assert verdict["better"] == "lower"
    # inclusive quartiles of 0.78, 0.79, 0.80, 0.82 and of 0.49, 0.50, 0.52, 0.81
    assert verdict["parent_q1_median_q3"] == [0.7875, 0.795, 0.805]
    assert verdict["change_q1_median_q3"] == [0.4975, 0.51, 0.5925]
    assert verdict["change_better_in_pairs"] == "3/4"
    assert verdict["median_change_pct"] == round(100 * (0.51 - 0.795) / 0.795, 1) == -35.8
    rate = got["cases_per_s"]
    assert rate["change_better_in_pairs"] == "2/4"
    assert rate["median_change_pct"] == round(100 * (54.0 - 40.5) / 40.5, 1)


def test_quartiles_of_one_run_and_first_pass_ratio():
    assert bench_pairs.quartiles([0.123456]) == [0.1235] * 3
    runs = [run(1, 1, [0.3, 0.1, 0.2]), run(1, 1, [0.2, 0.2, 0.2]), run(1, 1, [0.1, 0.2, 0.2])]
    # first pass over median pass: 1.5, 1.0, 0.5
    assert bench_pairs.first_pass_ratio(runs) == pytest.approx(1.0)
    assert bench_pairs.first_pass_ratio([run(1, 1)]) is None
