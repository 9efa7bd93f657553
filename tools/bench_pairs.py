"""Run the benchmark on two source trees in alternating pairs and record it.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W \\
        --pairs N --seed S --out FILE

Each tree is the root of a jetcocycles checkout with its own
``perfbench/run.py``.  The script runs ``perfbench/run.py --trace 0`` in
the two trees one run at a time, N pairs of them, the parent first in odd
pairs and the change first in even ones; then one ``--trace 1`` run per
tree.  It writes, under ``paired_runs["W@seedS"]`` and ``trace["W"]`` of
FILE (kept entries of other workloads stay), per end-to-end metric each
side's quartiles ``[q1, median, q3]`` (inclusive method), in how many pairs
the change was better (ties count for neither), and the change of the
median in percent; then every run, with its passes.  Which way is better,
and how many seconds each run lasts (``run_seconds``), come from the
change tree's ``BENCHMARK.json``.  Exits 1 when a run is
not ``correct`` or does not finish, else 0.  Standard library only; it
reads the trees and writes nothing in them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_bench(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its final JSON line, with
    the seconds of each timed pass, or ``correct: False`` and the error."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(lines[-1])
    passes = next((line for line in lines if line.startswith("passes:")), None)
    if passes is not None:
        result["passes_s"] = [float(t) for t in re.findall(r"[\d.]+", passes)]
    return result


def quartiles(values: list) -> list:
    """``[q1, median, q3]`` of the values, inclusive method, to 4 places."""
    if len(values) == 1:
        return [round(values[0], 4)] * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(med, 4), round(q3, 4)]


def summarize(pairs: list, better: dict) -> dict:
    """Per metric of ``better`` (name -> "lower" or "higher"), the two sides'
    quartiles, the pairs where the change was better and the median's
    change in percent.  Each pair maps "parent" and "change" to a run."""
    out = {}
    for name, way in better.items():
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = 1 if way == "higher" else -1
        wins = sum(sign * (p["change"]["metrics"][name]["value"]
                           - p["parent"]["metrics"][name]["value"]) > 0 for p in pairs)
        parent_med = statistics.median(values["parent"])
        out[name] = {
            "better": way,
            "parent_q1_median_q3": quartiles(values["parent"]),
            "change_q1_median_q3": quartiles(values["change"]),
            "change_better_in_pairs": f"{wins}/{len(pairs)}",
            "median_change_pct": round(
                100 * (statistics.median(values["change"]) - parent_med) / parent_med, 1),
        }
    return out


def first_pass_ratio(runs: list) -> "float | None":
    """The median over runs of the first timed pass over the run's median
    pass: how much a cold first pass costs."""
    ratios = [r["passes_s"][0] / statistics.median(r["passes_s"])
              for r in runs if r.get("passes_s")]
    return round(statistics.median(ratios), 3) if ratios else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="root of the parent source tree")
    ap.add_argument("change", help="root of the changed source tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent, "change": args.change}
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    pairs = []
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"pair": k + 1, "first": order[0]}
        for side in order:
            pair[side] = run_bench(trees[side], args.workload, args.seed, seconds, 0)
            print(f"pair {k + 1} {side}: {pair[side].get('metrics', pair[side])}", flush=True)
        pairs.append(pair)
    traced = {side: run_bench(trees[side], args.workload, args.seed, seconds, 1)
              for side in SIDES}
    runs = [p[side] for p in pairs for side in SIDES] + list(traced.values())
    all_correct = all(r["correct"] for r in runs)

    record = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    record.setdefault("what", "perfbench/run.py end-to-end runs (--trace 0) as parent/change "
                              "pairs with alternating order, and one --trace 1 run per side "
                              "and workload")
    record.setdefault("command", "python3 perfbench/run.py --workload W --seed S "
                                 f"--seconds {seconds:g} --trace 0|1")
    record.setdefault("host", f"{os.cpu_count()} CPU {platform.system()} host, "
                              f"Python {platform.python_version()}")
    entry = {"seed": args.seed, "pairs_run": args.pairs, "all_correct": all_correct}
    if all(p[side]["correct"] for p in pairs for side in SIDES):
        entry["summary"] = summarize(pairs, better)
        entry["first_pass_over_median_pass"] = {
            side: first_pass_ratio([p[side] for p in pairs]) for side in SIDES}
    entry["pairs"] = pairs
    record.setdefault("paired_runs", {})[f"{args.workload}@seed{args.seed}"] = entry
    record.setdefault("trace", {})[args.workload] = {"seed": args.seed, **traced}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for name, row in entry.get("summary", {}).items():
        print(f"{args.workload} {name}: parent {row['parent_q1_median_q3']} change "
              f"{row['change_q1_median_q3']} better in {row['change_better_in_pairs']} "
              f"({row['median_change_pct']:+.1f}%)")
    if not all_correct:
        print("error: a run was not correct or did not finish", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
