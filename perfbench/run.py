"""Time to a verdict on one workload of `jetcocycles verify`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the program is imported from `src`.
Each run, one process after another, never two at once:

1. set-up: one warm-up and `SETUP_PROBES` fresh interpreters, half before
   and half after step 2, each time `import jetcocycles.cli` and the
   workload's validated scenarios with their map pools (`worker.py setup`);
2. `--trace 0`: one fresh single-threaded process repeats passes of the
   workload's `verify` calls through `jetcocycles.cli.main` for `--seconds`
   (`worker.py run`); `--trace 1`: one process times each suite as its own
   scenario, then makes one pass with every layer traced (`worker.py trace`);
3. the output checks (`checks.py`) and the corrupted-report self-test on the
   first pass's reports, then the sympy oracle in its own process
   (`oracle.py`).

Prints each metric with its unit, then, as the last line, one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  Exits 1 without a
result when a step cannot run, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers
from worker import first_report
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# set-up probes: half before the passes, half after, to span the run
SETUP_PROBES = 12
# the whole run stays inside this many seconds
DEADLINE_S = 170
# kept back from the timed passes for the checks and the oracle
CHECK_RESERVE_S = 30
END_TO_END = (("setup_s", "s"), ("verdict_s", "s"), ("cases_per_s", "1/s"),
              ("peak_rss_mb", "MB"))


class StepFailed(RuntimeError):
    """A benchmark step could not run to its end."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # importing numpy would otherwise start a second busy thread
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def child(script: str, args: list[str], deadline: float) -> dict:
    """Run a benchmark script to its end; its last stdout line is JSON."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / script), *args], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise StepFailed(f"{script} {args[0]} ran past the deadline") from exc
    if proc.returncode != 0:
        raise StepFailed(f"{script} {args[0]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probes(base: list[str], deadline: float) -> list[dict]:
    """Half the set-up probes, each on the next allowed CPU in turn."""
    cpus = sorted(os.sched_getaffinity(0))
    try:
        out = []
        for i in range(SETUP_PROBES // 2):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})  # inherited by the probe
            out.append(child("worker.py", ["setup", *base], deadline))
        return out
    finally:
        os.sched_setaffinity(0, cpus)


def measure(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    calls = WORKLOADS[args.workload]
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    child("worker.py", ["setup", *base], deadline)  # warm-up: bytecode, file cache
    probes = setup_probes(base, deadline)
    if args.trace:
        res = child("worker.py", ["trace", *base, "--out", str(out)], deadline)
    else:
        budget = deadline - time.monotonic() - CHECK_RESERVE_S
        res = child("worker.py", ["run", *base, "--seconds", str(args.seconds),
                                  "--budget", str(budget), "--out", str(out)], deadline)

    probes += setup_probes(base, deadline)

    problems = []
    if res["codes"] != [0]:
        problems.append(f"verify exit codes {res['codes']}, expected [0]")
    if not res["identical"]:
        problems.append("reports differ between passes beyond their timing block"
                        if not args.trace else "a suite run alone gave other cases")
    reports = [json.loads(first_report(out, k).read_text(encoding="utf-8"))
               for k in range(len(calls))]
    for call, report in zip(calls, reports):
        problems += checks.check_report(report, call, args.seed)
        problems += [f"the checks accept a report with a {label}"
                     for label in checks.self_test(report, call, args.seed)]
    oracle = child("oracle.py", [*base, "--out", str(out)], deadline)
    problems += oracle["errors"]
    if not oracle["checked"]:
        problems.append("the oracle compared nothing")

    passes = 1 if args.trace else len(res["pass_s"])
    cases = sum(len(r["cases"]) for r in reports)
    failing = sum(not c["pass"] for r in reports for c in r["cases"])
    setup = [p["import_s"] + p["pool_s"] for p in probes]
    if args.trace:
        values = {name: 0 for name, _ in layers.metric_units()}
        values.update(res["metrics"])
        values["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        values["setup.pool_s"] = statistics.median(p["pool_s"] for p in probes)
        units = layers.metric_units()
        overhead = res["traced_s"] / res["untraced_s"]
        print(f"traced pass {res['traced_s']:.3f} s, untraced suites {res['untraced_s']:.3f} s: "
              f"tracing overhead x{overhead:.2f}", file=sys.stderr)
        trace_file = out / "trace.json"
        trace_file.write_text(json.dumps({"seed": args.seed, "tracing_overhead": overhead,
                                          "metrics": values}, indent=1, sort_keys=True))
    else:
        verdict = statistics.median(res["pass_s"])
        values = {"setup_s": statistics.median(setup), "verdict_s": verdict,
                  "cases_per_s": cases / verdict, "peak_rss_mb": res["peak_rss_mb"]}
        units = END_TO_END
        print(f"passes: {' '.join(f'{t:.3f}' for t in res['pass_s'])} s")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    for name, unit in units:
        v = values[name]
        print(f"{name:<36} {v:>14}" if isinstance(v, int) else f"{name:<36} {v:>14.6g}", unit)
    print(f"cases attempted {cases * passes}, failed {failing * passes}, "
          f"oracle comparisons {oracle['checked']}")
    return {"correct": not problems, "attempted": cases * passes, "failed": failing * passes,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "jetcocycles" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except StepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
