"""One benchmark process: set-up probe, timed passes, or the traced pass.

Started by `run.py` in a fresh interpreter with `src` on `PYTHONPATH` and
single-threaded BLAS.  Prints one JSON object as its last line.

    worker.py setup --workload W --seed N
    worker.py run   --workload W --seed N --seconds S --budget B --out DIR
    worker.py trace --workload W --seed N --out DIR

`setup` times `import jetcocycles.cli` and the validated scenarios with
their map pools.  `run` repeats passes of the workload's `verify` calls,
each through `jetcocycles.cli.main`, until `--seconds` have gone by (at
least `MIN_PASSES`, never past `--budget`), and compares every pass's
reports with the first pass's.  `trace` times each suite as its own
scenario, then makes one pass with every layer wrapped by `layers.Tracer`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import time
from collections import defaultdict
from pathlib import Path

from workloads import SAMPLES, WORKLOADS

MIN_PASSES = 3


def first_report(out: Path, k: int) -> Path:
    return out / f"call{k}-first.json"


def canonical(path: Path) -> str:
    """The report's bytes without its top-level timing entry, the one part
    that may differ between runs of the same scenario."""
    kept, skip = [], False
    for line in path.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith('  "'):
            skip = line.startswith('  "timing"')
        elif line.startswith("}"):
            skip = False
        if not skip:
            kept.append(line)
    return "".join(kept)


def verify(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def setup_probe(calls, seed: int) -> dict:
    t0 = time.perf_counter()
    import jetcocycles.cli  # noqa: F401  (the user path's import)
    from jetcocycles.harness import ScenarioConfig, default_map_pool
    from jetcocycles.maps import catalog_get
    t1 = time.perf_counter()
    pools = []
    for call in calls:
        cfg = ScenarioConfig(dim=call.dim, backend=call.backend, samples=SAMPLES,
                             seed=seed, suites=call.suites).validate()
        pools.append([catalog_get(name, dict(params, dim=cfg.dim))
                      for name, params in default_map_pool(cfg.dim, cfg.backend)])
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "pool_s": t2 - t1}


def timed_passes(calls, seed: int, seconds: float, budget: float, out: Path) -> dict:
    from jetcocycles import cli

    paths = [out / f"call{k}.json" for k in range(len(calls))]
    # each CPU's speed drifts on its own; taking turns averages over them
    cpus = sorted(os.sched_getaffinity(0))
    firsts: list[str] = []
    pass_s: list[float] = []
    codes = set()
    identical = True
    start = time.perf_counter()
    while True:
        os.sched_setaffinity(0, {cpus[len(pass_s) % len(cpus)]})
        gc.collect()
        t0 = time.perf_counter()
        for call, path in zip(calls, paths):
            codes.add(verify(cli, call.argv(seed, str(path))))
        pass_s.append(time.perf_counter() - t0)
        for k, path in enumerate(paths):
            if len(pass_s) == 1:
                shutil.copyfile(path, first_report(out, k))
                firsts.append(canonical(path))
            elif canonical(path) != firsts[k]:
                identical = False
        elapsed = time.perf_counter() - start
        if len(pass_s) >= MIN_PASSES and elapsed >= seconds:
            break
        if elapsed + max(pass_s) > budget:
            break
    return {"pass_s": pass_s, "codes": sorted(codes), "identical": identical,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def traced_pass(calls, seed: int, out: Path) -> dict:
    from jetcocycles import cli
    import layers

    metrics: dict = defaultdict(float)
    codes = set()
    suite_cases = {}
    cpu0 = time.process_time()
    for call in calls:
        for suite in call.suites:
            path = out / f"suite-d{call.dim}-{suite}.json"
            t0 = time.perf_counter()
            codes.add(verify(cli, call.argv(seed, str(path), (suite,))))
            dt = time.perf_counter() - t0
            metrics[f"harness.suite.{suite}.s"] += dt
            metrics[f"harness.dim{call.dim}.s"] += dt
            suite_cases[(call.dim, suite)] = json.loads(path.read_text())["cases"]
    metrics["harness.cpu_s"] = time.process_time() - cpu0
    untraced_s = sum(metrics[f"harness.dim{c.dim}.s"] for c in calls)

    tracer = layers.Tracer()
    tracer.install()
    cli_s = 0.0
    for k, call in enumerate(calls):
        t0 = time.perf_counter()
        codes.add(verify(cli, call.argv(seed, str(first_report(out, k)))))
        cli_s += time.perf_counter() - t0
    metrics["cli.overhead_s"] = cli_s - tracer.total_s["harness.run_scenario"]
    metrics.update(tracer.metrics())

    # a suite run alone must give the same cases as inside the full scenario
    same = True
    for k, call in enumerate(calls):
        cases = json.loads(first_report(out, k).read_text())["cases"]
        for suite in call.suites:
            same &= [c for c in cases if c["suite"] == suite] == suite_cases[(call.dim, suite)]
    return {"metrics": dict(metrics), "codes": sorted(codes), "identical": same,
            "untraced_s": untraced_s, "traced_s": cli_s}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run", "trace"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    calls = WORKLOADS[args.workload]
    if args.mode == "setup":
        result = setup_probe(calls, args.seed)
    elif args.mode == "run":
        result = timed_passes(calls, args.seed, args.seconds, args.budget, args.out)
    else:
        result = traced_pass(calls, args.seed, args.out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
