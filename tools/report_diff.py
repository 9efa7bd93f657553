"""Compare the verify reports of two source trees, apart from timing, and
the output of their ``list`` and ``demo`` commands.

    python3 tools/report_diff.py PARENT_TREE CHANGE_TREE

Each tree is the root of a jetcocycles checkout.  In each, the script runs
``python -m jetcocycles.cli verify`` with every suite, ``--samples 2`` and
seeds 1 and 2, at dims 1-3 on both backends: 12 reports over the default map
pools.  The default float pools never build ``identity``, ``affine`` or
``projective``, so at each dim and seed one more float run takes a scenario
file whose pool is those three families with float parameters.  No default
pool holds a map that reverses orientation, so at each seed one more exact
dim-1 run takes a pool with two of them: 20 reports per tree.  Reports are
compared after dropping their ``timing`` block.  It also runs ``list``
and each of the three demos and compares their standard output and exit
code.  The program is imported from the tree's ``src``, so nothing needs
installing.  It prints one line per report and per command, then one line
with the line count of ``src/jetcocycles/*.py`` in each tree and the net
change.  It exits 1 when any report or command output differs or a report
is missing, else 0.  A report that differs is sized next to the paths where
it differs, the first one and every one outside ``cases``: how many cases
differ, and the largest |delta| between the residuals of those cases that
read as floats.  Standard library only.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile

SEEDS = (1, 2)
DIMS = (1, 2, 3)
BACKENDS = ("exact", "float")
COMMANDS = (("list",), ("demo", "flat-cubic"), ("demo", "affine"), ("demo", "moebius"))


def run_cli(tree: str, args, **kw) -> subprocess.CompletedProcess:
    """``python -m jetcocycles.cli ARGS`` with the program imported from ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    return subprocess.run([sys.executable, "-m", "jetcocycles.cli", *args],
                          cwd=tree, env=env, check=False, **kw)


def float_families(dim: int) -> list:
    """``identity``, ``affine`` and ``projective`` with float parameters, as
    the ``maps`` of a scenario file."""
    a = [[1.5 if i == j else 0.0 for j in range(dim)] for i in range(dim)]
    a[0][-1] += 0.1
    m = [[1.0 if i == j else 0.0 for j in range(dim + 1)] for i in range(dim + 1)]
    m[0][dim] = m[dim][0] = 0.3
    return [["identity", {}], ["affine", {"A": a, "b": [-0.125] * dim}],
            ["projective", {"A": m}]]


# an exact dim-1 pool in which ``linear`` and ``moebius`` reverse orientation
REVERSING_POOL = [["linear", {"A": -1}], ["translation", {}], ["polynomial_perturbation", {}],
                  ["moebius", {"a": -1, "b": 1, "c": 1, "d": 1}]]


def verify_runs(tmp: str) -> list:
    """(label, verify arguments) of each report: the default pools first,
    then the float families and the orientation-reversing pool, whose
    scenario files are written to ``tmp``."""
    runs = []
    for seed in SEEDS:
        for dim in DIMS:
            for backend in BACKENDS:
                runs.append((f"dim {dim} {backend:<5} seed {seed}",
                             ["--dim", str(dim), "--backend", backend, "--samples", "2",
                              "--seed", str(seed)]))

    def scenario(label, name, dim, backend, seed, maps):
        path = os.path.join(tmp, f"{name}-d{dim}-s{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"dim": dim, "backend": backend, "samples": 2, "seed": seed,
                       "maps": maps}, fh)
        runs.append((f"dim {dim} {label} seed {seed}", [path]))

    for seed in SEEDS:
        for dim in DIMS:
            scenario("float families", "families", dim, "float", seed, float_families(dim))
    for seed in SEEDS:
        scenario("exact reversing", "reversing", 1, "exact", seed, REVERSING_POOL)
    return runs


def run_report(tree: str, args: list, path: str):
    """The report of one verify call in ``tree`` without ``timing``, or None."""
    run_cli(tree, ["verify", *args, "--json", path], stdout=subprocess.DEVNULL)
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        return None
    report.pop("timing", None)
    return report


def differences(a, b, where="") -> list:
    """Readable paths to every place where two JSON values differ, in order."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                out.append(f"{where}/{key}: only in {'change' if key in b else 'parent'}")
            elif a[key] != b[key]:
                out += differences(a[key], b[key], f"{where}/{key}")
        return out
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{where}: {len(a)} vs {len(b)} entries"]
        return [path for i, (x, y) in enumerate(zip(a, b)) if x != y
                for path in differences(x, y, f"{where}[{i}]")]
    return [f"{where}: {a!r} vs {b!r}"]


def _is_int(text) -> bool:
    try:
        int(text)
    except (TypeError, ValueError):
        return False
    return True


def residual_drift(a: dict, b: dict) -> tuple:
    """How many cases differ between two reports, taken in order (a case
    only one report has counts), and the largest |delta| between the
    residuals of differing cases, over the pairs where one residual is a
    float and both read as numbers; None when there is no such pair.  An
    exact residual is an integer or a ``p/q`` string."""
    ca, cb = a.get("cases", []), b.get("cases", [])
    differ = abs(len(ca) - len(cb))
    largest = None
    for x, y in zip(ca, cb):
        if x == y:
            continue
        differ += 1
        rx, ry = x.get("residual"), y.get("residual")
        if _is_int(rx) and _is_int(ry):
            continue
        try:
            delta = abs(float(rx) - float(ry))
        except (TypeError, ValueError):
            continue
        largest = delta if largest is None else max(largest, delta)
    return differ, largest


def describe(a: dict, b: dict) -> str:
    """The status of two reports that differ: their drift, the first path
    where they differ, and every further differing path outside ``cases``."""
    count, largest = residual_drift(a, b)
    size = "" if largest is None else f", largest float |delta| {largest:.3g}"
    first, *rest = differences(a, b)
    named = [first] + [path for path in rest if not path.startswith("/cases")]
    return f"DIFFERS in {count} cases{size}; first at {'; also at '.join(named)}"


def source_lines(tree: str) -> int:
    """The number of lines in ``src/jetcocycles/*.py`` of ``tree``."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "jetcocycles", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def source_size(parent: str, change: str) -> str:
    """One line: the source line counts of both trees and the net change."""
    a, b = source_lines(parent), source_lines(change)
    return f"src/jetcocycles/*.py: {a} lines in parent, {b} in change, net {b - a:+d}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="root of the reference source tree")
    ap.add_argument("change", help="root of the source tree under test")
    args = ap.parse_args(argv)
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        runs = verify_runs(tmp)
        for i, (name, verify_args) in enumerate(runs):
            reports = [run_report(tree, verify_args, os.path.join(tmp, f"{side}-{i}.json"))
                       for tree, side in ((args.parent, "parent"), (args.change, "change"))]
            if None in reports:
                status = "missing report"
            elif reports[0] == reports[1]:
                status = f"identical ({len(reports[0]['cases'])} cases)"
            else:
                status = describe(*reports)
            differ += not status.startswith("identical")
            print(f"{name}: {status}", flush=True)
    print(f"{differ} of {len(runs)} reports differ")
    differ_out = 0
    for command in COMMANDS:
        parent, change = (run_cli(tree, command, capture_output=True, text=True)
                          for tree in (args.parent, args.change))
        same = (parent.returncode, parent.stdout) == (change.returncode, change.stdout)
        differ_out += not same
        print(f"{' '.join(command)}: {'identical' if same else 'DIFFERS'}", flush=True)
    print(f"{differ_out} of {len(COMMANDS)} command outputs differ")
    print(source_size(args.parent, args.change))
    return 1 if differ or differ_out else 0


if __name__ == "__main__":
    sys.exit(main())
