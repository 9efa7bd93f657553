"""Command-line harness: catalog listing, suite verification, demos.

Exit codes: 0 all cases passed, 1 case failures or evaluation errors,
2 usage/configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .harness import (
    ALL_SUITES,
    ConfigError,
    ScenarioConfig,
    report_to_json,
    run_scenario,
)
from .maps import catalog_entries, catalog_get
from .geometry import Connection
from .operators import build_L_covariant

# name -> (catalog family, parameters, phase point, caption lines)
DEMOS = {
    "flat-cubic": ("polynomial_perturbation", {"eps": 1}, (Fraction(0), Fraction(0)),
                   ("operator of x -> x + x^3 with the flat connection at x = 0",
                    "(fiber coordinate written xi0; the third-order slot carries -6*xi0)")),
    "affine": ("affine", {"A": 2, "b": Fraction(1, 2)}, (Fraction(1, 4), Fraction(1)),
               ("operator of the affine map x -> 2x + 1/2 at x = 1/4 (zero)",)),
    "moebius": ("moebius", {"a": 1, "b": 0, "c": 1, "d": 1}, (Fraction(1), Fraction(0)),
                ("operator of x -> x/(x+1) at x = 1: nonzero on fractional-linear maps",)),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="jetcocycles",
        description="Machine verification of differential-geometric 1-cocycles "
                    "via truncated-jet arithmetic.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the map catalog and parameter schemas")

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("scenario", nargs="?", default=None,
                   help="JSON scenario file; overrides all flags")
    # no defaults here: a flag left out keeps ScenarioConfig's default
    v.add_argument("--dim", type=int, help="chart dimension (1..3)")
    v.add_argument("--backend", choices=("exact", "float"))
    v.add_argument("--tol", type=float, help="residual tolerance on the float backend")
    v.add_argument("--samples", type=int, help="points per case")
    v.add_argument("--seed", type=int, help="sampling seed")
    v.add_argument("--suite", action="append", dest="suites", metavar="NAME",
                   help=f"suite to run, repeatable; one of {', '.join(ALL_SUITES)}")
    v.add_argument("--json", default=None, metavar="PATH",
                   help="write the full JSON report here")

    d = sub.add_parser("demo", help="print a worked operator table")
    d.add_argument("name", choices=DEMOS)
    return p


def cmd_list() -> int:
    print("catalog maps (name, parameters, singular locus):")
    for entry in catalog_entries():
        params = ", ".join(f"{k}: {v}" for k, v in entry["params"].items())
        print(f"  {entry['name']:<26} {{{params}}}")
        print(f"  {'':<26} singular: {entry['singular']}")
    return 0


def cmd_verify(args) -> int:
    if args.scenario is not None:
        cfg = ScenarioConfig.from_file(args.scenario)
    else:
        given = {k: v for k, v in vars(args).items()
                 if v is not None and k not in ("command", "scenario", "json")}
        cfg = ScenarioConfig(**given)

    report = run_scenario(cfg)
    summary = report["summary"]
    for suite in cfg.suites:
        cases = [c for c in report["cases"] if c["suite"] == suite]
        bad = [c for c in cases if not c["pass"]]
        worst = summary["max_abs_residual_by_suite"].get(suite, "0")
        status = "ok" if not bad else f"{len(bad)} failing"
        print(f"{suite:<22} {len(cases):>4} cases  max|residual| = {worst:<24} {status}")
    print(f"total: {summary['passed']}/{summary['total']} passed, "
          f"{summary['errors']} errors")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report))
        print(f"report written to {args.json}")

    if summary["errors"]:
        return 1
    return 0 if summary["pass"] else 1


def _render_op(op, n: int) -> list[str]:
    """Rows of 'differential : coefficient' from the operator's coefficient
    jets, fiber dependence kept affine."""
    names = [f"x{i}" for i in range(n)] + [f"xi{i}" for i in range(n)]
    lines = []
    for midx in sorted(op.coeff_jets, key=lambda m: (sum(m), m)):
        label = " ".join(
            f"d/d{names[ax]}" if e == 1 else f"d^{e}/d{names[ax]}^{e}"
            for ax, e in enumerate(midx) if e
        )
        jet = op.coeff_jets[midx]
        parts = []
        const = jet.value
        if const != 0:
            parts.append(str(const))
        for i in range(n):
            unit = tuple(0 if a != n + i else 1 for a in range(2 * n))
            lin = jet.coefficient(unit)
            if lin != 0:
                parts.append(f"{lin}*xi{i}")
        coeff = " + ".join(parts).replace("+ -", "- ") or "0"
        lines.append(f"  {coeff:<24} * {label}")
    if not lines:
        lines.append("  0   (the zero operator)")
    return lines


def cmd_demo(name: str) -> int:
    family, params, z, caption = DEMOS[name]
    for line in caption:
        print(line)
    op = build_L_covariant(catalog_get(family, params), Connection.flat_connection(1), z,
                           coeff_order=1)
    for line in _render_op(op, 1):
        print(line)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "list":
            return cmd_list()
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "demo":
            return cmd_demo(args.name)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
