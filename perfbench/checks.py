"""Output checks on `verify` reports, and a self-test that they bite.

The checks rest on what must hold, not on a stored copy of a report:

- the identities the suites test are theorems, so every non-witness case
  passes, with residual exactly `0` when it is an exact rational and at
  most the tolerance when it is a float;
- a witness (`sabotage_detected`, `nonvanishing[...]`) asserts that a
  wrong action or a projective map is caught, so it must be present and
  nonzero;
- the scenario fixes the number of cases (see `workloads.py`), and the
  summary must agree with the case list.
"""

from __future__ import annotations

import copy
import math
import re
from fractions import Fraction

# the harness's tolerance for float-valued classical cocycles
CLASSICAL_FLOAT_TOL = 1e-9
# suites whose cases carry witnesses, and how each witness's case_id starts
WITNESSES = {"cocycle_C": "sabotage_detected", "operator_L": "nonvanishing["}
_EXACT = re.compile(r"-?\d+(/\d+)?")
_NUMPY_REPR = re.compile(r"np\.float\d+\((.*)\)")


def residual_value(text: str):
    """Fraction for an exact residual, float for a float one."""
    if _EXACT.fullmatch(text):
        return Fraction(text)
    m = _NUMPY_REPR.fullmatch(text)
    return float(m.group(1) if m else text)


def check_report(report: dict, call, seed: int) -> list[str]:
    """Every way the report breaks a property that must hold; [] if none."""
    errs = []
    cfg = report.get("config", {})
    want = {"dim": call.dim, "backend": call.backend, "seed": seed,
            "suites": list(call.suites)}
    for key, val in want.items():
        if cfg.get(key) != val:
            errs.append(f"config {key} = {cfg.get(key)!r}, expected {val!r}")
    cases = report.get("cases", [])
    summary = report.get("summary", {})
    if len(cases) != call.cases:
        errs.append(f"{len(cases)} cases, the scenario makes {call.cases}")
    if summary.get("total") != len(cases) or summary.get("passed") != len(cases):
        errs.append(f"summary {summary.get('passed')}/{summary.get('total')} "
                    f"does not match {len(cases)} passing cases")
    if summary.get("failed") != 0 or summary.get("errors") != 0 or summary.get("pass") is not True:
        errs.append(f"summary reports failures: {summary}")
    ids = [(c["suite"], c["case_id"]) for c in cases]
    if len(set(ids)) != len(ids):
        errs.append("duplicate case ids")
    for suite in call.suites:
        if not any(c["suite"] == suite for c in cases):
            errs.append(f"suite {suite} has no cases")
    for suite, prefix in WITNESSES.items():
        if suite in call.suites and not any(
                c["suite"] == suite and c["witness"] and c["case_id"].startswith(prefix)
                for c in cases):
            errs.append(f"suite {suite} lacks its witness {prefix}")

    tol = float(cfg.get("tol", "nan")) if call.backend == "float" else CLASSICAL_FLOAT_TOL
    for c in cases:
        where = f"{c['suite']}/{c['case_id']}"
        if c.get("error") is not None or c.get("pass") is not True:
            errs.append(f"{where} did not pass: {c.get('error')}")
            continue
        if c.get("residual") is None:
            errs.append(f"{where} has no residual")
            continue
        r = residual_value(c["residual"])
        if c["witness"]:
            if r == 0 or (isinstance(r, float) and not abs(r) > tol):
                errs.append(f"{where}: witness reads {c['residual']}")
        elif isinstance(r, Fraction):
            if r != 0:
                errs.append(f"{where}: exact residual {c['residual']}")
        elif not math.isfinite(r):
            errs.append(f"{where}: residual {c['residual']}")
        elif c["suite"] != "consistency" and abs(r) > tol:
            # consistency cases pass on convergence order, not on a size
            errs.append(f"{where}: residual {c['residual']} above {tol}")
    return errs


def corruptions(report: dict):
    """Corrupted copies of a passing report, each labelled."""
    cases = report["cases"]
    plain = next(i for i, c in enumerate(cases)
                 if not c["witness"] and c["suite"] != "consistency")

    bad = copy.deepcopy(report)
    r = residual_value(bad["cases"][plain]["residual"])
    bad["cases"][plain]["residual"] = "1/8" if isinstance(r, Fraction) else "0.125"
    yield "flipped residual", bad

    bad = copy.deepcopy(report)
    wit = next((i for i, c in enumerate(cases) if c["witness"]), None)
    if wit is None:
        bad["cases"][plain]["witness"] = True  # a witness that reads zero
    else:
        # drop the witness, keep the count with a renamed copy of another case
        filler = dict(bad["cases"][plain], case_id=bad["cases"][plain]["case_id"] + "'")
        bad["cases"][wit] = filler
    yield "witness missing", bad

    bad = copy.deepcopy(report)
    bad["cases"].pop()
    bad["summary"]["total"] -= 1
    bad["summary"]["passed"] -= 1
    yield "case count changed", bad


def self_test(report: dict, call, seed: int) -> list[str]:
    """Labels of the corruptions the checks failed to reject; [] is good."""
    return [label for label, bad in corruptions(report) if not check_report(bad, call, seed)]
