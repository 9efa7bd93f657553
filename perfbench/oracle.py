"""Independent recomputation with sympy, which shares no code with the jets.

    oracle.py --workload W --seed N --out DIR

Two things are recomputed and compared with the program, exactly on the
exact backend and within `FLOAT_TOL` (relative) on the float backend:

- at a few case points of each first-pass report, the jets up to third
  order of that case's catalog maps, against `DiffeoMap.eval_jet`;
- when the workload runs the `moyal` suite, the flat term P3 of two random
  polynomials at a phase point, against `moyal_p3`, and the worked value
  P3(xi^3, x^3) = -36.

Runs in its own process, so that importing sympy does not touch the memory
figure of the timed process.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import sympy as sp

from jetcocycles.cocycles import moyal_p3
from jetcocycles.jets import EvaluationError, Polynomial
from jetcocycles.maps import catalog_get
from jetcocycles.operators import Symbol

from worker import first_report
from workloads import WORKLOADS

CASES_PER_REPORT = 3
JET_ORDER = 3
FLOAT_TOL = 1e-9


def rational(v) -> sp.Rational:
    if isinstance(v, Fraction):
        return sp.Rational(v.numerator, v.denominator)
    return sp.Rational(v)  # exact value of an int or a binary float


def parse_param(v, exact: bool):
    if isinstance(v, list):
        return [parse_param(x, exact) for x in v]
    return Fraction(v) if exact else float(v)


def map_exprs(name: str, params: dict, xs: list) -> list:
    """Components of a catalog map, written from the family's definition."""
    n = len(xs)
    if name == "identity":
        return list(xs)
    if name == "translation":
        return [x + rational(c) for x, c in zip(xs, params["c"])]
    if name in ("linear", "affine"):
        a, b = params["A"], params["b"]
        return [sum(rational(a[i][j]) * xs[j] for j in range(n)) + rational(b[i])
                for i in range(n)]
    if name == "polynomial_perturbation":
        eps = rational(params["eps"])
        if n == 1:
            return [xs[0] + eps * xs[0] ** 3]
        return [xs[i] + eps * (xs[i] + xs[(i + 1) % n]) ** 3 for i in range(n)]
    if name == "moebius":
        a, b, c, d = (rational(params[k]) for k in "abcd")
        return [(a * xs[0] + b) / (c * xs[0] + d)]
    if name == "projective":
        m = params["A"]

        def row(i):
            return sum(rational(m[i][j]) * xs[j] for j in range(n)) + rational(m[i][n])

        return [row(i) / row(n) for i in range(n)]
    if name == "exp_scale":
        return [sp.exp(rational(params["lam"]) * x) for x in xs]
    raise KeyError(f"no sympy form for catalog map {name!r}")


def agree(got, want, exact: bool) -> bool:
    if exact:
        return want.is_Rational and Fraction(got) == Fraction(int(want.p), int(want.q))
    w = float(want)
    return abs(float(got) - w) <= FLOAT_TOL * max(1.0, abs(w))


def taylor_coefficient(expr, xs: list, alpha: tuple):
    """d^alpha expr / alpha!, the jet kernel's monomial coefficient."""
    spec = [(x, k) for x, k in zip(xs, alpha) if k]
    deriv = sp.diff(expr, *spec) if spec else expr
    return deriv / math.prod(math.factorial(k) for k in alpha)


def check_map_jets(report: dict) -> tuple[int, list[str]]:
    cfg = report["config"]
    n, exact = cfg["dim"], cfg["backend"] == "exact"
    xs = list(sp.symbols(f"x0:{n}"))
    alphas = [a for a in itertools.product(range(JET_ORDER + 1), repeat=n)
              if sum(a) <= JET_ORDER]
    pool = []
    for name, raw in cfg["maps"]:
        params = {k: parse_param(v, exact) for k, v in raw.items()}
        prog = catalog_get(name, dict(params, dim=n))
        exprs = map_exprs(name, prog.params, xs)
        derivs = {a: [taylor_coefficient(e, xs, a) for e in exprs] for a in alphas}
        pool.append((name, prog, derivs))

    names = {name for name, _, _ in pool}
    eligible = [c for c in report["cases"] if names & set(c["maps"])]
    picked = eligible[::max(1, len(eligible) // CASES_PER_REPORT)][:CASES_PER_REPORT]
    checked, errs = 0, []
    for case in picked:
        base = [Fraction(s) for s in case["point"][:n]]
        point = tuple(base) if exact else tuple(float(v) for v in base)
        at = {x: rational(v) for x, v in zip(xs, base)}
        for name, prog, derivs in pool:
            if name not in case["maps"]:
                continue
            try:
                jets = prog.eval_jet(point, JET_ORDER)
            except EvaluationError:
                # the program declines a pole; sympy must find one there too
                if not any(e.subs(at).is_finite is False for e in derivs[(0,) * n]):
                    errs.append(f"{name} at {case['point'][:n]}: program found a pole")
                continue
            checked += 1
            for a, want in derivs.items():
                for comp, (jet, w) in enumerate(zip(jets, want)):
                    got = jet.coefficient(a)
                    if not agree(got, w.subs(at), exact):
                        errs.append(f"{name}[{comp}] coefficient {a} at "
                                    f"{case['point'][:n]}: {got} vs {w.subs(at)}")
    return checked, errs


def p3_sympy(f, g, zs: list):
    """sum Pi^{aa'} Pi^{bb'} Pi^{cc'} d_abc f d_a'b'c' g, Pi the canonical
    Poisson bivector (Pi^{x_i xi_i} = 1, Pi^{xi_i x_i} = -1)."""
    n = len(zs) // 2
    pairs = [(i, i + n, 1) for i in range(n)] + [(i + n, i, -1) for i in range(n)]
    total = 0
    for (a, a2, s1), (b, b2, s2), (c, c2, s3) in itertools.product(pairs, repeat=3):
        total += s1 * s2 * s3 * sp.diff(f, zs[a], zs[b], zs[c]) * sp.diff(g, zs[a2], zs[b2], zs[c2])
    return sp.expand(total)


def random_poly(rng: random.Random, d: int) -> dict:
    terms = {}
    for _ in range(5):
        e = [0] * d
        for _ in range(rng.randint(3, 4)):
            e[rng.randrange(d)] += 1
        terms[tuple(e)] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 4, 8)))
    return terms


def as_expr(terms: dict, zs: list):
    return sum(rational(c) * sp.prod([z ** k for z, k in zip(zs, e)]) for e, c in terms.items())


def check_p3(seed: int, dims) -> tuple[int, list[str]]:
    errs = []
    x, xi = sp.symbols("x xi")
    want = p3_sympy(xi ** 3, x ** 3, [x, xi])
    got = moyal_p3(Symbol.monomial(1, (3,)), Polynomial(2, {(3, 0): 1}), (Fraction(0), Fraction(0)))
    if not (want == -36 and got == -36):
        errs.append(f"worked value P3(xi^3, x^3): sympy {want}, program {got}, expected -36")
    for n in dims:
        rng = random.Random(f"p3-{seed}-{n}")
        zs = list(sp.symbols(f"z0:{2 * n}"))
        f, g = random_poly(rng, 2 * n), random_poly(rng, 2 * n)
        point = tuple(Fraction(rng.randint(-8, 8), 16) for _ in range(2 * n))
        got = moyal_p3(Polynomial(2 * n, f), Polynomial(2 * n, g), point)
        want = p3_sympy(as_expr(f, zs), as_expr(g, zs), zs).subs(
            {z: rational(v) for z, v in zip(zs, point)})
        if not agree(got, want, exact=True):
            errs.append(f"P3 at dim {n}: program {got}, sympy {want}")
    return 1 + len(dims), errs


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    calls = WORKLOADS[args.workload]
    checked, errs = 0, []
    for k in range(len(calls)):
        report = json.loads(first_report(args.out, k).read_text(encoding="utf-8"))
        c, e = check_map_jets(report)
        checked, errs = checked + c, errs + e
    moyal_dims = [c.dim for c in calls if "moyal" in c.suites]
    if moyal_dims:
        c, e = check_p3(args.seed, moyal_dims)
        checked, errs = checked + c, errs + e
    print(json.dumps({"checked": checked, "errors": errs}))


if __name__ == "__main__":
    main()
