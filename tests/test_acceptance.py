"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for the one-line-per-criterion
report; ``-s`` additionally shows the explicit ACCEPTANCE lines.
"""

import json
import random
import time
from fractions import Fraction

from jetcocycles.jets import Polynomial, monomials
from jetcocycles.maps import VectorField, catalog_get, cotangent_lift
from jetcocycles.geometry import Connection, cocycle_C, lift_connection
from jetcocycles.operators import (
    Symbol,
    apply_op_to_symbol,
    build_L_coordinate,
    build_L_covariant,
    build_L_flat,
)
from jetcocycles.cocycles import (
    ConnectionCompareCocycle,
    DeRhamCocycle,
    LogVolumeCocycle,
    OperatorCocycle,
    PhaseCompareCocycle,
    SchwarzianCocycle,
    chevalley_p3_residual,
    divergence_cocycle,
    divergence_field,
    group_algebra_consistency,
    lie_derivative_connection,
    log_volume_cocycle,
    moyal_p3,
    scalar_field_action,
    schwarzian_1d,
    tensor_lie_derivative,
    algebra_cocycle_residual,
    vect_embedding_cocycle,
    verify_group_cocycle,
)
from jetcocycles.harness import ScenarioConfig, run_scenario

F = Fraction


def announce(num, text, ok):
    print(f"\nACCEPTANCE {num:02d} {text}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {text}"


def exact_pool(n):
    pool = [
        catalog_get("polynomial_perturbation", {"dim": n, "eps": F(1, 8)}),
        catalog_get("projective", {"dim": n}),
        catalog_get("affine", {"dim": n,
                               "A": 2 if n == 1 else [[1, 1], [0, 1]],
                               "b": F(1, 4) if n == 1 else [F(1, 4), F(0)]}),
        catalog_get("translation", {"dim": n, "c": F(1, 4) if n == 1 else [F(1, 4)] * n}),
    ]
    if n == 1:
        pool.append(catalog_get("moebius", {"a": 1, "b": 0, "c": 1, "d": 1}))
        pool.append(catalog_get("moebius", {"a": 2, "b": 1, "c": 1, "d": 1}))
    return pool


def sample_phase(rng, n):
    return tuple(F(rng.randint(-8, 8), 16) for _ in range(n)) + tuple(
        F(rng.randint(1, 8) * (1 if rng.random() < 0.5 else -1), 8) for _ in range(n))


def sample_base(rng, n):
    return tuple(F(rng.randint(-8, 8), 16) for _ in range(n))


def regular_phase(rng, n, f, h):
    for _ in range(64):
        z = sample_phase(rng, n)
        try:
            if h.jacobian_det(z[:n]) != 0 and f.jacobian_det(h(z[:n])) != 0:
                return z
        except Exception:
            continue
    raise RuntimeError("no regular point found")


def regular_base(rng, n, f, h, oriented=False):
    for _ in range(64):
        x = sample_base(rng, n)
        try:
            dh = h.jacobian_det(x)
            df = f.jacobian_det(h(x))
            if dh == 0 or df == 0:
                continue
            if oriented and (float(dh) <= 0 or float(df) <= 0):
                continue
            return x
        except Exception:
            continue
    raise RuntimeError("no regular point found")


def ordered_pairs(pool, minimum):
    pairs = [(f, h) for f in pool for h in pool if not (f.name == h.name == "identity")]
    assert len(pairs) >= minimum
    stride = max(1, len(pairs) // max(minimum, 8))
    picked = pairs[::stride]
    return picked[:max(minimum, 10)]


def test_criterion_01_operator_cocycle_identity():
    started = time.time()
    rng = random.Random(2024)
    for n in (1, 2):
        cand = OperatorCocycle(Connection.flat_connection(n))
        pairs = ordered_pairs(exact_pool(n), 8)
        assert len(pairs) >= 8
        for f, h in pairs:
            points = [regular_phase(rng, n, f, h) for _ in range(5)]
            rows = verify_group_cocycle(cand, f, h, points, tol=0)
            assert all(r.passed and r.residual == 0 for r in rows), \
                (n, f.name, h.name, [r.error or r.residual for r in rows])

    # float backend: relative residual under 1e-8
    float_pool = [
        catalog_get("exp_scale", {"lam": 0.5}),
        catalog_get("polynomial_perturbation", {"eps": 0.125}),
        catalog_get("moebius", {"a": 1.0, "b": 0.0, "c": 0.5, "d": 1.0}),
    ]
    cand = OperatorCocycle(Connection.flat_connection(1))
    for f in float_pool:
        for h in float_pool:
            z = (0.25, -0.5)
            r = cand.residual(f, h, z)
            assert abs(r) < 1e-8, (f.name, h.name, r)

    elapsed = time.time() - started
    assert elapsed < 60, f"runtime target exceeded: {elapsed:.1f}s"
    announce(1, f"operator cocycle identity (exact 0; float rel < 1e-8; {elapsed:.1f}s)", True)


def test_criterion_02_connection_lift():
    rng = random.Random(7)
    flat_lift = lift_connection(Connection.flat_connection(2))
    for _ in range(5):
        z = sample_phase(rng, 2)
        comps = flat_lift.components(z, 1)
        assert max(abs(comps[k][i][j].value) for k in range(4)
                   for i in range(4) for j in range(4)) == 0

    gx = Connection.from_polynomials(1, {(0, 0, 0): Polynomial.coordinate(1, 0)})
    lifted = lift_connection(gx)
    for _ in range(5):
        x, xi = sample_phase(rng, 1)
        comps = lifted.components((x, xi), 0)
        assert comps[1][0][0].value == xi * (2 * x * x - 1)
        assert comps[1][0][1].value == -x

    for n in (1, 2):
        entries = {}
        for k in range(n):
            for i in range(n):
                for j in range(i, n):
                    terms = {m: F(rng.randint(-3, 3), 8) for m in monomials(n, 2)}
                    entries[(k, i, j)] = Polynomial(n, terms)
        lifted = lift_connection(Connection.from_polynomials(n, entries))
        for _ in range(4):
            z = sample_phase(rng, n)
            assert lifted.symmetry_defect(z) == 0
            comps = lifted.components(z, 2)
            for k in range(2 * n):
                for i in range(2 * n):
                    for j in range(2 * n):
                        for m, c in zip(monomials(2 * n, 2), comps[k][i][j].coeffs):
                            if sum(m[n:]) >= 2:
                                assert c == 0
    announce(2, "connection lift (flat zero, worked example, symmetry, fiber-linearity)", True)


def test_criterion_03_comparison_tensor_twisted_additivity():
    rng = random.Random(11)
    count = 0
    for n in (1, 2):
        cand = PhaseCompareCocycle(Connection.flat_connection(n))
        for f, h in ordered_pairs(exact_pool(n), 8)[:8]:
            z = regular_phase(rng, n, f, h)
            r = cand.residual(f, h, z)
            assert r == 0, (n, f.name, h.name, r)
            count += 1
    assert count >= 8

    flat_lift = lift_connection(Connection.flat_connection(1))
    aff = catalog_get("affine", {"A": 2, "b": F(1, 4)})
    tensor = cocycle_C(cotangent_lift(aff), flat_lift)
    for _ in range(4):
        z = sample_phase(rng, 1)
        comps = tensor.components(z, 0)
        assert max(abs(comps[k][i][j].value) for k in range(2)
                   for i in range(2) for j in range(2)) == 0
    announce(3, "comparison tensor twisted additivity and affine vanishing", True)


def test_criterion_04_flat_triangle_with_pinned_constant():
    rng = random.Random(13)
    draws = 0
    for n in (1, 2):
        flat = Connection.flat_connection(n)
        for f in exact_pool(n):
            for _ in range(3):
                z = sample_phase(rng, n)
                if f.jacobian_det(z[:n]) == 0:
                    continue
                cov = build_L_covariant(f, flat, z)
                coord = build_L_coordinate(f, flat, z)
                flat_op = build_L_flat(f, z)
                assert (cov - coord).is_zero()
                assert (cov - flat_op).is_zero()
                draws += 1
    assert draws >= 20, draws
    announce(4, f"flat-case triangle over {draws} draws, ratio 1", True)


def test_criterion_05_degree_lowering():
    rng = random.Random(17)
    for n in (1, 2):
        flat = Connection.flat_connection(n)
        maps_n = [m for m in exact_pool(n) if m.name != "identity"]
        for k in (2, 3, 4, 5):
            for trial in range(3):
                m = maps_n[(k + trial) % len(maps_n)]
                x = sample_base(rng, n)
                if m.jacobian_det(x) == 0:
                    continue
                mu = [0] * n
                mu[0] = k
                terms = {mm: F(rng.randint(-2, 2), 4) for mm in monomials(n, 2)}
                sym = Symbol(n, {tuple(mu): Polynomial(n, terms)})
                op = build_L_covariant(m, flat, tuple(x) + (0,) * n, coeff_order=k + 1)
                out = apply_op_to_symbol(op, sym, x)
                assert out.degree() <= k - 2, (n, k, m.name, out.degree())

    f = catalog_get("polynomial_perturbation", {"eps": 1})
    op = build_L_flat(f, (F(0), F(0)), coeff_order=4)
    out = apply_op_to_symbol(op, Symbol.monomial(1, (3,)), (F(0),))
    assert out.degree() == 1
    assert out.coefficient_value((1,), (F(0),)) == -36
    announce(5, "degree lowering for k in 2..5 and the -36*xi worked value", True)


def test_criterion_06_affine_kernel_and_projective_nonvanishing():
    rng = random.Random(19)
    for n in (1, 2):
        flat = Connection.flat_connection(n)
        affine_maps = [
            catalog_get("linear", {"dim": n, "A": 2 if n == 1 else [[2, 0], [0, 3]]}),
            catalog_get("translation", {"dim": n, "c": F(1, 2) if n == 1 else [F(1, 2)] * n}),
            catalog_get("affine", {"dim": n, "A": F(-3, 2) if n == 1 else [[1, 1], [0, 1]],
                                   "b": F(1, 8) if n == 1 else [F(1, 8), F(0)]}),
        ]
        for m in affine_maps:
            z = sample_phase(rng, n)
            assert build_L_covariant(m, flat, z).is_zero(), m.name

    moeb = catalog_get("moebius", {"a": 1, "b": 0, "c": 1, "d": 1})
    op = build_L_covariant(moeb, Connection.flat_connection(1), (F(1), F(3)))
    assert not op.is_zero()

    proj = catalog_get("projective", {"dim": 2})
    op2 = build_L_covariant(proj, Connection.flat_connection(2),
                            (F(1, 4), F(-1, 8), F(1, 2), F(1, 3)))
    assert not op2.is_zero()
    announce(6, "affine kernel and fractional-linear nonvanishing", True)


def test_criterion_07_classical_cocycles():
    rng = random.Random(23)
    n = 1
    pool = exact_pool(n)
    pairs = ordered_pairs(pool, 8)[:8]
    assert len(pairs) >= 8

    logv = LogVolumeCocycle()
    ell = ConnectionCompareCocycle(Connection.flat_connection(n))
    der = DeRhamCocycle(Polynomial(1, {(2,): 1, (3,): F(1, 4)}))
    schw = SchwarzianCocycle()
    for f, h in pairs:
        x = regular_base(rng, n, f, h, oriented=True)
        assert logv.residual(f, h, x) < 1e-9
        x = regular_base(rng, n, f, h)
        assert ell.residual(f, h, x) == 0
        assert der.residual(f, h, x) == 0
        assert schw.residual(f, h, x) == 0

    for a, b, c, d in ((1, 0, 1, 1), (2, 1, 1, 1), (3, -1, 1, 2), (1, 1, 0, 1)):
        m = catalog_get("moebius", {"a": a, "b": b, "c": c, "d": d})
        x = regular_base(rng, 1, m, catalog_get("identity"))
        assert schwarzian_1d(m, x) == 0

    det1 = catalog_get("linear", {"dim": 2, "A": [[1, F(1, 2)], [0, 1]]})
    for _ in range(3):
        x = sample_base(rng, 2)
        assert log_volume_cocycle(det1, x) == 0.0
    announce(7, "classical cocycles (volume, connection, potential, 1D third-order)", True)


def test_criterion_08_algebra_cocycles():
    rng = random.Random(29)
    total = 0
    for n in (1, 2):
        entries = {}
        for k in range(n):
            for i in range(n):
                for j in range(i, n):
                    entries[(k, i, j)] = Polynomial(
                        n, {m: F(rng.randint(-3, 3), 8) for m in monomials(n, 2)})
        gamma = Connection.from_polynomials(n, entries)
        for _ in range(5):
            X = VectorField.from_polynomials(
                [Polynomial(n, {m: F(rng.randint(-3, 3), 8) for m in monomials(n, 3)})
                 for _ in range(n)], name="X")
            Y = VectorField.from_polynomials(
                [Polynomial(n, {m: F(rng.randint(-3, 3), 8) for m in monomials(n, 3)})
                 for _ in range(n)], name="Y")
            p = sample_base(rng, n)
            assert algebra_cocycle_residual(lambda Z: divergence_field(Z),
                                            scalar_field_action, X, Y, p) == 0
            assert algebra_cocycle_residual(
                lambda Z: lie_derivative_connection(Z, gamma),
                tensor_lie_derivative, X, Y, p) == 0
            total += 1
    assert total >= 10
    announce(8, f"algebra cocycles exact over {total} random pairs", True)


def test_criterion_09_flat_vey_term():
    rng = random.Random(31)
    for _ in range(6):
        a = Polynomial(2, {m: F(rng.randint(-3, 3), 8) for m in monomials(2, 3)})
        b = Polynomial(2, {m: F(rng.randint(-3, 3), 8) for m in monomials(2, 3)})
        z = sample_phase(rng, 1)
        assert moyal_p3(a, b, z) == -moyal_p3(b, a, z)

    assert moyal_p3(Symbol.monomial(1, (3,)), Polynomial(2, {(3, 0): 1}),
                    (F(0), F(0))) == -36

    for _ in range(6):
        triple = [Polynomial(2, {m: F(rng.randint(-2, 2), 4) for m in monomials(2, 2)})
                  for _ in range(3)]
        z = sample_phase(rng, 1)
        assert chevalley_p3_residual(*triple, z) == 0

    for n in (1, 2):
        for k in (2, 3, 4, 5):
            X = VectorField.from_polynomials(
                [Polynomial(n, {m: F(rng.randint(-3, 3), 8) for m in monomials(n, 3)})
                 for _ in range(n)], name="X")
            mu = [0] * n
            mu[0] = k
            P = Symbol(n, {tuple(mu): Polynomial(
                n, {m: F(rng.randint(-2, 2), 4) for m in monomials(n, 2)})})
            out = vect_embedding_cocycle(X, P, sample_base(rng, n))
            assert out.degree() <= k - 2
    announce(9, "flat third-order star term: antisymmetry, -36, 2-cocycle, degree drop", True)


def test_criterion_10_group_algebra_consistency():
    X = VectorField.from_polynomials([Polynomial(1, {(1,): 1.0})], name="euler")
    rows = group_algebra_consistency(
        X, lambda fmap, p: log_volume_cocycle(fmap, p),
        lambda Z, p: divergence_cocycle(Z, p), 1e-3, [(1.0,), (0.5,), (0.25,)])
    assert all(r["passed"] for r in rows), rows

    Xq = VectorField.from_polynomials([Polynomial(1, {(2,): 1.0})], name="sq")
    rows = group_algebra_consistency(
        Xq, lambda fmap, p: log_volume_cocycle(fmap, p),
        lambda Z, p: divergence_cocycle(Z, p), 1e-3, [(0.5,), (0.75,)])
    assert all(r["passed"] for r in rows), rows
    for r in rows:
        assert float(r["residual_half"]) <= 0.75 * float(r["residual_t"])
    announce(10, "flow derivative of log-volume matches divergence, first order", True)


def test_criterion_11_harness_determinism():
    cfg = dict(dim=1, samples=3, seed=12, suites=("lift", "moyal", "algebra_cocycles"))
    a = run_scenario(ScenarioConfig(**cfg).validate())
    b = run_scenario(ScenarioConfig(**cfg).validate())
    a.pop("timing"), b.pop("timing")
    sa = json.dumps(a, sort_keys=True, indent=2)
    sb = json.dumps(b, sort_keys=True, indent=2)
    assert sa == sb
    assert a["summary"]["pass"]
    announce(11, "byte-identical reports for identical config and seed", True)
