"""Classical and algebra cocycles, the flat trilinear term, verification."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import jetcocycles
from jetcocycles import jets, maps
from jetcocycles.harness import ScenarioConfig, run_scenario
from jetcocycles.jets import Jet, JetShapeError, Polynomial, mat_det
from jetcocycles.maps import CotangentMap, VectorField, catalog_get, suspension
from jetcocycles.geometry import Connection, TensorField21, cocycle_C
from jetcocycles.operators import Symbol
from jetcocycles.cocycles import (
    ConnectionCompareCocycle,
    DeRhamCocycle,
    DomainError,
    LogVolumeCocycle,
    OperatorCocycle,
    PhaseCompareCocycle,
    SabotagedPhaseCompare,
    SchwarzianCocycle,
    algebra_cocycle_residual,
    chevalley_p3_residual,
    derham_cocycle,
    derham_quadrature,
    divergence_cocycle,
    divergence_field,
    group_algebra_consistency,
    lie_derivative_connection,
    log_volume_cocycle,
    moyal_p3,
    run_case,
    scalar_field_action,
    schwarzian_1d,
    suspension_connection,
    suspension_log_volume,
    tensor_lie_derivative,
    vect_embedding_cocycle,
    verify_group_cocycle,
)

F = Fraction


def rand_point(rng, dim, denom=16):
    return tuple(F(rng.randint(-8, 8), denom) for _ in range(dim))


def rand_poly(rng, dim, deg=3, denom=8):
    from jetcocycles.jets import monomials

    terms = {}
    for m in monomials(dim, deg):
        k = rng.randint(-3, 3)
        if k:
            terms[m] = F(k, denom)
    return Polynomial(dim, terms)


def rand_field(rng, dim, tag="X"):
    return VectorField.from_polynomials(
        [rand_poly(rng, dim) for _ in range(dim)], name=tag)


# -- volume distortion -----------------------------------------------------------


def test_log_volume_of_linear_map():
    f = catalog_get("linear", {"dim": 2, "A": [[2, 1], [0, 3]]})
    assert abs(log_volume_cocycle(f, (F(1), F(0))) - math.log(6)) < 1e-12


def test_log_volume_of_cubic():
    f = catalog_get("polynomial_perturbation", {"eps": 1})
    x = F(1, 2)
    assert abs(log_volume_cocycle(f, (x,)) - math.log(1 + 3 * float(x) ** 2)) < 1e-12


def test_log_volume_rejects_orientation_reversal():
    f = catalog_get("linear", {"A": -2})
    with pytest.raises(DomainError):
        log_volume_cocycle(f, (F(0),))


def test_log_volume_cocycle_identity_random():
    rng = random.Random(5)
    cand = LogVolumeCocycle()
    f = catalog_get("polynomial_perturbation", {"eps": F(1, 8)})
    h = catalog_get("moebius", {"a": 2, "b": 1, "c": 1, "d": 1})
    pts = [rand_point(rng, 1) for _ in range(6)]
    rows = verify_group_cocycle(cand, f, h, pts, tol=1e-9)
    assert all(r.passed for r in rows)


# -- connection difference --------------------------------------------------------


def test_ell_affine_flat_zero():
    flat = Connection.flat_connection(1)
    f = catalog_get("affine", {"A": 2, "b": F(1, 4)})
    t = cocycle_C(f, flat)
    assert t.values((F(1, 3),))[0][0][0] == 0


def test_ell_cubic_value():
    flat = Connection.flat_connection(1)
    f = catalog_get("polynomial_perturbation", {"eps": 1})
    x = F(1, 2)
    assert cocycle_C(f, flat).values((x,))[0][0][0] == 6 * x / (1 + 3 * x * x)


def test_ell_twisted_additivity_exact():
    rng = random.Random(11)
    cand = ConnectionCompareCocycle(Connection.flat_connection(1))
    f = catalog_get("moebius", {"a": 1, "b": 0, "c": 1, "d": 1})
    h = catalog_get("polynomial_perturbation", {"eps": F(1, 8)})
    pts = [rand_point(rng, 1) for _ in range(6)]
    rows = verify_group_cocycle(cand, f, h, pts, tol=0)
    assert all(r.passed and r.residual == 0 for r in rows)


# -- potential difference ----------------------------------------------------------


def test_derham_identity_map():
    phi = Polynomial(1, {(2,): 1})
    ident = catalog_get("identity")
    assert derham_cocycle(phi, ident, (F(1, 3),)) == 0


def test_derham_shift_example():
    phi = Polynomial(1, {(2,): 1})
    f = catalog_get("translation", {"c": 1})
    assert derham_cocycle(phi, f, (F(0),)) == 1


def test_derham_cocycle_identity_random():
    rng = random.Random(13)
    phi = rand_poly(rng, 2, 3)
    cand = DeRhamCocycle(phi)
    f = catalog_get("projective", {"dim": 2})
    h = catalog_get("polynomial_perturbation", {"dim": 2, "eps": F(1, 8)})
    pts = [rand_point(rng, 2) for _ in range(6)]
    rows = verify_group_cocycle(cand, f, h, pts, tol=0)
    assert all(r.passed and r.residual == 0 for r in rows)


def test_derham_quadrature_matches_difference():
    rng = random.Random(17)
    phi = rand_poly(rng, 2, 3)
    f = catalog_get("polynomial_perturbation", {"dim": 2, "eps": F(1, 8)})
    for _ in range(4):
        x = rand_point(rng, 2)
        exact = float(derham_cocycle(phi, f, x))
        quad = derham_quadrature(phi, f, x)
        assert abs(exact - quad) < 1e-12


@pytest.mark.parametrize("n, name, params", [
    (n, name, {"eps": F(1, 8)} if name == "polynomial_perturbation" else {})
    for n in (1, 2, 3) for name in ("polynomial_perturbation", "projective")
] + [(3, "affine", {"A": [[2, 1, 0], [0, 1, 0], [1, 0, 1]], "b": [F(1, 2), 0, -1]})])
def test_derham_quadrature_equals_difference_exactly(n, name, params):
    rng = random.Random(19 + n)
    phi = rand_poly(rng, n, 3)
    f = catalog_get(name, {"dim": n, **params})
    for _ in range(3):
        x = rand_point(rng, n)
        assert derham_quadrature(phi, f, x) == derham_cocycle(phi, f, x)


# -- 1D third-order distortion ------------------------------------------------------


def test_schwarzian_affine_zero():
    f = catalog_get("affine", {"A": F(7, 2), "b": F(-1, 3)})
    assert schwarzian_1d(f, (F(1, 4),)) == 0


def test_schwarzian_vanishes_on_fractional_linear():
    rng = random.Random(19)
    for _ in range(8):
        a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
        if a * d - b * c == 0:
            continue
        m = catalog_get("moebius", {"a": a, "b": b, "c": c, "d": d})
        x = rand_point(rng, 1)
        try:
            val = schwarzian_1d(m, x)
        except Exception:
            continue
        assert val == 0


@pytest.mark.parametrize("name", ["polynomial_perturbation", "moebius"])
def test_schwarzian_matches_sympy(name):
    # S(f) = f'''/f' - 3/2 (f''/f')^2 from sympy's derivatives of the
    # family's definition
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")
    if name == "moebius":
        params = {"a": 2, "b": 1, "c": F(1, 2), "d": 3}
        expr = (2 * x + 1) / (sp.Rational(1, 2) * x + 3)
    else:
        params = {"eps": F(1, 5)}
        expr = x + sp.Rational(1, 5) * x ** 3
    d1, d2, d3 = (sp.diff(expr, x, k) for k in (1, 2, 3))
    s = d3 / d1 - sp.Rational(3, 2) * (d2 / d1) ** 2
    f = catalog_get(name, params)
    for point in (F(1, 3), F(-5, 7)):
        want = s.subs(x, sp.Rational(point.numerator, point.denominator))
        assert schwarzian_1d(f, (point,)) == F(int(want.p), int(want.q)), point


def test_schwarzian_of_exponential():
    e = catalog_get("exp_scale", {"lam": 1.0})
    for x in (0.0, 0.7, -1.2):
        assert abs(schwarzian_1d(e, (x,)) + 0.5) < 1e-12


def test_schwarzian_critical_point():
    from jetcocycles.maps import DiffeoMap
    from jetcocycles.jets import Jet

    flatline = DiffeoMap(1, lambda p, o: [Jet.constant(1, o, p[0])], name="stuck")
    with pytest.raises(DomainError):
        schwarzian_1d(flatline, (F(0),))


def test_schwarzian_cocycle_identity_exact():
    rng = random.Random(23)
    cand = SchwarzianCocycle()
    f = catalog_get("moebius", {"a": 2, "b": 1, "c": 1, "d": 1})
    h = catalog_get("polynomial_perturbation", {"eps": F(1, 8)})
    pts = [rand_point(rng, 1) for _ in range(6)]
    rows = verify_group_cocycle(cand, f, h, pts, tol=0)
    assert all(r.passed and r.residual == 0 for r in rows)


# -- algebra level -------------------------------------------------------------------


def test_divergence_of_constant_field():
    X = VectorField.from_polynomials([Polynomial.constant(1, F(3, 4))])
    assert divergence_cocycle(X, (F(1, 2),)) == 0


def test_divergence_of_euler_field():
    X = VectorField.from_polynomials([Polynomial.coordinate(1, 0)])
    assert divergence_cocycle(X, (F(1, 2),)) == 1


def test_divergence_algebra_identity_random():
    rng = random.Random(29)
    for n in (1, 2):
        for _ in range(6):
            X, Y = rand_field(rng, n, "X"), rand_field(rng, n, "Y")
            p = rand_point(rng, n)
            r = algebra_cocycle_residual(lambda Z: divergence_field(Z),
                                         scalar_field_action, X, Y, p)
            assert r == 0


def test_lie_derivative_connection_values():
    flat = Connection.flat_connection(1)
    Xc = VectorField.from_polynomials([Polynomial.constant(1, F(2))])
    assert lie_derivative_connection(Xc, flat).values((F(1, 3),))[0][0][0] == 0
    Xq = VectorField.from_polynomials([Polynomial(1, {(2,): 1})])
    assert lie_derivative_connection(Xq, flat).values((F(1, 3),))[0][0][0] == 2


def test_lie_derivative_connection_matches_sympy():
    # X^a d_a G^k_ij - d_a X^k G^a_ij + d_i X^a G^k_aj + d_j X^a G^k_ia
    # + d_i d_j X^k, differentiated by sympy
    sp = pytest.importorskip("sympy")
    field_terms = [
        {(2, 0): 1, (0, 1): F(1, 3), (1, 2): F(-1, 2)},
        {(0, 0): F(1, 4), (1, 1): 1, (0, 3): F(2, 5)},
    ]
    gamma_terms = {
        (0, 0, 0): {(0, 1): 1},
        (1, 0, 1): {(2, 0): F(1, 2), (0, 0): F(1, 3)},
        (0, 1, 1): {(1, 1): 1, (0, 0): F(-1, 4)},
    }
    X = VectorField.from_polynomials([Polynomial(2, t) for t in field_terms])
    gamma = Connection.from_polynomials(
        2, {kij: Polynomial(2, t) for kij, t in gamma_terms.items()})
    point = (F(2, 7), F(-3, 4))
    got = lie_derivative_connection(X, gamma).values(point)

    x = sp.symbols("x0 x1")

    def expr(terms):
        return sum(sp.Rational(F(c).numerator, F(c).denominator) * x[0] ** m[0] * x[1] ** m[1]
                   for m, c in terms.items())

    xs = [expr(t) for t in field_terms]
    g = [[[sp.Integer(0)] * 2 for _ in range(2)] for _ in range(2)]
    for (k, i, j), t in gamma_terms.items():
        g[k][i][j] = g[k][j][i] = expr(t)
    at = {x[0]: sp.Rational(2, 7), x[1]: sp.Rational(-3, 4)}
    for k in range(2):
        for i in range(2):
            for j in range(2):
                want = sp.diff(xs[k], x[i], x[j]) + sum(
                    xs[a] * sp.diff(g[k][i][j], x[a])
                    - sp.diff(xs[k], x[a]) * g[a][i][j]
                    + sp.diff(xs[a], x[i]) * g[k][a][j]
                    + sp.diff(xs[a], x[j]) * g[k][i][a]
                    for a in range(2))
                want = want.subs(at)
                assert want.is_Rational
                assert got[k][i][j] == F(int(want.p), int(want.q)), (k, i, j)


def test_tensor_lie_derivative_of_nonsymmetric_tensor_matches_sympy():
    # X^a d_a T^k_ij - d_a X^k T^a_ij + d_i X^a T^k_aj + d_j X^a T^k_ia for a
    # tensor with T^k_01 != T^k_10, compared with sympy through first order;
    # then for a tensor declared symmetric, whose derivative mirrors i > j
    sp = pytest.importorskip("sympy")
    rng = random.Random(53)
    X = rand_field(rng, 2)
    x = sp.symbols("x0 x1")

    def expr(poly):
        return sum(sp.Rational(c.numerator, c.denominator) * x[0] ** m[0] * x[1] ** m[1]
                   for m, c in poly.terms.items())

    xs = [expr(c) for c in X.components]
    point = (F(2, 7), F(-3, 4))
    at = {x[0]: sp.Rational(2, 7), x[1]: sp.Rational(-3, 4)}
    for symmetric in (False, True):
        t_polys = [[[rand_poly(rng, 2, 2) for _ in range(2)] for _ in range(2)]
                   for _ in range(2)]
        if symmetric:
            for plane in t_polys:
                plane[1][0] = plane[0][1]
        assert (t_polys[0][0][1].terms == t_polys[0][1][0].terms) == symmetric
        tensor = TensorField21(2, lambda p, order: [[[t.jet(p, order) for t in row]
                                                     for row in plane] for plane in t_polys],
                               symmetric=symmetric)
        acted = tensor_lie_derivative(X, tensor)
        assert acted.symmetric == symmetric
        got = acted.components(point, 1)
        t = [[[expr(e) for e in row] for row in plane] for plane in t_polys]
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    want = sum(xs[a] * sp.diff(t[k][i][j], x[a])
                               - sp.diff(xs[k], x[a]) * t[a][i][j]
                               + sp.diff(xs[a], x[i]) * t[k][a][j]
                               + sp.diff(xs[a], x[j]) * t[k][i][a]
                               for a in range(2))
                    for m, c in zip(((0, 0), (0, 1), (1, 0)), got[k][i][j].coeffs):
                        w = sp.diff(want, x[0], m[0], x[1], m[1]).subs(at)
                        assert c == F(int(w.p), int(w.q)), (symmetric, k, i, j, m)


def test_lie_derivative_of_connection_computes_each_symmetric_pair_once(jet_products):
    # 18 distinct (k, i <= j) components at dim 3, each with 4 products per
    # summation index: 216, where all 27 components would make 324
    rng = random.Random(59)
    X = rand_field(rng, 3)
    gamma = Connection.from_polynomials(
        3, {(k, i, j): rand_poly(rng, 3, 2) for k in range(3) for i in range(3)
            for j in range(i, 3)})
    comps = lie_derivative_connection(X, gamma).components(rand_point(rng, 3), 1)
    assert sum(isinstance(o, Jet) for o in jet_products) <= 216
    assert all(comps[k][i][j] == comps[k][j][i]
               for k in range(3) for i in range(3) for j in range(3))


def test_lie_derivative_of_a_symmetric_tensor_computes_each_symmetric_pair_once(jet_products):
    # 18 distinct (k, i <= j) components at dim 3, each with 4 products per
    # summation index: 216, where all 27 components would make 324
    rng = random.Random(67)
    X = rand_field(rng, 3)
    t_polys = [[[None] * 3 for _ in range(3)] for _ in range(3)]
    for k in range(3):
        for i in range(3):
            for j in range(i, 3):
                t_polys[k][i][j] = t_polys[k][j][i] = rand_poly(rng, 3, 2)
    tensor = TensorField21(3, lambda p, order: [[[t.jet(p, order) for t in row]
                                                 for row in plane] for plane in t_polys],
                           symmetric=True)
    acted = tensor_lie_derivative(X, tensor)
    assert acted.symmetric
    comps = acted.components(rand_point(rng, 3), 1)
    assert sum(isinstance(o, Jet) for o in jet_products) <= 216
    assert all(comps[k][i][j] == comps[k][j][i]
               for k in range(3) for i in range(3) for j in range(3))


def test_lie_derivative_and_p3_take_no_partial_of_a_zero_jet(zero_jet_partials):
    rng = random.Random(61)
    X = VectorField.from_polynomials(
        [rand_poly(rng, 2), Polynomial(2, {(1, 0): F(1, 2)})], name="sparse")
    p = rand_point(rng, 2)
    comps = lie_derivative_connection(X, Connection.flat_connection(2)).components(p, 1)
    assert comps[1][0][0].is_zero() and not comps[0][0][0].is_zero()
    F3 = Polynomial(4, {(3, 0, 0, 0): 1, (0, 1, 0, 2): F(1, 2)})
    G3 = Polynomial(4, {(0, 0, 3, 0): F(1, 3), (1, 0, 1, 1): 2})
    assert moyal_p3(F3, G3, (F(1, 2), 0, F(1, 4), F(-1, 2)), order=1)
    # p3 of quadratics is identically zero, so each bracket with it has a zero side
    quadratics = [Polynomial(2, {(2, 0): 1, (1, 1): F(1, 2)}),
                  Polynomial(2, {(0, 2): F(1, 3), (1, 0): 2}),
                  Polynomial(2, {(1, 1): -1, (2, 0): F(1, 4), (0, 0): 3})]
    assert chevalley_p3_residual(*quadratics, (F(1, 2), F(-1, 4))) == 0
    assert zero_jet_partials == []


def test_lie_derivative_connection_algebra_identity_random():
    rng = random.Random(31)
    for n in (1, 2):
        gamma_entries = {}
        for k in range(n):
            for i in range(n):
                for j in range(i, n):
                    gamma_entries[(k, i, j)] = rand_poly(rng, n, 2)
        gamma = Connection.from_polynomials(n, gamma_entries)
        for _ in range(6):
            X, Y = rand_field(rng, n, "X"), rand_field(rng, n, "Y")
            p = rand_point(rng, n)
            r = algebra_cocycle_residual(
                lambda Z: lie_derivative_connection(Z, gamma),
                tensor_lie_derivative, X, Y, p)
            assert r == 0


# -- flat trilinear term ---------------------------------------------------------------


def test_p3_zero_on_low_degree():
    a = Polynomial(2, {(1, 1): 1, (2, 0): F(1, 2)})
    b = Polynomial(2, {(0, 2): 1})
    assert moyal_p3(a, b, (F(1, 3), F(-1, 2))) == 0


def test_p3_worked_value():
    Fs = Symbol.monomial(1, (3,))
    G = Polynomial(2, {(3, 0): 1})
    assert moyal_p3(Fs, G, (F(0), F(0))) == -36


def test_p3_antisymmetric_random():
    rng = random.Random(37)
    for n in (1, 2):
        for _ in range(5):
            a, b = rand_poly(rng, 2 * n, 3), rand_poly(rng, 2 * n, 3)
            z = rand_point(rng, 2 * n)
            assert moyal_p3(a, b, z) == -moyal_p3(b, a, z)


@pytest.mark.parametrize("d", [2, 4, 6])
def test_p3_matches_a_sympy_sum_over_all_ordered_triples(d):
    # sum over every ordered (i, j, k) of pi^i pi^j pi^k d_ijk F d_i'j'k' G,
    # with i' = (i + n) % d and pi = +1 on a base slot, -1 on a fiber slot,
    # all differentiated by sympy; checked as a value and as an order-1 jet
    sp = pytest.importorskip("sympy")
    rng = random.Random(71 + d)
    n = d // 2
    x = sp.symbols(f"x0:{d}")
    exponents = [m for m in itertools.product(range(5), repeat=d) if 3 <= sum(m) <= 4]

    def sparse_terms():
        return {m: F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 4, 8]))
                for m in rng.sample(exponents, 8)}

    def expr(terms):
        return sum(sp.Rational(c.numerator, c.denominator) * sp.Mul(*[v ** e for v, e in zip(x, m)])
                   for m, c in terms.items())

    f_terms, g_terms = sparse_terms(), sparse_terms()
    fe, ge = expr(f_terms), expr(g_terms)
    sign = [1] * n + [-1] * n
    partner = [(i + n) % d for i in range(d)]
    want = sum(sign[i] * sign[j] * sign[k] * sp.diff(fe, x[i], x[j], x[k])
               * sp.diff(ge, x[partner[i]], x[partner[j]], x[partner[k]])
               for i, j, k in itertools.product(range(d), repeat=3))
    point = tuple(F(rng.choice([-3, -1, 1, 2, 5]), rng.choice([2, 3, 4])) for _ in range(d))
    at = {v: sp.Rational(c.numerator, c.denominator) for v, c in zip(x, point)}

    def rational(e):
        e = e.subs(at)
        assert e.is_Rational
        return F(int(e.p), int(e.q))

    Fp, Gp = Polynomial(d, f_terms), Polynomial(d, g_terms)
    value = moyal_p3(Fp, Gp, point)
    assert value == rational(want)
    jet = moyal_p3(Fp, Gp, point, order=1)
    assert jet.value == value
    for a in range(d):
        unit = tuple(1 if b == a else 0 for b in range(d))
        assert jet.coefficient(unit) == rational(sp.diff(want, x[a])), a
    assert any(jet.coeffs[1:])  # the first-order slots are not all zero


def test_p3_two_cocycle_identity_exact():
    rng = random.Random(41)
    for _ in range(6):
        a = rand_poly(rng, 2, 2)
        b = rand_poly(rng, 2, 2)
        c = rand_poly(rng, 2, 2)
        z = rand_point(rng, 2)
        assert chevalley_p3_residual(a, b, c, z) == 0


def brute_force_p3(Fp, Gp, point):
    """Independent contraction oracle with explicit polynomial partials."""
    n = len(point) // 2
    d = 2 * n

    def third(poly, i, j, k):
        return poly.partial(i).partial(j).partial(k)(point)

    def sigma(i):
        return i + n if i < n else i - n

    def sgn(i):
        return 1 if i < n else -1

    total = 0
    for i in range(d):
        for j in range(d):
            for k in range(d):
                a = third(Fp, i, j, k)
                if a == 0:
                    continue
                b = third(Gp, sigma(i), sigma(j), sigma(k))
                total += sgn(i) * sgn(j) * sgn(k) * a * b
    return total


def test_embedding_matches_brute_force_contraction():
    # X = x^3 d_x against the symbol x xi^2: hand contraction gives -36 x
    X = VectorField.from_polynomials([Polynomial(1, {(3,): 1})], name="cubic")
    P = Symbol(1, {(2,): Polynomial.coordinate(1, 0)})
    x0 = F(1, 2)
    out = vect_embedding_cocycle(X, P, (x0,))
    assert out.degree() == 0
    got = out.coefficient_value((0,), (x0,))
    Fp = Polynomial(2, {(3, 1): 1})      # x^3 xi
    Gp = Polynomial(2, {(1, 2): 1})      # x xi^2
    assert got == brute_force_p3(Fp, Gp, (x0, F(0))) == -36 * x0


def test_embedding_zero_for_constant_field():
    X = VectorField.from_polynomials([Polynomial.constant(1, F(1, 2))])
    P = Symbol.monomial(1, (4,))
    out = vect_embedding_cocycle(X, P, (F(1, 3),))
    assert out.degree() == -1


def test_embedding_rejects_a_bracket():
    X = VectorField.from_polynomials([Polynomial(1, {(2,): 1})], name="sq")
    Y = VectorField.from_polynomials([Polynomial.coordinate(1, 0)], name="euler")
    with pytest.raises(JetShapeError, match="^polynomial vector fields expected$"):
        vect_embedding_cocycle(X.bracket(Y), Symbol.monomial(1, (3,)), (F(1, 3),))


def test_embedding_degree_bound_random():
    rng = random.Random(43)
    for n in (1, 2):
        for k in (2, 3, 4, 5):
            X = rand_field(rng, n)
            mu = [0] * n
            mu[0] = k
            P = Symbol(n, {tuple(mu): rand_poly(rng, n, 2)})
            out = vect_embedding_cocycle(X, P, rand_point(rng, n))
            assert out.degree() <= k - 2


# -- verification engine ----------------------------------------------------------------


def test_operator_cocycle_engine_random_pair():
    cand = OperatorCocycle(Connection.flat_connection(1))
    f = catalog_get("moebius", {"a": 1, "b": 0, "c": 1, "d": 1})
    h = catalog_get("polynomial_perturbation", {"eps": F(1, 4)})
    rows = verify_group_cocycle(cand, f, h, [(F(1, 5), F(-1, 2)), (F(1, 4), F(1, 3))], tol=0)
    assert all(r.passed and r.residual == 0 for r in rows)


def test_engine_identity_pair_trivial():
    cand = PhaseCompareCocycle(Connection.flat_connection(1))
    ident = catalog_get("identity")
    rows = verify_group_cocycle(cand, ident, ident, [(F(1, 4), F(1, 2))], tol=0)
    assert rows[0].passed and rows[0].residual == 0


def test_engine_detects_sabotaged_convention():
    good = PhaseCompareCocycle(Connection.flat_connection(1))
    bad = SabotagedPhaseCompare(Connection.flat_connection(1))
    f = catalog_get("polynomial_perturbation", {"eps": F(1, 4)})
    h = catalog_get("moebius", {"a": 1, "b": 0, "c": 1, "d": 1})
    z = (F(1, 4), F(1, 2))
    assert good.residual(f, h, z) == 0
    assert bad.residual(f, h, z) != 0


class TransposeLift(CotangentMap):
    """A lift whose J^-1 is the plain transpose, right for orthogonal J only."""

    def jacobian_inverse(self, jac):
        return [list(col) for col in zip(*jac)]


def test_engine_detects_a_lift_inverse_by_plain_transpose(monkeypatch):
    def failing(suite):
        cfg = ScenarioConfig(dim=1, samples=1, seed=1, suites=(suite,)).validate()
        return [c["case_id"] for c in run_scenario(cfg)["cases"]
                if c["case_id"].startswith(suite + "[") and not c["pass"]]

    assert failing("cocycle_C") == failing("operator_L") == []
    monkeypatch.setattr(maps, "CotangentMap", TransposeLift)
    assert failing("cocycle_C") and failing("operator_L")


def test_engine_records_errors_per_point():
    cand = LogVolumeCocycle()
    f = catalog_get("moebius", {"a": 1, "b": 0, "c": 1, "d": 1})
    h = catalog_get("moebius", {"a": 1, "b": 0, "c": 1, "d": 1})
    # second point sits on the pole of the inner map
    rows = verify_group_cocycle(cand, f, h, [(F(1, 2),), (F(-1),)], tol=1e-9)
    assert rows[0].passed
    assert not rows[1].passed and rows[1].error is not None


class _BrokenResidual(LogVolumeCocycle):
    name = "broken"

    def residual(self, f, h, point):
        raise NameError("name 'undefined_helper' is not defined")


class _ShapeBugResidual(LogVolumeCocycle):
    name = "shape_bug"

    def residual(self, f, h, point):
        raise JetShapeError("jet shape mismatch")


def test_engine_propagates_programming_errors():
    ident = catalog_get("identity")
    for cand, err in ((_BrokenResidual(), NameError), (_ShapeBugResidual(), JetShapeError)):
        with pytest.raises(err):
            verify_group_cocycle(cand, ident, ident, [(F(1, 2),)], tol=0)


@pytest.mark.parametrize("tol", [0, 1e-8])
def test_run_case_witness_passes_iff_residual_nonzero(tol):
    for r, nonzero in ((0, False), (F(1, 3), True), (0.0, False), (1e-3, True),
                       (float("nan"), False)):
        plain = run_case("s", "c", [], (F(0),), lambda: r, tol)
        witness = run_case("s", "w", [], (F(0),), lambda: r, tol, witness=True)
        assert witness.witness and not plain.witness
        assert witness.passed is nonzero, r
        assert plain.passed is (r == 0), r
    # at a float tolerance a nonzero residual below it witnesses nothing
    assert run_case("s", "w", [], (0.0,), lambda: 1e-12, 1e-8, witness=True).passed is False


def test_run_case_records_bad_point_as_error_row():
    row = run_case("s", "c", ["m"], (F(1, 2),), lambda: 1 / 0, 0)
    assert row.residual is None and not row.passed
    assert row.error.startswith("ZeroDivisionError")
    assert row.as_record()["maps"] == ["m"] and row.as_record()["point"] == ["1/2"]
    # a point outside a cocycle's domain is a bad point too; the one class
    # is defined in jets, next to the other bad-point errors
    assert DomainError is jets.DomainError is jetcocycles.DomainError
    assert DomainError in jets.BAD_POINT_ERRORS and ValueError not in jets.BAD_POINT_ERRORS
    f = catalog_get("linear", {"A": -1})
    row = run_case("s", "c", [f.name], (F(1, 2),), lambda: log_volume_cocycle(f, (F(1, 2),)), 0)
    assert row.error.startswith("DomainError: linear: det Df = -1 is not positive")


def test_run_case_propagates_errors_other_than_bad_points():
    for err in (JetShapeError("jet shape mismatch"), ValueError("bug in a residual")):
        def bug():
            raise err

        with pytest.raises(type(err), match=str(err)):
            run_case("s", "c", [], (F(0),), bug, 0)


def test_bridge_propagates_programming_errors():
    X = VectorField.from_polynomials([Polynomial(1, {(1,): 1.0})], name="euler")

    def broken(Z, p):
        raise NameError("name 'undefined_helper' is not defined")

    with pytest.raises(NameError):
        group_algebra_consistency(X, lambda fmap, p: log_volume_cocycle(fmap, p),
                                  broken, 1e-3, [(0.5,)])
    # a bad point is still recorded, not fatal
    rows = group_algebra_consistency(X, lambda fmap, p: log_volume_cocycle(fmap, p),
                                     lambda Z, p: 1 / 0, 1e-3, [(0.5,)])
    assert not rows[0]["passed"] and rows[0]["error"].startswith("ZeroDivisionError")


# -- group <-> algebra: exact, along the suspension ------------------------------------


def _eps_slot_residuals(X, p, sign=1, transpose=False, slot=None):
    """Log-volume and connection residuals of the suspension check, built
    from the public pieces so that each can be broken on purpose: ``sign``
    scales the algebra side, ``transpose`` reads it as alg[i][k][j], and
    ``slot`` reads another variable's coefficient in place of eps."""
    n = X.dim
    z = tuple(p) + (0,)
    slot = n if slot is None else slot
    unit = tuple(1 if a == slot else 0 for a in range(n + 1))
    sj = suspension(X).eval_jet(z, 2)
    det = mat_det([[c.partial(j) for j in range(n + 1)] for c in sj])
    comps = cocycle_C(suspension(X), Connection.flat_connection(n + 1)).components(z, 1)
    alg = lie_derivative_connection(X, Connection.flat_connection(n)).values(p)
    logvol = abs(det.coefficient(unit) - sign * divergence_cocycle(X, p))
    ell = max(abs(comps[k][i][j].coefficient(unit)
                  - sign * (alg[i][k][j] if transpose else alg[k][i][j]))
              for k in range(n) for i in range(n) for j in range(n))
    return logvol, ell


@pytest.mark.parametrize("n", [1, 2, 3])
def test_suspension_residuals_are_exactly_zero(n):
    rng = random.Random(83 + n)
    flat = Connection.flat_connection(n)
    for idx in range(3):
        X = rand_field(rng, n, f"X{idx}")
        p = rand_point(rng, n)
        assert suspension_log_volume(X, p) == divergence_cocycle(X, p)
        assert suspension_connection(X, p) == lie_derivative_connection(X, flat).values(p)
        assert _eps_slot_residuals(X, p) == (0, 0)


@pytest.mark.parametrize("mutation, dims, broken", [
    ({"sign": -1}, (1, 2, 3), (True, True)),
    ({"transpose": True}, (2, 3), (False, True)),
    ({"slot": 0}, (1, 2, 3), (True, True)),
])
def test_suspension_residuals_see_a_broken_check(mutation, dims, broken):
    for n in dims:
        rng = random.Random(89 + n)
        X = rand_field(rng, n)
        p = rand_point(rng, n)
        got = _eps_slot_residuals(X, p, **mutation)
        assert tuple(r != 0 for r in got) == broken, (n, got)


def test_suspension_jets_are_x_plus_eps_field():
    X = VectorField.from_polynomials([Polynomial(1, {(2,): F(1, 2)})], name="half_sq")
    x, eps = Jet.variable(2, 3, 0, F(1, 3)), Jet.variable(2, 3, 1)
    sx, se = suspension(X).eval_jet((F(1, 3), 0), 3)
    assert sx == x + eps * x * x * F(1, 2) and se == eps


# -- group <-> algebra bridge along flows (library helper) ------------------------------


def test_bridge_log_volume_divergence_euler():
    X = VectorField.from_polynomials([Polynomial(1, {(1,): 1.0})], name="euler")
    rows = group_algebra_consistency(
        X, lambda fmap, p: log_volume_cocycle(fmap, p),
        lambda Z, p: divergence_cocycle(Z, p), 1e-3, [(1.0,), (0.25,)])
    assert all(r["passed"] for r in rows)


def test_bridge_quadratic_field_first_order_band():
    X = VectorField.from_polynomials([Polynomial(1, {(2,): 1.0})], name="sq")
    rows = group_algebra_consistency(
        X, lambda fmap, p: log_volume_cocycle(fmap, p),
        lambda Z, p: divergence_cocycle(Z, p), 1e-3, [(0.5,)])
    (row,) = rows
    assert row["passed"]
    # genuine first-order convergence: halving t roughly halves the residual
    assert float(row["residual_half"]) < 0.75 * float(row["residual_t"])


def test_bridge_zero_field():
    X = VectorField.from_polynomials([Polynomial.constant(1, 0.0)], name="zero")
    rows = group_algebra_consistency(
        X, lambda fmap, p: log_volume_cocycle(fmap, p),
        lambda Z, p: divergence_cocycle(Z, p), 1e-3, [(0.5,)])
    assert rows[0]["passed"]


def test_bridge_connection_difference_vs_lie_derivative():
    flat = Connection.flat_connection(1)
    X = VectorField.from_polynomials([Polynomial(1, {(2,): 1.0})], name="sq")
    rows = group_algebra_consistency(
        X,
        lambda fmap, p: cocycle_C(fmap, flat).values(p),
        lambda Z, p: lie_derivative_connection(Z, flat).values(p),
        1e-3, [(0.25,)])
    assert rows[0]["passed"]
