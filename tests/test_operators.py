"""The three operator builders, their agreement, applications and actions."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from jetcocycles.jets import (EvaluationError, Jet, JetShapeError, Polynomial, jet_compose,
                              jet_invert, monomials)
from jetcocycles.maps import catalog_get, compose, cotangent_lift
from jetcocycles.geometry import Connection
from jetcocycles.operators import (
    LocalDiffOp,
    Symbol,
    act_on_function,
    act_on_operator,
    apply_op,
    apply_op_to_symbol,
    build_L_coordinate,
    build_L_covariant,
    build_L_flat,
)

F = Fraction
FLAT1 = Connection.flat_connection(1)
FLAT2 = Connection.flat_connection(2)


def rand_point(rng, dim, denom=16):
    return tuple(F(rng.randint(-8, 8), denom) for _ in range(dim))


def pool(n):
    if n == 1:
        return [
            catalog_get("moebius", {"a": 1, "b": 0, "c": 1, "d": 1}),
            catalog_get("moebius", {"a": 2, "b": 1, "c": 1, "d": 1}),
            catalog_get("polynomial_perturbation", {"eps": F(1, 8)}),
            catalog_get("projective", {"dim": 1}),
        ]
    return [
        catalog_get("projective", {"dim": n}),
        catalog_get("polynomial_perturbation", {"dim": n, "eps": F(1, 8)}),
    ]


# -- worked values -------------------------------------------------------------


def test_flat_builder_cubic_at_origin():
    f = catalog_get("polynomial_perturbation", {"eps": 1})
    op = build_L_flat(f, (F(0), F(1)))
    assert op.coeffs == {(0, 3): -6}


def test_builders_zero_on_translations_and_affine():
    flat = FLAT1
    for spec in (("translation", {"c": F(1, 2)}),
                 ("linear", {"A": 3}),
                 ("affine", {"A": F(-3, 2), "b": F(1, 4)})):
        m = catalog_get(spec[0], spec[1])
        z = (F(1, 5), F(2))
        assert build_L_flat(m, z).is_zero()
        assert build_L_coordinate(m, flat, z).is_zero()
        assert build_L_covariant(m, flat, z).is_zero()


def test_moebius_operator_nonzero():
    m = catalog_get("moebius", {"a": 1, "b": 0, "c": 1, "d": 1})
    op = build_L_flat(m, (F(1), F(3)))
    assert not op.is_zero()


def test_flat_coefficients_from_map_derivatives():
    # one dimension: the three groups reduce to 3 f''/f', 3 (f''/f')^2 and
    # xi/f' (3 f''^2/f' - f''')
    f = catalog_get("polynomial_perturbation", {"eps": 1})
    x, xi = F(1, 3), F(-2)
    j = f.eval_jet((x,), 3)[0]
    f1, f2, f3 = j.coefficient((1,)), 2 * j.coefficient((2,)), 6 * j.coefficient((3,))
    op = build_L_flat(f, (x, xi))
    assert op.coeffs[(1, 2)] == 3 * f2 / f1
    assert op.coeffs[(0, 2)] == 3 * (f2 / f1) ** 2
    assert op.coeffs[(0, 3)] == xi / f1 * (3 * f2 * f2 / f1 - f3)


# -- an independent oracle for the flat formula ---------------------------------


def sympy_maps(sp, xs):
    """Default exact pool maps as sympy expressions, written from the catalog
    definitions: (name, params, components)."""
    n = len(xs)
    eighth, quarter = sp.Rational(1, 8), sp.Rational(1, 4)
    if n == 1:
        x, = xs
        return [("polynomial_perturbation", {"eps": F(1, 8)}, [x + eighth * x**3]),
                ("projective", {}, [(x + quarter) / (quarter * x + 1)]),
                ("moebius", {"a": 1, "b": 0, "c": 1, "d": 1}, [x / (x + 1)]),
                ("moebius", {"a": 2, "b": 1, "c": 1, "d": 1}, [(2 * x + 1) / (x + 1)])]
    den = quarter * xs[0] + 1
    return [("polynomial_perturbation", {"eps": F(1, 8)},
             [xs[i] + eighth * (xs[i] + xs[(i + 1) % n])**3 for i in range(n)]),
            ("projective", {},
             [(xs[0] + quarter) / den] + [xs[i] / den for i in range(1, n)])]


def sympy_flat_operator(sp, fs, xs, xis):
    """build_L_flat's three groups in sympy: {phase multi-index: coefficient
    as a function of (x, xi)}."""
    n = len(xs)
    jinv = sp.Matrix(n, n, lambda a, i: sp.diff(fs[a], xs[i])).inv()
    f2 = [[[sp.diff(fs[p], xs[i], xs[j]) for j in range(n)] for i in range(n)] for p in range(n)]
    table = {}

    def add(slots, value):
        m = tuple(slots.count(a) for a in range(2 * n))
        table[m] = table.get(m, 0) + value

    for i in range(n):
        for j in range(n):
            for k in range(n):
                add((i, n + j, n + k), 3 * sum(jinv[i, p] * f2[p][j][k] for p in range(n)))
                add((n + i, n + j, n + k), sum(
                    sum(jinv[m, q] * xis[m] for m in range(n))
                    * (3 * sum(jinv[l, p] * f2[p][i][j] * f2[q][l][k]
                               for l in range(n) for p in range(n))
                       - sp.diff(fs[q], xs[i], xs[j], xs[k]))
                    for q in range(n)))
            add((n + i, n + j), 3 * sum(f2[k][q][i] * jinv[m, k] * f2[l][j][m] * jinv[q, l]
                                        for q in range(n) for k in range(n)
                                        for m in range(n) for l in range(n)))
    return table


@pytest.mark.parametrize("n", [1, 2])
def test_flat_builder_matches_sympy_transcription(n):
    # sympy differentiates and inverts the Jacobian; no jet arithmetic here
    sp = pytest.importorskip("sympy")
    xs, xis = sp.symbols(f"x0:{n}"), sp.symbols(f"xi0:{n}")
    points = [(F(1, 4), F(-1, 3))[:n] + (F(2, 3), F(-1, 2))[:n],
              (F(-1, 8), F(1, 6))[:n] + (F(5, 4), F(3, 7))[:n]]
    for name, params, fs in sympy_maps(sp, xs):
        f = catalog_get(name, dict(params, dim=n))
        table = sympy_flat_operator(sp, fs, xs, xis)
        for z in points:
            subs = dict(zip(xs + xis, (sp.Rational(c.numerator, c.denominator) for c in z)))
            expect = {m: sp.simplify(c.subs(subs)) for m, c in table.items()}
            expect = {m: F(int(v.p), int(v.q)) for m, v in expect.items() if v != 0}
            assert build_L_flat(f, z).coeffs == expect, (name, z)


def test_cubic_worked_value_derived_in_sympy():
    # x -> x + x^3 at x = 0: the flat operator sends xi^3 to -36 xi
    sp = pytest.importorskip("sympy")
    x, xi = sp.symbols("x xi")
    table = sympy_flat_operator(sp, [x + x**3], (x,), (xi,))
    p = xi**3
    out = sum(c * sp.diff(p, *([x] * m[0] + [xi] * m[1])) for m, c in table.items())
    assert sp.expand(out.subs(x, 0)) == -36 * xi
    f = catalog_get("polynomial_perturbation", {"eps": 1})
    op = build_L_flat(f, (F(0), F(0)), coeff_order=4)
    assert apply_op_to_symbol(op, Symbol.monomial(1, (3,)), (F(0),)).coefficient_value(
        (1,), (F(0),)) == -36


# -- the flat-case triangle -----------------------------------------------------


def test_triangle_ratio_is_the_pinned_constant():
    # measure the covariant/coordinate ratio on a nondegenerate draw: with
    # Sym the permutation average, it is 1
    m = catalog_get("moebius", {"a": 2, "b": 1, "c": 1, "d": 1})
    z = (F(1, 5), F(-3, 4))
    cov = build_L_covariant(m, FLAT1, z)
    coord = build_L_coordinate(m, FLAT1, z)
    slot = (0, 3)
    measured = cov.coeffs[slot] / coord.coeffs[slot]
    assert measured == 1


def test_triangle_exact_over_random_draws():
    rng = random.Random(97)
    draws = 0
    for n in (1, 2):
        flat = Connection.flat_connection(n)
        for f in pool(n):
            for _ in range(4):
                z = rand_point(rng, 2 * n)
                if f.jacobian_det(z[:n]) == 0:
                    continue
                flat_op = build_L_flat(f, z)
                coord = build_L_coordinate(f, flat, z)
                cov = build_L_covariant(f, flat, z)
                assert (cov - coord).is_zero()
                assert (cov - flat_op).is_zero()
                draws += 1
    assert draws >= 20


def curved_cases():
    """(map, curved base connection, phase point) at dims 1, 2 and 3."""
    gamma = Connection.from_polynomials(1, {(0, 0, 0): Polynomial(1, {(1,): 1})})
    f = catalog_get("moebius", {"a": 2, "b": 1, "c": 1, "d": 1})
    z = (F(1, 5), F(-3, 4))

    gamma2 = Connection.from_polynomials(2, {
        (0, 0, 0): Polynomial(2, {(1, 0): 1}),
        (1, 0, 1): Polynomial(2, {(0, 1): F(1, 2)}),
    })
    f2 = catalog_get("projective", {"dim": 2})
    z2 = (F(1, 4), F(-1, 8), F(1, 2), F(1, 3))

    gamma3 = Connection.from_polynomials(3, {
        (0, 0, 1): Polynomial(3, {(0, 0, 1): 1}),
        (1, 2, 2): Polynomial(3, {(1, 0, 0): F(1, 2), (0, 0, 0): F(1, 3)}),
        (2, 0, 0): Polynomial(3, {(0, 1, 0): F(-1, 4)}),
    })
    f3 = catalog_get("projective", {"dim": 3})
    z3 = (F(1, 4), F(-1, 8), F(1, 2), F(1, 3), F(-1, 2), F(2, 5))
    return [(f, gamma, z), (f2, gamma2, z2), (f3, gamma3, z3)]


def test_coordinate_matches_covariant_with_curved_connection():
    # the two independent builds agree beyond the flat case as well
    for f, gamma, z in curved_cases():
        op = build_L_covariant(f, gamma, z)
        assert not op.is_zero()
        assert (op - build_L_coordinate(f, gamma, z)).is_zero()


def test_builders_agree_jet_for_jet():
    # equal values are not enough: the higher slots of every coefficient jet
    # carry the fiber and x dependence that symbol application reads
    for f, gamma, z in curved_cases():
        cov = build_L_covariant(f, gamma, z, coeff_order=2)
        assert cov.coeff_jets
        assert cov.coeff_jets == build_L_coordinate(f, gamma, z, coeff_order=2).coeff_jets
    rng = random.Random(29)
    for n in (1, 2):
        flat = Connection.flat_connection(n)
        for name in ("polynomial_perturbation", "projective"):
            f = catalog_get(name, {"dim": n})
            z = tuple(F(rng.randint(1, 8), 16) for _ in range(2 * n))
            cov = build_L_covariant(f, flat, z, coeff_order=2)
            assert cov.coeff_jets
            assert cov.coeff_jets == build_L_coordinate(f, flat, z, coeff_order=2).coeff_jets
            assert cov.coeff_jets == build_L_flat(f, z, coeff_order=2).coeff_jets


def test_zero_comparison_tensor_builds_no_tables(monkeypatch):
    import jetcocycles.operators as operators_module

    calls = []
    tables = operators_module._covariant_tables

    def counted(*args):
        calls.append(args)
        return tables(*args)

    monkeypatch.setattr(operators_module, "_covariant_tables", counted)
    for n in (1, 2, 3):
        flat = Connection.flat_connection(n)
        z = tuple(F(k + 1, 5) for k in range(2 * n))
        for name in ("identity", "translation", "affine"):
            f = catalog_get(name, {"dim": n})
            for order in (0, 1, 3):
                op = build_L_covariant(f, flat, z, coeff_order=order)
                assert op.is_zero() and op.point == z and op.dim == 2 * n
                assert op.coeff_jets == ({} if order else None)
    assert calls == []
    # a nonzero comparison tensor reads the tables once
    z = (F(1, 4), F(-1, 8), F(1, 2), F(1, 3))
    assert not build_L_covariant(catalog_get("projective", {"dim": 2}), FLAT2, z,
                                 coeff_order=1).is_zero()
    assert len(calls) == 1


def covariant_by_signed_fold(f, gamma, point, coeff_order):
    """``build_L_covariant`` with each Sym entry summed jet by jet, in
    permutation order, and then scaled by 1/6."""
    from jetcocycles.geometry import _covariant_tables, _sums
    from jetcocycles.operators import _comparison_jets, _finish

    n = f.dim
    d = 2 * n
    cj, glifted = _comparison_jets(f, gamma, point, coeff_order)
    sym = {}
    for triple in itertools.combinations_with_replacement(range(d), 3):
        acc = None
        for p, q, r in itertools.permutations(triple):
            t = cj[p][(q + n) % d][(r + n) % d]
            if t.is_zero():
                continue
            if (q < n) == (r < n):
                acc = t if acc is None else acc + t
            else:
                acc = -t if acc is None else acc - t
        sym[triple] = None if acc is None or acc.is_zero() else acc * F(1, 6)
    D2, D3 = _covariant_tables(glifted, point, coeff_order)
    terms = []
    for (i, j, k), a_hat in sym.items():
        if a_hat is not None:
            for p, q, r in set(itertools.permutations((i, j, k))):
                terms.extend((m, a_hat, opj) for m, opj in D3[p][q][r].items())
    for i in range(d):
        for j in range(d):
            coeff = None
            for nn in range(d):
                for mm in range(d):
                    s = sym[tuple(sorted((nn, mm, i)))]
                    if s is not None and not cj[j][mm][nn].is_zero():
                        coeff = s * cj[j][mm][nn] if coeff is None \
                            else coeff + s * cj[j][mm][nn]
            if coeff is not None and not coeff.is_zero():
                coeff = coeff * F(-3, 2)
                terms.extend((m, coeff, opj) for m, opj in D2[i][j].items())
    return _finish(d, _sums(terms), point, coeff_order > 0)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("backend", ["exact", "float"])
def test_covariant_sym_entries_equal_the_signed_fold(n, backend):
    rng = random.Random(41 + n)
    flat = Connection.flat_connection(n)
    for name in ("projective", "polynomial_perturbation"):
        f = catalog_get(name, {"dim": n})
        z = tuple(F(rng.randint(-6, 6), 16) for _ in range(2 * n))
        if backend == "float":
            z = tuple(float(c) for c in z)
        for order in range(5):
            got = build_L_covariant(f, flat, z, coeff_order=order)
            want = covariant_by_signed_fold(f, flat, z, order)
            assert got.coeffs == want.coeffs, (name, order)
            assert not got.is_zero()
            if backend == "float":
                # bit for bit, signed zeros too
                assert [repr(c) for c in got.coeffs.values()] == \
                    [repr(c) for c in want.coeffs.values()]
            if order:
                assert got.coeff_jets.keys() == want.coeff_jets.keys()
                for m, j in got.coeff_jets.items():
                    w = want.coeff_jets[m]
                    if backend == "float":
                        assert list(map(repr, j.coeffs)) == list(map(repr, w.coeffs))
                    else:
                        assert j == w, (name, order, m)


def test_coordinate_matches_flat_formula_termwise():
    rng = random.Random(13)
    f = catalog_get("projective", {"dim": 2})
    for _ in range(4):
        z = rand_point(rng, 4)
        if f.jacobian_det(z[:2]) == 0:
            continue
        a = build_L_coordinate(f, FLAT2, z)
        b = build_L_flat(f, z)
        assert a.coeffs == b.coeffs


# -- application ----------------------------------------------------------------


def test_operators_built_at_different_points_do_not_add():
    a = LocalDiffOp(2, {(1, 0): 1}, point=(F(0), F(1)))
    b = LocalDiffOp(2, {(0, 1): 1}, point=(F(1, 2), F(1)))
    with pytest.raises(EvaluationError, match="different points"):
        a + b
    with pytest.raises(EvaluationError, match="different points"):
        a - b
    # one point, or none on one side: the sum lives at that point
    assert (a + LocalDiffOp(2, {(0, 1): 2}, point=(F(0), F(1)))).point == a.point
    assert (LocalDiffOp(2, {(0, 1): 2}) + a).point == a.point
    assert (a + LocalDiffOp(2, {(0, 1): 2})).coeffs == {(1, 0): 1, (0, 1): 2}


def test_apply_zero_operator():
    q = Symbol.monomial(1, (3,))
    assert apply_op(LocalDiffOp.zero(2), q, (F(0), F(1))) == 0


def test_apply_cubic_example():
    f = catalog_get("polynomial_perturbation", {"eps": 1})
    op = build_L_flat(f, (F(0), F(1)))
    q = Symbol.monomial(1, (3,))
    assert apply_op(op, q, (F(0), F(1))) == -36


def test_apply_linear_in_function():
    rng = random.Random(3)
    m = catalog_get("moebius", {"a": 1, "b": 0, "c": 1, "d": 1})
    z = (F(1), F(2))
    op = build_L_flat(m, z)
    count = len(monomials(2, 3))

    def rand_q():
        return Jet(2, 3, [F(rng.randint(-4, 4), 8) for _ in range(count)])

    for _ in range(6):
        q1, q2 = rand_q(), rand_q()
        lam = F(rng.randint(-3, 3), 2)
        assert op.apply_to_jet(q1 * lam + q2) == lam * op.apply_to_jet(q1) + op.apply_to_jet(q2)


def test_apply_to_jet_matches_the_termwise_formula():
    # one operator, applied to jets of orders 3 and 4 in turn, against the
    # sum of c * m! * q[m] term by term; its weights serve both orders
    rng = random.Random(11)
    op = build_L_covariant(catalog_get("projective", {"dim": 2}), FLAT2,
                           (F(1, 4), F(-1, 3), F(1, 2), F(2, 5)))
    assert len(op.coeffs) > 3

    def termwise(q):
        idx = {m: s for s, m in enumerate(monomials(q.dim, q.order))}
        total = 0
        for m, c in op.coeffs.items():
            total = total + c * math.prod(map(math.factorial, m)) * q.coeffs[idx[m]]
        return total

    for order in (3, 4, 3, 4):
        count = len(monomials(4, order))
        exact = Jet(4, order, [F(rng.randint(-4, 4), rng.randint(1, 9)) for _ in range(count)])
        assert op.apply_to_jet(exact) == termwise(exact)
        floats = Jet(4, order, [rng.uniform(-2, 2) for _ in range(count)])
        assert repr(op.apply_to_jet(floats)) == repr(termwise(floats))
        # every slot the operator reads is zero: an exact int 0
        cancelled = Jet(4, order, [0] * count)
        assert op.apply_to_jet(cancelled) == 0 and type(op.apply_to_jet(cancelled)) is int


def test_apply_requires_enough_jet_order():
    m = catalog_get("moebius", {"a": 1, "b": 0, "c": 1, "d": 1})
    op = build_L_flat(m, (F(1), F(2)))
    with pytest.raises(Exception):
        op.apply_to_jet(Jet.zero(2, 1) + 1)


# -- symbols ---------------------------------------------------------------------


def test_symbol_degree_and_jet():
    s = Symbol(1, {(2,): Polynomial.coordinate(1, 0), (0,): 3})
    assert s.degree() == 2
    j = s.jet((F(1, 2), F(2)), 2)
    assert j.value == F(1, 2) * 4 + 3


@pytest.mark.parametrize("n", [1, 2])
def test_symbol_jet_matches_sympy_expansion(n):
    # sympy expands the symbol at (x, xi) + u; no jet arithmetic on this side
    sp = pytest.importorskip("sympy")
    rng = random.Random(60 + n)
    xs, xis = sp.symbols(f"x0:{n}"), sp.symbols(f"xi0:{n}")
    us = sp.symbols(f"u0:{2 * n}")
    for order in range(5):
        coeffs, expr = {}, 0
        for mu in rng.sample(monomials(n, 3)[1:], 3) + [(0,) * n]:
            terms = {tuple(rng.randint(0, 2) for _ in range(n)): F(rng.randint(-6, 6), 4)
                     for _ in range(3)}
            coeffs[mu] = Polynomial(n, terms)
            c = sum(sp.sympify(v) * sp.Mul(*[x ** e for x, e in zip(xs, m)])
                    for m, v in terms.items())
            expr += c * sp.Mul(*[xi ** e for xi, e in zip(xis, mu)])
        point = tuple(F(rng.randint(-7, 7), rng.choice([1, 2, 3])) for _ in range(2 * n))
        shifted = sp.expand(expr.subs({v: sp.sympify(p) + u
                                       for v, p, u in zip(xs + xis, point, us)},
                                      simultaneous=True))
        expect = {b: F(int(c.p), int(c.q)) for b, c in sp.Poly(shifted, *us).as_dict().items()}
        j = Symbol(n, coeffs).jet(point, order)
        for b in monomials(2 * n, order):
            assert j.coefficient(b) == expect.get(b, 0), (order, b)


def test_symbol_jet_makes_one_product_per_fiber_term(jet_products):
    s = Symbol(2, {(0, 0): Polynomial.coordinate(2, 0), (1, 0): 3, (2, 1): F(1, 2)})
    s.jet((F(1, 2), F(1, 3), F(2), F(-1, 4)), 3)
    # the mu = 0 term is its coefficient's jet, with no product by a constant 1
    assert len(jet_products) == 2


def test_apply_to_symbol_worked_example():
    f = catalog_get("polynomial_perturbation", {"eps": 1})
    op = build_L_flat(f, (F(0), F(0)), coeff_order=4)
    out = apply_op_to_symbol(op, Symbol.monomial(1, (3,)), (F(0),))
    assert out.degree() == 1
    assert out.coefficient_value((1,), (F(0),)) == -36


def test_sum_of_operators_keeps_coefficient_jets():
    f = catalog_get("polynomial_perturbation", {"eps": 1})
    op = build_L_covariant(f, FLAT1, (F(0), F(0)), coeff_order=4)

    def cubic(o):
        return apply_op_to_symbol(o, Symbol.monomial(1, (3,)), (F(0),)).coefficient_value(
            (1,), (F(0),))

    assert cubic(op * 2) == cubic(op + op) == -72
    assert cubic(op + op - op) == -36
    # a zero sum keeps no jet, as it keeps no coefficient
    assert (op - op).coeff_jets == {} and (op - op).is_zero()
    # one operand without jets: the sum has none
    assert (op + LocalDiffOp(2, {(0, 2): 1})).coeff_jets is None


def test_scaling_by_zero_keeps_no_coefficient_jet():
    op = build_L_covariant(catalog_get("projective", {"dim": 1}), FLAT1, (F(1, 4), F(0)),
                           coeff_order=4)
    assert op.coeff_jets
    zero = op * 0
    assert zero.coeffs == {} and zero.coeff_jets == {}
    assert apply_op_to_symbol(zero, Symbol.monomial(1, (3,)), (F(1, 4),)).degree() == -1


def test_apply_to_symbol_affine_gives_zero():
    m = catalog_get("affine", {"A": 2, "b": F(1, 4)})
    op = build_L_covariant(m, FLAT1, (F(1, 8), F(0)), coeff_order=4)
    out = apply_op_to_symbol(op, Symbol.monomial(1, (3,)), (F(1, 8),))
    assert out.degree() == -1


def test_apply_to_symbol_low_degree_returns_zero_symbol():
    m = catalog_get("moebius", {"a": 1, "b": 0, "c": 1, "d": 1})
    op = build_L_flat(m, (F(1), F(0)), coeff_order=2)
    out = apply_op_to_symbol(op, Symbol.monomial(1, (1,)), (F(1),))
    assert out.degree() == -1 and not out.coeffs


def test_apply_to_symbol_degree_bound_random():
    rng = random.Random(71)
    for n in (1, 2):
        flat = Connection.flat_connection(n)
        maps_n = pool(n)
        for k in (2, 3, 4, 5):
            m = maps_n[k % len(maps_n)]
            x = rand_point(rng, n)
            if m.jacobian_det(x) == 0:
                continue
            mu = [0] * n
            mu[0] = k - 1 if n > 1 else k
            if n > 1:
                mu[1] = 1
            coeffs = {tuple(mu): Polynomial.coordinate(n, 0)}
            sym = Symbol(n, coeffs)
            op = build_L_covariant(m, flat, tuple(x) + (0,) * n, coeff_order=k + 1)
            out = apply_op_to_symbol(op, sym, x)
            assert out.degree() <= k - 2


def test_apply_to_symbol_requires_coeff_jets():
    m = catalog_get("moebius", {"a": 1, "b": 0, "c": 1, "d": 1})
    op = build_L_flat(m, (F(1), F(0)))
    with pytest.raises(EvaluationError):
        apply_op_to_symbol(op, Symbol.monomial(1, (3,)), (F(1),))


# -- actions ---------------------------------------------------------------------


def test_function_action_identity():
    q = Symbol(1, {(2,): Polynomial.coordinate(1, 0)})
    ident = catalog_get("identity")
    z = (F(1, 3), F(1, 2))
    acted = act_on_function(ident, q, anchors=[z])
    assert acted.jet(z, 3) == q.jet(z, 3)


def test_function_action_linear_map():
    # acting by x -> A x sends Q to Q(A^-1 x, A^T xi)
    A = [[2, 1], [0, 1]]
    f = catalog_get("linear", {"dim": 2, "A": A})
    q = Symbol(2, {(1, 0): Polynomial.coordinate(2, 0), (0, 2): 1})
    w = (F(1, 4), F(-1, 2), F(1, 3), F(1))
    z = cotangent_lift(f)(w)
    acted = act_on_function(f, q, anchors=[w])
    got = acted.jet(z, 3)

    inv = catalog_get("linear", {"dim": 2, "A": [[F(1, 2), F(-1, 2)], [0, 1]]})
    expect = cotangent_lift(inv).eval_jet(z, 3)
    composed = q.jet(tuple(j.value for j in expect), 3)
    from jetcocycles.jets import jet_compose
    expect_jet = jet_compose(composed, [j - j.value for j in expect])
    assert got == expect_jet


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_function_action_at_order_zero_is_the_value_at_the_anchor(backend):
    q = Symbol(1, {(2,): Polynomial.coordinate(1, 0), (0,): 3})
    f = catalog_get("polynomial_perturbation", {"eps": F(1, 8)})
    z = (F(1, 4), F(-1, 2))
    if backend == "float":
        f, z = catalog_get("polynomial_perturbation", {"eps": 0.125}), (0.25, -0.5)
    acted = act_on_function(f, q, anchors=[z])
    got = acted.jet(cotangent_lift(f)(z), 0)
    assert got.order == 0 and got.value == q.jet(z, 0).value


def test_function_action_preserves_fiber_degree():
    # pulling a fiber polynomial back through a lift keeps its fiber degree
    f = catalog_get("moebius", {"a": 2, "b": 1, "c": 1, "d": 1})
    q = Symbol(1, {(3,): Polynomial.coordinate(1, 0), (1,): 2})
    w = (F(1, 5), F(0))
    z = cotangent_lift(f)(w)
    acted = act_on_function(f, q, anchors=[w])
    jet = acted.jet(z, 4)
    # along the fiber axis the expansion terminates at the symbol's degree
    for m, c in zip(monomials(2, 4), jet.coeffs):
        if m[1] > 3:
            assert c == 0
    cubic_axis = (0, 3)
    assert jet.coefficient(cubic_axis) != 0


def test_function_action_composes():
    f = catalog_get("moebius", {"a": 2, "b": 1, "c": 1, "d": 1})
    h = catalog_get("polynomial_perturbation", {"eps": F(1, 8)})
    q = Symbol(1, {(2,): Polynomial.coordinate(1, 0), (1,): 2})
    w = (F(1, 5), F(3, 4))
    fh = compose(f, h)
    z = cotangent_lift(fh)(w)
    lhs = act_on_function(fh, q, anchors=[w]).jet(z, 3)
    inner = act_on_function(h, q, anchors=[w])
    mid = cotangent_lift(h)(w)
    rhs = act_on_function(f, inner, anchors=[mid]).jet(z, 3)
    assert lhs == rhs


CONJUGATION_MAPS = [
    (1, "moebius", {"a": 2, "b": 1, "c": 1, "d": 1}),
    (1, "polynomial_perturbation", {"eps": F(1, 8)}),
    (2, "projective", {}),
    (2, "polynomial_perturbation", {"eps": F(1, 8)}),
]


@pytest.mark.parametrize("op_kind", ["covariant", "dense"])
@pytest.mark.parametrize("n,name,params", CONJUGATION_MAPS,
                         ids=[f"{name}-dim{n}" for n, name, _ in CONJUGATION_MAPS])
def test_operator_and_function_actions_agree(n, name, params, op_kind):
    # (h . T)(Q) at z is T applied to h . Q at h~(z): the two actions read
    # the same inverse-lift jets
    h = catalog_get(name, {"dim": n, **params})
    rng = random.Random(53 + n)
    monos = monomials(2 * n, 3)
    q = Polynomial(2 * n, {m: F(rng.randint(-9, 9), rng.randint(1, 5)) for m in monos})
    checked = 0
    while checked < 2:
        z = rand_point(rng, 2 * n)
        if h.jacobian_det(z[:n]) == 0:
            continue
        hz = cotangent_lift(h)(z)
        if op_kind == "covariant":
            op = build_L_covariant(h, Connection.flat_connection(n), hz)
        else:
            op = LocalDiffOp(2 * n, {m: F(rng.randint(-9, 9), rng.randint(1, 5)) for m in monos},
                             point=hz)
        lhs = act_on_operator(h, op, z).apply_to_jet(q.jet(z, 3))
        rhs = op.apply_to_jet(act_on_function(h, q, anchors=[z]).jet(hz, 3))
        assert lhs == rhs
        checked += 1


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_acted_function_raises_away_from_its_anchor_images(backend):
    f = catalog_get("polynomial_perturbation", {"eps": F(1, 8)})
    w = (F(1, 4), F(1, 2))
    step = F(1, 64)
    if backend == "float":
        w, step = tuple(map(float, w)), 1 / 64
    acted = act_on_function(f, Symbol.monomial(1, (2,)), anchors=[w])
    z = cotangent_lift(f)(w)
    assert acted.jet(z, 3).value == w[1] ** 2  # (f . Q)(f~(w)) = Q(w)
    with pytest.raises(EvaluationError):
        acted.jet((z[0] + step, z[1]), 3)


def test_operator_action_identity():
    ident = catalog_get("identity")
    op = LocalDiffOp(2, {(1, 1): F(5, 2), (0, 3): -1})
    out = act_on_operator(ident, op, (F(1, 4), F(1)))
    assert out.coeffs == op.coeffs


def test_operator_action_scaling_example():
    # conjugating the fiber derivative by the lift of x -> 2x doubles it
    f = catalog_get("linear", {"A": 2})
    w = (F(1), F(3))
    out = act_on_operator(f, LocalDiffOp(2, {(0, 1): 1}), w)
    assert out.coeffs == {(0, 1): 2}


def test_operator_action_composes():
    f = catalog_get("moebius", {"a": 2, "b": 1, "c": 1, "d": 1})
    h = catalog_get("polynomial_perturbation", {"eps": F(1, 8)})
    rng = random.Random(7)
    for _ in range(3):
        z = rand_point(rng, 2)
        fh = compose(f, h)
        if h.jacobian_det(z[:1]) == 0 or fh.jacobian_det(z[:1]) == 0:
            continue
        target = cotangent_lift(fh)(z)
        op = build_L_flat(catalog_get("moebius", {"a": 1, "b": 0, "c": 1, "d": 2}), target)
        lhs = act_on_operator(fh, op, z)
        mid = cotangent_lift(h)(z)
        rhs = act_on_operator(h, act_on_operator(f, op, mid), z)
        assert lhs.coeffs == rhs.coeffs


def act_by_unit_probes(f, op, point):
    """The operator action by its definition: one composed unit probe
    ``(z - point)^m o lift^-1`` per monomial of order at most three."""
    d = 2 * f.dim
    monos = monomials(d, 3)
    fz = cotangent_lift(f).eval_jet(point, 3)
    inv = jet_invert([j - j.value for j in fz])
    coeffs = {}
    for m in monos:
        unit = Jet(d, 3, [1 if u == m else 0 for u in monos])
        val = op.apply_to_jet(jet_compose(unit, inv))
        if val != 0:
            coeffs[m] = F(val) / math.prod(map(math.factorial, m))
    return coeffs


@pytest.mark.parametrize("n", [2, 3])
def test_operator_action_matches_unit_probe_definition(n):
    rng = random.Random(41 + n)
    monos = monomials(2 * n, 3)
    for f in pool(n):
        z = rand_point(rng, 2 * n)
        if f.jacobian_det(z[:n]) == 0:
            continue
        op = LocalDiffOp(2 * n, {m: F(rng.randint(-9, 9), rng.randint(1, 5)) for m in monos})
        got = act_on_operator(f, op, z)
        assert got.coeffs == act_by_unit_probes(f, op, z)
        assert got.coeffs, f.name


def test_action_on_the_zero_operator_makes_no_inverse(monkeypatch):
    import jetcocycles.maps as maps_module

    inverses = []

    def counted(jets):
        inverses.append(jets)
        return jet_invert(jets)

    monkeypatch.setattr(maps_module, "jet_invert", counted)
    f = catalog_get("moebius", {"a": 2, "b": 1, "c": 1, "d": 1})
    z = (F(1, 3), F(2))
    out = act_on_operator(f, LocalDiffOp.zero(2, cotangent_lift(f)(z)), z)
    assert out.is_zero() and out.point == z and out.dim == 2
    assert inverses == []
    # a nonzero operator makes its one inverse
    act_on_operator(f, LocalDiffOp(2, {(0, 1): 1}), z)
    assert len(inverses) == 1
    with pytest.raises(JetShapeError):
        act_on_operator(f, LocalDiffOp.zero(4), z)


# -- cocycle identity with a curved connection -----------------------------------


def test_cocycle_identity_nonflat_connection():
    gamma = Connection.from_polynomials(1, {(0, 0, 0): Polynomial.coordinate(1, 0)})
    f = catalog_get("moebius", {"a": 2, "b": 1, "c": 1, "d": 1})
    h = catalog_get("polynomial_perturbation", {"eps": F(1, 4)})
    rng = random.Random(29)
    for _ in range(3):
        z = rand_point(rng, 2)
        if h.jacobian_det(z[:1]) == 0 or f.jacobian_det(h(z[:1])) == 0:
            continue
        hz = cotangent_lift(h)(z)
        lhs = build_L_covariant(compose(f, h), gamma, z)
        rhs = act_on_operator(h, build_L_covariant(f, gamma, hz), z) \
            + build_L_covariant(h, gamma, z)
        assert (lhs - rhs).is_zero()
