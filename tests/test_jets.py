"""Jet kernel: ring axioms, composition, reversion, calculus."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetcocycles.jets import (
    Jet,
    JetShapeError,
    Polynomial,
    SingularJacobianError,
    _add_product,
    _exact_dot,
    dot,
    jet_compose,
    jet_invert,
    mat_det,
    mat_inv,
    monomial_index,
    monomials,
    slot_sum,
)


def rand_jet(rng, dim, order, span=6, denom=8):
    return Jet(dim, order, [Fraction(rng.randint(-span, span), denom)
                            for _ in monomials(dim, order)])


def jf(coeffs):
    return Jet(1, len(coeffs) - 1, [Fraction(c) for c in coeffs])


# -- addition ----------------------------------------------------------------


def test_add_cancellation():
    a = jf([1, 1, 0, 0, 0])   # 1 + x
    b = jf([1, -1, 0, 0, 0])  # 1 - x
    assert a + b == jf([2, 0, 0, 0, 0])


def test_add_identity():
    a = jf([0, 0, 1, 0, 0])  # x^2
    assert a + Jet.zero(1, 4) == a


def test_add_associative_random_exact():
    rng = random.Random(101)
    for _ in range(40):
        a, b, c = (rand_jet(rng, 2, 3) for _ in range(3))
        assert (a + b) + c == a + (b + c)


def test_shape_mismatch_raises():
    with pytest.raises(JetShapeError):
        Jet.zero(1, 3) + Jet.zero(2, 3)
    with pytest.raises(JetShapeError):
        Jet.zero(1, 3) * Jet.zero(1, 2)


# -- multiplication ----------------------------------------------------------


def test_mul_difference_of_squares():
    a = jf([1, 1, 0, 0, 0])
    b = jf([1, -1, 0, 0, 0])
    assert a * b == jf([1, 0, -1, 0, 0])


def test_mul_identity():
    rng = random.Random(5)
    a = rand_jet(rng, 3, 2)
    assert Jet.constant(3, 2, 1) * a == a


def test_mul_associative_random_exact():
    rng = random.Random(77)
    for _ in range(30):
        a, b, c = (rand_jet(rng, 2, 4) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_distributive_random_exact():
    rng = random.Random(13)
    for _ in range(30):
        a, b, c = (rand_jet(rng, 3, 3) for _ in range(3))
        assert a * (b + c) == a * b + a * c


def test_coeff_table_is_dense():
    j = Jet.zero(4, 4)
    from math import comb
    assert len(j.coeffs) == comb(4 + 4, 4)


# -- composition -------------------------------------------------------------


def test_compose_exp_log_identity():
    # exp composed with log(1+x) is 1+x, coefficientwise to order 4
    exp4 = jf([1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)])
    log4 = jf([0, 1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4)])
    assert jet_compose(exp4, [log4]) == jf([1, 1, 0, 0, 0])


def test_compose_identity_inner():
    rng = random.Random(21)
    a = rand_jet(rng, 2, 3)
    ident = [Jet.variable(2, 3, k) for k in range(2)]
    assert jet_compose(a, ident) == a


def test_compose_chain_rule_first_order():
    # linear coefficients of the composition equal the Jacobian product
    rng = random.Random(31)
    for _ in range(10):
        inner = [rand_jet(rng, 2, 3) for _ in range(2)]
        inner = [j - j.value for j in inner]
        outer = rand_jet(rng, 2, 3)
        comp = jet_compose(outer, inner)
        j_out = [outer.partial(k).value for k in range(2)]
        j_in = [[inner[k].partial(i).value for i in range(2)] for k in range(2)]
        for i in range(2):
            expect = sum(j_out[k] * j_in[k][i] for k in range(2))
            unit = tuple(1 if a == i else 0 for a in range(2))
            assert comp.coefficient(unit) == expect


def test_compose_requires_zero_constants():
    outer = jf([1, 1, 0, 0, 0])
    with pytest.raises(JetShapeError):
        jet_compose(outer, [jf([1, 1, 0, 0, 0])])


def test_compose_arity_mismatch():
    outer = rand_jet(random.Random(1), 2, 3)
    with pytest.raises(JetShapeError):
        jet_compose(outer, [Jet.variable(2, 3, 0)])


def test_compose_order_mismatch():
    outer = rand_jet(random.Random(2), 1, 3)
    with pytest.raises(JetShapeError):
        jet_compose(outer, [Jet.variable(1, 2, 0)])


# -- sums of products ----------------------------------------------------------


def test_dot_skips_pairs_with_a_zero_or_none_operand(jet_products):
    rng = random.Random(4)
    x, y = rand_jet(rng, 2, 3), rand_jet(rng, 2, 3)
    zero = Jet.zero(2, 3)
    start = rand_jet(rng, 2, 3)
    got = dot([(x, zero), (None, y), (x, y), (zero, y), (x, None)], start)
    assert len(jet_products) == 1
    assert got == start + x * y


def test_dot_adds_float_terms_left_to_right():
    one = Jet.constant(1, 2, 1)
    terms = [Jet(1, 2, [v, v, 0.0]) for v in (1.0, 1e16, -1e16)]
    # 1 + 1e16 rounds to 1e16, so left to right the 1 is lost; summed the
    # other way round it survives
    assert (1.0 + 1e16) + -1e16 == 0.0 and 1.0 + (1e16 + -1e16) == 1.0
    assert dot([(t, one) for t in terms]).coeffs == (0.0, 0.0, 0.0)
    assert dot([(t, one) for t in terms[1:]], terms[0]).coeffs == (0.0, 0.0, 0.0)


def test_dot_with_nothing_to_add_returns_acc():
    start = Jet.variable(2, 2, 1, Fraction(1, 3))
    zero = Jet.zero(2, 2)
    assert dot([]) is None
    assert dot([], start) is start
    assert dot([(zero, start), (start, None)], start) is start


# -- reversion ---------------------------------------------------------------


def lagrange_revert_1d(coeffs, order):
    """Series reversion oracle via the classical coefficient formula:
    the n-th coefficient of the inverse is [w^(n-1)] (w / f(w))^n / n."""

    def poly_mul(p, q):
        out = [Fraction(0)] * (order + 1)
        for i, a in enumerate(p):
            if a == 0:
                continue
            for j, b in enumerate(q):
                if i + j <= order:
                    out[i + j] += a * b
        return out

    # w / f(w) = 1 / (a1 + a2 w + ...)
    shifted = [Fraction(coeffs[k + 1]) for k in range(order)] + [Fraction(0)]
    inv = [Fraction(0)] * (order + 1)
    inv[0] = 1 / shifted[0]
    for k in range(1, order + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += shifted[j] * inv[k - j] if j < len(shifted) else 0
        inv[k] = -acc / shifted[0]
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        power = poly_mul(power, inv)
        out[n] = power[n - 1] / n
    return out


def test_invert_quadratic_against_lagrange_oracle():
    f = jf([0, 1, 1, 0, 0])  # x + x^2
    g = jet_invert([f])[0]
    expect = lagrange_revert_1d([0, 1, 1, 0, 0], 4)
    assert list(g.coeffs) == expect
    assert expect == [0, 1, -1, 2, -5]


def test_invert_identity():
    ident = [Jet.variable(2, 4, k) for k in range(2)]
    assert jet_invert(ident) == ident


def test_invert_round_trip_random_unit_jacobian():
    rng = random.Random(42)
    for _ in range(10):
        f = []
        for k in range(2):
            j = rand_jet(rng, 2, 4)
            j = j - j.value  # zero constant
            # force the linear block to the identity row
            data = list(j.coeffs)
            for i in range(2):
                unit = tuple(1 if a == i else 0 for a in range(2))
                idx = monomials(2, 4).index(unit)
                data[idx] = Fraction(1 if i == k else 0)
            f.append(Jet(2, 4, data))
        g = jet_invert(f)
        ident = [Jet.variable(2, 4, k) for k in range(2)]
        assert [jet_compose(gi, f) for gi in g] == ident
        assert [jet_compose(fi, g) for fi in f] == ident


def test_invert_singular_jacobian_raises():
    f = jf([0, 0, 1, 0, 0])  # x^2, zero derivative
    with pytest.raises(SingularJacobianError):
        jet_invert([f])


# -- calculus ----------------------------------------------------------------


def test_partial_power():
    x = Jet.variable(1, 4, 0)
    assert (x * x).partial(0) == Jet(1, 3, [0, 2, 0, 0])


def test_partial_constant():
    assert Jet.constant(1, 3, Fraction(7, 2)).partial(0).is_zero()


def test_mixed_partials_commute_random():
    rng = random.Random(9)
    for _ in range(25):
        j = rand_jet(rng, 3, 4)
        assert j.partial(0).partial(1) == j.partial(1).partial(0)


def test_truncation_consistency():
    # computing at high order then truncating equals computing at low order
    rng = random.Random(55)
    a4, b4 = rand_jet(rng, 2, 4), rand_jet(rng, 2, 4)
    a2, b2 = a4.truncated(2), b4.truncated(2)
    assert (a4 * b4).truncated(2) == a2 * b2
    assert (a4 + b4).truncated(2) == a2 + b2
    inner4 = [j - j.value for j in (rand_jet(rng, 2, 4), rand_jet(rng, 2, 4))]
    inner2 = [j.truncated(2) for j in inner4]
    assert jet_compose(a4, inner4).truncated(2) == jet_compose(a2, inner2)


def test_embed_puts_the_old_variables_first():
    # 5 + 3/2 x + 0.25 y^2 - x^2 over the slots 1, y, x, y^2, xy, x^2
    j = Jet(2, 2, [5, 0, Fraction(3, 2), 0.25, 0.0, -1])
    e = j.embed(4)
    assert (e.dim, e.order) == (4, 2)
    for m, c in zip(monomials(4, 2), e.coeffs):
        old = j.coefficient(m[:2]) if not any(m[2:]) else 0
        assert c == old and type(c) is (type(old) if old else int), m
    assert j.embed(2) == j
    with pytest.raises(JetShapeError):
        j.embed(1)


def test_reciprocal_is_inverse():
    rng = random.Random(66)
    for _ in range(10):
        j = rand_jet(rng, 2, 3) + 3  # keep the constant term away from zero
        assert j * j.reciprocal() == Jet.constant(2, 3, Fraction(1))


def test_reciprocal_of_constant_is_exact_scalar_inverse():
    one = Jet.constant(2, 2, 1).reciprocal()
    assert one.coeffs == (1, 0, 0, 0, 0, 0) and type(one.value) is int
    assert Jet.constant(2, 2, -4).reciprocal().value == Fraction(-1, 4)
    assert Jet.constant(1, 3, 2.0).reciprocal().coeffs == (0.5, 0, 0, 0)


def test_reciprocal_zero_constant_raises():
    with pytest.raises(ZeroDivisionError):
        Jet.variable(1, 3, 0).reciprocal()


def test_jet_exp_is_the_exponential_series():
    # slot x^k of exp(c + lam x) is e^c lam^k / k!
    c, lam = 0.1, 0.7
    j = Jet.variable(1, 6, 0) * lam + c
    for k, got in enumerate(j.exp().coeffs):
        assert abs(got - math.exp(c) * lam**k / math.factorial(k)) < 1e-12, k


# -- matrices ----------------------------------------------------------------


def test_mat_inv_exact():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = mat_inv(m)
    prod = [[sum(m[i][k] * inv[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    assert prod == [[1, 0], [0, 1]]


def test_mat_inv_int_matrix_stays_exact():
    # det 1: every cofactor over it is integral, so every entry stays int
    inv = mat_inv([[1, 2, 0], [0, 1, -3], [0, 0, 1]])
    assert inv == [[1, -2, -6], [0, 1, 3], [0, 0, 1]]
    assert all(type(x) is int for row in inv for x in row)
    # det 1 again, with an entry of 2: the integral inverse stays exact
    inv = mat_inv([[2, 1], [1, 1]])
    assert inv == [[1, -1], [-1, 2]]
    assert all(type(x) in (int, Fraction) for row in inv for x in row)


def test_mat_det_exact_and_singular():
    assert mat_det([[2, 1], [1, 1]]) == 1
    assert mat_det([[1, 2], [2, 4]]) == 0
    with pytest.raises(SingularJacobianError):
        mat_inv([[1, 2], [2, 4]])


def _cofactor_det(rows):
    """Laplace expansion along the first row in plain jet products, sharing
    no code with mat_det."""
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for c, entry in enumerate(rows[0]):
        minor = [r[:c] + r[c + 1:] for r in rows[1:]]
        term = entry * _cofactor_det(minor)
        total = total + term if c % 2 == 0 else total - term
    return total


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mat_det_of_jets_matches_values_and_cofactor_expansion(n):
    rng = random.Random(71 + n)
    rows = [[rand_jet(rng, 2, 2) for _ in range(n)] for _ in range(n)]
    det = mat_det(rows)
    assert isinstance(det, Jet) and (det.dim, det.order) == (2, 2)
    assert det.value == mat_det([[e.value for e in row] for row in rows])
    assert det == _cofactor_det(rows)
    assert all(type(c) in (int, Fraction) for c in det.coeffs)


def test_mat_det_of_jets_pivots_past_a_zero_value_and_skips_zero_jets():
    x, one = Jet.variable(2, 2, 0), Jet.constant(2, 2, 1)
    zero = Jet.zero(2, 2)
    # the first column's top entry has value 0, which an expansion needs not avoid
    rows = [[x, one + x], [one, zero]]
    assert mat_det(rows) == _cofactor_det(rows) == -(one + x)


def test_mat_det_of_jets_without_an_invertible_pivot_expands_by_cofactors():
    # no entry of the first column has a nonzero value; cofactors need no pivot
    x, one = Jet.variable(2, 3, 0), Jet.constant(2, 3, 1)
    assert mat_det([[x, x], [x * x, one]]) == x - x * x * x


def test_polynomial_jets_exact():
    p = Polynomial(1, {(3,): 1, (1,): 1})  # x + x^3
    j = p.jet([Fraction(1, 2)], 4)
    assert list(j.coeffs) == [Fraction(5, 8), Fraction(7, 4), Fraction(3, 2), 1, 0]


# -- polynomial jets against a sympy oracle ------------------------------------
#
# The expected coefficients come from sympy expanding the polynomial at
# point + u; nothing here goes through the jet kernel.


def rand_poly_terms(rng, dim, max_exp=4, nterms=5):
    terms = {}
    for _ in range(nterms):
        m = tuple(rng.randint(0, max_exp) for _ in range(dim))
        terms[m] = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5]))
    return terms


def sympy_shift(sp, terms, point, order):
    """{b: coefficient of u^b} with |b| <= order of the polynomial at point + u."""
    xs = sp.symbols(f"x0:{len(point)}")
    us = sp.symbols(f"u0:{len(point)}")
    expr = sp.Add(*[sp.sympify(c) * sp.Mul(*[x ** e for x, e in zip(xs, m)])
                    for m, c in terms.items()])
    shifted = sp.expand(expr.subs({x: sp.sympify(p) + u for x, p, u in zip(xs, point, us)},
                                  simultaneous=True))
    return {b: Fraction(int(c.p), int(c.q))
            for b, c in sp.Poly(shifted, *us).as_dict().items() if sum(b) <= order}


def slots(dim, order):
    return [b for b in itertools.product(range(order + 1), repeat=dim) if sum(b) <= order]


def exact_shift_cases(rng, dim):
    """(terms, point) pairs of every exact kind the Taylor shift meets."""
    cases = []
    for _ in range(2):
        terms = rand_poly_terms(rng, dim)
        point = tuple(Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7])) for _ in range(dim))
        cases.append((terms, point))
    terms, point = cases[0]
    # int coefficients at a Fraction point, Fraction coefficients at an int point
    cases.append(({m: int(c * 3) for m, c in terms.items()}, point))
    cases.append((terms, tuple(rng.randint(-4, 4) for _ in range(dim))))
    cases.append(({}, point))  # the zero polynomial
    # x0^3 - 3 p0 x0^2 cancels in the slot of u0^2, as does 3 p0^2 x0 - p0^3 ...
    p0 = Fraction(rng.randint(1, 9), rng.choice([2, 3, 7]))
    e0 = tuple(int(k == 0) for k in range(dim))
    cube = {tuple(3 * e for e in e0): 1, tuple(2 * e for e in e0): -3 * p0}
    cases.append((cube, (p0,) + point[1:]))
    return cases


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_polynomial_jet_matches_sympy_expansion(dim):
    sp = pytest.importorskip("sympy")
    rng = random.Random(40 + dim)
    for order in range(6):
        for terms, point in exact_shift_cases(rng, dim):
            expect = sympy_shift(sp, terms, point, order)
            j = Polynomial(dim, terms).jet(point, order)
            assert len(j.coeffs) == len(slots(dim, order))
            for b in slots(dim, order):
                assert j.coefficient(b) == expect.get(b, 0), (terms, point, order, b)
            # a slot that cancelled, or got no term, is int 0
            assert all(type(c) is int for c in j.coeffs if c == 0), (terms, point, j.coeffs)


def test_polynomial_jet_cancelled_slot_is_int_zero():
    p = Fraction(2, 3)
    j = Polynomial(1, {(3,): 1, (2,): -3 * p}).jet((p,), 3)
    # (p + u)^3 - 3p (p + u)^2 = -2p^3 - 3p^2 u + 0 u^2 + u^3
    assert j.coeffs == (-2 * p ** 3, -3 * p ** 2, 0, 1)
    assert type(j.coeffs[2]) is int


def test_polynomial_jet_at_dyadic_float_point_is_bit_exact():
    sp = pytest.importorskip("sympy")
    terms = {(4, 0, 1): 3, (2, 2, 0): -5, (0, 1, 3): Fraction(1, 4), (1, 0, 0): 7, (0, 0, 0): -2}
    point = (0.375, -1.25, 0.5)
    expect = sympy_shift(sp, terms, tuple(Fraction(p) for p in point), 5)
    j = Polynomial(3, terms).jet(point, 5)
    for b in slots(3, 5):
        assert float(j.coefficient(b)).hex() == float(expect.get(b, 0)).hex(), b


def test_polynomial_jet_int_coefficients_at_int_point_stay_int():
    p = Polynomial(2, {(3, 1): 2, (0, 2): -7, (1, 0): 1, (0, 0): 4})
    for point in [(3, -2), (0, 5), (0, 0)]:
        j = p.jet(point, 4)
        assert all(type(c) is int for c in j.coeffs), (point, j.coeffs)
    # a factor of 1 (b_k == m_k) keeps an int coefficient int at a float point,
    # and a zero base coordinate leaves its slots int 0
    j = Polynomial(1, {(2,): 3}).jet((0.0,), 2)
    assert [type(c) for c in j.coeffs] == [int, int, int] and j.coeffs == (0, 0, 3)


def test_polynomial_jet_makes_no_jet_products(jet_products):
    p = Polynomial(3, {(2, 1, 0): Fraction(1, 3), (0, 3, 1): -2, (1, 1, 1): 0.5, (0, 0, 0): 5})
    p.jet((Fraction(1, 2), Fraction(-1, 3), 2), 5)
    p.jet((0.5, -0.25, 2.0), 3)
    assert jet_products == []


def test_polynomial_jet_serves_a_lower_order_from_the_higher_one():
    terms = {(2, 1, 0): Fraction(1, 3), (0, 3, 1): -2, (1, 1, 1): 5, (0, 0, 0): 5}
    p = Polynomial(3, terms)
    pt = (Fraction(1, 2), Fraction(-1, 3), 2)
    high = p.jet(pt, 4)
    low = p.jet(pt, 2)
    fresh = Polynomial(3, dict(terms)).jet(pt, 2)
    assert low == high.truncated(2) == fresh
    assert [type(c) for c in low.coeffs] == [type(c) for c in fresh.coeffs]
    assert p.jet(pt, 4) is high
    # another point in between, then the first one again at a higher order
    other = (Fraction(-1, 4), 1, Fraction(2, 3))
    assert p.jet(other, 3) == Polynomial(3, dict(terms)).jet(other, 3)
    assert p.jet(pt, 5) == Polynomial(3, dict(terms)).jet(pt, 5)
    assert p.jet(pt, 5).truncated(4) == high


def test_polynomial_jet_tells_a_float_point_from_an_equal_fraction_point():
    p = Polynomial(2, {(2, 1): 3, (0, 1): Fraction(1, 2)})
    exact = p.jet((Fraction(1, 2), Fraction(1, 4)), 3)
    floats = p.jet((0.5, 0.25), 2)
    assert all(type(c) is float for c in floats.coeffs if c)
    assert floats == exact.truncated(2)
    assert all(type(c) is not float for c in p.jet((Fraction(1, 2), Fraction(1, 4)), 1).coeffs)


def product_value(terms, point, start=0):
    """Each term multiplied out left to right, one coordinate at a time,
    and the terms added from ``start``."""
    total = start
    for m, c in terms.items():
        term = c
        for x, e in zip(point, m):
            for _ in range(e):
                term = term * x
        total = total + term
    return total


def test_polynomial_value_on_exact_inputs_equals_a_fraction_evaluation():
    rng = random.Random(83)
    for dim in (1, 2, 3):
        for _ in range(20):
            terms = {m: Fraction(rng.randint(-5, 5), rng.choice([1, 3, 8]))
                     for m in rng.sample(monomials(dim, 4), 5)}
            point = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 5])) for _ in range(dim)]
            point[rng.randrange(dim)] = rng.choice([0, Fraction(0)])
            poly = Polynomial(dim, terms)
            value = poly(point)
            assert value == product_value({m: Fraction(c) for m, c in terms.items()},
                                          [Fraction(x) for x in point], Fraction(0))
            assert type(value) in (int, Fraction)
            assert value == poly.jet(point, 2).value
    assert Polynomial(2, {})((Fraction(1, 2), 3)) == 0


def test_polynomial_value_of_int_coefficients_at_an_int_point_is_int():
    p = Polynomial(2, {(3, 1): 2, (0, 2): -7, (1, 0): 1, (0, 0): 4})
    for point in [(3, -2), (0, 5), (0, 0), (1, 1)]:
        value = p(point)
        assert type(value) is int and value == product_value(p.terms, point), point


def test_polynomial_value_on_floats_is_the_left_to_right_product():
    rng = random.Random(89)
    for dim in (1, 2, 3):
        for _ in range(20):
            terms = {m: rng.choice([rng.randint(-5, 5) or 1, rng.uniform(-3, 3),
                                    Fraction(rng.randint(1, 7), 3)])
                     for m in rng.sample(monomials(dim, 4), 5)}
            point = [rng.choice([rng.uniform(-2, 2), 0.0, -0.0, 0.1, 1.3]) for _ in range(dim)]
            value = Polynomial(dim, terms)(point)
            want = product_value(terms, point)
            assert type(value) is type(want) and repr(value) == repr(want), (terms, point)
    # a shift would give int 0 here, and round 1.3 ** 3 once
    assert repr(Polynomial(1, {(1,): 2})((0.0,))) == "0.0"
    assert Polynomial(1, {(3,): 1})((1.3,)) == 1.3 * 1.3 * 1.3 != 1.3 ** 3


# -- series reversion against a sympy oracle -----------------------------------
#
# The inverse of a polynomial map F with invertible linear part is solved for
# by undetermined coefficients: at each degree k the unknown degree-k
# coefficients of G enter F(G(x)) = x linearly, and sympy solves for them.
# Nothing here goes through the jet kernel.


def sympy_inverse_series(sp, terms, order):
    """{(i, b): coefficient of x^b in G_i} with 1 <= |b| <= order, F(G(x)) = x."""
    dim = len(terms)
    xs = sp.symbols(f"x0:{dim}")

    def truncate(poly, k):
        kept = {b: c for b, c in poly.as_dict().items() if sum(b) <= k}
        return sp.Poly.from_dict(kept or {(0,) * dim: 0}, *xs, domain=poly.domain)

    G = [sp.Poly(0, *xs)] * dim
    for k in range(1, order + 1):
        degree_k = [b for b in itertools.product(range(k + 1), repeat=dim) if sum(b) == k]
        unknowns = {(i, b): sp.Symbol(f"g{i}_" + "_".join(map(str, b)))
                    for i in range(dim) for b in degree_k}
        trial = [G[i] + sp.Poly(sp.Add(*[unknowns[i, b] * sp.Mul(*[x ** e for x, e in zip(xs, b)])
                                         for b in degree_k]), *xs)
                 for i in range(dim)]
        eqs = []
        for i, f in enumerate(terms):
            composed = sp.Poly(0, *xs)
            for m, c in f.items():
                term = sp.Poly(sp.Rational(c.numerator, c.denominator), *xs)
                for g, e in zip(trial, m):
                    for _ in range(e):
                        term = truncate(term * g, k)
                composed += term
            unit = tuple(int(a == i) for a in range(dim))
            eqs += [composed.coeff_monomial(b) - (1 if b == unit else 0) for b in degree_k]
        (sol,) = sp.solve(eqs, list(unknowns.values()), dict=True)
        G = [sp.Poly(g.as_expr().subs(sol), *xs) for g in trial]
    return {(i, b): Fraction(int(c.p), int(c.q))
            for i, g in enumerate(G) for b, c in g.terms() if c}


def rand_invertible_map(rng, dim, order):
    """Terms of a rational polynomial map with zero constant and det(A) != 0."""
    while True:
        lin = [[Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(dim)]
               for _ in range(dim)]
        if mat_det(lin) != 0:
            break
    terms = []
    for i in range(dim):
        f = {tuple(int(a == j) for a in range(dim)): lin[i][j] for j in range(dim)}
        for _ in range(3):
            deg = rng.randint(2, max(order, 2))
            m = [0] * dim
            for _ in range(deg):
                m[rng.randrange(dim)] += 1
            f[tuple(m)] = Fraction(rng.randint(-5, 5), rng.choice([1, 2, 4, 7]))
        terms.append({m: c for m, c in f.items() if c})
    return terms


@pytest.mark.parametrize("dim", [1, 2])
def test_jet_invert_matches_sympy_undetermined_coefficients(dim):
    sp = pytest.importorskip("sympy")
    rng = random.Random(70 + dim)
    for order in range(1, 5):
        for _ in range(2):
            terms = rand_invertible_map(rng, dim, order)
            F = [Jet(dim, order, [f.get(m, 0) for m in monomials(dim, order)]) for f in terms]
            G = jet_invert(F)
            expect = sympy_inverse_series(sp, terms, order)
            for i, g in enumerate(G):
                assert g.value == 0
                for b in slots(dim, order)[1:]:
                    assert g.coefficient(b) == expect.get((i, b), 0), (terms, order, i, b)


# -- kernel laws (Hypothesis) -------------------------------------------------
#
# Jets are drawn sparse, with terms spread over every degree, on both scalar
# backends and on small shapes as well as the shapes N = 462, 924 and 1716
# around 600 monomials.  Products are checked against a reference product
# over exponent tuples that does not use the kernel's product plan.

SHAPES = [(1, 4), (2, 3), (3, 2), (6, 0), (6, 3), (6, 5), (6, 6), (6, 7)]
SMALL_SHAPES = [(1, 4), (2, 3), (3, 2)]
BACKENDS = ["exact", "float"]


def shape_id(shape):
    return "dim%d-order%d" % shape


def scalars(backend):
    if backend == "int":
        return st.integers(-6, 6)
    if backend == "exact":
        return st.one_of(st.integers(-6, 6),
                         st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 8])))
    return st.floats(-2, 2, allow_nan=False, allow_infinity=False)


@st.composite
def jets(draw, shape, backend, max_terms=6, constant=None):
    dim, order = shape
    coeffs = [0] * len(monomials(dim, order))
    for _ in range(draw(st.integers(0, max_terms))):
        deg = draw(st.integers(0, order))
        lo = len(monomials(dim, deg - 1)) if deg else 0
        coeffs[draw(st.integers(lo, len(monomials(dim, deg)) - 1))] = draw(scalars(backend))
    if constant is not None:
        coeffs[0] = constant
    return Jet(dim, order, coeffs)


def reference_mul(a, b):
    monos = monomials(a.dim, a.order)
    terms_b = [(mb, cb) for mb, cb in zip(monos, b.coeffs) if cb != 0]
    out = {}
    for ma, ca in zip(monos, a.coeffs):
        if ca == 0:
            continue
        for mb, cb in terms_b:
            m = tuple(x + y for x, y in zip(ma, mb))
            if sum(m) <= a.order:
                out[m] = out.get(m, 0) + ca * cb
    return [out.get(m, 0) for m in monos]


def assert_same(x, y, backend):
    xs = x.coeffs if isinstance(x, Jet) else x
    ys = y.coeffs if isinstance(y, Jet) else y
    assert len(xs) == len(ys)
    if backend == "exact":
        assert list(xs) == list(ys)
    else:
        for u, v in zip(xs, ys):
            assert abs(u - v) <= 1e-9 * (1 + abs(u) + abs(v))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
@given(data=st.data())
def test_mul_matches_reference_product(shape, backend, data):
    a = data.draw(jets(shape, backend))
    b = data.draw(jets(shape, backend))
    prod = a * b
    assert (prod.dim, prod.order) == shape
    assert_same(prod, reference_mul(a, b), backend)
    if backend == "exact":
        # zero slots are int 0, whatever cancelled into them
        assert all(type(c) is int for c in prod.coeffs if c == 0)


def plan_product(a, b):
    """The product by the general path: the integer sum of exact operands,
    else the plan's term lists."""
    out = _exact_dot(((a, b),), None)
    if out is None:
        out = [0]
        _add_product(out, [(0, a.value)] if a.value else [], [(0, b.value)] if b.value else [],
                     a.dim, 0)
        out = Jet(a.dim, 0, out)
    return out


@pytest.mark.parametrize("backend", ["int", "exact", "float"])
@given(data=st.data())
def test_order_zero_product_is_the_scalar_product(backend, data):
    dim = data.draw(st.integers(1, 6))
    # an int 1 operand returns the other operand itself, before either path
    operand = scalars(backend).filter(lambda v: not (type(v) is int and v == 1))
    a, b = (Jet(dim, 0, [data.draw(operand)]) for _ in range(2))
    got, ref = (a * b).value, plan_product(a, b).value
    assert got == ref
    if backend == "float":
        assert repr(got) == repr(ref)  # bit for bit
    elif got == 0:
        assert type(got) is int


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
@given(data=st.data())
def test_ring_laws(shape, backend, data):
    a, b, c = (data.draw(jets(shape, backend)) for _ in range(3))
    assert_same(a * b, b * a, backend)
    assert_same((a * b) * c, a * (b * c), backend)
    assert_same(a * (b + c), a * b + a * c, backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", [(1, 4), (3, 2), (6, 3), (6, 7)], ids=shape_id)
@given(data=st.data())
def test_reciprocal_law(shape, backend, data):
    c0 = data.draw(st.sampled_from([1, 3, Fraction(-5, 2)] if backend == "exact" else [1.0, 3.0, -2.5]))
    j = data.draw(jets(shape, backend, max_terms=4, constant=c0))
    assert_same(j * j.reciprocal(), Jet.constant(*shape, 1), backend)


@st.composite
def jet_maps(draw, shape, backend, invertible=False):
    """d jets in d variables with zero constant terms."""
    dim, order = shape
    out = []
    for k in range(dim):
        j = draw(jets(shape, backend, constant=0))
        if invertible:
            # linear part: identity plus a strictly upper triangle, so unimodular
            data = list(j.coeffs)
            for i in range(k + 1):
                unit = tuple(int(a == i) for a in range(dim))
                data[monomial_index(dim, order)[unit]] = int(i == k)
            j = Jet(dim, order, data)
        out.append(j)
    return out


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", SMALL_SHAPES, ids=shape_id)
@given(data=st.data())
def test_compose_associative(shape, backend, data):
    f = data.draw(jets(shape, backend))
    g = data.draw(jet_maps(shape, backend))
    h = data.draw(jet_maps(shape, backend))
    left = jet_compose(jet_compose(f, g), h)
    right = jet_compose(f, [jet_compose(gi, h) for gi in g])
    assert_same(left, right, backend)


def reference_compose(outer, inner):
    """Substitution by powers formed with ``reference_mul``, over exponent
    tuples and without the kernel's composition or product plans."""
    dim, order = inner[0].dim, inner[0].order
    out = [outer.value] + [0] * (len(monomials(dim, order)) - 1)
    for m, c in zip(monomials(outer.dim, outer.order), outer.coeffs):
        if c == 0 or not any(m):
            continue
        power = Jet.constant(dim, order, 1)
        for k, e in enumerate(m):
            for _ in range(e):
                power = Jet(dim, order, reference_mul(power, inner[k]))
        out = [a + c * b for a, b in zip(out, power.coeffs)]
    return out


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", SMALL_SHAPES + [(3, 4)], ids=shape_id)
@pytest.mark.parametrize("outer_dim", [1, 2, 3])
@given(data=st.data())
def test_compose_matches_reference_substitution(outer_dim, shape, backend, data):
    dim, order = shape
    outer = data.draw(jets((outer_dim, order), backend))
    if data.draw(st.booleans()):
        # only top-degree slots: every power below them is a predecessor only
        top = len(monomials(outer_dim, order - 1)) if order else 0
        coeffs = [0] * top + list(outer.coeffs[top:])
        coeffs[data.draw(st.integers(top, len(coeffs) - 1))] = data.draw(
            scalars(backend).filter(bool))
        outer = Jet(outer_dim, order, coeffs)
    inner = [data.draw(jets(shape, backend, constant=0)) for _ in range(outer_dim)]
    assert_same(jet_compose(outer, inner), reference_compose(outer, inner), backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", SMALL_SHAPES, ids=shape_id)
@given(data=st.data())
def test_compose_with_inverse_is_identity(shape, backend, data):
    f = data.draw(jet_maps(shape, backend, invertible=True))
    g = jet_invert(f)
    for k, fk in enumerate(f):
        assert_same(jet_compose(fk, g), Jet.variable(*shape, k), backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", [(2, 3), (6, 6)], ids=shape_id)
@given(data=st.data())
def test_partials_commute(shape, backend, data):
    j = data.draw(jets(shape, backend, max_terms=10))
    dim = shape[0]
    a, b = data.draw(st.integers(0, dim - 1)), data.draw(st.integers(0, dim - 1))
    assert_same(j.partial(a).partial(b), j.partial(b).partial(a), backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", [(1, 3), (3, 2), (6, 0)], ids=shape_id)
@given(data=st.data())
def test_mat_inv_with_zero_entries(shape, backend, data):
    # diagonally dominant constant terms keep the matrix invertible
    big, small = ([4, -5, Fraction(9, 2)], [0, 1, -1, Fraction(1, 2)])
    if backend == "float":
        big, small = [float(c) for c in big], [float(c) for c in small]
    n = data.draw(st.integers(2, 3))
    rows = []
    for i in range(n):
        row = []
        for k in range(n):
            if i != k and data.draw(st.booleans()):
                row.append(Jet.zero(*shape))
            else:
                c0 = data.draw(st.sampled_from(big if i == k else small))
                row.append(data.draw(jets(shape, backend, max_terms=3, constant=c0)))
        rows.append(row)
    a = [rows[p] for p in data.draw(st.permutations(range(n)))]  # row permutations
    inv = mat_inv(a)
    for i in range(n):
        for j in range(n):
            entry = sum((inv[i][k] * a[k][j] for k in range(n)), Jet.zero(*shape))
            assert_same(entry, Jet.constant(*shape, 1 if i == j else 0), backend)


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
def test_cofactor_inverse_times_the_matrix_is_identity_on_exact_jets(n, data):
    order = data.draw(st.integers(0, 6))
    shape = (data.draw(st.integers(1, 2)), order)
    rows = []
    for i in range(n):
        row = []
        for k in range(n):
            if i != k and data.draw(st.booleans()):
                row.append(Jet.zero(*shape))
            else:
                c0 = data.draw(st.sampled_from([3, -4, Fraction(7, 2)] if i == k
                                               else [0, 1, -1, Fraction(1, 3)]))
                row.append(data.draw(jets(shape, "exact", max_terms=4, constant=c0)))
        rows.append(row)
    a = [rows[p] for p in data.draw(st.permutations(range(n)))]
    inv = mat_inv(a)
    for i in range(n):
        for j in range(n):
            # both products, with a sum that shares no code with mat_inv
            left = sum((a[i][k] * inv[k][j] for k in range(n)), Jet.zero(*shape))
            right = sum((inv[i][k] * a[k][j] for k in range(n)), Jet.zero(*shape))
            assert left == right == Jet.constant(*shape, int(i == j))
            assert all(type(c) in (int, Fraction) for c in inv[i][j].coeffs)


def test_cofactor_inverse_of_a_singular_matrix_raises():
    x, one = Jet.variable(2, 3, 0, 1), Jet.constant(2, 3, 1)
    with pytest.raises(SingularJacobianError):
        mat_inv([[x, one], [one, x]])  # det x^2 - 1: value 0, higher slots not
    with pytest.raises(SingularJacobianError):
        mat_inv([[Jet.zero(1, 2)]])
    with pytest.raises(JetShapeError):
        mat_inv([[x, x]])
    with pytest.raises(JetShapeError):
        mat_det([[1, 2]])


def test_int_product_keeps_int_coefficients():
    x, y = Jet.variable(2, 4, 0, 3), Jet.variable(2, 4, 1, -2)
    p = (x * y + 5) * (x - y * 7)
    assert all(type(c) is int for c in p.coeffs)


def test_exact_product_zero_slots_are_int_zero():
    x = Jet.variable(1, 4, 0)
    half = Fraction(1, 2)
    p = (x * half + 1) * (x * -half + 1)  # 1 - x^2/4: the x slot cancels
    assert p == Jet(1, 4, [1, 0, Fraction(-1, 4), 0, 0])
    assert [type(c) for c in p.coeffs[1::2]] == [int, int]
    # a Fraction operand whose denominators are all 1 gives int coefficients
    q = Jet(1, 4, [Fraction(2), Fraction(-3), 0, 0, 0]) * Jet(1, 4, [1, 1, 0, 0, 0])
    assert list(q.coeffs) == [2, -1, -3, 0, 0]
    assert all(type(c) is int for c in q.coeffs)


# -- dot against the left fold (Hypothesis) ------------------------------------
#
# Exact operands are summed in one integer buffer and floats term by term; in
# both cases ``dot`` equals ``acc + x * y`` folded left to right, with float
# slots equal bit for bit.


@st.composite
def dot_operands(draw, shape, backend):
    """0-4 pairs whose operands may be ``None`` or a zero jet, and an
    ``acc`` that may be ``None``."""
    def operand():
        kind = draw(st.sampled_from(["jet", "jet", "jet", "zero", "none"]))
        if kind == "none":
            return None
        return Jet.zero(*shape) if kind == "zero" else draw(jets(shape, backend))

    pairs = [(operand(), operand()) for _ in range(draw(st.integers(0, 4)))]
    acc = draw(st.sampled_from([None, "jet"]))
    return pairs, acc if acc is None else draw(jets(shape, backend))


def left_fold(pairs, acc):
    for x, y in pairs:
        if x is not None and y is not None and not x.is_zero() and not y.is_zero():
            acc = x * y if acc is None else acc + x * y
    return acc


def bits(j):
    return None if j is None else [(type(c), repr(c)) for c in j.coeffs]


@pytest.mark.parametrize("backend", ["exact", "int", "float"])
@pytest.mark.parametrize("shape", [(1, 4), (2, 3), (3, 2), (6, 0), (6, 3)], ids=shape_id)
@given(data=st.data())
def test_dot_equals_the_left_fold(shape, backend, data):
    pairs, acc = data.draw(dot_operands(shape, backend))
    got, want = dot(pairs, acc), left_fold(pairs, acc)
    if backend == "float":
        assert bits(got) == bits(want)
        return
    assert (got is None) == (want is None)
    if got is None:
        return
    assert list(got.coeffs) == list(want.coeffs)
    if got is not acc:  # something was summed: every zero slot is int 0
        assert all(type(c) is int for c in got.coeffs if c == 0)
    if backend == "int":
        assert all(type(c) is int for c in got.coeffs)


def order_zero_scalars(backend):
    """Scalars for order-0 jets; on floats, also magnitudes whose products
    underflow to -0.0 or 0.0."""
    if backend == "float":
        return st.one_of(scalars("float"), st.sampled_from([1e-200, -1e-200, 3e-170, -0.0]))
    return scalars(backend)


def same_scalar(got, ref):
    """A float reference is matched bit for bit; an exact one by value, with
    an exact zero as int 0."""
    if isinstance(ref, float):
        assert repr(got) == repr(ref) and type(got) is float
    else:
        assert got == ref and type(got) is not float
        if got == 0:
            assert type(got) is int


@pytest.mark.parametrize("backend", ["exact", "int", "float"])
@given(data=st.data())
def test_order_zero_dot_equals_the_left_fold(backend, data):
    dim = data.draw(st.integers(1, 6))

    def operand():
        v = data.draw(st.none() | order_zero_scalars(backend))
        return None if v is None else Jet(dim, 0, [v])

    pairs = [(operand(), operand()) for _ in range(data.draw(st.integers(0, 6)))]
    acc = operand()
    got, want = dot(pairs, acc), left_fold(pairs, acc)
    if got is None or got is acc:
        assert got is want
        return
    same_scalar(got.value, want.value)
    assert (got.dim, got.order) == (dim, 0)
    if backend == "int":
        assert type(got.value) is int


def test_order_zero_dot_underflow_cancellation_and_shapes():
    tiny, neg, one = (Jet(2, 0, [v]) for v in (1e-200, -1e-200, 1.0))
    assert repr((tiny * neg).value) == "0.0"
    # a product that underflows to -0.0 is added as 0, as Jet.__add__ adds it
    for pairs, acc in (([(tiny, neg)], None), ([(tiny, neg)], one),
                       ([(one, one), (tiny, neg)], None), ([(tiny, neg), (one, neg)], None),
                       ([(tiny, tiny)], Jet(2, 0, [-0.0])), ([(tiny, tiny)], Jet(2, 0, [0]))):
        assert bits(dot(pairs, acc)) == bits(left_fold(pairs, acc))
    # a product that underflows to 0.0 leaves acc's slot as it is: -0.0 stays
    # -0.0 and int 0 stays int 0, which a plain scalar sum from 0 would not keep
    assert bits(dot([(tiny, tiny)], Jet(2, 0, [-0.0]))) == [(float, "-0.0")]
    assert bits(dot([(tiny, tiny)], Jet(2, 0, [0]))) == [(int, "0")]
    half, minus = Jet(2, 0, [Fraction(1, 2)]), Jet(2, 0, [-1])
    cancelled = dot([(half, Jet(2, 0, [1])), (half, minus)])
    assert cancelled.coeffs == (0,) and type(cancelled.value) is int
    assert dot([(half, minus)], Jet(2, 0, [Fraction(1, 2)])).coeffs == (0,)
    with pytest.raises(JetShapeError):
        dot([(half, Jet(3, 0, [1]))])
    with pytest.raises(JetShapeError):
        dot([(half, half), (Jet(2, 1, [1, 1, 0]), Jet(2, 1, [1, 0, 0]))])
    with pytest.raises(JetShapeError):
        dot([(half, half)], Jet(2, 1, [1, 0, 0]))


@pytest.mark.parametrize("weight_backend", ["exact", "float"])
@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("shape", [(2, 3), (4, 4), (6, 3)], ids=shape_id)
@given(data=st.data())
def test_slot_sum_equals_the_left_to_right_sum(shape, backend, weight_backend, data):
    jet = data.draw(jets(shape, backend, max_terms=10))
    slot = st.integers(0, len(jet.coeffs) - 1)
    weights = data.draw(st.lists(st.tuples(slot, scalars(weight_backend)), max_size=10))
    ref = 0
    for s, w in weights:
        ref = ref + w * jet.coeffs[s]
    same_scalar(slot_sum(jet, weights), ref)


def test_slot_sum_examples():
    jet = Jet(1, 3, [Fraction(1, 3), Fraction(1, 2), 0, Fraction(-1, 6)])
    got = slot_sum(jet, [(0, 1), (1, Fraction(2, 3)), (2, 5), (3, 2)])
    assert got == Fraction(1, 3) and type(got) is Fraction
    # the terms cancel: int 0, not Fraction(0)
    assert type(slot_sum(jet, [(0, 1), (1, Fraction(-2, 3))])) is int
    # int weights on int slots stay int; a float weight gives the float sum
    assert slot_sum(Jet(1, 1, [2, 3]), [(0, 4), (1, -1)]) == 5
    assert repr(slot_sum(jet, [(2, 0.5)])) == "0.0"
    assert slot_sum(jet, []) == 0


# -- slot-wise operations (Hypothesis) -----------------------------------------
#
# Sums, differences, negation, scaling, division, partials and truncation
# against plain per-slot references.  Exact results are equal to the
# reference and leave an int 0 slot int 0 wherever no operand changes it;
# float results equal the reference under ``==``.


def reference_div(a, s):
    return Fraction(a, s) if type(a) is int and type(s) is int else a / s


def reference_partial(j, axis):
    """Partial derivative over exponent tuples, without the product plan."""
    out = {}
    for m, c in zip(monomials(j.dim, j.order), j.coeffs):
        if m[axis] and c:
            out[m[:axis] + (m[axis] - 1,) + m[axis + 1:]] = c * m[axis]
    return [out.get(m, 0) for m in monomials(j.dim, max(j.order - 1, 0))]


def assert_slotwise(result, reference, backend, *operands):
    """``result`` equals ``reference``; on the exact backend a slot that is
    int 0 in every jet operand is int 0 in the result."""
    assert list(result.coeffs) == list(reference)
    if backend == "exact":
        for k, c in enumerate(result.coeffs):
            if all(type(x.coeffs[k]) is int and x.coeffs[k] == 0 for x in operands):
                assert type(c) is int and c == 0, (k, c)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
@given(data=st.data())
def test_add_sub_neg_match_slotwise_reference(shape, backend, data):
    a = data.draw(jets(shape, backend))
    b = data.draw(jets(shape, backend))
    s = data.draw(scalars(backend))
    assert_slotwise(a + b, [x + y for x, y in zip(a.coeffs, b.coeffs)], backend, a, b)
    assert_slotwise(a - b, [x - y for x, y in zip(a.coeffs, b.coeffs)], backend, a, b)
    assert_slotwise(-a, [-x for x in a.coeffs], backend, a)
    with_s = [a.value + s] + list(a.coeffs[1:])
    assert list((a + s).coeffs) == with_s and list((s + a).coeffs) == with_s
    assert list((a - s).coeffs) == [a.value - s] + list(a.coeffs[1:])
    assert list((s - a).coeffs) == [s - a.value] + [-x for x in a.coeffs[1:]]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
@given(data=st.data())
def test_scalar_mul_div_match_slotwise_reference(shape, backend, data):
    a = data.draw(jets(shape, backend))
    s = data.draw(scalars(backend))
    assert_slotwise(a * s, [s * x for x in a.coeffs], backend, a)
    assert_slotwise(s * a, [s * x for x in a.coeffs], backend, a)
    d = data.draw(scalars(backend).filter(bool))
    assert_slotwise(a / d, [reference_div(x, d) for x in a.coeffs], backend, a)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
@given(data=st.data())
def test_partial_and_truncated_match_reference(shape, backend, data):
    dim, order = shape
    j = data.draw(jets(shape, backend, max_terms=10))
    axis = data.draw(st.integers(0, dim - 1))
    d = j.partial(axis)
    assert (d.dim, d.order) == (dim, max(order - 1, 0))
    assert list(d.coeffs) == reference_partial(j, axis)
    if backend == "exact":
        assert all(type(c) is int for c in d.coeffs if c == 0)
    k = data.draw(st.integers(0, order))
    t = j.truncated(k)
    assert (t.dim, t.order) == (dim, k)
    assert list(t.coeffs) == [j.coefficient(m) for m in monomials(dim, k)]


def test_zero_slots_stay_int_zero_under_scalar_ops():
    j = Jet(2, 2, [Fraction(1, 3), 0, 2, 0, 0, Fraction(-1, 2)])
    zeros = [1, 3, 4]
    for out in (j * Fraction(2, 3), Fraction(2, 3) * j, j / 3, j / Fraction(3, 4),
                j + Fraction(1, 2), j - Fraction(1, 2), j + j, j - Jet.zero(2, 2)):
        assert [type(out.coeffs[k]) for k in zeros] == [int] * 3, out.coeffs
    assert (j / 3).coeffs == (Fraction(1, 9), 0, Fraction(2, 3), 0, 0, Fraction(-1, 6))
    assert (Jet.zero(1, 2) - Jet(1, 2, [Fraction(1, 2), 0, 3])).coeffs == (Fraction(-1, 2), 0, -3)
    # a float zero is not skipped: it turns an exact slot into a float, as 0.0 + b does
    exact = Jet(1, 2, [Fraction(1, 3), 2, 0])
    for out in (Jet(1, 2, [0.0, -0.0, 1.0]) + exact, Jet(1, 2, [0.0, -0.0, 1.0]) - exact):
        assert [type(c) for c in out.coeffs] == [float, float, float]
        assert abs(out.coeffs[0]) == 1 / 3 and abs(out.coeffs[1]) == 2.0


# -- products with a constant operand -----------------------------------------
#
# A constant operand scales the other one without the product plan.  Slot
# values and types are those of the truncated Cauchy product: exact operands
# that carry a Fraction give Fraction slots over a denominator above 1 and
# int slots otherwise, and a float anywhere gives the float products.  An int
# 1 returns the other operand itself, whose slots keep their own types.


def cauchy_reference(a, b):
    """``reference_mul`` with the slot types of the truncated Cauchy product."""
    out = reference_mul(a, b)
    terms = [c for c in a.coeffs + b.coeffs if c]
    types = {type(c) for c in terms}
    exact = Fraction in types and types <= {int, Fraction}
    if float in (type(a.value), type(b.value)) or not exact:
        return out
    den = (math.lcm(*[c.denominator for c in a.coeffs if c])
           * math.lcm(*[c.denominator for c in b.coeffs if c]))
    return [(Fraction(v) if den > 1 else int(v)) if v else 0 for v in out]


CONSTANTS = [1, Fraction(4), Fraction(2, 3), 1.5]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", [(1, 4), (3, 2), (6, 3)], ids=shape_id)
@given(data=st.data())
def test_constant_operand_products_need_no_plan(shape, backend, data):
    import jetcocycles.jets as jets_module

    def no_plan(*_):
        raise AssertionError("a constant operand must not use the product plan")

    x = data.draw(jets(shape, backend))
    for value in CONSTANTS:
        c = Jet.constant(*shape, value)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jets_module, "_mul_plan", no_plan)
            products = x * c, c * x
        for out, ref in zip(products, (cauchy_reference(x, c), cauchy_reference(c, x))):
            assert list(out.coeffs) == ref
            if type(value) is int:
                assert out is x or not any(x.coeffs[1:])  # x constant: either may return
            else:
                assert [type(v) for v in out.coeffs] == [type(v) for v in ref], (value, x)


def test_constant_operand_product_is_one_mul_call(jet_products):
    x = Jet(2, 3, [Fraction(1, 2), 3, 0, 0.0, 0, 0, 0, 0, 0, Fraction(5, 4)])
    one, three_halves = Jet.constant(2, 3, 1), Jet.constant(2, 3, 1.5)
    assert x * one is x and one * x is x
    scaled = [x * three_halves, three_halves * x]
    assert len(jet_products) == 4
    # a float constant gives float slots, as the Cauchy product does
    assert all(type(v) is float for y in scaled for v in y.coeffs if v)
