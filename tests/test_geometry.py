"""Connection lift, pullbacks, the comparison tensor, covariant derivatives."""

import random
from fractions import Fraction

import pytest

from jetcocycles import geometry, jets
from jetcocycles.harness import Sampler, ScenarioConfig
from jetcocycles.jets import (
    Jet,
    Polynomial,
    SingularJacobianError,
    jet_compose,
    mat_inv,
    monomials,
)
from jetcocycles.maps import DiffeoMap, catalog_get, compose, cotangent_lift
from jetcocycles.geometry import (
    Connection,
    TensorField21,
    _covariant_tables,
    cocycle_C,
    covariant_derivs,
    lift_connection,
    pullback_connection,
    pullback_tensor,
)

F = Fraction


def rand_point(rng, dim, denom=16):
    return tuple(F(rng.randint(-8, 8), denom) for _ in range(dim))


def rand_poly(rng, dim, deg=2):
    terms = {}
    for m in monomials(dim, deg):
        k = rng.randint(-3, 3)
        if k:
            terms[m] = F(k, 8)
    return Polynomial(dim, terms)


def rand_connection(rng, dim):
    entries = {}
    for k in range(dim):
        for i in range(dim):
            for j in range(i, dim):
                entries[(k, i, j)] = rand_poly(rng, dim)
    return Connection.from_polynomials(dim, entries, name="rand")


def max_component(comps, d):
    return max(abs(comps[k][i][j].value) for k in range(d) for i in range(d) for j in range(d))


# -- the lift ----------------------------------------------------------------


def test_lift_of_flat_is_flat():
    lifted = lift_connection(Connection.flat_connection(2))
    comps = lifted.components((F(1, 4), F(0), F(1, 2), F(-1)), 1)
    assert max_component(comps, 4) == 0


def test_lift_worked_example_linear_symbol():
    # base symbol x in one variable, checked against direct substitution
    gx = Connection.from_polynomials(1, {(0, 0, 0): Polynomial.coordinate(1, 0)})
    lifted = lift_connection(gx)
    rng = random.Random(3)
    for _ in range(6):
        x, xi = rand_point(rng, 2, denom=8)
        comps = lifted.components((x, xi), 0)
        assert comps[0][0][0].value == x
        assert comps[1][0][0].value == xi * (2 * x * x - 1)
        assert comps[1][0][1].value == -x
        assert comps[1][1][0].value == -x
        assert comps[1][1][1].value == 0
        assert comps[0][0][1].value == 0
        assert comps[0][1][0].value == 0
        assert comps[0][1][1].value == 0


def test_lift_symmetric_and_fiber_linear_random():
    rng = random.Random(11)
    for n in (1, 2):
        gamma = rand_connection(rng, n)
        lifted = lift_connection(gamma)
        for _ in range(4):
            z = rand_point(rng, 2 * n)
            assert lifted.symmetry_defect(z) == 0
            comps = lifted.components(z, 2)
            for k in range(2 * n):
                for i in range(2 * n):
                    for j in range(2 * n):
                        jet = comps[k][i][j]
                        for m, c in zip(monomials(2 * n, 2), jet.coeffs):
                            if sum(m[n:]) >= 2:
                                assert c == 0, "fiber dependence must stay linear"


# -- pullback ----------------------------------------------------------------


def test_pullback_affine_flat_is_zero():
    flat = Connection.flat_connection(2)
    aff = catalog_get("affine", {"dim": 2, "A": [[2, 1], [0, 1]], "b": [F(1, 4), F(0)]})
    pulled = pullback_connection(aff, flat)
    comps = pulled.components((F(1, 8), F(-1, 4)), 1)
    assert max_component(comps, 2) == 0


def test_pullback_cubic_formula():
    flat = Connection.flat_connection(1)
    f = catalog_get("polynomial_perturbation", {"eps": 1})
    pulled = pullback_connection(f, flat)
    rng = random.Random(19)
    for _ in range(6):
        (x,) = rand_point(rng, 1)
        got = pulled.components((x,), 0)[0][0][0].value
        assert got == 6 * x / (1 + 3 * x * x)


def test_pullback_contravariant_for_composition():
    rng = random.Random(23)
    gamma = rand_connection(rng, 1)
    f = catalog_get("moebius", {"a": 2, "b": 1, "c": 1, "d": 1})
    h = catalog_get("polynomial_perturbation", {"eps": F(1, 8)})
    fh = compose(f, h)
    for _ in range(5):
        p = rand_point(rng, 1)
        lhs = pullback_connection(fh, gamma).components(p, 1)
        rhs = pullback_connection(h, pullback_connection(f, gamma)).components(p, 1)
        assert all((lhs[k][i][j] - rhs[k][i][j]).is_zero()
                   for k in range(1) for i in range(1) for j in range(1))


@pytest.mark.parametrize("pullback,inhomogeneous",
                         [(pullback_connection, True), (pullback_tensor, False)])
def test_pullback_matches_sympy(pullback, inhomogeneous):
    # (J^-1)^k_c [G^c_ab(F(x)) J^a_i J^b_j + d_i J^c_j], differentiated by sympy
    sp = pytest.importorskip("sympy")
    map_terms = [
        {(1, 0): 1, (0, 2): F(1, 2), (1, 1): F(1, 3)},
        {(0, 1): 1, (3, 0): F(-1, 4), (1, 0): F(1, 5)},
    ]
    gamma_terms = {
        (0, 0, 0): {(0, 1): 1},
        (1, 0, 1): {(2, 0): F(1, 2), (0, 0): F(1, 3)},
        (0, 1, 1): {(1, 1): 1, (0, 0): F(-1, 4)},
    }
    polys = [Polynomial(2, t) for t in map_terms]
    f = DiffeoMap(2, lambda p, order: [q.jet(p, order) for q in polys], name="poly2")
    gamma = Connection.from_polynomials(
        2, {kij: Polynomial(2, t) for kij, t in gamma_terms.items()})
    point = (F(1, 3), F(-2, 5))
    got = pullback(f, gamma).values(point)

    x = sp.symbols("x0 x1")

    def rational(c):
        c = F(c)
        return sp.Rational(c.numerator, c.denominator)

    def expr(terms):
        return sum(rational(c) * x[0] ** m[0] * x[1] ** m[1] for m, c in terms.items())

    fx = sp.Matrix([expr(t) for t in map_terms])
    jac = fx.jacobian(x)  # jac[a, i] = d_i F^a
    jinv = jac.inv()
    g = [[[sp.Integer(0)] * 2 for _ in range(2)] for _ in range(2)]
    for (k, i, j), t in gamma_terms.items():
        g[k][i][j] = g[k][j][i] = expr(t).subs(dict(zip(x, fx)), simultaneous=True)
    at = dict(zip(x, (rational(c) for c in point)))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                want = sum(
                    jinv[k, c] * (
                        sum(g[c][a][b] * jac[a, i] * jac[b, j]
                            for a in range(2) for b in range(2))
                        + (sp.diff(jac[c, j], x[i]) if inhomogeneous else 0))
                    for c in range(2))
                want = want.subs(at)
                assert want.is_Rational
                assert got[k][i][j] == F(int(want.p), int(want.q)), (k, i, j)


def pullback_over_all_pairs(f, gamma, point, order, inhomogeneous=True):
    """(J^-1)^k_c [G^c_ab(F(x)) J^a_i J^b_j + d_i J^c_j] for every (k, i, j),
    written out term by term in jets; without the d_i J^c_j term when
    ``inhomogeneous`` is False."""
    d = f.dim
    fj = f.eval_jet(point, order + 2)
    jac1 = [[fj[a].partial(i) for i in range(d)] for a in range(d)]
    jac = [[e.truncated(order) for e in row] for row in jac1]
    jinv = mat_inv(jac)
    shifted = [(j - j.value).truncated(order) for j in fj]
    g = gamma.components(tuple(j.value for j in fj), order)
    g = [[[jet_compose(e, shifted) for e in row] for row in plane] for plane in g]
    out = [[[None] * d for _ in range(d)] for _ in range(d)]
    for k in range(d):
        for i in range(d):
            for j in range(d):
                total = Jet.zero(d, order)
                for c in range(d):
                    inner = jac1[c][j].partial(i) if inhomogeneous else Jet.zero(d, order)
                    for a in range(d):
                        for b in range(d):
                            inner = inner + g[c][a][b] * jac[a][i] * jac[b][j]
                    total = total + jinv[k][c] * inner
                out[k][i][j] = total
    return out


@pytest.mark.parametrize("dim", [2, 3])
def test_connection_pullback_equals_the_contraction_over_all_pairs(dim):
    rng = random.Random(7 + dim)
    for name in ("projective", "polynomial_perturbation"):
        f = catalog_get(name, {"dim": dim})
        gamma = rand_connection(rng, dim)
        point = rand_point(rng, dim)
        for order in (0, 2):
            got = pullback_connection(f, gamma).components(point, order)
            want = pullback_over_all_pairs(f, gamma, point, order)
            assert got == want, (name, order)


@pytest.mark.parametrize("dim", [2, 3])
def test_tensor_pullback_of_a_comparison_tensor_equals_the_contraction_over_all_pairs(dim):
    # C(F) is declared symmetric, so its pullback contracts i <= j only
    rng = random.Random(17 + dim)
    gamma = rand_connection(rng, dim)
    F_map = catalog_get("polynomial_perturbation", {"dim": dim})
    H = catalog_get("projective", {"dim": dim})
    c_f = cocycle_C(F_map, gamma)
    pulled = pullback_tensor(H, c_f)
    assert c_f.symmetric and pulled.symmetric
    point = rand_point(rng, dim)
    for order in (0, 2):
        got = pulled.components(point, order)
        want = pullback_over_all_pairs(H, c_f, point, order, inhomogeneous=False)
        assert got == want, order


def test_asymmetric_tensor_pulls_back_to_an_asymmetric_tensor():
    rng = random.Random(19)
    polys = [[[rand_poly(rng, 2) for _ in range(2)] for _ in range(2)] for _ in range(2)]
    assert polys[0][0][1].terms != polys[0][1][0].terms
    tensor = TensorField21(2, lambda p, order: [[[t.jet(p, order) for t in row]
                                                 for row in plane] for plane in polys])
    H = catalog_get("projective", {"dim": 2})
    pulled = pullback_tensor(H, tensor)
    assert not tensor.symmetric and not pulled.symmetric
    point = rand_point(rng, 2)
    got = pulled.components(point, 1)
    assert got == pullback_over_all_pairs(H, tensor, point, 1, inhomogeneous=False)
    assert pulled.symmetry_defect(point) != 0


def test_lift_takes_each_partial_of_the_connection_once(monkeypatch):
    # d_k G^a_ij for a and k in range(n) and i <= j: 3 * 6 * 3 = 54 at n = 3,
    # where three partials per (k, i, j, a) would take 243
    rng = random.Random(23)
    gamma = rand_connection(rng, 3)
    lifted = lift_connection(gamma)
    z = rand_point(rng, 6)
    gamma.components(z[:3], 2)  # the connection's jets are made before counting
    calls = []
    partial = Jet.partial

    def counted(self, axis):
        calls.append(axis)
        return partial(self, axis)

    monkeypatch.setattr(Jet, "partial", counted)
    lifted.components(z, 1)
    assert len(calls) == 54
    assert lifted.symmetry_defect(z) == 0


# -- the order-0 pullback ------------------------------------------------------


def order0_fields(lifted: bool, drawn: bool) -> list:
    """Every kind of pullback over one map: with and without the
    inhomogeneous term, of a symmetric and of an asymmetric field.  A base
    map inverts its Jacobian by cofactors, a cotangent lift by a transpose."""
    n = 2
    gamma = (Sampler(ScenarioConfig(seed=5)).connection(n) if drawn
             else Connection.flat_connection(n))
    f = catalog_get("projective", {"dim": n})
    h = catalog_get("polynomial_perturbation", {"dim": n})
    if lifted:
        f, h, gamma = cotangent_lift(f), cotangent_lift(h), lift_connection(gamma)
    d = f.dim
    rng = random.Random(29)
    polys = [[[rand_poly(rng, d) for _ in range(d)] for _ in range(d)] for _ in range(d)]
    asym = TensorField21(d, lambda p, order: [[[t.jet(p, order) for t in row]
                                               for row in plane] for plane in polys])
    return [pullback_connection(f, gamma), cocycle_C(f, gamma),
            pullback_tensor(f, cocycle_C(h, gamma)), pullback_tensor(f, asym)]


@pytest.mark.parametrize("lifted", [False, True], ids=["base", "lift"])
@pytest.mark.parametrize("drawn", [False, True], ids=["flat", "drawn"])
def test_order0_pullback_is_the_constant_slot_of_order_1(lifted, drawn):
    # order 0 reads slot scalars and sums them; order 1 contracts jets
    point = (F(1, 8), F(-3, 16), F(1, 2), F(-1, 4))[:4 if lifted else 2]
    for field in order0_fields(lifted, drawn):
        d = field.dim
        got, want = field.components(point, 0), field.components(point, 1)
        for k in range(d):
            for i in range(d):
                for j in range(d):
                    g = got[k][i][j]
                    assert g.order == 0 and g.value == want[k][i][j].value, (field.name, k, i, j)
                    assert type(g.value) in (int, F), field.name
        assert any(e.value for plane in got for row in plane for e in row), field.name


def test_order0_lift_pullback_makes_no_partial_and_no_dot(monkeypatch):
    f = cotangent_lift(catalog_get("projective", {"dim": 3}))
    comparison = cocycle_C(f, lift_connection(Connection.flat_connection(3)))
    z = (F(1, 8), F(-1, 4), F(1, 16), F(1, 2), F(-3, 8), F(1, 4))
    f.eval_jet(z, 2)  # the lift's own jets are made before counting
    calls = []
    partial, dot = Jet.partial, jets.dot

    def counted_partial(self, axis):
        calls.append("partial")
        return partial(self, axis)

    def counted_dot(*args, **kw):
        calls.append("dot")
        return dot(*args, **kw)

    monkeypatch.setattr(Jet, "partial", counted_partial)
    monkeypatch.setattr(jets, "dot", counted_dot)
    monkeypatch.setattr(geometry, "dot", counted_dot)
    values = comparison.values(z)
    assert calls == []
    assert any(v for plane in values for row in plane for v in row)


def test_order0_pullback_along_a_singular_jacobian_raises():
    x3 = Polynomial(1, {(3,): 1})
    cube = DiffeoMap(1, lambda p, order: [x3.jet(p, order)], name="cube")
    pulled = pullback_connection(cube, Connection.flat_connection(1))
    for order in (0, 1):
        with pytest.raises(SingularJacobianError):
            pulled.components((F(0),), order)
    assert pulled.components((F(1, 2),), 0)[0][0][0].value == 2 / F(1, 2)


# -- comparison tensor ---------------------------------------------------------


def test_comparison_vanishes_for_affine_flat():
    flat_lift = lift_connection(Connection.flat_connection(1))
    aff = catalog_get("affine", {"A": 2, "b": F(1, 2)})
    tensor = cocycle_C(cotangent_lift(aff), flat_lift)
    comps = tensor.components((F(1, 4), F(1)), 1)
    assert max_component(comps, 2) == 0


def test_comparison_barred_block_cubic():
    # the fiber-upper base-base block of x + x^3 at the origin is -6 xi
    flat_lift = lift_connection(Connection.flat_connection(1))
    f = catalog_get("polynomial_perturbation", {"eps": 1})
    tensor = cocycle_C(cotangent_lift(f), flat_lift)
    rng = random.Random(7)
    for _ in range(4):
        xi = F(rng.randint(1, 8), 4)
        comps = tensor.components((F(0), xi), 0)
        assert comps[1][0][0].value == -6 * xi


def test_twisted_additivity_exact():
    rng = random.Random(31)
    for n in (1, 2):
        flat_lift = lift_connection(Connection.flat_connection(n))
        pool = [
            catalog_get("polynomial_perturbation", {"dim": n, "eps": F(1, 8)}),
            catalog_get("projective", {"dim": n}),
            catalog_get("affine", {"dim": n,
                                   "A": 2 if n == 1 else [[1, 1], [0, 1]],
                                   "b": F(1, 4) if n == 1 else [F(1, 4), F(0)]}),
        ]
        d = 2 * n
        for f in pool:
            for h in pool:
                z = rand_point(rng, d)
                if h.jacobian_det(z[:n]) == 0 or f.jacobian_det(h(z[:n])) == 0:
                    continue
                H = cotangent_lift(h)
                lhs = cocycle_C(cotangent_lift(compose(f, h)), flat_lift).components(z, 0)
                t1 = pullback_tensor(H, cocycle_C(cotangent_lift(f), flat_lift)).components(z, 0)
                t2 = cocycle_C(H, flat_lift).components(z, 0)
                assert max(
                    abs((lhs[k][i][j] - t1[k][i][j] - t2[k][i][j]).value)
                    for k in range(d) for i in range(d) for j in range(d)
                ) == 0


def test_comparison_is_tensorial():
    # transporting C(F) by H equals the rearranged difference of evaluations
    flat_lift = lift_connection(Connection.flat_connection(1))
    f = catalog_get("moebius", {"a": 1, "b": 0, "c": 1, "d": 1})
    h = catalog_get("polynomial_perturbation", {"eps": F(1, 4)})
    z = (F(1, 3), F(-1, 2))
    H = cotangent_lift(h)
    transported = pullback_tensor(H, cocycle_C(cotangent_lift(f), flat_lift)).components(z, 0)
    direct_lhs = cocycle_C(cotangent_lift(compose(f, h)), flat_lift).components(z, 0)
    direct_own = cocycle_C(H, flat_lift).components(z, 0)
    for k in range(2):
        for i in range(2):
            for j in range(2):
                assert transported[k][i][j].value == (
                    direct_lhs[k][i][j].value - direct_own[k][i][j].value
                )


def test_comparison_symmetric_lower_indices():
    flat_lift = lift_connection(Connection.flat_connection(2))
    f = catalog_get("projective", {"dim": 2})
    tensor = cocycle_C(cotangent_lift(f), flat_lift)
    assert tensor.symmetry_defect((F(1, 4), F(-1, 8), F(1, 2), F(1, 3))) == 0


# -- covariant derivatives ------------------------------------------------------


class PolyProvider:
    def __init__(self, poly):
        self.poly = poly

    def jet(self, point, order):
        return self.poly.jet(point, order)


def test_covariant_flat_equals_partials():
    q = PolyProvider(Polynomial(2, {(2, 1): 1, (0, 3): F(1, 2)}))
    flat = Connection.flat_connection(2)
    p = (F(1, 2), F(-1, 4))
    grad, hess, third = covariant_derivs(q, flat, p)
    j = q.poly.jet(p, 3)
    assert grad == [j.partial(0).value, j.partial(1).value]
    assert hess[0][1] == j.partial(1).partial(0).value
    assert third[0][1][0] == j.partial(0).partial(1).partial(0).value


def test_covariant_hessian_symmetric_random():
    rng = random.Random(41)
    for _ in range(6):
        q = PolyProvider(rand_poly(rng, 2, 3))
        gamma = rand_connection(rng, 2)
        p = rand_point(rng, 2)
        _, hess, _ = covariant_derivs(q, gamma, p)
        assert hess[0][1] == hess[1][0]


def test_covariant_third_order_against_hand_expansion():
    # lifted n=1 connection with base symbol x; second code path spells the
    # recursion out with explicit partial derivatives
    gx = Connection.from_polynomials(1, {(0, 0, 0): Polynomial.coordinate(1, 0)})
    lifted = lift_connection(gx)
    q = PolyProvider(Polynomial(2, {(2, 1): 1, (1, 2): F(1, 2), (3, 0): F(1, 4)}))
    z = (F(1, 3), F(-1, 2))
    grad, hess, third = covariant_derivs(q, lifted, z)

    qj = q.poly.jet(z, 3)
    gj = lifted.components(z, 2)
    d = 2

    def d1(a):
        return qj.partial(a)

    def nabla2_jet(b, a):
        out = d1(a).partial(b)
        for c in range(d):
            out = out - gj[c][b][a].truncated(1) * d1(c).truncated(1)
        return out

    for b in range(d):
        for a in range(d):
            assert hess[b][a] == nabla2_jet(b, a).value

    gv = [[[gj[k][i][j].value for j in range(d)] for i in range(d)] for k in range(d)]
    for c in range(d):
        for b in range(d):
            for a in range(d):
                expect = nabla2_jet(b, a).partial(c).value
                for e in range(d):
                    expect -= gv[e][c][b] * nabla2_jet(e, a).value
                    expect -= gv[e][c][a] * nabla2_jet(b, e).value
                assert third[c][b][a] == expect


def test_covariant_derivs_match_sympy_on_curved_connection():
    # nabla_b nabla_a q = d_b d_a q - G^c_ba d_c q and
    # nabla_c nabla_b nabla_a q = d_c(nabla_b nabla_a q)
    #     - G^e_cb nabla_e nabla_a q - G^e_ca nabla_b nabla_e q,
    # differentiated by sympy, for random polynomial connections on R^2
    sp = pytest.importorskip("sympy")
    x = sp.symbols("x0 x1")
    d = 2

    def expr(poly):
        return sum(sp.Rational(c.numerator, c.denominator) * x[0] ** m[0] * x[1] ** m[1]
                   for m, c in poly.terms.items())

    rng = random.Random(53)
    for _ in range(3):
        entries = {(k, i, j): rand_poly(rng, d) for k in range(d) for i in range(d)
                   for j in range(i, d)}
        gamma = Connection.from_polynomials(d, entries, name="curved")
        qpoly = rand_poly(rng, d, 3)
        p = rand_point(rng, d)
        grad, hess, third = covariant_derivs(PolyProvider(qpoly), gamma, p)

        g = [[[expr(entries[(k, min(i, j), max(i, j))]) for j in range(d)] for i in range(d)]
             for k in range(d)]
        q = expr(qpoly)
        h = [[sp.diff(q, x[b], x[a]) - sum(g[c][b][a] * sp.diff(q, x[c]) for c in range(d))
              for a in range(d)] for b in range(d)]
        at = dict(zip(x, (sp.Rational(c.numerator, c.denominator) for c in p)))

        def value(e):
            v = sp.sympify(e).subs(at)
            assert v.is_Rational
            return F(int(v.p), int(v.q))

        assert grad == [value(sp.diff(q, x[a])) for a in range(d)]
        assert hess == [[value(h[b][a]) for a in range(d)] for b in range(d)]
        assert any(hess[b][a] != value(sp.diff(q, x[b], x[a]))
                   for a in range(d) for b in range(d)), "connection did not enter"
        for c in range(d):
            for b in range(d):
                for a in range(d):
                    want = sp.diff(h[b][a], x[c]) - sum(
                        g[e][c][b] * h[e][a] + g[e][c][a] * h[b][e] for e in range(d))
                    assert third[c][b][a] == value(want), (c, b, a)


def test_flat_connection_keeps_its_lift_and_tables():
    flat = Connection.flat_connection(2)
    lifted = lift_connection(flat)
    assert lift_connection(flat) is lifted
    assert lifted.flat and lifted.dim == 4 and lifted.name == "lift(flat)"
    D2, D3 = tables = _covariant_tables(lifted, (F(1, 2),) * 4, 2)
    assert _covariant_tables(lifted, (F(-1, 3),) * 4, 2) is tables
    assert _covariant_tables(lifted, (F(1, 2),) * 4, 1) is not tables
    assert D2[0][3] == {(1, 0, 0, 1): Jet.constant(4, 2, 1)}
    assert D3[2][0][2] == {(1, 0, 2, 0): Jet.constant(4, 2, 1)}


def test_affine_lift_takes_no_partial_of_a_zero_jet(zero_jet_partials):
    # the lift's Jacobian and the pullback's inhomogeneous term both meet
    # zero jets here: A has a zero entry and every second derivative vanishes
    aff = catalog_get("affine", {"dim": 2, "A": [[1, 1], [0, 1]], "b": [F(1, 2), 0]})
    flat = lift_connection(Connection.flat_connection(2))
    z = (F(1, 4), F(-1, 2), F(3, 8), F(1, 8))
    comps = cocycle_C(cotangent_lift(aff), flat).components(z, 1)
    assert all(e.is_zero() for plane in comps for row in plane for e in row)
    assert zero_jet_partials == []
