"""Catalog maps, composition, local inversion, cotangent lifts, flows."""

import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest

from jetcocycles.harness import default_map_pool
from jetcocycles.jets import (EvaluationError, Jet, JetShapeError, Polynomial,
                              SingularJacobianError, dot, jet_invert, mat_inv)
from jetcocycles.maps import (
    FLOW_ORDER,
    DiffeoMap,
    VectorField,
    catalog_get,
    compose,
    cotangent_lift,
    flow_map,
    inverse_jets,
)

F = Fraction


def jets_equal(a, b, tol=0):
    if tol:
        return all(max(abs(x - y) for x, y in zip(ja.coeffs, jb.coeffs)) <= tol
                   for ja, jb in zip(a, b))
    return all(ja == jb for ja, jb in zip(a, b))


def rand_point(rng, dim, denom=16):
    return tuple(F(rng.randint(-8, 8), denom) for _ in range(dim))


# -- catalog -----------------------------------------------------------------


def test_linear_scaling():
    f = catalog_get("linear", {"A": 2})
    assert f((F(3),)) == (6,)
    assert f.jacobian((F(1),)) == [[2]]


def test_moebius_jets_exact_at_one():
    # x / (x + 1) at x = 1, direct rational-function differentiation:
    # value 1/2, then 1/4, -1/8, 1/16, -1/32 as monomial coefficients
    m = catalog_get("moebius", {"a": 1, "b": 0, "c": 1, "d": 1})
    j = m.eval_jet((F(1),), 4)[0]
    assert list(j.coeffs) == [F(1, 2), F(1, 4), F(-1, 8), F(1, 16), F(-1, 32)]


def test_moebius_pole_raises():
    m = catalog_get("moebius", {"a": 1, "b": 0, "c": 1, "d": 1})
    with pytest.raises(EvaluationError):
        m.eval_jet((F(-1),), 2)


def test_polynomial_perturbation_identity_jacobian_at_origin():
    f = catalog_get("polynomial_perturbation", {"eps": 1})
    assert f.jacobian((F(0),)) == [[1]]
    g = catalog_get("polynomial_perturbation", {"dim": 2, "eps": F(1, 8)})
    assert g.jacobian((F(0), F(0))) == [[1, 0], [0, 1]]


def test_unknown_catalog_name():
    with pytest.raises(KeyError):
        catalog_get("spiral")


@pytest.mark.parametrize("name", ["linear", "affine"])
def test_linear_default_is_the_shear_at_every_dim(name):
    f = catalog_get(name, {"dim": 3})
    assert f.jacobian((F(1, 2), F(0), F(-1, 4))) == [[1, 1, 0], [0, 1, 0], [0, 0, 1]]


def catalog_case(sp, name, n):
    """Parameters of a catalog map, and its components written from the
    family's definition as sympy expressions in x0..x{n-1}."""
    xs = sp.symbols(f"x0:{n}")
    q = sp.sympify
    if name == "identity":
        return {}, list(xs)
    if name == "translation":
        c = [F(1, 3), F(-5, 2)][:n]
        return {"c": c}, [x + q(ci) for x, ci in zip(xs, c)]
    if name in ("linear", "affine"):
        a = [[F(3, 2), 1], [F(-1, 3), 2]] if n == 2 else [[F(-3, 2)]]
        b = [F(1, 4), -2][:n] if name == "affine" else [0] * n
        comps = [sum(q(a[i][j]) * xs[j] for j in range(n)) + q(b[i]) for i in range(n)]
        return ({"A": a, "b": b} if name == "affine" else {"A": a}), comps
    if name == "polynomial_perturbation":
        eps = F(1, 5)
        if n == 1:
            return {"eps": eps}, [xs[0] + q(eps) * xs[0] ** 3]
        return {"eps": eps}, [xs[i] + q(eps) * (xs[i] + xs[(i + 1) % n]) ** 3 for i in range(n)]
    if name == "projective":
        a = ([[1, F(1, 2), 0], [0, 1, 1], [F(1, 4), F(-1, 3), 1]] if n == 2
             else [[2, 1], [F(1, 3), 1]])
        hom = list(xs) + [1]
        rows = [sum(q(a[i][j]) * hom[j] for j in range(n + 1)) for i in range(n + 1)]
        return {"A": a}, [rows[i] / rows[n] for i in range(n)]
    if name == "moebius":
        a, b, c, d = 2, 1, F(1, 2), 3
        return {"a": a, "b": b, "c": c, "d": d}, [(a * xs[0] + b) / (q(c) * xs[0] + d)]
    raise KeyError(name)


@pytest.mark.parametrize("name", ["identity", "translation", "linear", "affine",
                                  "polynomial_perturbation", "projective", "moebius"])
def test_catalog_map_jets_match_sympy(name):
    # the Taylor coefficient d^b f / b! from sympy's derivatives of each
    # family's definition, against the map's jet to order 4
    sp = pytest.importorskip("sympy")
    order = 4
    points = {1: [(F(1, 3),), (F(-2, 7),)], 2: [(F(1, 3), F(-2, 5)), (F(3, 4), F(1, 6))]}
    for n in (1,) if name == "moebius" else (1, 2):
        xs = sp.symbols(f"x0:{n}")
        params, comps = catalog_case(sp, name, n)
        f = catalog_get(name, {**params, "dim": n})
        for point in points[n]:
            jets = f.eval_jet(point, order)
            at = dict(zip(xs, map(sp.sympify, point)))
            for b in [m for m in itertools.product(range(order + 1), repeat=n)
                      if sum(m) <= order]:
                for comp, j in zip(comps, jets):
                    d = comp
                    for x, k in zip(xs, b):
                        d = sp.diff(d, x, k) if k else d
                    expect = d.subs(at) / sp.Mul(*[sp.factorial(k) for k in b])
                    assert j.coefficient(b) == F(int(expect.p), int(expect.q)), (n, point, b)


def test_singular_parameters_rejected():
    with pytest.raises(SingularJacobianError):
        catalog_get("moebius", {"a": 1, "b": 1, "c": 1, "d": 1})
    with pytest.raises(SingularJacobianError):
        catalog_get("linear", {"dim": 2, "A": [[1, 2], [2, 4]]})


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("abcd", [(1, 0, 1, 1), (2, 1, 1, 1), (3, -1, 1, 2), (-1, 1, 1, 1)])
def test_moebius_is_the_one_dim_projective_family(backend, abcd):
    # moebius(a, b, c, d) is projective with A = [[a, b], [c, d]], jet for jet
    scalar = F if backend == "exact" else float
    a, b, c, d = map(scalar, abcd)
    m = catalog_get("moebius", {"a": a, "b": b, "c": c, "d": d})
    p = catalog_get("projective", {"dim": 1, "A": [[a, b], [c, d]]})
    for x in (F(1, 3), F(-2, 7), F(5, 4)):
        for order in range(5):
            got, want = m.eval_jet((scalar(x),), order), p.eval_jet((scalar(x),), order)
            if backend == "exact":
                assert got[0].coeffs == want[0].coeffs, (x, order)
            else:
                assert repr(got[0].coeffs) == repr(want[0].coeffs), (x, order)


@pytest.mark.parametrize("name, params, terms", [
    ("identity", {"dim": 1}, [[((1,), 1)]]),
    ("identity", {"dim": 2}, [[((1, 0), 1)], [((0, 1), 1)]]),
    ("identity", {"dim": 3}, [[((1, 0, 0), 1)], [((0, 1, 0), 1)], [((0, 0, 1), 1)]]),
    ("translation", {"dim": 1, "c": [F(1, 4)]}, [[((1,), 1), ((0,), F(1, 4))]]),
    ("translation", {"dim": 2, "c": [F(1, 4), 0]},
     [[((1, 0), 1), ((0, 0), F(1, 4))], [((0, 1), 1)]]),
    ("translation", {"dim": 3, "c": [F(1, 4), 0, F(-1, 2)]},
     [[((1, 0, 0), 1), ((0, 0, 0), F(1, 4))], [((0, 1, 0), 1)],
      [((0, 0, 1), 1), ((0, 0, 0), F(-1, 2))]]),
    ("linear", {"dim": 1}, [[((1,), 2)]]),
    ("linear", {"dim": 2}, [[((1, 0), 1), ((0, 1), 1)], [((0, 1), 1)]]),
    ("linear", {"dim": 3}, [[((1, 0, 0), 1), ((0, 1, 0), 1)], [((0, 1, 0), 1)],
                            [((0, 0, 1), 1)]]),
    ("affine", {"dim": 1, "A": 2, "b": [F(-1, 8)]}, [[((1,), 2), ((0,), F(-1, 8))]]),
    ("affine", {"dim": 2, "A": [[2, 0], [0, -1]], "b": [F(-1, 8), 0]},
     [[((1, 0), 2), ((0, 0), F(-1, 8))], [((0, 1), -1)]]),
    ("affine", {"dim": 3, "A": [[2, 0, F(1, 3)], [0, -1, 0], [1, 1, 3]], "b": [F(-1, 8), 0, 5]},
     [[((1, 0, 0), 2), ((0, 0, 1), F(1, 3)), ((0, 0, 0), F(-1, 8))], [((0, 1, 0), -1)],
      [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 3), ((0, 0, 0), 5)]]),
])
def test_affine_family_terms_in_insertion_order(name, params, terms):
    # float sums follow the insertion order: x_0 .. x_{n-1}, then the constant
    m = catalog_get(name, params)
    assert [list(p.terms.items()) for p in m.polys] == terms


def test_catalog_params_are_pinned():
    q = F(1, 4)
    want = {
        "identity": lambda n: [("dim", n)],
        "translation": lambda n: [("c", [1] * n)],
        "linear": lambda n: [("A", [[2]] if n == 1 else
                              [[int(i == j or (i, j) == (0, 1)) for j in range(n)]
                               for i in range(n)]), ("b", [0] * n)],
        "polynomial_perturbation": lambda n: [("eps", F(1, 8))],
        "projective": lambda n: [("A", [[1, q], [q, 1]] if n == 1 else
                                  [[q if {i, j} == {0, n} else int(i == j) for j in range(n + 1)]
                                   for i in range(n + 1)])],
        "exp_scale": lambda n: [("lam", 1.0)],
    }
    want["affine"] = want["linear"]
    for n in (1, 2, 3):
        for name, params in want.items():
            assert list(catalog_get(name, {"dim": n}).params.items()) == params(n), (name, n)
    assert list(catalog_get("moebius").params.items()) == [("a", 1), ("b", 0), ("c", 1), ("d", 1)]
    given = catalog_get("moebius", {"a": 2, "b": F(1, 2), "c": 1, "d": 3}).params
    assert list(given.items()) == [("a", 2), ("b", F(1, 2)), ("c", 1), ("d", 3)]
    aff = catalog_get("affine", {"dim": 2, "A": [[2, 1], [0, 1]], "b": [q, 0]}).params
    assert list(aff.items()) == [("A", [[2, 1], [0, 1]]), ("b", [q, 0])]
    assert catalog_get("translation", {"dim": 2, "c": [q, 1]}).params == {"c": [q, 1]}
    assert catalog_get("projective", {"dim": 1, "A": [[2, 1], [1, 1]]}).params \
        == {"A": [[2, 1], [1, 1]]}


@pytest.mark.parametrize("name,key", [("polynomial_perturbation", "eps"), ("moebius", "a"),
                                      ("moebius", "b"), ("moebius", "c"), ("moebius", "d"),
                                      ("exp_scale", "lam")])
def test_scalar_parameter_of_wrong_shape_is_named(name, key):
    for bad in ([1, 2], [1], None, True):
        with pytest.raises(ValueError, match=f"parameter '{key}' must be a number, got "):
            catalog_get(name, {key: bad})
    catalog_get(name, {key: F(1, 2) if name == "exp_scale" else 3})


def test_catalog_orientation_flags():
    assert [catalog_get(name, {"dim": 2}).orientation_preserving
            for name in ("identity", "translation", "linear", "affine",
                         "polynomial_perturbation", "projective", "exp_scale")] \
        == [True, True, True, True, None, None, True]
    assert catalog_get("linear", {"dim": 2, "A": [[0, 1], [1, 0]]}).orientation_preserving is False
    assert catalog_get("moebius", {"a": -1, "b": 1, "c": 1, "d": 1}).orientation_preserving is False
    assert catalog_get("moebius").orientation_preserving is True
    assert catalog_get("projective", {"dim": 1}).orientation_preserving is None


# -- composition and inversion ------------------------------------------------


def test_compose_with_identity():
    f = catalog_get("moebius", {"a": 2, "b": 1, "c": 1, "d": 1})
    ident = catalog_get("identity")
    p = (F(1, 3),)
    assert jets_equal(compose(f, ident).eval_jet(p, 4), f.eval_jet(p, 4))
    assert jets_equal(compose(ident, f).eval_jet(p, 4), f.eval_jet(p, 4))


def test_compose_linear_is_matrix_product():
    a = [[1, 1], [0, 1]]
    b = [[2, 0], [1, 1]]
    fa = catalog_get("linear", {"dim": 2, "A": a})
    fb = catalog_get("linear", {"dim": 2, "A": b})
    ab = [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    fab = catalog_get("linear", {"dim": 2, "A": ab})
    p = (F(1, 4), F(-1, 2))
    assert jets_equal(compose(fa, fb).eval_jet(p, 3), fab.eval_jet(p, 3))


def test_compose_associative_on_jets():
    rng = random.Random(17)
    f = catalog_get("moebius", {"a": 1, "b": 0, "c": 1, "d": 2})
    h = catalog_get("polynomial_perturbation", {"eps": F(1, 8)})
    g = catalog_get("affine", {"A": F(3, 2), "b": F(1, 8)})
    for _ in range(5):
        p = rand_point(rng, 1)
        lhs = compose(compose(f, h), g).eval_jet(p, 4)
        rhs = compose(f, compose(h, g)).eval_jet(p, 4)
        assert jets_equal(lhs, rhs)


def test_invert_linear():
    f = catalog_get("linear", {"A": 2})
    inv = f.invert((F(1),))
    j = inv.eval_jet((F(2),), 2)[0]
    assert j.value == 1 and j.coefficient((1,)) == F(1, 2)


def test_invert_cubic_jets_match_kernel_reversion():
    f = catalog_get("polynomial_perturbation", {"eps": 1})
    inv = f.invert((F(0),))
    got = inv.eval_jet((F(0),), 4)[0]
    oracle = jet_invert([f.eval_jet((F(0),), 4)[0] - 0])[0]
    assert got == oracle
    assert list(got.coeffs)[:4] == [0, 1, 0, -1]


def test_invert_round_trip_is_parent():
    f = catalog_get("moebius", {"a": 2, "b": 1, "c": 1, "d": 1})
    inv = f.invert((F(1, 3),))
    assert inv.invert((f((F(1, 3),)))) is f


def test_inverse_compose_identity_jets():
    f = catalog_get("polynomial_perturbation", {"dim": 2, "eps": F(1, 8)})
    p = (F(1, 4), F(-3, 8))
    inv = f.invert(p)
    round_trip = compose(inv, f)
    jets = round_trip.eval_jet(p, 4)
    ident = [Jet.variable(2, 4, k, p[k]) for k in range(2)]
    assert jets_equal(jets, ident)


def test_inverse_needs_anchor_on_exact_backend():
    f = catalog_get("polynomial_perturbation", {"eps": 1})
    inv = f.invert((F(0),))
    with pytest.raises(EvaluationError):
        inv.eval_jet((F(1, 2),), 2)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_inverse_raises_away_from_its_anchor_image(backend):
    f = catalog_get("polynomial_perturbation", {"eps": F(1, 8)})
    at, step = (F(1, 4),), F(1, 64)
    if backend == "float":
        at, step = (0.25,), 1 / 64
    inv = f.invert(at)
    image = f(at)
    assert inv.eval_jet(image, 2)[0].value == at[0]
    with pytest.raises(EvaluationError):
        inv.eval_jet((image[0] + step,), 2)
    with pytest.raises(EvaluationError):
        inv.invert((image[0] + step,))


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_inverse_evaluates_at_order_zero(backend):
    # calling a map asks for order-0 jets, which hold no Jacobian
    f = catalog_get("polynomial_perturbation", {"eps": F(1, 8)})
    a = (F(1, 4),)
    if backend == "float":
        f, a = catalog_get("polynomial_perturbation", {"eps": 0.125}), (0.25,)
    inv = f.invert(a)
    assert inv(f(a)) == a
    assert inv.eval_jet(f(a), 0)[0].coeffs == inv.eval_jet(f(a), 2)[0].coeffs[:1]


def test_invert_at_a_singular_point_raises():
    f = catalog_get("polynomial_perturbation", {"eps": F(-1, 3)})  # x - x^3/3
    with pytest.raises(SingularJacobianError):
        f.invert((F(1),))
    with pytest.raises(SingularJacobianError):
        cotangent_lift(f).invert((F(1), F(2)))


def test_lift_jets_raise_at_a_singular_base_point():
    # x - x^3/3 at x = 1, and at dim 2 a point where the Jacobian determinant
    # (1 - x^2)(1 - y^2) vanishes, though not every entry of it does
    f = catalog_get("polynomial_perturbation", {"eps": F(-1, 3)})
    with pytest.raises(SingularJacobianError, match="singular Jacobian at"):
        cotangent_lift(f).eval_jet((F(1), F(2)), 2)
    g = DiffeoMap(2, lambda p, k: [Polynomial(2, {(1, 0): 1, (3, 0): F(-1, 3)}).jet(p, k),
                                   Polynomial(2, {(0, 1): 1, (0, 3): F(-1, 3), (1, 0): 1})
                                   .jet(p, k)], name="g")
    for order in (0, 2):
        with pytest.raises(SingularJacobianError):
            cotangent_lift(g).eval_jet((F(1), F(1, 2), F(1), F(1)), order)


# -- cotangent lift ----------------------------------------------------------


def test_lift_of_scaling():
    f = catalog_get("linear", {"A": 2})
    lift = cotangent_lift(f)
    assert lift((F(1), F(4))) == (2, 2)
    js = lift.eval_jet((F(1), F(4)), 2)
    assert js[0].coefficient((1, 0)) == 2
    assert js[1].coefficient((0, 1)) == F(1, 2)


def test_lift_of_identity():
    lift = cotangent_lift(catalog_get("identity", {"dim": 2}))
    p = (F(1, 4), F(0), F(1, 2), F(-1))
    jets = lift.eval_jet(p, 3)
    ident = [Jet.variable(4, 3, k, p[k]) for k in range(4)]
    assert jets_equal(jets, ident)


@pytest.mark.parametrize("name", ["polynomial_perturbation", "projective"])
def test_cotangent_lift_jets_match_sympy(name):
    # (f(x), Df(x)^-T xi) written by sympy from the family's definition and
    # expanded to order 3 at two phase points, against the lift's jets
    sp = pytest.importorskip("sympy")
    n, order = 2, 3
    params, comps = catalog_case(sp, name, n)
    xs, xis = sp.symbols(f"x0:{n}"), sp.symbols(f"xi0:{n}")
    jac = sp.Matrix([[sp.diff(c, x) for x in xs] for c in comps])
    fiber = (jac.adjugate() / jac.det()).T * sp.Matrix(xis)
    lift = cotangent_lift(catalog_get(name, {**params, "dim": n}))
    variables = xs + xis
    # by degree, so that each multi-index comes after its predecessor
    indices = sorted((b for b in itertools.product(range(order + 1), repeat=2 * n)
                      if sum(b) <= order), key=sum)
    for point in [(F(1, 3), F(-2, 5), F(1, 2), F(-3)), (F(3, 4), F(1, 6), F(-2, 3), F(5, 4))]:
        jets = lift.eval_jet(point, order)
        at = dict(zip(variables, map(sp.Rational, point)))
        for expr, j in zip(comps + list(fiber), jets):
            # d^b expr / b!, each derivative taken from its predecessor's
            derivs = {indices[0]: expr}
            for b in indices[1:]:
                k = next(a for a, e in enumerate(b) if e)
                pred = b[:k] + (b[k] - 1,) + b[k + 1:]
                derivs[b] = sp.diff(derivs[pred], variables[k])
                want = derivs[b].xreplace(at) / sp.Mul(*[sp.factorial(e) for e in b])
                assert j.coefficient(b) == F(int(want.p), int(want.q)), (point, b)
            assert j.value == F(*map(int, sp.fraction(expr.xreplace(at))))


def symplectic_defect(lift_jacobian, n):
    om = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        om[i][n + i] = 1
        om[n + i][i] = -1
    J = lift_jacobian
    d = 2 * n
    worst = 0
    for i in range(d):
        for j in range(d):
            got = sum(J[a][i] * om[a][b] * J[b][j] for a in range(d) for b in range(d))
            worst = max(worst, abs(got - om[i][j]))
    return worst


def test_lift_jacobians_symplectic_exact():
    rng = random.Random(23)
    maps2 = [
        catalog_get("projective", {"dim": 2}),
        catalog_get("polynomial_perturbation", {"dim": 2, "eps": F(1, 8)}),
        catalog_get("affine", {"dim": 2, "A": [[1, 1], [0, 1]], "b": [F(1, 4), 0]}),
    ]
    for f in maps2:
        lift = cotangent_lift(f)
        for _ in range(4):
            z = rand_point(rng, 4)
            if f.jacobian_det(z[:2]) == 0:
                continue
            assert symplectic_defect(lift.jacobian(z), 2) == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lift_jacobian_inverse_is_the_eliminated_inverse(n):
    # the signed transpose equals the cofactor inverse slot for slot, and inverts J
    points = [(F(1, 4), F(-1, 3), F(1, 5))[:n] + (F(2, 3), F(-1, 2), F(3, 7))[:n],
              (F(-1, 8), F(1, 6), F(-2, 9))[:n] + (F(1, 2), F(5, 4), F(-1, 3))[:n]]
    for name, params in default_map_pool(n, "exact"):
        lift = cotangent_lift(catalog_get(name, dict(params, dim=n)))
        for z in points:
            fj = lift.eval_jet(z, 3)
            jac = [[fj[a].partial(i) for i in range(2 * n)] for a in range(2 * n)]
            inv = lift.jacobian_inverse(jac)
            ref = mat_inv(jac)
            for k in range(2 * n):
                for c in range(2 * n):
                    assert inv[k][c].coeffs == ref[k][c].coeffs, (name, z, k, c)
                    product = dot(((jac[k][a], inv[a][c]) for a in range(2 * n)),
                                  Jet.zero(2 * n, 2))
                    assert product == Jet.constant(2 * n, 2, int(k == c))


def test_lift_functoriality_on_jets():
    rng = random.Random(29)
    f = catalog_get("projective", {"dim": 2})
    h = catalog_get("polynomial_perturbation", {"dim": 2, "eps": F(1, 8)})
    for _ in range(4):
        z = rand_point(rng, 4)
        if h.jacobian_det(z[:2]) == 0 or f.jacobian_det(h(z[:2])) == 0:
            continue
        lhs = cotangent_lift(compose(f, h)).eval_jet(z, 3)
        rhs = compose(cotangent_lift(f), cotangent_lift(h)).eval_jet(z, 3)
        assert jets_equal(lhs, rhs)


def test_lift_of_inverse_is_inverse_of_lift():
    f = catalog_get("moebius", {"a": 2, "b": 1, "c": 1, "d": 1})
    x0 = (F(1, 3),)
    z0 = (F(1, 3), F(2))
    lift = cotangent_lift(f)
    z1 = lift(z0)
    a = lift.invert(z0).eval_jet(z1, 3)
    b = cotangent_lift(f.invert(x0)).eval_jet(z1, 3)
    assert jets_equal(a, b)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", ["polynomial_perturbation", "projective"])
def test_lift_inverse_jets_equal_the_reversion_of_the_lift(name, n):
    # the lift of the base's inverse against the 2n-dim reversion of the
    # lift's own jets, which shares no code with it past the lift's jets
    f = catalog_get(name, {"dim": n})
    lift = cotangent_lift(f)
    for z in [(F(1, 4), F(-1, 3))[:n] + (F(2, 3), F(-1, 2))[:n],
              (F(-1, 8), F(1, 6))[:n] + (F(1, 2), F(5, 4))[:n]]:
        for order in range(4):
            got = inverse_jets(lift, z, order)
            ref = jet_invert([j - j.value for j in lift.eval_jet(z, max(order, 1))])
            assert got == [g.truncated(order) for g in ref], (z, order)


def embedded_dot_lift(f, z, order):
    """A lift's jets as the phase-space construction makes them: the inverse
    base Jacobian entries embedded in 2n variables, times the fiber
    variables, summed by ``dot`` onto a zero jet."""
    n = f.dim
    fj = f.eval_jet(z[:n], order + 1)
    inv = mat_inv([[fj[a].partial(i) for i in range(n)] for a in range(n)])
    axes = list(range(n))
    xi_vars = [Jet.variable(2 * n, order, n + i, z[n + i]) for i in range(n)]
    lifted = [[None if e.is_zero() else e.embed(2 * n, axes) for e in row] for row in inv]
    return ([fj[a].truncated(order).embed(2 * n, axes) for a in range(n)]
            + [dot(((lifted[i][j], xi_vars[i]) for i in range(n)), Jet.zero(2 * n, order))
               for j in range(n)])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("backend", ["exact", "float"])
def test_lift_jets_equal_the_embedded_dot_construction(backend, n):
    # slot for slot and type for type: an exact slot keeps int or Fraction
    # as an exact dot makes it, and a float adds as dot adds it; fibers with
    # fractional, integral and zero coordinates, and the fiber origin
    num = float if backend == "float" else F
    x = (F(1, 8), F(-1, 4), F(1, 16))[:n]
    fibers = [(F(1, 2), F(-3, 8), F(5, 8)), (F(1), F(-1, 2), F(2)), (F(0), F(3, 4), F(-1)),
              (F(0),) * 3]
    for name, params in default_map_pool(n, backend):
        f = catalog_get(name, {**params, "dim": n})
        for xi in fibers:
            z = tuple(map(num, x + xi[:n]))
            for order in range(4):
                got = cotangent_lift(f).eval_jet(z, order)
                want = embedded_dot_lift(f, z, order)
                assert [list(map(repr, j.coeffs)) for j in got] \
                    == [list(map(repr, j.coeffs)) for j in want], (name, z, order)


def test_dropped_lifts_and_local_inverses_are_freed_at_once():
    # no map holds a bound method of itself, so none is a reference cycle
    f = catalog_get("projective", {"dim": 2})
    x, xi = (F(1, 8), F(-1, 4)), (F(1, 2), F(-3, 8))
    makers = [(lambda: cotangent_lift(f), x + xi), (lambda: f.invert(x), f(x)),
              (lambda: cotangent_lift(f.invert(x)), f(x) + xi)]
    gc.disable()
    try:
        for make, at in makers:
            m = make()
            m.eval_jet(at, 2)
            ref = weakref.ref(m)
            del m
            assert ref() is None, at
    finally:
        gc.enable()


# -- vector fields and flows -------------------------------------------------


def test_bracket_antisymmetric_and_jacobi():
    rng = random.Random(31)

    def rand_field(tag):
        comps = []
        for i in range(2):
            terms = {}
            for m in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
                k = rng.randint(-3, 3)
                if k:
                    terms[m] = F(k, 4)
            comps.append(Polynomial(2, terms))
        return VectorField.from_polynomials(comps, name=tag)

    X, Y, Z = rand_field("X"), rand_field("Y"), rand_field("Z")
    p = (F(1, 3), F(-1, 2))
    xy = X.bracket(Y)
    yx = Y.bracket(X)
    assert all((a + b).is_zero() for a, b in zip(xy.eval_jet(p, 2), yx.eval_jet(p, 2)))
    jac = X.bracket(Y.bracket(Z)).eval_jet(p, 1)
    jac2 = Y.bracket(Z.bracket(X)).eval_jet(p, 1)
    jac3 = Z.bracket(X.bracket(Y)).eval_jet(p, 1)
    assert all((a + b + c).is_zero() for a, b, c in zip(jac, jac2, jac3))


def rand_rational_field(rng, dim, tag, max_deg=3, nterms=4):
    comps = []
    for _ in range(dim):
        terms = {}
        for _ in range(nterms):
            m = tuple(rng.randint(0, max_deg) for _ in range(dim))
            if sum(m) <= max_deg:
                terms[m] = F(rng.randint(-9, 9), rng.choice([1, 2, 3, 5]))
        comps.append(Polynomial(dim, terms))
    return VectorField.from_polynomials(comps, name=tag)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bracket_matches_sympy(dim):
    # [X,Y]^i = X^a d_a Y^i - Y^a d_a X^i formed by sympy on the polynomials,
    # then expanded at point + u; nothing here goes through the jet kernel
    sp = pytest.importorskip("sympy")
    rng = random.Random(70 + dim)
    xs = sp.symbols(f"x0:{dim}")
    us = sp.symbols(f"u0:{dim}")

    def expr(poly):
        return sp.Add(*[sp.Rational(c.numerator, c.denominator) * sp.Mul(*[x ** e for x, e in zip(xs, m)])
                        for m, c in poly.terms.items()])

    for _ in range(2):
        X, Y = rand_rational_field(rng, dim, "X"), rand_rational_field(rng, dim, "Y")
        ex, ey = [expr(c) for c in X.components], [expr(c) for c in Y.components]
        point = rand_point(rng, dim, denom=rng.choice([3, 4, 7]))
        shift = {x: sp.Rational(p.numerator, p.denominator) + u for x, p, u in zip(xs, point, us)}
        expect = []
        for i in range(dim):
            z = sp.Add(*[ex[a] * sp.diff(ey[i], xs[a]) - ey[a] * sp.diff(ex[i], xs[a])
                         for a in range(dim)])
            shifted = sp.Poly(sp.expand(z.subs(shift, simultaneous=True)), *us).as_dict()
            expect.append({b: F(int(c.p), int(c.q)) for b, c in shifted.items()})
        bracket = X.bracket(Y)
        for order in range(4):
            got = bracket.eval_jet(point, order)
            assert [(j.dim, j.order) for j in got] == [(dim, order)] * dim
            for i in range(dim):
                for b in itertools.product(range(order + 1), repeat=dim):
                    if sum(b) <= order:
                        assert got[i].coefficient(b) == expect[i].get(b, 0), (i, b, order)


def test_bracket_evaluates_each_field_once_one_order_up(monkeypatch):
    rng = random.Random(5)
    X, Y, Z = (rand_rational_field(rng, 2, tag) for tag in "XYZ")
    calls = []
    for field in (X, Y, Z):
        def recorded(point, order, field=field, inner=field.eval_jet):
            calls.append((field.name, order))
            return inner(point, order)
        monkeypatch.setattr(field, "eval_jet", recorded)
    p = (F(1, 3), F(-1, 2))
    X.bracket(Y).eval_jet(p, 2)
    assert sorted(calls) == [("X", 3), ("Y", 3)]
    calls.clear()
    X.bracket(Y.bracket(Z)).eval_jet(p, 1)
    assert sorted(calls) == [("X", 2), ("Y", 3), ("Z", 3)]


def test_flow_of_constant_field_is_translation():
    X = VectorField.from_polynomials([Polynomial.constant(1, 0.75)])
    f = flow_map(X, 0.5)
    assert abs(f((1.0,))[0] - 1.375) < 1e-12
    assert abs(f.jacobian((1.0,))[0][0] - 1.0) < 1e-12


def test_flow_of_euler_field_is_exponential():
    X = VectorField.from_polynomials([Polynomial.coordinate(1, 0)])
    f = flow_map(X, 0.5)
    assert abs(f((1.0,))[0] - math.exp(0.5)) < 1e-9
    assert abs(f.jacobian((1.0,))[0][0] - math.exp(0.5)) < 1e-9


def test_flow_group_property():
    X = VectorField.from_polynomials([Polynomial(1, {(2,): 0.5})])
    f_s = flow_map(X, 0.2)
    f_t = flow_map(X, 0.3)
    f_st = flow_map(X, 0.5)
    x = (0.4,)
    lhs = f_st(x)[0]
    rhs = f_s(f_t(x))[0]
    assert abs(lhs - rhs) < 1e-9


def test_flow_rejects_bad_steps():
    X = VectorField.from_polynomials([Polynomial.coordinate(1, 0)])
    with pytest.raises(ValueError):
        flow_map(X, 1.0, steps=0)


def test_flow_rejects_orders_above_what_it_carries():
    f = flow_map(VectorField.from_polynomials([Polynomial.coordinate(1, 0)]), 0.5, steps=4)
    assert f.eval_jet((1.0,), FLOW_ORDER)[0].order == FLOW_ORDER
    with pytest.raises(JetShapeError, match="order 3"):
        f.eval_jet((1.0,), FLOW_ORDER + 1)
    # the jets kept at the point still serve the orders the flow carries
    assert f.eval_jet((1.0,), 1)[0].order == 1


# -- the jets a map keeps at its last point ------------------------------------


def counted(m):
    """Record the (point, order) of each call to the map's jet recipe."""
    calls, recipe = [], m._jet_fn

    def jet_fn(point, order):
        calls.append((point, order))
        return recipe(point, order)

    m._jet_fn = jet_fn
    return calls


@pytest.mark.parametrize("make", [
    lambda: catalog_get("projective", {"dim": 2}),
    lambda: cotangent_lift(catalog_get("polynomial_perturbation", {"dim": 2, "eps": F(1, 8)})),
    lambda: compose(catalog_get("projective", {"dim": 2}), catalog_get("linear", {"dim": 2})),
])
def test_eval_jet_serves_a_lower_order_from_the_jets_kept(make):
    m = make()
    calls = counted(m)
    z = (F(1, 3), F(-1, 4), F(2), F(1, 2))[:m.dim]
    high = m.eval_jet(z, 4)
    low = m.eval_jet(z, 2)
    assert low == [j.truncated(2) for j in high] == make().eval_jet(z, 2)
    assert m(z) == tuple(j.value for j in high)
    assert calls == [(z, 4)]
    m.eval_jet(z, 5)  # a higher order is made afresh, and kept
    m.eval_jet(z, 3)
    assert calls == [(z, 4), (z, 5)]


def test_eval_jet_keys_on_the_scalar_types_of_the_point():
    m = cotangent_lift(catalog_get("moebius", {"a": 2, "b": 1, "c": 1, "d": 1}))
    exact = m.eval_jet((F(1, 2), F(3, 4)), 3)
    floats = m.eval_jet((0.5, 0.75), 2)
    assert any(isinstance(c, Fraction) for j in exact for c in j.coeffs)
    assert all(type(j.value) is float for j in floats)
    assert not any(isinstance(c, Fraction) for j in floats for c in j.coeffs)
    assert jets_equal(floats, [j.truncated(2) for j in exact], tol=1e-12)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_inverse_raises_away_from_its_image_after_a_kept_jet(backend):
    f = catalog_get("polynomial_perturbation", {"eps": F(1, 8)})
    at, step = (F(1, 4),), F(1, 64)
    if backend == "float":
        at, step = (0.25,), 1 / 64
    inv = f.invert(at)
    image = f(at)
    inv.eval_jet(image, 3)
    assert inv.eval_jet(image, 1)[0].value == at[0]
    with pytest.raises(EvaluationError):
        inv.eval_jet((image[0] + step,), 1)
    assert inv(image) == at
