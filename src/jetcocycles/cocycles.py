"""Classical 1-cocycles on diffeomorphism groups and vector fields, plus a
generic identity-verification engine.

Group-level candidates package an evaluator together with the module action
appearing in their cocycle identity

    c(f o h) = h . c(f) + c(h)

and report a per-point residual; on the exact backend the residual of a true
cocycle is literally zero.  Action conventions are fixed per candidate and
certified by the engine (identity acts trivially, actions compose) before
the identity itself is trusted; a deliberately sabotaged candidate is kept
around as a self-test that the engine can see a broken convention.

Algebra-level candidates verify  c([X, Y]) = X . c(Y) - Y . c(X)  with the
Lie-derivative action on their value arena.  The two levels are linked
exactly: the derivative at eps = 0 of a group cocycle along id + eps X is the
eps-slot of its jet at (x, 0) along the suspension S(x, eps) = (x + eps X(x),
eps), and it must equal the algebra cocycle of X.  The flow-based
finite-difference bridge ``group_algebra_consistency`` is a float library
and test helper that ``verify`` does not use.

The flat phase-space trilinear term ``moyal_p3`` (the third-order term of
the star product in Darboux coordinates, normalization omitted as a global
scale) doubles as the value of the embedding cocycle on fiber-linear
functions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .jets import (
    BAD_POINT_ERRORS,
    Jet,
    JetShapeError,
    Polynomial,
    Scalar,
    _ScalarField,
    _exact_div,
    dot,
    mat_det,
    monomials,
    partial_or_none,
)
from .maps import DiffeoMap, VectorField, compose, cotangent_lift, flow_map, suspension
from .geometry import (
    Connection,
    TensorField21,
    _factorial_midx,
    _max_abs_entry,
    cocycle_C,
    lift_connection,
    pullback_tensor,
)
from .operators import (
    Symbol,
    _symbol_from_phase_jet,
    act_on_operator,
    build_L_covariant,
)

__all__ = [
    "DomainError",
    "CaseResult",
    "passes",
    "run_case",
    "verify_group_cocycle",
    "log_volume_cocycle",
    "derham_cocycle",
    "derham_quadrature",
    "schwarzian_1d",
    "divergence_cocycle",
    "divergence_field",
    "scalar_field_action",
    "lie_derivative_connection",
    "tensor_lie_derivative",
    "algebra_cocycle_residual",
    "poisson_bracket",
    "moyal_p3",
    "chevalley_p3_residual",
    "vect_embedding_cocycle",
    "suspension_log_volume",
    "suspension_connection",
    "group_algebra_consistency",
    "LogVolumeCocycle",
    "DeRhamCocycle",
    "SchwarzianCocycle",
    "ConnectionCompareCocycle",
    "PhaseCompareCocycle",
    "OperatorCocycle",
    "SabotagedPhaseCompare",
]


class DomainError(ValueError):
    """Input outside a cocycle's domain (orientation, critical point)."""


# ---------------------------------------------------------------------------
# scalar-valued classical cocycles


def log_volume_cocycle(f: DiffeoMap, x: tuple) -> float:
    """Logarithm of the volume distortion at a point; det Df must be > 0."""
    det = f.jacobian_det(x)
    if float(det) <= 0:
        raise DomainError(f"{f.name}: det Df = {det} is not positive at {x}")
    return math.log(float(det))


def derham_cocycle(potential: Polynomial, f: DiffeoMap, x: tuple) -> Scalar:
    """Potential difference along the displacement, the exact-form case of
    the path-integral cocycle on simply connected charts."""
    return potential(f(x)) - potential(tuple(x))


def derham_quadrature(potential: Polynomial, f: DiffeoMap, x: tuple) -> Scalar:
    """Integral of d(potential) along the straight segment from x to f(x).

    With v = f(x) - x and c_m the Taylor coefficients of a partial at x, the
    partial along the segment is sum_m c_m v^m t^|m|, integrated term by term
    with int_0^1 t^k dt = 1/(k + 1); exact for exact inputs.  Path
    independence makes it agree with :func:`derham_cocycle`; it is kept as a
    witness, built from the gradient, that the integrand really is closed.
    """
    a = tuple(x)
    v = [bi - ai for ai, bi in zip(a, f(a))]
    order = max(max(map(sum, potential.terms), default=0) - 1, 0)
    weights = [_exact_div(math.prod(vk ** e for vk, e in zip(v, m)), sum(m) + 1)
               for m in monomials(f.dim, order)]
    total = 0
    for i in range(f.dim):
        g = potential.partial(i).jet(a, order)
        total = total + v[i] * sum(c * w for c, w in zip(g.coeffs, weights) if c)
    return total


def schwarzian_1d(f: DiffeoMap, x: tuple) -> Scalar:
    """Classical third-order distortion of a 1D map; zero exactly on the
    fractional-linear family."""
    if f.dim != 1:
        raise JetShapeError("schwarzian_1d needs a 1-dimensional map")
    j = f.eval_jet(x, 3)[0]
    f1 = j.coefficient((1,))
    if f1 == 0:
        raise DomainError(f"{f.name}: critical point at {x}")
    if isinstance(f1, int):
        f1 = Fraction(f1)
    f2 = 2 * j.coefficient((2,))
    f3 = 6 * j.coefficient((3,))
    ratio = f2 / f1
    return f3 / f1 - Fraction(3, 2) * ratio * ratio


# ---------------------------------------------------------------------------
# algebra-level cocycles


def divergence_field(X: VectorField) -> _ScalarField:
    def fn(point, order):
        xj = X.eval_jet(point, order + 1)
        out = Jet.zero(X.dim, order)
        for i in range(X.dim):
            out = out + xj[i].partial(i)
        return out

    return _ScalarField(X.dim, fn)


def divergence_cocycle(X: VectorField, x: tuple) -> Scalar:
    """div X at ``x``: the algebra cocycle that ``suspension_log_volume``
    checks as d/d eps of log det D(id + eps X)."""
    return divergence_field(X).jet(x, 0).value


def _lie_derivative_components(X: VectorField, field, point: tuple, order: int,
                               with_second_derivative: bool) -> list:
    """[k][i][j] jets of X^a d_a T^k_ij - d_a X^k T^a_ij + d_i X^a T^k_aj
    + d_j X^a T^k_ia; with the second-derivative term d_i d_j X^k of a
    connection, each component starts from it.  The Lie derivative of a
    field symmetric in its lower pair is symmetric too, so for such a field
    (every connection) the components with i <= j are computed and the rest
    mirrored; an asymmetric field's are all computed."""
    d = field.dim
    xj = X.eval_jet(point, order + (2 if with_second_derivative else 1))
    tj = field.components(point, order + 1)
    t0 = [[[e.truncated(order) for e in row] for row in plane] for plane in tj]
    dX1 = [[partial_or_none(x, a) for a in range(d)] for x in xj]
    dX = [[None if e is None else e.truncated(order) for e in row] for row in dX1]
    neg_dX = [[None if e is None else -e for e in row] for row in dX]
    xs = [x.truncated(order) for x in xj]
    zero = Jet.zero(d, order)
    out = [[[None] * d for _ in range(d)] for _ in range(d)]
    for k in range(d):
        for i in range(d):
            for j in range(d):
                if field.symmetric and j < i:
                    out[k][i][j] = out[k][j][i]
                    continue
                dt = [partial_or_none(tj[k][i][j], a) for a in range(d)]
                second = partial_or_none(dX1[k][i], j) if with_second_derivative else None
                out[k][i][j] = dot(
                    [pair for a in range(d)
                     for pair in ((xs[a], dt[a]), (neg_dX[k][a], t0[a][i][j]),
                                  (dX[a][i], t0[k][a][j]), (dX[a][j], t0[k][i][a]))],
                    zero if second is None else second)
    return out


def lie_derivative_connection(X: VectorField, gamma: Connection) -> TensorField21:
    """Lie derivative of a connection along a vector field, as a field:
    transport of the Christoffel data plus the second-derivative term."""

    def fn(point, order):
        return _lie_derivative_components(X, gamma, point, order, with_second_derivative=True)

    return TensorField21(gamma.dim, fn, name=f"L_{X.name}({gamma.name})", symmetric=True)


def tensor_lie_derivative(X: VectorField, tensor: TensorField21) -> TensorField21:
    """Lie derivative of a (2,1)-tensor field along a vector field."""

    def fn(point, order):
        return _lie_derivative_components(X, tensor, point, order, with_second_derivative=False)

    return TensorField21(tensor.dim, fn, name=f"L_{X.name}[{tensor.name}]",
                         symmetric=tensor.symmetric)


def algebra_cocycle_residual(cocycle: Callable, action: Callable,
                             X: VectorField, Y: VectorField, point: tuple) -> Scalar:
    """Residual of c([X,Y]) - X.c(Y) + Y.c(X) at a point.

    ``cocycle`` maps a vector field to a value field (scalar or tensor);
    ``action`` maps (vector field, value field) to a value field.
    """
    lhs = cocycle(X.bracket(Y))
    rhs_x = action(X, cocycle(Y))
    rhs_y = action(Y, cocycle(X))
    return _field_max_abs_diff(lhs, rhs_x, rhs_y, point)


def _field_max_abs_diff(lhs, pos, neg, point) -> Scalar:
    if isinstance(lhs, TensorField21):
        # the actions read their field at one order above lhs, so evaluated
        # first they leave jets that lhs is served by truncation
        b, c = pos.values(point), neg.values(point)
        a = lhs.values(point)
        return _max_abs_entry(lhs.dim, lambda k, i, j: a[k][i][j] - b[k][i][j] + c[k][i][j])
    av = lhs.jet(point, 0).value
    bv = pos.jet(point, 0).value
    cv = neg.jet(point, 0).value
    return abs(av - bv + cv)


def scalar_field_action(X: VectorField, value_field) -> _ScalarField:
    """Directional derivative of a scalar field along a vector field."""

    def fn(point, order):
        vj = value_field.jet(point, order + 1)
        xj = X.eval_jet(point, order)
        return dot(((xj[i], vj.partial(i)) for i in range(X.dim)), Jet.zero(X.dim, order))

    return _ScalarField(X.dim, fn)


# ---------------------------------------------------------------------------
# flat phase-space trilinear term and the embedding cocycle


def poisson_bracket(F, G):
    """Canonical bracket of two phase-space jet providers, lazily."""

    def fn(point, order):
        n = F.dim // 2
        fj = F.jet(point, order + 1)
        gj = G.jet(point, order + 1)
        # a derivative of a zero jet is None, which dot skips
        f1 = [partial_or_none(fj, a) for a in range(F.dim)]
        g1 = [partial_or_none(gj, a) for a in range(F.dim)]
        return dot([pair for i in range(n)
                    for pair in ((f1[i], g1[n + i]),
                                 (None if f1[n + i] is None else -f1[n + i], g1[i]))],
                   Jet.zero(F.dim, order))

    return _ScalarField(F.dim, fn)


def moyal_p3(F, G, point: tuple, order: int = 0):
    """Third-order bidifferential term of the flat star product.

    Triple bivector contraction of third derivatives; antisymmetric in its
    arguments.  A term is symmetric in its three index slots, so the sum
    runs over unordered triples i <= j <= k, each weighed by the number of
    its orderings (1, 3 or 6): 56 pairs of third derivatives at dim 6, not
    216.  With ``order`` > 0 the value is returned as a jet, which the
    2-cocycle identity check consumes.  The 1/3! series normalization is
    omitted throughout, a global scale with no effect on any identity.
    """
    d = len(point)
    n = d // 2
    fj = F.jet(point, order + 3)
    gj = G.jet(point, order + 3)

    # The bivector pairs slot i with slot (i + n) % d; its sign is -1 on a
    # fiber slot, so a term is negative when an odd number of i, j, k are
    # fiber slots.
    # A derivative of a zero jet is None, and so are all of its own.
    f1 = [partial_or_none(fj, i) for i in range(d)]
    g1 = [partial_or_none(gj, (i + n) % d) for i in range(d)]

    def terms():  # one pair alive at a time: the third-order jets are large
        for i in range(d):
            f2 = [partial_or_none(f1[i], j) if j >= i else None for j in range(d)]
            g2 = [partial_or_none(g1[i], (j + n) % d) if j >= i else None for j in range(d)]
            for j in range(i, d):
                for k in range(j, d):
                    f3 = partial_or_none(f2[j], k)
                    if f3 is None or f3.is_zero():
                        continue
                    g3 = partial_or_none(g2[j], (k + n) % d)
                    if g3 is None:
                        continue
                    weight = (1, 3, 6)[len({i, j, k}) - 1]
                    if ((i < n) == (j < n)) != (k < n):
                        weight = -weight
                    f3 = f3.truncated(order)
                    yield (f3 if weight == 1 else f3 * weight), g3.truncated(order)

    out = dot(terms(), Jet.zero(d, order))
    return out.value if order == 0 else out


def chevalley_p3_residual(F, G, H, point: tuple) -> Scalar:
    """Cyclic 2-cocycle defect of the trilinear term over the bracket."""
    total = 0
    for A, B, C in ((F, G, H), (G, H, F), (H, F, G)):
        t1 = moyal_p3(poisson_bracket(A, B), C, point)
        p3 = _ScalarField(B.dim, lambda z, order: moyal_p3(B, C, z, order))
        t2 = poisson_bracket(A, p3).jet(point, 0).value
        total = total + (t1 - t2)
    return abs(total)


def vect_embedding_cocycle(X: VectorField, P: Symbol, x: tuple) -> Symbol:
    """Value of the flat embedding cocycle: pair the fiber-linear function of
    a vector field with a symbol through the trilinear term."""
    n = X.dim
    if P.n != n:
        raise JetShapeError("vector field and symbol dimensions differ")
    comps = getattr(X, "components", None)  # a bracket has jets only
    if comps is None or not all(isinstance(c, Polynomial) for c in comps):
        raise JetShapeError("polynomial vector fields expected")
    k = P.degree()
    if k < 0:
        return Symbol(n, {})
    unit = [tuple(1 if a == i else 0 for a in range(n)) for i in range(n)]
    F = Symbol(n, {unit[i]: comps[i] for i in range(n)})
    mo = k + 1
    point = tuple(x) + (0,) * n
    out_jet = moyal_p3(F, P, point, order=mo)
    return _symbol_from_phase_jet(out_jet, n, tuple(x))


# ---------------------------------------------------------------------------
# the verification engine


@dataclass
class CaseResult:
    suite: str
    case_id: str
    maps: list[str]
    point: tuple
    residual: Scalar | None
    passed: bool
    error: str | None = None
    witness: bool = False  # value asserts nonvanishing, not a defect size
    # seconds spent in the residual; kept out of the record and of ==
    seconds: float | None = field(default=None, compare=False)

    def as_record(self) -> dict:
        return {
            "suite": self.suite,
            "case_id": self.case_id,
            "maps": list(self.maps),
            "point": [str(c) for c in self.point],
            "residual": None if self.residual is None else _residual_str(self.residual),
            "pass": self.passed,
            "error": self.error,
            "witness": self.witness,
        }


def passes(residual: Scalar, tol: float) -> bool:
    """Pass rule of a case: residual exactly 0 when ``tol`` is 0 (the exact
    backend), otherwise |residual| at most ``tol``."""
    return bool(residual == 0) if tol == 0 else float(abs(residual)) <= tol


def run_case(suite: str, case_id: str, maps: Sequence[str], point: tuple,
             residual_fn: Callable[[], Scalar], tol: float,
             witness: bool = False) -> CaseResult:
    """Evaluate one case and judge it.

    An ordinary case passes by :func:`passes`; a witness asserts that its
    residual does not vanish, so it passes exactly when the residual is a
    number that fails :func:`passes`.  A bad point becomes an error row; a
    shape mismatch is a bug and propagates.  The case keeps the seconds its
    residual took, an error row's included.
    """
    maps, point = list(maps), tuple(point)
    started = time.perf_counter()
    try:
        r = residual_fn()
    except JetShapeError:
        raise
    except BAD_POINT_ERRORS as exc:
        return CaseResult(suite, case_id, maps, point, None, False,
                          error=f"{type(exc).__name__}: {exc}", witness=witness,
                          seconds=time.perf_counter() - started)
    seconds = time.perf_counter() - started
    ok = passes(r, tol)
    if witness:
        ok = bool(r == r) and not ok  # r != r only for NaN, which witnesses nothing
    return CaseResult(suite, case_id, maps, point, r, ok, witness=witness, seconds=seconds)


def _residual_str(r: Scalar) -> str:
    # float() prints a float subclass as a plain float
    return repr(float(r)) if isinstance(r, float) else str(r)


class GroupCocycleCandidate:
    """Base class: subclasses provide value/action through ``residual``."""

    name = "cocycle"

    def residual(self, f: DiffeoMap, h: DiffeoMap, point: tuple) -> Scalar:
        raise NotImplementedError


def verify_group_cocycle(candidate: GroupCocycleCandidate, f: DiffeoMap,
                         h: DiffeoMap, points: Sequence[tuple], tol: float,
                         suite: str | None = None) -> list[CaseResult]:
    """Residual of the cocycle identity for one pair at several points.

    A point passes when the residual is at most ``tol`` (zero for the exact
    backend); evaluation failures are recorded per point without aborting
    the rest.
    """
    suite = suite or candidate.name
    return [run_case(suite, f"{candidate.name}[{f.name},{h.name}]@{idx}",
                     [f.name, h.name], p, lambda: candidate.residual(f, h, tuple(p)), tol)
            for idx, p in enumerate(points)]


class LogVolumeCocycle(GroupCocycleCandidate):
    """c(f)(x) = log det Df(x) with the evaluate-at-image action."""

    name = "log_volume"

    def residual(self, f, h, point):
        lhs = log_volume_cocycle(compose(f, h), point)
        mid = h(point)
        return abs(lhs - log_volume_cocycle(f, mid) - log_volume_cocycle(h, point))


class DeRhamCocycle(GroupCocycleCandidate):
    """Potential-difference cocycle for an exact 1-form."""

    name = "derham"

    def __init__(self, potential: Polynomial):
        self.potential = potential

    def residual(self, f, h, point):
        lhs = derham_cocycle(self.potential, compose(f, h), point)
        mid = h(point)
        rhs = derham_cocycle(self.potential, f, mid) + derham_cocycle(self.potential, h, point)
        return abs(lhs - rhs)


class SchwarzianCocycle(GroupCocycleCandidate):
    """1D third-order cocycle with the weight-two action."""

    name = "schwarzian"

    def residual(self, f, h, point):
        lhs = schwarzian_1d(compose(f, h), point)
        mid = h(point)
        hj = h.eval_jet(point, 1)[0]
        h1 = hj.coefficient((1,))
        rhs = schwarzian_1d(f, mid) * h1 * h1 + schwarzian_1d(h, point)
        return abs(lhs - rhs)


class ConnectionCompareCocycle(GroupCocycleCandidate):
    """Connection-difference cocycle C(f) = f*G - G with the tensor pullback
    action, C(f o h) = h*C(f) + C(h), on the base manifold."""

    name = "connection_ell"

    def __init__(self, gamma: Connection):
        self.gamma = gamma

    def _maps(self, f, h):
        """The maps standing for f, h and f o h in the identity."""
        return f, h, compose(f, h)

    def _acted(self, c_f: TensorField21, H: DiffeoMap, point) -> list:
        """Values of h . C(f) at the point."""
        return pullback_tensor(H, c_f).values(point)

    def residual(self, f, h, point):
        F, H, FH = self._maps(f, h)
        lhs = cocycle_C(FH, self.gamma).values(point)
        acted = self._acted(cocycle_C(F, self.gamma), H, point)
        own = cocycle_C(H, self.gamma).values(point)
        return _max_abs_entry(FH.dim, lambda k, i, j: lhs[k][i][j] - acted[k][i][j] - own[k][i][j])


class PhaseCompareCocycle(ConnectionCompareCocycle):
    """Comparison tensor of lifted maps against the lifted connection on
    phase space; points are phase points."""

    name = "cocycle_C"

    def __init__(self, gamma: Connection):
        super().__init__(lift_connection(gamma))

    def _maps(self, f, h):
        return cotangent_lift(f), cotangent_lift(h), cotangent_lift(compose(f, h))


class SabotagedPhaseCompare(PhaseCompareCocycle):
    """Deliberately wrong action (no Jacobian transport): the engine must
    flag a nonzero residual on nonlinear pairs."""

    name = "cocycle_C_sabotaged"

    def _acted(self, c_f, H, point):
        return c_f.values(H(point))  # missing transport


class OperatorCocycle(GroupCocycleCandidate):
    """The third-order operator cocycle, compared in applied form.

    The two sides are read on every monomial jet of order up to three, where
    an operator ``sum c_m d^m`` reads ``c_m * m!`` off its coefficients, and
    applied to a pair of deterministic dense jets, which spans the relevant
    jet space and sidesteps any coefficient-convention pitfalls.
    """

    name = "operator_L"

    def __init__(self, gamma: Connection):
        self.gamma = gamma

    def residual(self, f, h, point):
        d = 2 * f.dim
        hz = cotangent_lift(h)(point)
        lhs = build_L_covariant(compose(f, h), self.gamma, point)
        acted = act_on_operator(h, build_L_covariant(f, self.gamma, hz), point)
        own = build_L_covariant(h, self.gamma, point)
        diff = lhs - acted - own
        if diff.is_zero():
            return 0
        count = len(monomials(d, 3))
        dense = (Jet(d, 3, [Fraction(1, 1 + i) for i in range(count)]),
                 Jet(d, 3, [Fraction((-1) ** i, 2 + i) for i in range(count)]))

        def reads(op):
            return ([c * _factorial_midx(m) for m, c in op.coeffs.items()]
                    + [op.apply_to_jet(q) for q in dense])

        errs, vals = reads(diff), reads(lhs)
        worst = max(map(abs, errs))
        if any(isinstance(v, float) for v in errs + vals):
            return float(worst) / max(1.0, *(abs(float(v)) for v in vals))
        return worst


# ---------------------------------------------------------------------------
# group <-> algebra: exact derivatives along the suspension


def _eps_slot(jet: Jet) -> Scalar:
    """Coefficient of eps, the last variable, in a jet of order >= 1."""
    return jet.coefficient((0,) * (jet.dim - 1) + (1,))


def suspension_log_volume(X: VectorField, x: tuple) -> Scalar:
    """d/d eps of log det D(id + eps X) at x and eps = 0, exactly.

    It is the eps-slot of det DS at (x, 0), S = ``suspension(X)``, with no
    log, since det DS = 1 at eps = 0.  It equals ``divergence_cocycle(X, x)``.
    """
    n = X.dim
    sj = suspension(X).eval_jet(tuple(x) + (0,), 2)
    return _eps_slot(mat_det([[c.partial(j) for j in range(n + 1)] for c in sj]))


def suspension_connection(X: VectorField, x: tuple) -> list:
    """[k][i][j] values of d/d eps of C(id + eps X) against the flat
    connection at x and eps = 0, exactly.

    They are the eps-slots of the components k, i, j < n of C(S) at (x, 0),
    S = ``suspension(X)``, and equal the values of
    ``lie_derivative_connection(X, flat)``, d_i d_j X^k.
    """
    n = X.dim
    flat = Connection.flat_connection(n + 1)
    comps = cocycle_C(suspension(X), flat).components(tuple(x) + (0,), 1)
    return [[[_eps_slot(comps[k][i][j]) for j in range(n)] for i in range(n)]
            for k in range(n)]


# ---------------------------------------------------------------------------
# group <-> algebra consistency along flows (library and test helper)


def _nested_scale(v, s):
    if isinstance(v, list):
        return [_nested_scale(x, s) for x in v]
    return float(v) * s


def _nested_max_absdiff(a, b) -> float:
    if isinstance(a, list):
        return max((_nested_max_absdiff(x, y) for x, y in zip(a, b)), default=0.0)
    return abs(float(a) - float(b))


# integrator noise below which a consistency residual need not halve
CONSISTENCY_FLOOR = 1e-9


def group_algebra_consistency(X: VectorField, group_value: Callable,
                              algebra_value: Callable, t: float,
                              points: Sequence[tuple]) -> list[dict]:
    """Finite-difference bridge between a group cocycle and its algebra
    shadow along the flow of a vector field, on floats.  A library and test
    helper: ``verify`` checks the link exactly, with
    :func:`suspension_log_volume` and :func:`suspension_connection`.

    For each point the derivative estimate (c(f_t) - c(id))/t is compared to
    the algebra value at t and t/2; first-order convergence (the residual
    roughly halving, down to an integrator noise floor) is the pass
    criterion.  Values may be scalars or nested component tables.
    """
    rows = []
    for p in points:
        entry = {"point": [repr(float(c)) for c in p]}
        try:
            target = algebra_value(X, p)
            resid = []
            for tt in (t, t / 2):
                ft = flow_map(X, tt)
                fd = _nested_scale(group_value(ft, p), 1.0 / tt)
                resid.append(_nested_max_absdiff(fd, target))
            r_t, r_half = resid
            ok = r_half <= max(0.75 * r_t, CONSISTENCY_FLOOR)
            entry.update(residual_t=repr(r_t), residual_half=repr(r_half), passed=bool(ok))
        except JetShapeError:
            raise
        except BAD_POINT_ERRORS as exc:
            entry.update(passed=False, error=f"{type(exc).__name__}: {exc}")
        rows.append(entry)
    return rows
