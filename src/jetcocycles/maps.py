"""Diffeomorphisms of chart domains and their cotangent lifts.

Maps live on open subsets of R^n (or R^2n for phase-space maps); every
statement downstream is local, so a map is just a recipe producing jets of
its component functions at a requested point.  The builtin catalog covers
the rational families used by the exact backend plus an exponential family
for the float backend.  ``_affine`` builds ``x -> A x + b`` (identity,
translation, linear, affine) and ``_projective`` ``(A x + b) / (c.x + d)``
(projective, and moebius at n = 1), both from the same affine rows.

Fiber convention for the cotangent lift, with J = Df(x):

    f~(x, xi) = (f(x), J^{-T} xi),   i.e.  xi'_j = (dx^i/df^j) xi_i.

Base coordinates occupy slots 0..n-1 and fiber coordinates slots n..2n-1 on
phase space.  A local inverse has one anchor: it is evaluable at the image
of the point it was taken at, where it reverts the jets of its parent, and
nowhere else; :func:`inverse_jets` reads it.  The lift is functorial, so the
inverse of a lift is the lift of its base's inverse: only the n-dim base
map is ever reverted, never the 2n-dim lift.

Matrices go through the one cofactor rule of ``jets`` (``mat_inv``,
``mat_det``), whose cost grows as n!; nothing above 4 x 4 is inverted.  A
lift inverts its n x n base Jacobian jets, A = J^-1, and writes the slots
of its fiber jets from theirs: slot (a, 0) of xi'_j is sum_i A_ij[a] xi_i
and slot (a, e_i) is A_ij[a].  A map supplies the inverse of its Jacobian
jets to pullbacks through :meth:`DiffeoMap.jacobian_inverse`:
``mat_inv`` in general, and for a cotangent lift, which is symplectic, the
signed transpose ``J^-1 = -Omega J^T Omega`` with no arithmetic.  Each map
keeps the highest-order jets it has made at the last point it was asked
for (a ``jets.PointMemo``) and serves a lower order there by truncation, so
a pullback, a composition and a lift that evaluate one map at one point
make its jets once.  The memo lives as long as the map.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .jets import (
    _EXACT,
    EvaluationError,
    Jet,
    JetShapeError,
    PointMemo,
    Polynomial,
    Scalar,
    SingularJacobianError,
    _scalar_dot,
    dot,
    jet_compose,
    jet_invert,
    mat_det,
    mat_inv,
    monomial_index,
    monomials,
)

__all__ = [
    "DiffeoMap",
    "CotangentMap",
    "VectorField",
    "catalog_get",
    "catalog_entries",
    "compose",
    "cotangent_lift",
    "flow_map",
    "inverse_jets",
    "suspension",
]

Point = tuple


def _shifted(jets: Sequence[Jet]) -> list[Jet]:
    return [j - j.value for j in jets]


class DiffeoMap:
    """A smooth map of a chart domain, presented through its jets.

    ``jet_fn(point, order)`` returns the component jets at the point; the
    map is a local diffeomorphism wherever its Jacobian is invertible, which
    callers are expected to arrange through sampling.  A subclass passes no
    ``jet_fn`` and defines a ``_jet_fn`` method instead, so that no map
    holds a bound method of itself and a dropped map is freed at once.
    ``orientation_preserving`` is set by the catalog constructors only:
    True or False where the sign of det Df is known everywhere, else None,
    as on every composition, inverse, lift and flow.
    """

    def __init__(
        self,
        dim: int,
        jet_fn: Callable[[Point, int], list[Jet]] | None,
        name: str = "map",
        params: dict | None = None,
        orientation_preserving: bool | None = None,
    ):
        self.dim = dim
        if jet_fn is not None:
            self._jet_fn = jet_fn
        self.name = name
        self.params = params or {}
        self.orientation_preserving = orientation_preserving
        self._memo = PointMemo()

    def eval_jet(self, point: Point, order: int) -> list[Jet]:
        if len(point) != self.dim:
            raise JetShapeError(f"{self.name}: point has wrong dimension")
        return self._memo.jets(tuple(point), order, self._jet_fn)

    def __call__(self, point: Point) -> Point:
        return tuple(j.value for j in self.eval_jet(point, 0))

    def jacobian(self, point: Point) -> list[list[Scalar]]:
        jets = self.eval_jet(point, 1)
        return [[jets[i].partial(j).value for j in range(self.dim)] for i in range(self.dim)]

    def jacobian_det(self, point: Point) -> Scalar:
        return mat_det(self.jacobian(point))

    def jacobian_inverse(self, jac: list[list]) -> list[list]:
        """Inverse of this map's Jacobian ``jac[a][i] = d_i f^a`` at a point,
        jets or scalars, by cofactors."""
        return mat_inv(jac)

    def invert(self, at: Point) -> "_Inverse":
        """Local inverse at the image of ``at``, evaluable at that image only."""
        if self.jacobian_det(at) == 0:
            raise SingularJacobianError(f"{self.name}: singular Jacobian at {at}")
        return _Inverse(self, tuple(at))

    def __repr__(self):
        return f"DiffeoMap({self.name}, dim={self.dim})"


def compose(f: DiffeoMap, h: DiffeoMap) -> DiffeoMap:
    """Jets of f o h, exact to the shared truncation order."""
    if f.dim != h.dim:
        raise JetShapeError("composition requires equal dimensions")

    def jet_fn(point, order):
        inner = h.eval_jet(point, order)
        mid = tuple(j.value for j in inner)
        outer = f.eval_jet(mid, order)
        shifted = _shifted(inner)
        return [jet_compose(o, shifted) for o in outer]

    return DiffeoMap(f.dim, jet_fn, name=f"({f.name} o {h.name})")


def inverse_jets(f: DiffeoMap, at: Point, order: int) -> list[Jet]:
    """Shifted jets of f^-1 at f(at): the jets of ``f.invert(at)`` there,
    each less its value."""
    return _shifted(f.invert(at).eval_jet(f(at), order))


class _Inverse(DiffeoMap):
    """Inverse of a parent map near one anchor; see :meth:`DiffeoMap.invert`."""

    def __init__(self, parent: DiffeoMap, anchor: Point):
        self.parent, self.anchor, self.image = parent, anchor, parent(anchor)
        super().__init__(parent.dim, None, name=f"{parent.name}^-1")

    def _check(self, point: Point) -> None:
        if tuple(point) != self.image:
            raise EvaluationError(f"{self.name}: evaluable at {self.image} only, not {point}")

    def _inverse_jets(self, point: Point, order: int) -> list[Jet]:
        # the reversion needs the Jacobian, which lives in the order-1 slots,
        # so an order-0 inverse is an order-1 one truncated
        self._check(point)
        jets = jet_invert(_shifted(self.parent.eval_jet(self.anchor, max(order, 1))))
        return [g.truncated(order) + c for g, c in zip(jets, self.anchor)]

    _jet_fn = _inverse_jets

    def invert(self, at: Point) -> DiffeoMap:
        # the inverse of a local inverse is its parent
        self._check(at)
        return self.parent


class CotangentMap(DiffeoMap):
    """Symplectic lift of a base diffeomorphism to phase space."""

    def __init__(self, base: DiffeoMap):
        self.base = base
        super().__init__(2 * base.dim, None, name=f"T*{base.name}")

    def _lift_jets(self, point: Point, order: int) -> list[Jet]:
        n = self.base.dim
        x, xi = point[:n], point[n:]
        fj = self.base.eval_jet(x, order + 1)
        jac = [[fj[a].partial(i) for i in range(n)] for a in range(n)]
        try:
            jac_inv = mat_inv(jac)  # entries are jets of (dx/df)^i_a at x
        except SingularJacobianError:
            raise SingularJacobianError(f"{self.base.name}: singular Jacobian at {x}") from None
        return ([fj[a].truncated(order).embed(2 * n) for a in range(n)]
                + [_fiber_jet([row[j] for row in jac_inv], xi, order) for j in range(n)])

    _jet_fn = _lift_jets

    def invert(self, at: Point) -> CotangentMap:
        """The lift of the base's local inverse at the base part of ``at``,
        since the lift is functorial; evaluable over that part's image only."""
        return cotangent_lift(self.base.invert(at[:self.base.dim]))

    def jacobian_inverse(self, jac: list[list]) -> list[list]:
        """``J^-1 = -Omega J^T Omega``, since a lift is symplectic.

        Entry ``[k][c]`` is ``J[(c + n) % 2n][(k + n) % 2n]``, negated when
        exactly one of ``k``, ``c`` is a fiber slot: a transpose with the
        base and fiber blocks swapped, exact slot for slot on jets and on
        scalars.
        """
        n, d = self.base.dim, self.dim
        return [[jac[(c + n) % d][(k + n) % d] if (k < n) == (c < n)
                 else -jac[(c + n) % d][(k + n) % d] for c in range(d)] for k in range(d)]


@lru_cache(maxsize=None)
def _lift_slots(n: int, order: int) -> tuple:
    """The phase-space slots of ``(a, 0)`` for the n-dim monomials ``a`` to
    ``order``, and per fiber axis i those of ``(a, e_i)`` for ``|a| < order``."""
    idx = monomial_index(2 * n, order)
    monos = monomials(n, order)
    low = monos[:len(monomials(n, order - 1))] if order else ()
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    return (tuple(idx[a + (0,) * n] for a in monos),
            tuple(tuple(idx[a + u] for a in low) for u in units))


def _fiber_jet(column: list[Jet], xi: Sequence[Scalar], order: int) -> Jet:
    """``xi'_j = sum_i A_ij xi_i`` on phase space, from the column ``A_ij``
    of the inverse base Jacobian jets: slot ``(a, 0)`` is
    ``sum_i A_ij[a] xi_i`` and slot ``(a, e_i)`` is ``A_ij[a]``.  Each slot
    is what ``dot`` makes of the pairs ``(A_ij, xi_i + u_i)``, type
    included: above order 0 an exact ``dot`` divides by one lcm, so its
    nonzero slots are all ``Fraction`` when that exceeds 1, else all ``int``.
    """
    n = len(column)
    at_base, at_fiber = _lift_slots(n, order)
    live = [(i, a.coeffs) for i, a in enumerate(column) if any(a.coeffs)]
    out = [0] * len(monomials(2 * n, order))
    for s, pos in enumerate(at_base):
        terms = [(c[s], xi[i]) for i, c in live if c[s] and xi[i]]
        if terms:
            out[pos] = _scalar_dot(terms)
    for i, c in live:
        for s, pos in enumerate(at_fiber[i]):
            if c[s]:
                out[pos] = c[s]
    if order and all(type(xi[i]) in _EXACT and column[i]._exact_terms() for i, _ in live):
        kind = Fraction if any(xi[i].denominator * column[i]._exact_terms()[1] > 1
                               for i, _ in live) else int
        out = [kind(v) if v and type(v) is not kind else v for v in out]
    return Jet(2 * n, order, out)


def cotangent_lift(f: DiffeoMap) -> CotangentMap:
    """Canonical extension of f to phase space: (x, xi) -> (f(x), Df^{-T} xi)."""
    return CotangentMap(f)


class VectorField:
    """Vector field on a chart, components given by jet providers."""

    def __init__(self, dim: int, components: Sequence, name: str = "X"):
        if len(components) != dim:
            raise JetShapeError("vector field needs one component per variable")
        self.dim = dim
        self.components = list(components)
        self.name = name

    @staticmethod
    def from_polynomials(polys: Sequence[Polynomial], name: str = "X") -> "VectorField":
        return VectorField(len(polys), polys, name=name)

    def eval_jet(self, point: Point, order: int) -> list[Jet]:
        return [c.jet(point, order) for c in self.components]

    def __call__(self, point: Point) -> Point:
        return tuple(j.value for j in self.eval_jet(point, 0))

    def bracket(self, other: "VectorField") -> "VectorField":
        """Lie bracket [X, Y], a field presented only through its jets.

        Its ``eval_jet(point, order)`` evaluates X and Y once each, at
        ``order + 1``, and forms ``[X,Y]^i = X^a d_a Y^i - Y^a d_a X^i``
        with jet products, so any two fields with jets have a bracket,
        brackets included.  It has no ``components``.
        """
        if self.dim != other.dim:
            raise JetShapeError("bracket requires equal dimensions")
        return _Bracket(self, other)


class _Bracket(VectorField):
    """Lie bracket of two vector fields; see :meth:`VectorField.bracket`."""

    def __init__(self, x: VectorField, y: VectorField):
        self.dim = x.dim
        self.name = f"[{x.name},{y.name}]"
        self._pair = (x, y)

    def eval_jet(self, point: Point, order: int) -> list[Jet]:
        x, y = self._pair
        xj, yj = x.eval_jet(point, order + 1), y.eval_jet(point, order + 1)
        xs, neg_ys = [j.truncated(order) for j in xj], [-j.truncated(order) for j in yj]
        d = self.dim
        return [dot([pair for a in range(d)
                     for pair in ((xs[a], yj[i].partial(a)), (neg_ys[a], xj[i].partial(a)))],
                    Jet.zero(d, order))
                for i in range(d)]


# ---------------------------------------------------------------------------
# catalog


def _polynomial_map(dim: int, polys: Sequence[Polynomial], **kw) -> DiffeoMap:
    """A map with the components ``polys``, kept as its ``polys``."""
    m = DiffeoMap(dim, lambda point, order: [p.jet(point, order) for p in polys], **kw)
    m.polys = list(polys)
    return m


def _eye(n: int, v=1) -> list:
    """The n x n matrix ``v * I``."""
    return [[v if i == j else 0 for j in range(n)] for i in range(n)]


def _shear(n: int):
    """The default ``A`` of ``linear`` and ``affine``: 2 at n = 1, else the
    shear ``I + E_01``."""
    return 2 if n == 1 else [[int(i == j or (i, j) == (0, 1)) for j in range(n)]
                             for i in range(n)]


def _row(n: int, a: Sequence[Scalar], b: Scalar) -> Polynomial:
    """The affine row ``sum_j a_j x_j + b``, terms in that order."""
    return Polynomial(n, {**{tuple(int(k == j) for k in range(n)): a[j] for j in range(n)},
                          (0,) * n: b})


def _nonsingular_det(name: str, m: list) -> Scalar:
    """``det m``, or ``SingularJacobianError`` when it is 0."""
    det = mat_det(m)
    if det == 0:
        raise SingularJacobianError(f"{name}: matrix is singular")
    return det


def _affine(n: int, a: list, b: list, name: str, params: dict) -> DiffeoMap:
    """``x -> A x + b``, oriented as the sign of ``det A``."""
    det = _nonsingular_det(name, a)
    return _polynomial_map(n, [_row(n, a[i], b[i]) for i in range(n)], name=name,
                           params=params, orientation_preserving=bool(det > 0))


def _projective(n: int, m: list, name: str, params: dict, oriented: bool = False) -> DiffeoMap:
    """``x -> (A x + b) / (c.x + d)``, ``M = [[A, b], [c, d]]``, with its pole
    where ``c.x + d = 0``.  ``oriented`` reads the orientation off the sign
    of ``det M``, which fixes it everywhere when n is odd."""
    det = _nonsingular_det(name, m)
    rows = [_row(n, m[i][:n], m[i][n]) for i in range(n + 1)]

    def jet_fn(point, order):
        dj = rows[n].jet(point, order)
        if dj.value == 0:
            raise EvaluationError(f"{name}: pole at {point}")
        rec = dj.reciprocal()
        return [rows[i].jet(point, order) * rec for i in range(n)]

    return DiffeoMap(n, jet_fn, name=name, params=params,
                     orientation_preserving=bool(det > 0) if oriented else None)


def _array(key: str, value, shape: tuple[int, ...]):
    """A number (shape ``()``), vector or matrix parameter of the given
    shape, arrays as lists, or ``ValueError``.  A bare scalar stands for a
    1 or 1 x 1 array."""
    if not isinstance(value, (list, tuple)) and set(shape) == {1}:
        value = [[value]] if len(shape) == 2 else [value]

    def fits(v, dims):
        if not dims:
            return isinstance(v, (int, float, Fraction)) and not isinstance(v, bool)
        return (isinstance(v, (list, tuple)) and len(v) == dims[0]
                and all(fits(x, dims[1:]) for x in v))

    if not fits(value, shape):
        want = ("a number" if not shape else f"a vector of length {shape[0]}"
                if len(shape) == 1 else f"a {shape[0]} x {shape[1]} matrix")
        raise ValueError(f"parameter {key!r} must be {want}, got {value!r}")
    if not shape:
        return value
    return [list(row) for row in value] if len(shape) == 2 else list(value)


def catalog_get(name: str, params: dict | None = None) -> DiffeoMap:
    """Construct a catalog map; see :func:`catalog_entries` for schemas.

    ``params["dim"]`` is the chart dimension, 1 by default: a positive
    ``int`` or an integral ``Fraction``.  ``KeyError`` for an unknown name;
    ``ValueError`` for any other ``dim``, a parameter the family does not
    take, or a number, vector or matrix of the wrong shape.  A scenario's
    map specs are checked by ``ScenarioConfig.validate``, which compares
    each ``dim`` with the scenario's before it calls this.
    """
    params = dict(params or {})
    n = params.pop("dim", 1)
    if isinstance(n, bool) or not isinstance(n, (int, Fraction)) or n < 1 or n != int(n):
        raise ValueError(f"dim must be a positive integer, got {n!r}")
    n = int(n)
    entry = next((e for e in catalog_entries() if e["name"] == name), None)
    if entry is None:
        raise KeyError(f"unknown catalog map '{name}'")
    unknown = set(params) - {k for key in entry["params"] for k in key.split(",")}
    if unknown:
        raise ValueError(f"{name} takes no parameter {', '.join(sorted(unknown))}")

    if name == "identity":
        return _affine(n, _eye(n), [0] * n, name, {"dim": n})

    if name == "translation":
        c = _array("c", params.get("c", [1] * n), (n,))
        return _affine(n, _eye(n), c, name, {"c": c})

    if name in ("linear", "affine"):
        a = _array("A", params.get("A", _shear(n)), (n, n))
        b = _array("b", params.get("b", [0] * n), (n,))
        return _affine(n, a, b, name, {"A": a, "b": b})

    if name == "polynomial_perturbation":
        eps = _array("eps", params.get("eps", Fraction(1, 8)), ())
        polys = []
        for i in range(n):
            # component i: x_i + eps * (x_i + x_{i+1 mod n})^3, Jacobian = I at 0
            j = (i + 1) % n
            cubic = {(3,): eps} if n == 1 else {
                tuple((3 - k) * (a == i) + k * (a == j) for a in range(n)): eps * math.comb(3, k)
                for k in range(4)}
            polys.append(Polynomial(n, {tuple(int(a == i) for a in range(n)): 1, **cubic}))
        return _polynomial_map(n, polys, name=name, params={"eps": eps})

    if name == "moebius":
        if n != 1:
            raise JetShapeError("moebius is a 1-dimensional family")
        a, b, c, d = (_array(k, params.get(k, v), ()) for k, v in zip("abcd", (1, 0, 1, 1)))
        return _projective(1, [[a, b], [c, d]], name, {"a": a, "b": b, "c": c, "d": d},
                           oriented=True)

    if name == "projective":
        m = params.get("A")
        if m is None:
            m = _eye(n + 1)
            m[0][n] = m[n][0] = Fraction(1, 4)
        m = _array("A", m, (n + 1, n + 1))
        return _projective(n, m, name, {"A": m})

    if name == "exp_scale":
        lam = float(_array("lam", params.get("lam", 1.0), ()))
        if lam == 0:
            raise SingularJacobianError("exp_scale: lam must be nonzero")

        def jet_fn(point, order):
            return [(Jet.variable(n, order, i, float(point[i])) * lam).exp() for i in range(n)]

        return DiffeoMap(n, jet_fn, name=name, params={"lam": lam},
                         orientation_preserving=lam > 0)


def catalog_entries() -> list[dict]:
    """Names, parameter schemas and singular-locus notes for the catalog."""
    return [
        {"name": "identity", "params": {"dim": "n"}, "singular": "none"},
        {"name": "translation", "params": {"dim": "n", "c": "vector"}, "singular": "none"},
        {"name": "linear", "params": {"dim": "n", "A": "n x n matrix, det != 0"},
         "singular": "none (global once det != 0)"},
        {"name": "affine", "params": {"dim": "n", "A": "n x n matrix, det != 0", "b": "vector"},
         "singular": "none (global once det != 0)"},
        {"name": "polynomial_perturbation",
         "params": {"dim": "n", "eps": "scalar, small"},
         "singular": "Jacobian zeros far from origin for large eps"},
        {"name": "moebius", "params": {"dim": "1", "a,b,c,d": "scalars, ad-bc != 0"},
         "singular": "pole at x = -d/c"},
        {"name": "projective",
         "params": {"dim": "n", "A": "(n+1) x (n+1) matrix, det != 0"},
         "singular": "hyperplane where last homogeneous coordinate vanishes"},
        {"name": "exp_scale", "params": {"dim": "n", "lam": "float, nonzero"},
         "singular": "none on the float backend"},
    ]


# ---------------------------------------------------------------------------
# the suspension of a vector field, and flows


def suspension(field: VectorField) -> DiffeoMap:
    """The polynomial map ``S(x, eps) = (x + eps X(x), eps)`` of R^{n+1}.

    For fixed ``eps`` it is ``id + eps X``, so the derivative at ``eps = 0``
    of any jet built from S is its coefficient of ``eps``, the last
    variable: dual-number forward differentiation (Griewank & Walther,
    *Evaluating Derivatives*, ch. 3) carried by the jet kernel.  Exact
    whenever the field's jets are.
    """
    n = field.dim

    def jet_fn(point, order):
        x, eps = point[:n], Jet.variable(n + 1, order, n, point[n])
        return [Jet.variable(n + 1, order, i, x[i]) + eps * c.embed(n + 1)
                for i, c in enumerate(field.eval_jet(x, order))] + [eps]

    return DiffeoMap(n + 1, jet_fn, name=f"S({field.name})")


# the highest jet order a flow map carries
FLOW_ORDER = 3


def flow_map(field: VectorField, t: float, steps: int = 64) -> DiffeoMap:
    """Approximate time-t flow of a vector field.

    Classical RK4 with fixed step t/steps, integrating the jet of the flow
    map directly at the requested order (at most ``FLOW_ORDER``) so
    derivatives ride along (the variational equations in monomial
    coordinates).  Float backend only; accuracy is the integrator's O(h^4).
    A library and test helper: ``verify`` differentiates along
    :func:`suspension` instead, exactly.
    """
    if steps <= 0:
        raise ValueError("steps must be positive")
    h = float(t) / steps
    if t != 0 and abs(h) < 1e-300:
        raise EvaluationError("flow step size underflow")
    n = field.dim

    def rhs(state: list[Jet]) -> list[Jet]:
        base = tuple(float(s.value) for s in state)
        xj = field.eval_jet(base, state[0].order)
        shifted = _shifted(state)
        return [jet_compose(c, shifted) for c in xj]

    def jet_fn(point, order):
        if order > FLOW_ORDER:
            raise JetShapeError(
                f"flow map carries jets to order {FLOW_ORDER}, requested {order}"
            )
        state = [Jet.variable(n, order, i, float(point[i])) for i in range(n)]
        for _ in range(steps):
            k1 = rhs(state)
            k2 = rhs([s + k * (h / 2) for s, k in zip(state, k1)])
            k3 = rhs([s + k * (h / 2) for s, k in zip(state, k2)])
            k4 = rhs([s + k * h for s, k in zip(state, k3)])
            state = [
                s + (a + b * 2 + c * 2 + d) * (h / 6)
                for s, a, b, c, d in zip(state, k1, k2, k3, k4)
            ]
        return state

    return DiffeoMap(n, jet_fn, name=f"flow({field.name}, t={t})",
                     params={"t": t, "steps": steps})
