"""Affine connections on chart domains and their canonical phase-space lift.

A connection is a field of Christoffel symbols, jet-evaluable at points; the
difference of two connections is a (2,1)-tensor, which is what the map
comparison cocycles produce.  Index convention on phase space: base slots
0..n-1, fiber slots n..2n-1.

The lift of a base connection to phase space fills the blocks

    G~^k_ij      = G^k_ij                (base x base x base)
    G~^k_(any fiber lower or upper-base with fiber lower) = 0
    G~^kbar_ij   = xi_a (d_k G^a_ij - d_i G^a_jk - d_j G^a_ik
                          + 2 G^a_kt G^t_ij)
    G~^kbar_i jbar = -G^j_ik,   G~^kbar_ibar j = -G^i_kj,
    G~^kbar_ibar jbar = 0

which is symmetric in the lower pair and linear in the fiber variable.
Pullback of a connection along a map F uses, with J = DF(x),

    (F*G)^k_ij(x) = (J^-1)^k_c [ G^c_ab(F(x)) J^a_i J^b_j + d_i J^c_j ]

so that (F o H)* = H* o F*; dropping the inhomogeneous dJ term gives the
plain (2,1)-tensor pullback used on connection differences.  The map
supplies J^-1 (``DiffeoMap.jacobian_inverse``): a cotangent lift gives its
symplectic transpose, any other map its cofactor inverse.  A map keeps its
jets at the last point it was asked for (``maps``), so pulling several
fields back along one map at one point evaluates it once.
d_i J^c_j = d_i d_j F^c is taken once per pair i <= j.  A field symmetric
in its lower pair (its ``symmetric`` attribute: every connection,
``cocycle_C``, and a pullback of a symmetric field) has only its i <= j
components composed and contracted, and the rest mirrored; an asymmetric
tensor's are all contracted.  The lift takes each d_k G^a_ij once, for
i <= j, but computes every (i, j) of its fiber block, so its symmetry
stays a check.  Every sum of jet products here goes through ``jets.dot``,
the final (J^-1)^k_c contraction too.  Each level of the contraction lists
its live terms once (the rows of a c-plane of T with a live entry, the live
entries of each column of J and each row of J^-1, the c-planes live at
(i, j)) and makes no sum without a live term.  At order 0,
where every residual reads a tensor (``TensorField21.values``), the
pullback makes no jet until its result: J and d_i d_j F^c are read off the
slots of the map's order-2 jets (slot of x^m = d^m F / m!), the field at
the image as values, and the one contraction sums scalars by ``dot``'s
rules.  Every connection keeps its lift, which the formula above builds
for a flat base too; the lift of a flat connection is flat, and a flat
connection keeps, per order, its covariant tables, which do not depend on
the point.

Iterated covariant derivatives of scalars,

    nabla_b nabla_a = d_b d_a - G^c_ba d_c,
    nabla_c nabla_b nabla_a = d_c nabla_b nabla_a - G^e_cb nabla_e nabla_a
                              - G^e_ca nabla_b nabla_e,

are written once, as tables of partial derivatives with jet coefficients
(``_covariant_tables``); the covariant operator build contracts them and
``covariant_derivs`` applies them to a scalar's jet, one ``jets.slot_sum``
per table.  A table coefficient is one ``jets.dot`` over the (factor, jet)
pairs listed under its multi-index (``_sums``), so zero terms are skipped
there and nowhere else.
"""

from __future__ import annotations

import math
from typing import Callable

from .jets import (
    Jet,
    JetShapeError,
    Polynomial,
    Scalar,
    _scalar_dot,
    dot,
    jet_compose,
    monomial_index,
    partial_or_none,
    slot_sum,
)
from .maps import DiffeoMap, _shifted

__all__ = [
    "Connection",
    "TensorField21",
    "lift_connection",
    "pullback_connection",
    "pullback_tensor",
    "cocycle_C",
    "covariant_derivs",
]

Components = list  # nested [k][i][j] table of jets


class TensorField21:
    """A jet-evaluable [k][i][j] component field: a (2,1)-tensor field, such
    as the difference of two connections, and the base of ``Connection``.

    ``symmetric`` declares T^k_ij = T^k_ji: pullbacks and Lie derivatives of
    such a field compute only i <= j and mirror the rest.
    """

    def __init__(self, dim: int, component_fn: Callable[[tuple, int], Components],
                 name: str = "field", symmetric: bool = False):
        self.dim = dim
        self._component_fn = component_fn
        self.name = name
        self.symmetric = symmetric

    def components(self, point: tuple, order: int) -> Components:
        if len(point) != self.dim:
            raise JetShapeError(f"{self.name}: point has wrong dimension")
        return self._component_fn(tuple(point), order)

    def values(self, point: tuple) -> list:
        comps = self.components(point, 0)
        d = self.dim
        return [[[comps[k][i][j].value for j in range(d)] for i in range(d)] for k in range(d)]

    def symmetry_defect(self, point: tuple) -> Scalar:
        """Largest |T^k_ij - T^k_ji| over all components at the point."""
        v = self.values(point)
        return _max_abs_entry(self.dim, lambda k, i, j: v[k][i][j] - v[k][j][i])


def _max_abs_entry(d: int, entry: Callable[[int, int, int], Scalar]) -> Scalar:
    """Largest |entry(k, i, j)| over the d^3 slots of a [k][i][j] table."""
    return max(abs(entry(k, i, j)) for k in range(d) for i in range(d) for j in range(d))


class Connection(TensorField21):
    """Christoffel symbol field, symmetric in its lower indices."""

    def __init__(self, dim, component_fn, name="Gamma", flat=False):
        super().__init__(dim, component_fn, name=name, symmetric=True)
        self.flat = flat
        # a connection keeps its lift; a flat one also, per order, its
        # covariant tables
        self._lift = None
        self._flat_tables: dict[int, tuple] = {}

    @staticmethod
    def flat_connection(dim: int) -> "Connection":
        return Connection.from_polynomials(dim, {}, name="flat")

    @staticmethod
    def from_polynomials(dim: int, entries: dict[tuple[int, int, int], Polynomial],
                         name: str = "Gamma") -> "Connection":
        """Connection with polynomial components; (k,i,j) entries are
        symmetrized over (i,j) automatically."""
        table: dict[tuple[int, int, int], Polynomial] = {}
        for (k, i, j), poly in entries.items():
            table[(k, i, j)] = poly
            table.setdefault((k, j, i), poly)
        for (k, i, j), poly in table.items():
            other = table[(k, j, i)]
            if other.terms != poly.terms:
                raise JetShapeError(f"{name}: lower indices ({i},{j}) not symmetric")

        def fn(point, order):
            z = Jet.zero(dim, order)
            out = [[[z for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
            for (k, i, j), poly in table.items():
                out[k][i][j] = poly.jet(point, order)
            return out

        return Connection(dim, fn, name=name, flat=not table)


# ---------------------------------------------------------------------------
# the canonical lift


def lift_connection(gamma: Connection) -> Connection:
    """Lift a base connection to a symmetric connection on phase space.

    Every lift is the formula of the module docstring, made once per
    connection and kept on it; the lift of a flat connection is flat, and
    says so, so pullbacks, ``cocycle_C`` and the covariant tables skip it.
    """
    if gamma._lift is not None:
        return gamma._lift
    n = gamma.dim

    def fn(point, order):
        x = point[:n]
        g1 = gamma.components(x, order + 1)  # one derivative is consumed below
        g0 = [[[e.truncated(order) for e in row] for row in plane] for plane in g1]
        z = Jet.zero(2 * n, order)
        out = [[[z for _ in range(2 * n)] for _ in range(2 * n)] for _ in range(2 * n)]

        def lift0(jet: Jet) -> Jet:
            return jet.embed(2 * n)

        for k in range(n):
            for i in range(n):
                for j in range(n):
                    out[k][i][j] = lift0(g0[k][i][j])
        # dg[a][i][j][k] = d_k G^a_ij, one partial per (a, i <= j, k)
        dg = [[[None] * n for _ in range(n)] for _ in range(n)]
        for a in range(n):
            for i in range(n):
                for j in range(i, n):
                    dg[a][i][j] = dg[a][j][i] = [g1[a][i][j].partial(k) for k in range(n)]
        xi_vars = [Jet.variable(2 * n, order, n + a, point[n + a]) for a in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    exprs = []
                    for a in range(n):
                        expr = dg[a][i][j][k] - dg[a][j][k][i] - dg[a][i][k][j]
                        quad = dot(((g0[a][k][t], g0[t][i][j]) for t in range(n)),
                                   Jet.zero(n, order))
                        exprs.append(lift0(expr + 2 * quad))
                    out[n + k][i][j] = dot(zip(xi_vars, exprs), z)
                    out[n + k][i][n + j] = -lift0(g0[j][i][k])
                    out[n + k][n + i][j] = -lift0(g0[i][k][j])
        return out

    gamma._lift = Connection(2 * n, fn, name=f"lift({gamma.name})", flat=gamma.flat)
    return gamma._lift


# ---------------------------------------------------------------------------
# pullbacks and the comparison tensor


def _live(x):
    """``x``, or ``None`` when it is ``None``, a zero jet or a zero scalar."""
    if isinstance(x, Jet):
        return x if any(x.coeffs) else None
    return x or None


def _pullback_components(mapping: DiffeoMap, field: TensorField21, point: tuple,
                         order: int, with_inhomogeneous: bool) -> Components:
    """``(J^-1)^k_c [T^c_ab(F(x)) J^a_i J^b_j + d_i J^c_j]`` to ``order``, the
    last term only ``with_inhomogeneous``.

    One contraction serves both kinds of leaves.  Above order 0 they are
    jets: ``J`` and ``d_i J^c_j`` are partials of the map's ``order + 2``
    jets, the field at the image is composed with the shifted map, and each
    sum is a ``jets.dot``.  At order 0 they are scalars read off the slots
    of the map's order-2 jets, where the slot of ``x^m`` holds
    ``d^m F / m!``: ``J^a_i`` is the slot of ``x_i`` and ``d_i d_j F^c`` the
    slot of ``x_i x_j``, times 2 when ``i == j``; the field is read as
    values at the image, since an order-0 composition is the value; and
    each sum is a scalar sum (``jets._scalar_dot``: one integer sum when
    exact, left to right on floats), wrapped in an order-0 jet only when it
    is made.  ``J^-1`` is ``mapping.jacobian_inverse`` of ``J``, on jets or
    scalars.  A zero leaf is ``None`` either way.  Each level lists its live
    terms once, in the order ``dot`` would take them, and makes no sum
    without one, so a sum sees live pairs only.
    """
    d = mapping.dim
    if field.dim != d:
        raise JetShapeError("map and field dimensions differ")
    fj = mapping.eval_jet(point, order + 2)
    image = tuple(j.value for j in fj)
    upper = [(i, j) for i in range(d) for j in range(i, d)]
    flat = isinstance(field, Connection) and field.flat
    if order:
        jac1 = [[fj[a].partial(i) for i in range(d)] for a in range(d)]  # order + 1
        jac = [[e.truncated(order) for e in row] for row in jac1]
        shifted = None if flat else [j.truncated(order) for j in _shifted(fj)]
        total = dot

        def at_image(g):
            return None if g.is_zero() else jet_compose(g, shifted)

        def second(c):
            return [_live(partial_or_none(jac1[c][j], i)) for i, j in upper]
    else:
        idx = monomial_index(d, 2)
        origin = (0,) * d
        slots = [f.coeffs for f in fj]
        jac = [[slots[a][idx[_bump(origin, i)]] for i in range(d)] for a in range(d)]
        total = _scalar_dot

        def at_image(g):
            return g.value or None

        second_slots = [(idx[_bump(origin, i, j)], i == j) for i, j in upper]

        def second(c):
            s = slots[c]
            return [(s[h] * 2 if diagonal else s[h]) or None for h, diagonal in second_slots]
    # the live entries of each row of J^-1 and of each column of J, listed once
    inv_rows = [[(c, e) for c, e in enumerate(map(_live, row)) if e is not None]
                for row in mapping.jacobian_inverse(jac)]
    jac_t = [[_live(e) for e in col] for col in zip(*jac)]
    g_img = None if flat else field.components(image, order)

    def summed(terms):
        # a sum of live pairs, or None when there is none
        return total(terms) if terms else None

    # (J^-1)^k_c T^c_ab J^a_i J^b_j one index at a time, one c-plane at a time:
    # over b, then a, then c, 3 d^4 products instead of 2 d^6.  A field
    # symmetric in its lower pair is composed and contracted on i <= j only,
    # and the rest is mirrored.
    sym = field.symmetric
    pairs = [(i, j) for i in range(d) for j in range(i if sym else 0, d)]
    planes = []
    for c in range(d):
        plane = [[None] * d for _ in range(d)]
        if g_img is not None:
            tc = [[None] * d for _ in range(d)]
            for a, b in pairs:
                tc[a][b] = at_image(g_img[c][a][b])
                if sym:
                    tc[b][a] = tc[a][b]
            rows = [(a, [(b, t) for b, t in enumerate(row) if t is not None])
                    for a, row in enumerate(tc)]
            rows = [(a, row) for a, row in rows if row]
            # tj[j]: (a, T^c_ab J^b_j summed over b) for the a whose sum is live
            tj = []
            for col in jac_t:
                sums = ((a, _live(summed([(t, col[b]) for b, t in row if col[b] is not None])))
                        for a, row in rows)
                tj.append([(a, s) for a, s in sums if s is not None])
            for i, j in pairs:
                col = jac_t[i]
                plane[i][j] = _live(summed([(col[a], s) for a, s in tj[j] if col[a] is not None]))
        if with_inhomogeneous:
            # d_i J^c_j = d_i d_j F^c: one entry per pair i <= j fills both
            for (i, j), dj in zip(upper, second(c)):
                if dj is not None:
                    plane[i][j] = dj if plane[i][j] is None else plane[i][j] + dj
                    if i != j:
                        plane[j][i] = dj if plane[j][i] is None else plane[j][i] + dj
        planes.append(plane)
    zero = Jet.zero(d, order)
    out = [[[zero] * d for _ in range(d)] for _ in range(d)]
    for i, j in pairs:
        col = [plane[i][j] for plane in planes]
        if col.count(None) == d:
            continue
        for k, row in enumerate(inv_rows):
            s = summed([(e, col[c]) for c, e in row if col[c] is not None])
            if s is not None:
                out[k][i][j] = s if order else Jet(d, 0, (s,))
                if sym:
                    out[k][j][i] = out[k][i][j]
    return out


def pullback_connection(mapping: DiffeoMap, gamma: Connection) -> Connection:
    """Transport a connection through a map; contravariant for composition."""

    def fn(point, order):
        return _pullback_components(mapping, gamma, point, order, with_inhomogeneous=True)

    return Connection(mapping.dim, fn, name=f"{mapping.name}*({gamma.name})")


def pullback_tensor(mapping: DiffeoMap, tensor: TensorField21) -> TensorField21:
    """Plain (2,1)-tensor pullback: no inhomogeneous Jacobian-derivative term."""

    def fn(point, order):
        return _pullback_components(mapping, tensor, point, order, with_inhomogeneous=False)

    return TensorField21(mapping.dim, fn, name=f"{mapping.name}*[{tensor.name}]",
                         symmetric=tensor.symmetric)


def cocycle_C(mapping: DiffeoMap, gamma: Connection) -> TensorField21:
    """Comparison tensor F*G - G of a map against a connection: a lifted map
    against the lifted connection on phase space, or a base map against a
    base connection (the connection-difference cocycle)."""
    pulled = pullback_connection(mapping, gamma)

    def fn(point, order):
        a = pulled.components(point, order)
        d = mapping.dim
        if gamma.flat:
            return a
        b = gamma.components(point, order)
        return [
            [[a[k][i][j] - b[k][i][j] for j in range(d)] for i in range(d)]
            for k in range(d)
        ]

    return TensorField21(mapping.dim, fn, name=f"C({mapping.name})", symmetric=True)


# ---------------------------------------------------------------------------
# covariant derivatives: iterated covariant derivatives as operator tables


def _covariant_tables(gamma: Connection, point: tuple, order: int):
    """D2[b][a] and D3[c][b][a]: nabla_b nabla_a and nabla_c nabla_b nabla_a
    as tables {multi-index m: jet coefficient of d^m}, to order ``order``.

    Each D3 coefficient is one :func:`_sums` entry over its Leibniz terms
    (d_c of D2, read at order ``order + 1``) and its Christoffel terms.  A
    flat connection's tables do not depend on the point: they are made once
    per order and kept on the connection, and callers only read them.
    """
    d = gamma.dim
    zero = (0,) * d
    if gamma.flat:
        if order not in gamma._flat_tables:
            one = Jet.constant(d, order, 1)
            D2 = [[{_bump(zero, b, a): one} for a in range(d)] for b in range(d)]
            D3 = [[[{_bump(zero, c, b, a): one} for a in range(d)] for b in range(d)]
                  for c in range(d)]
            gamma._flat_tables[order] = D2, D3
        return gamma._flat_tables[order]

    one = Jet.constant(d, order, 1)
    g2 = gamma.components(point, order + 1)
    one2 = Jet.constant(d, order + 1, 1)
    D2hi = [[{_bump(zero, b, a): one2,
              **{_bump(zero, c): -g2[c][b][a] for c in range(d) if not g2[c][b][a].is_zero()}}
             for a in range(d)] for b in range(d)]
    D2 = [[{m: cj.truncated(order) for m, cj in t.items()} for t in row] for row in D2hi]
    neg_g = [[[-e.truncated(order) for e in row] for row in plane] for plane in g2]

    def terms(c, b, a):
        # d_c composed with D2[b][a], then -G^e_cb D2[e][a] - G^e_ca D2[b][e]
        for m, cj in D2hi[b][a].items():
            yield _bump(m, c), one, D2[b][a][m]
            yield m, one, cj.partial(c)
        for e in range(d):
            for m, cj in D2[e][a].items():
                yield m, neg_g[e][c][b], cj
            for m, cj in D2[b][e].items():
                yield m, neg_g[e][c][a], cj

    D3 = [[[_sums(terms(c, b, a)) for a in range(d)] for b in range(d)] for c in range(d)]
    return D2, D3


def _bump(m: tuple, *axes: int) -> tuple:
    """The multi-index ``m`` raised by one along each of ``axes``."""
    out = list(m)
    for ax in axes:
        out[ax] += 1
    return tuple(out)


def _sums(terms) -> dict:
    """``{m: dot of the pairs (x, y) listed under m}`` from ``(m, x, y)`` terms.

    A multi-index keeps the place of its first term and its pairs their
    order; one whose pairs all vanish is left out.
    """
    pairs: dict[tuple, list] = {}
    for m, x, y in terms:
        pairs.setdefault(m, []).append((x, y))
    sums = {m: dot(p) for m, p in pairs.items()}
    return {m: s for m, s in sums.items() if s is not None}


def _factorial_midx(m: tuple[int, ...]) -> int:
    out = 1
    for e in m:
        out *= math.factorial(e)
    return out


def covariant_derivs(q, gamma: Connection, point: tuple):
    """First, second and third covariant derivatives of a scalar at a point.

    ``q`` is a jet provider; needs its order-3 jet and the connection's
    order-1 jets.  Returns (grad[a], hess[b][a], third[c][b][a]) value tables;
    the second table is symmetric for a torsion-free connection.
    """
    d = gamma.dim
    qj = q.jet(point, 3)
    idx = monomial_index(d, 3)

    def apply(table: dict) -> Scalar:
        # d^m q at the point is m! times the jet coefficient of m
        return slot_sum(qj, [(idx[m], c.value * _factorial_midx(m)) for m, c in table.items()])

    D2, D3 = _covariant_tables(gamma, point, 0)
    grad = [qj.partial(a).value for a in range(d)]
    hess = [[apply(t) for t in row] for row in D2]
    third = [[[apply(t) for t in row] for row in plane] for plane in D3]
    return grad, hess, third
