"""The third-order degree-lowering operator and group actions around it.

Three builders produce the same pointwise operator on phase-space functions:

* ``build_L_covariant`` assembles symmetrized contractions of the comparison
  tensor with the canonical bivector against the iterated covariant
  derivatives of the lifted connection, taken as partial-derivative tables
  from ``geometry``, which also serves ``covariant_derivs``.
* ``build_L_coordinate`` uses the closed coordinate form (comparison-tensor
  blocks contracted with the base Christoffel symbols).
* ``build_L_flat`` is the fully explicit formula in derivatives of the base
  map, valid for the flat connection; it serves as the independent oracle.

With symmetrization normalized as the average over permutations the three
agree exactly in the flat case.

Operators are point-local: a coefficient table over mixed partials of total
order at most three.  Each builder lists, per multi-index, the (factor, jet)
pairs whose products make that coefficient, and sums each list with one
``jets.dot`` (``geometry._sums``), in the order the formula writes them.
Builders can optionally carry the coefficients as jets (based at fiber
origin) so that the operator can be applied to fiber polynomials with
honest degree bookkeeping; a sum or multiple of operators carrying jets
carries their sum or multiple, without zero jets.  Applied to a jet, an
operator is one ``jets.slot_sum`` of the jet's slots with the weights
``c * m!``, made once per operator.

``build_L_covariant`` reads only the comparison tensor C: when C is zero
(affine maps) it returns the zero operator and builds no table.  Each exact
Sym entry is one signed sum of its at most six C entries in one integer
buffer, the 1/6 in its denominator; floats keep the signed fold, left to
right, then one scaling by 1/6.

Action conventions.  Functions carry the pullback action ``f . Q = Q o f~^-1``.
Operators carry the conjugation whose cocycle identity reads
``L(f o h) = h . L(f) + L(h)``; concretely ``(h . T)(Q)(z) = [T(Q o h~^-1)]
(h~(z))``, which evaluates T at the image point, exactly as tensors pull
back.  Composing the two printed actions for the inverse map yields the same
arrangement, and it is the one the verification engine certifies.  The
zero operator is fixed by every action, so acting on it makes no inverse
jets.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .jets import (
    EvaluationError,
    Jet,
    JetShapeError,
    Polynomial,
    Scalar,
    _ScalarField,
    _exact_div,
    _exact_dot,
    _powers,
    dot,
    jet_compose,
    mat_inv,
    monomials,
    monomial_index,
    slot_sum,
)
from .maps import DiffeoMap, cotangent_lift, inverse_jets
from .geometry import (Connection, _bump, _covariant_tables, _factorial_midx, _sums,
                       cocycle_C, lift_connection)

__all__ = [
    "LocalDiffOp",
    "Symbol",
    "AnchoredJet",
    "build_L_covariant",
    "build_L_coordinate",
    "build_L_flat",
    "apply_op",
    "apply_op_to_symbol",
    "act_on_function",
    "act_on_operator",
]

MAX_OP_ORDER = 3


class LocalDiffOp:
    """Differential operator at a point: finite sum of mixed partials.

    ``coeffs`` maps phase-space multi-indices (length 2n, total order <= 3)
    to scalar coefficients.  ``coeff_jets``, when present, holds the same
    coefficients as jets based at the operator's anchor point, which is what
    symbol application consumes.
    """

    def __init__(self, dim: int, coeffs: dict[tuple[int, ...], Scalar],
                 point: tuple | None = None,
                 coeff_jets: dict[tuple[int, ...], Jet] | None = None):
        self.dim = dim
        self.coeffs = {}
        for m, c in coeffs.items():
            if sum(m) > MAX_OP_ORDER:
                raise JetShapeError("differential order above three")
            if len(m) != dim:
                raise JetShapeError("multi-index arity mismatch")
            if c != 0:
                self.coeffs[tuple(m)] = c
        self.point = tuple(point) if point is not None else None
        self.coeff_jets = coeff_jets
        self._weights = None  # (slot, c * m!) pairs, made by apply_to_jet

    @staticmethod
    def zero(dim: int, point: tuple | None = None) -> "LocalDiffOp":
        return LocalDiffOp(dim, {}, point=point)

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_abs(self) -> Scalar:
        return max((abs(c) for c in self.coeffs.values()), default=0)

    def __add__(self, other: "LocalDiffOp") -> "LocalDiffOp":
        """The sum, at the point of whichever operand has one; operators
        built at two different points do not add.  It carries coefficient
        jets when both operands do."""
        if self.dim != other.dim:
            raise JetShapeError("operator dimension mismatch")
        if None not in (self.point, other.point) and self.point != other.point:
            raise EvaluationError("operators built at different points cannot be added")
        jets = None
        if None not in (self.coeff_jets, other.coeff_jets):
            jets = _nonzero(_add_tables(self.coeff_jets, other.coeff_jets))
        return LocalDiffOp(self.dim, _add_tables(self.coeffs, other.coeffs),
                           point=other.point if self.point is None else self.point,
                           coeff_jets=jets)

    def __sub__(self, other: "LocalDiffOp") -> "LocalDiffOp":
        return self + (other * -1)

    def __mul__(self, s: Scalar) -> "LocalDiffOp":
        jets = None
        if self.coeff_jets is not None:
            jets = _nonzero({m: j * s for m, j in self.coeff_jets.items()})
        return LocalDiffOp(self.dim, {m: c * s for m, c in self.coeffs.items()},
                           point=self.point, coeff_jets=jets)

    __rmul__ = __mul__

    def apply_to_jet(self, q: Jet) -> Scalar:
        """Value of T(Q) at the operator's point from Q's jet there: the sum
        of ``c * m! * q[m]``, one :func:`jets.slot_sum`.  The weights
        ``c * m!`` are made on the first call; graded order gives ``m`` the
        same slot at every jet order that holds it, so they serve them all."""
        if q.dim != self.dim:
            raise JetShapeError("jet dimension mismatch")
        if q.order < MAX_OP_ORDER and any(sum(m) > q.order for m in self.coeffs):
            raise JetShapeError("jet order too low for this operator")
        if self._weights is None:
            idx = monomial_index(self.dim, MAX_OP_ORDER)
            self._weights = [(idx[m], c * _factorial_midx(m)) for m, c in self.coeffs.items()]
        return slot_sum(q, self._weights)

    def __repr__(self):
        return f"LocalDiffOp(dim={self.dim}, {len(self.coeffs)} terms)"


def _nonzero(jets: dict) -> dict:
    """The entries of a table of coefficient jets that are not zero jets."""
    return {m: j for m, j in jets.items() if not j.is_zero()}


def _add_tables(a: dict, b: dict) -> dict:
    """Entrywise sum of two coefficient tables."""
    out = dict(a)
    for m, c in b.items():
        out[m] = out[m] + c if m in out else c
    return out


class AnchoredJet:
    """Jet provider valid at a single point, wrapping a precomputed jet."""

    def __init__(self, anchor: tuple, jet: Jet):
        self.anchor = tuple(anchor)
        self._jet = jet
        self.dim = jet.dim

    def jet(self, point, order: int) -> Jet:
        if tuple(point) != self.anchor:
            raise EvaluationError("anchored jet queried away from its anchor")
        if order > self._jet.order:
            raise JetShapeError("anchored jet carries too low an order")
        return self._jet.truncated(order)

    def is_zero(self, tol: float = 0.0) -> bool:
        return self._jet.is_zero(tol)


class Symbol:
    """Fiber polynomial on phase space with x-dependent coefficients.

    ``coeffs`` maps fiber multi-indices (length n) to coefficient providers
    (anything with ``jet(x, order)``; plain scalars and polynomials accepted).
    The fiber degree is the largest |mu| with a nonvanishing coefficient.
    """

    def __init__(self, n: int, coeffs: dict[tuple[int, ...], object]):
        self.n = n
        self.coeffs = {}
        for mu, c in coeffs.items():
            if len(mu) != n:
                raise JetShapeError("fiber multi-index arity mismatch")
            if isinstance(c, (int, Fraction, float)):
                c = Polynomial.constant(n, c)
            self.coeffs[tuple(mu)] = c

    @staticmethod
    def monomial(n: int, mu: tuple[int, ...]) -> "Symbol":
        """The fiber monomial xi^mu, with coefficient 1."""
        return Symbol(n, {tuple(mu): 1})

    @property
    def dim(self) -> int:
        return 2 * self.n

    def degree(self, tol: float = 0.0) -> int:
        degs = [sum(mu) for mu, c in self.coeffs.items() if not _provider_is_zero(c, tol)]
        return max(degs, default=-1)

    def coefficient_value(self, mu: tuple[int, ...], x: tuple) -> Scalar:
        c = self.coeffs.get(tuple(mu))
        return 0 if c is None else c.jet(x, 0).value

    def jet(self, point: tuple, order: int) -> Jet:
        """Jet on phase space at (x, xi); makes a Symbol a function provider."""
        n = self.n
        out = Jet.zero(2 * n, order)
        for mu, c in self.coeffs.items():
            term = c.jet(point[:n], order).embed(2 * n)
            if any(mu):
                term = term * Polynomial(2 * n, {(0,) * n + mu: 1}).jet(point, order)
            out = out + term
        return out


def _provider_is_zero(c, tol: float) -> bool:
    if hasattr(c, "is_zero"):
        return c.is_zero(tol)
    if isinstance(c, Polynomial):
        return not c.terms
    return False


# ---------------------------------------------------------------------------
# the three builders


def _comparison_jets(f: DiffeoMap, gamma: Connection, point: tuple, order: int):
    """Jets of the comparison tensor of the lifted map at a phase point."""
    glifted = lift_connection(gamma)
    return cocycle_C(cotangent_lift(f), glifted).components(point, order), glifted


def _finish(dim, table, point, keep_jets):
    live = _nonzero(table)
    return LocalDiffOp(dim, {m: j.value for m, j in live.items()}, point=point,
                       coeff_jets=live if keep_jets else None)


def build_L_covariant(f: DiffeoMap, gamma: Connection, point: tuple,
                      coeff_order: int = 0) -> LocalDiffOp:
    """Covariant build: symmetrized bivector contractions against covariant
    derivative tables, expanded into partial derivatives."""
    n = f.dim
    d = 2 * n
    if len(point) != d:
        raise JetShapeError("expected a phase-space point")
    mo = coeff_order
    cj, glifted = _comparison_jets(f, gamma, point, mo)
    if all(e.is_zero() for plane in cj for row in plane for e in row):
        return _finish(d, {}, point, coeff_order > 0)  # L is built from C alone

    # Raising both lower indices of C with the canonical bivector relabels
    # base slot i as fiber slot i+n and back; the two signs multiply to -1
    # exactly when one index is a base slot and the other a fiber slot.
    # Sym over the three slots is a function of the sorted index triple, so
    # one table serves both groups below; None marks a vanishing entry.
    plus, minus = Jet.constant(d, mo, Fraction(1, 6)), Jet.constant(d, mo, Fraction(-1, 6))
    sym: dict[tuple, Jet | None] = {}
    for triple in itertools.combinations_with_replacement(range(d), 3):
        terms = [(t, plus if (q < n) == (r < n) else minus)
                 for p, q, r in itertools.permutations(triple)
                 if not (t := cj[p][(q + n) % d][(r + n) % d]).is_zero()]
        acc = _sym_entry(terms) if terms else None
        sym[triple] = None if acc is None or acc.is_zero() else acc

    D2, D3 = _covariant_tables(glifted, point, mo)

    terms = []
    for (i, j, k), a_hat in sym.items():
        if a_hat is not None:
            # distinct orderings of the multiset {i,j,k} in the operator sum
            for p, q, r in set(itertools.permutations((i, j, k))):
                terms.extend((m, a_hat, opj) for m, opj in D3[p][q][r].items())

    # second group: -(3/2) Sym_{n,m,i}(C^n_{lk} g^{ml} g^{ik}) C^j_{mn} D2[i][j]
    half3 = Fraction(3, 2)
    for i in range(d):
        live = [(s, mm, nn) for nn in range(d) for mm in range(d)
                if (s := sym[tuple(sorted((nn, mm, i)))]) is not None]
        for j in range(d):
            coeff = dot((s, cj[j][mm][nn]) for s, mm, nn in live)
            if coeff is not None:
                coeff = coeff * (-half3)
                terms.extend((m, coeff, opj) for m, opj in D2[i][j].items())

    return _finish(d, _sums(terms), point, coeff_order > 0)


def _sym_entry(terms: list) -> Jet:
    """One Sym entry from its live ``(t, ±1/6 constant jet)`` terms.

    Exact terms make one signed sum in one integer buffer, the 1/6 in its
    denominator (``jets._exact_dot``).  Floats keep the fold
    ``(±t ± t ...) * (1/6)``, left to right, so their bits do not move.
    """
    acc = _exact_dot(terms, None)
    if acc is not None:
        return acc
    for t, w in terms:
        if acc is None:
            acc = t if w.value > 0 else -t
        else:
            acc = acc + t if w.value > 0 else acc - t
    return acc * Fraction(1, 6)


def build_L_coordinate(f: DiffeoMap, gamma: Connection, point: tuple,
                       coeff_order: int = 0) -> LocalDiffOp:
    """Coordinate build: comparison-tensor blocks against base Christoffels."""
    n = f.dim
    d = 2 * n
    if len(point) != d:
        raise JetShapeError("expected a phase-space point")
    mo = coeff_order
    cj, _ = _comparison_jets(f, gamma, point, mo)
    one, three = Jet.constant(d, mo, 1), Jet.constant(d, mo, 3)
    zero = (0,) * d
    # 2 G^k_jm as phase-space jets
    g2 = [[[2 * g.embed(d) for g in row] for row in plane]
          for plane in gamma.components(point[:n], mo)]

    terms = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                terms.append((_bump(zero, n + j, n + k, i), cj[i][j][k], three))
                terms.append((_bump(zero, n + i, n + j, n + k), cj[n + i][j][k], one))
            coeff = dot(pair for m_ in range(n) for k in range(n)
                        for pair in ((cj[m_][i][k], g2[k][j][m_]), (cj[m_][k][i], cj[k][m_][j])))
            terms.append((_bump(zero, n + i, n + j), coeff, three))

    return _finish(d, _sums(terms), point, coeff_order > 0)


def build_L_flat(f: DiffeoMap, point: tuple, coeff_order: int = 0) -> LocalDiffOp:
    """Flat-connection oracle: the explicit formula in derivatives of f."""
    n = f.dim
    d = 2 * n
    if len(point) != d:
        raise JetShapeError("expected a phase-space point")
    mo = coeff_order
    base = range(n)
    fj = f.eval_jet(point[:n], mo + 3)
    jac = [[fj[a].partial(i) for i in base] for a in base]  # order mo+2
    jinv = [[e.truncated(mo) for e in row] for row in mat_inv(jac)]  # jets of dx/df
    f2 = [[[jac[l][i].partial(j) for j in base] for i in base] for l in base]
    f3 = [[[[e.partial(k) for k in base] for e in row] for row in plane] for plane in f2]
    f2 = [[[e.truncated(mo) for e in row] for row in plane] for plane in f2]
    three = Jet.constant(n, mo, 3)
    zero = (0,) * d

    # the two fiber-free groups, summed as jets in x and then lifted; they and
    # the fiber group read H^i_jk = sum_l (J^-1)^i_l F^l_jk, the second as
    # sum_qm H^m_qi H^q_jm
    h = [[[dot((f2[l][j][k], jinv[i][l]) for l in base) for k in base] for j in base]
         for i in base]
    terms = []
    for i, j, k in itertools.product(base, repeat=3):
        terms.append((_bump(zero, n + j, n + k, i), h[i][j][k], three))
    for i, j in itertools.product(base, repeat=2):
        terms.append((_bump(zero, n + i, n + j),
                      dot((h[m_][q][i], h[q][j][m_]) for q in base for m_ in base), three))
    table = {m: s.embed(d) for m, s in _sums(terms).items()}

    # the fiber group; the pulled-back fiber covector sum_m (J^-1)^m_q xi_m
    # is made once per q
    xi = [Jet.variable(d, mo, n + a, point[n + a]) for a in base]
    pulled_xi = [dot((jinv[m_][q].embed(d), xi[m_]) for m_ in base) for q in base]
    one = Jet.constant(d, mo, 1)
    terms = []
    for i, j, k in itertools.product(base, repeat=3):
        inner = []
        for q in base:
            # 3 H^l_ij F^q_lk - F^q_ijk, with H^l_ij = sum_p (J^-1)^l_p F^p_ij
            s = dot((h[l][i][j], f2[q][l][k]) for l in base)
            inner.append(dot([(s, three)], -f3[q][i][j][k]).embed(d))
        terms.append((_bump(zero, n + i, n + j, n + k), dot(zip(pulled_xi, inner)), one))
    table.update(_sums(terms))
    return _finish(d, table, point, coeff_order > 0)


# ---------------------------------------------------------------------------
# application


def apply_op(op: LocalDiffOp, q, point: tuple) -> Scalar:
    """Evaluate T(Q) at the operator's point; Q is a jet provider."""
    if op.point is not None and tuple(point) != op.point:
        raise EvaluationError("operator applied away from the point it was built at")
    return op.apply_to_jet(q.jet(point, MAX_OP_ORDER))


def apply_op_to_symbol(op: LocalDiffOp, symbol: Symbol, x: tuple) -> Symbol:
    """Apply an operator built with coefficient jets to a fiber polynomial.

    The result collects the fiber-monomial coefficients of T(P) around the
    fiber origin over ``x``; its degree is the honest output degree, so the
    structural drop by two is a real assertion, not bookkeeping.
    """
    n = symbol.n
    d = 2 * n
    k = symbol.degree()
    if k < 2:
        return Symbol(n, {})
    if op.coeff_jets is None:
        raise EvaluationError("operator was built without coefficient jets")
    if not op.coeff_jets:
        return Symbol(n, {})
    mo = next(iter(op.coeff_jets.values())).order
    if mo < k + 1:
        raise EvaluationError(
            f"coefficient jets of order {mo} cannot resolve degree {k} symbols; "
            f"rebuild with coeff_order >= {k + 1}"
        )
    if op.point is not None and any(c != 0 for c in op.point[n:]):
        raise EvaluationError("symbol application expects an operator at fiber origin")

    point = tuple(x) + (0,) * n
    pjet = symbol.jet(point, mo + MAX_OP_ORDER)
    pairs = []
    for m, cjet in op.coeff_jets.items():
        dq = pjet
        for axis, e in enumerate(m):
            for _ in range(e):
                dq = dq.partial(axis)
        pairs.append((cjet, dq.truncated(mo)))
    return _symbol_from_phase_jet(dot(pairs, Jet.zero(d, mo)), n, tuple(x))


def _symbol_from_phase_jet(out_jet: Jet, n: int, x: tuple) -> Symbol:
    """Regroup a phase-space jet at fiber origin over ``x`` as a fiber
    polynomial whose coefficients are x-jets anchored at ``x``."""
    mo = out_jet.order
    by_mu: dict[tuple, dict[tuple, Scalar]] = {}
    for midx, c in zip(monomials(2 * n, mo), out_jet.coeffs):
        if c == 0:
            continue
        alpha, mu = midx[:n], midx[n:]
        by_mu.setdefault(mu, {})[alpha] = c
    coeffs = {}
    for mu, entries in by_mu.items():
        order_left = mo - sum(mu)
        idx = monomial_index(n, order_left)
        data = [0] * len(monomials(n, order_left))
        for alpha, c in entries.items():
            if sum(alpha) <= order_left:
                data[idx[alpha]] = c
        coeffs[mu] = AnchoredJet(x, Jet(n, order_left, data))
    return Symbol(n, coeffs)


# ---------------------------------------------------------------------------
# group actions


def act_on_function(f: DiffeoMap, q, anchors: Sequence[tuple]) -> _ScalarField:
    """Module action on phase-space functions: ``f . Q = Q o f~^-1``, as a
    jet provider made from a function (``jets._ScalarField``).

    It is evaluable at the images f~(w) of the phase points w in ``anchors``
    and nowhere else; there its jet is Q's jet at w composed with the jets
    of f~^-1.
    """
    lift = cotangent_lift(f)
    preimages = {lift(a): tuple(a) for a in anchors}

    def fn(point, order):
        w = preimages.get(point)
        if w is None:
            raise EvaluationError(f"no anchor of the pullback function maps to {point}")
        return jet_compose(q.jet(w, order), inverse_jets(lift, w, order))

    return _ScalarField(lift.dim, fn)


def act_on_operator(f: DiffeoMap, op: LocalDiffOp, point: tuple) -> LocalDiffOp:
    """Conjugate an operator by the lift of f.

    ``point`` is where the result lives; ``op`` must have been built at the
    image point f~(point).  The table is recovered by probing the monomial
    basis, so no coefficient transformation rules are hand-maintained: the
    probe ``(z - point)^m`` composed with lift^-1 is the power ``inv^m`` of
    the shifted inverse-lift jets ``inv`` at f~(point), and one table of
    powers serves every monomial of order at most three.
    """
    d = 2 * f.dim
    if op.dim != d:
        raise JetShapeError("operator dimension mismatch")
    if not op.coeffs:  # the zero operator is fixed by every action
        return LocalDiffOp.zero(d, point=tuple(point))
    monos = monomials(d, MAX_OP_ORDER)
    powers = _powers(inverse_jets(cotangent_lift(f), point, MAX_OP_ORDER), [True] * len(monos))
    powers[0] = Jet.constant(d, MAX_OP_ORDER, 1)

    coeffs: dict[tuple, Scalar] = {}
    for m, composed in zip(monos, powers):
        val = op.apply_to_jet(composed)
        if val != 0:
            coeffs[m] = _exact_div(val, _factorial_midx(m))
    return LocalDiffOp(d, coeffs, point=tuple(point))
