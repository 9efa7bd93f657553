"""Truncated multivariate jet arithmetic over exact and floating scalars.

A jet is the Taylor expansion of a smooth function at a point, truncated at a
fixed total order ``p``.  Coefficients are stored *monomially*: the entry for
the multi-index ``a`` is ``d^a f / a!``, so that composition is plain
polynomial substitution.  Storage is dense in graded lexicographic order, with
C(dim + p, p) entries: 210 at dim 6 and order 4, 3003 at dim 6 and order 8.

Two scalar backends flow through the same code paths: exact rationals
(``fractions.Fraction``, mixed freely with ``int``) and ``float``; exactness
is a property of the inputs.  The jet product is the truncated Cauchy product
of Taylor arithmetic (Griewank & Walther, *Evaluating Derivatives*, ch. 13)
over the nonzero terms of both operands, with slots from one cached plan per
shape; order-0 jets, with one slot, multiply as scalars.  It looks at the
scalar types: float coefficients multiply as they are, in the same order
every time.  An exact jet (``int`` and ``Fraction`` slots only) is read as
integer numerators over one common denominator, as FLINT's ``fmpq_poly``
stores it; the form is made the first time a product needs it and kept in
the jet, which never changes.  ``dot`` sums exact
products, and its ``acc``, in one integer buffer over the lcm of the pair
denominators, so each nonzero output is normalised once, by one
``Fraction``, and every zero slot is ``int`` 0; a product is the same sum
with one pair.  Int-only operands give int coefficients.  A float operand
makes ``dot`` multiply and add term by term, left to right.  On order-0
jets ``dot`` takes the same sums on the one slot, as scalars: exact ones in
one integer sum, divided once, floats left to right.  ``slot_sum`` weighs a
jet's slots by the same rules; it applies an operator to a jet.
Slot-wise operations do scalar work only on the slots they change.  A zero
operand leaves the other slot as it is: ``a + 0``, ``a - 0``, ``s * 0`` and
``0 / s`` keep the slot, and an int 0 plus or minus ``b`` gives ``b`` or
``-b``, so an exact zero slot stays ``int`` 0.  A product with an operand
whose only term is its constant is a scaling, made without the plan; an int
constant 1 returns the other operand itself.  ``partial`` reads the plan's
row for ``x_axis``, and lowering the truncation order keeps a prefix of the
slots, since graded order lists the lower-order monomials first.
A polynomial becomes a jet without jet products: each jet coefficient of a
term is written in closed form by the binomial Taylor shift of the term to
the base point (von zur Gathen & Gerhard, "Fast algorithms for Taylor
shifts", ISSAC 1997).  A term reads its slots and their binomial factors
from one cached table per exponent tuple and order.  An exact shift runs in
integer numerators, with the point over one denominator and the
coefficients over another, and makes one ``Fraction`` per nonzero slot; an
exact polynomial's value is its shift at order 0.  A ``PointMemo`` keeps
the highest-order jets a provider has made at the last point it was asked
for, and serves a lower order there by truncation; callers ask for one
point many times before they move on.  ``Polynomial.jet`` and
``maps.DiffeoMap.eval_jet`` both read through one.  The memo lives as long
as its provider and holds the jets of one point, and its key holds the
point's scalar types, so a float point is never served the jets of an
equal exact one.
Every monomial but the constant has a predecessor, itself less one power of
its first variable.  One cached table per shape lists these; it builds the
product plan row by row, and ``_powers`` holds the powers of inner jets: it
marks the powers a composition needs in one pass down the slots and builds
each from its predecessor in one pass up.  ``jet_compose`` and the operator
action read their powers from it.
``dot`` holds the zero-operand rule of the sums of products in every layer:
a pair with a ``None`` or zero-jet operand is skipped and costs no product,
so callers do not guard their terms.  ``partial_or_none`` gives ``None`` for
a derivative of a zero jet, so such a term costs no partial either.
A square matrix, of scalars or of jets, has one rule for its determinant
(``mat_det``) and inverse (``mat_inv``): cofactor expansion along the first
row, each expansion one ``dot`` on jets or one scalar sum, and an inverse
over one reciprocal of the determinant.  The cost grows as n!, so it suits
small matrices only: the program inverts nothing above 4 x 4, since the
inverse Jacobian of a cotangent lift is a signed transpose (``maps``).
All jets are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction, float]

__all__ = [
    "Jet",
    "PointMemo",
    "JetShapeError",
    "SingularJacobianError",
    "EvaluationError",
    "BAD_POINT_ERRORS",
    "Polynomial",
    "dot",
    "slot_sum",
    "partial_or_none",
    "jet_compose",
    "jet_invert",
    "mat_inv",
    "mat_det",
    "monomials",
    "monomial_index",
]


def _exact_div(a: Scalar, b: Scalar) -> Scalar:
    """Division that keeps int/int exact instead of decaying to float; an
    integral quotient stays ``int``."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


class JetShapeError(ValueError):
    """Dimension, order or arity mismatch between jets."""


class SingularJacobianError(ArithmeticError):
    """A linear part that must be invertible is singular."""


class EvaluationError(RuntimeError):
    """A map or function could not be evaluated where requested."""


# what evaluating at a bad point may raise: a pole or an unevaluable map, a
# singular Jacobian, or a math-domain failure on the float backend.
# JetShapeError is a ValueError but a bug, so catchers re-raise it first.
BAD_POINT_ERRORS = (EvaluationError, SingularJacobianError, ZeroDivisionError,
                    OverflowError, ValueError)


# ---------------------------------------------------------------------------
# multi-index tables


def _compositions(total: int, dim: int):
    if dim == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, dim - 1):
            yield (head,) + tail


@lru_cache(maxsize=None)
def monomials(dim: int, order: int) -> tuple[tuple[int, ...], ...]:
    """All exponent multi-indices with |a| <= order, graded lexicographic."""
    out: list[tuple[int, ...]] = []
    for total in range(order + 1):
        out.extend(sorted(_compositions(total, dim)))
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(dim: int, order: int) -> dict[tuple[int, ...], int]:
    return {m: i for i, m in enumerate(monomials(dim, order))}


@lru_cache(maxsize=None)
def _predecessors(dim: int, order: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For each monomial ``m`` after the constant, the slot of ``m - x_k`` and
    ``k``, the first axis with a nonzero exponent, as two flat tuples.  The
    predecessor has lower degree, so it comes earlier in graded order."""
    idx = monomial_index(dim, order)
    monos = monomials(dim, order)[1:]
    axes = tuple(next(a for a, e in enumerate(m) if e) for m in monos)
    return tuple(idx[m[:k] + (m[k] - 1,) + m[k + 1:]] for m, k in zip(monos, axes)), axes


@lru_cache(maxsize=None)
def _mul_plan(dim: int, order: int) -> tuple[tuple[int, ...], ...]:
    """Slots of the truncated Cauchy product, one row per monomial.

    In graded order the partners of a degree-t monomial that survive the
    truncation are the monomials of degree <= order - t, a prefix; row ``i``
    holds the slot of ``monos[i] * monos[j]`` for each ``j`` in that prefix.
    Each row is the row of the monomial's predecessor, shifted along the
    predecessor's axis, so building the plan forms exponent tuples per
    monomial, not per pair.
    """
    monos = monomials(dim, order)
    idx = monomial_index(dim, order)
    prefix = [len(monomials(dim, t)) for t in range(order + 1)]
    below_top = monos[:prefix[order - 1]] if order else ()
    # shift[k][s]: slot of monos[s] * x_k
    shift = [[idx[m[:k] + (m[k] + 1,) + m[k + 1:]] for m in below_top] for k in range(dim)]
    rows = [tuple(range(len(monos)))]
    for m, pred, k in zip(monos[1:], *_predecessors(dim, order)):
        sk = shift[k]
        rows.append(tuple([sk[s] for s in rows[pred][:prefix[order - sum(m)]]]))
    return tuple(rows)


_INT = frozenset((int,))
_EXACT = frozenset((int, Fraction))


# ---------------------------------------------------------------------------
# the jet itself


class Jet:
    """Dense truncated Taylor expansion at a point.

    ``coeffs[i]`` is the monomial coefficient of ``monomials(dim, order)[i]``;
    the constant term is the value at the base point.  Jets do not remember
    their base point; callers keep track of where they live.
    """

    __slots__ = ("dim", "order", "coeffs", "_numerators")

    def __init__(self, dim: int, order: int, coeffs: Sequence[Scalar]):
        n = len(monomials(dim, order))
        if len(coeffs) != n:
            raise JetShapeError(
                f"expected {n} coefficients for dim={dim} order={order}, got {len(coeffs)}"
            )
        self.dim = dim
        self.order = order
        self.coeffs = tuple(coeffs)
        self._numerators = None  # filled by _exact_terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(dim: int, order: int, value: Scalar) -> "Jet":
        c = [0] * len(monomials(dim, order))
        c[0] = value
        return Jet(dim, order, c)

    @staticmethod
    def variable(dim: int, order: int, axis: int, base: Scalar = 0) -> "Jet":
        """Jet of the coordinate function x_axis at a point with that value."""
        if not 0 <= axis < dim:
            raise JetShapeError(f"axis {axis} out of range for dim {dim}")
        c = [0] * len(monomials(dim, order))
        c[0] = base
        if order >= 1:
            unit = tuple(1 if k == axis else 0 for k in range(dim))
            c[monomial_index(dim, order)[unit]] = 1
        return Jet(dim, order, c)

    @staticmethod
    def zero(dim: int, order: int) -> "Jet":
        return Jet.constant(dim, order, 0)

    # -- basic queries -----------------------------------------------------

    @property
    def value(self) -> Scalar:
        return self.coeffs[0]

    def coefficient(self, alpha: tuple[int, ...]) -> Scalar:
        return self.coeffs[monomial_index(self.dim, self.order)[tuple(alpha)]]

    def is_zero(self, tol: float = 0.0) -> bool:
        if tol:
            return all(abs(c) <= tol for c in self.coeffs)
        return not any(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Jet)
            and self.dim == other.dim
            and self.order == other.order
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash((self.dim, self.order, self.coeffs))

    def __repr__(self):
        terms = []
        for m, c in zip(monomials(self.dim, self.order), self.coeffs):
            if c != 0:
                terms.append(f"{c}*u^{m}")
        return f"Jet({self.dim},{self.order}: {' + '.join(terms) or '0'})"

    # -- ring operations ---------------------------------------------------

    def _exact_terms(self) -> "tuple[list, int] | None":
        """The nonzero slots as ``(slot, integer numerator)`` over one common
        denominator, with that denominator; ``None`` when a slot is not an
        ``int`` or a ``Fraction``.  Made on the first call and kept, since a
        jet never changes."""
        form = self._numerators
        if form is None:
            c = self.coeffs
            terms = [(i, c[i]) for i in compress(range(len(c)), c)]
            types = {type(v) for _, v in terms}
            if types <= _INT:
                form = (terms, 1)
            elif types <= _EXACT:
                den = math.lcm(*[v.denominator for _, v in terms])
                form = ([(i, v.numerator * (den // v.denominator)) for i, v in terms], den)
            else:
                form = False
            self._numerators = form
        return form or None

    def _check(self, other: "Jet"):
        if self.dim != other.dim or self.order != other.order:
            raise JetShapeError(
                f"jet shape mismatch: ({self.dim},{self.order}) vs ({other.dim},{other.order})"
            )

    def __add__(self, other):
        if not isinstance(other, Jet):
            other = Jet.constant(self.dim, self.order, other)
        self._check(other)
        return Jet(self.dim, self.order,
                   [(a + b if a or type(a) is not int else b) if b else a
                    for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.dim, self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Jet):
            other = Jet.constant(self.dim, self.order, other)
        self._check(other)
        return Jet(self.dim, self.order,
                   [(a - b if a or type(a) is not int else -b) if b else a
                    for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.dim, self.order, [other * a if a else a for a in self.coeffs])
        self._check(other)
        ca, cb = self.coeffs, other.coeffs
        # an int constant 1 leaves the other operand as it is
        if type(cb[0]) is int and cb[0] == 1 and not any(cb[1:]):
            return self
        if type(ca[0]) is int and ca[0] == 1 and not any(ca[1:]):
            return other
        if len(ca) == 1:  # order 0: the product of two scalars
            a, b = ca[0], cb[0]
            c = a * b if a and b else 0
            # a float product that underflows to -0.0 is added to 0, as in a sum
            return Jet(self.dim, 0, (c if c else 0 + c,))
        # exact operands are dot's integer sum with one pair; a float constant
        # term settles that they are floats
        if type(ca[0]) is not float and type(cb[0]) is not float:
            out = _exact_dot(((self, other),), None)
            if out is not None:
                return out
        out = [0] * len(ca)
        slots = range(len(ca))
        _add_product(out, [(i, ca[i]) for i in compress(slots, ca)],
                     [(j, cb[j]) for j in compress(slots, cb)], self.dim, self.order)
        return Jet(self.dim, self.order, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return Jet(self.dim, self.order, [_exact_div(a, other) if a else a for a in self.coeffs])

    def reciprocal(self) -> "Jet":
        """Multiplicative inverse; requires a nonzero constant term."""
        c0 = self.value
        if c0 == 0:
            raise ZeroDivisionError("jet with zero constant term has no reciprocal")
        u = (self / c0) - 1  # nilpotent part, vanishes beyond the truncation order
        out = Jet.constant(self.dim, self.order, 1)
        if u.is_zero():
            return out / c0
        power = Jet.constant(self.dim, self.order, 1)
        for k in range(1, self.order + 1):
            power = power * u
            out = out + (power if k % 2 == 0 else -power)
        return out / c0

    # -- calculus ----------------------------------------------------------

    def partial(self, axis: int) -> "Jet":
        """Jet of the partial derivative; truncation order drops by one.

        Slot ``s`` of the result comes from entry ``s`` of the plan's row for
        ``x_axis``, which sits at slot ``dim - axis`` in graded order.
        """
        if not 0 <= axis < self.dim:
            raise JetShapeError(f"axis {axis} out of range for dim {self.dim}")
        if not self.order:
            return Jet(self.dim, 0, [0])
        row = _mul_plan(self.dim, self.order)[self.dim - axis]
        c = self.coeffs
        return Jet(self.dim, self.order - 1,
                   [(c[s] * (m[axis] + 1) if m[axis] else c[s]) if c[s] else 0
                    for s, m in zip(row, monomials(self.dim, self.order - 1))])

    def truncated(self, order: int) -> "Jet":
        """The jet at a lower order: a prefix of the slots in graded order."""
        if order > self.order:
            raise JetShapeError("cannot raise truncation order")
        if order == self.order:
            return self
        return Jet(self.dim, order, self.coeffs[:len(monomials(self.dim, order))])

    def embed(self, dim: int) -> "Jet":
        """The same jet in ``dim`` variables, whose first ``self.dim`` are
        this jet's own: each nonzero slot keeps its scalar, every other
        slot is int 0.  Fewer variables raise ``JetShapeError``."""
        if dim < self.dim:
            raise JetShapeError(f"cannot embed a dim {self.dim} jet in {dim} variables")
        idx = monomial_index(dim, self.order)
        pad = (0,) * (dim - self.dim)
        out = [0] * len(idx)
        for m, c in zip(monomials(self.dim, self.order), self.coeffs):
            if c:
                out[idx[m + pad]] = c
        return Jet(dim, self.order, out)

    # -- analytic functions (float backend) --------------------------------

    def exp(self) -> "Jet":
        e = math.exp(self.value)
        u = self - self.value
        out = Jet.constant(self.dim, self.order, e)
        power = Jet.constant(self.dim, self.order, 1)
        fact = 1
        for k in range(1, self.order + 1):
            power = power * u
            fact *= k
            out = out + power * (e / fact)
        return out


class PointMemo:
    """The highest-order jets a provider has made at the last point asked.

    ``jets(point, order, make)`` serves a lower or equal order at that point
    by truncation, and otherwise calls ``make(point, order)`` for a list of
    jets and keeps it.  0.5 and Fraction(1, 2) compare equal, so the key
    holds the point's scalar types.  When ``make`` raises, the memo keeps
    what it had.  The provider's jets must not change after the first call.
    """

    __slots__ = ("_key", "_order", "_jets")

    def __init__(self):
        self._key = self._order = self._jets = None

    def jets(self, point: tuple, order: int, make) -> list:
        key = (point, tuple(map(type, point)))
        if self._jets is None or key != self._key or self._order < order:
            jets = make(point, order)
            self._key, self._order, self._jets = key, order, jets
        return [j.truncated(order) for j in self._jets]


class _ScalarField:
    """Jet provider built from a function ``(point, order) -> Jet``."""

    def __init__(self, dim: int, jet_fn):
        self.dim = dim
        self._jet_fn = jet_fn

    def jet(self, point, order):
        return self._jet_fn(tuple(point), order)


def dot(pairs: Iterable[tuple], acc: "Jet | None" = None) -> "Jet | None":
    """``acc`` plus the sum of ``x * y`` over the ``(x, y)`` jet pairs.

    A pair whose ``x`` or ``y`` is ``None`` or a zero jet is skipped, so it
    costs no product.  When nothing is added, ``acc`` is returned as it is.
    Exact operands are summed in one integer buffer (:func:`_exact_dot`);
    floats are multiplied and added left to right, so their rounding is that
    of ``acc + x * y`` term by term.  Order-0 operands take the same sums on
    their one slot, as scalars (:func:`_slot_dot`).
    """
    live = [(x, y) for x, y in pairs
            if x is not None and y is not None and any(x.coeffs) and any(y.coeffs)]
    if not live:
        return acc
    x, y = live[0]
    if len(x.coeffs) == 1:
        return _slot_dot(live, acc)
    # a float constant term on the first live pair or on acc settles it at once
    if (type(x.coeffs[0]) is not float and type(y.coeffs[0]) is not float
            and (acc is None or type(acc.coeffs[0]) is not float)):
        out = _exact_dot(live, acc)
        if out is not None:
            return out
    for x, y in live:
        acc = x * y if acc is None else acc + x * y
    return acc


def _slot_dot(pairs: Sequence[tuple], acc: "Jet | None") -> Jet:
    """:func:`dot` on live order-0 jet pairs.

    Each pair's one slot is multiplied and added as a scalar, by the slot
    rules of ``Jet.__mul__`` and ``Jet.__add__``: exact scalars make one
    integer sum (:func:`_exact_sum`), so an exact zero is int 0; floats are
    added left to right, and a product that underflows to -0.0 adds as 0.
    """
    shape = pairs[0][0]
    if acc is not None:
        shape._check(acc)
    for x, y in pairs:
        shape._check(x)
        x._check(y)
    live = [(x.coeffs[0], y.coeffs[0]) for x, y in pairs]
    total = _exact_sum(live, 0 if acc is None else acc.coeffs[0])
    if total is None:
        total = None if acc is None else acc.coeffs[0]
        for a, b in live:
            c = a * b
            if total is None:
                total = 0 + c  # -0.0 becomes 0.0
            elif c:
                total = total + c
    return Jet(shape.dim, 0, (total,))


def _exact_sum(pairs: Iterable[tuple], start: Scalar = 0) -> "Scalar | None":
    """``start`` plus the sum of ``a * b`` over scalar pairs, or ``None`` when
    a scalar is not an ``int`` or a ``Fraction``.

    The sum runs in integers over the lcm of the denominators and is divided
    once at the end: a zero sum is int 0, and operands whose denominators
    are all 1 give an int, as in :func:`_exact_dot`.
    """
    if type(start) not in _EXACT:
        return None
    num, den = start.numerator, start.denominator
    for a, b in pairs:
        if type(a) not in _EXACT or type(b) not in _EXACT:
            return None
        if a and b:
            d = a.denominator * b.denominator
            if den % d:
                lcm = den // math.gcd(den, d) * d
                num, den = num * (lcm // den), lcm
            num += a.numerator * b.numerator * (den // d)
    return Fraction(num, den) if num and den > 1 else num


def slot_sum(jet: Jet, weights: Iterable[tuple]) -> Scalar:
    """``Σ w · jet.coeffs[s]`` over the ``(s, w)`` pairs of ``weights``.

    Exact weights on exact slots make one integer sum (:func:`_exact_sum`);
    otherwise the terms are added left to right as ``total + w * c`` from
    int 0, so float sums keep their rounding.
    """
    coeffs = jet.coeffs
    return _scalar_dot([(w, coeffs[s]) for s, w in weights])


def _exact_dot(pairs: Sequence[tuple], acc: "Jet | None") -> "Jet | None":
    """``acc`` plus the sum of ``x * y`` over live exact jet pairs, or
    ``None`` when an operand has a float slot.

    Every operand is read in its integer form (``Jet._exact_terms``).  The
    products and ``acc`` are summed in one integer buffer over the lcm ``D``
    of the pair denominators, and each nonzero slot becomes one
    ``Fraction(n, D)``; zero slots stay ``int`` 0, and int-only operands
    give int slots.
    """
    shape = pairs[0][0] if acc is None else acc
    forms = []
    for x, y in pairs:
        shape._check(x)
        x._check(y)
        nx, ny = x._exact_terms(), y._exact_terms()
        if not (nx and ny):
            return None
        forms.append((nx, ny))
    na = None if acc is None else acc._exact_terms()
    if acc is not None and not na:
        return None
    den = math.lcm(*[dx * dy for (_, dx), (_, dy) in forms], na[1] if na else 1)
    out = [0] * len(shape.coeffs)
    if na:
        scale = den // na[1]
        for i, a in na[0]:
            out[i] = a * scale
    for (lhs, dx), (rhs, dy) in forms:
        scale = den // (dx * dy)
        if scale != 1:
            if len(lhs) > len(rhs):
                lhs, rhs = rhs, lhs
            lhs = [(i, a * scale) for i, a in lhs]
        _add_product(out, lhs, rhs, shape.dim, shape.order)
    if den > 1:
        for k in compress(range(len(out)), out):
            out[k] = Fraction(out[k], den)
    return Jet(shape.dim, shape.order, out)


def _add_product(out: list, lhs: list, rhs: list, dim: int, order: int) -> None:
    """Add the truncated Cauchy product of two ``(slot, scalar)`` term lists,
    in increasing slot order, into ``out``.

    Terms commute, so an operand whose only term is its constant is moved to
    the right, where it scales the other one without the plan.  Otherwise
    every slot's sum runs in the ``(i, j)`` order of the terms.
    """
    if len(lhs) == 1 and not lhs[0][0]:
        lhs, rhs = rhs, lhs
    if len(rhs) == 1 and not rhs[0][0]:
        c = rhs[0][1]
        for i, a in lhs:
            out[i] += a * c
        return
    plan = _mul_plan(dim, order)
    for i, a in lhs:
        row = plan[i]
        n = len(row)
        for j, b in rhs:
            if j >= n:
                break
            out[row[j]] += a * b


def partial_or_none(jet: "Jet | None", axis: int) -> "Jet | None":
    """``jet.partial(axis)``, or ``None`` when ``jet`` is ``None`` or a zero
    jet; :func:`dot` skips the ``None``."""
    return None if jet is None or not any(jet.coeffs) else jet.partial(axis)


# ---------------------------------------------------------------------------
# composition and reversion


def jet_compose(outer: Jet, inner: Sequence[Jet]) -> Jet:
    """Substitute inner jets into outer's expansion.

    ``outer`` lives in ``m`` variables; ``inner`` supplies one jet per outer
    variable, each with zero constant term (the composition is shifted to the
    outer base point).  Shared target dimension and order are required.
    """
    if len(inner) != outer.dim:
        raise JetShapeError(f"outer expects {outer.dim} inner jets, got {len(inner)}")
    if not inner:
        raise JetShapeError("composition needs at least one variable")
    dim, order = inner[0].dim, inner[0].order
    for g in inner:
        if g.dim != dim or g.order != order:
            raise JetShapeError("inner jets must share dimension and order")
        if g.value != 0:
            raise JetShapeError("inner jets must have zero constant term")
    if order != outer.order:
        raise JetShapeError("outer and inner truncation orders must agree")

    powers = _powers(inner, [c != 0 for c in outer.coeffs])
    out = Jet.constant(dim, order, outer.coeffs[0])
    for s in compress(range(1, len(powers)), outer.coeffs[1:]):
        out = out + powers[s] * outer.coeffs[s]
    return out


def _powers(inner: Sequence[Jet], needed: Sequence[bool]) -> list:
    """``inner^m`` for the monomials ``m`` in ``len(inner)`` variables, to the
    inner order, whose slots ``needed`` marks; ``None`` at the other slots
    and at the constant.

    A monomial needs its predecessor, which sits at a lower slot, so one pass
    down the slots marks them and one pass up builds each power from its
    predecessor's.
    """
    preds, axes = _predecessors(len(inner), inner[0].order)
    needed = list(needed)
    for s in range(len(needed) - 1, 0, -1):
        if needed[s]:
            needed[preds[s - 1]] = True
    powers: list = [None] * len(needed)
    for s in compress(range(1, len(needed)), needed[1:]):
        pred, k = preds[s - 1], axes[s - 1]
        powers[s] = powers[pred] * inner[k] if pred else inner[k]
    return powers


def jet_invert(map_jets: Sequence[Jet]) -> list[Jet]:
    """Compositional inverse of a jet map with zero constant terms.

    Solves degree by degree: after the linear part is inverted, each order-k
    defect of ``compose(g, F) - id`` is removed by a homogeneous correction.
    Raises :class:`SingularJacobianError` when the linear part is singular.
    """
    dim = len(map_jets)
    if dim == 0:
        return []
    order = map_jets[0].order
    for f in map_jets:
        if f.dim != dim or f.order != order:
            raise JetShapeError("map jets must be square: d jets in d variables")
        if f.value != 0:
            raise JetShapeError("map jets must have zero constant term")

    jac = [[f.partial(j).value for j in range(dim)] for f in map_jets]
    try:
        inv = mat_inv(jac)
    except SingularJacobianError:
        raise SingularJacobianError("map has singular Jacobian, no local inverse")

    # the linear jets of the inverse, one per row; slot dim - j holds x_j
    tail = [0] * (len(monomials(dim, order)) - dim - 1)
    inv_lin = [Jet(dim, order, [0, *row[::-1], *tail]) for row in inv]
    ident = [Jet.variable(dim, order, k) for k in range(dim)]
    degrees = [sum(m) for m in monomials(dim, order)]
    g = list(inv_lin)
    for k in range(2, order + 1):
        # keep only the homogeneous degree-k defect; lower orders are clean
        defect = []
        for gi, xi in zip(g, ident):
            err = jet_compose(gi, map_jets) - xi
            defect.append(
                Jet(dim, order, [c if d == k else 0 for c, d in zip(err.coeffs, degrees)])
            )
        g = [gi - jet_compose(d, inv_lin) for gi, d in zip(g, defect)]
    return g


# ---------------------------------------------------------------------------
# small dense linear algebra by cofactors, generic over scalars and jets


def _scalar_dot(pairs: Sequence[tuple]) -> Scalar:
    """The sum of ``a * b`` over scalar pairs: one integer sum when exact
    (:func:`_exact_sum`), else added left to right as ``total + a * b`` from
    int 0, so float sums keep their rounding."""
    total = _exact_sum(pairs)
    if total is None:
        total = 0
        for a, b in pairs:
            total = total + a * b
    return total


def _minors(rows: Sequence[Sequence]):
    """``minor(rs, cs, negate)``: the determinant of rows ``rs`` and columns
    ``cs`` of a square matrix, negated when ``negate``, expanded along its
    first row.

    On jets each expansion is one :func:`dot`, which skips zero entries and
    gives ``None`` for a zero sum; on scalars it is one :func:`_scalar_dot`.
    A sign is carried by negating the entries of a minor's first row; an
    entry is negated the first time a minor needs it, and kept.
    """
    neg = [[None] * len(r) for r in rows]
    proto = rows[0][0]
    if isinstance(proto, Jet):
        one, total = Jet.constant(proto.dim, proto.order, 1), dot
    else:
        one, total = 1, _scalar_dot

    def negated(r: int, c: int):
        e = neg[r][c]
        if e is None:
            e = neg[r][c] = -rows[r][c]
        return e

    def minor(rs: tuple, cs: tuple, negate: bool):
        if not cs:
            return -one if negate else one
        r = rs[0]
        if len(cs) == 1:
            return negated(r, cs[0]) if negate else rows[r][cs[0]]
        return total([(negated(r, c) if k % 2 != negate else rows[r][c],
                       minor(rs[1:], cs[:k] + cs[k + 1:], False)) for k, c in enumerate(cs)])

    return minor


def _square(rows: Sequence[Sequence]) -> int:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise JetShapeError("matrix must be square")
    return n


def mat_det(rows: Sequence[Sequence]) -> Scalar | Jet:
    """Determinant by cofactor expansion along the first row; exact for
    exact inputs.  Entries are all scalars or all jets; the determinant of
    jets is a jet, every slot of it, even where its value is 0."""
    n = _square(rows)
    if not n:
        return 1
    det = _minors(rows)(tuple(range(n)), tuple(range(n)), False)
    return Jet.zero(rows[0][0].dim, rows[0][0].order) if det is None else det


def mat_inv(rows: Sequence[Sequence]) -> list[list]:
    """Inverse by cofactors: entry ``[j][i]`` is the cofactor ``C_ij`` over
    the determinant, the first row against its cofactors.

    Entries are all scalars or all jets; the result has the same entry type.
    A jet inverse multiplies each nonzero cofactor by one reciprocal of the
    determinant jet, and a zero cofactor gives a zero jet; an exact scalar
    inverse divides exactly, an integral quotient stays ``int`` and a zero
    cofactor stays as it is.  The work grows as n!: the program inverts
    nothing above 4 x 4 (a suspension's Jacobian at dim 3), since a lift's
    inverse Jacobian is a transpose.  Raises :class:`SingularJacobianError`
    when the determinant's value is 0.
    """
    n = _square(rows)
    if not n:
        return []
    minor = _minors(rows)
    others = [tuple(r for r in range(n) if r != k) for k in range(n)]
    cof = [[minor(others[i], others[j], (i + j) % 2 == 1) for j in range(n)] for i in range(n)]
    if isinstance(rows[0][0], Jet):
        det = dot(zip(rows[0], cof[0]))
        if det is None or det.value == 0:
            raise SingularJacobianError("singular matrix")
        rec = det.reciprocal()
        zero = Jet.zero(det.dim, det.order)
        return [[zero if cof[i][j] is None else cof[i][j] * rec for i in range(n)]
                for j in range(n)]
    det = _scalar_dot(list(zip(rows[0], cof[0])))
    if det == 0:
        raise SingularJacobianError("singular matrix")
    return [[_exact_div(cof[i][j], det) if cof[i][j] else cof[i][j] for i in range(n)]
            for j in range(n)]


# ---------------------------------------------------------------------------
# polynomial jet providers


@lru_cache(maxsize=None)
def _shift_table(m: tuple[int, ...], order: int) -> tuple:
    """The binomial Taylor shift of ``x^m`` to order ``order``: for each
    ``u^b`` it reaches, the slot of ``b`` and its factors
    ``(k, C(m_k, b_k), m_k - b_k)``, one per axis with ``b_k < m_k``, in
    axis order.  A factor of 1 (``b_k == m_k``) is left out, so an int
    coefficient stays int at a float point."""
    idx = monomial_index(len(m), order)
    entries = [((), ())]
    for k, e in enumerate(m):
        entries = [(b + (j,), f if j == e else f + ((k, math.comb(e, j), e - j),))
                   for b, f in entries for j in range(min(e, order - sum(b)) + 1)]
    return tuple((idx[b], f) for b, f in entries)


class Polynomial:
    """Polynomial function of d variables, a jet provider for everything above.

    Terms map exponent multi-indices to coefficients.  The jet at ``p`` is
    the binomial Taylor shift of the terms to ``p + u``: the coefficient of
    ``u^b`` in ``x^m`` is ``prod_k C(m_k, b_k) p_k^(m_k - b_k)``, so no jet
    products are formed, and the jet is exact whenever the coefficients and
    the point are.  An exact shift sums integer numerators: with the point
    over ``den_p``, the coefficients over ``den_c`` and the top term degree
    ``top``, a slot of degree ``t`` is an integer over
    ``den_c * den_p^(top - t)``, made a ``Fraction`` once if nonzero and left
    ``int`` 0 otherwise.  Int coefficients at an int point give int slots;
    float inputs are shifted as they are.  Each term reads the slots it
    reaches and their factors from one cached table (:func:`_shift_table`).
    A value on exact inputs is the shift at order 0; on floats each term is
    multiplied out left to right, so a zero coordinate still gives a float
    and ``p ** r`` is not rounded once.  A :class:`PointMemo` keeps the
    highest-order jet at the last point, so the terms must not change after
    the first jet.
    """

    def __init__(self, dim: int, terms: dict[tuple[int, ...], Scalar]):
        self.dim = dim
        self.terms = {tuple(m): c for m, c in terms.items() if c != 0}
        for m in self.terms:
            if len(m) != dim:
                raise JetShapeError("term arity does not match dimension")
        self._memo = PointMemo()

    @staticmethod
    def coordinate(dim: int, axis: int) -> "Polynomial":
        return Polynomial(dim, {tuple(1 if k == axis else 0 for k in range(dim)): 1})

    @staticmethod
    def constant(dim: int, value: Scalar) -> "Polynomial":
        return Polynomial(dim, {(0,) * dim: value})

    def _is_exact(self, point: Sequence[Scalar]) -> bool:
        return (all(type(x) in _EXACT for x in point)
                and all(type(c) in _EXACT for c in self.terms.values()))

    def __call__(self, point: Sequence[Scalar]) -> Scalar:
        """The value at ``point``: on exact inputs the shift at order 0,
        otherwise each term multiplied out left to right from int 0."""
        if self._is_exact(point):
            return self._shift(point, 0)[0].value
        total = 0
        for m, c in self.terms.items():
            term = c
            for x, e in zip(point, m):
                for _ in range(e):
                    term = term * x
            total = total + term
        return total

    def jet(self, point: Sequence[Scalar], order: int) -> Jet:
        return self._memo.jets(tuple(point), order, self._shift)[0]

    def _shift(self, point: Sequence[Scalar], order: int) -> list[Jet]:
        """The jet at ``point``, as a list of one."""
        monos = monomials(self.dim, order)
        out = [0] * len(monos)
        if not self.terms:
            return [Jet(self.dim, order, out)]
        # term m is scaled by den_p^(top - |m|) so that slots of one degree
        # share a denominator; float inputs keep both denominators 1
        den_p = den_c = 1
        exact = self._is_exact(point)
        if exact:
            top = max(map(sum, self.terms))
            den_p = math.lcm(*[x.denominator for x in point])
            den_c = math.lcm(*[c.denominator for c in self.terms.values()])
            point = [x.numerator * (den_p // x.denominator) for x in point]
        for m, c in self.terms.items():
            if exact:
                c = c.numerator * (den_c // c.denominator) * den_p ** (top - sum(m))
            # a zero factor (p_k == 0) drops the slot, which stays int 0
            for slot, factors in _shift_table(m, order):
                v = c
                for k, comb, r in factors:
                    p = point[k]
                    if not p:
                        break
                    v = v * (comb * p ** r)
                else:
                    out[slot] += v
        if den_c * den_p > 1:
            for k in compress(range(len(out)), out):
                out[k] = Fraction(out[k], den_c * den_p ** (top - sum(monos[k])))
        return [Jet(self.dim, order, out)]

    def partial(self, axis: int) -> "Polynomial":
        out: dict[tuple[int, ...], Scalar] = {}
        for m, c in self.terms.items():
            if m[axis] == 0:
                continue
            t = tuple(e - 1 if k == axis else e for k, e in enumerate(m))
            out[t] = out.get(t, 0) + c * m[axis]
        return Polynomial(self.dim, out)

    def __repr__(self):
        return f"Polynomial({self.dim}, {self.terms})"
