"""Batch verification harness: seeded scenarios, suites, JSON reports.

A scenario fixes the dimension, scalar backend, tolerance, sample count,
seed, the suites to run and the catalog maps to draw pairs from; each suite
fixes the jet orders it needs.  ``ScenarioConfig``'s field defaults are the
only defaults and ``ScenarioConfig.validate`` is the only checker, whether
the scenario comes from command-line flags, a file or Python; ``run_scenario``
calls it on every run.
``ALL_SUITES`` is the suite table's names, in order; naming a suite twice,
or one map spec twice, is a usage error, and so, on the exact backend, are
``exp_scale``, which is transcendental, and a float map parameter.
The seed determines every sampled point, every random polynomial and
every catalog draw, so two runs of the same scenario produce
byte-identical reports apart from the timing block.

Sample points are drawn uniformly from a small box (dyadic rationals on the
exact backend) and rejected, with a bounded retry budget, until the case's
chain of maps is regular along them (``_points``).  An exhausted budget does
not abort the run: its suite ends in one error row, and the other suites
still run.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .jets import (
    BAD_POINT_ERRORS,
    EvaluationError,
    Polynomial,
    Scalar,
    monomials,
)
from .maps import DiffeoMap, VectorField, _eye, _shear, catalog_get, cotangent_lift
from .geometry import Connection, _max_abs_entry, cocycle_C, lift_connection
from .operators import Symbol, apply_op_to_symbol, build_L_covariant, build_L_flat
from .cocycles import (
    CaseResult,
    ConnectionCompareCocycle,
    DeRhamCocycle,
    LogVolumeCocycle,
    OperatorCocycle,
    PhaseCompareCocycle,
    SabotagedPhaseCompare,
    SchwarzianCocycle,
    _residual_str,
    chevalley_p3_residual,
    derham_cocycle,
    derham_quadrature,
    divergence_cocycle,
    divergence_field,
    lie_derivative_connection,
    log_volume_cocycle,
    moyal_p3,
    run_case,
    scalar_field_action,
    schwarzian_1d,
    suspension_connection,
    suspension_log_volume,
    tensor_lie_derivative,
    algebra_cocycle_residual,
    vect_embedding_cocycle,
    verify_group_cocycle,
)

__all__ = ["ScenarioConfig", "run_scenario", "ALL_SUITES", "ConfigError"]

SCHEMA_VERSION = 1
PAIR_CAP = 12
RETRY_BUDGET = 64
SAMPLES_CAP = 1000


class ConfigError(ValueError):
    """Scenario configuration is invalid (usage error, exit code 2)."""


@dataclass
class ScenarioConfig:
    dim: int = 1
    backend: str = "exact"
    tol: float = 1e-8
    samples: int = 5
    seed: int = 0
    suites: tuple = field(default_factory=lambda: ALL_SUITES)
    maps: list = field(default_factory=list)
    # catalog maps built from ``maps`` (or the default pool) by validate()
    pool: list = field(default_factory=list, init=False, repr=False, compare=False)
    # residual tolerance of a case: 0 (exact residuals) on the exact backend
    case_tol: float = field(default=0, init=False, repr=False, compare=False)

    def validate(self):
        for name in ("dim", "samples", "seed"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
        if not isinstance(self.tol, (int, float)) or isinstance(self.tol, bool):
            raise ConfigError(f"tol must be a number, got {self.tol!r}")
        try:
            self.tol = float(self.tol)
        except OverflowError:
            raise ConfigError(f"tol {self.tol!r} is out of range") from None
        if not isinstance(self.suites, (list, tuple)):
            raise ConfigError(f"suites must be a list of suite names, got {self.suites!r}")
        if not isinstance(self.maps, (list, tuple)) or not all(
                isinstance(spec, (list, tuple)) and len(spec) == 2 and isinstance(spec[0], str)
                and isinstance(spec[1], (dict, type(None))) for spec in self.maps):
            raise ConfigError("maps must be a list of [name, {params}] pairs")
        self.maps = [(name, {k: _parse_scalar(k, v) for k, v in (params or {}).items()})
                     for name, params in self.maps]
        if not 1 <= self.dim <= 3:
            raise ConfigError(f"dim must be 1..3, got {self.dim}")
        if self.backend not in ("exact", "float"):
            raise ConfigError(f"backend must be exact|float, got {self.backend!r}")
        if not self.suites:
            raise ConfigError("at least one suite must be selected")
        for i, s in enumerate(self.suites):
            if s not in ALL_SUITES:
                raise ConfigError(f"unknown suite {s!r}; choose from {', '.join(ALL_SUITES)}")
            if s in self.suites[:i]:
                raise ConfigError(f"suite {s!r} is listed more than once")
        if not 1 <= self.samples <= SAMPLES_CAP:
            raise ConfigError(f"samples must be 1..{SAMPLES_CAP}, got {self.samples}")
        if self.backend == "float" and not (0 < self.tol < 1):
            raise ConfigError("tol must be in (0, 1) for the float backend")
        pool = _instantiate_pool(self)
        if "degree_lowering" in self.suites and all(m.name == "identity" for m in pool):
            raise ConfigError("degree_lowering needs a map other than identity in the pool")
        self.case_tol = 0 if self.backend == "exact" else self.tol
        self.pool = pool
        return self

    def as_dict(self) -> dict:
        return {
            "dim": self.dim,
            "backend": self.backend,
            "tol": repr(self.tol),
            "samples": self.samples,
            "seed": self.seed,
            "suites": list(self.suites),
            "maps": [[name, {k: _scalar_str(v) for k, v in params.items()}]
                     for name, params in self._map_specs()],
        }

    def _map_specs(self) -> list:
        return self.maps if self.maps else default_map_pool(self.dim, self.backend)

    @staticmethod
    def from_file(path: str) -> "ScenarioConfig":
        """The validated scenario of a JSON file.  Beyond reading a JSON
        object with known fields, every check is :meth:`validate`'s."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read scenario file {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("a scenario file must hold a JSON object")
        unknown = set(raw) - {f.name for f in fields(ScenarioConfig) if f.init}
        if unknown:
            raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
        return ScenarioConfig(**raw).validate()


def _scalar_str(v):
    if isinstance(v, list):
        return [_scalar_str(x) for x in v]
    return repr(v) if isinstance(v, float) else str(v)


def _has_float(v) -> bool:
    return any(map(_has_float, v)) if isinstance(v, list) else isinstance(v, float)


def _parse_scalar(key, v):
    if isinstance(v, bool):
        raise ConfigError(f"map parameter {key}={v!r} is not a number")
    if isinstance(v, str):
        try:
            return Fraction(v)  # covers "p/q" and integer literals
        except ZeroDivisionError:
            raise ConfigError(f"map parameter {key}={v!r} has a zero denominator") from None
        except ValueError:
            pass
        try:
            v = float(v)
        except ValueError:
            raise ConfigError(f"map parameter {key}={v!r} is not a number") from None
    if isinstance(v, list):
        return [_parse_scalar(key, x) for x in v]
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(f"map parameter {key}={v!r} is not finite")
    return v


# ---------------------------------------------------------------------------
# catalog pools and sampling


def default_map_pool(dim: int, backend: str) -> list:
    """Deterministic default (name, params) specs per dimension/backend."""
    if backend == "float":
        pool = [
            ("exp_scale", {"lam": 0.5}),
            ("polynomial_perturbation", {"eps": 0.125}),
            ("linear", {"A": 1.5 if dim == 1 else _eye(dim, 1.5)}),
            ("translation", {"c": [0.25] * dim if dim > 1 else 0.25}),
        ]
        if dim == 1:
            pool.append(("moebius", {"a": 1.0, "b": 0.0, "c": 0.5, "d": 1.0}))
        return pool
    pool = [
        ("identity", {}),
        ("translation", {"c": [Fraction(1, 4)] * dim if dim > 1 else Fraction(1, 4)}),
        ("linear", {"A": _shear(dim)}),
        ("affine", {"A": Fraction(3, 2) if dim == 1 else _eye(dim, Fraction(3, 2)),
                    "b": [Fraction(-1, 8)] * dim if dim > 1 else Fraction(-1, 8)}),
        ("polynomial_perturbation", {"eps": Fraction(1, 8)}),
        ("projective", {}),
    ]
    if dim == 1:
        pool.append(("moebius", {"a": 1, "b": 0, "c": 1, "d": 1}))
        pool.append(("moebius", {"a": 2, "b": 1, "c": 1, "d": 1}))
    return pool


def _instantiate_pool(cfg: ScenarioConfig) -> list[DiffeoMap]:
    """The catalog maps of the scenario's map specs.  A spec listed twice
    would repeat case ids, an ``exp_scale`` map has no exact jets, and a
    float parameter would make an exact map's jets floats.  A spec's ``dim``
    is compared with the scenario's before the map is built, since building
    a large one costs n! in its determinant."""
    out = []
    seen = []
    for name, params in cfg._map_specs():
        p = dict(params)
        p.setdefault("dim", cfg.dim)
        if (name, p) in seen:
            raise ConfigError(f"map {name!r} is listed more than once with the same parameters")
        seen.append((name, p))
        if name == "exp_scale" and cfg.backend == "exact":
            raise ConfigError("exp_scale needs the float backend")
        for k, v in params.items():
            if cfg.backend == "exact" and _has_float(v):
                raise ConfigError(f"map {name!r} has a float parameter {k}={_scalar_str(v)}, "
                                  'which the exact backend would round; write it as "p/q"')
        if p["dim"] != cfg.dim:
            raise ConfigError(f"map {name!r} has dim {p['dim']}, "
                              f"but the scenario has dim {cfg.dim}")
        try:
            out.append(catalog_get(name, p))
        except (KeyError, ValueError, ArithmeticError) as exc:
            reason = exc.args[0] if exc.args else type(exc).__name__
            raise ConfigError(f"cannot build map {name!r}: {reason}") from None
    return out


def _pairs(pool: list[DiffeoMap]) -> list:
    allp = list(itertools.product(pool, repeat=2))
    if len(allp) <= PAIR_CAP:
        return allp
    stride = max(1, len(allp) // PAIR_CAP)
    return allp[::stride][:PAIR_CAP]


class Sampler:
    """Seeded point sampler with rejection against singular loci."""

    def __init__(self, cfg: ScenarioConfig):
        self.rng = random.Random(cfg.seed)
        self.backend = cfg.backend

    def scalar(self, denom: int = 16, nonzero: bool = False):
        while True:
            k = self.rng.randint(-8, 8)
            if nonzero and k == 0:
                continue
            break
        if self.backend == "float":
            return k / denom
        return Fraction(k, denom)

    def base_point(self, dim: int) -> tuple:
        return tuple(self.scalar() for _ in range(dim))

    def phase_point(self, dim: int) -> tuple:
        base = [self.scalar() for _ in range(dim)]
        fiber = [self.scalar(denom=8, nonzero=True) for _ in range(dim)]
        return tuple(base + fiber)

    def point_for(self, ok_fn, maker, label: str):
        for _ in range(RETRY_BUDGET):
            p = maker()
            try:
                ok = ok_fn(p)
            except BAD_POINT_ERRORS:
                continue
            if ok:
                return p
        raise EvaluationError(f"retry budget exhausted sampling a point for {label}")

    def fraction_poly(self, dim: int, max_deg: int = 2) -> Polynomial:
        terms = {}
        for m in monomials(dim, max_deg):
            k = self.rng.randint(-4, 4)
            if k:
                terms[m] = k if self.backend == "float" else Fraction(k, 8)
        if not terms:
            terms[(0,) * dim] = Fraction(1, 8) if self.backend == "exact" else 0.125
        return Polynomial(dim, terms)

    def connection(self, dim: int) -> Connection:
        """A symmetric connection with one degree-2 :meth:`fraction_poly`
        per ``Gamma^k_ij``, ``i <= j``, drawn in that order."""
        return Connection.from_polynomials(
            dim, {(k, i, j): self.fraction_poly(dim, 2)
                  for k in range(dim) for i in range(dim) for j in range(i, dim)},
            name="random_poly")

    def vector_field(self, dim: int, tag: str) -> VectorField:
        return VectorField.from_polynomials(
            [self.fraction_poly(dim, 3) for _ in range(dim)], name=tag)


def _points(sampler: Sampler, chain: tuple, count: int, label: str,
            phase: bool = False, oriented: bool = False) -> list:
    """``count`` sampled points (phase points when ``phase``) over whose base
    part the chain of maps ``(f, ..., h)`` is regular: its last map has an
    invertible Jacobian at the point, each earlier map at the image of the
    next, and with ``oriented`` each determinant is positive."""
    n = chain[-1].dim
    maker = sampler.phase_point if phase else sampler.base_point

    def regular(point):
        p = point[:n]
        for k in reversed(range(len(chain))):
            det = chain[k].jacobian_det(p)
            if det == 0 or (oriented and float(det) <= 0):
                return False
            if k:
                p = chain[k](p)
        return True

    return [sampler.point_for(regular, lambda: maker(n), label) for _ in range(count)]


def _max_abs_value(field, point):
    v = field.values(point)
    return _max_abs_entry(field.dim, lambda k, i, j: v[k][i][j])


def _degree_excess(out: Symbol, k: int, tol: float) -> Fraction:
    """How far the degree of ``out`` exceeds k - 2, the degree a third-order
    operator leaves of a degree-k symbol."""
    return Fraction(max(out.degree(tol) - (k - 2), 0))


def _action_identity_case(suite: str, cand, cfg: ScenarioConfig, sampler: Sampler,
                          pool) -> CaseResult:
    """Action-convention sanity: the identity map must act trivially, so
    the residual of c(f o id) = id . c(f) + c(id) vanishes."""
    probe = pool[min(1, len(pool) - 1)]
    identity = catalog_get("identity", {"dim": probe.dim})
    z, = _points(sampler, (probe,), 1, "action_identity", phase=True)
    return run_case(suite, "action_identity", [probe.name], z,
                    lambda: cand.residual(probe, identity, z), cfg.case_tol)


# ---------------------------------------------------------------------------
# suites


def _suite_lift(cfg: ScenarioConfig, sampler: Sampler, pool) -> list[CaseResult]:
    rows = []
    n = cfg.dim
    tol = cfg.case_tol
    flat = Connection.flat_connection(n)
    flat_lift = lift_connection(flat)
    gamma = sampler.connection(n)
    glift = lift_connection(gamma)

    def fiber_nonlinearity(z):
        # fiber-linearity: no component may carry fiber degree two
        comps = glift.components(z, 2)
        nonlin = 0
        for k in range(2 * n):
            for i in range(2 * n):
                for j in range(2 * n):
                    jet = comps[k][i][j]
                    for m, c in zip(monomials(jet.dim, jet.order), jet.coeffs):
                        if sum(m[n:]) >= 2 and c != 0:
                            nonlin = max(nonlin, abs(c))
        return nonlin

    for idx in range(cfg.samples):
        z = sampler.phase_point(n)
        rows.append(run_case("lift", f"flat_zero@{idx}", [], z,
                             lambda: _max_abs_value(flat_lift, z), tol))
        rows.append(run_case("lift", f"symmetry@{idx}", [], z,
                             lambda: glift.symmetry_defect(z), tol))
        rows.append(run_case("lift", f"fiber_linearity@{idx}", [], z,
                             lambda: fiber_nonlinearity(z), tol))

    if n == 1:
        # worked example: base symbol x lifts to xi(2x^2-1) and -x blocks
        gx = Connection.from_polynomials(1, {(0, 0, 0): Polynomial.coordinate(1, 0)})
        lx = lift_connection(gx)

        def worked_defect(z):
            c = lx.values(z)
            x, xi = z
            return max(
                abs(c[1][0][0] - xi * (2 * x * x - 1)),
                abs(c[1][0][1] - (-x)),
                abs(c[1][1][0] - (-x)),
                abs(c[0][0][0] - x),
                abs(c[1][1][1]),
                abs(c[0][0][1]),
                abs(c[0][1][0]),
                abs(c[0][1][1]),
            )

        for idx in range(cfg.samples):
            z = sampler.phase_point(1)
            rows.append(run_case("lift", f"worked_example@{idx}", [], z,
                                 lambda: worked_defect(z), tol))
    return rows


def _suite_cocycle_C(cfg, sampler, pool) -> list[CaseResult]:
    rows = []
    n = cfg.dim
    tol = cfg.case_tol
    flat = Connection.flat_connection(n)
    cand = PhaseCompareCocycle(flat)
    for f, h in _pairs(pool):
        pts = _points(sampler, (f, h), cfg.samples, "cocycle_C", phase=True)
        rows.extend(verify_group_cocycle(cand, f, h, pts, tol, suite="cocycle_C"))

    # affine lifts with a flat connection produce the zero tensor
    aff = catalog_get("affine", {"dim": n, "A": _eye(n, 2), "b": [Fraction(1, 4)] * n})
    Ca = cocycle_C(cotangent_lift(aff), lift_connection(flat))
    for idx in range(cfg.samples):
        z = sampler.phase_point(n)
        rows.append(run_case("cocycle_C", f"affine_flat_zero@{idx}", [aff.name], z,
                             lambda: _max_abs_value(Ca, z), tol))

    rows.append(_action_identity_case("cocycle_C", cand, cfg, sampler, pool))

    # engine self-test: a wrong action convention must be detected
    sab = SabotagedPhaseCompare(flat)
    f = catalog_get("polynomial_perturbation", {"dim": n, "eps": Fraction(1, 8)})
    h = catalog_get("projective", {"dim": n})
    z, = _points(sampler, (f, h), 1, "sabotage", phase=True)
    rows.append(run_case("cocycle_C", "sabotage_detected", [f.name, h.name], z,
                         lambda: sab.residual(f, h, z), tol, witness=True))
    return rows


def _suite_operator_L(cfg, sampler, pool) -> list[CaseResult]:
    rows = []
    n = cfg.dim
    tol = cfg.case_tol
    flat = Connection.flat_connection(n)
    cand = OperatorCocycle(flat)
    for f, h in _pairs(pool):
        pts = _points(sampler, (f, h), cfg.samples, "operator_L", phase=True)
        rows.extend(verify_group_cocycle(cand, f, h, pts, tol, suite="operator_L"))

    rows.append(_action_identity_case("operator_L", cand, cfg, sampler, pool))

    # affine kernel: the operator vanishes identically on affine maps
    for name, params in (("linear", {"A": _eye(n, 2)}),
                         ("translation", {"c": [Fraction(1, 4)] * n}),
                         ("affine", {"A": _eye(n, Fraction(3, 2)), "b": [Fraction(1, 8)] * n})):
        m = catalog_get(name, dict(params, dim=n))
        z = sampler.phase_point(n)
        rows.append(run_case("operator_L", f"affine_kernel[{m.name}]", [m.name], z,
                             lambda: build_L_covariant(m, flat, z).max_abs(), tol))

    # non-vanishing on the fractional-linear family
    probe = catalog_get("moebius", {"a": 1, "b": 0, "c": 1, "d": 1}) if n == 1 \
        else catalog_get("projective", {"dim": n})
    z, = _points(sampler, (probe,), 1, "nonvanishing", phase=True)
    rows.append(run_case("operator_L", f"nonvanishing[{probe.name}]", [probe.name], z,
                         lambda: build_L_covariant(probe, flat, z).max_abs(), tol,
                         witness=True))
    return rows


def _suite_degree_lowering(cfg, sampler, pool) -> list[CaseResult]:
    rows = []
    n = cfg.dim
    tol = cfg.case_tol
    flat = Connection.flat_connection(n)
    usable = [m for m in pool if m.name != "identity"]
    for k in (2, 3, 4, 5):
        for idx in range(max(1, cfg.samples - 2)):
            m = usable[(k + idx) % len(usable)]
            x, = _points(sampler, (m,), 1, "degree_lowering")
            mu = [0] * n
            left = k
            for axis in range(n):
                take = sampler.rng.randint(0, left) if axis < n - 1 else left
                mu[axis] = take
                left -= take
            coeffs = {tuple(mu): sampler.fraction_poly(n, 2)}
            if k >= 3:
                mu2 = list(mu)
                for axis in range(n):
                    if mu2[axis] > 0:
                        mu2[axis] -= 1
                        break
                coeffs[tuple(mu2)] = sampler.fraction_poly(n, 1)
            sym = Symbol(n, coeffs)

            def excess():
                op = build_L_covariant(m, flat, x + (0,) * n, coeff_order=k + 1)
                return _degree_excess(apply_op_to_symbol(op, sym, x), k, tol)

            rows.append(run_case("degree_lowering", f"k={k}[{m.name}]@{idx}", [m.name], x,
                                 excess, tol))

    if n == 1:
        f = catalog_get("polynomial_perturbation", {"eps": 1})

        def cubic_defect():
            op = build_L_flat(f, (Fraction(0), Fraction(0)), coeff_order=4)
            out = apply_op_to_symbol(op, Symbol.monomial(1, (3,)), (Fraction(0),))
            val = out.coefficient_value((1,), (Fraction(0),))
            return abs(val - (-36)) + abs(Fraction(max(out.degree() - 1, 0)))

        rows.append(run_case("degree_lowering", "worked_example_cubic", [f.name],
                             (Fraction(0),), cubic_defect, tol))
    return rows


def _suite_classical(cfg, sampler, pool) -> list[CaseResult]:
    rows = []
    n = cfg.dim
    exact_tol = cfg.case_tol
    float_tol = 1e-9
    flat = Connection.flat_connection(n)

    oriented = [m for m in pool if m.orientation_preserving]
    if len(oriented) < 3:
        # a map known to reverse orientation has no oriented points
        oriented = [m for m in pool if m.orientation_preserving is not False]
    logv = LogVolumeCocycle()
    ell = ConnectionCompareCocycle(flat)
    phi = sampler.fraction_poly(n, 3)
    der = DeRhamCocycle(phi)

    for f, h in _pairs(pool):
        pts = _points(sampler, (f, h), cfg.samples, "classical")
        if f in oriented and h in oriented:
            opts = _points(sampler, (f, h), cfg.samples, "classical_oriented", oriented=True)
            rows.extend(verify_group_cocycle(logv, f, h, opts, float_tol,
                                             suite="classical_cocycles"))
        rows.extend(verify_group_cocycle(ell, f, h, pts, exact_tol,
                                         suite="classical_cocycles"))
        rows.extend(verify_group_cocycle(der, f, h, pts, exact_tol,
                                         suite="classical_cocycles"))
        if n == 1:
            schw = SchwarzianCocycle()
            rows.extend(verify_group_cocycle(schw, f, h, pts, exact_tol,
                                             suite="classical_cocycles"))

    # de Rham quadrature witness against the potential difference
    f = pool[min(4, len(pool) - 1)]
    for idx in range(cfg.samples):
        x, = _points(sampler, (f,), 1, "derham_quad")
        rows.append(run_case(
            "classical_cocycles", f"derham_quadrature@{idx}", [f.name], x,
            lambda: abs(derham_cocycle(phi, f, x) - derham_quadrature(phi, f, x)),
            exact_tol))

    if n == 1:
        for idx, (a, b, c, d) in enumerate(((1, 0, 1, 1), (2, 1, 1, 1), (3, -1, 1, 2))):
            m = catalog_get("moebius", {"a": a, "b": b, "c": c, "d": d})
            x, = _points(sampler, (m,), 1, "schwarzian_kernel")
            rows.append(run_case("classical_cocycles", f"schwarzian_moebius_zero@{idx}",
                                 [m.name], x, lambda: abs(schwarzian_1d(m, x)), exact_tol))

    det1 = catalog_get("linear", {"dim": n, "A": _shear(n) if n > 1 else 1})
    for idx in range(cfg.samples):
        x = sampler.base_point(n)
        rows.append(run_case("classical_cocycles", f"logvol_det1_zero@{idx}",
                             [det1.name], x, lambda: abs(log_volume_cocycle(det1, x)),
                             float_tol))
    return rows


def _suite_algebra(cfg, sampler, pool) -> list[CaseResult]:
    rows = []
    n = cfg.dim
    tol = cfg.case_tol
    gamma = sampler.connection(n)
    npairs = max(10, cfg.samples * 2)
    for idx in range(npairs):
        X = sampler.vector_field(n, f"X{idx}")
        Y = sampler.vector_field(n, f"Y{idx}")
        x = sampler.base_point(n)
        rows.append(run_case(
            "algebra_cocycles", f"divergence@{idx}", [X.name, Y.name], x,
            lambda: algebra_cocycle_residual(divergence_field, scalar_field_action, X, Y, x),
            tol))
        rows.append(run_case(
            "algebra_cocycles", f"lie_connection@{idx}", [X.name, Y.name], x,
            lambda: algebra_cocycle_residual(lambda Z: lie_derivative_connection(Z, gamma),
                                             tensor_lie_derivative, X, Y, x),
            tol))
    return rows


def _suite_moyal(cfg, sampler, pool) -> list[CaseResult]:
    rows = []
    n = cfg.dim
    tol = cfg.case_tol

    if n == 1:
        F3 = Symbol.monomial(1, (3,))
        G3 = Polynomial(2, {(3, 0): 1})
        z = (Fraction(0), Fraction(0)) if cfg.backend == "exact" else (0.0, 0.0)
        rows.append(run_case("moyal", "worked_value_-36", [], z,
                             lambda: abs(moyal_p3(F3, G3, z) - (-36)), tol))

    for idx in range(cfg.samples):
        F = sampler.fraction_poly(2 * n, 3)
        G = sampler.fraction_poly(2 * n, 3)
        z = sampler.phase_point(n)
        rows.append(run_case("moyal", f"antisymmetry@{idx}", [], z,
                             lambda: abs(moyal_p3(F, G, z) + moyal_p3(G, F, z)), tol))

    for idx in range(cfg.samples):
        F = sampler.fraction_poly(2 * n, 2)
        G = sampler.fraction_poly(2 * n, 2)
        H = sampler.fraction_poly(2 * n, 2)
        z = sampler.phase_point(n)
        rows.append(run_case("moyal", f"chevalley@{idx}", [], z,
                             lambda: chevalley_p3_residual(F, G, H, z), tol))

    for idx in range(cfg.samples):
        k = 2 + (idx % 4)
        X = sampler.vector_field(n, f"X{idx}")
        mu = [0] * n
        mu[idx % n] = k
        P = Symbol(n, {tuple(mu): sampler.fraction_poly(n, 2)})
        x = sampler.base_point(n)
        rows.append(run_case("moyal", f"embedding_degree[k={k}]@{idx}", [X.name], x,
                             lambda: _degree_excess(vect_embedding_cocycle(X, P, x), k, tol),
                             tol))
    return rows


def _suite_consistency(cfg, sampler, pool) -> list[CaseResult]:
    """Each group cocycle differentiates to its algebra cocycle, checked
    exactly in the eps-slot of the suspension of a field."""
    rows = []
    n = cfg.dim
    exact = cfg.backend == "exact"
    one = 1 if exact else 1.0
    fields = [
        VectorField.from_polynomials(
            [Polynomial(n, {tuple(e if a == i else 0 for a in range(n)): one})
             for i in range(n)], name=name)
        for e, name in ((1, "linear_euler"), (2, "quadratic"))
    ]
    flat = Connection.flat_connection(n)
    pts = [tuple(Fraction(2 + i, 8) if exact else 0.25 + 0.125 * i for _ in range(n))
           for i in range(cfg.samples)]

    def logvol(X, p):
        return abs(suspension_log_volume(X, p) - divergence_cocycle(X, p))

    def ell(X, p):
        grp, alg = suspension_connection(X, p), lie_derivative_connection(X, flat).values(p)
        return _max_abs_entry(n, lambda k, i, j: grp[k][i][j] - alg[k][i][j])

    checks = (("logvol_divergence", logvol, pts),
              ("ell_lieGamma", ell, pts[: max(1, cfg.samples // 2)]))
    for X in fields:
        for tag, residual, where in checks:
            for i, p in enumerate(where):
                rows.append(run_case("consistency", f"{tag}[{X.name}]@{i}", [X.name], p,
                                     lambda: residual(X, p), cfg.case_tol))
    return rows


_SUITE_FN = {
    "lift": _suite_lift,
    "cocycle_C": _suite_cocycle_C,
    "operator_L": _suite_operator_L,
    "degree_lowering": _suite_degree_lowering,
    "classical_cocycles": _suite_classical,
    "algebra_cocycles": _suite_algebra,
    "moyal": _suite_moyal,
    "consistency": _suite_consistency,
}
ALL_SUITES = tuple(_SUITE_FN)


# ---------------------------------------------------------------------------
# report assembly


def run_scenario(cfg: ScenarioConfig) -> dict:
    """Check the scenario with :meth:`ScenarioConfig.validate`, run its
    suites and assemble the JSON-ready report."""
    pool = cfg.validate().pool
    started = time.perf_counter()
    rows: list[CaseResult] = []
    suites_s: dict[str, float] = {}
    for suite in cfg.suites:
        suite_started = time.perf_counter()
        sampler = Sampler(cfg)  # fresh stream per suite keeps suites independent
        try:
            rows.extend(_SUITE_FN[suite](cfg, sampler, pool))
        except EvaluationError as exc:  # raised outside any case, e.g. an exhausted sampler
            rows.append(CaseResult(suite, "aborted", [], (), None, False,
                                   error=f"{type(exc).__name__}: {exc}"))
        suites_s[suite] = round(time.perf_counter() - suite_started, 3)

    rows.sort(key=lambda r: (r.suite, r.case_id))
    # the largest |residual| per suite, written as a case's residual is
    worst: dict[str, Scalar] = {}
    for r in rows:
        if r.residual is not None and not r.witness:
            val = abs(r.residual)
            if r.suite not in worst or val > worst[r.suite]:
                worst[r.suite] = val
    summary = {
        "total": len(rows),
        "passed": sum(1 for r in rows if r.passed),
        "failed": sum(1 for r in rows if not r.passed and r.error is None),
        "errors": sum(1 for r in rows if r.error is not None),
        "max_abs_residual_by_suite": {s: _residual_str(v) for s, v in worst.items()},
    }
    summary["pass"] = summary["passed"] == summary["total"]
    # seconds per "suite/case_id"; a map listed twice repeats an id, whose
    # entry is then the sum
    cases_s: dict[str, float] = {}
    for r in rows:
        if r.seconds is not None:
            key = f"{r.suite}/{r.case_id}"
            cases_s[key] = cases_s.get(key, 0.0) + r.seconds
    return {
        "schema": SCHEMA_VERSION,
        "config": cfg.as_dict(),
        "cases": [r.as_record() for r in rows],
        "summary": summary,
        "timing": {"elapsed_s": round(time.perf_counter() - started, 3), "suites_s": suites_s,
                   "cases_s": {key: round(t, 6) for key, t in cases_s.items()}},
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
