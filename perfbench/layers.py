"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public functions of each module of
`jetcocycles` (`jets`, `maps`, `geometry`, `operators`, `cocycles`,
`harness`) with counting and timing wrappers.  Names bound by
`from .x import y` are separate references, so every module of the package
that holds the original function gets the wrapper.  A span's self time is
its duration minus the durations of the traced spans it encloses.

Only `.calls` counts are exact; `.self_s` includes the wrappers' own cost.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

SUITES = ("lift", "cocycle_C", "operator_L", "degree_lowering",
          "classical_cocycles", "algebra_cocycles", "moyal", "consistency")
DIMS = (1, 2, 3)

# jets with more monomials than this skip Jet.__mul__'s product table
LARGE_SHAPE = 600

# spans reported with calls and self time
TIMED = ("jets.mul_jet", "jets.mul_scalar", "jets.add", "jets.partial",
         "jets.compose", "jets.invert", "jets.mat_inv",
         "maps.eval_jet", "geometry.components",
         "operators.build_L_covariant", "operators.act_on_operator",
         "operators.apply_op_to_symbol", "operators.apply_to_jet",
         "cocycles.group_residual", "cocycles.algebra_residual",
         "cocycles.moyal", "cocycles.consistency")
# wrappers that only count calls
COUNTED = ("jets.truncated", "jets.new", "maps.flow_map", "maps.cotangent_lift",
           "maps.compose", "geometry.covariant_derivs")


def metric_units() -> list[tuple[str, str]]:
    """Every per-layer metric, in report order, with its unit."""
    out = []
    for name in TIMED:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        if name == "jets.mul_jet":
            out.append(("jets.mul_jet.large_calls", "count"))
    out += [(f"{name}.calls", "count") for name in COUNTED]
    out += [(f"harness.suite.{s}.s", "s") for s in SUITES]
    out += [(f"harness.dim{d}.s", "s") for d in DIMS]
    out += [("harness.sampler.draws", "count"), ("harness.sampler.rejected", "count"),
            ("harness.cpu_s", "s"), ("cli.overhead_s", "s"),
            ("setup.import_s", "s"), ("setup.pool_s", "s")]
    return out


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.draws = 0
        self.accepted = 0
        self._open = []  # time covered by the children of each open span

    # -- wrappers -----------------------------------------------------------

    def _timed(self, fn, name=None, name_of=None):
        calls, self_s, total_s, open_ = self.calls, self.self_s, self.total_s, self._open
        clock = time.perf_counter

        def wrapper(*args, **kw):
            key = name if name_of is None else name_of(args)
            calls[key] += 1
            open_.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kw)
            finally:
                dt = clock() - t0
                self_s[key] += dt - open_.pop()
                total_s[key] += dt
                if open_:
                    open_[-1] += dt

        return wrapper

    def _counted(self, fn, name):
        calls = self.calls

        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)

        return wrapper

    # -- patching -----------------------------------------------------------

    @staticmethod
    def _everywhere(orig, new):
        """Rebind every reference to `orig` held by a jetcocycles module."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "jetcocycles":
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)

    @staticmethod
    def _methods(base, attr, make):
        """Wrap `attr` on `base` and on every subclass that redefines it."""
        for cls in _subclasses(base):
            if attr in cls.__dict__:
                setattr(cls, attr, make(cls.__dict__[attr]))

    def install(self):
        from jetcocycles import cocycles, geometry, harness, jets, maps, operators

        Jet = jets.Jet
        calls = self.calls

        def mul_name(args):
            if isinstance(args[1], Jet):
                if len(args[0].coeffs) > LARGE_SHAPE:
                    calls["jets.mul_jet.large"] += 1
                return "jets.mul_jet"
            return "jets.mul_scalar"

        for attr in ("__mul__", "__rmul__"):
            setattr(Jet, attr, self._timed(getattr(Jet, attr), name_of=mul_name))
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__"):
            setattr(Jet, attr, self._timed(getattr(Jet, attr), "jets.add"))
        Jet.partial = self._timed(Jet.partial, "jets.partial")
        Jet.truncated = self._counted(Jet.truncated, "jets.truncated")
        Jet.__init__ = self._counted(Jet.__init__, "jets.new")

        for fn, name in ((jets.jet_compose, "jets.compose"), (jets.jet_invert, "jets.invert"),
                         (jets.mat_inv, "jets.mat_inv"),
                         (operators.build_L_covariant, "operators.build_L_covariant"),
                         (operators.act_on_operator, "operators.act_on_operator"),
                         (operators.apply_op_to_symbol, "operators.apply_op_to_symbol"),
                         (cocycles.algebra_cocycle_residual, "cocycles.algebra_residual"),
                         (cocycles.moyal_p3, "cocycles.moyal"),
                         (cocycles.group_algebra_consistency, "cocycles.consistency"),
                         (harness.run_scenario, "harness.run_scenario")):
            self._everywhere(fn, self._timed(fn, name))
        for fn, name in ((maps.flow_map, "maps.flow_map"),
                         (maps.cotangent_lift, "maps.cotangent_lift"),
                         (maps.compose, "maps.compose"),
                         (geometry.covariant_derivs, "geometry.covariant_derivs")):
            self._everywhere(fn, self._counted(fn, name))

        for base in (maps.DiffeoMap, maps.VectorField):
            self._methods(base, "eval_jet", lambda f: self._timed(f, "maps.eval_jet"))
        field_base = next(c for c in geometry.Connection.__mro__ if "components" in c.__dict__)
        self._methods(field_base, "components",
                      lambda f: self._timed(f, "geometry.components"))
        self._methods(operators.LocalDiffOp, "apply_to_jet",
                      lambda f: self._timed(f, "operators.apply_to_jet"))
        self._methods(cocycles.GroupCocycleCandidate, "residual",
                      lambda f: self._timed(f, "cocycles.group_residual"))

        point_for = harness.Sampler.point_for
        tracer = self

        def counted_point_for(sampler, ok_fn, maker, label):
            def draw():
                tracer.draws += 1
                return maker()

            def ok(p):
                good = ok_fn(p)
                if good:
                    tracer.accepted += 1
                return good

            return point_for(sampler, ok, draw, label)

        harness.Sampler.point_for = counted_point_for

    def metrics(self) -> dict:
        out = {}
        for name in TIMED:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out["jets.mul_jet.large_calls"] = self.calls["jets.mul_jet.large"]
        for name in COUNTED:
            out[f"{name}.calls"] = self.calls[name]
        out["harness.sampler.draws"] = self.draws
        out["harness.sampler.rejected"] = self.draws - self.accepted
        return out
