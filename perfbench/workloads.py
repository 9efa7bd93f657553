"""Workload definitions: the `verify` calls that make up one pass.

Every workload uses the harness's default map pool and 2 samples per case;
the benchmark seed is passed to `verify --seed` unchanged.  `cases` is the
number of cases each call must report: it follows from the scenario's
structure (12 map pairs, 2 samples, fixed witness and kernel cases), not
from the seed, and the output checks hold each report to it.
"""

from __future__ import annotations

from dataclasses import dataclass

SAMPLES = 2
CLASSICAL = ("lift", "classical_cocycles", "algebra_cocycles", "moyal", "consistency")


@dataclass(frozen=True)
class Call:
    dim: int
    backend: str
    suites: tuple
    cases: int

    def argv(self, seed: int, report: str, suites: tuple | None = None) -> list[str]:
        args = ["verify", "--dim", str(self.dim), "--backend", self.backend,
                "--samples", str(SAMPLES), "--seed", str(seed)]
        for s in suites or self.suites:
            args += ["--suite", s]
        return args + ["--json", report]


WORKLOADS = {
    # contraction layer and large-shape jet products (build_L_covariant)
    "d3_exact_operators": (Call(3, "exact", ("operator_L", "degree_lowering"), 33),),
    # pullback contraction on floats; bypasses the operator builders
    "d3_float_pullback": (Call(3, "float", ("cocycle_C",), 28),),
    # many cheap cases on small jets: flows, residuals, sampler, CLI path
    "d123_exact_classical": (Call(1, "exact", CLASSICAL, 134),
                             Call(2, "exact", CLASSICAL, 106),
                             Call(3, "exact", CLASSICAL, 106)),
}
