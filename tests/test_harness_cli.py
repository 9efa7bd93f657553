"""Scenario harness and command-line contract."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from jetcocycles.harness import SAMPLES_CAP, ConfigError, Sampler, ScenarioConfig, run_scenario
from jetcocycles.jets import EvaluationError


def run_cli(*args, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "jetcocycles.cli", *args],
        capture_output=True, text=True, timeout=timeout,
    )
    return proc


def quick_config(**kw):
    base = dict(dim=1, samples=2, seed=3, suites=("moyal", "lift"))
    base.update(kw)
    return ScenarioConfig(**base).validate()


# -- configuration -----------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        ScenarioConfig(dim=0).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(backend="symbolic").validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(suites=()).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(suites=("nope",)).validate()


def test_config_rejects_dim_above_three():
    # validation only: no case runs
    with pytest.raises(ConfigError, match="dim"):
        ScenarioConfig(dim=4).validate()
    assert ScenarioConfig(dim=3, suites=("moyal",)).validate().dim == 3


def test_cli_dim_above_three_is_usage_error():
    proc = run_cli("verify", "--dim", "4")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "dim" in lines[0], proc.stderr
    assert proc.stdout == ""


def test_config_rejects_samples_above_cap():
    # validation only: no case runs
    with pytest.raises(ConfigError, match="samples"):
        ScenarioConfig(samples=10 ** 9).validate()
    with pytest.raises(ConfigError, match="samples"):
        ScenarioConfig(samples=SAMPLES_CAP + 1).validate()
    assert ScenarioConfig(samples=SAMPLES_CAP, suites=("moyal",)).validate().samples == SAMPLES_CAP


def test_scenario_file_round_trip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "dim": 2, "backend": "exact", "seed": 9, "samples": 2,
        "suites": ["moyal"],
        "maps": [["polynomial_perturbation", {"eps": "1/8"}],
                 ["affine", {"A": [[1, 1], [0, 1]], "b": ["1/4", "0"]}],
                 ["projective", {}]],
    }))
    cfg = ScenarioConfig.from_file(str(path))
    assert cfg.dim == 2 and cfg.seed == 9
    from fractions import Fraction
    assert cfg.maps[1][1]["b"] == [Fraction(1, 4), 0]
    report = run_scenario(cfg)
    assert report["summary"]["pass"]


def test_flags_and_scenario_file_give_one_scenario(tmp_path):
    # flags left out and fields left out both keep ScenarioConfig's defaults
    flags, file_report = tmp_path / "flags.json", tmp_path / "file.json"
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"dim": 2, "seed": 3, "samples": 1,
                                    "suites": ["moyal", "lift"]}))
    for proc in (run_cli("verify", "--dim", "2", "--seed", "3", "--samples", "1",
                         "--suite", "moyal", "--suite", "lift", "--json", str(flags)),
                 run_cli("verify", str(scenario), "--json", str(file_report))):
        assert proc.returncode == 0, proc.stderr
    reports = [json.loads(path.read_text()) for path in (flags, file_report)]
    for report in reports:
        report.pop("timing")
    assert reports[0] == reports[1]
    assert reports[0]["config"]["tol"] == repr(ScenarioConfig().tol)


@pytest.mark.parametrize("maps", [[("moebius",)], "moebius", [("moebius", 1)], None,
                                  [(1, {})], [["moebius", {}, {}]]])
def test_config_rejects_malformed_maps(maps):
    with pytest.raises(ConfigError, match=r"maps must be a list of \[name, \{params\}\] pairs"):
        ScenarioConfig(suites=("moyal",), maps=maps).validate()


def test_config_parses_map_parameters_and_tol():
    cfg = ScenarioConfig(suites=("moyal",), tol=1,
                         maps=[("moebius", {"a": "2", "b": "1/2"}), ["moebius", None]]).validate()
    from fractions import Fraction
    assert cfg.maps == [("moebius", {"a": 2, "b": Fraction(1, 2)}), ("moebius", {})]
    assert type(cfg.tol) is float
    with pytest.raises(ConfigError, match="out of range"):
        ScenarioConfig(tol=10 ** 400).validate()
    with pytest.raises(ConfigError, match="not a number"):
        ScenarioConfig(maps=[("moebius", {"a": True})]).validate()


@pytest.mark.parametrize("scenario_dim", [1, 2])
@pytest.mark.parametrize("map_dim", [2.5, "3/2", True, 0, 12])
def test_cli_map_dim_other_than_the_scenarios_is_usage_error(tmp_path, scenario_dim, map_dim):
    # the dim is checked before the map is built: a 12 x 12 determinant
    # would cost 12! terms
    path = tmp_path / "dim.json"
    path.write_text(json.dumps({"dim": scenario_dim, "samples": 1, "suites": ["moyal"],
                                "maps": [["identity", {"dim": map_dim}]]}))
    proc = run_cli("verify", str(path), timeout=10)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "dim" in lines[0], \
        proc.stderr


def test_scenario_file_unknown_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dimension": 2}))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_file(str(path))


# -- sampler -------------------------------------------------------------------


def test_sampler_propagates_programming_errors():
    sampler = Sampler(ScenarioConfig(seed=1))

    def broken(p):
        raise TypeError("bug in a regularity test")

    with pytest.raises(TypeError, match="bug in a regularity test"):
        sampler.point_for(broken, lambda: sampler.base_point(1), "broken")

    def pole(p):
        raise EvaluationError("pole")

    with pytest.raises(EvaluationError, match="retry budget exhausted"):
        sampler.point_for(pole, lambda: sampler.base_point(1), "pole")


def test_sampler_connection_draws_each_gamma_k_ij_with_i_le_j_in_order():
    # the lift and algebra suites share this draw; its order fixes their reports
    from fractions import Fraction

    from jetcocycles.geometry import Connection

    cfg = ScenarioConfig(dim=3, seed=5)
    got = Sampler(cfg).connection(3)
    ref = Sampler(cfg)
    want = Connection.from_polynomials(
        3, {(k, i, j): ref.fraction_poly(3, 2) for k in range(3) for i in range(3)
            for j in range(i, 3)})
    point = (Fraction(1, 3), Fraction(-1, 2), Fraction(1, 4))
    assert got.components(point, 2) == want.components(point, 2)


def test_points_are_regular_along_the_chain():
    from fractions import Fraction

    from jetcocycles.harness import _points
    from jetcocycles.maps import catalog_get

    # f = 1 - 1/x has its pole at 0 and f' > 0; h = x - 4x^3 vanishes at 0
    # and +-1/2, and h' < 0 where |x| > 1/sqrt(12)
    f = catalog_get("moebius", {"a": 1, "b": -1, "c": 1, "d": 0})
    h = catalog_get("polynomial_perturbation", {"eps": -4})
    sampler = Sampler(ScenarioConfig(seed=2))
    drawn = []
    draw = sampler.base_point
    sampler.base_point = lambda n: drawn.append(draw(n)) or drawn[-1]

    pts = _points(sampler, (f,), 40, "one")
    assert (0,) in drawn and (0,) not in pts
    assert all(f.jacobian_det(p) != 0 for p in pts)

    drawn.clear()
    pts = _points(sampler, (f, h), 40, "two")
    bad = {(0,), (Fraction(1, 2),), (Fraction(-1, 2),)}
    assert bad & set(drawn) and not bad & set(pts)
    assert any(abs(x) > Fraction(1, 3) for x, in pts)  # h' < 0 there, still regular
    assert all(h.jacobian_det(p) != 0 and f.jacobian_det(h(p)) != 0 for p in pts)

    drawn.clear()
    pts = _points(sampler, (f, h), 40, "oriented", oriented=True)
    assert any(abs(x) > Fraction(1, 3) for x, in drawn)
    assert all(h.jacobian_det(p) > 0 and f.jacobian_det(h(p)) > 0 for p in pts)
    assert all(abs(x) < Fraction(1, 3) for x, in pts)

    z, = _points(sampler, (f, h), 1, "phase", phase=True)
    assert len(z) == 2 and z[1] != 0 and z[:1] not in bad


def test_run_scenario_validates_a_validated_config_once(monkeypatch):
    from jetcocycles import harness

    calls = []
    real = harness.catalog_get
    monkeypatch.setattr(harness, "catalog_get",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    cfg = ScenarioConfig(dim=1, samples=1, suites=("moyal",)).validate()
    assert len(calls) == 8  # the dim-1 default pool
    run_scenario(cfg)
    assert len(calls) == 8


def test_run_scenario_validates_direct_callers():
    with pytest.raises(ConfigError):
        run_scenario(ScenarioConfig(dim=0))
    # a setting changed after validate() is checked again, with a fresh pool
    cfg = quick_config(suites=("moyal",))
    cfg.dim = 2
    report = run_scenario(cfg)
    assert report["config"]["dim"] == 2
    assert all(m.dim == 2 for m in cfg.pool)
    cfg.samples = 0
    with pytest.raises(ConfigError):
        run_scenario(cfg)


def test_degree_lowering_propagates_programming_errors(monkeypatch):
    from jetcocycles import harness

    def broken(*args, **kwargs):
        raise NameError("bug in build_L_covariant")

    monkeypatch.setattr(harness, "build_L_covariant", broken)
    with pytest.raises(NameError, match="bug in build_L_covariant"):
        run_scenario(quick_config(suites=("degree_lowering",)))


# -- report contract -----------------------------------------------------------


def test_report_shape_and_uniqueness():
    report = run_scenario(quick_config())
    assert report["schema"] == 1
    ids = [(c["suite"], c["case_id"]) for c in report["cases"]]
    assert len(ids) == len(set(ids)), "every configured case appears exactly once"
    assert report["summary"]["total"] == len(ids)
    assert set(report["config"]["suites"]) == {"moyal", "lift"}
    for c in report["cases"]:
        assert set(c) == {"suite", "case_id", "maps", "point", "residual",
                          "pass", "error", "witness"}


def test_report_deterministic_excluding_timing():
    a = run_scenario(quick_config())
    b = run_scenario(quick_config())
    a.pop("timing"), b.pop("timing")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_timing_holds_the_seconds_of_each_suite():
    timing = run_scenario(quick_config())["timing"]
    assert set(timing) == {"elapsed_s", "suites_s", "cases_s"}
    assert list(timing["suites_s"]) == list(quick_config().suites)
    assert all(isinstance(t, float) and t >= 0 for t in timing["suites_s"].values())
    assert sum(timing["suites_s"].values()) <= timing["elapsed_s"] + 0.01


def test_timing_holds_the_seconds_of_each_case():
    report = run_scenario(quick_config())
    cases_s = report["timing"]["cases_s"]
    assert list(cases_s) == [f"{c['suite']}/{c['case_id']}" for c in report["cases"]]
    assert all(isinstance(t, float) and t >= 0 for t in cases_s.values())
    for suite, t in report["timing"]["suites_s"].items():
        assert sum(v for k, v in cases_s.items() if k.startswith(suite + "/")) <= t + 0.01


def test_float_residuals_are_plain_numbers():
    report = run_scenario(quick_config(suites=("classical_cocycles",)))
    assert "np." not in json.dumps(report)
    quad = [c for c in report["cases"] if c["case_id"].startswith("derham_quadrature")]
    assert quad and all(float(c["residual"]) <= 1e-9 for c in quad)


def test_consistency_rows_are_exact_on_the_exact_backend():
    report = run_scenario(quick_config(dim=2, suites=("consistency", "classical_cocycles")))
    rows = [c for c in report["cases"]
            if c["suite"] == "consistency" or c["case_id"].startswith("derham_quadrature")]
    assert len(rows) == 6 + 2
    assert all(c["pass"] and c["residual"] == "0" for c in rows)
    assert {c["point"][0] for c in rows if c["suite"] == "consistency"} == {"1/4", "3/8"}


def test_consistency_rows_fail_with_a_flipped_algebra_side(monkeypatch):
    import jetcocycles.harness as harness

    div = harness.divergence_cocycle
    monkeypatch.setattr(harness, "divergence_cocycle", lambda X, p: -div(X, p))
    report = run_scenario(quick_config(dim=2, suites=("consistency",)))
    verdicts = {c["case_id"]: c["pass"] for c in report["cases"]}
    assert len(verdicts) == 6
    assert all(ok == c.startswith("ell_") for c, ok in verdicts.items())


def test_summary_writes_each_worst_residual_as_a_case_residual():
    # an exact maximum stays exact ("0", not "0.0"); a float one is repr(float)
    exact = run_scenario(quick_config(suites=("moyal", "lift", "consistency")))
    assert exact["summary"]["max_abs_residual_by_suite"] == {
        "moyal": "0", "lift": "0", "consistency": "0"}
    report = run_scenario(quick_config(backend="float", suites=("cocycle_C", "moyal")))
    worst = report["summary"]["max_abs_residual_by_suite"]
    assert worst["cocycle_C"] == repr(float(worst["cocycle_C"])) != "0.0"
    for suite in ("cocycle_C", "moyal"):
        residuals = [c["residual"] for c in report["cases"]
                     if c["suite"] == suite and not c["witness"] and c["residual"] is not None]
        # max keeps the first of equal candidates, as the summary does
        assert worst[suite] == max(residuals, key=lambda r: abs(float(r))), suite


def test_lift_flat_zero_runs_the_lift_formula(monkeypatch):
    from jetcocycles.geometry import TensorField21

    seen = []
    components = TensorField21.components

    def counted(self, point, order):
        if self.name == "flat":
            seen.append((self.dim, order))
        return components(self, point, order)

    monkeypatch.setattr(TensorField21, "components", counted)
    report = run_scenario(quick_config(dim=2, suites=("lift",)))
    flat_zero = [c for c in report["cases"] if c["case_id"].startswith("flat_zero@")]
    assert len(flat_zero) == 2 and all(c["pass"] and c["residual"] == "0" for c in flat_zero)
    # the lift reads the flat base one order above the order-0 values
    assert seen == [(2, 1)] * 2


def test_cli_pool_with_orientation_reversing_maps_passes(tmp_path):
    path, out = tmp_path / "reversing.json", tmp_path / "r.json"
    path.write_text(json.dumps({"dim": 1, "samples": 2, "maps": [
        ["linear", {"A": -1}], ["translation", {}], ["polynomial_perturbation", {}],
        ["moebius", {"a": -1, "b": 1, "c": 1, "d": 1}]]}))
    proc = run_cli("verify", str(path), "--json", str(out))
    assert proc.returncode == 0, proc.stdout
    cases = json.loads(out.read_text())["cases"]
    assert cases and all(c["pass"] and c["error"] is None for c in cases)
    # only the two maps not known to reverse orientation enter log_volume
    logvol = [c["maps"] for c in cases if c["case_id"].startswith("log_volume[")]
    assert logvol and all(set(m) <= {"translation", "polynomial_perturbation"} for m in logvol)


def test_cli_import_does_not_load_numpy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, jetcocycles.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_reports_differ_across_seeds():
    a = run_scenario(quick_config(seed=1))
    b = run_scenario(quick_config(seed=2))
    pa = [c["point"] for c in a["cases"]]
    pb = [c["point"] for c in b["cases"]]
    assert pa != pb


# -- CLI ------------------------------------------------------------------------


def test_cli_list_contains_catalog():
    proc = run_cli("list")
    assert proc.returncode == 0
    assert "moebius" in proc.stdout
    assert "projective" in proc.stdout
    assert "(n+1) x (n+1) matrix" in proc.stdout


def test_cli_list_stable_output():
    a = run_cli("list")
    b = run_cli("list")
    assert a.stdout == b.stdout


def test_cli_verify_exits_zero_and_writes_report(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("verify", "--suite", "moyal", "--dim", "1", "--seed", "7",
                   "--samples", "2", "--json", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["summary"]["pass"]


def test_cli_verify_reports_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ("verify", "--suite", "lift", "--suite", "moyal", "--dim", "1",
            "--seed", "5", "--samples", "2")
    assert run_cli(*args, "--json", str(out1)).returncode == 0
    assert run_cli(*args, "--json", str(out2)).returncode == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("timing"), b.pop("timing")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_cli_empty_suites_is_usage_error(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"suites": []}))
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2
    assert "suite" in proc.stderr


@pytest.mark.parametrize("content", [
    json.dumps({"dim": "2"}),
    json.dumps({"maps": [["no_such_map", {}]]}),
    '{"dim": 2,',
    json.dumps({"dim": 2, "maps": [["linear", {"A": [[1, 1], [1, 1]]}]]}),
    json.dumps({"suites": "moyal"}),
    json.dumps({"dim": 3, "samples": 1, "maps": [["identity", {"dim": 2}]],
                "suites": ["classical_cocycles"]}),
    json.dumps({"tol": True}),
    json.dumps({"tol": "1e-8"}),
    json.dumps({"tol": 10 ** 400}),
    json.dumps({"jet_order": 4}),
    json.dumps({"dim": 1, "samples": 1, "suites": ["degree_lowering"],
                "maps": [["identity", {}]]}),
    json.dumps({"maps": [["linear", {"A": "1/0"}]]}),
    json.dumps({"maps": [["linear", {"A": "nan"}]]}),
    json.dumps({"maps": [["translation", {"c": "inf"}]]}),
    json.dumps({"maps": [["linear", {"A": float("nan")}]]}),
    json.dumps({"maps": [["translation", {"c": float("inf")}]]}),
    '{"maps": [["translation", {"c": 1e400}]]}',
    json.dumps({"dim": 2, "maps": [["linear", {"A": [[1, 0]]}]]}),
    json.dumps({"dim": 2, "maps": [["affine", {"b": [1]}]]}),
    json.dumps({"dim": 2, "maps": [["projective", {"A": [[1, 0], [0, 1]]}]]}),
    json.dumps({"dim": 2, "maps": [["translation", {"c": [1, 2, 3]}]]}),
    json.dumps({"maps": [["linear", {"B": 3}]]}),
    json.dumps({"maps": [["translation", {"eps": 3}]]}),
], ids=["dim_string", "unknown_map", "malformed_json", "singular_linear", "suites_string",
        "map_dim_mismatch", "tol_bool", "tol_string", "tol_huge_int", "jet_order_field",
        "degree_lowering_identity_only", "param_zero_denominator", "param_nan_string",
        "param_inf_string", "param_json_nan", "param_json_infinity", "param_json_1e400",
        "linear_matrix_short", "affine_vector_short", "projective_matrix_small",
        "translation_vector_long", "linear_unknown_param", "translation_unknown_param"])
def test_cli_bad_scenario_file_is_usage_error(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def test_config_rejects_a_repeated_suite():
    with pytest.raises(ConfigError, match="'moyal' is listed more than once"):
        ScenarioConfig(suites=("moyal", "lift", "moyal")).validate()


def test_cli_repeated_suite_is_usage_error(tmp_path):
    proc = run_cli("verify", "--suite", "moyal", "--suite", "moyal", "--samples", "1")
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({"samples": 1, "suites": ["moyal", "moyal"]}))
    for proc in (proc, run_cli("verify", str(path))):
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "moyal" in lines[0], \
            proc.stderr


def test_config_rejects_a_repeated_map_spec():
    # the dim a spec leaves out is the scenario's, so these two are one map
    for maps in ([("moebius", {})] * 2, [("moebius", {"a": 2}), ("moebius", {"a": 2, "dim": 1})]):
        with pytest.raises(ConfigError, match="'moebius' is listed more than once"):
            ScenarioConfig(suites=("cocycle_C",), maps=maps).validate()
    ScenarioConfig(suites=("cocycle_C",), maps=[("moebius", {}), ("moebius", {"a": 2})]).validate()


def test_config_rejects_exp_scale_on_the_exact_backend():
    maps = [("exp_scale", {"lam": 0.5})]
    with pytest.raises(ConfigError, match="exp_scale needs the float backend"):
        ScenarioConfig(suites=("cocycle_C",), maps=maps).validate()
    ScenarioConfig(backend="float", suites=("cocycle_C",), maps=maps).validate()


@pytest.mark.parametrize("dim,maps", [
    (1, [("polynomial_perturbation", {"eps": 0.3})]),
    (2, [("identity", {}), ("linear", {"A": [[1, "1/2"], [0, 1.5]]})])])
def test_config_rejects_a_float_map_parameter_on_the_exact_backend(dim, maps):
    # the exact pass rule, residual == 0, would fail such a map's cases on rounding
    with pytest.raises(ConfigError, match="float parameter"):
        ScenarioConfig(dim=dim, suites=("cocycle_C",), maps=maps).validate()
    ScenarioConfig(dim=dim, backend="float", suites=("cocycle_C",), maps=maps).validate()
    ScenarioConfig(dim=dim, suites=("cocycle_C",),
                   maps=[("polynomial_perturbation", {"eps": "3/10"})]).validate()


@pytest.mark.parametrize("maps,message", [
    ([["moebius", {}], ["moebius", {}]], "listed more than once"),
    ([["exp_scale", {"lam": 0.5}]], "exp_scale needs the float backend"),
    ([["polynomial_perturbation", {"eps": 0.3}]], "'polynomial_perturbation' has a float "
                                                  "parameter eps=0.3")],
    ids=["repeated_map", "exp_scale_exact", "float_parameter_exact"])
def test_cli_scenario_map_pool_usage_errors(tmp_path, maps, message):
    path = tmp_path / "pool.json"
    path.write_text(json.dumps({"dim": 1, "samples": 1, "suites": ["cocycle_C"], "maps": maps}))
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], \
        proc.stderr


def test_cli_scalar_map_parameter_of_wrong_shape_is_usage_error(tmp_path):
    path = tmp_path / "eps.json"
    path.write_text(json.dumps({"dim": 1, "samples": 1, "suites": ["lift"],
                                "maps": [["polynomial_perturbation", {"eps": [1, 2]}]]}))
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr.splitlines() == ["error: cannot build map 'polynomial_perturbation': "
                                        "parameter 'eps' must be a number, got [1, 2]"]


def test_scenario_map_parameter_rejects_json_booleans(tmp_path):
    for params in ({"a": True}, {"a": 1, "b": [False]}):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"samples": 1, "suites": ["moyal"],
                                    "maps": [["moebius", params]]}))
        with pytest.raises(ConfigError, match="not a number"):
            ScenarioConfig.from_file(str(path))
        proc = run_cli("verify", str(path))
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "not a number" in lines[0]


def test_cli_unknown_suite_is_usage_error():
    proc = run_cli("verify", "--suite", "bogus")
    assert proc.returncode == 2


def test_cli_samples_above_cap_is_usage_error():
    proc = run_cli("verify", "--samples", "1000000000")
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "samples" in lines[0], proc.stderr
    assert proc.stdout == ""


def test_cli_order_flag_is_usage_error():
    proc = run_cli("verify", "--suite", "moyal", "--order", "4")
    assert proc.returncode == 2


def test_cli_unwritable_json_path_is_usage_error(tmp_path):
    proc = run_cli("verify", "--suite", "moyal", "--samples", "1", "--json", str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("error: "), proc.stderr


def test_cli_operator_suite_residuals_literally_zero(tmp_path):
    out = tmp_path / "op.json"
    proc = run_cli("verify", "--suite", "operator_L", "--dim", "1",
                   "--backend", "exact", "--seed", "7", "--samples", "2",
                   "--json", str(out))
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    for case in report["cases"]:
        if case["witness"]:
            continue
        assert case["residual"] == "0", case


# Runs in its own interpreter, since installing the tracer patches the
# package for the rest of the process.
TRACED_VERIFY = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from layers import Tracer
from jetcocycles import cli
tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "--samples", "1", *sys.argv[2:]])
print(json.dumps({"code": code, "metrics": tracer.metrics()}))
"""


def traced_verify(*args) -> dict:
    """The exit code and the per-layer metrics of one ``verify`` call made
    with perfbench's tracer installed, which binds every name it wraps."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    proc = subprocess.run([sys.executable, "-c", TRACED_VERIFY, str(perfbench), *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_perfbench_tracer_counts_the_operator_path():
    out = traced_verify("--dim", "1", "--suite", "operator_L")
    assert out["code"] == 0
    for name in ("operators.act_on_operator", "operators.apply_to_jet", "jets.mul_jet",
                 "maps.eval_jet"):
        assert out["metrics"][f"{name}.calls"] > 0, name


def test_perfbench_tracer_sees_the_lift_inverses():
    # a lift inverts its base Jacobian with jets.mat_inv, which the trace
    # times, and its inverse reverts the base map through jets.jet_invert
    out = traced_verify("--dim", "3", "--backend", "float", "--suite", "cocycle_C")
    assert out["code"] == 0
    for name in ("jets.mat_inv", "maps.cotangent_lift"):
        assert out["metrics"][f"{name}.calls"] > 0, name
    out = traced_verify("--dim", "2", "--suite", "operator_L")
    assert out["code"] == 0
    for name in ("jets.mat_inv", "jets.invert", "operators.act_on_operator"):
        assert out["metrics"][f"{name}.calls"] > 0, name


def test_verify_reverts_and_inverts_no_matrix_above_the_base(monkeypatch, capsys):
    # the inverse of a lift is the lift of the base's inverse, and a lift's
    # inverse Jacobian is a transpose: at dim 3, no 6-dim reversion and no
    # 6 x 6 inverse
    from jetcocycles import cli, cocycles, geometry, harness, jets, maps, operators

    sizes = {"jet_invert": [], "mat_inv": []}
    for name, seen in sizes.items():
        orig = getattr(jets, name)

        def spy(arg, orig=orig, seen=seen):
            seen.append(len(arg))  # jets reverted, or rows of a square matrix
            return orig(arg)

        for mod in (jets, maps, geometry, operators, cocycles, harness):
            if getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, spy)
    code = cli.main(["verify", "--dim", "3", "--suite", "operator_L",
                     "--suite", "degree_lowering", "--samples", "1"])
    capsys.readouterr()
    assert code == 0
    assert sizes["jet_invert"] and max(sizes["jet_invert"]) <= 3
    assert sizes["mat_inv"] and max(sizes["mat_inv"]) <= 4


def test_cli_degree_lowering_dim2(tmp_path):
    out = tmp_path / "deg.json"
    proc = run_cli("verify", "--suite", "degree_lowering", "--dim", "2",
                   "--seed", "3", "--samples", "3", "--json", str(out))
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    cases = [c for c in report["cases"] if c["suite"] == "degree_lowering"]
    assert cases and all(c["pass"] for c in cases)


def test_cli_float_backend_passes():
    proc = run_cli("verify", "--backend", "float", "--tol", "1e-8",
                   "--suite", "operator_L", "--suite", "classical_cocycles",
                   "--dim", "1", "--samples", "2", "--seed", "6")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_failing_tolerance_exits_one():
    # an absurdly tight tolerance trips float-backend comparisons
    proc = run_cli("verify", "--backend", "float", "--tol", "1e-300",
                   "--suite", "classical_cocycles", "--dim", "1",
                   "--samples", "2", "--seed", "2")
    assert proc.returncode == 1


def test_cli_exhausted_sampler_is_an_error_row_not_a_traceback(tmp_path):
    # off the origin every draw overflows exp(1e6 x) or gives det 0
    scenario = tmp_path / "budget.json"
    scenario.write_text(json.dumps({
        "dim": 3, "backend": "float", "samples": 1,
        "suites": ["classical_cocycles", "moyal"], "maps": [["exp_scale", {"lam": 1e6}]]}))
    out = tmp_path / "report.json"
    proc = run_cli("verify", str(scenario), "--json", str(out))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    cases = json.loads(out.read_text())["cases"]
    classical = [c for c in cases if c["suite"] == "classical_cocycles"]
    assert len(classical) == 1 and not classical[0]["pass"]
    assert classical[0]["error"].startswith("EvaluationError: retry budget exhausted")
    # the other suite still runs
    moyal = [c for c in cases if c["suite"] == "moyal"]
    assert moyal and all(c["pass"] for c in moyal)


def test_cli_scenario_file_overrides_flags(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"dim": 2, "suites": ["moyal"], "samples": 2, "seed": 4}))
    out = tmp_path / "r.json"
    proc = run_cli("verify", str(path), "--dim", "1", "--suite", "lift",
                   "--json", str(out))
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["config"]["dim"] == 2
    assert report["config"]["suites"] == ["moyal"]


def test_cli_demo_outputs():
    flat = run_cli("demo", "flat-cubic")
    assert flat.returncode == 0
    assert "-6*xi0" in flat.stdout

    aff = run_cli("demo", "affine")
    assert aff.returncode == 0
    assert "zero operator" in aff.stdout

    moe = run_cli("demo", "moebius")
    assert moe.returncode == 0
    assert "d^2/dxi0^2" in moe.stdout and "zero operator" not in moe.stdout


def test_cli_unknown_demo():
    proc = run_cli("demo", "nope")
    assert proc.returncode == 2
