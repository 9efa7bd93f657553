"""How ``tools/report_diff.py`` sizes a drift between canned reports, with no
subprocess."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"
spec = importlib.util.spec_from_file_location("report_diff", TOOL)
report_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_diff)


def case(case_id, residual, passed=True):
    return {"case_id": case_id, "suite": "cocycle_C", "residual": residual, "pass": passed}


def report(*cases):
    return {"cases": list(cases), "summary": {"passed": sum(c["pass"] for c in cases)}}


def test_float_drift_is_counted_and_sized():
    parent = report(case("a", "0"), case("c", "1e-15"), case("b", "2.220446049250313e-16"),
                    case("d", "1/3"))
    change = report(case("a", "0"), case("c", "4e-15"), case("b", "3.3306690738754696e-16"),
                    case("d", "2/3"))
    count, largest = report_diff.residual_drift(parent, change)
    # d's exact residuals do not size the drift; a float residual that moves
    # off an exact 0 does
    assert count == 3
    assert largest == pytest.approx(3e-15)
    assert report_diff.residual_drift(report(case("a", "0")), report(case("a", "5e-16"))) \
        == (1, 5e-16)
    assert report_diff.describe(parent, change) == (
        "DIFFERS in 3 cases, largest float |delta| 3e-15; "
        "first at /cases[1]/residual: '1e-15' vs '4e-15'")


def test_drift_without_float_residuals():
    parent = report(case("a", "0"), case("b", "1/2"))
    change = report(case("a", "0", passed=False), case("b", "1/2"), case("c", "0"))
    # a differs in its pass field and c is in one report only
    assert report_diff.residual_drift(parent, change) == (2, None)
    assert report_diff.residual_drift(report(case("b", "1/2")), report(case("b", "1/3"))) \
        == (1, None)
    assert report_diff.residual_drift(parent, parent) == (0, None)
    assert report_diff.describe(parent, change).startswith("DIFFERS in 2 cases; first at ")


def test_every_differing_path_outside_the_cases_is_named():
    parent = report(case("a", "0"), case("b", "0"))
    change = report(case("a", "1e-15"), case("b", "2e-15"))
    parent["summary"]["max_abs_residual"], change["summary"]["max_abs_residual"] = "0", "2e-15"
    change["summary"]["passed"] = 1
    # only the first case path is named, since a drift can move every case
    assert report_diff.describe(parent, change) == (
        "DIFFERS in 2 cases, largest float |delta| 2e-15; "
        "first at /cases[0]/residual: '0' vs '1e-15'; "
        "also at /summary/max_abs_residual: '0' vs '2e-15'; also at /summary/passed: 2 vs 1")


def test_runs_cover_the_float_families(tmp_path):
    from jetcocycles.harness import ScenarioConfig

    runs = report_diff.verify_runs(str(tmp_path))
    assert len(runs) == 20
    families = [args[0] for _, args in runs[12:18]]
    assert len(families) == 6 and all(len(args) == 1 for _, args in runs[12:])
    for path in families:
        cfg = ScenarioConfig.from_file(path)
        assert cfg.backend == "float" and cfg.samples == 2
        assert [m.name for m in cfg.pool] == ["identity", "affine", "projective"]
        assert all(isinstance(x, float) for m in cfg.pool[1:] for row in m.params["A"]
                   for x in row)


def test_runs_cover_an_orientation_reversing_pool(tmp_path):
    from jetcocycles.harness import ScenarioConfig

    runs = report_diff.verify_runs(str(tmp_path))[18:]
    assert [label for label, _ in runs] == ["dim 1 exact reversing seed 1",
                                            "dim 1 exact reversing seed 2"]
    for seed, (_, (path,)) in zip((1, 2), runs):
        cfg = ScenarioConfig.from_file(path)
        assert (cfg.dim, cfg.backend, cfg.samples, cfg.seed) == (1, "exact", 2, seed)
        assert [m.orientation_preserving for m in cfg.pool] == [False, True, None, False]


def test_source_size_counts_the_package_lines(tmp_path):
    for tree, files in (("parent", {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n"}),
                        ("change", {"a.py": "x = 1\n", "notes.txt": "not counted\n"})):
        pkg = tmp_path / tree / "src" / "jetcocycles"
        pkg.mkdir(parents=True)
        for name, text in files.items():
            (pkg / name).write_text(text)
    parent, change = str(tmp_path / "parent"), str(tmp_path / "change")
    assert report_diff.source_lines(parent) == 3
    assert report_diff.source_lines(change) == 1
    assert report_diff.source_size(parent, change) == \
        "src/jetcocycles/*.py: 3 lines in parent, 1 in change, net -2"
