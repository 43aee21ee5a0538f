import json
from fractions import Fraction

import pytest

from carleman import cli
from carleman import counterexample as ce
from carleman.cli import main
from carleman.fieldio import write_field
from carleman.lattice import LatticeField, LatticeWindow

# tiny d=2 runs: 100 CN steps on a 21x21 / 25x25 window; the smallest
# counterexample window (R = margin = 8); threshold-scan is closed-form; the
# operator checks on their default d=1 windows with few trials
RUNS = {
    "carleman-check": ["--trials", "20"],
    "commutator-check": ["--trials", "5"],
    "counterexample": ["--R", "8", "--margin", "8"],
    "lambda-scan": ["--d", "2", "--M", "12", "--dt", "1e-2", "--R-list", "4..9"],
    "logconvexity": ["--d", "2", "--M", "10", "--dt", "1e-2", "--L", "1",
                     "--potential", "alternating"],
    "threshold-scan": ["--d", "2", "--R-list", "4..9"],
}
# files each run lists in its manifest
OUTPUT_COUNTS = {"carleman-check": 1, "commutator-check": 1, "counterexample": 5,
                 "lambda-scan": 2, "logconvexity": 2, "threshold-scan": 2}


def run(subcommand, out, capsys):
    code = main([subcommand, *RUNS[subcommand], "--out", str(out), "--stamp", "pinned"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("subcommand", sorted(RUNS))
def test_subcommand_writes_manifested_reproducible_outputs(subcommand, tmp_path, capsys):
    first, second = tmp_path / "a", tmp_path / "b"
    code, _ = run(subcommand, first, capsys)
    assert code == 0
    manifests = sorted(first.glob("manifest_*.json"))
    assert len(manifests) == 1
    outputs = json.loads(manifests[0].read_text())["outputs"]
    assert sorted(outputs) == sorted(p.name for p in first.iterdir() if p != manifests[0])
    assert len(outputs) == OUTPUT_COUNTS[subcommand]

    assert run(subcommand, second, capsys)[0] == 0
    for name in outputs:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def run_evolve(out, *flags):
    return main(["evolve", *flags, "--dt", "1e-2", "--store-every", "50",
                 "--out", str(out), "--stamp", "pinned"])


def test_evolve_writes_manifested_reproducible_trajectory(tmp_path, capsys):
    # the trajectory files sit in evolve_<seed>_<stamp>/, the manifest beside it
    first, second = tmp_path / "a", tmp_path / "b"
    assert run_evolve(first, "--d", "2", "--M", "10") == 0
    assert capsys.readouterr().out.startswith("PASS norm_conservation: max drift ")
    outputs = json.loads((first / "manifest_evolve_0_pinned.json").read_text())["outputs"]
    traj_dir = first / "evolve_0_pinned"
    assert sorted(outputs) == sorted(p.name for p in traj_dir.iterdir())
    assert "trajectory_00002.bin" in outputs  # t = 0, 0.5, 1

    assert run_evolve(second, "--d", "2", "--M", "10") == 0
    for name in outputs:
        assert ((traj_dir / name).read_bytes()
                == (second / "evolve_0_pinned" / name).read_bytes()), name


@pytest.mark.parametrize("flags, flagged", [
    (["--d", "2", "--M", "10"], True),   # the wave reaches the outer shell by T = 1
    (["--d", "1", "--M", "34"], False),  # J_33(2)^2 is far below 1e-12
])
def test_evolve_manifest_records_solver_stats_and_boundary_flag(flags, flagged, tmp_path,
                                                                capsys):
    assert run_evolve(tmp_path, *flags) == 0
    stats = json.loads((tmp_path / "manifest_evolve_0_pinned.json").read_text())["stats"]
    assert sorted(stats) == ["boundary_mass", "boundary_mass_flag", "max_relative_residual",
                             "norm_drift", "refinement_solves"]
    assert stats["refinement_solves"] == 0
    assert 0.0 < stats["max_relative_residual"] <= 1e-12
    assert stats["norm_drift"] < 1e-10
    assert stats["boundary_mass_flag"] is flagged
    assert (stats["boundary_mass"] > 1e-12) is flagged


def test_manifest_without_stats_has_no_stats_key(tmp_path, capsys):
    assert main(["potential-scan", "--R-list", "8", "--margin", "9",
                 "--out", str(tmp_path), "--stamp", "pinned"]) == 0
    doc = json.loads((tmp_path / "manifest_potential-scan_0_pinned.json").read_text())
    assert "stats" not in doc


def test_logconvexity_nonpositive_c_emp_reported_vacuous(tmp_path, capsys):
    code, stdout = run("logconvexity", tmp_path, capsys)
    assert code == 0
    assert stdout.startswith("VACUOUS logconvexity: C_emp -")
    report = json.loads((tmp_path / "logconvexity_0_pinned.json").read_text())
    assert report["stability"]["vacuous"] is True
    assert report["stability"]["C_emp_base"] <= 0


def test_lambda_scan_with_empty_rings_reported_vacuous(tmp_path, capsys):
    # a stationary delta at the origin leaves every ring with R > 3 empty
    field = write_field(tmp_path / "delta.bin", LatticeField.delta(LatticeWindow(2, 12)))[0]
    code = main(["lambda-scan", "--field-from", str(field), "--R-list", "4..9",
                 "--out", str(tmp_path / "out"), "--stamp", "pinned"])
    stdout = capsys.readouterr().out
    assert code == 0
    assert stdout.startswith("VACUOUS lambda_scan:")


@pytest.mark.parametrize("argv", [["lambda-scan", "--M", "x"],
                                  ["logconvexity", "--L", "one"],
                                  ["lambda-scan", "--tolerance", "bad"]])
def test_bad_flag_value_exits_2(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path)]) == 2


def test_counterexample_literal_mode_exits_1(tmp_path, capsys):
    code = main(["counterexample", "--R", "8", "--margin", "8", "--mode", "literal_paper",
                 "--out", str(tmp_path), "--stamp", "pinned"])
    assert code == 1
    assert capsys.readouterr().out.startswith("FAIL counterexample: mode=literal_paper")
    text = (tmp_path / "counterexample_R8_literal_paper_0_pinned_report.txt").read_text()
    residuals = [line.strip() for line in text.splitlines() if "residual at" in line]
    assert residuals == ["residual at (-2,8): 3/32", "residual at (0,6): -3/32",
                         "residual at (0,10): -3/32", "residual at (2,8): 3/32"]


def test_verify_counterexample_on_exported_field(tmp_path, capsys):
    assert main(["counterexample", *RUNS["counterexample"],
                 "--out", str(tmp_path), "--stamp", "pinned"]) == 0
    exported = tmp_path / "counterexample_R8_repaired_0_pinned.bin"
    assert main(["verify-counterexample", "--field-from", str(exported),
                 "--out", str(tmp_path), "--stamp", "pinned", "--seed", "1"]) == 0
    report = json.loads((tmp_path / "verify_counterexample_1_pinned.json").read_text())
    assert report["pass"] and report["file_matches_exact_rebuild"] is True


def test_potential_scan_exits_0(tmp_path, capsys):
    assert main(["potential-scan", "--R-list", "8,9", "--margin", "9",
                 "--out", str(tmp_path), "--stamp", "pinned"]) == 0
    assert capsys.readouterr().out.startswith("PASS potential_bound: sup|V| = 5,")


def test_exact_range_error_exits_3(tmp_path, capsys, monkeypatch):
    # a repair override whose V term (2^59) leaves the exact integer range
    monkeypatch.setattr(ce, "repaired_ring_values", lambda R: {(0, 0): Fraction(1, 2**60)})
    assert main(["counterexample", *RUNS["counterexample"], "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("numeric failure:")


def test_unexpected_exception_exits_4_without_traceback(tmp_path, capsys, monkeypatch):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._DISPATCH, "potential-scan", boom)
    assert main(["potential-scan", "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.splitlines() == ["internal error: RuntimeError('boom')"]


@pytest.mark.parametrize("r_list, code, verdict", [
    ("10,20,40,80", 0, "PASS"),  # min c 1.786, 1.492, 1.306, 1.179
    ("80,40,20,10", 1, "FAIL"),  # the same values increasing
    ("10", 0, "VACUOUS"),        # nothing to compare
])
def test_hiding_scan_verdict_needs_nonincreasing_min_c(r_list, code, verdict, tmp_path, capsys):
    assert main(["hiding-scan", "--R-list", r_list, "--grid-points", "20",
                 "--out", str(tmp_path), "--stamp", "pinned"]) == code
    assert capsys.readouterr().out.startswith(f"{verdict} hiding_inequalities: ")


def test_input_hash_ignores_out_and_stamp(tmp_path, capsys):
    def input_hash(out, stamp, margin="9"):
        main(["potential-scan", "--R-list", "8", "--margin", margin,
              "--out", str(tmp_path / out), "--stamp", stamp])
        return json.loads((tmp_path / out / f"manifest_potential-scan_0_{stamp}.json")
                          .read_text())["input_hash"]

    assert input_hash("a", "one") == input_hash("b", "two")
    assert input_hash("c", "one", margin="10") != input_hash("a", "one")


def test_hiding_scan_zero_profile_reported_vacuous(tmp_path, capsys):
    # phi = 0 makes min c = 0 at every R; no TSV row is written at alpha = 0
    assert main(["hiding-scan", "--phi", "zero", "--grid-points", "20",
                 "--out", str(tmp_path), "--stamp", "pinned"]) == 0
    assert capsys.readouterr().out.startswith("VACUOUS hiding_inequalities: ")
    tsv = (tmp_path / "hiding_scan_0_pinned.tsv").read_text()
    assert tsv == "R\talpha\ts\tlog_lhs\tlog_rhs_A\tlog_rhs_B\n"
    report = json.loads((tmp_path / "hiding_scan_0_pinned.json").read_text())
    assert report["min_c"] == [0.0, 0.0, 0.0, 0.0]


def test_commutator_check_failing_tolerance_exits_1(tmp_path, capsys):
    code = main(["commutator-check", "--trials", "5", "--tolerance", "symmetry=1e-30",
                 "--out", str(tmp_path), "--stamp", "pinned"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL symmetry_skewness: symmetry/skewness defect above 1e-30")
    assert [line.split()[0] for line in lines[1:]] == ["PASS", "PASS"]
