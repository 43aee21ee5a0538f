import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
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
    "logconvexity": ["--d", "2", "--M", "10", "--dt", "1e-2", "--L", "1"],
    "threshold-scan": ["--d", "2", "--R-list", "4..9"],
}
# files each run lists in its manifest
OUTPUT_COUNTS = {"carleman-check": 1, "commutator-check": 1, "counterexample": 5,
                 "lambda-scan": 2, "logconvexity": 2, "threshold-scan": 2}
# the start of each run's first verdict line; lambda-scan and threshold-scan
# have no gate that could fail, so they report VACUOUS
VERDICTS = {"carleman-check": "PASS carleman_inequality: ",
            "commutator-check": "PASS symmetry_skewness: ",
            "counterexample": "PASS counterexample: ",
            "lambda-scan": "VACUOUS lambda_scan: best decay model ",
            "logconvexity": "VACUOUS logconvexity: ",
            "threshold-scan": "VACUOUS threshold_scan: sqrt_log fails from R="}


def run(subcommand, out, capsys):
    code = main([subcommand, *RUNS[subcommand], "--out", str(out), "--stamp", "pinned"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("subcommand", sorted(RUNS))
def test_subcommand_writes_manifested_reproducible_outputs(subcommand, tmp_path, capsys):
    first, second = tmp_path / "a", tmp_path / "b"
    code, stdout = run(subcommand, first, capsys)
    assert code == 0
    assert stdout.startswith(VERDICTS[subcommand])
    manifests = sorted(first.glob("manifest_*.json"))
    assert len(manifests) == 1
    doc = json.loads(manifests[0].read_text())
    assert doc["verdicts"] == stdout.splitlines()
    outputs = doc["outputs"]
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
    assert sorted(outputs) == sorted(f"evolve_0_pinned/{p.name}" for p in traj_dir.iterdir())
    assert "evolve_0_pinned/trajectory_00002.bin" in outputs  # t = 0, 0.5, 1

    assert run_evolve(second, "--d", "2", "--M", "10") == 0
    for name in outputs:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_report_finds_evolve_outputs_in_their_directory(tmp_path, capsys):
    assert run_evolve(tmp_path, "--d", "2", "--M", "10") == 0
    capsys.readouterr()
    assert main(["report", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  evolve_0_pinned/trajectory_00002.bin: present" in lines
    (tmp_path / "evolve_0_pinned" / "trajectory_00001.bin").unlink()
    assert main(["report", "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "  evolve_0_pinned/trajectory_00001.bin: MISSING" in lines


@pytest.mark.parametrize("flags, flagged", [
    (["--d", "2", "--M", "10"], True),   # the wave reaches the outer shell by T = 1
    (["--d", "1", "--M", "34"], False),  # J_33(2)^2 is far below 1e-12
])
def test_evolve_manifest_records_solver_stats_and_boundary_flag(flags, flagged, tmp_path,
                                                                capsys):
    assert run_evolve(tmp_path, *flags) == 0
    stats = json.loads((tmp_path / "manifest_evolve_0_pinned.json").read_text())["stats"]
    assert sorted(stats) == ["block_steps", "boundary_mass", "boundary_mass_flag",
                             "max_relative_residual", "norm_drift", "quotient_sites",
                             "refinement_solves", "symmetric"]
    d2 = flags[1] == "2"  # the quotient: 0 <= j_2 <= j_1 <= 10 at d = 2, 0 <= j <= 34 at d = 1
    assert stats["symmetric"] is True
    assert stats["quotient_sites"] == (66 if d2 else 35)
    assert stats["refinement_solves"] == 0
    assert 0.0 < stats["max_relative_residual"] <= 1e-12
    assert stats["norm_drift"] < 1e-10
    assert stats["boundary_mass_flag"] is flagged
    assert (stats["boundary_mass"] > 1e-12) is flagged


@pytest.mark.parametrize("subcommand, flags, block_steps", [
    ("lambda-scan", ["--M", "20", "--dt", "1e-2", "--R-list", "4..9"], 5),  # d = 1 blocks
    ("lambda-scan", RUNS["lambda-scan"], 1),
    ("logconvexity", ["--M", "20", "--dt", "1e-2"], 10),
    ("logconvexity", RUNS["logconvexity"], 1),
])
def test_evolving_subcommands_record_solver_stats(subcommand, flags, block_steps, tmp_path,
                                                  capsys):
    stats = manifest_of(subcommand, tmp_path, *flags)["stats"]
    assert sorted(stats) == ["block_steps", "boundary_mass", "boundary_mass_flag",
                             "max_relative_residual", "norm_drift", "quotient_sites",
                             "refinement_solves", "symmetric"]
    assert stats["block_steps"] == block_steps
    assert stats["symmetric"] is True  # the delta keeps the full group, at d = 1 too
    assert stats["refinement_solves"] == 0
    assert 0.0 < stats["max_relative_residual"] <= 1e-12
    assert stats["norm_drift"] < 1e-10
    assert stats["boundary_mass_flag"] is (stats["boundary_mass"] > 1e-12)


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
                                  ["kbessel", "--tolerance", "bad"],
                                  # an empty R list
                                  ["potential-scan", "--R-list", "28..8"],
                                  ["hiding-scan", "--R-list", "28..8"],
                                  ["threshold-scan", "--R-list", "28..8"],
                                  ["lambda-scan", "--R-list", "28..8"]])
def test_bad_flag_value_exits_2(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv, R", [(["hiding-scan", "--R-list", "1"], "1"),
                                     (["hiding-scan", "--R-list", "-5"], "-5"),
                                     (["threshold-scan", "--R-list", "100,0.5"], "0.5"),
                                     (["lambda-scan", "--R-list", "1..3"], "1")])
def test_an_r_of_at_most_one_exits_2_naming_it(argv, R, tmp_path, capsys):
    # alpha = c R log R needs R > 1; these used to reach log_sinh or math.log
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: every R in --R-list must be > 1, got R = {R}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("r_list, R", [("8.5", "8.5"), ("8,10,12.25", "12.25"), ("inf", "inf")])
def test_a_non_integer_r_in_potential_scan_exits_2_naming_it(r_list, R, tmp_path, capsys):
    # the diamond radius is an integer; 8.5 used to run as R = 8 and exit 0
    assert main(["potential-scan", "--R-list", r_list, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"config error: every R in --R-list must be an integer, got R = {R}\n")
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("r_list, verdict", [
    ("8,9", "PASS"),
    ("8", "VACUOUS"),  # exact equality across one R cannot fail
])
def test_potential_scan_exits_0(r_list, verdict, tmp_path, capsys):
    assert main(["potential-scan", "--R-list", r_list, "--margin", "9",
                 "--out", str(tmp_path), "--stamp", "pinned"]) == 0
    assert capsys.readouterr().out.startswith(f"{verdict} potential_bound: sup|V| = 5,")


def test_exact_range_error_exits_3(tmp_path, capsys, monkeypatch):
    # a repair override whose V term (2^59) leaves the exact integer range
    monkeypatch.setattr(ce, "repaired_ring_values", lambda R: {(0, 0): Fraction(1, 2**60)})
    assert main(["counterexample", *RUNS["counterexample"], "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("numeric failure:")


def test_unexpected_exception_exits_4_without_traceback(tmp_path, capsys, monkeypatch):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._SUBCOMMANDS, "potential-scan",
                        (*cli._SUBCOMMANDS["potential-scan"][:-1], boom))
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
    # the failing check keeps its section of the report
    report = json.loads((tmp_path / "commutator_check_0_pinned.json").read_text())
    assert sorted(report) == ["commutator", "conjugation", "symmetry"]
    failed = report["symmetry"]
    assert sorted(failed) == ["defect", "pass", "tolerance", "trial"]
    assert failed["pass"] is False and failed["tolerance"] == 1e-30
    assert failed["defect"] > 1e-30 and failed["trial"] in range(5)
    assert f"(trial {failed['trial']})" in lines[0]


@pytest.mark.parametrize("argv", [["kbessel", "--M", "3"],
                                  ["report", "--stamp", "pinned"],
                                  ["hiding-scan", "--R", "10"],  # no prefix of --R-list
                                  ["carleman-check", "--alpha", "5"]])  # alpha is c R log R
def test_flag_the_subcommand_does_not_read_exits_2(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["evolve", "lambda-scan", "logconvexity"])
def test_negative_l_exits_2_before_evolving(subcommand, tmp_path, capsys):
    # a negative sup bound used to run as L = 0 (amplitude 1) and exit 0
    argv = [subcommand, "--L", "-2", "--M", "6", "--dt", "1e-2", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: bad value for L: '-2'\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("subcommand, flag, value", [
    ("evolve", "potential", "alternating"), ("lambda-scan", "potential", "alternating"),
    ("logconvexity", "potential", "none"),
    # the scans evolve over [0, 1], where their time windows are defined
    ("lambda-scan", "T", "0.5"), ("logconvexity", "T", "2"),
])
def test_removed_evolution_flags_are_refused(subcommand, flag, value, tmp_path, capsys):
    assert main([subcommand, f"--{flag}", value, "--out", str(tmp_path)]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    path = tmp_path / "config.json"
    path.write_text(json.dumps({flag: value}))
    assert main([subcommand, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: unknown config key: {flag}\n"


@pytest.mark.parametrize("L", [0.0, 0.5])
@pytest.mark.parametrize("subcommand", ["evolve", "lambda-scan", "logconvexity"])
def test_l_is_the_sup_of_the_evolved_potential(subcommand, L, tmp_path, capsys, monkeypatch):
    # --L used to be a separate setting from the potential it evolved: with
    # --potential alternating alone, logconvexity evolved |V| = 1 under the
    # free-evolution gate, and with --L alone it evolved freely
    import carleman.evolution

    evolve, evolved = carleman.evolution.evolve, []

    def spy(u0, cfg):
        evolved.append(cfg.potential.values)
        return evolve(u0, cfg)

    monkeypatch.setattr(carleman.evolution, "evolve", spy)
    flags = ["--d", "2", "--M", "10", "--dt", "1e-2", "--L", str(L)]
    if subcommand == "lambda-scan":
        flags += ["--R-list", "4..8"]
    doc = manifest_of(subcommand, tmp_path, *flags)
    (values,) = evolved
    assert doc["config"]["L"] == L == np.max(np.abs(values)) == np.min(np.abs(values))
    assert "potential" not in doc["config"]
    assert ("T" in doc["config"]) is (subcommand == "evolve")
    if subcommand == "logconvexity":  # the free-evolution gate only where V = 0
        assert doc["verdicts"][0].endswith("(free evolution)") is (L == 0.0)


@pytest.mark.parametrize("argv, message", [
    (["commutator-check", "--tolerance", "symetry=1e-30"], "unknown tolerance 'symetry'"),
    (["carleman-check", "--c", "0"], "bad value for c"),
    (["carleman-check", "--c", "-1"], "bad value for c"),
    (["verify-counterexample"], "--field-from is required"),
    # zero trials would pass every check over no trials at all
    (["carleman-check", "--trials", "0"], "bad value for trials"),
    (["commutator-check", "--trials", "0"], "bad value for trials"),
    (["commutator-check", "--trials", "-3"], "bad value for trials"),
    # the sign conditions are the parameter tables' casts
    (["threshold-scan", "--L", "0"], "bad value for L"),
    (["lambda-scan", "--A", "-1"], "bad value for A"),
])
def test_config_error_exits_2(argv, message, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


@pytest.mark.parametrize("T", ["-1", "0"])
def test_nonpositive_final_time_exits_2(T, tmp_path, capsys):
    # T = -1 used to exit 4 on an empty trajectory, and T = 0 to pass its norm
    # check over zero steps
    assert main(["evolve", "--T", T, "--M", "6", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: T must be > 0\n"


def test_logconvexity_with_only_the_endpoints_stored_exits_2(tmp_path, capsys):
    # with t = 0 and t = 1 alone stored, every interior time would pick an
    # endpoint, and rho <= 1 would hold by construction
    assert main(["logconvexity", "--M", "8", "--store-every", "1000",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "config error: an interior time lands on an endpoint of 2 stored nodes\n")


@pytest.mark.parametrize("argv, message", [
    # the CI's 10^4-step d = 2 run: t = 0 and t = 1 alone are stored
    (["logconvexity", "--d", "2", "--M", "128", "--dt", "1e-4", "--store-every", "10000"],
     "an interior time lands on an endpoint of 2 stored nodes"),
    (["logconvexity", "--M", "8", "--dt", "1e-2", "--store-every", "45"],
     "an interior time lands on an endpoint of 4 stored nodes"),
    # t = 0, 0.25, 0.5, 0.75, 1: only t = 0.5 lies in [3/8, 5/8]
    (["lambda-scan", "--store-every", "250"],
     "too few stored nodes inside [3/8, 5/8]: 1 of 5, Simpson's rule needs 3"),
    (["lambda-scan", "--d", "3", "--M", "48", "--dt", "1e-4", "--store-every", "2500"],
     "too few stored nodes inside [3/8, 5/8]: 1 of 5, Simpson's rule needs 3"),
])
def test_stored_grid_checks_exit_2_before_the_first_step(argv, message, tmp_path, capsys,
                                                         monkeypatch):
    # both checks read the stored times, known from dt and store_every; they
    # used to run on the trajectory, after every CN step
    import carleman.evolution

    def no_steps(*args):
        raise AssertionError("evolved before checking the stored grid")

    monkeypatch.setattr(carleman.evolution, "evolve", no_steps)
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("flags", [["--M", "3", "--dt", "0.5"], ["--d", "2"], ["--M", "12"],
                                   ["--dt", "1e-2"], ["--L", "1"], ["--store-every", "2"],
                                   ["--datum", "gaussian"], ["--mu", "2"]])
def test_lambda_scan_field_from_rejects_evolution_flags(flags, tmp_path, capsys):
    field = write_field(tmp_path / "delta.bin", LatticeField.delta(LatticeWindow(2, 12)))[0]
    argv = ["lambda-scan", "--field-from", str(field), "--R-list", "4..9",
            "--out", str(tmp_path / "out")]
    assert main([*argv, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --field-from does not read ")
    assert flags[0] in err
    path = tmp_path / "config.json"  # a config file sets them explicitly too
    path.write_text(json.dumps({flags[0][2:].replace("-", "_"): flags[1]}))
    assert main([*argv, "--config", str(path)]) == 2
    assert main(argv) == 0  # the same scan without them


def test_logconvexity_tolerance_unread_at_positive_l_exits_2(tmp_path, capsys):
    flags = [*RUNS["logconvexity"], "--out", str(tmp_path)]
    assert main(["logconvexity", *flags, "--tolerance", "logconvexity=-1"]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: --L > 0 does not read --tolerance")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"tolerance": ["logconvexity=-1"]}))
    assert main(["logconvexity", *flags, "--config", str(path)]) == 2
    # at L = 0 the tolerance is the free-evolution gate: -1 fails it
    assert main(["logconvexity", "--d", "2", "--M", "10", "--dt", "1e-2", "--out",
                 str(tmp_path), "--tolerance", "logconvexity=-1"]) == 1


def test_help_shows_derived_and_tolerance_defaults(capsys):
    assert main(["commutator-check", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "window half-width (default: int(R)+4)" in text
    assert "(default: symmetry=1e-09, commutator=1e-08, conjugation=1e-09)" in text


def manifest_of(subcommand, out, *flags):
    assert main([subcommand, *flags, "--out", str(out), "--stamp", "pinned"]) == 0
    return json.loads((out / f"manifest_{subcommand}_0_pinned.json").read_text())


def test_manifest_holds_resolved_parameters(tmp_path, capsys):
    plain = manifest_of("kbessel", tmp_path / "a")
    assert plain["config"] == {"mu": 1.0, "out": str(tmp_path / "a"), "seed": 0,
                               "stamp": "pinned", "tolerance": {"kbessel": 1e-8}}
    explicit = manifest_of("kbessel", tmp_path / "b", "--mu", "1.0",
                           "--tolerance", "kbessel=1e-8")
    assert explicit["input_hash"] == plain["input_hash"]
    assert manifest_of("kbessel", tmp_path / "c", "--mu", "1.1")["input_hash"] != \
        plain["input_hash"]


@pytest.mark.parametrize("subcommand, flags, derived", [
    ("carleman-check", ["--R", "6", "--trials", "5"], {"M": 14}),
    ("carleman-check", ["--R", "6", "--trials", "5", "--M", "20"], {"M": 20}),
    ("commutator-check", ["--R", "6", "--trials", "5"], {"M": 10}),
    ("counterexample", ["--R", "8.5"], {"R": 8, "margin": 60}),
])
def test_derived_defaults(subcommand, flags, derived, tmp_path, capsys):
    config = manifest_of(subcommand, tmp_path, *flags)["config"]
    assert {k: config[k] for k in derived} == derived


def test_carleman_check_runs_alpha_from_c(tmp_path, capsys):
    # --alpha used to override --c, while the manifest recorded the c it did
    # not run
    config = manifest_of("carleman-check", tmp_path, "--R", "6", "--trials", "5",
                         "--c", "3")["config"]
    report = json.loads((tmp_path / "carleman_check_0_pinned.json").read_text())
    assert "alpha" not in config and config["c"] == 3.0
    assert report["params"]["alpha"] == 3.0 * 6.0 * math.log(6.0)


def test_config_file_sets_values_and_flags_override_it(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"R_list": "8..9", "margin": 9}))
    config = manifest_of("potential-scan", tmp_path / "a", "--config", str(path))["config"]
    assert (config["R_list"], config["margin"]) == ([8.0, 9.0], 9)
    config = manifest_of("potential-scan", tmp_path / "b", "--config", str(path),
                         "--margin", "10")["config"]
    assert (config["R_list"], config["margin"]) == ([8.0, 9.0], 10)


def test_config_file_tolerance_and_flag_override(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"trials": 5, "tolerance": ["symmetry=1e-30"]}))
    argv = ["commutator-check", "--config", str(path), "--out", str(tmp_path)]
    assert main(argv) == 1
    assert capsys.readouterr().out.startswith("FAIL symmetry_skewness: ")
    assert main([*argv, "--tolerance", "symmetry=1e-9"]) == 0


@pytest.mark.parametrize("config", [{"n_nodes": 10},             # undeclared key
                                    {"tolerance": ["kbessel=1"]},  # no tolerances here
                                    {"margin": "nine"},            # bad values
                                    {"R_list": [8, 9]},
                                    {"mode": "paper"},
                                    [8, 9]])                       # not an object
def test_bad_config_file_exits_2(config, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["potential-scan", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_normstar_small_j_max(tmp_path, capsys):
    assert manifest_of("normstar", tmp_path, "--j-max", "200")["outputs"] == \
        ["normstar_0_pinned.json"]
    assert capsys.readouterr().out.startswith("PASS normstar: d=2 sup 1.000000 inf 0.753122 ")
    report = json.loads((tmp_path / "normstar_0_pinned.json").read_text())
    assert (report["d"], report["j_max"], report["arg_inf"]) == (2, 200, [200, 200])
    # the infimum sits on the diagonal corner: |j| log(|j|+1) / (2 * 200 log 201)
    r = math.hypot(200, 200)
    assert report["inf_ratio"] == pytest.approx(r * math.log1p(r) / (400 * math.log(201)),
                                                rel=1e-12)


def test_kbessel(tmp_path, capsys):
    assert manifest_of("kbessel", tmp_path)["outputs"] == ["kbessel_0_pinned.json"]
    assert capsys.readouterr().out.startswith("PASS kbessel: max identity defect ")
    report = json.loads((tmp_path / "kbessel_0_pinned.json").read_text())
    assert report["max_defect"] < 1e-8
    assert abs(report["growth_exponent"] - 1.0) <= 0.1


@pytest.mark.parametrize("mu", ["0.5", "2", "3"])
def test_kbessel_growth_exponent_is_mu(mu, tmp_path, capsys):
    # log K_{mu j}(2/e) carries a (mu log mu) j term that a (j log j, 1) fit
    # would fold into the slope: 2.2456 at mu = 2 before it was removed
    assert manifest_of("kbessel", tmp_path, "--mu", mu)["verdicts"][0].startswith("PASS kbessel")
    capsys.readouterr()
    report = json.loads((tmp_path / "kbessel_0_pinned.json").read_text())
    assert abs(report["growth_exponent"] - float(mu)) <= 0.005


def _leaves(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [leaf for item in obj for leaf in _leaves(item)]
    return [obj]


@pytest.mark.parametrize("subcommand, flags", [
    ("threshold-scan", ["--d", "2", "--R-list", "4..9"]),
    ("hiding-scan", ["--grid-points", "20"]),
    ("lambda-scan", RUNS["lambda-scan"]),
])
def test_report_booleans_stay_json_booleans(subcommand, flags, tmp_path, capsys):
    # a numpy bool would reach the JSON as the string "True"
    manifest_of(subcommand, tmp_path, *flags)
    capsys.readouterr()
    name = subcommand.replace("-", "_")
    report = json.loads((tmp_path / f"{name}_0_pinned.json").read_text())
    leaves = _leaves(report)
    assert not {"True", "False"} & {leaf for leaf in leaves if isinstance(leaf, str)}
    if subcommand == "threshold-scan":
        bools = report["log"]["holds"] + report["sqrt_log"]["holds"]
    elif subcommand == "hiding-scan":
        bools = [report["nonincreasing"]]
    else:
        bools = report["lower_bound_holds_per_row"]
    assert bools and all(isinstance(b, bool) for b in bools)


def test_report_lists_outputs_and_flags_missing_ones(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"VACUOUS outputs_present: no manifests under {tmp_path}\n"
    verdict = run("threshold-scan", tmp_path, capsys)[1].rstrip("\n")
    assert main(["report", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "threshold-scan seed=0 (manifest_threshold-scan_0_pinned.json)",
        f"  {verdict}",
        "  threshold_scan_0_pinned.json: present",
        "  threshold_scan_0_pinned.tsv: present",
        "PASS outputs_present: 0 listed outputs missing"]
    (tmp_path / "threshold_scan_0_pinned.tsv").unlink()
    assert main(["report", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines()[3:] == [
        "  threshold_scan_0_pinned.tsv: MISSING",
        "FAIL outputs_present: 1 listed outputs missing"]


def _field_with_metadata(tmp_path, metadata):
    return write_field(tmp_path / "f.bin", LatticeField.delta(LatticeWindow(2, 3)),
                       metadata=metadata)[0]


def _sidecar_holding(path, doc):
    Path(f"{path}.json").write_text(json.dumps(doc))
    return path


def _truncated_field(tmp_path):
    (tmp_path / "f.bin").write_bytes(b"CARL")  # the magic and no header
    return tmp_path / "f.bin"


def _manifest_holding(tmp_path, doc):
    (tmp_path / "manifest_a.json").write_text(json.dumps(doc))


@pytest.mark.parametrize("subcommand, make_input", [
    ("verify-counterexample", _truncated_field),
    ("lambda-scan", _truncated_field),
    ("verify-counterexample", lambda tmp: _field_with_metadata(tmp, {"kind": "counterexample"})),
    ("verify-counterexample", lambda tmp: _field_with_metadata(
        tmp, {"kind": "counterexample", "R": "8", "margin": 8, "mode": "repaired"})),
    ("verify-counterexample", lambda tmp: _field_with_metadata(tmp, ["counterexample"])),
    ("verify-counterexample", lambda tmp: _sidecar_holding(_field_with_metadata(tmp, {}), [1])),
    ("report", lambda tmp: _manifest_holding(tmp, {"x": 1})),
    ("report", lambda tmp: _manifest_holding(tmp, [1])),
    ("report", lambda tmp: _manifest_holding(tmp, {"subcommand": "kbessel", "seed": 0,
                                                   "outputs": 3})),
    ("report", lambda tmp: _manifest_holding(tmp, {"subcommand": "kbessel", "seed": 0,
                                                   "outputs": [], "verdicts": 3})),
], ids=["verify-truncated-field", "lambda-scan-truncated-field", "metadata-without-R",
        "metadata-with-string-R", "metadata-list", "sidecar-list", "manifest-without-keys",
        "manifest-list", "manifest-outputs-not-a-list", "manifest-verdicts-not-a-list"])
def test_malformed_input_file_exits_2_without_traceback(subcommand, make_input, tmp_path,
                                                        capsys):
    path = make_input(tmp_path)
    argv = [subcommand, "--out", str(tmp_path)]
    assert main([*argv, "--field-from", str(path)] if path else argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(("config error: ", "error: "))


def _fresh(probe: str, *argv: str, timeout: float = 60) -> str:
    """The last stdout line of probe, run with argv in a fresh interpreter
    that imports carleman from this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    result = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                            capture_output=True, text=True, timeout=timeout, check=True)
    return result.stdout.splitlines()[-1]


# One CLI run in a fresh interpreter: its exit code, then the numpy, scipy and
# carleman modules it imported.
_IMPORTS_PROBE = """
import sys
from carleman.cli import main
code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy", "carleman")))
"""


def test_import_cli_leaves_scipy_unimported():
    # importing the CLI loads the parser and the exception types; numpy, scipy
    # and the compute modules load in the body of the subcommand that runs
    probe = ("import sys, carleman.cli; "
             "print(*sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('numpy', 'scipy', 'carleman')))")
    assert _fresh(probe).split() == ["carleman", "carleman.cli", "carleman.errors"]


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["lambda-scan", "--help"], 0),
                                        (["potential-scan", "--R-list", "28..8"], 2),
                                        (["threshold-scan", "--L", "0"], 2),
                                        (["lambda-scan", "--A", "-1"], 2),
                                        (["evolve", "--L", "-2"], 2)])
def test_help_and_config_errors_exit_without_numpy(argv, code):
    assert _fresh(_IMPORTS_PROBE, *argv).split() == [
        str(code), "carleman", "carleman.cli", "carleman.errors"]


def test_logconvexity_reports_each_interior_time_once(tmp_path, capsys):
    # every 150th of 1000 steps stored: t = 0.15, 0.45 and 0.75 are each the
    # nearest node to two of the nine interior times, and their rows came twice
    manifest_of("logconvexity", tmp_path, "--store-every", "150")
    rows = (tmp_path / "logconvexity_0_pinned.tsv").read_text().splitlines()[1:]
    keys = [tuple(row.split("\t")[:2]) for row in rows]
    assert len(keys) == len(set(keys)) == 6 * 17
    times = [float(t) for _, t in keys[:6]]
    assert times == pytest.approx([0.15, 0.3, 0.45, 0.6, 0.75, 0.9], abs=1e-12)


@pytest.mark.parametrize("argv, message", [
    (["logconvexity", "--d", "3"], "beta grids are implemented for d <= 2, not d = 3"),
    (["lambda-scan", "--d", "3", "--M", "48", "--dt", "0.01", "--R-list", "8..60"],
     "ring R=47.0 needs R+1 < M=48"),
], ids=["logconvexity-d3", "lambda-scan-ring-outside-window"])
def test_config_errors_exit_2_before_evolving(argv, message, tmp_path, capsys):
    # both used to evolve d = 3, M = 48 before failing: 16.8 s and 2.8 s
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    code, *modules = _fresh(_IMPORTS_PROBE, *argv, "--out", str(tmp_path)).split()
    assert code == "2"
    assert "carleman.evolution" not in modules
    assert not [m for m in modules if m.split(".")[0] == "scipy"]


def test_potential_scan_imports_counterexample_only(tmp_path):
    code, *modules = _fresh(_IMPORTS_PROBE, "potential-scan", "--R-list", "8,9",
                            "--margin", "9", "--out", str(tmp_path)).split()
    assert code == "0"
    assert {"numpy", "carleman.counterexample", "carleman.reports"} <= set(modules)
    assert not {"carleman.evolution", "carleman.operators", "carleman.experiments"} & set(modules)
    assert not [m for m in modules if m.split(".")[0] == "scipy"]


@pytest.mark.parametrize("subcommand", ["counterexample", "verify-counterexample"])
def test_counterexample_runs_load_no_evolution_code(subcommand, tmp_path, capsys):
    # neither builds nor reads a trajectory: writing or reading the field
    # needs fieldio, and fieldio needs evolution only for an annotation
    argv = [*RUNS["counterexample"], "--out", str(tmp_path), "--stamp", "pinned"]
    if subcommand == "verify-counterexample":
        assert main(["counterexample", *argv]) == 0
        argv = ["--field-from", str(tmp_path / "counterexample_R8_repaired_0_pinned.bin"),
                "--out", str(tmp_path), "--stamp", "pinned"]
    code, *modules = _fresh(_IMPORTS_PROBE, subcommand, *argv).split()
    assert code == "0"
    assert {"numpy", "carleman.counterexample", "carleman.fieldio"} <= set(modules)
    assert not {"carleman.evolution", "carleman.operators", "carleman.experiments"} & set(modules)
    assert not [m for m in modules if m.split(".")[0] == "scipy"]


def test_report_loads_no_numpy(tmp_path, capsys):
    # manifests are JSON: listing them needs neither numpy nor a compute module
    assert main(["lambda-scan", *RUNS["lambda-scan"], "--out", str(tmp_path),
                 "--stamp", "pinned"]) == 0
    code, *modules = _fresh(_IMPORTS_PROBE, "report", "--out", str(tmp_path)).split()
    assert code == "0"
    assert modules == ["carleman", "carleman.cli", "carleman.errors", "carleman.reports"]


# In-process peak RSS of one CLI run, in MB (ru_maxrss is in kB on Linux).
_RSS_PROBE = """
import resource, sys
from carleman.cli import main
code = main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in kB on Linux")
def test_d3_lambda_scan_holds_orbit_values_only(tmp_path):
    # 21 stored nodes at d = 3, M = 32: 2.2 MB of orbit values (6545 orbits)
    # against 92 MB unfolded to the window.  Measured peak: 94 MB holding orbit
    # values, 266 MB holding every node unfolded (2 vCPUs, numpy + scipy loaded)
    argv = ["lambda-scan", "--d", "3", "--M", "32", "--dt", "0.01", "--R-list", "8..20",
            "--out", str(tmp_path), "--stamp", "pinned"]
    code, peak_mb = _fresh(_RSS_PROBE, *argv, timeout=120).split()  # after the verdict lines
    assert code == "0"
    assert float(peak_mb) < 150.0
