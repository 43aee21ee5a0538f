import json

import pytest

from carleman.cli import main
from carleman.fieldio import write_field
from carleman.lattice import LatticeField, LatticeWindow

# tiny d=2 runs: 100 CN steps on a 21x21 / 25x25 window
RUNS = {
    "lambda-scan": ["--d", "2", "--M", "12", "--dt", "1e-2", "--R-list", "4..9"],
    "logconvexity": ["--d", "2", "--M", "10", "--dt", "1e-2", "--L", "1",
                     "--potential", "alternating"],
}


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
    assert len(outputs) >= 2

    assert run(subcommand, second, capsys)[0] == 0
    for name in outputs:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


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
