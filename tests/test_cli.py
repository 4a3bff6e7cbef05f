"""CLI contract: exit codes, JSON determinism, golden report."""

import json
import subprocess
import sys
from pathlib import Path


import liepde
from liepde.cli import main

GOLDEN = Path(__file__).parent / "golden" / "report.json"
GOLDEN_FIND = Path(__file__).parent / "golden" / "find_hpz_nondefault.json"
FIXTURES = Path(__file__).parent.parent / "fixtures"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_fixture_verification_succeeds(self, capsys):
        code, out, _ = run_cli(["verify", "--equation", "hpz",
                                "--fixture", "paper"], capsys)
        assert code == 0
        assert out.count("residual = 0") == 6

    def test_inline_generator_on_heat(self, capsys):
        code, _, _ = run_cli(
            ["verify", "--equation", "heat",
             "--generator", "xi_t=0; xi_x=1; eta=0"], capsys)
        assert code == 0

    def test_non_symmetry_exits_one_and_prints_residual(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--equation", "hpz",
             "--generator", "xi_t=0; xi_x=x; xi_y=0; eta=0"], capsys)
        assert code == 1
        assert "u_xx" in out

    def test_parse_error_exits_two(self, capsys):
        code, _, err = run_cli(
            ["verify", "--equation", "hpz",
             "--generator", "xi_t=0; xi_x=((; eta=0"], capsys)
        assert code == 2

    def test_bad_binding_exits_two(self, capsys):
        code, _, err = run_cli(
            ["find", "--equation", "hpz", "--params", "R=5,S=3,V=1,W=1"],
            capsys)
        assert code == 2
        assert "perfect" in err

    def test_degenerate_reduction_params_exit_two(self, capsys):
        code, _, err = run_cli(
            ["reduce", "--equation", "hpz", "--generator", "delta3",
             "--params", "R=2,S=1,V=1,W=1"], capsys)
        assert code == 2
        assert "repeated-root" in err
        code, _, err = run_cli(
            ["reduce", "--equation", "hpz", "--generator", "delta3",
             "--params", "R=1,S=0,V=1,W=-1"], capsys)
        assert code == 2
        assert "singular" in err

    def test_unknown_equation_exits_two(self, capsys):
        code, _, _ = run_cli(["find", "--equation", "bogus"], capsys)
        assert code == 2


class TestCommands:
    def test_find_hpz_dimension_line(self, capsys):
        code, out, _ = run_cli(
            ["find", "--equation", "hpz", "--params", "R=5,S=4,V=1,W=1"],
            capsys)
        assert code == 0
        assert "dimension: 6" in out

    def test_find_heat(self, capsys):
        code, out, _ = run_cli(["find", "--equation", "heat"], capsys)
        assert code == 0
        assert "dimension: 6" in out

    def test_find_reduced_with_profile(self, capsys):
        code, out, _ = run_cli(
            ["find", "--equation", "reduced-3.2",
             "--params", "R=5,S=4,V=1,W=1"], capsys)
        assert code == 0
        assert "dimension: 6" in out
        assert "all_match=True" in out

    def test_reduce_delta3(self, capsys):
        code, out, _ = run_cli(
            ["reduce", "--equation", "hpz", "--generator", "delta3"], capsys)
        assert code == 0
        assert "matches printed form (factor 1): True" in out

    def test_reduce_time(self, capsys):
        code, out, _ = run_cli(
            ["reduce", "--equation", "hpz", "--generator", "time"], capsys)
        assert code == 0
        assert "matches printed stationary form: True" in out

    def test_classify_w5_fixture_file(self, capsys):
        code, out, _ = run_cli(
            ["classify", "--basis", str(FIXTURES / "w5.json")], capsys)
        assert code == 0
        assert "name: W5" in out

    def test_classify_discovered_basis(self, capsys):
        code, out, _ = run_cli(
            ["classify", "--equation", "reduced-3.2",
             "--params", "R=5,S=4,V=1,W=1"], capsys)
        assert code == 0
        assert "sl(2,R) (+)s W3" in out


class TestJsonDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        env_args = ["find", "--equation", "heat", "--format", "json"]
        # The child imports the same liepde as this process, installed or not.
        package_root = str(Path(liepde.__file__).resolve().parent.parent)
        outs = []
        for seed in ("1", "42"):
            proc = subprocess.run(
                [sys.executable, "-m", "liepde.cli", *env_args],
                capture_output=True, text=True,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
                     "PYTHONPATH": package_root},
                cwd=str(Path(__file__).parent.parent))
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_json_payload_is_valid(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, _, _ = run_cli(
            ["verify", "--equation", "hpz", "--fixture", "paper",
             "--format", "json", "--out", str(target)], capsys)
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["all_ok"] is True
        assert len(doc["generators"]) == 6


class TestGoldenReport:
    def test_report_matches_golden_copy(self, tmp_path):
        target = tmp_path / "report.json"
        code = main(["report", "--format", "json", "--out", str(target)])
        assert code == 0
        assert GOLDEN.exists(), "golden report missing from the repository"
        assert target.read_bytes() == GOLDEN.read_bytes()

    def test_find_hpz_matches_golden_copy(self, tmp_path):
        target = tmp_path / "find.json"
        code = main(["find", "--equation", "hpz",
                     "--params", "R=-4,S=63/16,V=2,W=-1",
                     "--format", "json", "--out", str(target)])
        assert code == 0
        assert target.read_bytes() == GOLDEN_FIND.read_bytes()
