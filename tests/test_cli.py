"""CLI contract: exit codes, JSON determinism, golden report."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env
from liepde import expr as ex
from liepde import solver
from liepde.cli import main
from liepde.parser import MAX_NESTING

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

    def test_repeated_generator_field_exits_two(self, capsys):
        code, out, err = run_cli(
            ["verify", "--equation", "heat",
             "--generator", "xi_t=0; xi_x=1; xi_x=x; eta=0"], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "'xi_x'" in err

    def test_repeated_parameter_exits_two(self, capsys):
        code, out, err = run_cli(
            ["find", "--equation", "hpz",
             "--params", "R=5,R=1,S=4,V=1,W=1"], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "'R'" in err and "twice" in err

    @pytest.mark.parametrize("coefficient", [
        "x^\u00b2", "(" * 400 + "x" + ")" * 400,
        "exp(" * (MAX_NESTING + 1) + "t" + ")" * (MAX_NESTING + 1)])
    def test_unreadable_generator_exits_two(self, coefficient, capsys):
        code, out, err = run_cli(
            ["verify", "--equation", "heat",
             "--generator", f"xi_t={coefficient}; xi_x=0; eta=0"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_deepest_accepted_generator_is_verified(self, capsys):
        nested = "exp(" * MAX_NESTING + "t" + ")" * MAX_NESTING
        code, out, err = run_cli(
            ["verify", "--equation", "heat",
             "--generator", f"xi_t=0; xi_x=0; eta={nested}*u"], capsys)
        assert code == 1 and err == ""
        assert "residual = " in out and out.endswith("FAILED\n")

    def test_oversized_numbers_exit_two(self, capsys):
        # just above the parser's MAX_DIGITS (1000): 3^2096 has 1001 digits
        for value in ("3^2096", "1" * 1001):
            code, out, err = run_cli(
                ["verify", "--equation", "hpz", "--generator", f"xi_x={value}"],
                capsys)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "1000 digits" in err

    def test_bad_binding_exits_two(self, capsys):
        code, _, err = run_cli(
            ["find", "--equation", "hpz", "--params", "R=5,S=3,V=1,W=1"],
            capsys)
        assert code == 2
        assert "perfect" in err

    def test_free_unknown_function_exits_two(self, capsys):
        # R*V + omega*V + 2*W = 0 makes reduced-3.2 first order in r
        code, out, err = run_cli(
            ["find", "--equation", "reduced-3.2",
             "--params", "R=5,S=4,V=1,W=-4"], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "free unknown function" in err

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

    def test_failed_reverification_exits_three(self, capsys, monkeypatch):
        # a wrong residual is an internal error, not a usage error
        monkeypatch.setattr(solver, "residual", lambda vf, pde: ex.ONE)
        code, _, err = run_cli(["find", "--equation", "heat"], capsys)
        assert code == 3
        assert err.startswith("error: internal error")


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

    def test_classify_unrepresentable_constant_exits_two(self, capsys,
                                                         tmp_path):
        # [x d/dy, d/dx] has the constant 1/(R + S) on (R + S) d/dy
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({
            "variables": ["t", "x", "y"], "dependent": "u",
            "generators": [{"xi_y": "x"}, {"xi_x": "1"}, {"xi_y": "R + S"}]}))
        code, out, err = run_cli(["classify", "--basis", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "pair (1, 2) is not representable" in err

    def test_classify_basis_with_a_surd_constant(self, capsys, tmp_path):
        # [(R^2 - 4S) d/dx, x d/dy] = omega * (omega d/dy)
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({
            "variables": ["t", "x", "y"], "dependent": "u",
            "generators": [{"xi_x": "R^2 - 4*S"}, {"xi_y": "x"},
                           {"xi_y": "omega"}]}))
        code, out, _ = run_cli(["classify", "--basis", str(path)], capsys)
        assert code == 0
        assert "name: W3" in out

    @pytest.mark.parametrize("text", [
        '{"variables": ["t", "x"], "dependent": "u", '
        '"generators": [{"xi_t": "1", "xi_X": "1"}]}',
        '{"variables": ["t", "x"], "dependent": "u", "generators": [',
        '{"dependent": "u", "generators": [{"xi_t": "1"}]}',
        '{"variables": ["t", "x"], "generators": [{"xi_t": "1"}]}',
        '{"variables": ["t", "x"], "dependent": "u"}',
        '[{"xi_t": "1"}]',
        '{"variables": ["t", "x"], "dependent": "u", '
        '"generators": [{"xi_t": 1}]}',
        '{"variables": ["t", "x"], "dependent": "u", "generators": []}',
    ], ids=["unknown-key", "not-json", "no-variables", "no-dependent",
            "no-generators", "top-level-list", "non-string", "empty"])
    def test_malformed_basis_file_exits_two(self, capsys, tmp_path, text):
        path = tmp_path / "basis.json"
        path.write_text(text)
        code, out, err = run_cli(["classify", "--basis", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_classify_discovered_basis(self, capsys):
        code, out, _ = run_cli(
            ["classify", "--equation", "reduced-3.2",
             "--params", "R=5,S=4,V=1,W=1"], capsys)
        assert code == 0
        assert "sl(2,R) (+)s W3" in out


class TestJsonDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        env_args = ["find", "--equation", "heat", "--format", "json"]
        outs = []
        for seed in ("1", "42"):
            proc = subprocess.run(
                [sys.executable, "-m", "liepde.cli", *env_args],
                capture_output=True, text=True,
                env=child_env(PYTHONHASHSEED=seed),
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
