"""CLI contract: exit codes, JSON determinism, golden report."""

import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env
from helpers import bounded
from liepde import expr as ex
from liepde import fixtures, linalg, solver
from liepde.cli import main
from liepde.parser import MAX_NESTING, MAX_TERMS

GOLDEN = Path(__file__).parent / "golden" / "report.json"
GOLDEN_FIND = Path(__file__).parent / "golden" / "find_hpz_nondefault.json"
GOLDEN_HEAT = Path(__file__).parent / "golden" / "classify_heat.json"
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

    def test_repeated_basis_variable_exits_two(self, capsys, tmp_path):
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({
            "variables": ["t", "t"], "dependent": "u",
            "generators": [{"xi_t": "1"}]}))
        code, out, err = run_cli(["classify", "--basis", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "'t'" in err and "twice" in err

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

    @pytest.mark.parametrize("argv, message", [
        ("verify --equation hpz --generator xi_t",
         "generator field 'xi_t' is missing '='"),
        ("verify --equation hpz --fixture other",
         "unknown fixture 'other'; only 'paper'"),
        ("verify --equation heat --fixture paper",
         "the 'paper' fixture belongs to the hpz equation"),
        ("verify --equation hpz", "verify needs --fixture or --generator"),
        ("verify --equation stationary-2.6 --fixture paper",
         "this command needs an evolution equation, not the stationary one"),
        ("reduce --equation heat --generator delta3",
         "reduction fixtures are defined for the hpz equation"),
        ("reduce --equation hpz --generator delta1",
         "reducible generators: delta3, delta4, delta5, delta6, time"),
        ("classify", "classify needs --basis FILE or --equation NAME"),
        ("find --equation hpz --params R=5,S=4,V=1,W=x",
         "bad rational 'x' for W"),
        ("find --equation hpz --params R=5,S=4", "binding does not set V"),
        ("reduce --equation hpz --generator delta3 --params R=5,S=4,V=-1,W=5",
         "R*V + W = 0 is a singular-parameter case"),
    ])
    def test_usage_refusals_exit_two_with_one_error_line(self, argv, message,
                                                         capsys):
        code, out, err = run_cli(argv.split(), capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("text", ["(x+1)^1000", "(x+1)^3000",
                                      "(exp(x)+1)^2000", "(x+y+t+1)^40",
                                      "(x+y+t+1)^80*u"])
    def test_term_bound_refuses_generators_and_basis_files(self, text,
                                                           tmp_path):
        # ROADMAP finding 3: each ran for seconds, or out of memory
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({
            "variables": ["t", "x", "y"], "dependent": "u",
            "generators": [{"eta": "u"}, {"xi_x": text}]}))
        for argv in (["verify", "--equation", "heat", "--generator",
                      f"xi_t=0; xi_x=0; eta={text}"],
                     ["classify", "--basis", str(path)]):
            code, seconds, out, err = bounded(main, argv)
            assert seconds < 0.1
            assert (code, out) == (2, "") and err.count("\n") == 1
            assert err.startswith(f"error: power may have more than "
                                  f"{MAX_TERMS} terms")

    def test_unknown_equation_exits_two(self, capsys):
        code, _, _ = run_cli(["find", "--equation", "bogus"], capsys)
        assert code == 2

    def test_failed_reverification_exits_three(self, capsys, monkeypatch):
        # a wrong residual is an internal error, not a usage error
        monkeypatch.setattr(solver, "residual", lambda vf, pde: ex.ONE)
        code, _, err = run_cli(["find", "--equation", "heat"], capsys)
        assert code == 3
        assert err.startswith("error: internal error")

    def test_failed_structure_constant_reverification_exits_three(
            self, capsys, monkeypatch):
        # the elimination solved the coordinates it is re-checked against,
        # so a wrong expansion is a bug, not a refusal
        solve = linalg.z_solve_unique

        def corrupted(matrix, rhss, ncols=None):
            sols, den = solve(matrix, rhss, ncols)
            sols[-1] = [sols[-1][0] + 1] + sols[-1][1:]
            return sols, den

        monkeypatch.setattr(linalg, "z_solve_unique", corrupted)
        code, out, err = run_cli(["classify", "--equation", "heat"], capsys)
        assert code == 3
        assert out == ""
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

    def test_reduce_reports_a_printed_form_that_differs(self, capsys,
                                                        monkeypatch):
        # the text output lists the term-by-term comparison and flags the
        # monomial where the printed form differs
        printed_form = fixtures.printed_reduced_equation

        def misprinted(name):
            printed, factor = printed_form(name)
            return printed + ex.jet("z", ("r",)), factor

        monkeypatch.setattr(fixtures, "printed_reduced_equation", misprinted)
        code, out, _ = run_cli(
            ["reduce", "--equation", "hpz", "--generator", "delta3"], capsys)
        assert code == 0
        assert "matches printed form (factor 1): False" in out
        assert "  term-by-term comparison (suspected transcription slip):" \
            in out
        differs = [line for line in out.splitlines()
                   if line.endswith("<-- differs")]
        assert len(differs) == 1 and differs[0].startswith("    [z_r] derived")

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

    def test_classify_basis_after_a_change_of_basis(self, capsys, tmp_path):
        # the published basis with e2 replaced by e1 + e2
        basis = fixtures.known_basis()
        fields = [basis[0], basis[1].plus(basis[0]), *basis[2:]]
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({
            "variables": ["t", "x", "y"], "dependent": "u",
            "generators": [f.render() for f in fields]}))
        code, out, _ = run_cli(["classify", "--basis", str(path)], capsys)
        assert code == 0
        assert "name: A1 (+)s W5" in out

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

    def test_classify_nested_semidirect_name_is_parenthesised(
            self, capsys, tmp_path):
        # sl(2,R) + A2: the Killing radical is d/dy, and the complement,
        # sl(2,R) + span{y d/dy}, is itself a semidirect sum
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({
            "variables": ["t", "x", "y"], "dependent": "u",
            "generators": [{"xi_x": "1"}, {"xi_x": "x"}, {"xi_x": "x^2"},
                           {"xi_y": "1"}, {"xi_y": "y"}]}))
        code, out, _ = run_cli(["classify", "--basis", str(path),
                                "--format", "json"], capsys)
        assert code == 0
        verdict = json.loads(out)
        assert verdict["name"] == "(sl(2,R) (+)s A1) (+)s A1"
        assert verdict["ideal_basis"] == [["0", "0", "0", "1", "0"]]

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

    def test_help_and_an_unknown_command(self, capsys):
        code, out, _ = run_cli(["--help"], capsys)
        assert code == 0 and out.startswith("usage: liepde ")
        code, out, err = run_cli(["bogus"], capsys)
        assert (code, out) == (2, "")
        assert "invalid choice: 'bogus'" in err

    def test_empty_generator_chunks_are_skipped(self, capsys):
        code, out, _ = run_cli(["verify", "--equation", "heat", "--generator",
                                "xi_t=1;;xi_x=0"], capsys)
        assert (code, out) == (0, "verify heat\n  generator: residual = 0\n"
                               "all residuals zero\n")

    def test_module_entry_point(self, capsys, monkeypatch):
        # python -m liepde.cli exits with the status of main
        monkeypatch.delitem(sys.modules, "liepde.cli")
        monkeypatch.setattr(sys, "argv", ["liepde", "find", "--equation",
                                          "bogus"])
        with pytest.raises(SystemExit) as exit_:
            runpy.run_module("liepde.cli", run_name="__main__")
        assert exit_.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")


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

    def test_classify_heat_matches_golden_copy(self, tmp_path):
        # heat is the one registered classification the report leaves out
        target = tmp_path / "classify.json"
        code = main(["classify", "--equation", "heat", "--format", "json",
                     "--out", str(target)])
        assert code == 0
        assert target.read_bytes() == GOLDEN_HEAT.read_bytes()
