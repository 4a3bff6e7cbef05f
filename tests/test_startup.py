"""Start-up contract: a command loads only the modules it uses, ``import
liepde`` loads none, and the records behave as frozen value classes."""

import copy
import json
import pickle
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

import pytest

import liepde
from conftest import child_env
from liepde import expr as ex
from liepde.algebra import AlgebraPresentation, Verdict
from liepde.fixtures import known_basis
from liepde.prolong import VectorField
from liepde.solver import Binding

ROOT = Path(__file__).parent.parent
W5 = str(ROOT / "fixtures" / "w5.json")

# the modules under ``liepde.`` that a fresh ``python -m liepde.cli`` process
# loads for each command
VERIFY = {"expr", "parser", "jet", "prolong"}
FIND = VERIFY | {"solver", "linalg"}
EVERYTHING = FIND | {"fixtures", "reduction", "algebra"}
HPZ_BINDING = "R=5,S=4,V=1,W=1"
COMMANDS = {
    "verify-generator": (["verify", "--equation", "heat", "--generator",
                          "xi_t=0; xi_x=1; eta=0"], VERIFY),
    "verify-fixture": (["verify", "--equation", "hpz", "--fixture", "paper"],
                       VERIFY | {"fixtures"}),
    "find": (["find", "--equation", "heat"], FIND),
    "find-reduced": (["find", "--equation", "reduced-3.2", "--params", HPZ_BINDING],
                     FIND | {"reduction", "fixtures"}),
    "reduce": (["reduce", "--equation", "hpz", "--generator", "delta3"],
               VERIFY | {"reduction", "fixtures"}),
    "reduce-params": (["reduce", "--equation", "hpz", "--generator", "time",
                       "--params", HPZ_BINDING],
                      VERIFY | {"reduction", "fixtures", "solver", "linalg"}),
    "classify-basis": (["classify", "--basis", W5], VERIFY | {"linalg", "algebra"}),
    "report": (["report"], EVERYTHING),
}

# runs its arguments as ``python -m liepde.cli`` does, then prints the
# modules that the run added to sys.modules as the last line of stderr
RUN_AS_MAIN = """\
import json, runpy, sys
before = set(sys.modules)
sys.argv = ["liepde", *sys.argv[1:]]
try:
    runpy.run_module("liepde.cli", run_name="__main__", alter_sys=True)
finally:
    print(json.dumps(sorted(set(sys.modules) - before)), file=sys.stderr)
"""


def loaded_by(code: str, *args: str) -> tuple[int, list[str]]:
    """Exit code and the modules ``code`` reports, run in a fresh process
    started the way ``TestJsonDeterminism`` starts its child."""
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=child_env(),
                          cwd=str(ROOT), timeout=120)
    return proc.returncode, json.loads(proc.stderr.splitlines()[-1])


@pytest.mark.parametrize("argv, expected", COMMANDS.values(), ids=COMMANDS)
def test_command_loads_only_its_modules(argv, expected):
    code, loaded = loaded_by(RUN_AS_MAIN, *argv)
    assert code == 0
    assert {m.removeprefix("liepde.") for m in loaded
            if m.startswith("liepde.")} == expected
    assert "dataclasses" not in loaded


def test_import_liepde_loads_no_submodule():
    code, loaded = loaded_by(
        "import json, sys\nbefore = set(sys.modules)\nimport liepde\n"
        "print(json.dumps(sorted(set(sys.modules) - before)), file=sys.stderr)")
    assert code == 0
    assert [m for m in loaded if m.startswith("liepde")] == ["liepde"]


def test_star_import_and_dir_give_every_public_name():
    assert sorted(liepde._HOME) == sorted(liepde.__all__)
    namespace = {}
    exec("from liepde import *", namespace)
    assert set(liepde.__all__) <= set(namespace)
    assert set(liepde.__all__) <= set(dir(liepde))
    with pytest.raises(AttributeError):
        liepde.no_such_name


def test_package_names_read_the_home_module_on_every_access(monkeypatch):
    for name in liepde.__all__:
        original = getattr(liepde, name)
        home = sys.modules[original.__module__]
        replacement = object()
        monkeypatch.setattr(home, name, replacement)
        assert getattr(liepde, name) is replacement
        monkeypatch.undo()
        assert getattr(liepde, name) is original
        assert name not in vars(liepde), f"{name} was cached in the package"


class TestRecords:
    def field(self):
        return VectorField(("t", "x"), "u", (ex.ONE, ex.X), ex.U)

    def test_position_keyword_and_defaults(self):
        vf = self.field()
        assert vf == VectorField(variables=("t", "x"), dependent="u",
                                 eta=ex.U, xi=(ex.ONE, ex.X))
        assert vf == VectorField(("t", "x"), "u", eta=ex.U, xi=(ex.ONE, ex.X))
        assert Binding() == Binding({}) == Binding(values={})
        assert Binding().values is not Binding().values
        verdict = Verdict("A1", None, 1, 1, 0)
        assert (verdict.ideal_basis, verdict.complement_basis,
                verdict.notes) == ((), (), ())
        assert Verdict("A1", None, 1, 1, 0, notes=("n",)).notes == ("n",)
        for bad in (lambda: VectorField(("t", "x"), "u", (ex.ONE, ex.X)),
                    lambda: VectorField(("t", "x"), "u", (), ex.U, ex.U),
                    lambda: VectorField(("t", "x"), "u", (), ex.U, eta=ex.U),
                    lambda: Binding(value={})):
            with pytest.raises(TypeError):
                bad()

    def test_post_init_validates(self):
        with pytest.raises(ex.ExprError, match="one xi coefficient"):
            VectorField(("t", "x"), "u", (ex.ONE,), ex.U)
        with pytest.raises(ex.ExprError, match="jet-free"):
            VectorField(variables=("t", "x"), dependent="u",
                        xi=(ex.jet("u", "x"), ex.ONE), eta=ex.ZERO)

    def test_equality_is_by_class_and_fields(self):
        vf = self.field()
        assert vf == self.field() and not vf != self.field()
        assert vf != vf.scaled(2)
        assert Binding() != SimpleNamespace(values={})
        assert Verdict("A1", None, 1, 1, 0) != Verdict("A1", None, 1, 1, 1)
        assert Verdict("A1", None, 1, 1, 0) != ("A1", None, 1, 1, 0, (), (), ())

    def test_hash(self):
        assert hash(self.field()) == hash(self.field())
        assert hash(Verdict("A1", None, 1, 1, 0)) == hash(Verdict("A1", None, 1, 1, 0))
        with pytest.raises(TypeError):
            hash(Binding())

    def test_repr(self):
        assert repr(Binding.parse("R=5")) == "Binding(values={'R': Fraction(5, 1)})"
        assert repr(Verdict("A1", None, 1, 1, 0)) == (
            "Verdict(name='A1', mubarakzyanov_label=None, dimension=1, "
            "center_dim=1, derived_dim=0, ideal_basis=(), complement_basis=(), "
            "notes=())")
        assert repr(self.field()) == (
            "VectorField(variables=('t', 'x'), dependent='u', "
            "xi=(Expr(1), Expr(x)), eta=Expr(u))")

    def test_fields_cannot_be_assigned(self):
        vf, binding = self.field(), Binding()
        for record, name in ((vf, "eta"), (binding, "values"), (vf, "other")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)

    def test_cached_properties_are_computed_once(self):
        vf = known_basis()[1]
        assert vf.jacobian is vf.jacobian
        assert "jacobian" in vars(vf)
        one = Fraction(1)
        pres = AlgebraPresentation((), (((Fraction(0),), ), ))
        for name in ("unit", "sparse", "cleared"):
            assert isinstance(vars(AlgebraPresentation)[name], cached_property)
            assert getattr(pres, name) is getattr(pres, name)
        assert (pres.unit, pres.sparse, pres.cleared) == (
            ((one,),), (((),),), (((0,),),))

    def test_copies_are_equal(self):
        vf = self.field()
        verdict = Verdict("A1", None, 1, 1, 0, notes=("n",))
        # a presentation's ring is pickled by name, so it comes back as
        # the same record
        pres = AlgebraPresentation((), (((Fraction(0),), ), ))
        for record in (vf, verdict, Binding.parse("R=5"), pres):
            assert copy.copy(record) == record
            assert pickle.loads(pickle.dumps(record)) == record
        assert pickle.loads(pickle.dumps(pres)).ring is pres.ring
