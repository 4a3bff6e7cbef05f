"""The supported library API: ``liepde.__all__`` is the README's list."""

import ast
import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path

import liepde

ROOT = Path(__file__).parent.parent
README = ROOT / "README.md"


def readme_section(title):
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def readme_api():
    """``{workflow: [names]}`` from the README's Library API table."""
    table = {}
    for line in readme_section("Library API").splitlines():
        if line.startswith("| ") and "`" in line:
            workflow, names = line.strip("| ").split(" | ")
            table[workflow] = re.findall(r"`(\w+)`", names)
    return table


def test_all_is_the_readme_list():
    listed = [name for names in readme_api().values() for name in names]
    assert len(listed) == len(set(listed)) == len(liepde.__all__)
    assert set(listed) == set(liepde.__all__)


def test_every_listed_name_resolves():
    for name in liepde.__all__:
        getattr(liepde, name)
    for name in readme_api()["errors"]:
        assert issubclass(getattr(liepde, name), liepde.ExprError), name


def test_names_the_benchmark_uses_are_listed():
    assert {"make_hpz", "make_heat", "get_equation", "solve_determining",
            "known_basis"} <= set(liepde.__all__)


def test_only_the_package_declares_public_names():
    for info in pkgutil.iter_modules(liepde.__path__):
        module = importlib.import_module(f"liepde.{info.name}")
        assert "__all__" not in vars(module), info.name


def test_readme_example_runs():
    block = readme_section("Library API").split("```python\n")[1].split("```")[0]
    exec(compile(block, str(README), "exec"), {})


def test_every_function_has_a_caller_or_is_public():
    # a function or method of the package is named in src/ as an
    # identifier (a name, an attribute or an import; a string does not
    # count), or anywhere in perfbench/ besides its own def (the benchmark
    # looks some up by name, in strings), or is in __all__, or is a dunder;
    # otherwise nothing runs it but tests
    named, defs = Counter(), []
    for path in sorted((ROOT / "src" / "liepde").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named[node.id] += 1
            elif isinstance(node, ast.Attribute):
                named[node.attr] += 1
            elif isinstance(node, ast.alias):
                named[node.name] += 1
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((path.stem, node.name))
    for path in (ROOT / "perfbench").rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        named.update(Counter(re.findall(r"\w+", text))
                     - Counter(re.findall(r"\bdef (\w+)", text)))
    unnamed = [f"{module}.{name}" for module, name in defs
               if not (name in liepde.__all__ or re.fullmatch(r"__\w+__", name)
                       or named[name])]
    assert unnamed == []
