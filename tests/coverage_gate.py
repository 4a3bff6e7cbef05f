"""Line-coverage gate for ``src/liepde``: every statement runs under tier-1,
or ``tests/coverage_allowlist.txt`` says why it may not.

Run from the checkout root::

    PYTHONDONTWRITEBYTECODE=1 python tests/coverage_gate.py

It runs the tier-1 suite in this process under a ``sys.settrace`` line
collector (standard library only; Python 3.10-3.13) and lists every
statement of the package that never ran.  A statement is one ``ast.stmt``:
its own lines (the header of a compound statement, every line of a simple
one) that hold bytecode; one line event on any of them reaches it.  Def,
class, import and module-docstring lines run at import, so they count as
reached.  The fresh-process CLI tests are not traced.

The allowlist names each statement that may stay unreached by module,
enclosing function and the stripped text of its first line, never by line
number, with one reason:

- ``invariant``: an ``InternalError``, or a check that only a bug can trip;
- ``pre-empted``: a usage error that another layer raises first;
- ``reference``: a reference kept for perfbench's lookup by name.

The gate fails (exit 1) when tier-1 fails, when an unreached statement is
not listed, and when a listed statement ran or no longer exists.  The
sympy oracles are left out of the run, as in CI's tests job, so the answer
does not depend on whether sympy is installed.  pytest does not collect
this file.
"""

import ast
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liepde"
ALLOWLIST = ROOT / "tests" / "coverage_allowlist.txt"
REASONS = {"invariant", "pre-empted", "reference"}


def code_lines(code) -> set[int]:
    """Every line that holds bytecode in ``code`` and the code it nests."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= code_lines(const)
    return out


def statements(path: Path):
    """``(line, function, text, own lines)`` for each statement of the module
    at ``path`` that holds bytecode; ``function`` is the dotted path of the
    enclosing defs and classes, ``<module>`` at top level."""
    source = path.read_text()
    text = source.splitlines()
    executable = code_lines(compile(source, str(path), "exec"))
    out = []

    def visit(body, scope):
        for node in body:
            first = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", ())])
            # the statement lists it holds: bodies, else and finally
            # blocks, and the bodies of except handlers and match cases
            lists = [v for _, v in ast.iter_fields(node)
                     if isinstance(v, list) and v]
            inner = [v for v in lists if isinstance(v[0], ast.stmt)]
            inner += [h.body for v in lists for h in v
                      if isinstance(h, (ast.excepthandler, ast.match_case))]
            last = (min(b[0].lineno for b in inner) - 1 if inner
                    else node.end_lineno)
            own = set(range(first, max(first, last) + 1)) & executable
            if own:
                out.append((node.lineno, scope or "<module>",
                            text[node.lineno - 1].strip(), own))
            name = getattr(node, "name", None)
            for block in inner:
                visit(block, f"{scope}.{name}" if scope and name
                      else name or scope)

    visit(ast.parse(source).body, "")
    return out


def run_traced() -> tuple[int, dict[str, set[int]]]:
    """Tier-1 in this process under a line collector for the package."""
    import pytest

    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}
    local_of: dict[object, object] = {}

    def local_for(path):
        lines = hits.setdefault(path, set())
        add = lines.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        local = local_of.get(code)
        if local is None:
            # the path resolved as ``PACKAGE`` is, however the import
            # reached it; False for code outside the package
            path = os.path.realpath(code.co_filename)
            local = local_of[code] = (path.startswith(prefix)
                                      and local_for(path))
        return local or None

    sys.modules["sympy"] = None  # the oracles skip, as without sympy
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-W", "error", "-p", "no:cacheprovider",
                              str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    return int(status), hits


def read_allowlist() -> Counter:
    entries: Counter = Counter()
    for n, raw in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        module, function, reason, text = raw.split(maxsplit=3)
        if reason not in REASONS:
            raise SystemExit(f"{ALLOWLIST.name}:{n}: unknown reason {reason!r}")
        entries[(module, function, text)] += 1
    return entries


def main() -> int:
    status, hits = run_traced()
    unreached: Counter = Counter()
    where: dict[tuple, list[str]] = {}
    executable = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        for line, function, text, own in statements(path):
            executable += 1
            if not own & ran:
                key = (path.stem, function, text)
                unreached[key] += 1
                where.setdefault(key, []).append(
                    f"src/liepde/{path.name}:{line}")
    allowed = read_allowlist()
    unlisted = unreached - allowed
    stale = allowed - unreached
    print(f"\n{executable} statements, {sum(unreached.values())} unreached, "
          f"{sum(allowed.values())} allowlisted")
    for key in sorted(unlisted):
        print(f"unreached and not allowlisted: {', '.join(where[key])}  "
              f"{key[1]}  {key[2]}")
    for key in sorted(stale):
        print(f"allowlisted but reached or gone: {key[0]}  {key[1]}  {key[2]}")
    if status != 0:
        print(f"tier-1 failed (pytest exit {status})")
    return 1 if status or unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
