"""Command-line front end: verify, find, reduce, classify, report.

Exit codes: 0 success, 1 mathematical failure (e.g. a nonzero residual in
``verify``), 2 usage errors (bad syntax, bad binding, unknown names), 3
internal errors (an invariant of the engine itself was violated).
Output is plain text, or a single JSON document with ``--format json``;
identical inputs produce byte-identical JSON.

The module imports only what every command uses; each command imports the
rest when it runs, so a process that runs one command loads only the
modules that command needs (listed in the README's CLI section).
"""

from __future__ import annotations

import argparse
import json
import sys

from .expr import ExprError, InternalError
from .jet import EvolutionPDE, StationaryEquation, get_equation, make_heat, make_hpz
from .parser import parse, render
from .prolong import VectorField, residual, verify_basis


MATH_FAILURE = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3


def _read_generator(fields: dict, variables: tuple[str, ...],
                    dependent: str) -> VectorField:
    """The vector field of ``{"xi_<v>": text, "eta": text}``, the inverse of
    ``VectorField.render``; a missing coefficient is zero."""
    fields = dict(fields)
    texts = [fields.pop(f"xi_{v}", "0") for v in variables]
    texts.append(fields.pop("eta", "0"))
    if fields:
        raise ExprError(
            f"unknown generator fields {sorted(fields)}; expected "
            + ", ".join([f"xi_{v}" for v in variables] + ["eta"]))
    if not all(isinstance(text, str) for text in texts):
        raise ExprError(f"generator coefficients must be strings: {texts!r}")
    *xi, eta = [parse(text) for text in texts]
    return VectorField(variables, dependent, tuple(xi), eta)


def _parse_generator(spec_text: str, variables: tuple[str, ...],
                     dependent: str) -> VectorField:
    """Parse 'xi_t=...; xi_x=...; eta=...' into a vector field."""
    fields: dict[str, str] = {}
    for chunk in spec_text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, eq, rhs = chunk.partition("=")
        if not eq:
            raise ExprError(f"generator field {chunk!r} is missing '='")
        key = key.strip()
        if key in fields:
            raise ExprError(f"generator field {key!r} is given twice")
        fields[key] = rhs.strip()
    return _read_generator(fields, variables, dependent)


def _load_basis_file(path: str) -> list[VectorField]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:
            raise ExprError(f"basis file {path} is not JSON: {err}") from err
    if not (isinstance(doc, dict) and isinstance(doc.get("dependent"), str)
            and isinstance(doc.get("variables"), list)
            and all(isinstance(v, str) for v in doc["variables"])
            and isinstance(doc.get("generators"), list) and doc["generators"]
            and all(isinstance(g, dict) for g in doc["generators"])):
        raise ExprError(
            f"basis file {path} must hold variables (a list of names), "
            "dependent (a name) and generators (a non-empty list of objects)")
    return [_read_generator(g, tuple(doc["variables"]), doc["dependent"])
            for g in doc["generators"]]


def _emit(doc: dict, text_lines: list[str], args) -> None:
    if args.format == "json":
        payload = json.dumps(doc, indent=2) + "\n"
    else:
        payload = "\n".join(text_lines) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _require_evolution(equation) -> EvolutionPDE:
    if isinstance(equation, StationaryEquation):
        raise ExprError("this command needs an evolution equation, not the "
                        "stationary one")
    return equation


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    equation = _require_evolution(get_equation(args.equation))
    named = []
    if args.fixture:
        if args.fixture != "paper":
            raise ExprError(f"unknown fixture {args.fixture!r}; only 'paper'")
        if args.equation != "hpz":
            raise ExprError("the 'paper' fixture belongs to the hpz equation")
        from . import fixtures
        named = list(zip(fixtures.generator_names(), fixtures.known_basis()))
    elif args.generator:
        named = [("generator", _parse_generator(
            args.generator, equation.variables, equation.dependent))]
    else:
        raise ExprError("verify needs --fixture or --generator")
    rows = verify_basis(named, equation)
    doc = {
        "command": "verify",
        "equation": args.equation,
        "generators": [
            {"name": r.name, "residual": render(r.residual), "ok": r.ok}
            for r in rows],
        "all_ok": all(r.ok for r in rows),
    }
    lines = [f"verify {args.equation}"]
    for r in rows:
        status = "residual = 0" if r.ok else f"residual = {render(r.residual)}"
        lines.append(f"  {r.name}: {status}")
    lines.append("all residuals zero" if doc["all_ok"] else "FAILED")
    _emit(doc, lines, args)
    return 0 if doc["all_ok"] else MATH_FAILURE


def _find_document(equation_name: str, binding, basis=None) -> dict:
    """The ``find`` document at a ``solver.Binding``; ``basis`` is this
    equation's already-solved ``SymmetryBasis`` at ``binding``, or None to
    solve it here."""
    from .solver import profile_basis, solve_determining
    equation = _require_evolution(get_equation(equation_name))
    if basis is None:
        basis = solve_determining(equation, binding)
    doc = {
        "command": "find",
        "equation": equation_name,
        "binding": binding.as_dict(),
        "dimension": basis.dimension,
        "generators": [vf.render() for vf in basis.fields],
        "exponents": [str(lam) for lam in basis.exponents],
        # solve_determining re-verifies every generator it returns
        "residual_checks": [True] * basis.dimension,
    }
    if len(equation.variables) == 2:
        prof = profile_basis(basis)
        doc["profile"] = {
            "all_match": prof.all_match,
            "a_rank": prof.a_rank,
            "b_rank": prof.b_rank,
            "f_rank": prof.f_rank,
            "rows": [
                {"a": render(r.a), "b": render(r.b), "scaling": render(r.scaling),
                 "matches": r.matches}
                for r in prof.rows],
        }
    return doc


def cmd_find(args) -> int:
    from .solver import Binding
    binding = Binding.parse(args.params or "")
    doc = _find_document(args.equation, binding)
    lines = [f"find {args.equation}  binding {doc['binding'] or '(none)'}",
             f"dimension: {doc['dimension']}"]
    for gen, lam in zip(doc["generators"], doc["exponents"]):
        lines.append(f"  exponent {lam}: " +
                     "; ".join(f"{k}={v}" for k, v in gen.items()))
    if "profile" in doc:
        p = doc["profile"]
        lines.append(
            f"profile: all_match={p['all_match']} ranks a/b/f = "
            f"{p['a_rank']}/{p['b_rank']}/{p['f_rank']}")
    _emit(doc, lines, args)
    return 0


def _reduce_document(generator: str) -> dict:
    from . import fixtures
    from .reduction import compare_with_printed, paper_reduction, reduce_time
    if generator == "time":
        stationary = reduce_time(make_hpz())
        printed = fixtures.printed_stationary_equation()
        return {
            "command": "reduce",
            "generator": "time",
            "equation": "hpz",
            "stationary_equation": stationary.render(),
            "matches_printed_form": (stationary.lhs - printed).is_zero,
        }
    red = paper_reduction(generator)
    rmap = red.map
    printed, factor = fixtures.printed_reduced_equation(generator)
    rows, agree = compare_with_printed(red, printed, factor)
    return {
        "command": "reduce",
        "generator": generator,
        "equation": "hpz",
        "invariant": render(rmap.r),
        "multiplier_exponent": render(rmap.q_exponent),
        "reduced_equation": red.equation.render(),
        "certificate": red.certificate,
        "printed_form_factor": render(factor),
        "printed_comparison": rows,
        "matches_printed_form": agree,
    }


def cmd_reduce(args) -> int:
    if args.equation != "hpz":
        raise ExprError("reduction fixtures are defined for the hpz equation")
    if args.params:
        # degenerate-parameter guards: repeated root and singular RV+W
        from .solver import Binding
        Binding.parse(args.params).require_reduction_params()
    if args.generator == "time":
        doc = _reduce_document("time")
        lines = [f"time reduction of hpz: {doc['stationary_equation']}",
                 f"matches printed stationary form: {doc['matches_printed_form']}"]
        _emit(doc, lines, args)
        return 0
    if args.generator not in ("delta3", "delta4", "delta5", "delta6"):
        raise ExprError("reducible generators: delta3, delta4, delta5, "
                        "delta6, time")
    doc = _reduce_document(args.generator)
    lines = [
        f"reduction of hpz by {args.generator}",
        f"  invariant r = {doc['invariant']}",
        f"  multiplier exponent Q = {doc['multiplier_exponent']}",
        f"  reduced equation: {doc['reduced_equation']}",
        f"  certificate: {doc['certificate']}",
        f"  matches printed form (factor {doc['printed_form_factor']}): "
        f"{doc['matches_printed_form']}",
    ]
    if not doc["matches_printed_form"]:
        lines.append("  term-by-term comparison (suspected transcription slip):")
        for row in doc["printed_comparison"]:
            flag = "" if row["match"] else "   <-- differs"
            lines.append(f"    [{row['monomial']}] derived {row['derived']} "
                         f"| printed {row['printed']}{flag}")
    _emit(doc, lines, args)
    return 0


def _classify_document(fields, label: str) -> dict:
    from .algebra import classify, structure_constants
    pres = structure_constants(fields)
    verdict = classify(pres)
    doc = verdict.as_dict()
    doc["structure_constants"] = pres.constants_text()
    doc["basis_label"] = label
    return doc


def cmd_classify(args) -> int:
    if args.basis:
        fields = _load_basis_file(args.basis)
        label = args.basis
    elif args.equation:
        from .solver import Binding, solve_determining
        equation = _require_evolution(get_equation(args.equation))
        binding = Binding.parse(args.params or "")
        basis = solve_determining(equation, binding)
        fields = list(basis.fields)
        label = f"{args.equation} discovered basis"
    else:
        raise ExprError("classify needs --basis FILE or --equation NAME")
    doc = {"command": "classify", **_classify_document(fields, label)}
    lines = [f"classify {label}",
             f"  name: {doc['name']}",
             f"  Mubarakzyanov label: {doc['mubarakzyanov_label']}",
             f"  dimension {doc['dimension']}, center {doc['center_dim']}, "
             f"derived {doc['derived_dim']}"]
    for note in doc["notes"]:
        lines.append(f"  note: {note}")
    _emit(doc, lines, args)
    return 0


def cmd_report(args) -> int:
    from . import fixtures
    from .solver import Binding, solve_determining
    binding = Binding.parse(args.params or "R=5,S=4,V=1,W=1")
    hpz = make_hpz()

    known = fixtures.known_basis()
    checked = verify_basis(zip(fixtures.generator_names(), known), hpz)
    verification = {
        "equation": "hpz",
        "generators": [
            {"name": row.name, "residual": render(row.residual), "ok": row.ok}
            for row in checked],
    }
    verification["all_ok"] = all(g["ok"] for g in verification["generators"])

    # a reading that coincides with a verified generator reuses its residual
    residuals = dict(zip(known, (row.residual for row in checked)))

    def residual_zero(vf):
        found = residuals.get(vf)
        return (residual(vf, hpz) if found is None else found).is_zero

    ambiguity = {}
    for reading, (d5, d6) in fixtures.c1_e1_variants().items():
        ambiguity[reading] = {
            "delta5_residual_zero": residual_zero(d5),
            "delta6_residual_zero": residual_zero(d6),
        }

    discovery = {
        "hpz": _find_document("hpz", binding),
        "heat": _find_document("heat", Binding()),
    }

    reductions = {name: _reduce_document(name)
                  for name in ("delta3", "delta4", "delta5", "delta6", "time")}

    red32 = solve_determining(_require_evolution(get_equation("reduced-3.2")),
                              binding)
    reduced_discovery = {"reduced-3.2": _find_document(
        "reduced-3.2", binding, red32)}
    for reg_name in ("reduced-3.5", "reduced-3.7", "reduced-3.9"):
        reduced_discovery[reg_name] = _find_document(reg_name, binding)

    classification = {
        "w5": _classify_document(known[1:], "delta2..delta6"),
        "full": _classify_document(known, "delta1..delta6"),
    }
    classification["reduced-3.2"] = _classify_document(
        list(red32.fields), "reduced-3.2 discovered basis")
    classification["excluded"] = (
        "the infinite-dimensional family of solution symmetries phi d/du is "
        "excluded from all dimension counts")

    doc = {
        "command": "report",
        "binding": binding.as_dict(),
        "equations": {
            "hpz": hpz.render(),
            "heat": make_heat().render(),
            **{name: _require_evolution(get_equation(name)).render()
               for name in ("reduced-3.2", "reduced-3.5", "reduced-3.7",
                            "reduced-3.9")},
            "stationary-2.6": get_equation("stationary-2.6").render(),
        },
        "verification": verification,
        "c1_e1_readings": ambiguity,
        "discovery": discovery,
        "reductions": reductions,
        "reduced_discovery": reduced_discovery,
        "classification": classification,
    }
    lines = [
        f"report (binding {doc['binding']})",
        f"  fixture verification: {'ok' if verification['all_ok'] else 'FAILED'}",
        f"  hpz dimension {discovery['hpz']['dimension']}, "
        f"heat dimension {discovery['heat']['dimension']}",
    ]
    for name, red in reductions.items():
        if name == "time":
            lines.append(f"  time reduction matches printed form: "
                         f"{red['matches_printed_form']}")
        else:
            lines.append(f"  {name}: {red['reduced_equation']}  "
                         f"(printed match: {red['matches_printed_form']})")
    for name, found in reduced_discovery.items():
        lines.append(f"  {name}: dimension {found['dimension']}, profile "
                     f"{found['profile']['all_match']}")
    lines.append(f"  algebra: {classification['w5']['name']}, "
                 f"{classification['full']['name']}, "
                 f"{classification['reduced-3.2']['name']}")
    _emit(doc, lines, args)
    return 0 if verification["all_ok"] else MATH_FAILURE


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="liepde",
        description="exact Lie point symmetry engine for evolution PDEs")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write output to this path")

    p = sub.add_parser("verify", help="check generators for zero residual")
    p.add_argument("--equation", required=True)
    p.add_argument("--fixture", help="named fixture basis ('paper')")
    p.add_argument("--generator", help="inline 'xi_t=...; xi_x=...; eta=...'")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("find", help="discover the finite symmetry basis")
    p.add_argument("--equation", required=True)
    p.add_argument("--params", help="comma-separated name=rational binding")
    common(p)
    p.set_defaults(func=cmd_find)

    p = sub.add_parser("reduce", help="order reduction by a fixture generator")
    p.add_argument("--equation", required=True)
    p.add_argument("--generator", required=True,
                   help="delta3, delta4, delta5, delta6 or time")
    p.add_argument("--params", help="optional binding; validated against the "
                                    "degenerate-parameter cases")
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("classify", help="classify a symmetry algebra")
    p.add_argument("--basis", help="JSON basis file")
    p.add_argument("--equation", help="classify this equation's basis")
    p.add_argument("--params", help="binding for --equation")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("report", help="full verification/discovery/reduction/"
                                      "classification document")
    p.add_argument("--params", help="binding (default R=5,S=4,V=1,W=1)")
    common(p)
    p.set_defaults(func=cmd_report)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        return USAGE_ERROR if err.code else 0
    try:
        return args.func(args)
    except InternalError as err:
        print(f"error: {err}", file=sys.stderr)
        return INTERNAL_ERROR
    except (ExprError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
