"""Spans and counters recorded from outside liepde, by wrapping its functions.

A traced op installs wrappers by replacing module attributes: every module
of the ``liepde`` package that holds the original object under some name
(``from .prolong import residual`` binds it in ``solver``, ``reduction``,
``cli`` and the package itself) gets the wrapper under that name, and
``restore`` puts every original back.  Nothing inside ``src/liepde``
changes.

Layer functions record spans (name, start, end, parent, op id) in memory.
Kernel arithmetic (``Expr`` add/mul, ``partial``, ``subst_many``,
``divide_exact``) is called far too often for a span per call, so it only
counts calls and result sizes, and times the outermost kernel call.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter


class Tracer:
    """In-memory span store plus kernel counters for one traced process."""

    def __init__(self):
        self.spans: list = []       # (name, start, end, parent index, op id)
        self.counts: Counter = Counter()
        self.kernel_s = 0.0
        self.max_terms = 0
        self.op = None
        self._stack: list[int] = []
        self._kernel_depth = 0

    def layer(self, name, fn, on_result=None, on_error=None):
        """Wrapper that records a span around each call of ``fn``."""
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if on_error is not None:
                    on_error(tracer, err)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op)
            if on_result is not None:
                on_result(tracer, args, result)
            return result
        return wrapped

    def counted(self, fn, on_result):
        """Wrapper that records no span, only what ``on_result`` counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(tracer, args, result)
            return result
        return wrapped

    def kernel(self, counter, fn):
        """Wrapper for kernel arithmetic: a call count, result terms, and
        wall time of the outermost kernel call only."""
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[counter] += 1
            tracer._kernel_depth += 1
            outermost = tracer._kernel_depth == 1
            if outermost:
                start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._kernel_depth -= 1
                if outermost:
                    tracer.kernel_s += perf_counter() - start
            n = len(result.terms)
            counts["expr.terms_out"] += n
            if n > tracer.max_terms:
                tracer.max_terms = n
            return result
        return wrapped


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def outermost(spans, names) -> list[int]:
    """Indices of spans named in ``names`` with no ancestor named in ``names``."""
    names = set(names)
    out = []
    for index, span in enumerate(spans):
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            out.append(index)
    return out


def covered_time(spans, names) -> float:
    """Wall time inside spans named in ``names``, nested ones counted once."""
    return sum(spans[i][2] - spans[i][1] for i in outermost(spans, names))


def call_count(spans, names) -> int:
    names = set(names)
    return sum(1 for span in spans if span[0] in names)


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------

def _terms(counter):
    def note(tracer, args, result):
        tracer.counts[counter] += len(result.terms)
    return note


def _render_bytes(tracer, args, result):
    tracer.counts["parser.render_bytes"] += len(result.encode("utf-8"))


def _solved(tracer, args, basis):
    tracer.counts["solver.generators"] += len(basis.fields)
    tracer.counts["solver.kept_exponents"] += len(set(basis.exponents))


def _refusal(tracer, err):
    from liepde.linalg import RootExtractionError
    if isinstance(err, RootExtractionError):
        tracer.counts["solver.refusals"] += 1


def _candidates(tracer, args, roots):
    tracer.counts["solver.candidates"] += len(roots)


def _trial(tracer, args, result):
    tracer.counts["solver.trial_vectors"] += len(result[0])


def _cells(tracer, args, result):
    rows = args[0]
    ncols = args[1] if len(args) > 1 and args[1] is not None else (
        len(rows[0]) if rows else 0)
    tracer.counts["linalg.nullspace_cells"] += len(rows) * ncols


# (module, attribute, span name, on_result, on_error); a span name of None
# means a counter-only wrapper
LAYER_TARGETS = (
    ("parser", "parse", "parser.parse", None, None),
    ("parser", "render", "parser.render", _render_bytes, None),
    ("jet", "total_derivative", "jet.total_derivative", None, None),
    ("jet", "eliminate_time_jets", "jet.eliminate_time_jets", None, None),
    ("jet", "get_equation", "jet.get_equation", None, None),
    ("prolong", "prolong2", "prolong.prolong2", None, None),
    ("prolong", "residual", "prolong.residual", _terms("prolong.residual_terms"), None),
    ("prolong", "determining_equations", "prolong.determining", None, None),
    ("solver", "solve_determining", "solver.solve", _solved, _refusal),
    ("solver", "span_rank", "solver.span_rank", None, None),
    ("solver", "profile_basis", "solver.profile", None, None),
    ("solver", "_candidate_exponents", None, _candidates, None),
    ("solver", "_trial_nullspace", None, _trial, None),
    ("linalg", "pencil_pivots", "linalg.pencil", None, None),
    ("linalg", "pencil_gram_poly", "linalg.gram", None, None),
    ("linalg", "rational_roots", "linalg.roots", None, None),
    ("linalg", "q_nullspace", "linalg.nullspace", _cells, None),
    ("linalg", "q_rank", "linalg.rank", None, None),
    ("linalg", "f_solve_unique", "linalg.field", None, None),
    ("linalg", "f_rank", "linalg.field", None, None),
    ("linalg", "f_nullspace", "linalg.field", None, None),
    ("reduction", "invariants_for", "reduction.invariants", None, None),
    ("reduction", "reduce_pde", "reduction.reduce", None, None),
    ("reduction", "reduce_time", "reduction.reduce", None, None),
    ("algebra", "commutator", "algebra.commutator", None, None),
    ("algebra", "structure_constants", "algebra.structure", None, None),
    ("algebra", "classify", "algebra.classify", None, None),
    ("cli", "main", "cli.main", None, None),
)

# (module-level function or Expr method, counter)
KERNEL_TARGETS = (
    ("__mul__", "expr.mul_calls"),
    ("__add__", "expr.add_calls"),
    ("partial", "expr.partial_calls"),
    ("subst_many", "expr.subst_calls"),
    ("divide_exact", "expr.divide_calls"),
)


def install(tracer: Tracer):
    """Wrap liepde's public functions for ``tracer``; returns ``restore``."""
    modules = {name: importlib.import_module(f"liepde.{name}")
               for name in {t[0] for t in LAYER_TARGETS} | {"expr"}}
    spaces = [vars(m) for name, m in sorted(sys.modules.items())
              if m is not None and (name == "liepde" or name.startswith("liepde."))]
    expr_class = modules["expr"].Expr
    replaced: list = []   # (namespace dict or class, name, original)

    def swap(original, wrapper):
        for space in spaces:
            for name, value in list(space.items()):
                if value is original:
                    space[name] = wrapper
                    replaced.append((space, name, original))

    for module, attr, span, on_result, on_error in LAYER_TARGETS:
        original = getattr(modules[module], attr)
        if span is None:
            swap(original, tracer.counted(original, on_result))
        else:
            swap(original, tracer.layer(span, original, on_result, on_error))
    for attr, counter in KERNEL_TARGETS:
        if attr.startswith("__"):
            original = expr_class.__dict__[attr]
            wrapper = tracer.kernel(counter, original)
            for name, value in list(expr_class.__dict__.items()):
                if value is original:      # __rmul__ = __mul__, __radd__ = __add__
                    setattr(expr_class, name, wrapper)
                    replaced.append((expr_class, name, original))
        else:
            original = getattr(modules["expr"], attr)
            swap(original, tracer.kernel(counter, original))

    def restore():
        for target, name, original in reversed(replaced):
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)
        replaced.clear()
    return restore


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric the spans and counters of ``tracer`` give."""
    spans = tracer.spans
    counts = tracer.counts
    selfs = self_times(spans)
    solve_idx = [i for i, s in enumerate(spans) if s[0] == "solver.solve"]
    m = {
        "expr.mul_calls": counts["expr.mul_calls"],
        "expr.add_calls": counts["expr.add_calls"],
        "expr.partial_calls": counts["expr.partial_calls"],
        "expr.subst_calls": counts["expr.subst_calls"],
        "expr.divide_calls": counts["expr.divide_calls"],
        "expr.terms_out": counts["expr.terms_out"],
        "expr.max_terms": tracer.max_terms,
        "expr.kernel_s": tracer.kernel_s,
        "parser.parse_s": covered_time(spans, ["parser.parse"]),
        "parser.render_s": covered_time(spans, ["parser.render"]),
        "parser.render_bytes": counts["parser.render_bytes"],
        "jet.total_derivative_calls": call_count(spans, ["jet.total_derivative"]),
        "jet.total_derivative_s": covered_time(spans, ["jet.total_derivative"]),
        "jet.eliminate_time_jets_s": covered_time(spans, ["jet.eliminate_time_jets"]),
        "jet.get_equation_s": covered_time(spans, ["jet.get_equation"]),
        "prolong.prolong2_s": covered_time(spans, ["prolong.prolong2"]),
        "prolong.residual_calls": call_count(spans, ["prolong.residual"]),
        "prolong.residual_s": covered_time(spans, ["prolong.residual"]),
        "prolong.residual_terms": counts["prolong.residual_terms"],
        "prolong.determining_s": covered_time(spans, ["prolong.determining"]),
        "solver.solve_calls": len(solve_idx),
        "solver.solve_s": covered_time(spans, ["solver.solve"]),
        "solver.solve_self_s": sum(selfs[i] for i in solve_idx),
        "solver.candidates": counts["solver.candidates"],
        "solver.trial_vectors": counts["solver.trial_vectors"],
        "solver.generators": counts["solver.generators"],
        "solver.refusals": counts["solver.refusals"],
        "solver.span_rank_s": covered_time(spans, ["solver.span_rank"]),
        "solver.profile_s": covered_time(spans, ["solver.profile"]),
        "linalg.pencil_s": covered_time(spans, ["linalg.pencil"]),
        "linalg.gram_s": covered_time(spans, ["linalg.gram"]),
        "linalg.roots_s": covered_time(spans, ["linalg.roots"]),
        "linalg.nullspace_calls": call_count(spans, ["linalg.nullspace"]),
        "linalg.nullspace_s": covered_time(spans, ["linalg.nullspace"]),
        "linalg.nullspace_cells": counts["linalg.nullspace_cells"],
        "linalg.rank_calls": call_count(spans, ["linalg.rank"]),
        "linalg.rank_s": covered_time(spans, ["linalg.rank"]),
        "linalg.field_calls": call_count(spans, ["linalg.field"]),
        "linalg.field_s": covered_time(spans, ["linalg.field"]),
        "reduction.calls": call_count(spans, ["reduction.invariants", "reduction.reduce"]),
        "reduction.invariants_s": covered_time(spans, ["reduction.invariants"]),
        "reduction.reduce_s": covered_time(spans, ["reduction.reduce"]),
        "algebra.commutator_calls": call_count(spans, ["algebra.commutator"]),
        "algebra.commutator_s": covered_time(spans, ["algebra.commutator"]),
        "algebra.structure_s": covered_time(spans, ["algebra.structure"]),
        "algebra.classify_s": covered_time(spans, ["algebra.classify"]),
        "cli.main_s": covered_time(spans, ["cli.main"]),
    }
    if counts["solver.candidates"]:
        # kept exponents / candidate exponents tried; undefined without a solve
        m["solver.exponent_yield"] = (counts["solver.kept_exponents"]
                                      / counts["solver.candidates"])
    return m
