"""Seeded inputs, the ops that consume them, and their known answers.

Each workload turns a seed into a list of blocks of plain-data ops (numbers
and strings only, so the list has a stable digest).  A block has a fixed
mix of op kinds; only the values inside each op depend on the seed, so
every run measures the same mix.  ``setup`` builds the fixed equations and
bases once; ``warmup``, a fixed op that is the same for every seed, warms
the caches; ``run_op`` executes one op and returns whether the answer
matched its known answer.

Known answers never come from liepde itself:

* verify: a combination of delta1..delta6 is a symmetry, so its residual is
  zero by linearity; adding c*x^k d/dx, which is outside the symmetry
  algebra, makes it nonzero.
* discover: hpz (omega != 0, R*V + W != 0), the four reduced equations, the
  heat equation and u_t = u_xx + c*x^2*u (point-equivalent to heat) all
  have a six-dimensional finite symmetry algebra; for c < 0 not minus a
  rational square the exponents are irrational and discovery must refuse.
* classify: the algebra's name does not change under a change of basis.
* cli: exit codes, the facts above, and the bytes of the golden report.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

HPZ_VARS = ("t", "x", "y")
REDUCED = ("reduced-3.2", "reduced-3.5", "reduced-3.7", "reduced-3.9")
FULL_NAME = "A1 (+)s W5"          # delta1..delta6
W5_NAME = "W5"                    # delta2..delta6
HEAT_NAME = "sl(2,R) (+)s W3"     # heat and the (1+1) reductions of hpz
SYMMETRY_DIMENSION = 6
# the bases classify discovers once, in set-up, and the warm-up ops use the
# report's default binding, so that no draw can make set-up slow or fast
REPORT_BINDING = {"R": "5", "S": "4", "V": "1", "W": "1"}

_R = sorted({Fraction(n, d) for n in range(-4, 5) for d in (1, 2) if n})
_OMEGA = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 2)]
_V = [Fraction(-1), Fraction(1), Fraction(2)]
_W = [Fraction(-1), Fraction(1), Fraction(2), Fraction(1, 2)]
_Q = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 2),
      Fraction(1, 3), Fraction(2, 3)]
# negative, and not minus a rational square
_NON_SQUARE = [Fraction(n, d) for n, d in
               ((2, 1), (3, 1), (5, 1), (6, 1), (7, 1), (1, 2), (1, 3),
                (2, 3), (3, 2), (5, 4), (8, 9))]


def _rat(rng, top: int = 5, den: int = 4) -> str:
    n = rng.choice([i for i in range(-top, top + 1) if i])
    return str(Fraction(n, rng.randint(1, den)))


def _binding(rng, nonzero_s: bool = False) -> dict[str, str]:
    """R, omega != 0, V, W != 0 with S = (R^2 - omega^2)/4 and R*V + W != 0.

    Also R*V +- omega*V + 2*W != 0: by the printed forms of the reduced
    equations their z_rr coefficients are 2*(R*V +- omega*V + 2*W) (3.2,
    3.5) and W*(R*V +- omega*V + 2*W)/(2*(R*V + W)) (3.7, 3.9); where one
    vanishes that equation is first order and the known answer no longer
    applies.
    """
    while True:
        r, om = rng.choice(_R), rng.choice(_OMEGA)
        v, w = rng.choice(_V), rng.choice(_W)
        s = (r * r - om * om) / 4
        second_order = (r * v + om * v + 2 * w) * (r * v - om * v + 2 * w) != 0
        if r * v + w != 0 and second_order and (s != 0 or not nonzero_s):
            return {"R": str(r), "S": str(s), "V": str(v), "W": str(w)}


def _triangular(rng, n: int) -> list[list[str]]:
    """Lower-triangular rational matrix with a nonzero diagonal and one
    nonzero below it in every row but the first (a fixed sparsity keeps
    the cost of a block independent of the seed)."""
    rows = []
    for i in range(n):
        below = rng.randrange(i) if i else None
        rows.append([_rat(rng, 3, 3) if j in (i, below) else "0" for j in range(i + 1)])
    return rows


# Subsets of delta1..delta6 (0-based), sizes 2..6 twice.  Generators that
# carry delta (delta5, delta6) dominate the cost of a residual, so each block
# uses this fixed composition; the seed swaps the counterparts delta2/delta3
# and delta5/delta6 and draws the coefficients and the non-symmetric ops.
_VERIFY_SUBSETS = ((0, 1), (3, 4), (0, 2, 5), (1, 3, 4), (0, 1, 2, 3),
                   (1, 2, 4, 5), (0, 1, 2, 3, 4), (0, 2, 3, 4, 5),
                   (0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5))
_COUNTERPART = {1: 2, 2: 1, 4: 5, 5: 4}


def _verify_op(rng, subset, extra: bool) -> dict:
    swap = {i for pair in ((1, 2), (4, 5)) if rng.random() < 0.5 for i in pair}
    gens = sorted(_COUNTERPART[i] if i in swap else i for i in subset)
    return {"kind": "verify", "gens": gens,
            "coeffs": [_rat(rng) for _ in gens],
            "extra": [_rat(rng), rng.randint(0, 2)] if extra else None}


def _binding_text(values: dict[str, str]) -> str:
    return ",".join(f"{k}={v}" for k, v in values.items())


# ---------------------------------------------------------------------------
# liepde-side helpers (imported lazily: the generators above need no liepde)
# ---------------------------------------------------------------------------

def _binding_of(values: dict[str, str]):
    from liepde.solver import Binding
    return Binding({k: Fraction(v) for k, v in values.items()})


def _combination(basis, gens, coeffs):
    field = None
    for i, c in zip(gens, coeffs):
        term = basis[i].scaled(Fraction(c))
        field = term if field is None else field.plus(term)
    return field


def _mixed(basis, mix):
    return [_combination(basis, range(len(row)), row) for row in mix]


def _verify_field(ctx, op):
    """The op's generator: a combination of the published basis, plus
    c*x^k d/dx when the op asks for a non-symmetry."""
    from liepde import expr as ex
    from liepde.prolong import VectorField
    field = _combination(ctx["basis"], op["gens"], op["coeffs"])
    if op["extra"]:
        c, k = op["extra"]
        xi_x = ex.rational(Fraction(c)) * ex.X ** k
        field = field.plus(VectorField(HPZ_VARS, "u", (ex.ZERO, xi_x, ex.ZERO), ex.ZERO))
    return field


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class Verify:
    """Symbolic residuals of rendered-and-parsed combinations of the basis."""

    name = "verify"
    trace_blocks = 2
    warmup = {"kind": "verify", "gens": list(range(6)), "coeffs": ["1"] * 6,
              "extra": None}

    def generate(self, rng, blocks: int = 24) -> dict:
        out = []
        for _ in range(blocks):
            extra = set(rng.sample(range(len(_VERIFY_SUBSETS)), 3))
            block = [_verify_op(rng, subset, i in extra)
                     for i, subset in enumerate(_VERIFY_SUBSETS)]
            rng.shuffle(block)
            out.append(block)
        return {"blocks": out}

    def setup(self, inputs):
        import liepde as lp
        return {"hpz": lp.make_hpz(), "basis": lp.known_basis()}

    def run_op(self, ctx, op, key) -> bool:
        from liepde import parser, prolong
        from liepde.prolong import VectorField
        field = _verify_field(ctx, op)
        texts = [parser.render(c) for c in field.coefficients()]
        parsed = VectorField(HPZ_VARS, "u", tuple(parser.parse(t) for t in texts[:-1]),
                             parser.parse(texts[-1]))
        out = parser.render(prolong.residual(parsed, ctx["hpz"]))
        if parsed.coefficients() != field.coefficients():
            return False
        return (out == "0") == (op["extra"] is None)


# ---------------------------------------------------------------------------
# discover
# ---------------------------------------------------------------------------

class Discover:
    """solve_determining on hpz, the reduced equations, heat and u_xx + c*x^2*u."""

    name = "discover"
    trace_blocks = 1
    warmup = {"kind": "reduced", "equation": REDUCED[0], "binding": REPORT_BINDING}
    # c = +q^2: known dimension 6, but the engine drops the imaginary
    # exponents (see ROADMAP direction 2); only discover-all includes them
    with_defect = False

    def generate(self, rng, blocks: int = 16) -> dict:
        out = []
        for _ in range(blocks):
            block = [{"kind": "hpz", "binding": _binding(rng, nonzero_s=True)}]
            for name in REDUCED * 2:
                block.append({"kind": "reduced", "equation": name,
                              "binding": _binding(rng)})
            block.append({"kind": "heat"})
            for _ in range(3):
                block.append({"kind": "cx2", "c": str(-rng.choice(_Q) ** 2)})
            block.append({"kind": "cx2", "c": str(-rng.choice(_NON_SQUARE)),
                          "refuse": True})
            if self.with_defect:
                for _ in range(2):
                    block.append({"kind": "cx2", "c": str(rng.choice(_Q) ** 2)})
            rng.shuffle(block)
            out.append(block)
        return {"blocks": out}

    def setup(self, inputs):
        import liepde as lp
        return {"hpz": lp.get_equation("hpz"), "heat": lp.get_equation("heat"),
                **{name: lp.get_equation(name) for name in REDUCED}}

    def run_op(self, ctx, op, key) -> bool:
        from liepde import expr as ex, solver
        from liepde.jet import EvolutionPDE
        from liepde.linalg import RootExtractionError
        kind = op["kind"]
        if kind == "cx2":
            rhs = ex.jet("u", "xx") + ex.rational(Fraction(op["c"])) * ex.X ** 2 * ex.U
            pde = EvolutionPDE(("t", "x"), "u", rhs)
            try:
                basis = solver.solve_determining(pde)
            except RootExtractionError:
                return bool(op.get("refuse"))
            return not op.get("refuse") and basis.dimension == SYMMETRY_DIMENSION
        if kind == "heat":
            return solver.solve_determining(ctx["heat"]).dimension == SYMMETRY_DIMENSION
        pde = ctx["hpz"] if kind == "hpz" else ctx[op["equation"]]
        basis = solver.solve_determining(pde, _binding_of(op["binding"]))
        if basis.dimension != SYMMETRY_DIMENSION:
            return False
        return kind == "hpz" or solver.profile_basis(basis).all_match


class DiscoverAll(Discover):
    """discover plus u_xx + q^2*x^2*u, which the seed engine gets wrong."""

    name = "discover-all"
    with_defect = True


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

class Classify:
    """structure_constants + classify under seeded changes of basis."""

    name = "classify"
    trace_blocks = 1
    warmup = {"kind": "symbolic", "subset": "full", "perm": list(range(6)),
              "scale": ["1"] * 6}

    def generate(self, rng, blocks: int = 16) -> dict:
        out = []
        for _ in range(blocks):
            block = []
            for subset, n in (("full", 6), ("w5", 5)):
                block.append({"kind": "bound", "subset": subset,
                              "binding": _binding(rng, nonzero_s=True),
                              "mix": _triangular(rng, n)})
                perm = list(range(n))
                rng.shuffle(perm)
                block.append({"kind": "symbolic", "subset": subset, "perm": perm,
                              "scale": [_rat(rng, 3, 3) for _ in range(n)]})
            for name in ("heat",) + REDUCED:
                block.append({"kind": "discovered", "equation": name,
                              "mix": _triangular(rng, SYMMETRY_DIMENSION)})
            rng.shuffle(block)
            out.append(block)
        return {"blocks": out}

    def setup(self, inputs):
        import liepde as lp
        binding = _binding_of(REPORT_BINDING)
        discovered = {"heat": lp.solve_determining(lp.make_heat()).fields}
        for name in REDUCED:
            discovered[name] = lp.solve_determining(lp.get_equation(name), binding).fields
        return {"basis": lp.known_basis(), "discovered": discovered}

    def run_op(self, ctx, op, key) -> bool:
        from liepde import algebra
        kind = op["kind"]
        if kind == "discovered":
            fields, expected = ctx["discovered"][op["equation"]], HEAT_NAME
        else:
            fields = ctx["basis"] if op["subset"] == "full" else ctx["basis"][1:]
            expected = FULL_NAME if op["subset"] == "full" else W5_NAME
        if kind == "bound":
            binding = _binding_of(op["binding"])
            fields = [binding.apply_field(f) for f in fields]
        if kind == "symbolic":
            fields = [fields[p].scaled(Fraction(c)) for p, c in zip(op["perm"], op["scale"])]
        else:
            fields = _mixed(fields, op["mix"])
        verdict = algebra.classify(algebra.structure_constants(fields))
        return verdict.name == expected


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

class Cli:
    """The README commands, each in a fresh ``python -m liepde.cli`` process."""

    name = "cli"
    trace_blocks = 1
    warmup = {"kind": "verify-paper"}

    def __init__(self, root: Path, tmp: Path):
        self.root = root
        self.tmp = tmp
        self.golden_path = root / "tests" / "golden" / "report.json"

    def generate(self, rng, blocks: int = 8) -> dict:
        out = []
        for _ in range(blocks):
            # one of each command, and two of each cheap command that takes
            # seeded arguments, so the median op is not set by one draw
            block = [{"kind": "verify-paper"}, {"kind": "find-heat"},
                     {"kind": "find-hpz", "binding": _binding(rng, nonzero_s=True)},
                     {"kind": "reduce", "generator": "time"}, {"kind": "report"}]
            for _ in range(2):
                subset = rng.choice(["full", "w5"])
                perm = list(range(6 if subset == "full" else 5))
                rng.shuffle(perm)
                block += [
                    {"kind": "verify-generator", "op": _verify_op(
                        rng, rng.choice(_VERIFY_SUBSETS), rng.random() < 0.3)},
                    {"kind": "find-reduced", "equation": rng.choice(REDUCED),
                     "binding": _binding(rng)},
                    {"kind": "reduce", "generator": rng.choice(
                        ["delta3", "delta4", "delta5", "delta6"])},
                    {"kind": "classify", "subset": subset, "perm": perm,
                     "scale": [_rat(rng, 3, 3) for _ in perm]},
                ]
            rng.shuffle(block)
            out.append(block)
        return {"blocks": out}

    def setup(self, inputs):
        """Command lines, basis files and expected facts for every op."""
        import liepde as lp
        from liepde.parser import render
        golden_bytes = self.golden_path.read_bytes()
        ctx = {"basis": lp.known_basis(), "golden_bytes": golden_bytes,
               "golden": json.loads(golden_bytes)}
        self.tmp.mkdir(parents=True, exist_ok=True)
        ops = [((b, i), op) for b, block in enumerate(inputs["blocks"])
               for i, op in enumerate(block)]
        ops.append(("warmup", self.warmup))
        commands = {}
        for key, op in ops:
            kind = op["kind"]
            if kind == "verify-paper":
                argv = ["verify", "--equation", "hpz", "--fixture", "paper"]
            elif kind == "verify-generator":
                field = _verify_field(ctx, op["op"])
                spec = "; ".join(f"{k}={render(c)}" for k, c in zip(
                    ("xi_t", "xi_x", "xi_y", "eta"), field.coefficients()))
                argv = ["verify", "--equation", "hpz", "--generator", spec]
            elif kind == "find-heat":
                argv = ["find", "--equation", "heat"]
            elif kind in ("find-reduced", "find-hpz"):
                name = op.get("equation", "hpz")
                argv = ["find", "--equation", name,
                        "--params", _binding_text(op["binding"])]
            elif kind == "reduce":
                argv = ["reduce", "--equation", "hpz", "--generator", op["generator"]]
            elif kind == "classify":
                path = self.tmp / f"basis-{key[0]}-{key[1]}.json"
                path.write_text(json.dumps(self._basis_doc(ctx["basis"], op)))
                argv = ["classify", "--basis", str(path)]
            else:
                argv = ["report"]
            commands[key] = argv + ["--format", "json"]
        ctx["commands"] = commands
        ctx["output_bytes"] = 0
        ctx["peak_rss_kb"] = 0
        return ctx

    @staticmethod
    def _basis_doc(basis, op) -> dict:
        from liepde.parser import render
        fields = basis if op["subset"] == "full" else basis[1:]
        gens = []
        for p, c in zip(op["perm"], op["scale"]):
            f = fields[p].scaled(Fraction(c))
            gens.append({k: render(v) for k, v in zip(
                ("xi_t", "xi_x", "xi_y", "eta"), f.coefficients())})
        return {"variables": list(HPZ_VARS), "dependent": "u", "generators": gens}

    def env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        return env

    def spawn(self, argv) -> tuple[int, bytes, int]:
        """Exit code, stdout and peak RSS (KiB) of one command.

        ``os.wait4`` reaps the child and gives its own rusage, so the peak
        RSS is that command's alone.  Output goes to a file, which needs no
        reader while the parent waits."""
        out_path = self.tmp / "stdout"
        with open(out_path, "wb") as out:
            proc = subprocess.Popen([sys.executable, "-m", "liepde.cli", *argv],
                                    cwd=self.root, env=self.env(), stdout=out,
                                    stderr=subprocess.DEVNULL)
            watchdog = threading.Timer(170, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out_path.read_bytes(), usage.ru_maxrss

    def run_in_process(self, ctx, op, key) -> bool:
        """The op's command through ``liepde.cli.main`` in this process."""
        from liepde import cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(ctx["commands"][key]))
        return self.check(ctx, op, code, out.getvalue().encode("utf-8"))

    def check(self, ctx, op, code: int, stdout: bytes) -> bool:
        """Exit code and output of one command against its known answer."""
        kind = op["kind"]
        if kind == "report":
            return code == 0 and stdout == ctx["golden_bytes"]
        doc = json.loads(stdout)
        golden = ctx["golden"]
        if kind == "verify-paper":
            return code == 0 and doc["all_ok"] and len(doc["generators"]) == 6
        if kind == "verify-generator":
            nonzero = op["op"]["extra"] is not None
            return code == (1 if nonzero else 0) and doc["all_ok"] is not nonzero
        if kind == "find-heat":
            return code == 0 and doc == golden["discovery"]["heat"]
        if kind in ("find-reduced", "find-hpz"):
            ok = (code == 0 and doc["dimension"] == SYMMETRY_DIMENSION
                  and all(doc["residual_checks"]))
            return ok and (kind == "find-hpz" or doc["profile"]["all_match"])
        if kind == "reduce":
            return code == 0 and doc == golden["reductions"][op["generator"]]
        expected = FULL_NAME if op["subset"] == "full" else W5_NAME
        return code == 0 and doc["name"] == expected

    def run_op(self, ctx, op, key) -> bool:
        """The op's command in a fresh process; its output bytes count
        towards ``ctx["output_bytes"]``, its RSS towards ``ctx["peak_rss_kb"]``."""
        code, stdout, rss_kb = self.spawn(ctx["commands"][key])
        ctx["output_bytes"] += len(stdout)
        ctx["peak_rss_kb"] = max(ctx["peak_rss_kb"], rss_kb)
        return self.check(ctx, op, code, stdout)
