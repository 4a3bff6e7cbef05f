"""liepde benchmark: seeded workloads, end-to-end metrics, a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 40 --trace 0

Workloads: classify and cli (see BENCHMARK.json), plus verify, discover
and discover-all (discover with the equations the engine is known to get
wrong), which run the same way but are not part of BENCHMARK.json.
Load is a closed loop with one client: one process, one thread, the next
op starts when the previous one has finished.

``--trace 0`` measures end to end, untraced, for ``--seconds`` seconds in
whole blocks, and prints ops_per_s, op_p50_s, op_p90_s (when at least 10
samples lie beyond it), fail_frac, setup_s, peak_rss_mb and, for cli,
report_s.  ``--trace 1`` runs a fixed number of blocks twice, in two
child processes with different PYTHONHASHSEED, each op once untraced and
once traced; it prints every per-layer metric and the tracing overhead.
A count that does not repeat between the two children makes the run
incorrect.

Every line but the last is for people; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(machine, Python, nproc, commit, source and input digests, every metric)
goes to ``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 7
TRACE_HASH_SEEDS = ("0", "1")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
MIN_BEYOND = 10

UNITS = {"ops_per_s": "1/s", "peak_rss_mb": "MB", "fail_frac": "ratio",
         "trace.overhead_frac": "ratio", "solver.exponent_yield": "ratio"}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict,
                kind: str) -> str:
    """The last line: exactly the metrics BENCHMARK.json lists under ``kind``."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {m["name"]: {"value": metrics[m["name"]],
                                               "unit": m["unit"]}
                                   for m in doc[kind]}})


def unit_of(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(values, p: float) -> float | None:
    """Nearest-rank p-th percentile, or None when fewer than MIN_BEYOND
    samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100))
    return ordered[rank - 1] if len(ordered) - rank >= MIN_BEYOND else None


def tail_percentile(values) -> tuple[float, float] | None:
    """(p, value) for the highest percentile in TAIL_PERCENTILES with at
    least MIN_BEYOND samples beyond it, or None when none qualifies."""
    for p in TAIL_PERCENTILES:
        value = percentile(values, p)
        if value is not None:
            return p, value
    return None


# ---------------------------------------------------------------------------
# workloads, inputs, the op loop
# ---------------------------------------------------------------------------

def make_workload(name: str):
    import workloads as wl
    if name == "cli":
        return wl.Cli(ROOT, ROOT / ".bench_tmp" / f"cli-{os.getpid()}")
    table = {"verify": wl.Verify, "discover": wl.Discover,
             "discover-all": wl.DiscoverAll, "classify": wl.Classify}
    return table[name]()


def workload_names() -> tuple[str, ...]:
    return ("verify", "discover", "classify", "cli", "discover-all")


def make_inputs(workload, seed: int) -> dict:
    return workload.generate(random.Random(seed))


def inputs_digest(inputs) -> str:
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Tally:
    """Attempted and failed ops; a failure never stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, fn, *args) -> bool:
        self.attempted += 1
        try:
            ok = fn(*args)
        except Exception as err:      # an unexpected exception is a failed op
            ok = False
            if len(self.errors) < 5:
                self.errors.append(f"{type(err).__name__}: {err}")
        if not ok:
            self.failed += 1
        return ok


def timed_blocks(workload, ctx, blocks, seconds: float, tally: Tally):
    """Closed loop over whole blocks until ``seconds`` have passed.

    Returns per-op wall times, per-op kinds and per-block wall times."""
    times, kinds, block_times = [], [], []
    start = time.perf_counter()
    while not block_times or time.perf_counter() - start < seconds:
        index = len(block_times) % len(blocks)
        block_start = time.perf_counter()
        for i, op in enumerate(blocks[index]):
            t0 = time.perf_counter()
            tally.run(workload.run_op, ctx, op, (index, i))
            times.append(time.perf_counter() - t0)
            kinds.append(op["kind"])
        block_times.append(time.perf_counter() - block_start)
    return times, kinds, block_times


def prepare(name: str, seed: int):
    """Everything before the first timed op: inputs, set-up, warm-up.

    The warm-up op is fixed, so its cost does not depend on the seed."""
    workload = make_workload(name)
    inputs = make_inputs(workload, seed)
    ctx = workload.setup(inputs)
    if not workload.run_op(ctx, workload.warmup, "warmup"):
        raise RuntimeError("warm-up op gave a wrong answer")
    return workload, inputs, ctx


def cleanup(workload):
    tmp = getattr(workload, "tmp", None)
    if tmp is not None:
        shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# record keeping
# ---------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "liepde").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def meta(args, digest: str) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": digest,
        "machine": platform.machine(), "processor": platform.processor(),
        "platform": platform.platform(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": commit(),
        "source_sha256": source_digest(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }


def write_record(args, record: dict):
    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def show(name: str, value, note: str = ""):
    print(f"  {name:<28} {value!r:>24} {unit_of(name):<6} {note}".rstrip())


def child_command(args, *extra) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def setup_probe(args) -> int:
    """Child: set up as the timed run does, then exit."""
    workload, inputs, ctx = prepare(args.workload, args.seed)
    cleanup(workload)
    return 0


def measure_setup(args) -> list[float]:
    """Wall time of SETUP_PROBES fresh processes that each import, generate
    inputs, build the fixed objects and warm up."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(child_command(args, "--setup-probe"), check=True,
                       stdout=subprocess.DEVNULL, timeout=170)
        samples.append(time.perf_counter() - t0)
    return samples


def end_to_end(args) -> int:
    setup_samples = measure_setup(args)
    workload, inputs, ctx = prepare(args.workload, args.seed)
    digest = inputs_digest(inputs)
    tally = Tally()
    try:
        times, kinds, block_times = timed_blocks(workload, ctx, inputs["blocks"],
                                                 args.seconds, tally)
    finally:
        cleanup(workload)
    if args.workload == "cli":
        rss_kb = ctx["peak_rss_kb"]
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    elapsed = sum(block_times)
    # every block holds the same mix of ops, so the median block is a
    # throughput sample that a short stall elsewhere in the run cannot move
    metrics = {
        "ops_per_s": len(times) / len(block_times) / statistics.median(block_times),
        "op_p50_s": statistics.median(times),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": rss_kb / 1024,
    }
    extra = {"fail_frac": tally.failed / tally.attempted,
             "setup_samples_s": setup_samples, "elapsed_s": elapsed,
             "block_s": block_times, "ops": len(times), "errors": tally.errors}
    p90 = percentile(times, 90.0)
    if p90 is not None:
        extra["op_p90_s"] = p90
    tail = tail_percentile(times)
    if tail is not None:
        extra["op_tail"] = {"percentile": tail[0], "value_s": tail[1]}
    if args.workload == "cli":
        reports = [t for t, k in zip(times, kinds) if k == "report"]
        extra["report_s"] = statistics.median(reports)
        extra["report_samples"] = len(reports)
    info = meta(args, digest)
    print(f"liepde benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(times)} ops in {len(block_times)} blocks, {elapsed:.2f} s, "
          f"closed loop, 1 client")
    print(f"  inputs sha256 {digest}")
    print(f"  python {info['python']} on {info['machine']}, nproc {info['nproc']}, "
          f"commit {info['commit']}")
    show("ops_per_s", metrics["ops_per_s"], f"ops per block / median of "
         f"{len(block_times)} block times")
    show("op_p50_s", metrics["op_p50_s"], f"median of {len(times)} ops")
    if p90 is not None:
        show("op_p90_s", p90, f"{len(times)} samples")
    else:
        print(f"  {'op_p90_s':<28} omitted: {len(times)} samples, fewer than "
              f"{MIN_BEYOND} beyond p90")
    if tail is not None and tail[0] > 90.0:
        show(f"op_p{tail[0]:g}_s", tail[1], f"{len(times)} samples")
    show("fail_frac", extra["fail_frac"], f"{tally.failed} of {tally.attempted} ops")
    show("setup_s", metrics["setup_s"], f"median of {SETUP_PROBES} fresh processes")
    show("peak_rss_mb", metrics["peak_rss_mb"],
         "largest cli child process" if args.workload == "cli" else "benchmark process")
    if args.workload == "cli":
        show("report_s", extra["report_s"], f"median of {len(reports)} reports")
    for err in tally.errors:
        print(f"  failure: {err}")
    write_record(args, {"meta": info, "metrics": metrics, "extra": extra,
                        "attempted": tally.attempted, "failed": tally.failed})
    print(result_line(tally.failed == 0, tally.attempted, tally.failed, metrics,
                      "end_to_end"))
    return 0


def trace_child(args) -> int:
    """Child: each op of the first trace blocks once untraced and once traced,
    alternating which goes first; prints the per-layer numbers as JSON.

    cli ops also run once in a fresh process, untimed by the tracer; their
    traced and untraced runs call ``liepde.cli.main`` in process."""
    import tracing
    workload, inputs, ctx = prepare(args.workload, args.seed)
    is_cli = args.workload == "cli"
    run_op = workload.run_in_process if is_cli else workload.run_op
    tracer = tracing.Tracer()
    tally = Tally()
    plain_s = traced_s = subprocess_s = 0.0
    report_ops: set[int] = set()
    if is_cli:
        ctx["output_bytes"] = 0      # not the warm-up's
    n = 0
    try:
        for b, block in enumerate(inputs["blocks"][:workload.trace_blocks]):
            for i, op in enumerate(block):
                if is_cli:
                    t0 = time.perf_counter()
                    tally.run(workload.run_op, ctx, op, (b, i))
                    subprocess_s += time.perf_counter() - t0
                    if op["kind"] == "report":
                        report_ops.add(n)
                for traced in ((False, True) if n % 2 == 0 else (True, False)):
                    restore = tracing.install(tracer) if traced else None
                    tracer.op = n
                    t0 = time.perf_counter()
                    try:
                        tally.run(run_op, ctx, op, (b, i))
                    finally:
                        dt = time.perf_counter() - t0
                        if restore is not None:
                            restore()
                    if traced:
                        traced_s += dt
                    else:
                        plain_s += dt
                n += 1
    finally:
        cleanup(workload)
    metrics = tracing.layer_metrics(tracer)
    report_spans = [s for s in tracer.spans if s[4] in report_ops]
    metrics["cli.report_solves"] = tracing.call_count(report_spans, ["solver.solve"])
    metrics["cli.report_residuals"] = tracing.call_count(report_spans, ["prolong.residual"])
    metrics["cli.output_bytes"] = ctx.get("output_bytes", 0)
    if is_cli:
        # wall of each command in a fresh process minus the same command's
        # untraced in-process main: interpreter start, import, cold caches
        metrics["cli.startup_s"] = subprocess_s - plain_s
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    print(json.dumps({"attempted": tally.attempted, "failed": tally.failed,
                      "errors": tally.errors, "ops": n, "plain_s": plain_s,
                      "traced_s": traced_s, "spans": len(tracer.spans),
                      "metrics": metrics}))
    return 0


def unstable_counts(first: dict, second: dict) -> list[str]:
    """Counts that differ between two traced children."""
    return sorted(k for k in first
                  if unit_of(k) == "count" and first[k] != second.get(k))


def traced(args) -> int:
    workload = make_workload(args.workload)
    digest = inputs_digest(make_inputs(workload, args.seed))
    results = []
    for hash_seed in TRACE_HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(child_command(args, "--trace-child"), env=env,
                              capture_output=True, text=True, timeout=175)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"traced child with PYTHONHASHSEED={hash_seed} failed")
        results.append(last_json_line(proc.stdout))
    first, second = results[0]["metrics"], results[1]["metrics"]
    unstable = unstable_counts(first, second)
    metrics = dict(first)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    info = meta(args, digest)
    print(f"liepde benchmark (traced): workload {args.workload}, seed {args.seed}, "
          f"{results[0]['ops']} ops x 2 (untraced, traced) in each of "
          f"{len(results)} processes")
    print(f"  inputs sha256 {digest}")
    print(f"  python {info['python']} on {info['machine']}, nproc {info['nproc']}, "
          f"commit {info['commit']}")
    print(f"  tracing overhead {metrics['trace.overhead_frac']:+.3f} "
          f"(traced {results[0]['traced_s']:.3f} s vs untraced "
          f"{results[0]['plain_s']:.3f} s, same ops)")
    for name in sorted(metrics):
        show(name, metrics[name])
    for name in unstable:
        print(f"  UNSTABLE count {name}: {first[name]} with PYTHONHASHSEED="
              f"{TRACE_HASH_SEEDS[0]}, {second.get(name)} with {TRACE_HASH_SEEDS[1]}")
    for r in results:
        for err in r["errors"]:
            print(f"  failure: {err}")
    write_record(args, {"meta": info, "metrics": metrics, "unstable_counts": unstable,
                        "children": results, "attempted": attempted, "failed": failed})
    # a count may back a claim only if it repeats exactly
    print(result_line(failed == 0 and not unstable, attempted, failed, metrics,
                      "per_layer"))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names())
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--trace-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "liepde" / "__init__.py").is_file():
        print(f"error: no liepde sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args)
    if args.trace_child:
        return trace_child(args)
    return traced(args) if args.trace else end_to_end(args)


if __name__ == "__main__":
    sys.exit(main())
