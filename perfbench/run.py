"""leavitt benchmark: two seeded workloads driven through the public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-both --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another
    python3 perfbench/run.py --record                # rewrite perfbench/expected.json

One process, one thread, closed loop: the single caller sends the next
operation only after the previous one returns.  The loop runs whole passes
over the workload's seeded operations (see ``workloads.py``) until
``--seconds`` have passed, and checks every output.  With ``--trace 0`` it
prints the end-to-end metrics, taking each op's fastest run; with
``--trace 1`` it runs untraced for half the time, then wraps each layer's
public functions (see ``spans.py``), runs the set-up and one pass traced,
and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads as W
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = HERE / "expected.json"
SETUP_REPS = 9  # set-up runs at least this often in a run
SETUP_MIN_S = 3.0  # and until its runs add up to this many seconds


WORKLOADS = {
    "verify-both": lambda lv, seed, exp: W.build_verify(lv, seed, exp["verify"]),
    "normalize": lambda lv, seed, exp: W.build_normalize(lv, seed, exp["normalize"]),
}


def fresh_import():
    """Import leavitt from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "leavitt" or n.startswith("leavitt.")]:
        del sys.modules[name]
    lv = importlib.import_module("leavitt")
    importlib.import_module("leavitt.examples")
    if Path(lv.__file__).resolve().parent != SRC / "leavitt":
        raise SystemExit(f"error: imported leavitt from {lv.__file__}, not from {SRC}")
    return lv


def source_hash(*dirs) -> str:
    """Digest of the Python files in dirs (default: the program and the benchmark)."""
    h = hashlib.sha256()
    for path in sorted(p for d in dirs or (SRC / "leavitt", HERE) for p in d.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check(op, output):
    """None if the output passes the op's check, else the reason."""
    if isinstance(output, Exception):
        return f"raised {type(output).__name__}: {output}"
    try:
        return op.check(output)
    except Exception as exc:  # a malformed output fails its check
        return f"check raised {type(exc).__name__}: {exc}"


def call(op):
    """Run one op; returns (latency, output or the exception it raised)."""
    start = perf_counter()
    try:
        output = op.call()
    except Exception as exc:  # a raising operation is a failed one
        output = exc
    return perf_counter() - start, output


def run_loop(ops, seconds, between):
    """Passes over ops until `seconds` of pass time have gone by; `between()`
    runs after each pass, outside the timed passes.  Returns the latencies
    of each op, one per pass, the failures and the number of passes."""
    latencies = [[] for _ in ops]
    failures, elapsed, passes = [], 0.0, 0
    while passes == 0 or elapsed < seconds:
        start = perf_counter()
        for op, lat in zip(ops, latencies):
            latency, output = call(op)
            lat.append(latency)
            reason = check(op, output)
            if reason:
                failures.append(f"{op.label}: {reason}")
        elapsed += perf_counter() - start
        passes += 1
        between()
    return latencies, failures, passes


def tail(xs, q=0.9, beyond=10):
    """(percentile, value) of the q-quantile by nearest rank, or of the
    highest percentile that still has `beyond` samples above it."""
    xs = sorted(xs)
    rank = min(math.ceil(q * len(xs)), max(1, len(xs) - beyond))
    return 100.0 * rank / len(xs), xs[rank - 1]


def coeff_bits(obj) -> int:
    """Largest numerator or denominator bit length among the scalars of the
    algebra elements found in obj (elements, certificates, containers)."""
    if isinstance(obj, (list, tuple)):
        return max((coeff_bits(x) for x in obj), default=0)
    if hasattr(obj, "a_inv"):  # a certificate
        return coeff_bits([obj.a, obj.a_inv, obj.b, obj.b_inv])
    best = 0
    for c in getattr(obj, "terms", {}).values():
        for q in getattr(c, "coeffs", (c,)):
            best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best


def setup(build, seed, expected, times):
    """Import, input generation, graph construction and (verify workloads)
    certificate discovery, timed and appended to `times`."""
    gc.collect()
    start = perf_counter()
    lv = fresh_import()
    inputs = build(lv, seed, expected)
    times.append(perf_counter() - start)
    return lv, inputs


def measure(args, expected):
    """The closed loop.  Set-up runs once before it and again between
    passes, at least SETUP_REPS times and until its runs add up to
    SETUP_MIN_S, so that its repetitions are spread over the run.  The
    latency of an op is the fastest of its runs, one per pass: on a host
    shared with other processes, a burst of their load slows some passes
    but rarely every one."""
    build = WORKLOADS[args.workload]
    times = []
    lv, inputs = setup(build, args.seed, expected, times)
    failures = [f"set-up: {r}" for r in inputs.setup_failures]

    def more_setup():
        return len(times) < SETUP_REPS or sum(times) < SETUP_MIN_S

    def between():
        if more_setup():
            setup(build, args.seed, expected, times)

    latencies, fails, passes = run_loop(inputs.ops, args.seconds, between)
    while more_setup():
        between()
    failures += fails
    attempted = len(inputs.ops) * passes
    best = [min(lat) for lat in latencies]
    q, p90 = tail(best)
    print(f"workload {args.workload}  seed {args.seed}  {passes} passes of {len(best)} ops  "
          f"set-up median of {len(times)}: {statistics.median(times):.4f} s")
    print(f"op latency: fastest of {passes} runs; op_p90_ms is the p{q:.4g} of {len(best)} ops "
          f"({len(best) - round(q * len(best) / 100)} beyond it)")
    print(f"fail_ratio {len(failures) / attempted:g} ({len(failures)} of {attempted} ops failed)")
    metrics = {
        "ops_per_s": (len(best) / sum(best), "1/s"),
        "op_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, attempted, failures, True


def measure_traced(args, expected):
    """Untraced passes for half the time (which also fill the program's
    caches), then a traced set-up, then one pass in which each op runs
    untraced and traced back to back, so the overhead compares like with
    like.  Outputs are checked after the wrappers are gone."""
    build = WORKLOADS[args.workload]
    lv, inputs = setup(build, args.seed, expected, [])
    failures = [f"set-up: {r}" for r in inputs.setup_failures]
    _, fails, passes = run_loop(inputs.ops, args.seconds / 2, lambda: None)
    failures += fails
    tracer = Tracer()
    tracer.install(lv)
    try:
        traced_inputs = build(lv, args.seed, expected)
    finally:
        tracer.uninstall()
    plain, traced, outputs = [], [], []
    for i, op in enumerate(inputs.ops):
        if i % 2:  # alternate which run goes first, so neither gains from the other
            plain.append(call(op)[0])
        tracer.install(lv)
        try:
            latency, output = call(op)
        finally:
            tracer.uninstall()
        traced.append(latency)
        outputs.append(output)
        if not i % 2:
            plain.append(call(op)[0])
    for op, output in zip(inputs.ops, outputs):
        reason = check(op, output)
        if reason:
            failures.append(f"traced {op.label}: {reason}")
    print(f"workload {args.workload}  seed {args.seed}  {passes} untraced passes of {len(inputs.ops)} ops, "
          f"then traced set-up and one traced pass: {tracer.spans} spans ({tracer.dropped} not kept)")

    layer = tracer.layer_metrics()
    layer["scalars.coeff_max_bits"] = coeff_bits(
        [o for o in outputs if not isinstance(o, Exception)] + traced_inputs.products)
    layer["trace.ops"] = len(traced)
    layer["trace.overhead"] = sum(traced) / sum(plain)
    consistent = check_counters(args, layer)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{args.workload}.json",
                {"workload": args.workload, "seed": args.seed, "source": source_hash()})
    metrics = {name: (layer[name], unit) for name, unit in layer_units()}
    return metrics, len(inputs.ops) * (passes + 2), failures, consistent


def layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def check_counters(args, layer) -> bool:
    """Work counts must repeat exactly for the same code and seed: compare
    with the counts an earlier run of this source left, or record them."""
    counts = {k: v for k, v in layer.items() if isinstance(v, int)}
    path = OUT / "counters" / f"{args.workload}-seed{args.seed}-{source_hash()}.json"
    if path.exists():
        before = json.loads(path.read_text())
        diff = sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
        if diff:
            print(f"work counters differ from an earlier run of the same code and seed: {diff}")
            return False
        print(f"work counters repeat exactly ({len(counts)} counters, {path.name})")
        return True
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True, indent=1))
    print(f"work counters recorded for later runs ({path.name})")
    return True


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"  {line}")
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def work_units(lv):
    """fn -> (fn(), its work count): traced calls plus monomial pairs tried,
    a count that ranks pool entries by cost without timing them."""
    def work(fn):
        tracer = Tracer()
        tracer.install(lv)
        try:
            output = fn()
        finally:
            tracer.uninstall()
        return output, tracer.spans + tracer.counters["algebra.mul.pairs_tried"]

    return work


def record() -> int:
    lv = fresh_import()
    work = work_units(lv)
    data = {
        "program_sha256": source_hash(SRC / "leavitt"),
        "verify": W.record_verify(lv, print, work),
        "normalize": W.record_normalize(lv, print, work),
    }
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record output digests and pool rankings into expected.json")
    args = parser.parse_args(argv)

    if not (SRC / "leavitt" / "__init__.py").is_file():
        print(f"error: no leavitt package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record:
        return record()
    if not EXPECTED.is_file():
        print(f"error: {EXPECTED} is missing; run with --record first", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())
    if args.workload == "all":
        return run_all(args)

    run = measure_traced if args.trace else measure
    metrics, attempted, failures, consistent = run(args, expected)
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures and consistent,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
