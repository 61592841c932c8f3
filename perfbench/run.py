#!/usr/bin/env python3
"""clutterforge benchmark: run one workload (or all four), check its outputs, print metrics.

    python3 perfbench/run.py --workload sweep_ideal --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the package is imported from
``src/``. Each run repeats whole passes over the workload's operations until
``--seconds`` have passed and at least four passes are done (``cli_oneshot``:
also 100 invocations). Every pass runs in a fresh child
process, so no pass finds a cache warmed by an earlier one. The first pass's
outputs are checked by the independent checkers in ``checks.py``; every
later pass must give the same outputs. With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run. The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
SETUP_SAMPLES = 6  # set-up probes per run, besides the pass children's own set-up
MIN_PASSES = 4  # whole passes per run: a median that sets the slowest and fastest aside
MIN_OPS = {"cli_oneshot": 100}  # invocations per run: ten beyond the 90th percentile
STOP_AFTER_S = 120.0  # start no new pass after this, whatever the minimums
PASS_TIMEOUT_S = 150

sys.path.insert(0, HERE)
import workloads  # noqa: E402  (the benchmark's own modules sit beside this file)


def tail_percentile(values, p: float) -> float:
    """Nearest-rank percentile, when at least ten samples lie beyond it; else the median.

    A percentile with fewer samples beyond it is no tail: over a run's four
    to six passes it would be the slowest one.
    """
    ordered = sorted(values)
    if len(ordered) * (100 - p) < 10 * 100:
        return statistics.median(ordered)
    k = max(0, -(-len(ordered) * p // 100) - 1)
    return ordered[int(k)]


def timed_ready(argv: list[str], env=None, timeout: float = 60) -> tuple[float, str]:
    """Run a process; returns the seconds until it printed ``ready`` and the rest of its output."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"{argv[2:]} exited with code {code}")
    return elapsed, rest


# -- one pass, in its own process ---------------------------------------------

def run_pass(wl, ops, tracer) -> tuple[dict, list]:
    """Time every operation of one pass; a failed operation is counted and has output None."""
    rec = {"latencies": [], "failed": 0}
    outputs = []
    t_pass = time.perf_counter()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception:  # an operation that fails is counted, not fatal
            print(f"operation {op.label} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            out = None
            rec["failed"] += 1
        rec["latencies"].append(time.perf_counter() - t0)
        outputs.append(out)
    if tracer is not None:
        tracer.op = -1
    rec["time"] = time.perf_counter() - t_pass
    return rec, outputs


def check(wl, ops, outputs) -> list[str]:
    """Independent checks on one pass's outputs."""
    import checks

    try:
        wl.check_pass(ops, outputs)
    except checks.CheckFailure as exc:
        return [str(exc)]
    except Exception:  # malformed output: report it as a wrong result
        return [traceback.format_exc()]
    return []


def pass_child(args) -> int:
    """Set up, run one timed pass, and print its record as one JSON line."""
    sys.path.insert(0, SRC)
    wl = workloads.make(args.workload, args.seed, args.workdir, SRC)
    import clutterforge

    if not os.path.abspath(clutterforge.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported {clutterforge.__file__}, not the checkout's package")
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        wl.traced = True
    ops = wl.ops()
    print("ready", flush=True)
    rec, outputs = run_pass(wl, ops, tracer)
    rec["ops"] = len(ops)
    # peak memory of the work itself, read before the checks add their own
    rec["rss_kb"] = (wl.peak_kb if isinstance(wl, workloads.CliWorkload) and not args.trace
                     else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        tracer.uninstall()
        rec["layers"] = tracer.layer_metrics(set(range(len(ops))))
        if args.check:
            path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.tsv.gz")
            print(f"{tracer.dump(path)} spans of the first pass written to {path}", file=sys.stderr)
    canonical = [None if out is None else wl.canonical_output(out) for out in outputs]
    rec["digest"] = hashlib.sha256(json.dumps(canonical, sort_keys=True).encode()).hexdigest()
    rec["problems"] = check(wl, ops, outputs) if args.check else []
    print(json.dumps(rec))
    return 0


# -- a run: passes in fresh children, then metrics --------------------------------

def measure(me: list[str], args, min_ops: int) -> list[dict]:
    """Passes, each in a fresh child, until the time, pass and operation minimums are all met.

    Each pass also records its child's set-up time (start to first operation).
    Pass k runs with string-hash seed k, and so do the ``clutterforge``
    processes it starts: set iteration order, and with it the search order
    and the time of a search, depends on that seed, so every run covers the
    same few orders instead of drawing new ones.
    """
    passes = []
    start = time.perf_counter()
    while True:
        argv = me + ["--trace", str(args.trace), "--pass-child"] + ([] if passes else ["--check"])
        env = dict(os.environ, PYTHONHASHSEED=str(len(passes)))
        setup, out = timed_ready(argv, env, timeout=PASS_TIMEOUT_S)
        passes.append(dict(json.loads(out.strip().splitlines()[-1]), setup=setup))
        elapsed = time.perf_counter() - start
        if elapsed >= STOP_AFTER_S or (elapsed >= args.seconds and len(passes) >= MIN_PASSES
                                       and sum(rec["ops"] for rec in passes) >= min_ops):
            return passes


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(workload: str, passes, setup: list[float], spec) -> dict:
    if workload == "cli_oneshot":  # one invocation = one fresh clutterforge process
        latencies = [t for rec in passes for t in rec["latencies"]]
    else:  # in-process workloads: the caller waits on a whole pass
        latencies = [rec["time"] for rec in passes]
    values = {
        "pass_s": statistics.median(rec["time"] for rec in passes),
        "invocation_p50_ms": 1000 * statistics.median(latencies),
        "invocation_p90_ms": 1000 * tail_percentile(latencies, 90),
        "setup_s": statistics.median(setup + [rec["setup"] for rec in passes]),
        "peak_rss_mb": max(rec["rss_kb"] for rec in passes) / 1024,
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def per_layer(passes, import_s: list[float], spec) -> dict:
    per_pass = [rec["layers"] for rec in passes]
    keys = set().union(*per_pass)
    values = {k: statistics.median_low(p.get(k, 0) for p in per_pass) for k in keys}
    points = values.get("polyhedral.is_ideal.extreme_points", 0)
    values["polyhedral.is_ideal.us_per_point"] = (
        1e6 * values.get("polyhedral.is_ideal.s", 0) / points if points else 0.0)
    values["cli.import_s"] = statistics.median(import_s)
    values["trace.pass_s"] = statistics.median(rec["time"] for rec in passes)
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]}


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "clutterforge", "__init__.py")):
        print(f"error: no clutterforge package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.pass_child:
        return pass_child(args)
    if args.setup_probe:
        sys.path.insert(0, SRC)
        workloads.make(args.workload, args.seed, args.workdir, SRC)
        print("ready", flush=True)
        return 0
    spec = benchmark_spec()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        env = dict(os.environ, PYTHONPATH=SRC)
        me = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
              "--workdir", workdir]
        setup = [] if args.trace else [timed_ready(me + ["--setup-probe"])[0] for _ in range(SETUP_SAMPLES)]
        import_s = [timed_ready([sys.executable, "-c", "import clutterforge.cli; print('ready')"], env)[0]
                    for _ in range(SETUP_SAMPLES)] if args.trace else []
        passes = measure(me, args, 0 if args.trace else MIN_OPS.get(args.workload, 0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = per_layer(passes, import_s, spec) if args.trace else end_to_end(args.workload, passes, setup, spec)
    problems = list(passes[0]["problems"])
    problems += [f"pass {k} gave other outputs than pass 1"
                 for k, rec in enumerate(passes[1:], start=2) if rec["digest"] != passes[0]["digest"]]
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    attempted = sum(rec["ops"] for rec in passes)
    failed = sum(rec["failed"] for rec in passes)
    print(f"{args.workload}: {len(passes)} passes, {attempted} operations attempted, {failed} failed, "
          f"outputs {'correct' if not problems else 'WRONG'}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one summary line per workload, then a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="draws the cli_oneshot instances (default 1)")
    parser.add_argument("--seconds", type=float, default=10, help="minimum measured time per run (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pass-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--check", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
