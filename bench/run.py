#!/usr/bin/env python3
"""The aplift benchmark: one closed-loop client issuing ``aplift`` ops in-process.

    python3 bench/run.py --workload wide-window --seed 1 --seconds 15 --trace 0

Run from the repository root. ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` wraps each layer's public functions and reports per-layer
self times and work counters instead. The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from hashlib import sha256
from time import perf_counter

import harness
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPS = 5  # set-up runs per benchmark run; setup_s is their median
MIN_PASSES = 3  # each op's latency is its fastest run over at least this many passes
COLD_PER_PASS = 2  # fresh-process runs of each cold op after every pass


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "APLIFT_BUDGET"}
    env["PYTHONPATH"] = SRC
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def _src_digest() -> str:
    """Digest of the package sources, which identifies the code measured
    even in a checkout without git metadata."""
    h = sha256()
    pkg = os.path.join(SRC, "aplift")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _setup(name, seed, workdir, run_command):
    """Generate inputs, write files, build the verify corpus, warm up."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.chdir(workdir)
    plan = workloads.generate(name, seed)
    plan.write_files(workdir)
    runner = harness.Runner(run_command, workdir)
    harness.build_corpus(plan, runner)
    harness.warm_up(plan, runner)
    return plan, runner


def _pass(runner, ops, times):
    for op in ops:
        times.setdefault(op.id, []).append(runner.run(op))


def _fresh(env, code: str = "import aplift") -> float:
    """Wall time of a fresh interpreter that runs `code` and exits."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    return perf_counter() - t0


def _import_cost(env) -> float:
    """Fresh-process ``import aplift`` minus a bare interpreter, median of 5."""
    return statistics.median(_fresh(env) - _fresh(env, "pass") for _ in range(5))


def main(argv=None) -> int:
    args = _args(argv)
    os.environ.pop("APLIFT_BUDGET", None)
    if not os.path.isfile(os.path.join(SRC, "aplift", "cli.py")):
        print(f"error: no aplift sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import aplift.cli
    from aplift.certificates import verify_certificate

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    rundir = os.path.join(WORK, f"run-{os.getpid()}")
    env = _child_env()
    try:
        # looked up on every call, so the traced run's wrapper is seen
        def run_command(argv):
            return aplift.cli.run_command(argv)

        return _measure(args, rundir, env, run_command, verify_certificate)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(rundir, ignore_errors=True)


def _measure(args, rundir, env, run_command, verify_certificate) -> int:
    # one set-up = a fresh process importing aplift, then input generation,
    # file writing, the verify corpus and warm-up in this process
    def set_up(name):
        start = _fresh(env)
        t0 = perf_counter()
        made = _setup(args.workload, args.seed, os.path.join(rundir, name), run_command)
        setups.append(start + perf_counter() - t0)
        return made

    setups = []
    plan, runner = set_up("main")
    times, cold, passes, traced = {}, {}, 0, []
    cold_ops = [op for op in plan.ops if op.id in plan.cold]
    t_start = perf_counter()
    if not args.trace:
        while True:
            _pass(runner, plan.ops, times)
            passes += 1
            # cold runs and repeat set-ups are spread over the run like the
            # passes, so that they see the same host conditions
            for op in cold_ops * COLD_PER_PASS:
                cold.setdefault(op.id, []).append(runner.run_cold(op, env))
            if len(setups) < SETUP_REPS:
                set_up(f"rep{len(setups)}")
                os.chdir(runner.workdir)
                shutil.rmtree(os.path.join(rundir, f"rep{len(setups) - 1}"))
            if (perf_counter() - t_start >= args.seconds and passes >= MIN_PASSES
                    and len(setups) == SETUP_REPS):
                break
    else:
        # alternate an untraced and a traced pass; the overhead is the
        # difference of the summed best op times of the two kinds
        traced_times = {}
        while True:
            _pass(runner, plan.ops, times)
            rec = spans.Recorder()
            installed = spans.Installed(rec)
            try:
                for i, op in enumerate(plan.ops):
                    rec.op = i
                    traced_times.setdefault(op.id, []).append(runner.run(op))
            finally:
                installed.remove()
            selfs = spans.by_name(spans.self_times(rec.spans))
            wall = sum(v[-1] for v in traced_times.values())
            traced.append((dict(rec.counts), selfs, rec.spans, wall))
            passes += 1
            if perf_counter() - t_start >= args.seconds:
                break

    attempted, failed, msgs = harness.check(plan.sources + plan.ops, runner.outcomes,
                                            verify_certificate)
    if traced and any(t[0] != traced[0][0] for t in traced):
        msgs.append("work counters differ between traced passes")
    for m in msgs:
        print("FAIL", m)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "cpu": _cpu_model(), "nproc": os.cpu_count(),
        "commit": _commit(), "src_sha256": _src_digest(),
        "ops_per_pass": len(plan.ops), "corpus_ops": len(plan.sources), "passes": passes,
        "timed_runs": passes * len(plan.ops) * (2 if args.trace else 1),
        "cold_ops": list(plan.cold), "cold_runs": sum(map(len, cold.values())),
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "setup_runs_s": setups, "clients": 1, "loop": "closed",
    }
    print("run-record", json.dumps(record, sort_keys=True))

    if not args.trace:
        # The host's speed swings by up to 1.5x within seconds, so each op's
        # latency is its fastest run in this run (best of `passes`); the
        # percentiles are taken over the ops of the workload.
        best = [min(v) for v in times.values()]
        metrics = {
            "ops_per_s": (len(best) / sum(best), "ops/s"),
            "op_p50_ms": (statistics.median(best) * 1e3, "ms"),
            "op_p90_ms": (statistics.quantiles(best, n=10)[8] * 1e3, "ms"),
            "pass_ratio": ((attempted - failed) / attempted if attempted else 0.0, "ratio"),
            "cold_op_ms": (statistics.median(min(v) for v in cold.values()) * 1e3, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"{len(best)} ops, each timed as the best of {passes} passes;"
              f" op_p50_ms and op_p90_ms are over those {len(best)} samples")
    else:
        overhead = sum(map(min, traced_times.values())) - sum(map(min, times.values()))
        metrics = _layer_report(args, traced, overhead, env, record)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    result = {
        "correct": failed == 0 and not msgs, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _layer_report(args, traced, overhead, env, record) -> dict:
    counts = traced[0][0]
    selfs = {}
    for name in {n for t in traced for n in t[1]}:
        selfs[name] = statistics.median(t[1].get(name, 0.0) for t in traced)
    wall = statistics.median(t[3] for t in traced)
    extra = {"cli.import_s": _import_cost(env), "trace.overhead_s": overhead}
    values = spans.layer_metrics(counts, selfs, extra)

    print(f"layer self time as a share of the traced pass wall ({wall:.3f} s),"
          f" trace.overhead_s {extra['trace.overhead_s']:.4f} s:")
    for layer, share in spans.layer_shares(selfs, wall).items():
        print(f"  {layer:<14} {share:7.2%}")

    os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
    path = os.path.join(WORK, "spans", f"{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps(record) + "\n")
        for i, (_, _, pass_spans, _) in enumerate(traced):
            for s in pass_spans:
                fh.write(json.dumps([i, *s]) + "\n")
    print(f"spans of {len(traced)} traced passes written to {os.path.relpath(path, ROOT)}")
    units = dict(spans.PER_LAYER)
    return {m: (values[m], units[m]) for m, _ in spans.PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
