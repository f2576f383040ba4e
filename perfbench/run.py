"""structdist benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {sweep,audit,coupled,numerics} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
src/ directory. One process, one thread, BLAS/OpenMP pools pinned to 1. The
load is a closed loop: the next op starts when the previous one returns.

--trace 0 prints the end-to-end metrics: setup_s (median of fresh-interpreter
set-ups), ops_per_s, op_p50_ms, op_tail_ms and peak_rss_mb. --trace 1 runs
the same ops untraced and then traced, and prints the per-layer metrics
taken from the traced half plus the tracing overhead. Either way every
output is checked against exact oracles, a line with the environment,
failed_ratio, warning counts and the check details precedes the result
line, and the exit code is 1 if any check fails.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
MIN_CALLS = 20  # latency samples needed for a tail with >= 10 samples beyond it
MAX_RUN_S = 120.0
TAIL_BEYOND = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("sweep", "audit", "coupled", "numerics"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------- environment ----------

def count_warnings() -> Counter:
    """Count warnings by category instead of printing or raising them.

    The package's quadrature warns (IntegrationWarning) on every table-generator
    pass; under a caller's -W error or PYTHONWARNINGS=error that would abort the
    run, and printed once it says nothing about how often it fired. The counts
    go to the info line."""
    counts: Counter = Counter()
    warnings.resetwarnings()
    warnings.simplefilter("always")
    warnings.showwarning = lambda message, category, *rest, **kw: counts.update([category.__name__])
    return counts


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cache_sizes() -> dict:
    """Cache sizes in bytes as glibc's sysconf reports them (through getconf,
    since Python's os.sysconf does not know these names)."""
    try:
        text = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    sizes = (line.split() for line in text.splitlines() if "CACHE_SIZE" in line)
    return {f[0].lower(): int(f[1]) for f in sizes if len(f) == 2 and f[1].isdigit()}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cache_bytes": _cache_sizes(),
        "machine": platform.machine(),
        "seed": seed,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "git_commit": _git_commit(),
    }


# ---------- measurement ----------

def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile, samples beyond)."""
    s = sorted(samples)
    idx = max(0, len(s) - TAIL_BEYOND - 1)
    return s[idx], 100.0 * (idx + 1) / len(s), len(s) - idx - 1


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def measure_setup(args) -> tuple[list[float], list[float]]:
    """CPU and wall time of SETUP_PROBES fresh interpreters that each import
    the package and run the workload's set-up, including writing its inputs."""
    cpus, walls = [], []
    for k in range(SETUP_PROBES):
        probe = WORK / f"setup-{args.workload}-{os.getpid()}-{k}"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-only", str(probe)]
        c0, t0 = _children_cpu(), time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        walls.append(time.perf_counter() - t0)
        cpus.append(_children_cpu() - c0)
        shutil.rmtree(probe, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return cpus, walls


class Loop:
    """Closed loop: runs ops back to back and keeps per-call latencies,
    as process CPU time and as wall time, in seconds per op."""

    def __init__(self, wl):
        self.wl = wl
        self.cpu: list[float] = []
        self.wall: list[float] = []
        self.cpu_busy = self.wall_busy = 0.0
        self.attempted = self.completed = self.failed_calls = 0
        self.violations: list[str] = []
        self.recording = True  # off when ops are replays whose outputs were already pooled

    def call(self, i: int) -> None:
        wl = self.wl
        n = wl.ops_per_call()
        self.attempted += n
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = wl.op(i)
        except Exception:
            self.failed_calls += 1
            self.violations.append(traceback.format_exc(limit=3))
            return
        finally:
            cpu, wall = time.process_time() - c0, time.perf_counter() - t0
            self.cpu_busy += cpu
            self.wall_busy += wall
        res = wl.result(out)
        bad = wl.invariant(res)
        if bad:
            self.failed_calls += 1
            self.violations.extend(bad)
        else:
            if self.recording:
                wl.record(res)
            self.completed += n
            self.cpu.append(cpu / n)
            self.wall.append(wall / n)

    def run_for(self, seconds: float) -> int:
        """Calls ops 1, 2, ... until `seconds` have passed and at least
        MIN_CALLS were made; returns the number of calls."""
        t_end = time.perf_counter() + seconds
        t_cap = time.perf_counter() + MAX_RUN_S
        i = 1
        while (time.perf_counter() < t_end or i <= MIN_CALLS) and time.perf_counter() < t_cap:
            self.call(i)
            i += 1
        return i - 1

    @property
    def failed(self) -> int:
        return self.attempted - self.completed


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, wl, setup) -> tuple[dict, Loop, dict]:
    """Times are process CPU seconds: the loop is one thread and does no I/O
    inside an op, so they equal wall time on an idle machine and leave out
    what a shared machine's hypervisor steals. Wall figures go to the info line."""
    setup_cpu, setup_wall = setup
    loop = Loop(wl)
    loop.run_for(args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t, pct, beyond = tail(loop.cpu)
    metrics = {
        "setup_s": metric(statistics.median(setup_cpu), "s"),
        "ops_per_s": metric(loop.completed / loop.cpu_busy, "op/s"),
        "op_p50_ms": metric(1e3 * statistics.median(loop.cpu), "ms"),
        "op_tail_ms": metric(1e3 * t, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    extra = {
        "latency_samples": len(loop.cpu),
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "setup_cpu_s": setup_cpu,
        "wall": {
            "setup_s": setup_wall,
            "ops_per_s": loop.completed / loop.wall_busy,
            "op_p50_ms": 1e3 * statistics.median(loop.wall),
            "op_tail_ms": 1e3 * tail(loop.wall)[0],
        },
    }
    return metrics, loop, extra


def per_layer(args, wl, tracer) -> tuple[dict, Loop, dict]:
    loop = Loop(wl)
    calls = loop.run_for(args.seconds / 2.0)
    untraced, untraced_ops = loop.wall_busy, loop.completed
    loop.recording = False
    tracer.install()
    try:
        for i in range(1, calls + 1):
            tracer.run_root("bench.op", loop.call, i)
    finally:
        tracer.uninstall()
    traced = loop.wall_busy - untraced
    ops = loop.completed - untraced_ops  # the traced half repeats the untraced ops
    st = tracer.self_times()
    cnt = tracer.counts

    def per_op(*names):
        return sum(st.get(("bench.op", n), 0.0) for n in names) / ops

    def count(name):
        return cnt.get(("bench.op", name), 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    draw_s = per_op("sampling.draw") * ops
    tok_s = per_op("ingest.tokenize") * ops
    metrics = {
        "generators.cells_s": metric(st.get(("bench.setup", "generators.cells"), 0.0), "s"),
        "generators.limit_s": metric(st.get(("bench.setup", "generators.limit"), 0.0), "s"),
        "generators.op_s": metric(per_op("generators.cells", "generators.limit"), "s/op"),
        "sampling.draw_s": metric(per_op("sampling.draw"), "s/op"),
        "sampling.draws": metric(count("draws") / ops, "1/op"),
        "sampling.cells_drawn_per_s": metric(ratio(count("cells_drawn"), draw_s), "1/s"),
        "sampling.group_s": metric(per_op("sampling.group"), "s/op"),
        "sampling.stream_s": metric(per_op("sampling.stream"), "s/op"),
        "estimators.build_s": metric(per_op("estimators.build"), "s/op"),
        "estimators.builds": metric(count("builds") / ops, "1/op"),
        "estimators.jump_ratio": metric(ratio(count("jumps"), count("values")), "1"),
        "model.eval_s": metric(per_op("model.eval"), "s/op"),
        "model.evals": metric(count("evals") / ops, "1/op"),
        "model.sup_s": metric(per_op("model.sup"), "s/op"),
        "asymptotics.quad_s": metric(per_op("asymptotics.quad"), "s/op"),
        "asymptotics.integrand_evals": metric(count("integrand_evals") / ops, "1/op"),
        "asymptotics.evals_per_point": metric(ratio(count("integrand_evals"), count("quad_points")), "1"),
        "study.self_s": metric(per_op("study"), "s/op"),
        "ingest.tokenize_s": metric(per_op("ingest.tokenize"), "s/op"),
        "ingest.tokens_per_s": metric(ratio(count("tokens"), tok_s), "1/s"),
        "ingest.estimate_s": metric(per_op("ingest.estimate"), "s/op"),
        "cli.self_s": metric(per_op("cli"), "s/op"),
        "trace.overhead_s": metric((traced - untraced) / ops, "s/op"),
    }
    extra = {"traced_ops": ops, "traced_wall_s": traced, "untraced_wall_s": untraced, "missing_targets": tracer.missing}
    return metrics, loop, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_PINS)
    warned = count_warnings()
    if not (SRC / "structdist" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'structdist'}; run from a structdist checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import structdist

    if Path(structdist.__file__).resolve().parent != (SRC / "structdist").resolve():
        print(f"perfbench: imported structdist from {structdist.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        cls(args.seed, Path(args.setup_only)).setup()
        return 0

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    wl = cls(args.seed, workdir)
    try:
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                tracer.run_root("bench.setup", wl.setup)
            finally:
                tracer.uninstall()
        else:
            setup = measure_setup(args)
            wl.setup()
        reference = wl.result(wl.op(0))  # warm-up; also the replay reference
        bad = wl.invariant(reference)
        if bad:
            raise RuntimeError(f"warm-up op broke invariants: {bad}")
        wl.record(reference)
        if args.trace:
            metrics, loop, extra = per_layer(args, wl, tracer)
            tracer.write(WORK / f"spans-{args.workload}-{args.seed}.csv")
        else:
            metrics, loop, extra = end_to_end(args, wl, setup)
        replay_ok = wl.key(wl.result(wl.op(0))) == wl.key(reference)
        checks = {"replay_first_op": (replay_ok, {}), **wl.checks()}
        if loop.failed_calls:
            checks["per_op_invariants"] = (False, {"violations": loop.violations[:5]})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = {name: (bool(ok), detail) for name, (ok, detail) in checks.items()}
    correct = all(ok for ok, _ in checks.values())
    info = {
        "workload": args.workload,
        "op": wl.op_definition,
        "ops_per_call": wl.ops_per_call(),
        "trace": args.trace,
        "seconds": args.seconds,
        "failed_ratio": metric(loop.failed / max(loop.attempted, 1), "1"),
        **extra,
        "checks": {name: {"ok": ok, **detail} for name, (ok, detail) in checks.items()},
        **wl.info(),
        "warnings": dict(warned),
        "env": environment(args.seed),
    }
    result = {"correct": correct, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1, default=float) + "\n", encoding="utf-8"
    )
    print(json.dumps({"info": info}, default=float))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for category, n in sorted(warned.items()):
        print(f"{args.workload} warning {category} x {n}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
