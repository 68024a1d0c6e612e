"""Benchmark runner for twoiso.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. One process runs one workload: it sets the workload up several
times (import, seeded inputs, input files) and keeps the median as
``setup_s``, then runs whole passes over the workload's operations, one at a
time, for about ``--seconds`` (always at least one pass). Op times are
rescaled to a reference machine speed by ``speed.SpeedProbe``. With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it spends half the time
untraced and half traced, reports the per-layer metrics and writes the spans
to ``.perfbench_out/``. The last line of standard output is one JSON object.
See README.md.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: one caller, no extra threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import hashlib
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5


def import_twoiso() -> SimpleNamespace:
    """Import twoiso afresh from ``src/``, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "twoiso" or m.startswith("twoiso.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("twoiso")
    if Path(pkg.__file__).resolve().parent != SRC / "twoiso":
        raise ImportError(f"twoiso was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"twoiso.{m}") for m in spans.MODULES})


@dataclass
class Phase:
    """What one measured phase saw: op intervals and outcomes."""

    ops_per_pass: int
    intervals: list = field(default_factory=list)  # (t0, t1, dim) per op run
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    digests: list = field(default_factory=list)
    failing: list = field(default_factory=list)

    def times(self, probe: speed.SpeedProbe) -> tuple[list, list]:
        """Op times and pass times in seconds, rescaled to reference speed."""
        op_s = [probe.rescale(*interval) for interval in self.intervals]
        n = self.ops_per_pass
        return op_s, [sum(op_s[i:i + n]) for i in range(0, len(op_s), n)]


def measure(ops, seconds: float, tracer: spans.Tracer | None = None) -> Phase:
    """Closed loop: whole passes until the next one would end past the deadline."""
    phase = Phase(len(ops))
    deadline = time.perf_counter() + seconds
    while True:
        if tracer:
            tracer.begin()
        pass_start = time.perf_counter()
        tokens, failing, facts = [], [], {}
        for i, op in enumerate(ops):
            if tracer:
                tracer.set_op(i)
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a raising op is a failed op, not a crash
                result = exc
            phase.intervals.append((t0, time.perf_counter(), op.dim))
            outcome = op.check(result)
            phase.attempted += 1
            phase.failed += outcome.failed
            phase.wrong += outcome.wrong
            tokens.append(outcome.token)
            if outcome.failed:
                failing.append(outcome.token)
            for key, value in outcome.facts.items():
                facts[key] = facts.get(key, 0) + value
        if tracer:
            tracer.passes.append(tracer.end(facts))
        phase.digests.append(hashlib.sha256("\n".join(tokens).encode()).hexdigest()[:16])
        if len(phase.digests) == 1:
            phase.failing = failing
        now = time.perf_counter()
        if now + (now - pass_start) > deadline:
            return phase


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between the two nearest samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def end_to_end(op_s: list, pass_s: list, setup_s: list, phase: Phase) -> dict:
    """name -> (value, unit, sample count, sample description)."""
    op_ms = [s * 1e3 for s in op_s]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "pass_s": (statistics.median(pass_s), "s", len(pass_s), "passes"),
        "op_ms.p50": (quantile(op_ms, 50), "ms", len(op_ms), "ops"),
        "op_ms.p90": (quantile(op_ms, 90), "ms", len(op_ms), "ops"),
        "setup_s": (statistics.median(setup_s), "s", len(setup_s), "set-ups"),
        "success_rate": (1.0 - phase.failed / phase.attempted, "ratio", phase.attempted, "ops"),
        "peak_rss_mb": (rss_mb, "MB", 1, "process"),
    }


def blas_threads() -> str:
    """Thread count OpenBLAS reports, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return str(getattr(handle, symbol)())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def git_commit() -> str:
    """HEAD of the checkout, if it is a git repository; git does not look above it."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="twoiso benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a few small operations (for tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twoiso" / "__init__.py").is_file():
        print(f"error: no twoiso sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-seed{args.seed}"

    with speed.SpeedProbe() as probe:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            tw = import_twoiso()
            ops = build(tw, args.seed, args.tiny, workdir)
            setups.append((t0, time.perf_counter()))
        gc.collect()
        meta = metadata(args)
        op_names = [op.name for op in ops]
        if args.trace:
            plain = measure(ops, args.seconds / 2)
            tracer = spans.Tracer(vars(tw))
            tracer.begin()
            ops = build(tw, args.seed, args.tiny, workdir)
            tracer.setup = tracer.end()
            phases = (plain, measure(ops, args.seconds / 2, tracer))
        else:
            phases = (measure(ops, args.seconds),)

    op_s, pass_s = phases[0].times(probe)
    if args.trace:
        ratio = statistics.median(phases[1].times(probe)[1]) / statistics.median(pass_s)
        metrics = {name: (value, unit, n, "passes") for name, (value, unit, n)
                   in tracer.metrics(ratio).items()}
        trace_file = OUT / f"{args.workload}-seed{args.seed}.spans.tsv"
        tracer.write(trace_file, meta, op_names)
    else:
        setup_s = [probe.rescale(t0, t1) for t0, t1 in setups]
        metrics = end_to_end(op_s, pass_s, setup_s, phases[0])

    digests = {d for phase in phases for d in phase.digests}
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = len(digests) == 1 and not any(p.wrong for p in phases)

    print("meta " + json.dumps(meta, sort_keys=True))
    if args.trace:
        print(f"missing targets: {', '.join(tracer.missing) or 'none'}")
        print(f"spans written to {trace_file.relative_to(ROOT)}")
        dq = tracer.calls_per_op(spans.DQ, op_names)
        if dq and len(op_names) <= 20:
            print("defect_quadratic calls per op: "
                  + ", ".join(f"{name}={dq.get(name, 0)}" for name in op_names))
    for name, (value, unit, n, what) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name:42s} {shown:>14s} {unit:6s} n={n} {what}")
    print(f"{'error_rate':42s} {failed / attempted:>14.6g} {'ratio':6s} n={attempted} ops")
    wall_ms = [(t1 - t0) * 1e3 for t0, t1, _ in phases[0].intervals]
    print(f"wall times before rescaling: op p50 {quantile(wall_ms, 50):.6g} ms, "
          f"op p90 {quantile(wall_ms, 90):.6g} ms; machine speed factor median "
          f"{statistics.median(probe.factor[speed.SMALL]):.4g} over {len(probe.start_t)} probe samples")
    print(f"verdict digest: {' '.join(sorted(digests))}")
    for token in phases[0].failing:
        print(f"failing op: {token}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": 0 if value is None else value, "unit": unit}
                    for name, (value, unit, _, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
