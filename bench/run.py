#!/usr/bin/env python3
"""plstab benchmark: seeded closed-loop workloads with per-job checks.

Run from the repository root:

    python3 bench/run.py --workload decompose_half --seed 1 --seconds 30 --trace 0

One client in one process runs jobs back to back (closed loop) with the
BLAS thread pools pinned to one thread.  The run measures for
``--seconds`` and, when jobs are slow, keeps going until ``MIN_JOBS``
jobs have run, so that the 90th percentile has ten samples beyond it.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
layer modules with the outside-in tracer (tracer.py) and reports
per-layer metrics per job instead.  Every job's outputs are checked
(workloads.py); failures are printed and counted.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report, and the full record, with its host stamp, is written to
``bench/out/``.  The metric names and units are those of BENCHMARK.json
at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("decompose_half", "snap_offhalf", "reduce_2d")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_JOBS = 100
# Hard stop on measuring, so a run ends well inside its time limit even
# when jobs are far slower than expected.
MAX_MEASURE_S = 120.0
SETUP_SAMPLES = 5
# Kept out of use while writing changes, so that a claim can be checked
# on inputs the change was not tuned on.
RESERVE_SEED = 90210
ACCOUNTED_MIN = 0.95
MAX_PRINTED_FAILURES = 20


# -- host stamp ----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the repository at ROOT, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "plstab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _stamp(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "reserve_seed": RESERVE_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "clients": 1,
        "loop": "closed",
    }


# -- set-up ----------------------------------------------------------------------


def setup(workload: str, seed: int):
    """Import plstab, build the inputs and run one warm-up job.

    Returns ``(seconds, workload, pool)``; the seconds are one sample of
    ``setup_s``.
    """
    t0 = time.perf_counter()
    import plstab  # noqa: F401  (the import is part of what set-up measures)
    import workloads

    wl = workloads.WORKLOADS[workload]
    pool = wl.build(seed, wl.pool_size)
    wl.job(pool[0])
    return time.perf_counter() - t0, wl, pool


def _setup_in_child(args) -> float:
    cmd = [
        sys.executable,
        str(BENCH / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--setup-only",
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# -- job loop ----------------------------------------------------------------------


class Tally:
    """Attempted and failed jobs, with the failures printed as they occur."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, wl, inst, index: int, before=None, after=None):
        """Time one job and check it; returns ``(seconds, output or None)``."""
        self.attempted += 1
        problems: list[str] = []
        out = None
        if before is not None:
            before()
        t0 = time.perf_counter()
        try:
            out = wl.job(inst)
        except Exception as exc:  # a failing job is counted, not fatal
            dt = time.perf_counter() - t0
            problems.append(
                f"raised {type(exc).__name__}: {exc}\n{traceback.format_exc()}"
            )
        else:
            dt = time.perf_counter() - t0
        finally:
            if after is not None:
                after()
        if out is not None:
            problems = wl.check(inst, out)
        if problems:
            self.failed += 1
            if self.failed <= MAX_PRINTED_FAILURES:
                print(f"CHECK FAILED job {index}: " + "; ".join(problems), file=sys.stderr)
            out = None
        return dt, out


def _end_to_end(args, wl, pool, setup_main: float) -> tuple[dict, dict, Tally]:
    setups = [setup_main] + [_setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    tally = Tally()
    times: list[float] = []
    errors: list[float] = []
    min_jobs = max(MIN_JOBS, len(pool))
    t_start = time.perf_counter()
    cpu_start = time.process_time()
    while True:
        i = tally.attempted
        dt, out = tally.run(wl, pool[i % len(pool)], i)
        times.append(dt)
        # err_mean averages one pass over the pool, so that it depends on
        # the seed only and not on how many jobs fit in the run.
        if out is not None and i < len(pool):
            errors.append(wl.error(out))
        elapsed = time.perf_counter() - t_start
        if (elapsed >= args.seconds and tally.attempted >= min_jobs) or (
            elapsed >= MAX_MEASURE_S
        ):
            break
    cpu = time.process_time() - cpu_start
    n = tally.attempted
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "job_ms_p50": (1e3 * statistics.median(times), "ms"),
        "job_ms_p90": (
            1e3 * statistics.quantiles(times, n=10, method="inclusive")[-1],
            "ms",
        ),
        "jobs_per_s": (n / elapsed, "1/s"),
        "cpu_s_per_job": (cpu / n, "s"),
        "ok_frac": ((n - tally.failed) / n, "1"),
        "err_mean": (statistics.fmean(errors) if errors else math.nan, "1"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }
    detail = {
        "jobs": n,
        "measured_s": elapsed,
        "setup_samples_s": setups,
        "job_s": times,
        "errors": errors,
    }
    return metrics, detail, tally


# -- traced run ------------------------------------------------------------------


def _traced(args, wl, pool) -> tuple[dict, dict, Tally, list[str]]:
    from tracer import Tracer
    import annotators

    prefix = pool[: wl.trace_jobs]
    tally = Tally()
    problems: list[str] = []
    tracer = Tracer()
    tracer.install(annotators.ANNOTATORS)

    def on() -> None:
        tracer.active = True

    def off() -> None:
        tracer.active = False

    # Each round runs the prefix untraced (the wrappers pass straight
    # through) and then traced; alternating keeps drifts in machine speed
    # out of the overhead figure.
    passes: list[Counter] = []
    job_s: list[float] = []
    base_s = 0.0
    t_start = time.perf_counter()
    try:
        while True:
            for inst in prefix:
                base_s += tally.run(wl, inst, tally.attempted)[0]
            first_span = len(tracer.span_name)
            counts_before = Counter(tracer.counts)
            for inst in prefix:
                dt, _ = tally.run(wl, inst, tally.attempted, before=on, after=off)
                job_s.append(dt)
            counts = tracer.call_counts(first_span)
            counts.update(tracer.counts - counts_before)
            passes.append(counts)
            elapsed = time.perf_counter() - t_start
            if len(passes) >= 2 and (elapsed >= args.seconds or elapsed >= MAX_MEASURE_S):
                break
    finally:
        tracer.uninstall()

    for k, counts in enumerate(passes[1:], start=2):
        if counts != passes[0]:
            diff = {
                key: (passes[0].get(key, 0), counts.get(key, 0))
                for key in set(counts) | set(passes[0])
                if passes[0].get(key, 0) != counts.get(key, 0)
            }
            problems.append(f"trace pass {k} counts differ from pass 1: {diff}")

    metrics = annotators.per_layer(tracer, n_jobs=len(job_s), job_s=sum(job_s))
    metrics["trace.overhead_frac"] = (sum(job_s) / base_s - 1.0, "1")
    if metrics["trace.accounted_frac"][0] < ACCOUNTED_MIN:
        problems.append(
            f"trace.accounted_frac {metrics['trace.accounted_frac'][0]:.4f} "
            f"below {ACCOUNTED_MIN}"
        )
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}.npz")
    detail = {
        "jobs": len(job_s),
        "passes": len(passes),
        "jobs_per_pass": len(prefix),
        "pass_counts": dict(passes[0]),
        "spans": len(tracer.span_name),
    }
    return metrics, detail, tally, problems


# -- entry point -----------------------------------------------------------------


def _declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "plstab" / "__init__.py").is_file():
        print(f"error: no plstab sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    setup_s, wl, pool = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    problems: list[str] = []
    if args.trace:
        metrics, detail, tally, problems = _traced(args, wl, pool)
    else:
        metrics, detail, tally = _end_to_end(args, wl, pool, setup_s)
    declared = _declared_metrics(args.trace)
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != declared:
        print(f"error: metrics {produced} do not match BENCHMARK.json {declared}",
              file=sys.stderr)
        return 2
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            problems.append(f"metric {name} is not finite")
            metrics[name] = (0.0, metrics[name][1])

    stamp = _stamp(args)
    correct = tally.failed == 0 and not problems
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"# plstab bench  workload={args.workload}  seed={args.seed}  "
          f"trace={args.trace}  jobs={detail['jobs']}  "
          f"attempted={tally.attempted}  failed={tally.failed}")
    if not args.trace:
        print(f"#   failed_frac = {tally.failed / tally.attempted:.6g}  "
              f"(job-time percentiles over n={detail['jobs']} jobs)")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:<48} {value:>14.6g} {unit}")
    print("# stamp " + json.dumps(stamp, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    record = {
        "stamp": stamp,
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
