"""One benchmark process: set up, then run a workload's jobs one at a time.

Run by `run.py` with `src/` on PYTHONPATH; prints one JSON object as its
last line.  Modes:

  --mode setup   import the package and load the library seeds, report the time
  --mode run     set up, then run passes of the job list for --seconds seconds
                 (or exactly --passes times the first block's job count), optionally traced
                 (spans go to spans.jsonl next to the job file);
                 with --startup-samples N, pause N times at even intervals to time one
                 fresh set-up process and one fresh `python -m shiftquot.cli check`

A job is one `shiftquot.cli.main(argv)` call with stdout captured, or one
library call.  Each job has an in-process deadline (`signal.alarm`).  A CLI
job's time covers the `main` call; its oracle is checked afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = {"invariants": 20, "queries": 5, "enumerate": 30}
RETAINED_JOBS = 300


class JobTimeout(BaseException):
    """Raised by the alarm handler; not an Exception, so no handler in the
    package can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def setup(library: list[str]) -> tuple[float, dict]:
    """Import the package and load the seeds library jobs reuse."""
    start = time.perf_counter()
    from shiftquot import cli, geometry, smale  # noqa: F401

    pairs = {path: cli.load_bundle(path).pair() for path in library}
    return time.perf_counter() - start, pairs


def run_library(job: dict, pairs: dict) -> tuple[bool, str]:
    from shiftquot import geometry, smale

    p = pairs[job["seed"]]
    if job["kind"] == "injectivity":
        rep = geometry.embedding_injectivity_check(p, job["depth"])
        return rep.injective and rep.classes > 0, f"{rep.classes} {len(rep.collisions)}"
    x = smale.parse_bilasso(p.g, job["x"])
    y = smale.parse_bilasso(p.g, job["y"])
    depth = job["depth"]
    tx, ty = smale.pi_xi_tower(p, x, depth), smale.pi_xi_tower(p, y, depth)
    d = smale.tower_distance(p, tx, ty)
    ok = d.lo <= d.hi and d.hi >= Fraction(3, 2**depth)
    out = f"{d.lo} {d.hi}"
    if d.hi <= Fraction(1, 2):
        b = smale.bracket(p, tx, ty)
        ok = ok and b.depth == depth and b.level(0) == tx.level(0)
        out += f" {b.levels[-1].rep}"
    w = smale.pair_related(p, x, y)
    ok = ok and ((w is not None and d.lo == 0) if job["related"] else w is None)
    return ok, f"{out} {w}"


def run_cli(argv: list[str]) -> tuple[int, str]:
    from shiftquot import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def check_cli(job: dict, code: int, text: str) -> bool:
    """Oracle on a CLI job's exit code, stdout and output file.  The output
    file is removed, because overwriting an existing file costs more on
    some file systems than the job itself."""
    ok = code == job["exit"] and workloads.check_cli(job["oracle"], text)
    argv = job["argv"]
    if "-o" in argv:
        path = argv[argv.index("-o") + 1]
        try:
            with open(path, encoding="utf-8") as fh:
                ok = ok and workloads.check_file(job["oracle"], fh.read())
            os.remove(path)
        except OSError:
            ok = False
    return ok


class Loop:
    """The closed loop: one job at a time, latencies and failures recorded."""

    def __init__(self, jobs: list[dict], pass_jobs: int, pairs: dict, deadline: int, recorder=None):
        self.jobs, self.pairs, self.deadline, self.recorder = jobs, pairs, deadline, recorder
        self.pass_jobs = pass_jobs
        self.latencies: list[float] = []
        self.failed: list[dict] = []
        self.digest = hashlib.sha256()
        self.first_pass_rss_mb: float | None = None

    def one(self, index: int) -> None:
        job = self.jobs[index % len(self.jobs)]
        if self.recorder is not None:
            self.recorder.job = len(self.latencies)
        signal.alarm(self.deadline)
        start = time.perf_counter()
        try:
            if job["kind"] == "cli":
                code, text = run_cli(job["argv"])
                elapsed = time.perf_counter() - start
                signal.alarm(0)
                ok, out = check_cli(job, code, text), f"{code}\n{text}"
            else:
                ok, out = run_library(job, self.pairs)
                elapsed = time.perf_counter() - start
        except JobTimeout:
            ok, out, elapsed = False, "timeout", float(self.deadline)
        except Exception as exc:  # a job that raises is a failed job, not a failed run
            ok, out, elapsed = False, f"{type(exc).__name__}: {exc}", time.perf_counter() - start
        finally:
            signal.alarm(0)
        self.latencies.append(elapsed)
        if not ok:
            self.failed.append({"job": index % len(self.jobs), "output": out[-300:]})
        if index < self.pass_jobs:
            self.digest.update(out.encode())
            if index == self.pass_jobs - 1:
                self.first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def run(self, seconds: float | None, count: int | None, pauses: int = 0, pause=None) -> float:
        """Run until `seconds` of loop time have passed or `count` jobs are
        done; return the loop time.  `pause()` is called `pauses` times at
        even intervals of loop time, and the time it takes is not loop time."""
        start = time.perf_counter()
        paused = 0.0
        i = done = 0
        while (count is None or i < count) and (seconds is None or time.perf_counter() - start - paused < seconds):
            if done < pauses and time.perf_counter() - start - paused >= (done + 0.5) * seconds / pauses:
                t = time.perf_counter()
                pause()
                paused += time.perf_counter() - t
                done += 1
                continue
            self.one(i)
            i += 1
        return time.perf_counter() - start - paused


class StartupSampler:
    """Times fresh processes between jobs, so that the samples spread over
    the whole run instead of one spell of the machine's speed."""

    def __init__(self, spec_path: str):
        bundle = os.path.join(os.path.dirname(spec_path), "cold_full3.bundle")
        with open(bundle, "w", encoding="utf-8") as fh:
            fh.write(gen.FULL3)
        self.setup_cmd = [sys.executable, os.path.abspath(__file__), "--jobs", spec_path, "--mode", "setup"]
        self.cold_cmd = [sys.executable, "-m", "shiftquot.cli", "check", bundle]
        self.setup_s: list[float] = []
        self.cold_ms: list[float] = []

    def __call__(self) -> None:
        proc = subprocess.run(self.setup_cmd, capture_output=True, text=True, timeout=120, check=True)
        self.setup_s.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        start = time.perf_counter()
        proc = subprocess.run(self.cold_cmd, capture_output=True, timeout=60)
        self.cold_ms.append(1000 * (time.perf_counter() - start))
        if proc.returncode != 0:
            raise RuntimeError(f"cold start check exited {proc.returncode}")


def retained_kb_per_job(loop: Loop, seconds: float) -> float:
    """tracemalloc heap growth over up to RETAINED_JOBS further CLI jobs
    (fewer if `seconds` run out first), per job."""
    cli_jobs = [j for j in loop.jobs if j["kind"] == "cli"]
    if not cli_jobs:
        return 0.0
    probe = Loop(cli_jobs, 0, loop.pairs, loop.deadline)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        probe.run(seconds, RETAINED_JOBS)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / 1024 / len(probe.latencies)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--jobs", required=True, help="job file written by run.py")
    ap.add_argument("--mode", choices=["setup", "run"], required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--passes", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--startup-samples", type=int, default=0)
    ap.add_argument("--retained-seconds", type=float, default=0.0,
                    help="afterwards, measure heap growth per CLI job for at most this long")
    args = ap.parse_args(argv)

    with open(args.jobs, encoding="utf-8") as fh:
        spec = json.load(fh)
    setup_s, pairs = setup(spec["library"])
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    recorder = None
    if args.trace:
        import tracer

        recorder = tracer.Recorder()
        recorder.install()
        hits0, misses0 = recorder.cache_counts()
    signal.signal(signal.SIGALRM, _on_alarm)
    loop = Loop(spec["jobs"], spec["pass_jobs"], pairs, DEADLINE_S[spec["workload"]], recorder)
    count = None if args.passes is None else args.passes * spec["pass_jobs"]
    sampler = StartupSampler(args.jobs) if args.startup_samples else None
    elapsed = loop.run(args.seconds, count, args.startup_samples, sampler)
    jobs = len(loop.latencies)
    result = {
        "setup_s": setup_s,
        "jobs": jobs,
        "pass_jobs": spec["pass_jobs"],
        "elapsed_s": elapsed,
        "jobs_per_s": jobs / elapsed,
        "job_p50_ms": 1000 * statistics.median(loop.latencies),
        "job_p90_ms": 1000 * statistics.quantiles(loop.latencies, n=10)[-1] if jobs > 1 else 1000 * loop.latencies[0],
        "failed": len(loop.failed),
        "failures": loop.failed[:5],
        "first_pass_rss_mb": loop.first_pass_rss_mb,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": loop.digest.hexdigest() if jobs >= spec["pass_jobs"] else None,
    }
    if sampler is not None:
        result["setup_samples_s"] = sampler.setup_s
        result["cold_start_samples_ms"] = sampler.cold_ms
    if recorder is not None:
        hits1, misses1 = recorder.cache_counts()
        lookups = (hits1 - hits0) + (misses1 - misses0)
        result["layers"] = recorder.metrics()
        result["layers"]["embedding.completion_tables.hit_ratio"] = (hits1 - hits0) / lookups if lookups else 0.0
        result["spans_dropped"] = recorder.dropped
        recorder.write_spans(os.path.join(os.path.dirname(args.jobs), "spans.jsonl"))
    if args.retained_seconds:
        result["retained_kb_per_job"] = retained_kb_per_job(loop, args.retained_seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
