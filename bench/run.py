#!/usr/bin/env python3
"""shiftquot benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload queries --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from `src/`; no
install is needed.  Inputs are generated from --seed into bench/_work/.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics.  The line before it holds the run metadata.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

STARTUP_SAMPLES = 16
CHILD_SLACK_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    return env


def worker(spec_path: str, *args: str, timeout: float) -> dict:
    """Run bench/worker.py in a fresh process; its last stdout line is JSON."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--jobs", spec_path, *args]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_facts() -> dict:
    """Git HEAD (when the tree is a git checkout), src/ line count and digest."""
    digest, lines = hashlib.sha256(), 0
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                digest.update(name.encode() + b"\0" + data)
                lines += data.count(b"\n")
    head = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        head = proc.stdout.strip() or None
    return {"git_head": head, "src_lines": lines, "src_sha256": digest.hexdigest()}


def compare_digest(work_root: str, key: str, digest: str | None) -> bool | None:
    """Record the output digest under (source, workload, seed); report whether
    it matches the one an earlier run of the same code recorded."""
    if digest is None:
        return None
    path = os.path.join(work_root, "digests.json")
    seen = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            seen = json.load(fh)
    previous = seen.setdefault(key, digest)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)
    return previous == digest


def run_workload(
    name: str, seed: int, seconds: int, trace: int, tiny: bool, units: dict[str, str]
) -> tuple[dict, dict]:
    work_root = os.path.join(BENCH, "_work")
    work = os.path.join(work_root, f"{name}-{seed}" + ("-tiny" if tiny else ""))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spec = workloads.build(name, seed, work, tiny=tiny)
    spec_path = os.path.join(work, "jobs.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)

    limit = seconds + CHILD_SLACK_S
    meta = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), **source_facts()}
    if trace:
        traced = worker(spec_path, "--mode", "run", "--passes", "1", "--trace", "1", timeout=limit)
        plain = worker(spec_path, "--mode", "run", "--passes", "1",
                       "--retained-seconds", str(0.2 * seconds), timeout=limit)
        values = dict(traced["layers"])
        values["cli.main.retained_kb_per_job"] = plain["retained_kb_per_job"]
        values["trace.overhead_ratio"] = traced["jobs_per_s"] / plain["jobs_per_s"]
        run = traced
        meta["spans_dropped"] = traced["spans_dropped"]
    else:
        run = worker(spec_path, "--mode", "run", "--seconds", str(seconds),
                     "--startup-samples", str(STARTUP_SAMPLES), timeout=limit + 60)
        values = {
            "jobs_per_s": run["jobs_per_s"],
            "job_p50_ms": run["job_p50_ms"],
            "job_p90_ms": run["job_p90_ms"],
            "setup_s": statistics.median(run["setup_samples_s"]),
            "peak_rss_mb": run["first_pass_rss_mb"] or run["rss_mb"],
        }
        meta["cold_start_ms"] = statistics.median(run["cold_start_samples_ms"])
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    meta.update({
        "attempted": run["jobs"],
        "pass_jobs": run["pass_jobs"],
        "fail_ratio": run["failed"] / run["jobs"],
        "failures": run["failures"],
        "output_sha256": run["digest"],
        "output_matches_earlier_run": compare_digest(
            work_root, f"{meta['src_sha256']}:{name}:{seed}:{int(tiny)}", run["digest"]
        ),
    })
    result = {"correct": run["failed"] == 0, "attempted": run["jobs"], "failed": run["failed"], "metrics": metrics}
    return meta, result


def _units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="one block of about one small job per kind (smoke test)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "shiftquot", "cli.py")):
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    units = _units()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        meta, result = run_workload(name, args.seed, args.seconds, args.trace, args.tiny, units)
        results[name] = result
        print(json.dumps(meta))
        if args.workload == "all":
            for metric, v in result["metrics"].items():
                print(f"{name:11} {metric:48} {v['value']:14.6g} {v['unit']}")
            if "cold_start_ms" in meta:
                print(f"{name:11} {'cold_start_ms':48} {meta['cold_start_ms']:14.6g} ms")
            print(f"{name:11} {'fail_ratio':48} {meta['fail_ratio']:14.6g} failed/attempted "
                  f"({result['failed']}/{result['attempted']})")
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
