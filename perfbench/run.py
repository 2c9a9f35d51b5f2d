#!/usr/bin/env python3
"""dotent benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload figure_data --seed 0 --seconds 28 --trace 0

Run from the root of a dotent checkout.  The workload's job (see
`workloads.py`) is repeated, one fresh interpreter per job, until
`--seconds` have passed; the last line of stdout is one JSON object with
the end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`)
as medians over the jobs.  Exit status is 2 when the checkout holds no
dotent sources, 0 otherwise; wrong outputs show as `correct: false`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# One BLAS thread: with two, OpenBLAS's idle thread spins and doubles the
# CPU time of verify_n12 for a wall-time gain within this machine's noise.
BLAS_THREADS = 1
SETUP_PROBES = 7
# Every run must end within 180 s; a job still running at this point of the
# run is killed and its operations count as failed.
DEADLINE_S = 170
SETUP_PROBE = "from dotent.cli import main; main(['--help'])"


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(workloads.SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


ENV_PROBE = r"""
import ctypes, json, os, sys, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for line in open("/proc/self/maps"):
    if "openblas" in line:
        lib = ctypes.CDLL(line.split()[-1])
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = getattr(lib, symbol)()
                break
        break
print(json.dumps({
    "nproc": len(os.sched_getaffinity(0)),
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "blas_threads": threads,
}))
"""


def environment(env: dict[str, str]) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", ENV_PROBE], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    )
    record = json.loads(probe.stdout)
    record["platform"] = platform.platform()
    record["blas_threads_pinned"] = BLAS_THREADS
    return record


def setup_seconds(env: dict[str, str]) -> float:
    """Median time from a fresh interpreter to an imported CLI with its parser."""
    samples = []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], env=env, check=True,
            stdout=subprocess.DEVNULL, timeout=60,
        )
        if i:  # the first probe also writes bytecode caches
            samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_job(workload, seed, trace, check, scratch: Path, env, timeout) -> dict:
    """One job in a fresh interpreter; a crash counts all its operations failed."""
    result_file = scratch / "result.json"
    result_file.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "job.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(int(trace)), "--check", str(int(check)),
        "--outdir", str(scratch / "out"), "--result", str(result_file),
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=timeout
        )
        error = proc.stderr.strip()[-2000:] if proc.returncode else None
    except subprocess.TimeoutExpired:
        error = f"job killed after {timeout:.0f} s"
    if error is None:
        result = json.loads(result_file.read_text(encoding="utf-8"))
        result["traced"] = trace
        return result
    print(f"job failed: {error}", file=sys.stderr)
    ops = sum(c.ops for c in workloads.commands(workload, seed))
    return {"traced": trace, "failed_job": True, "ops": ops}


def summarize(jobs: list[dict], trace: bool, setup_s: float) -> dict:
    """Fold the jobs of one run into the result line."""
    attempted = failed = 0
    first_digest: dict[str, str] = {}
    problems = []
    for job in jobs:
        if job.get("failed_job"):
            attempted += job["ops"]
            failed += job["ops"]
            continue
        for command in job["commands"]:
            attempted += command["ops"]
            bad = command["failed"]
            digest = first_digest.setdefault(command["label"], command["digest"])
            if digest != command["digest"]:
                bad = command["ops"]
                problems.append(f"{command['label']}: output differs between repeats")
            failed += bad
            problems += [f"{command['label']}: {p}" for p in command["problems"]]
    for problem in problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    units = metric_units()
    done = [j for j in jobs if not j.get("failed_job")]
    plain = [j for j in done if not j["traced"]]
    traced = [j for j in done if j["traced"]]

    # A run in which every job of a mode crashed is already incorrect; its
    # metrics read 0 rather than NaN, which is not JSON.
    def median(rows, key):
        return statistics.median(r[key] for r in rows) if rows else 0.0

    if trace:
        names = sorted(traced[0]["layers"]) if traced else []
        values = {n: statistics.median(j["layers"][n] for j in traced) for n in names}
        base = median(plain, "wall_s")
        values["trace.overhead_frac"] = (
            median(traced, "wall_s") / base - 1.0 if base and traced else 0.0
        )
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": median(plain, "wall_s"),
            "cpu_s": median(plain, "cpu_s"),
            "peak_rss_mb": median(plain, "peak_rss_mb"),
            "ok_frac": (attempted - failed) / attempted if attempted else 0.0,
        }
    return {
        "correct": failed == 0 and bool(plain) and (bool(traced) or not trace),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    began = time.perf_counter()
    missing = [
        p for p in (workloads.SRC / "dotent" / "cli.py", workloads.FIGURE_SCRIPT,
                    workloads.REFERENCE)
        if not p.exists()
    ]
    if missing:
        print(f"not a dotent checkout, missing: {[str(p) for p in missing]}",
              file=sys.stderr)
        return 2

    env = pinned_env()
    print(json.dumps({"environment": environment(env)}), flush=True)
    setup_s = setup_seconds(env)
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=workloads.ROOT))
    jobs: list[dict] = []
    durations: list[float] = []
    try:
        start = time.perf_counter()
        # Start a job only if it can end within --seconds, judged by the
        # longest of the last two jobs.  Traced runs alternate plain and
        # traced jobs, so the tracing overhead compares jobs that ran under
        # the same machine load.
        while len(jobs) < 1 + args.trace or (
            time.perf_counter() - start + max(durations[-2:]) <= args.seconds
        ):
            # Only the first job's outputs are checked; every later job's
            # must be byte-identical to them.
            traced = bool(args.trace) and len(jobs) % 2 == 1
            job_start = time.perf_counter()
            timeout = max(1.0, DEADLINE_S - (job_start - began))
            jobs.append(
                run_job(args.workload, args.seed, traced, not jobs, scratch, env, timeout)
            )
            durations.append(time.perf_counter() - job_start)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    summary = summarize(jobs, bool(args.trace), setup_s)
    print(json.dumps({"jobs": len(jobs), "wall_s": [j.get("wall_s") for j in jobs]}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
