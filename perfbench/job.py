"""Run one job of a workload in this process and report what it took.

    python3 perfbench/job.py --workload W --seed S --trace 0|1 --check 0|1 \
        --outdir DIR --result FILE

The parent `run.py` starts one fresh interpreter per job, as a user runs
one command or script per process.  The timed part is the CLI commands
only; the output checks run afterwards, without the tracer.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads

sys.path.insert(0, str(workloads.SRC))

import dotent.cli  # noqa: E402

from tracer import Tracer  # noqa: E402


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _run_command(command: workloads.Command, outdir: Path) -> workloads.Outcome:
    argv = list(command.argv)
    target = outdir / command.out if command.out else None
    if target is not None:
        argv += ["--out", str(target)]
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = dotent.cli.main(argv)
    except Exception as exc:  # a crash is one failed operation, not the end of the run
        return workloads.Outcome(None, "", stderr.getvalue(), f"{type(exc).__name__}: {exc}")
    output = stdout.getvalue()
    if target is not None and target.exists():
        output = target.read_text(encoding="utf-8")
        target.unlink()
    return workloads.Outcome(code, output, stderr.getvalue())


def run_job(
    workload: str,
    seed: int,
    outdir: Path,
    trace: bool = False,
    check: bool = True,
    toy: bool = False,
    reference: Path = workloads.REFERENCE,
) -> dict:
    """Run the workload's commands once; return timings, counts and checks."""
    commands = workloads.commands(workload, seed, toy)
    outdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    with tracer or contextlib.nullcontext():
        cpu0, wall0 = _cpu_seconds(), time.perf_counter()
        outcomes = [_run_command(c, outdir) for c in commands]
        wall = time.perf_counter() - wall0
        cpu = _cpu_seconds() - cpu0
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "bytes_out": sum(len(o.output.encode()) for o in outcomes),
        "commands": [],
    }
    for command, outcome in zip(commands, outcomes):
        entry = {
            "label": command.label,
            "ops": command.ops,
            "digest": hashlib.sha256(
                (workloads.strip_manifest(outcome.output) + "\0" + outcome.stderr).encode()
            ).hexdigest(),
            "failed": 0,
            "problems": [],
        }
        if check:
            entry["failed"], entry["problems"] = workloads.failed_ops(
                workload, command, outcome, reference
            )
        elif outcome.error is not None or outcome.code != 0:
            entry["failed"] = command.ops
            entry["problems"] = [outcome.error or f"exit code {outcome.code}"]
        result["commands"].append(entry)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["layers"]["cli.bytes_out"] = result["bytes_out"]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1)
    parser.add_argument("--outdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()
    result = run_job(
        args.workload, args.seed, args.outdir, bool(args.trace), bool(args.check)
    )
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
