"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import job  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Counts that later changes may rest a claim on: they must repeat exactly.
EXACT_COUNTS = [
    "analysis.find_max.calls",
    "closed_form.amplitude_table.calls",
    "closed_form.entropy_curve.calls",
    "closed_form.entropy_curve.points",
    "closed_form.eval_terms",
    "closed_form.schmidt_spectrum.calls",
    "combinatorics.binomial.calls",
    "oracle.basis_states",
    "oracle.eigh_dim3",
    "oracle.reduced_entropy.calls",
]


@pytest.fixture
def scratch():
    path = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=workloads.ROOT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _summary(*results, trace=False):
    return run.summarize(list(results), trace, setup_s=0.1)


def _wrap_targets():
    from dotent.oracle import SectorHamiltonian

    targets = [
        (importlib.import_module(module), attr)
        for module, attr, _ in tracer.SPANS + tracer.COUNTED
    ]
    return targets + [(SectorHamiltonian, "eigensystem")]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_runs_at_toy_size(workload, scratch):
    result = job.run_job(workload, 3, scratch, toy=True)
    assert [c["problems"] for c in result["commands"] if c["failed"]] == []
    summary = _summary(dict(result, traced=False))
    assert summary["correct"]
    assert summary["metrics"]["ok_frac"]["value"] == 1.0
    assert summary["attempted"] == sum(
        c.ops for c in workloads.commands(workload, 3, toy=True)
    )


def test_perturbed_reference_row_gives_positive_fail_frac(scratch):
    reference = scratch / "reference"
    reference.mkdir()
    for name in workloads.FIGURE_TOY:
        shutil.copy(workloads.REFERENCE / name, reference / name)
    target = reference / "sweep_fillings_N10.csv"
    lines = target.read_text(encoding="utf-8").splitlines(keepends=True)
    row = lines[2].split(",")
    row[3] = f"{float(row[3]) + 1e-9:.14e}"  # E_max of the first data row
    lines[2] = ",".join(row)
    target.write_text("".join(lines), encoding="utf-8")

    result = job.run_job("figure_data", 0, scratch / "out", toy=True, reference=reference)
    summary = _summary(dict(result, traced=False))
    assert summary["failed"] / summary["attempted"] > 0
    assert summary["metrics"]["ok_frac"]["value"] < 1.0
    assert not summary["correct"]
    failed = [c["label"] for c in result["commands"] if c["failed"]]
    assert failed == ["sweep_fillings_N10.csv"]


def test_reference_tolerance_is_per_column():
    reference = "# manifest\nN,M,kt_star,E_max\n5,2,4.80048219944513e-01,1.58491728556905e+00\n"
    moved_peak = reference.replace("4.80048219944513e-01", "4.80048219943519e-01")
    lost_peak = reference.replace("4.80048219944513e-01", "4.80048319944513e-01")
    moved_value = reference.replace("1.58491728556905e+00", "1.58491728555905e+00")
    assert workloads.compare_to_reference(moved_peak, reference) == []
    assert workloads.compare_to_reference(lost_peak, reference) != []
    assert workloads.compare_to_reference(moved_value, reference) != []


def test_output_that_differs_between_repeats_is_a_failure(scratch):
    first = job.run_job("peak_wide", 0, scratch, toy=True)
    second = json.loads(json.dumps(first))
    second["commands"][1]["digest"] = "0" * 64
    summary = _summary(dict(first, traced=False), dict(second, traced=False))
    assert summary["failed"] == 1
    assert not summary["correct"]


def test_tracer_restores_what_it_wrapped_and_self_times_are_nonnegative(scratch):
    targets = _wrap_targets()
    before = [owner.__dict__[attr] for owner, attr in targets]
    spans = tracer.Tracer()
    with spans:
        during = [owner.__dict__[attr] for owner, attr in targets]
        for workload in workloads.WORKLOADS:
            for command in workloads.commands(workload, 0, toy=True):
                assert job._run_command(command, scratch).code == 0
    after = [owner.__dict__[attr] for owner, attr in targets]
    assert all(a is not b for a, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
    assert {name for name, *_ in spans.spans} >= set(tracer.REPORTED_SPANS)
    assert min(spans.self_times()) >= 0.0


def test_two_traced_runs_give_identical_counts_and_outputs(scratch):
    for workload in workloads.WORKLOADS:
        plain = job.run_job(workload, 0, scratch, toy=True)
        first = job.run_job(workload, 0, scratch, trace=True, check=False, toy=True)
        second = job.run_job(workload, 0, scratch, trace=True, check=False, toy=True)
        for key in EXACT_COUNTS:
            assert first["layers"][key] == second["layers"][key], (workload, key)
        digests = [c["digest"] for c in plain["commands"]]
        assert [c["digest"] for c in first["commands"]] == digests


def test_reported_metrics_match_benchmark_json(scratch):
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    plain = dict(job.run_job("verify_n12", 0, scratch, toy=True), traced=False)
    traced = dict(
        job.run_job("verify_n12", 0, scratch, trace=True, toy=True), traced=True
    )
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        metrics = _summary(plain, traced, trace=trace)["metrics"]
        assert {m["name"]: m["unit"] for m in spec[section]} == {
            name: metric["unit"] for name, metric in metrics.items()
        }


def test_seed_zero_is_the_published_input_and_seeds_stay_in_range():
    argv = [c.argv for c in workloads.commands("trace_dense", 0)]
    assert argv == [tuple(
        "trace --dots 40 --excited 20 --periods 1 --steps 50000".split()
    )]
    assert [c.argv[2] for c in workloads.commands("peak_wide", 0)] == ["40", "50", "60"]
    assert len(workloads.commands("figure_data", 0)) == 13
    assert workloads.commands("verify_n12", 0)[0].ops == 88
    for seed in range(1, 50):
        sizes, trace_dots = workloads.half_filling_sizes(seed)
        assert sizes == workloads.half_filling_sizes(seed)[0]
        assert len(set(sizes)) == 3 and all(40 <= n <= 60 for n in sizes)
        assert 40 <= trace_dots <= 60


def test_run_refuses_a_directory_without_dotent(scratch):
    shutil.copytree(HERE, scratch / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", scratch)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_n12",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=scratch, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
