"""Command line emitting plot-ready CSV/JSON datasets.

Every CSV starts with '#' comment lines carrying the run manifest as JSON,
then a header row, then data rows.  Real numbers are printed with 15
significant digits in scientific notation so reruns are byte-identical
outside the manifest timestamp.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analysis import (
    check_fit_domain,
    find_max,
    fit_inverse_linear,
    period,
    sweep_over_M,
    sweep_over_N,
)
from .closed_form import (
    ModelConfig,
    NormalizationError,
    amplitude_table,
    entanglement,
    schmidt_spectrum,
    trace_entanglement,
)
from .oracle import (
    DEFAULT_MAX_DOTS,
    build_basis,
    build_hamiltonian,
    evolve,
    reduced_entropy,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _manifest_line(command: str, parameters: dict) -> str:
    """The '# {json}' run manifest that opens every CSV."""
    manifest = {
        "command": command,
        "parameters": parameters,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tool_version": __version__,
    }
    return "# " + json.dumps(manifest, sort_keys=True)


def _fmt(x: float) -> str:
    return f"{x + 0.0:.14e}"


@contextlib.contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as stream:
            yield stream


def _write_csv(stream, manifest: str, columns, rows) -> None:
    stream.write(manifest + "\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(row) + "\n")


def _parse_dots_spec(spec: str) -> list[int]:
    """Either a single size '10' or an inclusive range '2..31'."""
    if ".." in spec:
        lo_text, hi_text = spec.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty size range {spec!r}")
        return list(range(lo, hi + 1))
    return [int(spec)]


def _oracle_comparisons(max_dots: int, samples_per_period: int) -> list[tuple]:
    """The analytical entropy next to the brute-force one, for every sample.

    Returns one (N, M, kt, analytical, brute_force) tuple per sample of
    every sector with 2 <= N <= max_dots; an analytical-side normalization
    failure is recorded as NaN rather than raised, so a corrupt table
    surfaces as a verification failure instead of a crash.  The size range
    is checked against the brute force's budget before any work starts.
    """
    if not 2 <= max_dots <= DEFAULT_MAX_DOTS:
        raise ValueError(
            f"max dots must lie in 2..{DEFAULT_MAX_DOTS}, got {max_dots}"
        )
    if samples_per_period < 1:
        raise ValueError(f"need at least one sample, got {samples_per_period}")
    comparisons = []
    for dots in range(2, max_dots + 1):
        for excitations in range(0, dots + 1):
            config = ModelConfig(dots, excitations)
            try:
                table = amplitude_table(config)
            except NormalizationError:
                comparisons.append(
                    (dots, excitations, float("nan"), float("nan"), float("nan"))
                )
                continue
            window = period(config) if config.m_prime else 2.0 * math.pi
            basis = build_basis(dots, excitations)
            hamiltonian = build_hamiltonian(basis)
            for i in range(samples_per_period):
                kt = i * window / samples_per_period
                try:
                    analytical = entanglement(schmidt_spectrum(table, kt))
                except NormalizationError:
                    analytical = float("nan")
                brute = reduced_entropy(evolve(hamiltonian, kt), excitations)
                comparisons.append((dots, excitations, kt, analytical, brute))
    return comparisons


def _mismatches(comparisons, tol: float) -> list[tuple]:
    """The comparisons that differ by tol or more; NaN always differs."""
    return [c for c in comparisons if not abs(c[3] - c[4]) < tol]


def verification_failures(
    max_dots: int, samples_per_period: int, tol: float
) -> list[tuple]:
    """The (N, M, kt, analytical, brute_force) samples that disagree."""
    return _mismatches(_oracle_comparisons(max_dots, samples_per_period), tol)


def cmd_trace(args) -> int:
    config = ModelConfig(args.dots, args.excited)
    if args.steps < 2:
        raise ValueError(f"need at least 2 steps, got {args.steps}")
    if args.periods is not None:
        kt_max = args.periods * period(config)
    elif args.kt_max is not None:
        kt_max = args.kt_max
    else:
        raise ValueError("one of --kt-max or --periods is required")
    if not (math.isfinite(kt_max) and kt_max > 0):
        raise ValueError(f"time window must be positive and finite, got {kt_max}")
    times, entropies, weights = trace_entanglement(
        config, np.linspace(0.0, kt_max, args.steps + 1)
    )
    manifest = _manifest_line(
        "trace",
        {
            "dots": args.dots,
            "excited": args.excited,
            "kt_max": kt_max,
            "steps": args.steps,
        },
    )
    columns = ["kt", "E"] + [f"P_{m}" for m in range(config.m_prime + 1)]
    # + 0.0 prints -0.0 as 0.0, as _fmt does; each row is one preformatted field.
    values = np.column_stack([times, entropies, weights]) + 0.0
    line = ",".join(["%.14e"] * len(columns))
    rows = ([line % tuple(row)] for row in values.tolist())
    with _open_out(args.out) as stream:
        _write_csv(stream, manifest, columns, rows)
    return EXIT_OK


def cmd_maxent(args) -> int:
    record = find_max(ModelConfig(args.dots, args.excited))
    print(json.dumps(dataclasses.asdict(record)))
    return EXIT_OK


def _sweep_rows(records):
    for r in records:
        yield [
            str(r.config.dots),
            str(r.config.excitations),
            _fmt(r.kt_star),
            _fmt(r.E_max),
            _fmt(r.e_max),
            _fmt(r.E_MES),
        ]


def cmd_sweep(args) -> int:
    sizes = _parse_dots_spec(args.dots)
    if args.over_M:
        if args.excited is not None:
            raise ValueError("--excited applies to --over-N only")
        if len(sizes) != 1:
            raise ValueError("--over-M takes a single --dots value")
        records = sweep_over_M(sizes[0])
        parameters = {"mode": "over-M", "dots": sizes[0]}
    else:
        if args.excited is None:
            raise ValueError("--over-N requires --excited")
        excited = args.excited if args.excited == "half" else int(args.excited)
        records = sweep_over_N(excited, sizes)
        parameters = {"mode": "over-N", "dots": args.dots, "excited": args.excited}
    manifest = _manifest_line("sweep", parameters)
    columns = ["N", "M", "kt_star", "E_max", "e_max", "E_MES"]
    with _open_out(args.out) as stream:
        _write_csv(stream, manifest, columns, _sweep_rows(records))
    return EXIT_OK


def cmd_fit(args) -> int:
    sizes = check_fit_domain(args.excited, _parse_dots_spec(args.dots))
    records = sweep_over_N(args.excited, sizes)
    fit = fit_inverse_linear(args.excited, sizes, records=records)
    print(json.dumps(dataclasses.asdict(fit)))
    manifest = _manifest_line(
        "fit", {"excited": args.excited, "dots": args.dots}
    )
    columns = ["N", "inv_E_max"]
    rows = (
        [str(r.config.dots), _fmt(1.0 / r.E_max)] for r in records
    )
    with _open_out(args.out) as stream:
        _write_csv(stream, manifest, columns, rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    comparisons = _oracle_comparisons(args.max_dots, args.samples)
    failures = _mismatches(comparisons, args.tol)
    print(
        f"verify: {len(comparisons)} samples across N <= {args.max_dots}, "
        f"{len(failures)} failures at tol {args.tol:g}",
        file=sys.stderr,
    )
    if not failures:
        return EXIT_OK
    manifest = _manifest_line(
        "verify",
        {"max_dots": args.max_dots, "samples": args.samples, "tol": args.tol},
    )
    columns = ["N", "M", "kt", "E_analytical", "E_brute_force", "abs_diff"]
    rows = (
        [str(n), str(m), _fmt(kt), _fmt(a), _fmt(b), _fmt(abs(a - b))]
        for n, m, kt, a, b in failures
    )
    with _open_out(args.out) as stream:
        _write_csv(stream, manifest, columns, rows)
    return EXIT_VERIFY_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dotent",
        description="Entanglement dynamics of equally coupled spin-1/2 dots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace = sub.add_parser("trace", help="entropy and Schmidt weights over time")
    trace.add_argument("--dots", type=int, required=True)
    trace.add_argument("--excited", type=int, required=True)
    trace.add_argument("--kt-max", type=float, default=None)
    trace.add_argument(
        "--periods", type=float, default=None,
        help="time window as a multiple of the exact period",
    )
    trace.add_argument("--steps", type=int, required=True)
    trace.add_argument("--out", default="-")
    trace.set_defaults(func=cmd_trace)

    maxent = sub.add_parser("maxent", help="peak entanglement over one period")
    maxent.add_argument("--dots", type=int, required=True)
    maxent.add_argument("--excited", type=int, required=True)
    maxent.set_defaults(func=cmd_maxent)

    sweep = sub.add_parser("sweep", help="peak records across fillings or sizes")
    mode = sweep.add_mutually_exclusive_group(required=True)
    mode.add_argument("--over-M", dest="over_M", action="store_true")
    mode.add_argument("--over-N", dest="over_N", action="store_true")
    sweep.add_argument(
        "--dots", required=True,
        help="single size for --over-M, inclusive range like 2..31 for --over-N",
    )
    sweep.add_argument(
        "--excited", default=None,
        help="excitation count for --over-N, or 'half' for M = N // 2",
    )
    sweep.add_argument("--out", default="-")
    sweep.set_defaults(func=cmd_sweep)

    fit = sub.add_parser("fit", help="line through 1/E_max beyond the critical size")
    fit.add_argument("--excited", type=int, required=True)
    fit.add_argument("--dots", required=True, help="inclusive range like 8..40")
    fit.add_argument("--out", default="-")
    fit.set_defaults(func=cmd_fit)

    verify = sub.add_parser(
        "verify", help="analytical spectra against brute-force diagonalization"
    )
    verify.add_argument("--max-dots", dest="max_dots", type=int, default=10)
    verify.add_argument("--samples", type=int, default=25)
    verify.add_argument("--tol", type=float, default=1e-9)
    verify.add_argument("--out", default="-")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
