"""Command line emitting plot-ready CSV/JSON datasets.

Every CSV starts with '#' comment lines carrying the run manifest as JSON,
then a header row, then data rows.  Sizes and fillings print as integers,
every other number with 15 significant digits in scientific notation, so
reruns are byte-identical outside the manifest timestamp.
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


def _write_csv(path: str, manifest: str, columns, rows) -> None:
    """Write the manifest, the header and the numeric rows to path ('-': stdout).

    Cells of the N and M columns print as %d, all others as %.14e; adding
    0.0 prints -0.0 as 0.0.
    """
    formats = ["%d" if c in ("N", "M") else "%.14e" for c in columns]
    values = np.asarray(rows, dtype=float) + 0.0
    if path == "-":
        out = contextlib.nullcontext(sys.stdout)
    else:
        out = open(path, "w", encoding="utf-8", newline="\n")
    with out as stream:
        stream.write(manifest + "\n" + ",".join(columns) + "\n")
        for start in range(0, len(values), CHUNK_ROWS):
            stream.write(_csv_lines(values[start : start + CHUNK_ROWS], formats))


CHUNK_ROWS = 4096  # rows per numpy pass; a chunk's byte buffer stays a few MB
_TENS = np.array([float(f"1e{e}") for e in range(-8, 23)])  # exact from 1e0 on
# The 4-byte words of a %.14e cell, in machine byte order; zero bytes are padding.
_QUADS = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8)
_QUADS = _QUADS.view(np.uint32).ravel()  # the four digits of 0..9999
_HEAD, _TAIL, _EXPONENT = (
    np.frombuffer("".join(texts).encode("ascii"), np.uint32)
    for texts in (
        [f"{sign}{d}.\0" for sign in "\0-" for d in range(10)],
        [f"{d:02d}e{sign}" for sign in "+-" for d in range(100)],
        [f"{e:02d}\0\0" for e in range(16)],
    )
)


def _decimal(a):
    """(D, E): a rounded half to even to 15 digits is D * 10**(E - 14), D int64.

    For 1e-8 <= a < 1e15, 10**(14 - E) is a float64 and a * 10**(14 - E) is
    exact as hi + lo.  No float lies between 10**E and its nearest float, so
    comparing with that float finds E; one just below 10**E rounds up to 1e14.
    """
    e = np.clip(np.floor(np.log10(a)), -8, 14).astype(int)  # one off at worst
    e = e + (a >= _TENS[e + 9]) - (a < _TENS[e + 8])
    # Dekker's exact product (numpy has no FMA); a1, b1 keep 26 significant bits.
    b = _TENS[22 - e]
    a1, b1 = (x * 134217729.0 - (x * 134217729.0 - x) for x in (a, b))
    hi = a * b
    lo = ((a1 * b1 - hi) + a1 * (b - b1) + (a - a1) * b1) + (a - a1) * (b - b1)
    # hi - n is exact, so each sum has the sign of a rounding decision.  An
    # exact tie n +- 0.5 is a float (so hi, with lo = 0) that rint made even.
    n = np.rint(hi)
    n = n + ((hi - n - 0.5) + lo > 0) - ((hi - n + 0.5) + lo < 0)
    carry = n == 1e15
    return np.where(carry, 1e14, n).astype(np.int64), e + carry


def _csv_lines(values, formats) -> str:
    """CSV lines of a 2-D array, each cell byte-identical to formats[column] % cell.

    %.14e cells with 1e-8 <= |x| < 1e15 are built from exact mantissas; Python
    formats the rest (zero, NaN, inf, other scales, %d) one at a time.
    """
    a = np.abs(values)
    kernel = (a >= 1e-8) & (a < 1e15) & [f == "%.14e" for f in formats]
    columns, unscaled = np.nonzero(~kernel)[1].tolist(), values[~kernel].tolist()
    others = [formats[c] % v for c, v in zip(columns, unscaled)]
    # Whole words per cell, with room for the separator in the last byte.
    width = 4 * max([6] + [len(s) // 4 + 1 for s in others])
    cells = np.zeros(values.shape + (width,), np.uint8)
    text = "".join(s.ljust(width, "\0") for s in others).encode("ascii")
    cells[~kernel] = np.frombuffer(text, np.uint8).reshape(-1, width)
    mantissa, exponent = _decimal(a[kernel])
    words = np.empty((len(mantissa), 6), np.uint32)
    lead, rest = np.divmod(mantissa, 10**14)
    words[:, 0] = _HEAD[10 * (values[kernel] < 0) + lead]
    for i, scale in enumerate((10**10, 10**6, 10**2), start=1):
        quad, rest = np.divmod(rest, scale)
        words[:, i] = _QUADS[quad]
    words[:, 4] = _TAIL[100 * (exponent < 0) + rest]
    words[:, 5] = _EXPONENT[np.abs(exponent)]
    cells.view(np.uint32)[kernel, :6] = words
    cells[..., -1] = ord(",")
    cells[:, -1, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def _parse_dots_spec(spec: str) -> list[int]:
    """Either a single size '10' or an inclusive range '2..31'."""
    if ".." in spec:
        lo_text, hi_text = spec.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty size range {spec!r}")
        return list(range(lo, hi + 1))
    return [int(spec)]


def _oracle_comparisons(
    max_dots: int, samples_per_period: int, tol: float
) -> list[tuple]:
    """The analytical entropy next to the brute-force one, for every sample.

    Returns one (N, M, kt, analytical, brute_force) tuple per sample of
    every sector with 2 <= N <= max_dots; an analytical-side normalization
    failure is recorded as NaN rather than raised, so a corrupt table
    surfaces as a verification failure instead of a crash.  The brute force
    evolves all of a sector's samples in one batch.  The size range, the
    sample count and the tolerance the comparisons are judged by are all
    checked before any work starts.
    """
    if not 2 <= max_dots <= DEFAULT_MAX_DOTS:
        raise ValueError(
            f"max dots must lie in 2..{DEFAULT_MAX_DOTS}, got {max_dots}"
        )
    if samples_per_period < 1:
        raise ValueError(f"need at least one sample, got {samples_per_period}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
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
            kts = np.arange(samples_per_period) * window / samples_per_period
            hamiltonian = build_hamiltonian(build_basis(dots, excitations))
            brute = reduced_entropy(evolve(hamiltonian, kts), excitations)
            for kt, brute_force in zip(kts.tolist(), brute.tolist()):
                try:
                    analytical = entanglement(schmidt_spectrum(table, kt))
                except NormalizationError:
                    analytical = float("nan")
                comparisons.append((dots, excitations, kt, analytical, brute_force))
    return comparisons


def _mismatches(comparisons, tol: float) -> list[tuple]:
    """The comparisons that differ by tol or more; NaN always differs."""
    return [c for c in comparisons if not abs(c[3] - c[4]) < tol]


def verification_failures(
    max_dots: int, samples_per_period: int, tol: float
) -> list[tuple]:
    """The (N, M, kt, analytical, brute_force) samples that disagree."""
    comparisons = _oracle_comparisons(max_dots, samples_per_period, tol)
    return _mismatches(comparisons, tol)


def cmd_trace(args) -> int:
    config = ModelConfig(args.dots, args.excited)
    if args.steps < 2:
        raise ValueError(f"need at least 2 steps, got {args.steps}")
    kt_max = args.kt_max if args.periods is None else args.periods * period(config)
    if not (math.isfinite(kt_max) and kt_max > 0):
        raise ValueError(f"time window must be positive and finite, got {kt_max}")
    # M (N - M), the n = 0 harmonic's, is the largest |phase multiplier|.
    step = math.ulp(kt_max) * max(1, args.excited * (args.dots - args.excited))
    if step >= 1:
        raise ValueError(
            f"time window {kt_max} too long: adjacent times at its end differ by "
            f"{step:.3g} rad of phase, beyond finite precision"
        )
    kts = np.linspace(0.0, kt_max, args.steps + 1)
    times, entropies, weights = trace_entanglement(config, kts)
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
    rows = np.column_stack([times, entropies, weights])
    _write_csv(args.out, manifest, columns, rows)
    return EXIT_OK


def cmd_maxent(args) -> int:
    record = find_max(ModelConfig(args.dots, args.excited))
    print(json.dumps(dataclasses.asdict(record)))
    return EXIT_OK


def cmd_sweep(args) -> int:
    """Sweep the sizes at fixed --excited, else every filling of one size."""
    sizes = _parse_dots_spec(args.dots)
    if args.excited is not None:
        excited = args.excited if args.excited == "half" else int(args.excited)
        records = sweep_over_N(excited, sizes)
    elif len(sizes) == 1:
        records = sweep_over_M(sizes[0])
    else:
        raise ValueError("a range of sizes needs --excited")
    manifest = _manifest_line("sweep", {"dots": args.dots, "excited": args.excited})
    columns = ["N", "M", "kt_star", "E_max", "e_max", "E_MES"]
    rows = [
        (r.config.dots, r.config.excitations, r.kt_star, r.E_max, r.e_max, r.E_MES)
        for r in records
    ]
    _write_csv(args.out, manifest, columns, rows)
    return EXIT_OK


def cmd_fit(args) -> int:
    sizes = check_fit_domain(args.excited, _parse_dots_spec(args.dots))
    records = sweep_over_N(args.excited, sizes)
    fit = fit_inverse_linear(records)
    print(json.dumps(dataclasses.asdict(fit)))
    manifest = _manifest_line("fit", {"excited": args.excited, "dots": args.dots})
    rows = [(r.config.dots, 1.0 / r.E_max) for r in records]
    _write_csv(args.out, manifest, ["N", "inv_E_max"], rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    comparisons = _oracle_comparisons(args.max_dots, args.samples, args.tol)
    failures = _mismatches(comparisons, args.tol)
    # numpy's max propagates NaN, so one NaN sample shows as a nan margin.
    margin = np.abs([c[3] - c[4] for c in comparisons]).max()
    print(
        f"verify: {len(comparisons)} samples across N <= {args.max_dots}, "
        f"{len(failures)} failures at tol {args.tol:g}, max |diff| {margin:.2g}",
        file=sys.stderr,
    )
    if not failures:
        return EXIT_OK
    manifest = _manifest_line(
        "verify",
        {"max_dots": args.max_dots, "samples": args.samples, "tol": args.tol},
    )
    columns = ["N", "M", "kt", "E_analytical", "E_brute_force", "abs_diff"]
    rows = [(*f, abs(f[3] - f[4])) for f in failures]
    _write_csv(args.out, manifest, columns, rows)
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
    window = trace.add_mutually_exclusive_group(required=True)
    window.add_argument("--kt-max", type=float)
    window.add_argument(
        "--periods", type=float,
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
    sweep.add_argument(
        "--dots", required=True,
        help="one size (every filling is swept) or a range like 2..31",
    )
    sweep.add_argument(
        "--excited", default=None,
        help="sweep the sizes at this excitation count, or 'half' for M = N // 2",
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
