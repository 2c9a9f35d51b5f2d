"""Command line emitting plot-ready CSV/JSON datasets.

Every CSV starts with '#' comment lines carrying the run manifest as JSON,
then a header row, then data rows.  Sizes and fillings print as integers,
every other number with 15 significant digits in scientific notation, so
reruns are byte-identical outside the manifest timestamp.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
    SPECTRUM_SUM_TOL,
    ModelConfig,
    NormalizationError,
    amplitude_table,  # unused here; perfbench's tracer wraps it by this name
    as_integer,
    entanglement,  # unused here; perfbench's tracer wraps it by this name
    schmidt_spectrum,  # unused here; perfbench's tracer wraps it by this name
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

    Cells of the N and M columns print as %d, all others as %.14e, with -0.0
    printed as 0.0.  Each CHUNK_ROWS rows go through one _csv_lines pass,
    which returns the chunk's ASCII bytes.  A file is opened in binary mode
    and takes those bytes as they are; stdout takes them decoded to str.
    """
    formats = ["%d" if c in ("N", "M") else "%.14e" for c in columns]
    values = np.asarray(rows, dtype=float)
    head = manifest + "\n" + ",".join(columns) + "\n"
    chunks = (
        _csv_lines(values[start : start + CHUNK_ROWS], formats)
        for start in range(0, len(values), CHUNK_ROWS)
    )
    if path == "-":
        sys.stdout.write(head)
        sys.stdout.writelines(str(chunk, "ascii") for chunk in chunks)
        return
    with open(path, "wb") as stream:
        stream.write(head.encode("utf-8"))
        stream.writelines(chunks)


CHUNK_ROWS = 1024  # rows per numpy pass; a chunk's working set stays in cache
# Decimal exponents E = -100..16 are indexed by E + 100; the kernel formats
# cells with -99 <= E <= 14, and the two outer entries catch a one-off guess.
_EXPONENTS = range(-100, 17)
_TENS = np.array([float(f"1e{e}") for e in _EXPONENTS])
# 10**(14 - E) as a double-double _POWERS + _LOWS; _LOWS is 0 for E >= -8.
_POWERS = np.array([float(10 ** (14 - e)) for e in _EXPONENTS])
_LOWS = np.array([float(10 ** (14 - e) - int(p)) for e, p in zip(_EXPONENTS, _POWERS)])
_EXACT = 100 - 8  # index of E = -8, the smallest with an exact float 10**(14 - E)
# Below _EXACT a rounding decision this close to a boundary goes to Python's %.
_MARGIN = 1e-15
# floor(e * log10(2)) + 100 for each biased binary exponent e + 1023: the
# exponent index guessed for a float in [2**e, 2**(e + 1)).
_GUESSES = np.floor(np.arange(-1023, 1025) * np.log10(2)).astype(np.intp) + 100
# A %.14e cell and its separator as one unpadded 21-byte record: 4-byte
# words in machine byte order "d.dd", three of four digits and "e+XX", then
# a comma or newline.
_CELL = np.dtype(
    [("head", np.uint32), ("quads", np.uint32, 3), ("exponent", np.uint32),
     ("separator", np.uint8)]
)
_QUADS = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8)
_QUADS = _QUADS.view(np.uint32).ravel()  # the four digits of 0..9999
_HEAD, _EXPONENT = (
    np.frombuffer("".join(texts).encode("ascii"), np.uint32)
    for texts in (
        # the first three digits; 1000, a mantissa carried to 1e15, is 1.00
        [f"{t[0]}.{t[1:3]}" for t in map("{:03d}".format, range(1001))],
        [f"e{e:+03d}"[:4] for e in _EXPONENTS],
    )
)


def _decimal(a):
    """(D, I, sure): a rounded half to even to 15 digits is D * 10**(I - 114).

    D is an int64 in [1e14, 1e15], I = E + 100 indexes the decimal exponent E,
    and both hold where sure is set, for every 1e-99 <= a < 1e15.  D = 1e15
    is a mantissa that carried into the next decade, so E is one too low.

    The guess for E comes from a's binary exponent e: [2**e, 2**(e + 1))
    spans log10(2) < 1 decades, so floor(log10 a) is floor(e * log10(2)) or
    one more.  No float lies between 10**E and its nearest float, so
    comparing with that float settles E; one just below 10**E lies in the
    same binade and rounds up to 1e14.  With 10**(14 - E) = b + l,
    a * b = hi + lo exactly (Dekker's product; numpy has no FMA) and
    hi - rint(hi) is exact.  For E >= -8, l = 0 and hi is a * b correctly
    rounded, so only an exact half of hi can round either way.  Below, |lo|
    <= 2**-4 and |a * l| < 0.112, so only |hi - rint(hi)| >= 0.25 needs the
    error terms; no exact tie exists there (5**23 > 2e15), and a decision
    within _MARGIN of its boundary is left unsure.
    """
    i = np.take(_GUESSES, a.view(np.int64) >> 52)  # one low at worst
    i += a >= np.take(_TENS, i + 1)
    i -= a < np.take(_TENS, i)
    b = np.take(_POWERS, i)
    hi = a * b
    n = np.rint(hi)
    limits = np.repeat([0.25 - _MARGIN, 0.5], [_EXACT, len(_EXPONENTS) - _EXACT])
    near = np.flatnonzero(np.abs(hi - n) >= np.take(limits, i))
    sure = np.ones(a.shape, bool)
    if len(near):
        a, b, hi, k = a[near], b[near], hi[near], i[near]
        # a1, b1 keep 26 significant bits.
        a1, b1 = (x * 134217729.0 - (x * 134217729.0 - x) for x in (a, b))
        lo = ((a1 * b1 - hi) + a1 * (b - b1) + (a - a1) * b1) + (a - a1) * (b - b1)
        tail = lo + a * np.take(_LOWS, k)
        d = hi - n[near]
        up, down = (d - 0.5) + tail, (d + 0.5) + tail
        n[near] += (up > 0).astype(float) - (down < 0)
        sure[near] = (k >= _EXACT) | (np.minimum(np.abs(up), np.abs(down)) > _MARGIN)
    return n.astype(np.int64), i, sure


def _python_lines(values, formats) -> list[str]:
    """Each row of a 2-D array as one line of Python's %, with -0.0 as 0.0."""
    line = ",".join(formats) + "\n"
    return [line % tuple(row) for row in (values + 0.0).tolist()]


def _csv_lines(values, formats) -> memoryview:
    """The ASCII bytes of a 2-D array's CSV lines, each as _python_lines prints it.

    A table with a %d column goes to Python whole.  Otherwise a row of cells
    that all lie in 1e-99 <= x < 1e15 is built from exact mantissas: each
    cell is one 21-byte _CELL record, and the chunk's records are its text,
    with no copy.  Python prints every other row whole: one with a zero,
    negative, NaN, inf, three-digit exponent, x >= 1e15, or a rounding too
    close to a boundary to decide in floats.
    """
    if "%d" in formats:
        return memoryview("".join(_python_lines(values, formats)).encode("ascii"))
    rows, cols = values.shape
    kernel = (values >= 1e-99) & (values < 1e15)
    mantissa, index, sure = _decimal(np.where(kernel, values, 1.0).ravel())
    index += mantissa == 10**15
    # D < 2**53 splits once in int64, each half in uint32; numpy divides by
    # a scalar quickly but has no fast divmod.
    high = mantissa // 10**8
    low = (mantissa - high * 10**8).astype(np.uint32)
    high = high.astype(np.uint32)
    head, middle = high // 10**4, low // 10**4
    cells = np.empty(rows * cols, _CELL)
    cells["head"] = np.take(_HEAD, head)
    quads = cells["quads"]
    quads[:, 0] = np.take(_QUADS, high - head * 10**4)
    quads[:, 1] = np.take(_QUADS, middle)
    quads[:, 2] = np.take(_QUADS, low - middle * 10**4)
    cells["exponent"] = np.take(_EXPONENT, index)
    cells["separator"] = ord(",")
    cells["separator"][cols - 1 :: cols] = ord("\n")
    text = cells.view(np.uint8).data
    python = np.flatnonzero(~(kernel.ravel() & sure).reshape(rows, cols).all(axis=1))
    if not len(python):
        return text
    width, start, pieces = _CELL.itemsize * cols, 0, []
    for row, line in zip(python.tolist(), _python_lines(values[python], formats)):
        pieces += [text[start * width : row * width], line.encode("ascii")]
        start = row + 1
    pieces.append(text[start * width :])
    return memoryview(b"".join(pieces))


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
    every sector with 2 <= N <= max_dots, in (N, M, kt) order.  A sector's
    samples are the first samples_per_period rows of one
    `trace_entanglement` grid over its period; a sample whose weights do not
    sum to 1, or a table that fails its own normalization check, is
    recorded as NaN rather than raised, so a corrupt table surfaces as a
    verification failure instead of a crash.

    The brute force runs once per complementary pair {M, N - M}, at the kt
    column of the first member whose table passes its check: sector
    (N, min(M, N - M)) is diagonalized, its samples evolved in one batch,
    and the entropy of its first min(M, N - M) sites serves both sectors.
    That is exact.  A global spin flip maps the (N, N - M) start state to
    "last M sites excited" in sector (N, M); it is a product of local
    unitaries and commutes with the hopping.  Reversing the site order
    gives the (N, M) start state, and commutes with the hopping because
    every dot couples equally to every other.  For a pure state the first
    N - M sites and the last M carry the same entropy.  Both sectors have
    the same period, so they share their grid.

    The size range, the sample count and the tolerance the comparisons
    are judged by are all checked before any work starts.
    """
    max_dots = as_integer("max dots", max_dots)
    samples_per_period = as_integer("samples", samples_per_period)
    if not 2 <= max_dots <= DEFAULT_MAX_DOTS:
        raise ValueError(
            f"max dots must lie in 2..{DEFAULT_MAX_DOTS}, got {max_dots}"
        )
    if samples_per_period < 1:
        raise ValueError(f"need at least one sample, got {samples_per_period}")
    if isinstance(tol, bool) or not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    comparisons = []
    for dots in range(2, max_dots + 1):
        brute = {}
        for excitations in range(0, dots + 1):
            config = ModelConfig(dots, excitations)
            window = period(config) if config.m_prime else 2.0 * math.pi
            try:
                rows = trace_entanglement(config, window, samples_per_period)[:-1]
            except NormalizationError:
                comparisons.append((dots, excitations) + (math.nan,) * 3)
                continue
            kts, cut = rows[:, 0], config.m_prime
            if cut not in brute:
                hamiltonian = build_hamiltonian(build_basis(dots, cut))
                # The amplitudes stay a temporary, freed before the next
                # sector allocates; held in a name, they cost the
                # --max-dots 12 job ~200 more minor faults and 0.2 MB RSS.
                brute[cut] = reduced_entropy(
                    hamiltonian.basis, evolve(hamiltonian, kts), cut
                ).tolist()
            normalized = np.abs(rows[:, 2:].sum(axis=1) - 1.0) <= SPECTRUM_SUM_TOL
            analytical = np.where(normalized, rows[:, 1], np.nan)
            for kt, a, b in zip(kts.tolist(), analytical.tolist(), brute[cut]):
                comparisons.append((dots, excitations, kt, a, b))
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
    kt_max = args.kt_max if args.periods is None else args.periods * period(config)
    rows = trace_entanglement(config, kt_max, args.steps)
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line, built once per process; parsing leaves no state in it."""
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OSError) else EXIT_USAGE
