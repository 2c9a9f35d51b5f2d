#!/usr/bin/env python3
# Print one sha256 per domain of the package's numbers, so two checkouts can
# be compared for bit-identical output: run it in each and diff the lines.
# The last domain, refusals, covers which edge inputs the CLI accepts: the
# exit code and stderr of each.  Takes no arguments and writes only one
# temporary file, removed before it exits; the package is imported from the
# checkout's src/ when it is not installed.  Runs in a few seconds.

import contextlib
import hashlib
import io
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from dotent.analysis import sweep_over_M  # noqa: E402
from dotent.cli import main  # noqa: E402
from dotent.closed_form import ModelConfig, amplitude_table  # noqa: E402


# Edge inputs of each command, on either side of a refusal.  Checkouts that
# build the exact table before checking the float range of its roots take
# minutes over the (2059, 1029) maxent.
REFUSALS = (
    ("trace", "--dots", "12", "--excited", "6", "--kt-max", "1e300", "--steps", "4"),
    ("trace", "--dots", "6", "--excited", "2", "--kt-max", "1.0", "--steps", "0"),
    ("trace", "--dots", "6", "--excited", "2", "--kt-max", "1.0", "--steps", "1"),
    ("trace", "--dots", "1", "--excited", "0", "--periods", "1", "--steps", "4"),
    ("maxent", "--dots", "2", "--excited", "2"),
    ("maxent", "--dots", "2059", "--excited", "1029"),
    ("sweep", "--dots", "3..2", "--excited", "1"),
    ("fit", "--excited", "0", "--dots", "7..10"),
    ("fit", "--excited", "6", "--dots", "18..40"),
    ("verify", "--max-dots", "1"),
    ("verify", "--samples", "0"),
    ("verify", "--tol", "nan"),
)


def _run(*argv: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _cli(*argv: str) -> tuple[str, str]:
    """stdout and stderr of one command, which must exit 0."""
    code, out, err = _run(*argv)
    if code != 0:
        sys.exit(f"exit code {code}: {' '.join(argv)}")
    return out, err


def tables():
    # every sector up to N = 64, and one whose largest degeneracy C(M, m)
    # C(N - M, m) is past the float maximum
    sizes = [(n, m) for n in range(1, 65) for m in range(n + 1)] + [(2734, 200)]
    for dots, excited in sizes:
        table = amplitude_table(ModelConfig(dots, excited))
        yield repr((table.numerators, table.denominator)).encode()
        yield table.mixing.tobytes() + table.multipliers.tobytes()


def sweeps():
    for dots in range(2, 65):
        yield repr(sweep_over_M(dots)).encode()


def maxent():
    for dots, excited in ((40, 20), (50, 25), (60, 30), (101, 50)):
        yield _cli("maxent", "--dots", str(dots), "--excited", str(excited))[0].encode()


def trace():
    # perfbench's seed-0 trace_dense command.  The digest is of stdout; the
    # file that perfbench times is written by its own path and must match.
    argv = ("trace", "--dots", "40", "--excited", "20", "--periods", "1",
            "--steps", "50000")
    text, _ = _cli(*argv)
    data = text.split("\n", 1)[1].encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "trace.csv"
        _cli(*argv, "--out", str(path))
        if path.read_bytes().split(b"\n", 1)[1] != data:
            sys.exit("trace: the data lines of --out FILE differ from stdout's")
    yield data


def verify():
    yield _cli("verify", "--max-dots", "12", "--samples", "25")[1].encode()


def refusals():
    # stdout is left out: an accepted trace's manifest carries a timestamp.
    for argv in REFUSALS:
        code, _, err = _run(*argv)
        yield repr((argv, code, err)).encode()


if __name__ == "__main__":
    for domain in (tables, sweeps, maxent, trace, verify, refusals):
        digest = hashlib.sha256()
        for chunk in domain():
            digest.update(chunk)
        print(f"{digest.hexdigest()}  {domain.__name__}")
