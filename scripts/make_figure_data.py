#!/usr/bin/env python3
# Regenerate the plot-ready CSV datasets under data/ using the command
# line entry points, so every figure can be rebuilt from a clean checkout.
# Run from anywhere: paths are anchored to the repository root, and the
# package is imported from the checkout's src/ when it is not installed.

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from dotent.cli import main  # noqa: E402

DATA = ROOT / "data"

# (output file, arguments before --out)
RUNS = [
    # entropy vs time, one exact period each
    ("trace_N2_M1.csv", ["trace", "--dots", "2", "--excited", "1",
                         "--periods", "1", "--steps", "512"]),
    ("trace_N4_M1.csv", ["trace", "--dots", "4", "--excited", "1",
                         "--periods", "1", "--steps", "512"]),
    ("trace_N7_M1.csv", ["trace", "--dots", "7", "--excited", "1",
                         "--periods", "1", "--steps", "512"]),
    ("trace_N5_M2.csv", ["trace", "--dots", "5", "--excited", "2",
                         "--periods", "1", "--steps", "1024"]),
    ("trace_N7_M3.csv", ["trace", "--dots", "7", "--excited", "3",
                         "--periods", "1", "--steps", "1024"]),
    ("trace_N11_M3.csv", ["trace", "--dots", "11", "--excited", "3",
                          "--periods", "1", "--steps", "2048"]),
    # peak entanglement across fillings and sizes
    ("sweep_fillings_N10.csv", ["sweep", "--dots", "10"]),
    ("sweep_sizes_M1.csv", ["sweep", "--excited", "1", "--dots", "2..40"]),
    ("sweep_sizes_M2.csv", ["sweep", "--excited", "2", "--dots", "3..40"]),
    ("sweep_sizes_half.csv", ["sweep", "--excited", "half", "--dots", "2..16"]),
    # large-N decay of the peak: line through (N, 1/E_max)
    ("fit_M1.csv", ["fit", "--excited", "1", "--dots", "7..40"]),
    ("fit_M2.csv", ["fit", "--excited", "2", "--dots", "10..40"]),
    ("fit_M3.csv", ["fit", "--excited", "3", "--dots", "12..40"]),
]


def run_all():
    DATA.mkdir(exist_ok=True)
    for name, argv in RUNS:
        target = DATA / name
        code = main(argv + ["--out", str(target)])
        if code != 0:
            sys.exit(f"command failed with exit code {code}: {' '.join(argv)}")
        print(f"wrote {target}")


if __name__ == "__main__":
    run_all()
