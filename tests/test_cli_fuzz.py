"""Property-based fuzzing of the numeric command-line arguments.

Each option is drawn from a small integer range or, for a time window,
from a float range or a power of ten up to 1e308.  In about half of the
cases one option is then replaced by junk: any finite float or a malformed
token.  Whatever comes in, a command exits 0, 2 (usage error) or, for
verify, 1; a usage error writes nothing to stdout, and a success writes
only finite numbers.  trace adds no rule of its own: once its texts parse
and the configuration and its period stand, it exits 2 exactly when
`trace_entanglement` refuses the window and step count.
"""

import contextlib
import io
import json
import math

from hypothesis import example, given, settings, strategies as st

import dotent.cli as cli
from dotent.analysis import period
from dotent.closed_form import ModelConfig, trace_entanglement
from dotent.oracle import DEFAULT_MAX_DOTS

FINITE = st.floats(allow_nan=False, allow_infinity=False)
JUNK = st.one_of(
    FINITE.map(repr), st.sampled_from(["nan", "inf", "-inf", "-0", "1e400", "abc", ""])
)


def ints(lo, hi):
    # sampled_from spreads draws evenly; st.integers favours the bounds.
    return st.sampled_from([str(i) for i in range(lo, hi + 1)])


@st.composite
def arguments(draw, **options):
    """One text per option from its strategy, with at most one made junk."""
    texts = {name: draw(strategy) for name, strategy in options.items()}
    spoiled = draw(st.one_of(st.none(), st.sampled_from(list(options))))
    if spoiled is not None:
        texts[spoiled] = draw(JUNK)
    return texts


def run(command, texts):
    # --flag=value keeps a value such as "-inf" or "-1e-05" from being read
    # as an option name.
    argv = [command] + [f"--{name}={text}" for name, text in texts.items()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def data_cells(out):
    rows = [line for line in out.splitlines() if not line.startswith("#")][1:]
    return [float(cell) for row in rows for cell in row.split(",")]


@settings(max_examples=300, deadline=None)
@given(
    window=st.sampled_from(["kt-max", "periods"]),
    texts=arguments(
        dots=ints(1, 12),
        excited=ints(-1, 13),
        length=st.one_of(
            st.floats(-1.0, 20.0).map(repr),
            st.integers(-320, 308).map(lambda exponent: f"1e{exponent}"),
        ),
        steps=ints(-2, 64),
    ),
)
# Windows whose float spacing at the end spans a radian of phase or more: the
# first printed a last time that reads back as inf, the second meaningless
# weights, both with exit 0.
@example(
    window="kt-max",
    texts={"dots": "1", "excited": "0", "length": "1.7976931348623151e+308",
           "steps": "2"},
)
@example(
    window="kt-max",
    texts={"dots": "12", "excited": "6", "length": "1e300", "steps": "4"},
)
# The smallest step count trace_entanglement accepts.
@example(
    window="periods",
    texts={"dots": "6", "excited": "2", "length": "1.0", "steps": "1"},
)
def test_trace(window, texts):
    texts = dict(texts)  # an @example's dict is shared between runs
    texts[window] = texts.pop("length")
    code, out = run("trace", texts)
    assert code in (0, 2)
    if code == 2:
        assert out == ""
    else:
        cells = data_cells(out)
        assert cells and all(math.isfinite(c) for c in cells)
    try:
        config = ModelConfig(int(texts["dots"]), int(texts["excited"]))
        kt_max, steps = float(texts[window]), int(texts["steps"])
        if window == "periods":
            kt_max *= period(config)
    except ValueError:
        return
    try:
        trace_entanglement(config, kt_max, steps)
    except ValueError:
        assert code == 2
    else:
        assert code == 0


@settings(max_examples=100, deadline=None)
@given(texts=arguments(dots=ints(1, 9), excited=ints(-1, 10)))
def test_maxent(texts):
    code, out = run("maxent", texts)
    assert code in (0, 2)
    if code == 2:
        assert out == ""
    else:
        assert math.isfinite(json.loads(out)["E_max"])


@settings(max_examples=60, deadline=None)
@given(
    texts=arguments(
        **{"max-dots": st.one_of(ints(-1, 5), st.just(str(DEFAULT_MAX_DOTS + 1)))},
        samples=ints(-2, 4),
        tol=st.one_of(st.sampled_from(["1e-9", "1e-15"]), FINITE.map(repr)),
    )
)
def test_verify(texts):
    code, out = run("verify", texts)
    assert code in (0, 1, 2)
    if code != 1:
        assert out == ""
