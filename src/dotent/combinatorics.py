"""Exact integer primitives of the analytical path."""

from __future__ import annotations

import math


def binomial(x: int, y: int) -> int:
    """C(x, y), with out-of-range y giving 0 instead of an error.

    The amplitude sums generate lower indices such as -1 whose terms must
    vanish, so y < 0 and y > x return 0.  A negative upper index is never
    meaningful here and is rejected.
    """
    if x < 0:
        raise ValueError(f"binomial needs x >= 0, got x={x}")
    if y < 0 or y > x:
        return 0
    return math.comb(x, y)


def double_factorial(x: int) -> int:
    """x!! = x (x-2) (x-4) ..., with the empty products (-1)!! = 0!! = 1."""
    if x < -1:
        raise ValueError(f"double_factorial needs x >= -1, got {x}")
    return math.prod(range(x, 0, -2))
