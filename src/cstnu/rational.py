"""Exact rational time values and the saturating infinity sentinel.

Layers that compare many times count them as integers: every time of a
set times `_least_scale` of the set, one `int` each (`_scaled`).  Sums,
differences and order survive scaling by one positive constant, so the
integer comparisons are the exact ones.
"""

import math
from fractions import Fraction
from math import lcm

INF = math.inf


def rational(value) -> Fraction:
    """Parse a rational from an int, Fraction, or string ("3/2", "1.5", "7").

    A plain integer string, ASCII digits after an optional "-", is read by
    `int`, which skips `Fraction`'s regular expression; every other
    string, and one that `int` refuses (past its digit limit), goes to
    `Fraction`, so both paths accept and return the same."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError("booleans are not temporal values")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        digits = value[1:] if value[:1] == "-" else value
        if digits.isascii() and digits.isdigit():
            try:
                return Fraction(int(value))
            except ValueError:
                pass
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError("not a rational: %r" % (value,)) from exc
    raise ValueError("not a rational: %r" % (value,))


def _least_scale(values):
    """The least positive `int` that makes every rational of `values` an
    integer when multiplied by it: the lcm of their denominators."""
    return lcm(*{value.denominator for value in values})


def _scaled(value, scale):
    """The rational `value` times `scale`, as an `int`; `ValueError` when
    `value` is not a multiple of 1/`scale`."""
    if scale % value.denominator:
        raise ValueError("%s is not a multiple of 1/%d" % (value, scale))
    return value.numerator * (scale // value.denominator)
