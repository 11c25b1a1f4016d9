"""A pytest plugin that runs the tests under Python 3.12's float sum().

From Python 3.12 on, sum() compensates the rounding of float additions
(Neumaier's variant of Kahan summation), where 3.10 and 3.11 add left to
right; a report or mesh built on a float sum() would then differ between
interpreters.  Loaded with -p compensated_sum (tests/ on the import
path), this plugin replaces builtins.sum with compensated_sum, an
emulation of CPython 3.12's rule, before any test runs, and prints how
many float sums it compensated.  tests/test_tooling.py runs the golden
and CLI tests under it.
"""

import builtins
import math

FLOAT_SUMS = [0]  # sums that reached the compensated float path


def compensated_sum(iterable, /, start=0):
    """sum() as CPython 3.12 computes it: exact ints add exactly; from the
    first float on, floats add with Neumaier's compensation and ints
    within a C long add as floats, uncompensated; the compensation joins
    the total at the end, or when an item of another type falls back to
    plain addition."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(item) is not int and type(item) is not bool:
                break
    if type(total) is not float:
        for item in items:
            total = total + item
        return total
    FLOAT_SUMS[0] += 1
    f, c = total, 0.0
    for item in items:
        if type(item) is float:
            t = f + item
            c += (f - t) + item if abs(f) >= abs(item) else (item - t) + f
            f = t
        elif isinstance(item, int) and -(2**63) <= item < 2**63:
            f += float(item)
        else:
            total = (f + c if c and math.isfinite(c) else f) + item
            for rest in items:
                total = total + rest
            return total
    return f + c if c and math.isfinite(c) else f


def pytest_configure(config):
    builtins.sum = compensated_sum


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(f"compensated float sums: {FLOAT_SUMS[0]}")
