"""A fixed unit of reference work, to express times at a fixed machine speed.

The hosts this benchmark runs on are shared, and their speed drifts: the
same pure-Python loop can take anywhere from 1x to 2x its fastest time from
one second to the next, with CPU time equal to wall time, so the drift is
the CPU's, not the scheduler's. A wall time alone then says as much about
the host as about the program.

So every timed call is bracketed by `unit()`, a fixed piece of work of the
same kind as the verifier's (exact fractions, tuple-keyed dicts, small
objects, short strings) that does not touch weakmem. A call's calibrated
time is its wall time times `UNIT_S` divided by the wall time of the units
around it: the time the call would take on a host where one unit takes
exactly `UNIT_S`. A change to the verifier moves the call and not the unit,
so it moves the calibrated time; a change in host speed moves both, and
cancels.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# About the wall time of one unit on the host the bounds were set on (2-core
# Intel Xeon VM, Python 3.11), where it ranged from 3 to 6 ms with the host's
# speed. Fixed: it only sets the scale.
UNIT_S = 0.0040


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def unit() -> Fraction:
    """The reference work; the same instructions on every call."""
    acc = Fraction(0)
    seen: dict = {}
    cells: list = []
    for i in range(400):
        f = Fraction(i % 17 + 1, i % 13 + 2)
        acc = acc + f * f - Fraction(1, 3)
        key = ("x%d" % (i % 97), i % 5)
        seen[key] = seen.get(key, 0) + 1
        cells.append(_Cell(key, acc))
        if len(cells) > 64:
            del cells[:32]
    return acc


def timed_unit() -> float:
    start = perf_counter()
    unit()
    return perf_counter() - start
