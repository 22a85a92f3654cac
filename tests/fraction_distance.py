"""The `Fraction` step distances, kept as a reference for the tests.

`effdyn.dynamics.step_dist` compares two orbit steps on integers over one
denominator.  These are the computations that came before it: each step
as an `Interval` of `Fraction`s, the line distance and the circle's wrap
distance as `Interval`s, and the minimum of their upper ends for the
recurrence bound.
"""

from fractions import Fraction as F

from effdyn import dynamics as dy
from effdyn import space as sp
from effdyn.numerics import Interval


def enclosures(seg):
    """The steps of an interval or circle segment as Intervals, or for
    shifts the cylinder words symbols[j:] of its stream."""
    if seg.symbols:
        return tuple(seg.symbols[j:] for j in range(seg.length))
    return tuple(Interval(F(lo, seg.den), F(hi, seg.den)) for lo, hi in zip(seg.lows, seg.highs))


def line_dist(a, b):
    """Enclosure of {|x - y| : x in a, y in b}."""
    gap = max(a.lo - b.hi, b.lo - a.hi, F(0))
    spread = max(a.hi - b.lo, b.hi - a.lo)
    return Interval(gap, spread)


def circle_dist(a, b):
    """Enclosure of the wrap distance between two lifted-arc enclosures."""
    diff = a - b
    if diff.width >= 1:
        return Interval(F(0), F(1, 2))
    shift = diff.lo.numerator // diff.lo.denominator
    lo, hi = diff.lo - shift, diff.hi - shift  # lo in [0,1)

    def wrap(t):
        t -= t.numerator // t.denominator
        return min(t, 1 - t)

    crosses_zero = lo == 0 or hi >= 1
    crosses_half = lo <= F(1, 2) <= hi or hi >= F(3, 2)
    low = F(0) if crosses_zero else min(wrap(lo), wrap(hi))
    high = F(1, 2) if crosses_half else max(wrap(lo), wrap(hi))
    return Interval(low, high)


def enclosure_dist(space, a, b):
    if space.kind is sp.Kind.UNIT_INTERVAL:
        return line_dist(a, b)
    if space.kind is sp.Kind.CIRCLE:
        return circle_dist(a, b)
    shared = min(len(a), len(b))
    for i in range(shared):
        if a[i] != b[i]:
            return Interval.point(F(1, 1 << i))
    return Interval(F(0), F(1, 1 << shared))


def recurrence_stat(sys, x, n):
    """The least upper end of enclosure_dist between step 0 and steps 1..n,
    or on sequence space of 2**-i for the first difference i of the word
    and its shift by k, within the first 96 symbols."""
    if sys.map_kind is dy.MapKind.SHIFT:
        window = [x.exact(j) for j in range(n + 96)]
        best = F(1)
        for k in range(1, n + 1):
            first_diff = next((j for j in range(96) if window[j] != window[j + k]), None)
            best = min(best, F(1, 1 << (96 if first_diff is None else first_diff)))
        return best
    steps = enclosures(dy.iterate(sys, x, n + 1, 20))
    return min(enclosure_dist(sys.space, steps[0], step).hi for step in steps[1:])
