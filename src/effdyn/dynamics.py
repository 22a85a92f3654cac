"""Computable endomorphisms and rigorous orbit computation.

The zoo: angle doubling on [0,1), the tent map on [0,1], rotations of the
circle (rational angle, or any angle given as a point), and shifts on
sequence space.  Every map has an exact implementation on rational (or
symbol-oracle) points, used whenever the point carries its exact
description; otherwise orbits are enclosed by interval images started
from a point approximation, retrying from higher input precision until
every step's enclosure is narrower than requested.

Interval enclosures live on the real line for interval maps and as
lifted-mod-1 intervals for the circle, and are computed as integer
numerators over one denominator per orbit, which every step keeps;
a sequence-space orbit is one stream of symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple, Union

from effdyn.numerics import Interval
from effdyn.space import Kind, Point, Space, SpaceMismatch, cantor, circle, unit_interval

F = Fraction


class PrecisionBlowup(RuntimeError):
    """Requested enclosure widths unreachable within the precision cap."""


class MapKind(Enum):
    DOUBLING = "doubling"
    TENT = "tent"
    ROTATION = "rotation"
    SHIFT = "shift"


@dataclass(frozen=True)
class System:
    """A computable endomorphism of one of the zoo's spaces."""

    space: Space
    map_kind: MapKind
    angle: Union[F, Point, None] = None  # rotations only
    name: str = ""


def doubling() -> System:
    return System(unit_interval(), MapKind.DOUBLING, name="doubling")


def tent() -> System:
    return System(unit_interval(), MapKind.TENT, name="tent")


def rotation(angle=None) -> System:
    """Circle rotation; the default angle is sqrt(2)-1, whose continued
    fraction gives known recurrence times for tests."""
    if angle is None:
        from effdyn.space import sqrt2_minus_1

        angle = sqrt2_minus_1(circle())
    if isinstance(angle, Point):
        name = "rotation(point)"
    else:
        angle = F(angle)
        angle -= angle.numerator // angle.denominator
        name = f"rotation({angle})"
    return System(circle(), MapKind.ROTATION, angle=angle, name=name)


def shift(alphabet: int = 2) -> System:
    return System(cantor(alphabet), MapKind.SHIFT, name=f"shift({alphabet})")


@dataclass(frozen=True)
class OrbitSegment:
    """Per-step enclosures of an orbit: step j contains T^j(x).

    Interval and circle steps are the integer numerators lows[j] <= highs[j]
    over the one denominator `den`, of width below den * 2**-p for
    `iterate`'s p (degenerate on the exact path, where `lows` is `highs`).
    On sequence space T^j x is x read from symbol j on: `symbols` holds at
    least length + p known symbols, and step j is the cylinder symbols[j:].
    """

    length: int
    lows: Sequence[int] = ()
    highs: Sequence[int] = ()
    den: int = 1
    symbols: Tuple[int, ...] = ()
    exact: bool = False


# ---------------------------------------------------------------------------
# Exact rational iteration
# ---------------------------------------------------------------------------


def _exact_grid(sys: System, start) -> Tuple[int, int, int]:
    """(v, den, a): the start as v/den, and a rotation's angle as a/den
    with 0 <= a < den (a = 0 for doubling and tent)."""
    q = F(start)
    if sys.map_kind is not MapKind.TENT:
        q -= q.numerator // q.denominator
    if sys.map_kind is not MapKind.ROTATION:
        return q.numerator, q.denominator, 0
    if not isinstance(sys.angle, F):
        raise ValueError("exact rotation steps need a rational angle")
    den = math.lcm(q.denominator, sys.angle.denominator)
    a = sys.angle.numerator * (den // sys.angle.denominator) % den
    return q.numerator * (den // q.denominator), den, a


def exact_orbit(sys: System, start, n: int):
    """First n points of the exact orbit of a rational start under an
    interval or circle map.  Orbits of rational points stay on the grid of
    the start's (and a rotation angle's) denominator, so they run on
    integer numerators.  A shift orbit is the point's symbol stream (see
    `OrbitSegment`), so shifts are refused.
    """
    if sys.map_kind is MapKind.SHIFT:
        raise SpaceMismatch("a shift orbit is its symbol stream: use iterate")
    v, den, a = _exact_grid(sys, start)
    out = grid_orbit(sys.map_kind, v, den, n, a)
    # in place, so that long orbits are never held twice
    for j, v in enumerate(out):
        out[j] = F(v, den)
    return out


# ---------------------------------------------------------------------------
# Integer grid kernel: orbits on numerators over a fixed denominator
# ---------------------------------------------------------------------------

# binary digits written as "0"/"1" text; this maps them to the values 0/1
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def grid_orbit(kind: MapKind, v: int, den: int, n: int, a: int = 0) -> List[int]:
    """Numerators of the first n orbit points of v/den, all over den.

    Doubling maps v to 2v mod den, the tent map v to 2v or 2den - 2v, and
    the rotation by a/den (0 <= a < den) v to v + a mod den, so every
    point stays on the grid 1/den (for doubling and rotations,
    0 <= v < den; for the tent map, 0 <= v <= den).
    """
    out = []
    if kind is MapKind.DOUBLING:
        for _ in range(n):
            out.append(v)
            v <<= 1
            if v >= den:
                v -= den
    elif kind is MapKind.TENT:
        for _ in range(n):
            out.append(v)
            v <<= 1
            if v > den:
                v = 2 * den - v
    elif kind is MapKind.ROTATION:
        for _ in range(n):
            out.append(v)
            v += a
            if v >= den:
                v -= den
    else:
        raise SpaceMismatch(f"no integer grid step for {kind}")
    return out


def digit_windows(digits: Sequence[int], base: int, width: int, n: int) -> List[int]:
    """The base-`base` value of digits[j : j + width], first digit most
    significant, for each j < n, from at least n + width digits: one
    rolling pass, each digit entering once, the window kept mod base**width."""
    modulus, window, windows = base**width, 0, []
    for digit in digits[:width]:
        window = window * base + digit
    for digit in digits[width : n + width]:
        windows.append(window)
        window = (window * base + digit) % modulus
    return windows


def dyadic_windows(sys: System, x: Point, n: int, level: int) -> Optional[Tuple[List[int], int]]:
    """(windows, inside) for a doubling or tent point with an exact dyadic
    description, else None: windows[j] = floor(2**level * T^j x) for j < n,
    T^j x strictly inside that cell for j < inside and windows[j] / 2**level
    beyond.  One pass of `digit_windows` over the zero-padded expansion
    x = 0.b_0 b_1 ... gives the doubling windows w_j, linear in n + level
    where the exact orbit over 2**bits is quadratic.  The tent map folds,
    T^j = T o D^(j-1): where b_(j-1) is 1, T^j x = 1 - D^j x, the window
    2**level - 1 - w_j inside and 2**level - w_j on the grid.  Doubling
    takes 1 to 0; the tent map's 1 is 1 - 0, folded before step 0."""
    q, tent = x.exact, sys.map_kind is MapKind.TENT
    if not (tent or sys.map_kind is MapKind.DOUBLING) or not isinstance(q, F) or q.denominator & (q.denominator - 1):
        return None
    num, bits = q.numerator % q.denominator, q.denominator.bit_length() - 1
    digits = format(num, f"0{bits}b")[: n + level].ljust(n + level, "0").encode().translate(_DIGIT_VALUES)
    windows = digit_windows(digits, 2, level, n)
    inside = min(max(bits - (num & -num).bit_length() - level + 1, 0), n) if num else 0
    if tent:
        folds, top = bytes([q == 1]) + digits[: n - 1], (1 << level) - 1
        windows[:inside] = [top - w if f else w for w, f in zip(windows[:inside], folds)]
        windows[inside:] = [top + 1 - w if f else w for w, f in zip(windows[inside:], folds[inside:])]
    return windows, inside


def grid_preimage(kind: MapKind, pieces: List[Tuple[int, int, int]], den: int):
    """Exact preimage of labelled intervals (a, b, label) with ends a/den,
    b/den, as pieces over 2*den that keep their labels; open and closed
    intervals pull back alike.

    `pieces` are sorted, disjoint and inside [0, den]; so is the result.
    The branch x/2 keeps every numerator; the other branch is x/2 + 1/2
    for doubling and 1 - x/2 for the tent map.
    """
    if kind is MapKind.DOUBLING:
        return pieces + [(a + den, b + den, c) for a, b, c in pieces]
    if kind is MapKind.TENT:
        top = 2 * den
        return pieces + [(top - b, top - a, c) for a, b, c in reversed(pieces)]
    raise SpaceMismatch(f"no integer preimage for {kind}")


def grid_balls(kind: MapKind, cells: int, n: int, t: int) -> Callable[[int], List[Tuple[int, int]]]:
    """Closed Bowen balls of doubling or the tent map on the grid 1/cells:
    ball(v) gives the ball of v as sorted inclusive ranges.

    These are the grid points 0 <= j < cells with |T^k j - T^k v| <= t
    for every k < n.  The window around T^(n-1) v is pulled back and cut
    to the window around each earlier T^k v; the map sends the grid into
    itself, so a grid point j is the even numerator 2j of a preimage piece
    over 2 * cells.  The branch x/2 lands in [0, 1/2] and the other in
    [1/2, 1], so a branch is built only when the window reaches its half.
    Tent orbit values may be cells (the point 1), so windows reach it and
    only the result is clipped.  Scans and separation checks use the grid
    2**g, cover checks the grid b * 2**g of a sample of denominator b.

    For doubling with 4t <= cells and 2**(n-1) dividing cells the ball is
    one range: while |x - y| <= t, a doubling takes the gap to 2(x - y) if
    x and y lie in the same half and to at least cells - 2t > t if not, so
    d_n(v, j) <= t iff v and j lie in the same of the grid's 2**(n-1)
    equal blocks and |v - j| * 2**(n-1) <= t.

    The choice between the two and everything that does not depend on v
    are fixed here, once for all the balls of one grid, depth and radius.
    Both clip with conditionals, not with calls to min and max.
    """
    if n < 1:
        return lambda v: [(0, cells - 1)]  # d_0 has no steps
    if kind is MapKind.DOUBLING and t << 2 <= cells and cells % (1 << (n - 1)) == 0:
        size = cells >> (n - 1)
        reach = t >> (n - 1)
        last = size - 1  # offset of a block's last point

        def ball(v):
            base = v - v % size
            lo, hi, end = v - reach, v + reach, base + last
            return [(lo if lo > base else base, hi if hi < end else end)]

        return ball
    tent, fold = kind is MapKind.TENT, 2 * cells
    top = cells if tent else cells - 1

    def ball(v):
        orbit = grid_orbit(kind, v, cells, n)
        u = orbit[-1]
        ranges = [(u - t if u > t else 0, u + t if u + t < top else top)]
        for u in reversed(orbit[:-1]):
            lo, hi = u - t if u > t else 0, u + t if u + t < top else top
            pulled = ranges if 2 * lo <= cells else []
            if 2 * hi >= cells:
                if tent:
                    pulled = pulled + [(fold - b, fold - a) for a, b in reversed(ranges)]
                else:
                    pulled = pulled + [(a + cells, b + cells) for a, b in ranges]
            ranges = []
            for a, b in pulled:
                a, b = (a + 1) >> 1, b >> 1
                if a < lo:
                    a = lo
                if b > hi:
                    b = hi
                if a > b:
                    continue
                # the pieces come out ordered; the tent branches touch at 1/2
                if ranges and a <= ranges[-1][1] + 1:
                    ranges[-1] = (ranges[-1][0], b)
                else:
                    ranges.append((a, b))
        return [(a, b if b < cells else cells - 1) for a, b in ranges if a < cells]

    return ball


def _angle_enclosure(sys: System, precision: int) -> Interval:
    if isinstance(sys.angle, F):
        return Interval.point(sys.angle)
    return sys.angle.enclosure(precision)


def required_input_precision(sys: System, n: int, p: int) -> int:
    if sys.map_kind in (MapKind.DOUBLING, MapKind.TENT):
        return p + n + 2
    if sys.map_kind is MapKind.ROTATION:
        return p + 4
    return p + n  # shift: one symbol lost per step


# ---------------------------------------------------------------------------
# Orbit enclosure
# ---------------------------------------------------------------------------

#: By default `iterate` gives up once the input precision would exceed this
#: multiple of `required_input_precision`: the retries double it each time,
#: so at most five enclosure passes run before PrecisionBlowup.
PRECISION_CAP_FACTOR = 32


def iterate(
    sys: System, x: Point, n: int, p: int, precision_cap: Optional[int] = None
) -> OrbitSegment:
    """n per-step enclosures, each of width < 2**-p.

    Uses the exact path when the point description and map parameters
    allow it; otherwise interval iteration with retry from higher input
    precision, giving up with PrecisionBlowup beyond `precision_cap` bits
    (by default PRECISION_CAP_FACTOR times the required input precision).
    That genuinely happens when an inexact doubling orbit meets the cut
    point, or passes closer to it than the cap can resolve.
    """
    if x.space != sys.space:
        raise SpaceMismatch(f"{x.space} vs {sys.space}")
    if n < 1:
        raise ValueError("need at least one step")
    exact = _try_exact_segment(sys, x, n, p)
    if exact is not None:
        return exact
    m = required_input_precision(sys, n, p)
    if precision_cap is None:
        precision_cap = PRECISION_CAP_FACTOR * m
    while m <= precision_cap:
        try:
            return _enclose_segment(sys, x, n, p, m)
        except (_Straddle, _WidthFailure):
            m = 2 * m + 8
    raise PrecisionBlowup(f"input precision beyond 2**-{precision_cap} required")


def _try_exact_segment(sys: System, x: Point, n: int, p: int) -> Optional[OrbitSegment]:
    if sys.map_kind is MapKind.SHIFT:
        if not callable(x.exact):
            return None
        return OrbitSegment(n, symbols=tuple(map(x.exact, range(n + p + 1))), exact=True)
    if not isinstance(x.exact, F):
        return None
    if sys.map_kind is MapKind.ROTATION and not isinstance(sys.angle, F):
        return None
    v, den, a = _exact_grid(sys, x.exact)
    orbit = grid_orbit(sys.map_kind, v, den, n, a)
    return OrbitSegment(n, orbit, orbit, den, exact=True)


class _Straddle(ArithmeticError):
    """Enclosure covers a discontinuity; no useful single-interval image."""


class _WidthFailure(ArithmeticError):
    pass


def _enclose_segment(sys: System, x: Point, n: int, p: int, m: int) -> OrbitSegment:
    """Interval iteration from the input enclosure at precision m, on
    numerators over one denominator: the lcm of the denominators of the
    input and angle enclosures, which every image keeps.

    Each step clips to [0, 1] on the unit interval and fails once its
    width reaches 2**-p.  Doubling raises _Straddle when the box covers
    the cut at 1/2, since the two image branches land at opposite ends of
    the interval; the tent map folds a box covering 1/2 up to 1; a
    rotation adds the angle enclosure and reduces by the floor of the low
    end.
    """
    if sys.map_kind is MapKind.SHIFT:
        word = tuple(x.space.decode(x.approx_index(m)))
        if len(word) - (n - 1) <= p:
            raise _WidthFailure()
        return OrbitSegment(n, symbols=word)
    box = x.enclosure(m)
    rotation = sys.map_kind is MapKind.ROTATION
    angle = _angle_enclosure(sys, m + max(n.bit_length(), 1) + 2) if rotation else Interval.point(0)
    ends = (box.lo, box.hi, angle.lo, angle.hi)
    den = math.lcm(*(q.denominator for q in ends))
    lo, hi, alo, ahi = (q.numerator * (den // q.denominator) for q in ends)
    clip = sys.space.kind is Kind.UNIT_INTERVAL
    doubling = sys.map_kind is MapKind.DOUBLING
    lows, highs = [], []
    for _ in range(n):
        if clip:
            if lo < 0:
                lo = 0
            if hi > den:
                hi = den
        if (hi - lo) << p >= den:
            raise _WidthFailure()
        lows.append(lo)
        highs.append(hi)
        if rotation:
            lo += alo
            hi += ahi
            if lo >= den or lo < 0:
                wraps = lo // den
                lo -= wraps * den
                hi -= wraps * den
        elif doubling:
            lo <<= 1
            hi <<= 1
            if lo >= den:
                lo -= den
                hi -= den
            elif hi >= den:
                raise _Straddle()
        elif hi << 1 <= den:
            lo <<= 1
            hi <<= 1
        elif lo << 1 >= den:
            lo, hi = 2 * (den - hi), 2 * (den - lo)
        else:
            lo, hi = min(lo << 1, 2 * (den - hi)), den
    return OrbitSegment(n, lows, highs, den)


# ---------------------------------------------------------------------------
# Step distances
# ---------------------------------------------------------------------------


def step_dist(circle: bool, den: int, alo: int, ahi: int, blo: int, bhi: int) -> Tuple[int, int]:
    """(lo, hi) over 2 * den: the enclosure of the distance between the
    steps [alo, ahi] and [blo, bhi] over den, |x - y| on the line and the
    wrap distance on the circle, whose largest value 1/2 is den.

    On the circle the difference [dlo, dhi] is shifted so that dlo lies in
    [0, den); the wrap distance then reaches 0 when the difference holds
    an integer other than dlo = 0 (where it is an end's value), 1/2 when
    it holds a half-integer, and otherwise lies between its values at the
    two ends.
    """
    dlo, dhi = alo - bhi, ahi - blo
    if not circle:
        return 2 * max(dlo, -dhi, 0), 2 * max(dhi, -dlo)
    shift = dlo // den * den
    dlo, dhi = dlo - shift, dhi - shift
    ends = [2 * min(t % den, den - t % den) for t in (dlo, dhi)]
    low = 0 if dhi >= den else min(ends)
    high = den if 2 * dlo <= den <= 2 * dhi or 2 * dhi >= 3 * den else max(ends)
    return low, high


# ---------------------------------------------------------------------------
# Exact preimages of ball unions (zoo maps), for invariance checks
# ---------------------------------------------------------------------------


def preimage_pieces(sys: System, pieces: Sequence[Tuple[F, F]]):
    """Exact preimage of a union of open intervals/arcs, as pieces."""
    out = []
    for a, b in pieces:
        if sys.map_kind is MapKind.DOUBLING:
            out.append((a / 2, b / 2))
            out.append((a / 2 + F(1, 2), b / 2 + F(1, 2)))
        elif sys.map_kind is MapKind.TENT:
            out.append((a / 2, b / 2))
            out.append((1 - b / 2, 1 - a / 2))
        elif sys.map_kind is MapKind.ROTATION:
            if not isinstance(sys.angle, F):
                raise ValueError("exact preimages need a rational angle")
            out.append((a - sys.angle, b - sys.angle))
        else:
            raise SpaceMismatch("preimage_pieces is for interval/circle maps")
    return out
