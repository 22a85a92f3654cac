"""Computable endomorphisms and rigorous orbit computation.

The zoo: angle doubling on [0,1), the tent map on [0,1], rotations of the
circle (rational angle, or any angle given as a point), and shifts on
sequence space.  Every map has an exact implementation on rational (or
symbol-oracle) points, used whenever the point carries its exact
description; otherwise orbits are enclosed by interval images started
from a point approximation, retrying from higher input precision until
every step's enclosure is narrower than requested.

Interval enclosures live on the real line for interval maps and as
lifted-mod-1 intervals for the circle; sequence-space enclosures are
cylinder words.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

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
    """A computable endomorphism with an optional tagged invariant measure."""

    space: Space
    map_kind: MapKind
    angle: Union[F, Point, None] = None  # rotations only
    measure: object = None  # ComputableMeasure known invariant for the map
    name: str = ""

    def with_measure(self, mu) -> "System":
        return System(self.space, self.map_kind, self.angle, mu, self.name)

    @property
    def lipschitz_expanding(self) -> bool:
        return self.map_kind in (MapKind.DOUBLING, MapKind.TENT)


def doubling(measure=None) -> System:
    return System(unit_interval(), MapKind.DOUBLING, measure=measure, name="doubling")


def tent(measure=None) -> System:
    return System(unit_interval(), MapKind.TENT, measure=measure, name="tent")


def rotation(angle=None, measure=None) -> System:
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
    return System(circle(), MapKind.ROTATION, angle=angle, measure=measure, name=name)


def shift(alphabet: int = 2, measure=None) -> System:
    return System(cantor(alphabet), MapKind.SHIFT, measure=measure, name=f"shift({alphabet})")


Enclosure = Union[Interval, Tuple[int, ...]]


@dataclass(frozen=True)
class OrbitSegment:
    """Per-step enclosures of an orbit: enclosures[j] contains T^j(x).

    Interval/circle enclosures are Intervals of width < 2**-precision
    (degenerate on the exact path); sequence-space enclosures are cylinder
    words of length > precision.
    """

    system: System
    length: int
    precision: int
    enclosures: Tuple[Enclosure, ...]
    exact: bool = False

    def __len__(self):
        return self.length


# ---------------------------------------------------------------------------
# Exact rational iteration
# ---------------------------------------------------------------------------


def _mod1(q: F) -> F:
    return q - (q.numerator // q.denominator)


def exact_step(sys: System, value: F) -> F:
    if sys.map_kind is MapKind.DOUBLING:
        return _mod1(2 * value)
    if sys.map_kind is MapKind.TENT:
        return 2 * value if value <= F(1, 2) else 2 - 2 * value
    if sys.map_kind is MapKind.ROTATION:
        if not isinstance(sys.angle, F):
            raise ValueError("exact rotation steps need a rational angle")
        return _mod1(value + sys.angle)
    raise SpaceMismatch("exact_step on rationals needs an interval/circle map")


def exact_orbit(sys: System, start, n: int):
    """First n points of the exact orbit.

    start: rational value for interval/circle maps, or a symbol oracle for
    shifts (in which case entries are shifted oracles' offsets).  Doubling
    and tent orbits keep the start's denominator, so they run on integer
    numerators.
    """
    if sys.map_kind is MapKind.SHIFT:
        symbol_fn = start
        return [(lambda j0: (lambda i: symbol_fn(i + j0)))(j) for j in range(n)]
    q = _mod1(F(start)) if sys.map_kind in (MapKind.DOUBLING, MapKind.ROTATION) else F(start)
    if sys.lipschitz_expanding:
        den = q.denominator
        out = grid_orbit(sys.map_kind, q.numerator, den, n)
        # in place, so that long orbits are never held twice
        for j, v in enumerate(out):
            out[j] = F(v, den)
        return out
    out = []
    value = q
    for _ in range(n):
        out.append(value)
        value = exact_step(sys, value)
    return out


# ---------------------------------------------------------------------------
# Integer grid kernel: doubling and tent on numerators over a fixed denominator
# ---------------------------------------------------------------------------


def grid_orbit(kind: MapKind, v: int, den: int, n: int) -> List[int]:
    """Numerators of the first n orbit points of v/den, all over den.

    Doubling maps v to 2v mod den and the tent map v to 2v or 2den - 2v,
    so every point stays on the grid 1/den (for doubling, 0 <= v < den;
    for the tent map, 0 <= v <= den).
    """
    out = []
    if kind is MapKind.DOUBLING:
        for _ in range(n):
            out.append(v)
            v = (v << 1) % den
    elif kind is MapKind.TENT:
        for _ in range(n):
            out.append(v)
            v <<= 1
            if v > den:
                v = 2 * den - v
    else:
        raise SpaceMismatch(f"no integer grid step for {kind}")
    return out


def grid_preimage(kind: MapKind, pieces: Sequence[Tuple[int, int]], den: int):
    """Exact preimage of open intervals (a/den, b/den), as pieces over 2*den.

    `pieces` are sorted, disjoint and inside [0, den]; so is the result.
    The branch x/2 keeps every numerator; the other branch is x/2 + 1/2
    for doubling and 1 - x/2 for the tent map.
    """
    if kind is MapKind.DOUBLING:
        return list(pieces) + [(a + den, b + den) for a, b in pieces]
    if kind is MapKind.TENT:
        top = 2 * den
        return list(pieces) + [(top - b, top - a) for a, b in reversed(pieces)]
    raise SpaceMismatch(f"no integer preimage for {kind}")


# ---------------------------------------------------------------------------
# Interval images
# ---------------------------------------------------------------------------


class _Straddle(ArithmeticError):
    """Enclosure covers a discontinuity; no useful single-interval image."""


def interval_image(sys: System, box: Interval, angle_box: Optional[Interval] = None) -> Interval:
    """Outer enclosure of the image of `box`; inclusion-monotone.

    Doubling raises _Straddle when the box covers the cut at 1/2, since
    the two image branches land at opposite ends of the interval.
    """
    if sys.map_kind is MapKind.DOUBLING:
        if box.lo < F(1, 2) <= box.hi:
            raise _Straddle(box)
        if box.hi < F(1, 2):
            return Interval(2 * box.lo, 2 * box.hi)
        return Interval(2 * box.lo - 1, 2 * box.hi - 1)
    if sys.map_kind is MapKind.TENT:
        half = F(1, 2)
        if box.hi <= half:
            return Interval(2 * box.lo, 2 * box.hi)
        if box.lo >= half:
            return Interval(2 - 2 * box.hi, 2 - 2 * box.lo)
        return Interval(min(2 * box.lo, 2 - 2 * box.hi), F(1))
    if sys.map_kind is MapKind.ROTATION:
        if angle_box is None:
            angle_box = Interval.point(sys.angle)
        shifted = box + angle_box
        return shifted.shift(-(shifted.lo.numerator // shifted.lo.denominator))
    raise SpaceMismatch(f"no interval image for {sys.map_kind}")


def _angle_enclosure(sys: System, precision: int) -> Interval:
    if isinstance(sys.angle, F):
        return Interval.point(sys.angle)
    return sys.angle.enclosure(precision)


def required_input_precision(sys: System, n: int, p: int) -> int:
    if sys.lipschitz_expanding:
        return p + n + 2
    if sys.map_kind is MapKind.ROTATION:
        return p + 4
    return p + n  # shift: one symbol lost per step


# ---------------------------------------------------------------------------
# Orbit enclosure
# ---------------------------------------------------------------------------


def iterate(sys: System, x: Point, n: int, p: int, precision_cap: int = 1 << 20) -> OrbitSegment:
    """n per-step enclosures, each of width < 2**-p.

    Uses the exact path when the point description and map parameters
    allow it; otherwise interval iteration with retry from higher input
    precision, giving up with PrecisionBlowup at the cap (which genuinely
    happens when an inexact doubling orbit meets the cut point).
    """
    if x.space != sys.space:
        raise SpaceMismatch(f"{x.space} vs {sys.space}")
    if n < 1:
        raise ValueError("need at least one step")
    exact = _try_exact_segment(sys, x, n, p)
    if exact is not None:
        return exact
    m = required_input_precision(sys, n, p)
    while m <= precision_cap:
        try:
            return _enclose_orbit(sys, x, n, p, m)
        except (_Straddle, _WidthFailure):
            m = 2 * m + 8
    raise PrecisionBlowup(f"input precision beyond 2**-{precision_cap} required")


def _try_exact_segment(sys: System, x: Point, n: int, p: int) -> Optional[OrbitSegment]:
    if sys.map_kind is MapKind.SHIFT:
        if not callable(x.exact):
            return None
        window = p + 1
        symbols = [x.exact(j) for j in range(n + window)]
        enclosures = tuple(tuple(symbols[j : j + window]) for j in range(n))
        return OrbitSegment(sys, n, p, enclosures, exact=True)
    if not isinstance(x.exact, F):
        return None
    if sys.map_kind is MapKind.ROTATION and not isinstance(sys.angle, F):
        return None
    values = exact_orbit(sys, x.exact, n)
    return OrbitSegment(sys, n, p, tuple(Interval.point(v) for v in values), exact=True)


class _WidthFailure(ArithmeticError):
    pass


def _enclose_orbit(sys: System, x: Point, n: int, p: int, m: int) -> OrbitSegment:
    target = F(1, 1 << p)
    if sys.map_kind is MapKind.SHIFT:
        word = tuple(x.space.decode(x.approx_index(m)))
        window = len(word)
        enclosures = []
        for j in range(n):
            if window - j <= p:
                raise _WidthFailure()
            enclosures.append(word[j:] if j else word)
        return OrbitSegment(sys, n, p, tuple(enclosures))
    angle_box = None
    if sys.map_kind is MapKind.ROTATION:
        angle_box = _angle_enclosure(sys, m + max(n.bit_length(), 1) + 2)
    box = x.enclosure(m)
    enclosures = []
    for _ in range(n):
        if sys.space.kind is Kind.UNIT_INTERVAL:
            box = Interval(max(box.lo, F(0)), min(box.hi, F(1)))
        if box.width >= target:
            raise _WidthFailure()
        enclosures.append(box)
        box = interval_image(sys, box, angle_box)
    return OrbitSegment(sys, n, p, tuple(enclosures))


# ---------------------------------------------------------------------------
# Distances between enclosures and the Bowen metric
# ---------------------------------------------------------------------------


def _circle_dist_interval(a: Interval, b: Interval) -> Interval:
    """Enclosure of the wrap distance between two lifted-arc enclosures."""
    diff = a - b
    if diff.width >= 1:
        return Interval(F(0), F(1, 2))
    shift = diff.lo.numerator // diff.lo.denominator
    lo, hi = diff.lo - shift, diff.hi - shift  # lo in [0,1)

    def wrap(t: F) -> F:
        t = _mod1(t)
        return min(t, 1 - t)

    crosses_zero = lo == 0 or hi >= 1
    crosses_half = lo <= F(1, 2) <= hi or hi >= F(3, 2)
    low = F(0) if crosses_zero else min(wrap(lo), wrap(hi))
    high = F(1, 2) if crosses_half else max(wrap(lo), wrap(hi))
    return Interval(low, high)


def enclosure_dist(space: Space, a: Enclosure, b: Enclosure) -> Interval:
    if space.kind is Kind.UNIT_INTERVAL:
        return a.dist(b)
    if space.kind is Kind.CIRCLE:
        return _circle_dist_interval(a, b)
    if space.kind is Kind.CANTOR:
        shared = min(len(a), len(b))
        for i in range(shared):
            if a[i] != b[i]:
                return Interval.point(F(1, 1 << i))
        return Interval(F(0), F(1, 1 << shared))
    raise SpaceMismatch(f"no enclosure metric for {space}")


def bowen_dist(sys: System, x: Point, y: Point, n: int, precision: int = 16) -> Interval:
    """Enclosure of d_n(x, y) = max of step distances over the first n steps."""
    if n < 1:
        raise ValueError("d_n needs n >= 1")
    seg_x = iterate(sys, x, n, precision + 2)
    seg_y = iterate(sys, y, n, precision + 2)
    return bowen_dist_segments(seg_x, seg_y)


def bowen_dist_segments(seg_x: OrbitSegment, seg_y: OrbitSegment) -> Interval:
    space = seg_x.system.space
    steps = min(seg_x.length, seg_y.length)
    current = enclosure_dist(space, seg_x.enclosures[0], seg_y.enclosures[0])
    for j in range(1, steps):
        current = current.max_with(
            enclosure_dist(space, seg_x.enclosures[j], seg_y.enclosures[j])
        )
    return current


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


def preimage_words(sys: System, words: Sequence[Tuple[int, ...]]):
    if sys.map_kind is not MapKind.SHIFT:
        raise SpaceMismatch("preimage_words is for shifts")
    k = sys.space.alphabet
    return [(c,) + tuple(w) for w in words for c in range(k)]
