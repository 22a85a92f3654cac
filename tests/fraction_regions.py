"""The `Fraction` region algebra, kept as a reference for the tests.

`effdyn.measure` holds unions of balls as integer pieces over one
denominator and weighs them with `_MixtureModel.masses`.  These are the
separate computations that came before it: open pieces with rational
ends, a circle normaliser that cuts the circle at an uncovered arc end,
and a mixture's mass as base_weight * length plus the weights of the
point masses each region contains.
"""

from dataclasses import dataclass
from fractions import Fraction as F
from typing import Tuple

from effdyn import space as sp
from effdyn.measure import _merge_pieces


@dataclass(frozen=True)
class LineRegion:
    """Open subset of [0, 1] as merged open pieces (may overhang [0, 1])."""

    pieces: Tuple[Tuple[F, F], ...]

    def contains(self, q: F) -> bool:
        return any(a < q < b for a, b in self.pieces)

    def length(self) -> F:
        total = F(0)
        for a, b in self.pieces:
            lo, hi = max(a, F(0)), min(b, F(1))
            if lo < hi:
                total += hi - lo
        return total

    def intersect(self, other: "LineRegion") -> "LineRegion":
        out = []
        for a, b in self.pieces:
            for c, d in other.pieces:
                lo, hi = max(a, c), min(b, d)
                if lo < hi:
                    out.append((lo, hi))
        return LineRegion(tuple(_merge_pieces(out)))


@dataclass(frozen=True)
class CircleRegion:
    """Open subset of the circle as arcs (a, b) with a in [0,1), b <= a+1."""

    pieces: Tuple[Tuple[F, F], ...]
    full: bool = False

    def contains(self, q: F) -> bool:
        if self.full:
            return True
        q = q - (q.numerator // q.denominator)
        return any(a < q + t < b for a, b in self.pieces for t in (0, 1))

    def length(self) -> F:
        if self.full:
            return F(1)
        return sum((b - a for a, b in self.pieces), F(0))

    def intersect(self, other: "CircleRegion") -> "CircleRegion":
        if self.full:
            return other
        if other.full:
            return self
        out = []
        for a, b in self.pieces:
            for c, d in other.pieces:
                for t in (-1, 0, 1):
                    lo, hi = max(a, c + t), min(b, d + t)
                    if lo < hi:
                        out.append((lo, hi))
        return circle_region(out)


def circle_region(arcs) -> CircleRegion:
    """Normalize raw arcs (any rational endpoints, length <= 1) to a region.

    Strategy: an uncovered cut point always exists among arc endpoints when
    the union is proper (the closure of each complement component starts at
    an arc end), so shift coordinates to such a point, merge linearly, and
    shift back.  An arc of length 1 leaves out its start point.
    """
    raw = []
    for a, b in arcs:
        if a >= b:
            continue
        if b - a > 1:
            return CircleRegion((), full=True)
        shift = a.numerator // a.denominator
        raw.append((a - shift, b - shift))  # start in [0,1), end <= start+1
    if not raw:
        return CircleRegion(())

    def covered(q: F) -> bool:
        return any(a < q + t < b for a, b in raw for t in (0, 1))

    cut = None
    for _, b in raw:
        candidate = b - (b.numerator // b.denominator) if b >= 1 else b
        if not covered(candidate):
            cut = candidate
            break
    if cut is None:
        return CircleRegion((), full=True)
    shifted = []
    for a, b in raw:
        s = a - cut if a >= cut else a - cut + 1
        shifted.append((s, s + (b - a)))
    merged = _merge_pieces(shifted)
    out = []
    for a, b in merged:
        start = a + cut
        if start >= 1:
            start -= 1
        out.append((start, start + (b - a)))
    return CircleRegion(tuple(sorted(out)))


def region_of_balls(space, balls):
    """The union of open balls on the interval or circle."""
    arcs = [(b.center_desc - b.radius, b.center_desc + b.radius) for b in balls]
    if space.kind is sp.Kind.CIRCLE:
        return circle_region(arcs)
    return LineRegion(tuple(_merge_pieces(arcs)))


def region_measure(model, region) -> F:
    """The mass of a region under a mixture model (base_weight, atoms)."""
    total = model.base_weight * region.length()
    for position, weight in model.atoms:
        if region.contains(position):
            total += weight
    return total
