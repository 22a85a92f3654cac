"""Statistical behavior of orbits: Birkhoff averages, typicality against
a family of almost decidable sets, and recurrence statistics.

Orbit membership is certified through enclosures, so boundary-straddling
steps are counted as undecided and reported, never silently assigned;
exactly rational orbits leave undecided counts at zero except for honest
boundary hits.  However many sets are counted, the orbit is coded once,
against the cells their boundaries cut the space into.  Pseudo-random
seeds are dyadic rationals from a recorded generator and seed:
algorithmically random points cannot be exhibited, so the experiments
test their predicted consequences on such seeds instead.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from effdyn import dynamics as dy
from effdyn import symbolic as sb
from effdyn.measure import AlmostDecidableSet, ComputableMeasure, measure_of_ad_set
from effdyn.space import Kind, Point, Space, SpaceMismatch

F = Fraction


@dataclass(frozen=True)
class BirkhoffResult:
    inside: int
    outside: int
    undecided: int
    horizon: int

    @property
    def average(self) -> F:
        return F(self.inside, self.horizon)


def _ad_partition(ad: AlmostDecidableSet) -> sb.ComputablePartition:
    """Two-atom partition {inner, outer} of an almost decidable set."""

    def pieces_of(balls):
        return tuple((b.center_desc - b.radius, b.center_desc + b.radius) for b in balls)

    inner = pieces_of(ad.inside)
    outer = pieces_of(ad.outside)
    return sb.ComputablePartition(ad.space, (inner, outer), name="ad-indicator")


def birkhoff_average(
    sys: dy.System, x: Point, target: AlmostDecidableSet, n: int
) -> BirkhoffResult:
    """Certified visit frequency of the first n orbit steps.

    Returns inside/outside/undecided counts; inside + outside + undecided
    equals the horizon exactly.
    """
    return _visits(sys, x, [target], n)[0]


def _visits(
    sys: dy.System, x: Point, sets: Sequence[AlmostDecidableSet], n: int
) -> List[BirkhoffResult]:
    """The counts `code_orbit` gives on each set's own partition, from one
    coding pass against their common refinement: the cells between
    consecutive piece ends, clipped to [0, 1] on the interval and taken
    mod 1 on the circle, where the last cell runs across 0.

    Every piece end is a cut, so a step certified inside a cell lies in a
    set's piece exactly when the whole cell does, which coding the cell's
    midpoint decides.  Only the steps on or across a cut, Unknown in the
    refinement, are coded set by set, from the segment the refinement was
    coded from, so the orbit is computed once.
    """
    if sys.space.kind is Kind.CANTOR or any(ad.space != sys.space for ad in sets):
        raise SpaceMismatch(f"visit counts need sets on the interval or circle of {sys.name}")
    partitions = [_ad_partition(ad) for ad in sets]
    layouts = [p.layout for p in partitions]
    den = math.lcm(*(d for d, _ in layouts))
    ends = {q * (den // d) for d, pieces in layouts for a, b, _ in pieces for q in (a, b)}
    if sys.space.kind is Kind.CIRCLE:
        cuts = sorted({q % den for q in ends})
        cuts.append(cuts[0] + den)
    else:
        cuts = sorted({0, den} | {q for q in ends if 0 < q < den})
    cells = tuple(((F(a, den), F(b, den)),) for a, b in zip(cuts, cuts[1:]))
    word, seg = sb._code_orbit(sys, x, sb.ComputablePartition(sys.space, cells), n, 24)
    per_cell = Counter(word.symbols)
    mids = [a + b for a, b in zip(cuts, cuts[1:])]
    unknown = None
    if per_cell[None]:
        steps = [j for j, s in enumerate(word.symbols) if s is None]
        unknown = [[side[j] for j in steps] for side in (seg.lows, seg.highs)]
    results = []
    for partition in partitions:
        counts = Counter(sb._code_segment(partition, *unknown, seg.den) if unknown else ())
        for cell, s in enumerate(sb._code_segment(partition, mids, mids, 2 * den)):
            counts[s] += per_cell[cell]
        inside, outside = counts[0], counts[1]
        results.append(BirkhoffResult(inside, outside, n - inside - outside, n))
    return results


@dataclass(frozen=True)
class TypicalityResult:
    residuals: Tuple[Tuple[str, float], ...]
    max_residual: float
    undecided_fraction: float
    verdict: Optional[bool]  # None: inconclusive or below the minimum horizon

    @property
    def passed(self) -> bool:
        return bool(self.verdict)


#: Largest number of sets `dyadic_ball_family` builds; a larger family
#: raises ValueError before any set is built.  Level 9 gives 1,022 sets,
#: level 10 2,046; the largest shipped level is 4 (30 sets).  Level 9
#: builds in 0.04 s, and typicality against it on a doubling orbit of
#: n = 30,000 takes 0.35 s (CPython 3.11.7, shared 2-vCPU VM).
FAMILY_SET_CAP = 1 << 10


def dyadic_ball_family(space: Space, max_level: int) -> List[Tuple[str, AlmostDecidableSet]]:
    """All dyadic intervals [j/2^l, (j+1)/2^l) with 1 <= l <= max_level,
    2**(max_level+1) - 2 sets, at most FAMILY_SET_CAP."""
    if max_level >= FAMILY_SET_CAP.bit_length() or (2 << max(max_level, 0)) - 2 > FAMILY_SET_CAP:
        raise ValueError(f"level {max_level} gives more than FAMILY_SET_CAP = {FAMILY_SET_CAP} sets")
    family = []
    for level in range(1, max_level + 1):
        cells = 1 << level
        for j in range(cells):
            ad = AlmostDecidableSet.from_interval(space, F(j, cells), F(j + 1, cells))
            family.append((f"[{j}/{cells},{j + 1}/{cells})", ad))
    return family


def typicality_test(
    sys: dy.System,
    mu: ComputableMeasure,
    x: Point,
    family: Sequence[Tuple[str, AlmostDecidableSet]],
    n: int,
    tol: float,
    n_min: int = 100,
) -> TypicalityResult:
    """Max deviation of orbit frequencies from mu over the family, whose
    visits are counted in one coding pass (`_visits`).

    The residuals are reported against the midpoint of a 2**-20 enclosure
    of each mu(A); the verdict compares the exact frequencies with tol
    against the enclosures themselves (`_within_tol`).  Fails closed: an
    undecided fraction above tol/2 yields an inconclusive verdict, as do a
    horizon below n_min and a residual that no enclosure separates from
    tol.
    """
    results = _visits(sys, x, [ad for _, ad in family], n)
    residuals, targets = [], []
    for (label, ad), result in zip(family, results):
        target = measure_of_ad_set(mu, ad, _TARGET_PRECISIONS[0])
        residuals.append((label, abs(float(result.average) - float(target.midpoint))))
        targets.append((ad, result.inside, target))
    undecided = max(result.undecided for result in results)
    return _verdict(mu, residuals, targets, n, undecided / n, tol, n >= n_min)


#: Precisions of the enclosures of mu(A) that decide a verdict: the
#: reported residuals use the first, and a set is enclosed at the next only
#: while its residual interval still holds tol.
_TARGET_PRECISIONS = (20, 40, 80, 160)


def _within_tol(mu, targets, n, tol) -> Optional[bool]:
    """Is |hits/n - mu(A)| <= tol for every set A, decided exactly?

    targets holds (A, hits, enclosure of mu(A)).  With mu(A) in [lo, hi],
    the residual lies between the distance from hits/n to [lo, hi] and
    the distance to its far end: a set whose near distance exceeds tol
    decides False, and one whose far distance does is enclosed again at
    the next precision.  None when some set still straddles tol at the
    last precision.
    """
    tol = F(tol)
    precisions = iter(_TARGET_PRECISIONS[1:])
    while True:
        open_sets = []
        for ad, hits, target in targets:
            q = F(hits, n)
            if max(target.lo - q, q - target.hi) > tol:
                return False
            if max(q - target.lo, target.hi - q) > tol:
                open_sets.append((ad, hits))
        if not open_sets:
            return True
        precision = next(precisions, None)
        if precision is None:
            return None
        targets = [(ad, hits, measure_of_ad_set(mu, ad, precision)) for ad, hits in open_sets]


def _verdict(mu, residuals, targets, n, undecided_fraction, tol, horizon_ok) -> TypicalityResult:
    """The residuals and the verdict: exact (`_within_tol`), or None below
    the horizon or with too many undecided steps."""
    worst = max(r for _, r in residuals)
    verdict: Optional[bool] = None
    if horizon_ok and undecided_fraction <= tol / 2:
        verdict = _within_tol(mu, targets, n, tol)
    return TypicalityResult(tuple(residuals), worst, undecided_fraction, verdict)


def recurrence_stat(sys: dy.System, x: Point, n: int) -> F:
    """Min over 1 <= k <= n of a certified upper bound on d(x, T^k x).

    Non-increasing in n.  On sequence space T^k x is the point read from
    symbol k on, so symbols[k : k + 96] of the `dy.iterate` stream (exact
    or enclosed) is compared with symbols[:96], and a first difference at
    i bounds the distance by 2**-i; interval and circle orbits go through
    enclosures of width below 2**-20 (exact for rational data), whose step
    distances `dy.step_dist` gives over 2 * den.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if sys.map_kind is dy.MapKind.SHIFT:
        prefix = 96
        s = dy.iterate(sys, x, n + 1, prefix - 1).symbols
        agree = max(next((i for i in range(prefix) if s[i] != s[k + i]), prefix) for k in range(1, n + 1))
        return F(1, 1 << agree)
    seg = dy.iterate(sys, x, n + 1, 20)
    circle, den = sys.space.kind is Kind.CIRCLE, seg.den
    lo, hi = seg.lows[0], seg.highs[0]
    best = min(dy.step_dist(circle, den, lo, hi, a, b)[1] for a, b in zip(seg.lows[1:], seg.highs[1:]))
    return F(best, 2 * den)
