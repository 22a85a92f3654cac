"""Statistical behavior of orbits: Birkhoff averages, typicality against
a family of almost decidable sets, and recurrence statistics.

Orbit membership is certified through enclosures, so boundary-straddling
steps are counted as undecided and reported, never silently assigned;
exactly rational orbits leave undecided counts at zero except for honest
boundary hits.  Pseudo-random seeds are dyadic rationals from a recorded
generator and seed: algorithmically random points cannot be exhibited, so
the experiments test their predicted consequences on such seeds instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from effdyn import dynamics as dy
from effdyn import symbolic as sb
from effdyn.measure import AlmostDecidableSet, ComputableMeasure, measure_of_ad_set
from effdyn.numerics import dyadic_level
from effdyn.space import Point, Space, SpaceMismatch

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

    inner = pieces_of(ad.inside.enumerate(16))
    outer = pieces_of(ad.outside.enumerate(16))
    return sb.ComputablePartition(ad.space, (inner, outer), name="ad-indicator")


def birkhoff_average(
    sys: dy.System,
    x: Point,
    target: AlmostDecidableSet,
    n: int,
    precision: int = 24,
) -> BirkhoffResult:
    """Certified visit frequency of the first n orbit steps.

    Returns inside/outside/undecided counts; inside + outside + undecided
    equals the horizon exactly.
    """
    partition = _ad_partition(target)
    word = sb.code_orbit(sys, x, partition, n, precision)
    inside = sum(1 for s in word.symbols if s == 0)
    outside = sum(1 for s in word.symbols if s == 1)
    return BirkhoffResult(inside, outside, n - inside - outside, n)


@dataclass(frozen=True)
class TypicalityResult:
    residuals: Tuple[Tuple[str, float], ...]
    max_residual: float
    undecided_fraction: float
    tolerance: float
    verdict: Optional[bool]  # None: inconclusive or below the minimum horizon

    @property
    def passed(self) -> bool:
        return bool(self.verdict)


def dyadic_ball_family(space: Space, max_level: int) -> List[Tuple[str, AlmostDecidableSet]]:
    """All dyadic intervals [j/2^l, (j+1)/2^l) with 1 <= l <= max_level."""
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
    precision: int = 24,
) -> TypicalityResult:
    """Max deviation of orbit frequencies from mu over the family.

    The residuals are reported against the midpoint of a 2**-20 enclosure
    of each mu(A); the verdict compares the exact frequencies with tol
    against the enclosures themselves (`_within_tol`).  Fails closed: an
    undecided fraction above tol/2 yields an inconclusive verdict, as do a
    horizon below n_min and a residual that no enclosure separates from
    tol.
    """
    if sys.map_kind is dy.MapKind.DOUBLING and isinstance(x.exact, F):
        finest = _dyadic_level(family)
        if finest is not None:
            fast = _typicality_dyadic_fast(sys, mu, x, family, n, tol, n_min, finest)
            # an undecided step sits exactly on the grid, maybe inside a coarser set
            if not fast.undecided_fraction:
                return fast
    residuals = []
    targets = []
    worst_undecided = 0
    for label, ad in family:
        result = birkhoff_average(sys, x, ad, n, precision)
        worst_undecided = max(worst_undecided, result.undecided)
        target = measure_of_ad_set(mu, ad, _TARGET_PRECISIONS[0])
        residuals.append((label, abs(float(result.average) - float(target.midpoint))))
        targets.append((ad, result.inside, target))
    return _verdict(mu, residuals, targets, n, worst_undecided / n, tol, n >= n_min)


def _dyadic_level(family) -> Optional[int]:
    """Level of the finest dyadic grid carrying both ends c - r and c + r
    of every ball of the family's sets, or None when some end is not
    dyadic.

    On that grid each set is a union of cells, up to grid points, which
    the fast path counts by their midpoints; a ball's center need not lie
    on it.
    """
    finest = dyadic_level(
        q
        for _, ad in family
        for ball in ad.inside.enumerate(4) + ad.outside.enumerate(4)
        for q in (ball.center_desc - ball.radius, ball.center_desc + ball.radius)
    )
    return None if finest is None else max(finest, 1)


def _typicality_dyadic_fast(sys, mu, x, family, n, tol, n_min, finest) -> TypicalityResult:
    """One coding pass at the finest level; coarser sets aggregate counts."""
    partition = sb.dyadic_intervals(sys.space, finest)
    word = sb.code_orbit(sys, x, partition, n)
    cells = 1 << finest
    counts = [0] * cells
    undecided = 0
    for s in word.symbols:
        if s is None:
            undecided += 1
        else:
            counts[s] += 1
    residuals = []
    targets = []
    for label, ad in family:
        region = mu.region(ad.inside.enumerate(4))
        hits = sum(
            counts[j]
            for j in range(cells)
            if region.contains(F(2 * j + 1, 2 * cells))
        )
        target = measure_of_ad_set(mu, ad, _TARGET_PRECISIONS[0])
        residuals.append((label, abs(hits / n - float(target.midpoint))))
        targets.append((ad, hits, target))
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
    return TypicalityResult(tuple(residuals), worst, undecided_fraction, tol, verdict)


def recurrence_stat(
    sys: dy.System, x: Point, n: int, precision: int = 20, prefix_cap: int = 96
) -> F:
    """Min over 1 <= k <= n of a certified upper bound on d(x, T^k x).

    Non-increasing in n.  Sequence-space points are compared symbolwise up
    to prefix_cap; interval and circle orbits through enclosures (exact
    for rational data).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if sys.map_kind is dy.MapKind.SHIFT:
        if not callable(x.exact):
            raise SpaceMismatch("shift recurrence needs a symbol oracle")
        window = [x.exact(j) for j in range(n + prefix_cap)]
        best = F(1)
        for k in range(1, n + 1):
            first_diff = next(
                (j for j in range(prefix_cap) if window[j] != window[j + k]), None
            )
            bound = F(1, 1 << prefix_cap) if first_diff is None else F(1, 1 << first_diff)
            best = min(best, bound)
        return best
    seg = dy.iterate(sys, x, n + 1, precision)
    base = seg.enclosures[0]
    best = None
    for k in range(1, n + 1):
        d = dy.enclosure_dist(sys.space, base, seg.enclosures[k])
        best = d.hi if best is None else min(best, d.hi)
    return best
