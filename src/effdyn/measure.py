"""Computable probability measures and almost decidable sets.

The built-in measure zoo (Lebesgue on the interval and circle, finite
mixtures with point masses, Bernoulli and Markov measures on sequence
space) admits exact rational values on finite unions of ideal balls.  On
the interval and circle a union is a region of sorted disjoint open
integer pieces over the lcm of the ball ends' denominators, and
`_MixtureModel.masses` weighs labelled integer pieces with one formula,
for these regions and for the cylinder pullback alike.  The budgeted
lower-bound oracle floors the exact value onto the dyadic grid
2**-budget, which keeps it a monotone, converging lower bound.

The continuity-radius search runs the trisection scheme: maintain a
nested interval of radii, each stage certifying that the closed annulus
between its endpoints has small mass by lower-bounding the measure of the
annulus complement.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Tuple

from effdyn.numerics import Interval, dyadic_floor
from effdyn.space import (
    IdealBall,
    Kind,
    Space,
    SpaceMismatch,
)

F = Fraction

_START = operator.itemgetter(0)
_LABEL = operator.itemgetter(2)


class InvalidWitness(ValueError):
    """Almost-decidable gap witness failed to certify."""


class RadiusStall(RuntimeError):
    """Neither trisection candidate certified within the step budget."""

    def __init__(self, stage: int, certificate):
        super().__init__(f"radius search stalled at stage {stage}")
        self.stage = stage
        self.certificate = certificate


# ---------------------------------------------------------------------------
# Regions: finite unions of ideal balls as integer pieces over one denominator
# ---------------------------------------------------------------------------


def _merge_pieces(pieces):
    """Merge open intervals on strict overlap only.

    Touching pieces like (0, 1/2) and (1/2, 1) stay separate: their union
    genuinely excludes the shared endpoint, which matters for point masses.
    """
    pieces = sorted((a, b) for a, b in pieces if a < b)
    merged = []
    for a, b in pieces:
        if merged and a < merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def _scaled(region, den: int):
    """A line or circle region's pieces over den, a multiple of its den."""
    up = den // region.den
    return [(a * up, b * up) for a, b in region.pieces]


@dataclass(frozen=True)
class LineRegion:
    """Open subset of [0, 1]: sorted disjoint open pieces (a/den, b/den),
    merged on strict overlap; only the first and last may overhang [0, 1]."""

    den: int
    pieces: Tuple[Tuple[int, int], ...]

    def intersect(self, other: "LineRegion") -> "LineRegion":
        den = math.lcm(self.den, other.den)
        pairs = itertools.product(_scaled(self, den), _scaled(other, den))
        return LineRegion(den, tuple(_merge_pieces((max(a, c), min(b, d)) for (a, b), (c, d) in pairs)))


@dataclass(frozen=True)
class CircleRegion:
    """Open subset of the circle: disjoint arcs (a/den, b/den), sorted, with
    a in [0, den) and b <= a + den, as the pullback lifts them.  An arc of
    length den is the circle less its start point; the whole circle is
    `full`, stored as the one arc (0, den)."""

    den: int
    pieces: Tuple[Tuple[int, int], ...]
    full: bool = False

    def intersect(self, other: "CircleRegion") -> "CircleRegion":
        if self.full:
            return other
        if other.full:
            return self
        den = math.lcm(self.den, other.den)
        pairs = itertools.product(_scaled(self, den), _scaled(other, den), (-den, 0, den))
        return _circle_of_arcs(den, [(max(a, c + t), min(b, d + t)) for (a, b), (c, d), t in pairs])


def _circle_of_arcs(den: int, arcs) -> CircleRegion:
    """The region of raw integer arcs (a, b) over den: the arcs lifted to
    starts in [0, den) and merged on the line, then the last merged with the
    front arcs it overlaps one turn up; an arc longer than den is all of it."""
    merged = _merge_pieces((a % den, a % den + b - a) for a, b in arcs)
    while len(merged) > 1 and merged[0][0] + den < merged[-1][1]:
        _, b = merged.pop(0)
        merged[-1] = (merged[-1][0], max(merged[-1][1], b + den))
    if merged and merged[-1][1] - merged[-1][0] > den:
        return CircleRegion(den, ((0, den),), full=True)
    return CircleRegion(den, tuple(merged))


@dataclass(frozen=True)
class CylinderRegion:
    """Union of cylinders given by a canonical prefix-free word list."""

    words: Tuple[Tuple[int, ...], ...]


def _canonical_words(words) -> Tuple[Tuple[int, ...], ...]:
    kept = []
    for w in sorted(set(words), key=len):
        if not any(w[: len(v)] == v for v in kept):
            kept.append(w)
    return tuple(sorted(kept))


def ball_to_cylinder(ball: IdealBall) -> Optional[Tuple[int, ...]]:
    """Cylinder word of a sequence-space ball: agreement forced wherever
    2**-i >= radius.  Radius > 1 covers the whole space (empty word)."""
    length = 0
    while F(1, 1 << length) >= ball.radius:
        length += 1
    word = tuple(ball.center_desc)
    if len(word) < length:
        word = word + (0,) * (length - len(word))
    return word[:length]


def region_of_balls(space: Space, balls: Sequence[IdealBall]):
    """The union of open balls: integer pieces over the lcm of the ball ends'
    denominators on the interval and circle, cylinder words on sequence space."""
    for ball in balls:
        if ball.space != space:
            raise SpaceMismatch(f"{ball.space} vs {space}")
    if space.kind in (Kind.UNIT_INTERVAL, Kind.CIRCLE):
        ends = [(b.center_desc - b.radius, b.center_desc + b.radius) for b in balls]
        den = math.lcm(*(q.denominator for end in ends for q in end))
        pieces = [(int(a * den), int(b * den)) for a, b in ends]
        if space.kind is Kind.CIRCLE:
            return _circle_of_arcs(den, pieces)
        return LineRegion(den, tuple(_merge_pieces(pieces)))
    if space.kind is Kind.CANTOR:
        return CylinderRegion(_canonical_words(ball_to_cylinder(b) for b in balls))
    raise SpaceMismatch(f"no measure support for {space}")


def interval_as_balls(space: Space, a: F, b: F) -> Tuple[IdealBall, ...]:
    """Exact ideal-ball presentation of the open interval/arc (a, b).

    On the circle an arc longer than 1 is the whole circle, and one of
    length exactly 1 is the circle less a.
    """
    a, b = F(a), F(b)
    if not a < b:
        return ()
    if space.kind is Kind.CIRCLE and b - a > 1:
        return (IdealBall(space, space.encode_dyadic(F(0)), F(1)),)
    mid = (a + b) / 2
    if mid.denominator & (mid.denominator - 1) == 0:
        return (IdealBall(space, space.encode_dyadic(mid), mid - a),)
    # dyadic just below and above the midpoint, fine enough to overlap
    level = (b - a).denominator.bit_length() + (b - a).numerator.bit_length() + 4
    m1 = dyadic_floor(mid, level)
    m2 = m1 + F(1, 1 << level)
    return (
        IdealBall(space, space.encode_dyadic(m1), m1 - a),
        IdealBall(space, space.encode_dyadic(m2), b - m2),
    )


def cylinder_as_ball(space: Space, word) -> IdealBall:
    word = tuple(word)
    radius = F(3, 2 << len(word)) if word else F(2)
    return IdealBall(space, space.encode_word(word), radius)


# ---------------------------------------------------------------------------
# Measure models (exact on regions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _MixtureModel:
    """base_weight times Lebesgue plus point masses; Lebesgue is (1, ())."""

    base_weight: F
    atoms: Tuple[Tuple[F, F], ...]  # (position, weight)

    @cached_property
    def integer_weights(self):
        """(base, atoms, W): the weights over their lcm W, atoms as (num, den, weight)."""
        scale = math.lcm(self.base_weight.denominator, *(w.denominator for _, w in self.atoms))
        base = self.base_weight.numerator * (scale // self.base_weight.denominator)
        atoms = [(q.numerator, q.denominator, w.numerator * scale // w.denominator) for q, w in self.atoms]
        return base, atoms, scale

    def masses(self, pieces, span: int, circle: bool, whole: bool):
        """[(numerator, denominator) or None] indexed by label, the masses
        of the labels of sorted disjoint open pieces (a, b, label) over span,
        a multiple of every point-mass denominator, circle arcs lifted as in
        `CircleRegion`: (base * length + span * inside) / (W * span), where
        inside sums the point masses strictly inside a piece of the label,
        each found by one bisect (at p or p + span on the circle, anywhere on
        the `whole` circle).  The interval's overhang past [0, span], on the
        first and last piece only, is left out.  A label of length 0 is None:
        no piece carries it, as every piece keeps a positive length."""
        base, atoms, scale = self.integer_weights
        lengths = [0] * (max(map(_LABEL, pieces), default=-1) + 1)
        for a, b, c in pieces:
            lengths[c] += b - a
        if pieces and not circle:
            a, _, c = pieces[0]
            lengths[c] += min(a, 0)
            _, b, c = pieces[-1]
            lengths[c] -= max(b - span, 0)
        total = scale * span
        masses = [(base * length, total) if length else None for length in lengths]
        for num, qden, weight in atoms:
            p = num * (span // qden)
            for x in (p % span, p % span + span) if circle else (p,):
                i = bisect_left(pieces, x, key=_START) - 1
                if whole or i >= 0 and x < pieces[i][1]:
                    # the whole circle is the one piece pieces[-1] = pieces[0]
                    c = pieces[i][2]
                    masses[c] = (masses[c][0] + span * weight, total)
                    break
        return masses

    def region_measure(self, region) -> F:
        den = math.lcm(region.den, *(q.denominator for q, _ in self.atoms))
        circle = isinstance(region, CircleRegion)
        masses = self.masses([(a, b, 0) for a, b in _scaled(region, den)], den, circle, circle and region.full)
        return F(*masses[0]) if masses else F(0)


@dataclass(frozen=True)
class _ProductWordModel:
    """Bernoulli or Markov measure on sequence space via word probabilities."""

    initial: Tuple[F, ...]
    rows: Optional[Tuple[Tuple[F, ...], ...]]  # None for Bernoulli

    def word_measure(self, word) -> F:
        if not word:
            return F(1)
        p = self.initial[word[0]]
        if self.rows is None:
            for c in word[1:]:
                p *= self.initial[c]
        else:
            for prev, cur in zip(word, word[1:]):
                p *= self.rows[prev][cur]
        return p

    def region_measure(self, region: CylinderRegion) -> F:
        return sum((self.word_measure(w) for w in region.words), F(0))


def stationary_distribution(rows: Sequence[Sequence[F]]) -> Tuple[F, ...]:
    """Exact stationary row vector of a rational stochastic matrix."""
    k = len(rows)
    # solve pi (P - I) = 0 with sum(pi) = 1 by Gaussian elimination
    cols = [[F(rows[i][j]) - (1 if i == j else 0) for i in range(k)] for j in range(k)]
    cols[-1] = [F(1)] * k  # replace one equation by the normalization
    rhs = [F(0)] * (k - 1) + [F(1)]
    n = k
    mat = [cols[j] + [rhs[j]] for j in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            raise ValueError("transition matrix has no unique stationary law")
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = 1 / mat[col][col]
        mat[col] = [v * inv for v in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [v - factor * w for v, w in zip(mat[r], mat[col])]
    return tuple(mat[i][n] for i in range(k))


def _check_weights(weights, what: str) -> None:
    if min(weights, default=0) < 0:
        raise ValueError(f"{what} must not be negative")
    if sum(weights) != 1:
        raise ValueError(f"{what} must sum to 1")


@dataclass(frozen=True)
class ComputableMeasure:
    """A probability measure with an exact oracle on ideal-ball unions.

    `lower(balls, budget)` floors the exact union measure to the grid
    2**-budget: a monotone (in budget and in the union) lower bound
    converging to the truth, matching lower-semicomputation semantics.
    """

    space: Space
    name: str
    model: object

    @property
    def is_lebesgue(self) -> bool:
        return self.model == _MixtureModel(F(1), ())

    def exact_union(self, balls: Sequence[IdealBall]) -> F:
        return self.model.region_measure(region_of_balls(self.space, balls))

    def lower(self, balls: Sequence[IdealBall], budget: int) -> F:
        return dyadic_floor(self.exact_union(balls), budget)

    # -- zoo constructors --------------------------------------------------

    @classmethod
    def lebesgue(cls, space: Space) -> "ComputableMeasure":
        if space.kind not in (Kind.UNIT_INTERVAL, Kind.CIRCLE):
            raise SpaceMismatch("lebesgue lives on the interval or circle")
        return cls(space, "lebesgue", _MixtureModel(F(1), ()))

    @classmethod
    def lebesgue_with_atoms(cls, space: Space, base_weight, atoms) -> "ComputableMeasure":
        """base_weight times Lebesgue plus point masses (position, weight):
        interval positions in [0, 1], circle positions read mod 1."""
        if space.kind not in (Kind.UNIT_INTERVAL, Kind.CIRCLE):
            raise SpaceMismatch("lebesgue lives on the interval or circle")
        atoms = tuple((F(q), F(w)) for q, w in atoms)
        if space.kind is Kind.UNIT_INTERVAL and not all(0 <= q <= 1 for q, _ in atoms):
            raise ValueError("point masses on the interval must lie in [0, 1]")
        base_weight = F(base_weight)
        _check_weights((base_weight, *(w for _, w in atoms)), "weights")
        return cls(space, "lebesgue+atoms", _MixtureModel(base_weight, atoms))

    @classmethod
    def bernoulli(cls, space: Space, probs) -> "ComputableMeasure":
        probs = tuple(F(p) for p in probs)
        if space.kind is not Kind.CANTOR or len(probs) != space.alphabet:
            raise SpaceMismatch("bernoulli needs a matching sequence space")
        _check_weights(probs, "probabilities")
        return cls(space, "bernoulli", _ProductWordModel(probs, None))

    @classmethod
    def markov(cls, space: Space, rows, initial=None) -> "ComputableMeasure":
        rows = tuple(tuple(F(p) for p in row) for row in rows)
        if space.kind is not Kind.CANTOR or len(rows) != space.alphabet:
            raise SpaceMismatch("markov needs a matching sequence space")
        for i, row in enumerate(rows):
            _check_weights(row, f"transition row {i}")
        initial = stationary_distribution(rows) if initial is None else tuple(F(p) for p in initial)
        _check_weights(initial, "initial probabilities")
        return cls(space, "markov", _ProductWordModel(initial, rows))

    def word_measure(self, word) -> F:
        """Exact cylinder measure (sequence-space zoo measures only)."""
        if not isinstance(self.model, _ProductWordModel):
            raise SpaceMismatch(f"{self.name} has no cylinder oracle")
        return self.model.word_measure(tuple(word))


# ---------------------------------------------------------------------------
# Almost decidable sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlmostDecidableSet:
    """A set sandwiched between an inner and outer-complement open set.

    Both sides are finite unions of the ideal balls in `inside` and
    `outside`, so for the zoo the measure gap certifies at any budget;
    `measure_of_ad_set` starts from the budget precision + 2.
    """

    space: Space
    inside: Tuple[IdealBall, ...]
    outside: Tuple[IdealBall, ...]

    @classmethod
    def from_balls(cls, space: Space, inner_balls, outer_balls) -> "AlmostDecidableSet":
        return cls(space, tuple(inner_balls), tuple(outer_balls))

    @classmethod
    def from_interval(cls, space: Space, a, b) -> "AlmostDecidableSet":
        """The set [a, b): inner open version, outer open complement."""
        a, b = F(a), F(b)
        if space.kind is Kind.CIRCLE:
            if not a < b:
                raise ValueError("arc sets need a < b")
            # [a, a + 1) is the whole circle, though the open arc leaves out a
            inner = (
                (IdealBall(space, space.encode_dyadic(F(0)), F(1)),)
                if b - a >= 1
                else interval_as_balls(space, a, b)
            )
            outer = interval_as_balls(space, b, a + 1)
        else:
            if not 0 <= a < b <= 1:
                raise ValueError("interval sets need 0 <= a < b <= 1")
            inner = (
                (IdealBall(space, space.encode_dyadic(F(0)), b),)
                if a == 0
                else interval_as_balls(space, a, b)
            )
            outer = ()
            if a > 0:
                outer += (IdealBall(space, space.encode_dyadic(F(0)), a),)
            if b < 1:
                outer += (IdealBall(space, space.encode_dyadic(F(1)), 1 - b),)
        return cls.from_balls(space, inner, outer)

    @classmethod
    def from_cylinder(cls, space: Space, word) -> "AlmostDecidableSet":
        word = tuple(word)
        k = space.alphabet
        others = []
        for length in range(1, len(word) + 1):
            prefix = word[: length - 1]
            others.extend(prefix + (c,) for c in range(k) if c != word[length - 1])
        return cls.from_balls(
            space,
            [cylinder_as_ball(space, word)],
            [cylinder_as_ball(space, w) for w in others],
        )


#: Budget past which `measure_of_ad_set`, from precision + 2 up, gives up on
#: the gap witness.
GAP_BUDGET_CAP = 64


def measure_of_ad_set(mu: ComputableMeasure, ad: AlmostDecidableSet, precision: int) -> Interval:
    """Two-sided enclosure of mu(A), width <= 2**-precision."""
    if ad.space != mu.space:
        raise SpaceMismatch(f"{ad.space} vs {mu.space}")
    target = F(1, 1 << precision)
    budget = precision + 2
    while True:
        low_in = mu.lower(ad.inside, budget)
        low_out = mu.lower(ad.outside, budget)
        if low_in + low_out > 1 - target:
            return Interval(low_in, 1 - low_out)
        if budget > GAP_BUDGET_CAP:
            raise InvalidWitness(
                f"gap witness failed: mu(U)+mu(V) lower bounds reach {low_in + low_out}"
            )
        budget += 4


# ---------------------------------------------------------------------------
# Almost-decidable radius search (trisection on annulus mass)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadiusStage:
    stage: int
    window: Tuple[F, F]
    complement_lower: F

    @property
    def annulus_upper(self) -> F:
        return 1 - self.complement_lower


def annulus_complement_balls(space: Space, center_desc, inner: F, outer: F):
    """The complement of closed-ball(outer) minus open-ball(inner) as balls."""
    if space.kind is Kind.UNIT_INTERVAL:
        c = center_desc
        balls = list(interval_as_balls(space, c - inner, c + inner))
        if c - outer > 0:
            balls.append(IdealBall(space, space.encode_dyadic(F(0)), c - outer))
        if c + outer < 1:
            balls.append(IdealBall(space, space.encode_dyadic(F(1)), 1 - c - outer))
        return tuple(balls)
    if space.kind is Kind.CIRCLE:
        c = center_desc
        balls = list(interval_as_balls(space, c - inner, c + inner))
        if outer < F(1, 2):
            balls.extend(interval_as_balls(space, c + outer, c + 1 - outer))
        return tuple(balls)
    if space.kind is Kind.CANTOR:
        k = space.alphabet
        # closed ball of radius `outer`: agreement wherever 2**-i > outer
        closed_len = 0
        while F(1, 1 << closed_len) > outer:
            closed_len += 1
        open_len = 0
        while F(1, 1 << open_len) >= inner:
            open_len += 1
        word = tuple(center_desc)
        word = word + (0,) * max(0, max(closed_len, open_len) - len(word))
        balls = [cylinder_as_ball(space, word[:open_len])]
        for length in range(1, closed_len + 1):
            prefix = word[: length - 1]
            balls.extend(
                cylinder_as_ball(space, prefix + (c,)) for c in range(k) if c != word[length - 1]
            )
        return tuple(balls)
    raise SpaceMismatch(f"no annulus geometry for {space}")


def almost_decidable_radius(
    mu: ComputableMeasure,
    center: int,
    window: Tuple[F, F],
    depth: int,
):
    """Trisection search for a continuity radius inside `window`.

    Returns (radius, certificate): the midpoint of the deepest interval
    plus per-stage annulus-mass certificates mu(annulus) < 2**-(m-1); a
    stage that no budget below 48 certifies raises RadiusStall.
    """
    lo, hi = F(window[0]), F(window[1])
    if not 0 < lo < hi:
        raise ValueError("window must satisfy 0 < lo < hi")
    center_desc = mu.space.decode(center)
    certificate = [RadiusStage(0, (lo, hi), F(0))]
    for stage in range(depth):
        third = (hi - lo) / 3
        threshold = F(1, 1 << stage)
        candidates = ((lo, lo + third), (hi - third, hi))
        chosen = None
        for budget in range(2, 48):
            for cand_lo, cand_hi in candidates:  # left first: deterministic
                comp = annulus_complement_balls(mu.space, center_desc, cand_lo, cand_hi)
                bound = mu.lower(comp, budget)
                if bound > 1 - threshold:
                    chosen = (cand_lo, cand_hi, bound)
                    break
            if chosen:
                break
        if not chosen:
            raise RadiusStall(stage + 1, tuple(certificate))
        lo, hi, bound = chosen
        certificate.append(RadiusStage(stage + 1, (lo, hi), bound))
    return (lo + hi) / 2, tuple(certificate)
