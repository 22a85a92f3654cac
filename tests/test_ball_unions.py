"""Differential tests: unions of balls on integer pieces against `Fraction`.

`measure.region_of_balls` holds a union of open balls on the interval or
circle as sorted disjoint integer pieces over one denominator, and
`_MixtureModel.masses` weighs them.  The reference is the `Fraction`
region algebra of `fraction_regions`.  Exact masses, the lower oracle,
intersections and the grid-exhaustion route must agree with it exactly, on random rational balls, arcs across 0, point
masses on ball edges and at 0 and 1, the whole circle and balls of
radius 1/2.
"""

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from effdyn import measure as ms
from effdyn import space as sp
from effdyn.numerics import Interval, dyadic_floor

import fraction_regions as fr

LINE = sp.unit_interval()
WHEEL = sp.circle()
HALF = F(1, 2)


def _ball(space, center, radius):
    return sp.IdealBall(space, space.encode_dyadic(F(center)), F(radius))


@st.composite
def balls(draw, space):
    """1 to 4 balls with dyadic centers in [0, 1] and rational radii up to
    1, one in four of radius exactly 1/2."""
    out = []
    for _ in range(draw(st.integers(1, 4))):
        level = draw(st.integers(0, 5))
        center = F(draw(st.integers(0, 1 << level)), 1 << level)
        den = draw(st.integers(1, 24))
        radius = HALF if draw(st.integers(0, 3)) == 0 else F(draw(st.integers(1, den)), den)
        out.append(_ball(space, center, radius))
    return out


@st.composite
def mixtures(draw, space, union):
    """Lebesgue plus up to three point masses, placed on the balls' edges,
    at 0 or 1, or anywhere on a grid."""
    edges = [b.center_desc + s * b.radius for b in union for s in (-1, 1)]
    if space is WHEEL:
        edges = [q % 1 for q in edges]
    spots = [q for q in edges if 0 <= q <= 1] + [F(0), F(1)]
    positions = draw(
        st.lists(st.sampled_from(spots) | st.fractions(0, 1, max_denominator=12), max_size=3, unique=True)
    )
    weights = [F(draw(st.integers(1, 4)), 16) for _ in positions]
    base = 1 - sum(weights, F(0))
    return ms.ComputableMeasure.lebesgue_with_atoms(space, base, list(zip(positions, weights)))


def _fraction_pieces(region):
    """An integer region as the `Fraction` region it stands for."""
    pieces = tuple((F(a, region.den), F(b, region.den)) for a, b in region.pieces)
    if isinstance(region, ms.LineRegion):
        return fr.LineRegion(pieces)
    return fr.CircleRegion(() if region.full else pieces, region.full)


def _unions(space):
    return balls(space).flatmap(lambda union: st.tuples(st.just(union), mixtures(space, union)))


SPACES = st.sampled_from([LINE, WHEEL])
ANTIPODE = ms.ComputableMeasure.lebesgue_with_atoms(WHEEL, HALF, [(HALF, HALF)])
AT_ZERO = ms.ComputableMeasure.lebesgue_with_atoms(WHEEL, HALF, [(0, HALF)])
AT_ENDS = ms.ComputableMeasure.lebesgue_with_atoms(LINE, HALF, [(0, F(1, 4)), (1, F(1, 4))])


@settings(max_examples=300, deadline=None)
@given(SPACES.flatmap(lambda space: st.tuples(st.just(space), _unions(space))), st.integers(0, 12))
# the whole circle, and its radius-1/2 ball, which leaves out the antipode
@example((WHEEL, ([_ball(WHEEL, 0, F(3, 4))], ANTIPODE)), 8)
@example((WHEEL, ([_ball(WHEEL, 0, HALF)], ANTIPODE)), 8)
# an arc across 0 holding a point mass at 0, and on the line at 0 and 1
@example((WHEEL, ([_ball(WHEEL, F(1, 8), F(1, 4))], AT_ZERO)), 3)
@example((LINE, ([_ball(LINE, 0, F(1, 4)), _ball(LINE, 1, F(1, 3))], AT_ENDS)), 5)
def test_unions_match_fraction_regions(case, budget):
    space, (union, mu) = case
    region = ms.region_of_balls(space, union)
    reference = fr.region_of_balls(space, union)
    assert _fraction_pieces(region) == reference
    exact = fr.region_measure(mu.model, reference)
    assert mu.exact_union(union) == exact
    assert mu.lower(union, budget) == dyadic_floor(exact, budget) <= exact


@settings(max_examples=200, deadline=None)
@given(SPACES.flatmap(lambda space: st.tuples(st.just(space), _unions(space), balls(space))))
def test_intersections_match_fraction_regions(case):
    space, (union, mu), other = case
    meet = ms.region_of_balls(space, union).intersect(ms.region_of_balls(space, other))
    reference = fr.region_of_balls(space, union).intersect(fr.region_of_balls(space, other))
    assert _fraction_pieces(meet) == reference
    assert mu.model.region_measure(meet) == fr.region_measure(mu.model, reference)


def test_circle_ball_of_radius_half_leaves_out_its_antipode():
    """The open ball of radius 1/2 around 0 is the circle less 1/2: a point
    mass of 1/2 there is not in it, so its mass is 1/2, not 1."""
    mu = ANTIPODE
    ball = _ball(WHEEL, 0, HALF)
    assert not WHEEL.dist_desc(ball.center_desc, HALF) < ball.radius
    assert mu.exact_union([ball]) == HALF
    assert mu.lower([ball], 8) == HALF
    region = ms.region_of_balls(WHEEL, [ball])
    assert not region.full and region.pieces == ((1, 3),) and region.den == 2
    whole = ms.region_of_balls(WHEEL, [_ball(WHEEL, 0, F(3, 4))])
    assert whole.full and mu.exact_union([_ball(WHEEL, 0, F(3, 4))]) == 1
    # two such balls around 0 and 1/2 leave out nothing
    assert ms.region_of_balls(WHEEL, [ball, _ball(WHEEL, HALF, HALF)]).full


def test_circle_arc_of_length_one_leaves_out_its_start():
    """The open arc (a, a + 1) is the circle less a, while the set
    [a, a + 1) of `from_interval` is the whole circle."""
    # the arc (0, 1) leaves out the point mass of 1/2 at 0
    assert AT_ZERO.exact_union(ms.interval_as_balls(WHEEL, 0, 1)) == HALF
    # the closed annulus between radii 1/2 and 3/4 around 0 is the point
    # 1/2; its complement leaves out that point's mass of 1/2
    assert ANTIPODE.exact_union(ms.annulus_complement_balls(WHEEL, 0, HALF, F(3, 4))) == HALF
    ad = ms.AlmostDecidableSet.from_interval(WHEEL, F(1, 3), F(4, 3))
    assert ms.region_of_balls(WHEEL, ad.inside).full
    assert ad.outside == ()
    at_start = ms.ComputableMeasure.lebesgue_with_atoms(WHEEL, HALF, [(F(1, 3), HALF)])
    assert ms.measure_of_ad_set(at_start, ad, 8) == Interval(F(1), F(1))
