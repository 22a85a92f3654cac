from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effdyn import measure as ms
from effdyn import space as sp

import fraction_regions as fr

F = Fraction

LINE = sp.unit_interval()
WHEEL = sp.circle()
SEQ2 = sp.cantor(2)


def ball(space, center, radius):
    return sp.IdealBall(space, space.encode_dyadic(F(center)), F(radius))


@pytest.fixture
def lebesgue():
    return ms.ComputableMeasure.lebesgue(LINE)


@pytest.fixture
def mixture():
    return ms.ComputableMeasure.lebesgue_with_atoms(LINE, F(1, 2), [(F(3, 4), F(1, 2))])


@pytest.fixture
def coin():
    return ms.ComputableMeasure.bernoulli(SEQ2, [F(1, 2), F(1, 2)])


@pytest.fixture
def chain():
    return ms.ComputableMeasure.markov(SEQ2, [[F(9, 10), F(1, 10)], [F(1, 2), F(1, 2)]])


# -- lower oracle -----------------------------------------------------------


def test_lower_disjoint_dyadic_balls(lebesgue):
    balls = [ball(LINE, F(1, 4), F(1, 8)), ball(LINE, F(3, 4), F(1, 8))]
    value = lebesgue.lower(balls, 11)
    assert F(1, 2) - F(1, 1024) < value <= F(1, 2)


def test_lower_overlapping_merge(lebesgue):
    balls = [ball(LINE, F(1, 2), F(1, 5)), ball(LINE, F(5, 8), F(1, 5))]
    # union is (0.3, 0.825), length 0.525
    assert lebesgue.exact_union(balls) == F(21, 40)


def test_lower_atom_plus_interval(mixture):
    balls = [ball(LINE, F(3, 4), F(1, 100))]
    value = mixture.lower(balls, 7)
    expected = F(1, 2) * F(2, 100) + F(1, 2)
    assert expected - F(1, 64) < value <= expected


def test_atom_on_ball_boundary_excluded(lebesgue):
    mu = ms.ComputableMeasure.lebesgue_with_atoms(LINE, F(1, 2), [(F(1, 2), F(1, 2))])
    # open ball (1/4, 1/2) does not contain the atom at 1/2
    assert mu.exact_union([ball(LINE, F(3, 8), F(1, 8))]) == F(1, 2) * F(1, 4)
    # but (1/4, 3/4) does
    assert mu.exact_union([ball(LINE, F(1, 2), F(1, 4))]) == F(1, 2) * F(1, 2) + F(1, 2)


def test_touching_balls_exclude_shared_endpoint():
    mu = ms.ComputableMeasure.lebesgue_with_atoms(LINE, F(1, 2), [(F(1, 2), F(1, 2))])
    balls = [ball(LINE, F(1, 4), F(1, 4)), ball(LINE, F(3, 4), F(1, 4))]
    # (0,1/2) u (1/2,1) misses the atom: mass is 1/2 * 1, not 1
    assert mu.exact_union(balls) == F(1, 2)


def test_circle_wrap_region():
    mu = ms.ComputableMeasure.lebesgue(WHEEL)
    b = ball(WHEEL, F(0), F(1, 8))  # arc (-1/8, 1/8)
    assert mu.exact_union([b]) == F(1, 4)
    both = [b, ball(WHEEL, F(15, 16), F(1, 16))]
    assert mu.exact_union(both) == F(1, 4)  # second arc inside the first


def test_cylinder_union_measure(coin, chain):
    b1 = ms.cylinder_as_ball(SEQ2, (0, 0))
    b2 = ms.cylinder_as_ball(SEQ2, (0,))
    assert coin.exact_union([b1, b2]) == F(1, 2)  # [00] inside [0]
    assert chain.word_measure((0, 0, 1)) == F(5, 6) * F(9, 10) * F(1, 10)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15), st.integers(min_value=1, max_value=8)
        ),
        min_size=1,
        max_size=5,
    ),
    st.integers(min_value=2, max_value=10),
)
def test_lower_monotone_in_budget_and_union(specs, budget):
    mu = ms.ComputableMeasure.lebesgue(LINE)
    balls = [ball(LINE, F(c, 16), F(1, 2**r)) for c, r in specs]
    small = mu.lower(balls[:-1], budget) if len(balls) > 1 else F(0)
    assert mu.lower(balls, budget) >= small
    assert mu.lower(balls, budget + 3) >= mu.lower(balls, budget)
    assert mu.lower(balls, budget) <= mu.exact_union(balls)


def arcs_strategy():
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=63),
            st.integers(min_value=1, max_value=40),
        ),
        min_size=1,
        max_size=5,
    )


@settings(max_examples=120, deadline=None)
@given(arcs_strategy(), st.integers(min_value=0, max_value=127))
def test_circle_region_membership_matches_raw_arcs(raw, probe_num):
    arcs = [(F(a, 64), F(a, 64) + F(length, 64)) for a, length in raw]
    region = fr.circle_region(arcs)
    q = F(probe_num, 128)
    direct = any(a < q + t < b for a, b in arcs for t in (-1, 0, 1))
    assert region.contains(q) == direct


@settings(max_examples=80, deadline=None)
@given(arcs_strategy())
def test_circle_region_length_matches_grid_count(raw):
    arcs = [(F(a, 64), F(a, 64) + F(length, 64)) for a, length in raw]
    region = fr.circle_region(arcs)
    length = region.length()
    assert 0 <= length <= 1
    # count midpoints of a fine grid; each arc endpoint perturbs at most
    # one cell, so the counts bracket the true length
    cells = 512
    covered = sum(
        1 for j in range(cells) if region.contains(F(2 * j + 1, 2 * cells))
    )
    slack = F(2 * len(arcs) + 2, cells)
    assert abs(F(covered, cells) - length) <= slack


# -- almost decidable sets ----------------------------------------------------


def test_measure_of_halves_set(lebesgue):
    half = ms.AlmostDecidableSet.from_balls(
        LINE,
        [ball(LINE, F(1, 4), F(1, 4))],
        [ball(LINE, F(3, 4), F(1, 4))],
    )
    enclosure = ms.measure_of_ad_set(lebesgue, half, 10)
    assert enclosure.contains(F(1, 2))
    assert enclosure.width <= F(1, 1024)


def test_measure_of_empty_set(lebesgue):
    empty = ms.AlmostDecidableSet.from_balls(
        LINE, [], [sp.IdealBall(LINE, LINE.encode_dyadic(F(1, 2)), F(2))]
    )
    enclosure = ms.measure_of_ad_set(lebesgue, empty, 8)
    assert enclosure.lo == 0 and enclosure.hi <= F(1, 256)


def test_measure_of_cylinder_set(coin):
    one = ms.AlmostDecidableSet.from_cylinder(SEQ2, (1,))
    enclosure = ms.measure_of_ad_set(coin, one, 12)
    assert enclosure.contains(F(1, 2))


def test_invalid_witness_detected(lebesgue):
    bad = ms.AlmostDecidableSet.from_balls(
        LINE,
        [ball(LINE, F(1, 4), F(1, 8))],
        [ball(LINE, F(3, 4), F(1, 8))],
    )  # masses sum to 1/2, the gap never closes
    with pytest.raises(ms.InvalidWitness):
        ms.measure_of_ad_set(lebesgue, bad, 6)


# -- continuity-radius search -------------------------------------------------


def certificate_ok(cert):
    for entry in cert[1:]:
        assert entry.annulus_upper < F(1, 1 << (entry.stage - 1))


def test_radius_atomless_always_succeeds(lebesgue):
    r, cert = ms.almost_decidable_radius(
        lebesgue, LINE.encode_dyadic(F(1, 2)), (F(1, 4), F(1, 3)), depth=8
    )
    assert F(1, 4) <= r <= F(1, 3)
    assert len(cert) == 9
    certificate_ok(cert)


def test_radius_avoids_atom_sphere(mixture):
    # atom at 3/4 sits on the sphere of radius 1/4 around 1/2
    r, cert = ms.almost_decidable_radius(
        mixture, LINE.encode_dyadic(F(1, 2)), (F(1, 5), F(2, 5)), depth=10
    )
    assert r != F(1, 4)
    certificate_ok(cert)
    deep = [entry for entry in cert if entry.stage >= 2]
    assert deep and all(
        not (entry.window[0] <= F(1, 4) <= entry.window[1]) for entry in deep[-3:]
    )


def test_radius_on_sequence_space(coin):
    r, cert = ms.almost_decidable_radius(
        coin, SEQ2.encode_word(()), (F(1, 8), F(1, 2)), depth=6
    )
    assert F(1, 8) <= r <= F(1, 2)
    certificate_ok(cert)


def test_stationary_distribution_two_state():
    pi = ms.stationary_distribution([[F(9, 10), F(1, 10)], [F(1, 2), F(1, 2)]])
    assert pi == (F(5, 6), F(1, 6))


def test_negative_weights_are_refused_and_zero_weights_kept():
    cm = ms.ComputableMeasure
    # each sums to 1, so only the sign check can refuse it
    signed = [
        lambda: cm.lebesgue_with_atoms(LINE, F(5, 4), [(F(1, 5), F(-1, 4))]),
        lambda: cm.lebesgue_with_atoms(LINE, F(-1), [(F(1, 5), F(2))]),
        lambda: cm.bernoulli(SEQ2, [F(3, 2), F(-1, 2)]),
        lambda: cm.markov(SEQ2, [[F(3, 2), F(-1, 2)], [F(1), F(0)]]),
        lambda: cm.markov(SEQ2, [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]], initial=[F(3, 2), F(-1, 2)]),
    ]
    for build in signed:
        with pytest.raises(ValueError, match="must not be negative"):
            build()
    # point masses off the interval, or on a sequence space, were kept
    # and then lost: their mass was in no region and no cylinder
    placed = [
        (lambda: cm.lebesgue_with_atoms(LINE, F(1, 2), [(F(3, 2), F(1, 2))]), "must lie in"),
        (lambda: cm.lebesgue_with_atoms(LINE, F(1, 2), [(F(-1, 4), F(1, 2))]), "must lie in"),
        (lambda: cm.lebesgue_with_atoms(SEQ2, F(1, 2), [(F(1, 4), F(1, 2))]), "interval or circle"),
    ]
    for build, reason in placed:
        with pytest.raises(ValueError, match=reason):
            build()
    # circle positions are read mod 1
    around = [ball(WHEEL, F(1, 2), F(1, 8))]
    assert cm.lebesgue_with_atoms(WHEEL, F(1, 2), [(F(3, 2), F(1, 2))]).exact_union(around) == F(5, 8)
    assert cm.lebesgue_with_atoms(LINE, F(0), [(F(1, 5), F(1)), (F(1, 2), F(0))]).model.base_weight == 0
    assert cm.bernoulli(SEQ2, [F(1), F(0)]).word_measure((1,)) == 0
    chain = cm.markov(SEQ2, [[F(1), F(0)], [F(1, 2), F(1, 2)]], initial=[F(1), F(0)])
    assert chain.word_measure((0, 1)) == 0 and chain.word_measure((0, 0)) == 1
