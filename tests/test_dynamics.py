from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effdyn import dynamics as dy
from effdyn import measure as ms
from effdyn import space as sp
from effdyn.numerics import Interval

F = Fraction


def test_doubling_period_two_orbit():
    sys = dy.doubling()
    x = sp.rational_point(sys.space, F(1, 3))
    seg = dy.iterate(sys, x, 4, 10)
    expected = [F(1, 3), F(2, 3), F(1, 3), F(2, 3)]
    for enclosure, value in zip(seg.enclosures, expected):
        assert enclosure.contains(value)
        assert enclosure.width < F(1, 1024)


def test_rational_rotation_exact_orbit():
    sys = dy.rotation(F(2, 5))
    x = sp.rational_point(sys.space, 0)
    seg = dy.iterate(sys, x, 5, 20)
    values = [v for v in dy.exact_orbit(sys, 0, 5)]
    assert values == [F(0), F(2, 5), F(4, 5), F(1, 5), F(3, 5)]
    assert seg.exact
    for enclosure, value in zip(seg.enclosures, values):
        assert enclosure.contains(value)


def test_shift_drops_symbols():
    sys = dy.shift(2)
    x = sp.word_point(sys.space, (0, 1, 1, 0), repeat=True)
    seg = dy.iterate(sys, x, 2, 6)
    assert seg.enclosures[0][:4] == (0, 1, 1, 0)
    assert seg.enclosures[1][:4] == (1, 1, 0, 0)


def test_tent_exact_orbit():
    sys = dy.tent()
    values = dy.exact_orbit(sys, F(3, 8), 4)
    assert values == [F(3, 8), F(3, 4), F(1, 2), F(1)]
    assert dy.exact_orbit(sys, F(1), 2) == [F(1), F(0)]


def test_enclosure_path_contains_exact_orbit():
    # force the interval path by hiding the exact description
    sys = dy.doubling()
    q = F(1, 5)

    def approximator(n):
        from effdyn.numerics import dyadic_floor

        return sys.space.encode_dyadic(dyadic_floor(q, n + 2))

    x = sp.from_fast_sequence(sys.space, approximator)
    seg = dy.iterate(sys, x, 8, 12)
    assert not seg.exact
    for enclosure, value in zip(seg.enclosures, dy.exact_orbit(sys, q, 8)):
        assert enclosure.contains(value)
        assert enclosure.width < F(1, 4096)


def test_enclosure_path_rotation_irrational():
    sys = dy.rotation(sp.sqrt2_minus_1(sp.circle()))
    x = sp.rational_point(sys.space, 0)
    seg = dy.iterate(sys, x, 50, 16)
    assert not seg.exact
    for enclosure in seg.enclosures:
        assert enclosure.width < F(1, 1 << 16)
    # step 0 is x itself
    assert seg.enclosures[0].contains(F(0))


def test_precision_blowup_at_discontinuity():
    # orbit of 1/2 hits the doubling cut; without the exact description the
    # image enclosure cannot be narrowed
    sys = dy.doubling()

    def approximator(n):
        return sys.space.encode_dyadic(F(1, 2))

    x = sp.from_fast_sequence(sys.space, approximator)
    with pytest.raises(dy.PrecisionBlowup):
        dy.iterate(sys, x, 3, 8, precision_cap=4096)


def test_semigroup_on_exact_points():
    sys = dy.tent()
    q = F(5, 13)
    whole = dy.exact_orbit(sys, q, 9)
    first = dy.exact_orbit(sys, q, 4)
    rest = dy.exact_orbit(sys, whole[4], 5)
    assert whole == first + rest


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["doubling", "tent", "rot"]),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([64, 3, 7, 12, 45]),
)
def test_exact_path_matches_generic_fraction_path(kind, num, n, den):
    sys = {"doubling": dy.doubling(), "tent": dy.tent(), "rot": dy.rotation(F(3, 7))}[kind]
    q = F(num % den, den)
    values = dy.exact_orbit(sys, q, n)
    slow = [q]
    for _ in range(n - 1):
        slow.append(dy.exact_step(sys, slow[-1]))
    assert values == slow


def test_bowen_dist_rotation_is_isometry():
    sys = dy.rotation(F(1, 7))
    x = sp.rational_point(sys.space, F(1, 8))
    y = sp.rational_point(sys.space, F(3, 4))
    base = sp.dist(x, y, 14)
    for n in (1, 3, 9):
        dn = dy.bowen_dist(sys, x, y, n, 14)
        assert dn.lo <= base.hi and base.lo <= dn.hi  # equal within enclosures


def test_bowen_dist_doubling_doubles():
    sys = dy.doubling()
    x = sp.rational_point(sys.space, 0)
    y = sp.rational_point(sys.space, F(1, 1024))
    dn = dy.bowen_dist(sys, x, y, 5, 16)
    assert dn.contains(F(1, 64))


def test_bowen_dist_shift_shortens_agreement():
    sys = dy.shift(2)
    m = 6
    x = sp.word_point(sys.space, (0, 1, 0, 0, 1, 1) + (0,) * 10)
    y = sp.word_point(sys.space, (0, 1, 0, 0, 1, 1) + (1,) * 10)
    for n in (1, 2, 4):
        dn = dy.bowen_dist(sys, x, y, n, 12)
        assert dn.contains(F(1, 1 << (m - n + 1)))


def test_bowen_dist_monotone_in_n():
    sys = dy.doubling()
    x = sp.rational_point(sys.space, F(1, 7))
    y = sp.rational_point(sys.space, F(2, 11))
    previous = None
    for n in range(1, 8):
        dn = dy.bowen_dist(sys, x, y, n, 18)
        if previous is not None:
            assert dn.hi >= previous.lo
            assert dn.lo >= previous.lo - F(1, 1 << 17)
        previous = dn
    d1 = dy.bowen_dist(sys, x, y, 1, 18)
    direct = sp.dist(x, y, 18)
    assert d1.lo <= direct.hi and direct.lo <= d1.hi


def test_tagged_measure_invariance_exact():
    line = sp.unit_interval()
    wheel = sp.circle()
    seq = sp.cantor(2)
    cases = [
        (dy.doubling(), ms.ComputableMeasure.lebesgue(line), [(F(1, 8), F(3, 8))]),
        (dy.tent(), ms.ComputableMeasure.lebesgue(line), [(F(1, 8), F(5, 8))]),
        (dy.rotation(F(2, 7)), ms.ComputableMeasure.lebesgue(wheel), [(F(1, 16), F(5, 16))]),
    ]
    for sys, mu, pieces in cases:
        region = ms.LineRegion(tuple(pieces)) if sys.space == line else ms._circle_region(pieces)
        pre = dy.preimage_pieces(sys, pieces)
        pre_region = (
            ms.LineRegion(tuple(ms._merge_pieces(pre)))
            if sys.space == line
            else ms._circle_region(pre)
        )
        assert mu.model.region_measure(pre_region) == mu.model.region_measure(region)

    chain = ms.ComputableMeasure.markov(seq, [[F(9, 10), F(1, 10)], [F(1, 2), F(1, 2)]])
    words = [(0, 1), (1,)]
    direct = sum(chain.word_measure(w) for w in words)
    pulled = sum(chain.word_measure(w) for w in dy.preimage_words(dy.shift(2), words))
    assert direct == pulled


def test_circle_distance_interval_wraps():
    a = Interval(F(31, 32), F(33, 32))  # arc around 0
    b = Interval(F(1, 32), F(2, 32))
    d = dy._circle_dist_interval(a, b)
    assert d.lo == 0  # enclosures overlap mod 1
    assert d.hi <= F(4, 32)


def test_iterate_rejects_mismatched_space():
    sys = dy.doubling()
    x = sp.rational_point(sp.circle(), F(1, 4))
    with pytest.raises(sp.SpaceMismatch):
        dy.iterate(sys, x, 2, 4)
