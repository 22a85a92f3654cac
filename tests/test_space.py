import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effdyn import space as sp

F = Fraction


@pytest.fixture
def line():
    return sp.unit_interval()


@pytest.fixture
def wheel():
    return sp.circle()


@pytest.fixture
def seq2():
    return sp.cantor(2)


def test_pairing_roundtrip():
    for a in range(25):
        for b in range(25):
            assert sp.unpair(sp.pair(a, b)) == (a, b)


def test_dyadic_encode_decode_roundtrip(line):
    for level in range(6):
        for num in range(2**level + 1):
            q = F(num, 2**level)
            assert line.decode(line.encode_dyadic(q)) == q


def test_word_encode_decode_roundtrip(seq2):
    words = [(), (0,), (1,), (0, 1), (1, 1, 0), (0, 0, 0, 1)]
    for w in words:
        assert seq2.decode(seq2.encode_word(w)) == w
    tern = sp.cantor(3)
    for w in [(), (2,), (1, 2, 0), (2, 2, 2, 1)]:
        assert tern.decode(tern.encode_word(w)) == w


def test_decode_total_on_naturals(line, seq2):
    for i in range(200):
        v = line.decode(i)
        assert 0 <= v <= 1
        w = seq2.decode(i)
        assert all(c in (0, 1) for c in w)


def _reference_decode(k, index):
    """Sequence-space decode one symbol at a time: peel the length block by
    block, then the digits by % k and // k."""
    length, block, remaining = 0, 1, index
    while remaining >= block:
        remaining -= block
        block *= k
        length += 1
    word = []
    for _ in range(length):
        word.append(remaining % k)
        remaining //= k
    return tuple(reversed(word))


def _reference_encode_word(k, word):
    offset, block = 0, 1
    for _ in range(len(word)):
        offset += block
        block *= k
    value = 0
    for c in word:
        value = value * k + c
    return offset + value


@pytest.mark.parametrize("k", [2, 3, 5])
def test_word_numbering_matches_per_symbol_loops(k):
    """The divide-and-conquer decode and encode_word give the per-symbol
    loops' answers around every length offset (k^L - 1)/(k - 1) tried, on
    both sides of the digit leaves and up to about 5,000 symbols."""
    import random

    space = sp.cantor(k)
    rng = random.Random(k)
    lengths = list(range(70)) + [95, 96, 97, 127, 128, 129, 255, 256, 257, 1000, 1023, 1024, 1025]
    lengths += [2047, 2048, 2049, 4095, 4096, 4097, 5000]
    for length in lengths:
        offset = _reference_encode_word(k, (0,) * length)
        for index in (offset - 1, offset, offset + 1):
            if index >= 0:
                assert space.decode(index) == _reference_decode(k, index)
        for word in ((k - 1,) * length, tuple(rng.randrange(k) for _ in range(length))):
            index = space.encode_word(word)
            assert index == _reference_encode_word(k, word)
            assert space.decode(index) == word


def test_interval_distance(line):
    x = sp.rational_point(line, F(1, 4))
    y = sp.rational_point(line, F(3, 4))
    d = sp.dist(x, y, 12)
    assert d.contains(F(1, 2))
    assert d.width <= F(1, 2**12)


def test_circle_wraparound(wheel):
    x = sp.rational_point(wheel, F(0))
    y = sp.rational_point(wheel, F(3, 4))
    d = sp.dist(x, y, 10)
    assert d.contains(F(1, 4))


def test_cantor_first_disagreement(seq2):
    x = sp.word_point(seq2, (0, 1, 0, 0, 0))
    y = sp.word_point(seq2, (0, 0, 1, 1, 1))
    d = sp.dist(x, y, 8)
    assert d.contains(F(1, 2))


def test_space_mismatch_raises(line, wheel):
    x = sp.rational_point(line, F(1, 2))
    y = sp.rational_point(wheel, F(1, 2))
    with pytest.raises(sp.SpaceMismatch):
        sp.dist(x, y, 4)


def test_approx_ball_contains_rational_point(line):
    x = sp.rational_point(line, F(1, 3))
    for n in range(1, 12):
        ball = sp.approx(x, n)
        assert ball.radius == F(2, 2**n)
        # exact check: true point within the returned ball
        assert abs(ball.center_desc - F(1, 3)) < ball.radius


def test_approx_dyadic_truncation_of_reference(line):
    # limit of floor(2^n * pi/4) / 2^n, presented as a fast sequence
    def approximator(n):
        m = n + 2
        num = int(math.pi / 4 * 2**m)  # desk-scale reference truncation
        return line.encode_dyadic(F(num, 2**m))

    x = sp.Point(line, approximator)
    ball = sp.approx(x, 5)
    assert ball.radius == F(1, 16)
    assert abs(ball.center_desc - F(785398, 10**6)) < F(1, 64)


def test_approx_cantor_prefix(seq2):
    x = sp.word_point(seq2, (0, 1, 1, 0), repeat=True)
    ball = sp.approx(x, 4)
    assert len(ball.center_desc) >= 4
    assert ball.center_desc[:4] == (0, 1, 1, 0)
    assert ball.radius == F(1, 8)


def test_fastness_audit_on_constructed_points(line, wheel, seq2):
    points = [
        sp.rational_point(line, F(1, 3)),
        sp.rational_point(wheel, F(5, 7)),
        sp.word_point(seq2, (1, 0, 1), repeat=True),
        sp.sqrt2_minus_1(wheel),
    ]
    for x in points:
        for n in range(1, 14):
            a = x.approx_desc(n)
            b = x.approx_desc(n + 1)
            assert x.space.dist_desc(a, b) < F(1, 2**n)


def test_sqrt2_minus_1_value(wheel):
    x = sp.sqrt2_minus_1(wheel)
    v = x.approx_desc(30)
    assert abs(float(v) - (math.sqrt(2) - 1)) < 2**-28


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=400), st.integers(min_value=0, max_value=400))
def test_metric_axioms_on_ideal_points(i, j):
    for spc in (sp.unit_interval(), sp.circle(), sp.cantor(2)):
        dij = spc.ideal_dist(i, j)
        dji = spc.ideal_dist(j, i)
        assert dij == dji  # symmetry is exact
        assert dij.lo >= 0
        if spc.decode(i) == spc.decode(j):
            assert dij == sp.Interval.point(0)


@settings(max_examples=30)
@given(
    st.integers(min_value=0, max_value=120),
    st.integers(min_value=0, max_value=120),
    st.integers(min_value=0, max_value=120),
)
def test_triangle_inequality_on_ideal_points(i, j, k):
    for spc in (sp.unit_interval(), sp.circle(), sp.cantor(3)):
        dik = spc.ideal_dist(i, k).lo
        detour = spc.ideal_dist(i, j).hi + spc.ideal_dist(j, k).hi
        assert dik <= detour
