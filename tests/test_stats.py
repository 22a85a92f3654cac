import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effdyn import dynamics as dy
from effdyn import measure as ms
from effdyn import space as sp
from effdyn import stats as stt
from effdyn import symbolic as sb

F = Fraction

LINE = sp.unit_interval()
WHEEL = sp.circle()
SEQ2 = sp.cantor(2)


def left_half(space):
    return ms.AlmostDecidableSet.from_interval(space, 0, F(1, 2))


def seeded_point(seed, bits):
    rng = random.Random(seed)
    return sp.rational_point(LINE, F(rng.getrandbits(bits) | 1, 1 << bits))


def test_birkhoff_rotation_equidistributes():
    sys = dy.rotation(sp.sqrt2_minus_1(WHEEL))
    x = sp.rational_point(WHEEL, 0)
    result = stt.birkhoff_average(sys, x, left_half(WHEEL), 10_000)
    assert abs(float(result.average) - 0.5) <= 0.01
    assert result.undecided <= 5


def test_birkhoff_doubling_seeded():
    sys = dy.doubling()
    x = seeded_point(0, 10_064)
    result = stt.birkhoff_average(sys, x, left_half(LINE), 10_000)
    assert abs(float(result.average) - 0.5) <= 0.02
    assert result.undecided == 0


def test_birkhoff_periodic_exact_half():
    sys = dy.doubling()
    x = sp.rational_point(LINE, F(1, 3))
    for n in (2, 10, 1000):
        result = stt.birkhoff_average(sys, x, left_half(LINE), n)
        assert result.average == F(1, 2)
        assert result.undecided == 0


def test_birkhoff_counts_partition_horizon():
    sys = dy.doubling()
    x = sp.rational_point(LINE, F(5, 16))  # hits the cut once
    result = stt.birkhoff_average(sys, x, left_half(LINE), 6)
    assert result.inside + result.outside + result.undecided == 6
    assert result.undecided == 1
    assert result.average + F(result.outside, 6) + F(result.undecided, 6) == 1


def test_birkhoff_rational_rotation_exact_frequency():
    sys = dy.rotation(F(2, 5))
    x = sp.rational_point(WHEEL, F(1, 8))  # orbit avoids the cut points
    result = stt.birkhoff_average(sys, x, left_half(WHEEL), 5)
    orbit = dy.exact_orbit(sys, F(1, 8), 5)
    expected = sum(1 for v in orbit if 0 <= v < F(1, 2))
    assert result.undecided == 0
    assert result.inside == expected
    # an orbit through the cut point 0 reports it undecided on the circle
    through_zero = stt.birkhoff_average(sys, sp.rational_point(WHEEL, 0), left_half(WHEEL), 5)
    assert through_zero.undecided == 1


def test_typicality_seeded_doubling_passes():
    sys = dy.doubling()
    mu = ms.ComputableMeasure.lebesgue(LINE)
    x = seeded_point(0, 20_064)
    family = stt.dyadic_ball_family(LINE, 3)
    result = stt.typicality_test(sys, mu, x, family, 20_000, tol=0.03)
    assert result.verdict is True
    assert result.max_residual <= 0.03


def test_typicality_periodic_negative_control():
    sys = dy.doubling()
    mu = ms.ComputableMeasure.lebesgue(LINE)
    x = sp.rational_point(LINE, F(1, 3))
    family = stt.dyadic_ball_family(LINE, 3)
    result = stt.typicality_test(sys, mu, x, family, 20_000, tol=0.02)
    assert result.verdict is False
    assert result.max_residual >= 0.1


def test_typicality_below_horizon_is_inconclusive():
    sys = dy.doubling()
    mu = ms.ComputableMeasure.lebesgue(LINE)
    x = seeded_point(1, 256)
    family = stt.dyadic_ball_family(LINE, 2)
    result = stt.typicality_test(sys, mu, x, family, 1, tol=0.05)
    assert result.verdict is None
    assert result.max_residual <= 1.0


def test_recurrence_rotation_convergent_denominator():
    sys = dy.rotation(sp.sqrt2_minus_1(WHEEL))
    x = sp.rational_point(WHEEL, F(1, 3))
    bound = stt.recurrence_stat(sys, x, 70)
    assert bound <= F(51, 10_000)


def test_recurrence_periodic_point_reaches_zero():
    sys = dy.doubling()
    x = sp.rational_point(LINE, F(1, 3))
    assert stt.recurrence_stat(sys, x, 2) == 0
    assert stt.recurrence_stat(sys, x, 50) == 0


def test_recurrence_shift_seeded_prefix_recurs():
    rng = random.Random(11)
    symbols = tuple(rng.randrange(2) for _ in range((1 << 12) + 128))
    x = sp.sequence_point(SEQ2, lambda j: symbols[j])
    bound = stt.recurrence_stat(dy.shift(2), x, 1 << 12)
    assert bound <= F(1, 256)


def test_recurrence_shift_point_known_by_approximations():
    # the same sequences as symbol oracles and through their approximations
    # alone: the bound is read off the cylinder words of either
    rng = random.Random(12)
    words = [tuple(j % 2 for j in range(200)), tuple(rng.randrange(2) for _ in range(200))]
    for word in words:
        oracle = sp.sequence_point(SEQ2, lambda j, w=word: w[j])
        approx = sp.Point(SEQ2, lambda m, w=word: SEQ2.encode_word(w[: max(m, 0) + 2]))
        for n in (1, 5, 40):
            assert stt.recurrence_stat(dy.shift(2), approx, n) == stt.recurrence_stat(dy.shift(2), oracle, n)
    approx = sp.Point(SEQ2, lambda m: SEQ2.encode_word(words[0][: max(m, 0) + 2]))
    assert stt.recurrence_stat(dy.shift(2), approx, 5) == F(1, 1 << 96)


def test_recurrence_non_increasing():
    sys = dy.rotation(sp.sqrt2_minus_1(WHEEL))
    x = sp.rational_point(WHEEL, 0)
    values = [stt.recurrence_stat(sys, x, n) for n in (5, 12, 29, 70)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def _general_residual(sys, mu, x, ad, n):
    result = stt.birkhoff_average(sys, x, ad, n)
    return abs(float(result.average) - float(ms.measure_of_ad_set(mu, ad, 20).midpoint))


def test_typicality_non_dyadic_set_matches_general_path():
    sys = dy.doubling()
    mu = ms.ComputableMeasure.lebesgue(LINE)
    x = seeded_point(4, 94)
    third = ms.AlmostDecidableSet.from_interval(LINE, 0, F(1, 3))
    family = stt.dyadic_ball_family(LINE, 2) + [("[0,1/3)", third)]
    result = stt.typicality_test(sys, mu, x, family, 30, tol=0.5, n_min=1)
    expected = [(label, _general_residual(sys, mu, x, ad, 30)) for label, ad in family]
    assert list(result.residuals) == expected


def test_typicality_dyadic_family_takes_fast_path_and_agrees(monkeypatch):
    # the family is counted in one coding pass, never set by set
    sys = dy.doubling()
    mu = ms.ComputableMeasure.lebesgue(LINE)
    x = seeded_point(4, 594)
    family = stt.dyadic_ball_family(LINE, 3) + [
        ("[0,1/4)", ms.AlmostDecidableSet.from_interval(LINE, 0, F(1, 4))),
        ("[3/8,1)", ms.AlmostDecidableSet.from_interval(LINE, F(3, 8), 1)),
    ]
    monkeypatch.setattr(stt, "birkhoff_average", None)  # must not be called
    result = stt.typicality_test(sys, mu, x, family, 500, tol=0.1)
    monkeypatch.undo()
    for (label, got), (_, ad) in zip(result.residuals, family):
        assert got == _general_residual(sys, mu, x, ad, 500), label


def test_typicality_level_comes_from_ball_ends(monkeypatch):
    # the outer ball of [0,1/2) is centred at 3/4, but its ends 1/2 and 1
    # lie on the level-1 grid, so the orbit point 1/4 is decided there
    sys = dy.doubling()
    mu = ms.ComputableMeasure.lebesgue(LINE)
    x = sp.rational_point(LINE, F(1, 8))
    family = stt.dyadic_ball_family(LINE, 1)
    monkeypatch.setattr(stt, "birkhoff_average", None)  # must not be called
    result = stt.typicality_test(sys, mu, x, family, 2, tol=0.5, n_min=1)
    monkeypatch.undo()
    assert result.undecided_fraction == 0
    assert list(result.residuals) == [
        (label, _general_residual(sys, mu, x, ad, 2)) for label, ad in family
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=320), st.data())
def test_typicality_dyadic_fast_matches_birkhoff_on_random_dyadics(bits, data):
    sys = dy.doubling()
    mu = ms.ComputableMeasure.lebesgue(LINE)
    q = F(data.draw(st.integers(min_value=0, max_value=(1 << bits) - 1)), 1 << bits)
    level = data.draw(st.integers(min_value=1, max_value=3), label="level")
    n = data.draw(st.integers(min_value=1, max_value=240), label="n")
    x = sp.rational_point(LINE, q)
    family = stt.dyadic_ball_family(LINE, level)
    result = stt.typicality_test(sys, mu, x, family, n, 0.1, n_min=1)
    expected = [(label, _general_residual(sys, mu, x, ad, n)) for label, ad in family]
    assert list(result.residuals) == expected
    undecided = max(stt.birkhoff_average(sys, x, ad, n).undecided for _, ad in family)
    assert result.undecided_fraction == undecided / n
    # every step is decided unless one lands exactly on the level grid,
    # which for q = a/2^b (a odd) are the nonzero steps b - level .. b - 1
    b = q.denominator.bit_length() - 1
    assert (result.undecided_fraction == 0) == (b == 0 or b - level >= n)


def _per_set(sys, x, ad, n):
    """(inside, outside, undecided): the set's own partition on the orbit
    `dy.iterate` computes, not on bit windows."""
    seg = dy.iterate(sys, x, n, 24)
    symbols = sb._code_segment(stt._ad_partition(ad), seg.lows, seg.highs, seg.den)
    inside, outside = symbols.count(0), symbols.count(1)
    return inside, outside, n - inside - outside


@st.composite
def _visit_cases(draw):
    """A map, a family of sets and a point, often one on a cut: 0, k/2^j,
    or a point of the rotation's grid."""
    kind = draw(st.sampled_from(["doubling", "tent", "rotation", "sqrt2-1"]))
    q = draw(st.integers(min_value=1, max_value=16), label="q")
    if kind == "rotation":
        sys = dy.rotation(F(draw(st.integers(min_value=0, max_value=q - 1), label="a"), q))
    elif kind == "sqrt2-1":
        sys = dy.rotation(sp.sqrt2_minus_1(WHEEL))
    else:
        sys = dy.doubling() if kind == "doubling" else dy.tent()
    space = sys.space
    if draw(st.booleans(), label="dyadic family"):
        family = stt.dyadic_ball_family(space, draw(st.integers(min_value=1, max_value=3)))
    else:
        family = []
        for _ in range(draw(st.integers(min_value=1, max_value=4), label="sets")):
            den = draw(st.integers(min_value=1, max_value=16), label="den")
            a = draw(st.integers(min_value=0, max_value=den - 1))
            if space is WHEEL:  # arcs past 1 run across 0
                b = a + draw(st.integers(min_value=1, max_value=den - 1 if den > 1 else 1))
            else:
                b = draw(st.integers(min_value=a + 1, max_value=den))
            ad = ms.AlmostDecidableSet.from_interval(space, F(a, den), F(b, den))
            family.append((f"[{a}/{den},{b}/{den})", ad))
    point = draw(st.sampled_from(["zero", "dyadic", "grid", "seeded"]), label="point")
    if point == "zero":
        x = F(0)
    elif point == "dyadic":
        j = draw(st.integers(min_value=0, max_value=6))
        x = F(draw(st.integers(min_value=0, max_value=1 << j)), 1 << j)
    elif point == "grid":
        x = F(draw(st.integers(min_value=0, max_value=q - 1)), q)
    else:
        bits = draw(st.integers(min_value=1, max_value=200))
        seed = draw(st.integers(min_value=0, max_value=1 << 16), label="seed")
        x = F(random.Random(seed).getrandbits(bits), 1 << bits)
    n = draw(st.integers(min_value=1, max_value=120), label="n")
    return sys, family, sp.rational_point(space, x), n


@settings(max_examples=150, deadline=None)
@given(_visit_cases())
def test_visits_match_per_set_coding(case):
    """The one coding pass against the common refinement gives every set
    the counts of its own coding pass, and typicality reports them."""
    sys, family, x, n = case
    expected = [_per_set(sys, x, ad, n) for _, ad in family]
    got = stt._visits(sys, x, [ad for _, ad in family], n)
    assert [(r.inside, r.outside, r.undecided) for r in got] == expected
    mu = ms.ComputableMeasure.lebesgue(sys.space)
    result = stt.typicality_test(sys, mu, x, family, n, 0.1, n_min=1)
    residuals = [
        (label, abs(float(F(inside, n)) - float(ms.measure_of_ad_set(mu, ad, 20).midpoint)))
        for (label, ad), (inside, _, _) in zip(family, expected)
    ]
    assert list(result.residuals) == residuals
    assert result.undecided_fraction == max(undecided for _, _, undecided in expected) / n


@pytest.mark.parametrize(
    "sys, clear, on_cut",
    [
        (dy.doubling(), F(7, 1 << 300), F(5, 16)),
        (dy.tent(), F(1, 3), F(3, 16)),
        (dy.rotation(F(3, 7)), F(1, 5), F(1, 8)),
    ],
    ids=["doubling", "tent", "rotation-3/7"],
)
def test_typicality_codes_the_orbit_once(monkeypatch, sys, clear, on_cut):
    """One coding pass for a 30-set family, and no second orbit segment
    when a step meets a cut: its steps are coded set by set from the
    segment the pass coded."""
    calls = {"_code_orbit": 0, "iterate": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(sb, "_code_orbit")
    counted(dy, "iterate")
    mu = ms.ComputableMeasure.lebesgue(sys.space)
    family = stt.dyadic_ball_family(sys.space, 4)
    assert len(family) == 30
    iterates = []
    for q in (clear, on_cut):
        calls.update(_code_orbit=0, iterate=0)
        x = sp.rational_point(sys.space, q)
        result = stt.typicality_test(sys, mu, x, family, 200, 0.1, n_min=1)
        assert calls["_code_orbit"] == 1
        iterates.append(calls["iterate"])
        assert (result.undecided_fraction > 0) == (q == on_cut)
    # dyadic doubling and tent points (all but tent's 1/3) read bit windows
    assert iterates == {"doubling": [0, 0], "tent": [1, 0], "rotation(3/7)": [1, 1]}[sys.name]


def test_visits_on_an_irrational_rotation_iterate_the_orbit_once(monkeypatch):
    """Level-4 visit counts on the sqrt2-1 rotation from 0, whose first
    step lies on a cut: one `dy.iterate`, and every set's counts are those
    of its own coding pass."""
    sys = dy.rotation(sp.sqrt2_minus_1(WHEEL))
    x = sp.rational_point(WHEEL, F(0))
    sets = [ad for _, ad in stt.dyadic_ball_family(WHEEL, 4)]
    n = 30_000
    expected = [_per_set(sys, x, ad, n) for ad in sets]
    assert any(undecided for _, _, undecided in expected)
    iterate = dy.iterate
    runs = []

    def counted(*args, **kwargs):
        runs.append(args[2])
        return iterate(*args, **kwargs)

    monkeypatch.setattr(dy, "iterate", counted)
    got = stt._visits(sys, x, sets, n)
    assert runs == [n]
    assert [(r.inside, r.outside, r.undecided) for r in got] == expected


def test_visits_reject_sequence_space():
    family = [ms.AlmostDecidableSet.from_cylinder(SEQ2, (0,))]
    x = sp.sequence_point(SEQ2, lambda j: j % 2)
    with pytest.raises(sp.SpaceMismatch):
        stt._visits(dy.shift(2), x, family, 4)


def test_typicality_seeded_irrational_rotation_gives_a_verdict():
    # the outer arcs of [0, 1/8) and [7/8, 1) cross 0, and their points
    # are decided there: no step of a seeded orbit is left undecided
    sys = dy.rotation(sp.sqrt2_minus_1(WHEEL))
    mu = ms.ComputableMeasure.lebesgue(WHEEL)
    x = sp.rational_point(WHEEL, F(random.Random(1).getrandbits(64) | 1, 1 << 64))
    result = stt.typicality_test(sys, mu, x, stt.dyadic_ball_family(WHEEL, 3), 2000, tol=0.05)
    assert result.undecided_fraction == 0
    assert result.verdict is True


def _between(exact, reported):
    """A float tol within 2**-21 of the exact residual, strictly between it
    and the residual reported from the midpoint of mu(A)'s enclosure."""
    tol = float((exact + F(reported)) / 2)
    assert min(exact, F(reported)) < F(tol) < max(exact, F(reported))
    assert abs(F(tol) - exact) < F(1, 1 << 21)
    return tol


def test_typicality_verdict_is_exact_within_enclosure_width():
    # the orbit of 0 stays at 0, so each residual is |hits/n - mu(A)| with
    # hits/n in {0, 1}; mu(A) is not dyadic, so the midpoint of its 2**-20
    # enclosure misses it, and a tol between the two splits the verdicts
    sys = dy.doubling()
    lebesgue = ms.ComputableMeasure.lebesgue(LINE)
    mixture = ms.ComputableMeasure.lebesgue_with_atoms(LINE, F(1, 3), [(F(3, 4), F(2, 3))])
    cases = [
        # [1/3, 2/3) is missed, [0, 1/3) always hit
        (lebesgue, ms.AlmostDecidableSet.from_interval(LINE, F(1, 3), F(2, 3)), F(1, 3)),
        (lebesgue, ms.AlmostDecidableSet.from_interval(LINE, 0, F(1, 3)), F(2, 3)),
        # mu([0, 1/2)) = 1/6, always hit
        (mixture, left_half(LINE), F(5, 6)),
    ]
    x = sp.rational_point(LINE, 0)
    for mu, ad, exact in cases:
        reported = stt.typicality_test(sys, mu, x, [("A", ad)], 4, 1.0, n_min=1).max_residual
        tol = _between(exact, reported)
        result = stt.typicality_test(sys, mu, x, [("A", ad)], 4, tol, n_min=1)
        assert result.max_residual == reported
        assert result.verdict is (exact <= F(tol))
        assert result.verdict is not (reported <= tol)


def test_typicality_verdict_is_none_when_tol_is_never_separated():
    # the orbit of 1/7 visits [0, 1/2) at 1/7 and 2/7, not at 4/7; with
    # mu([0, 1/2)) = 1/6 both residuals are exactly 1/2, and no dyadic
    # enclosure of 1/6 or 5/6 decides whether they exceed tol = 1/2
    sys = dy.doubling()
    mu = ms.ComputableMeasure.lebesgue_with_atoms(LINE, F(1, 3), [(F(3, 4), F(2, 3))])
    x = sp.rational_point(LINE, F(1, 7))
    family = stt.dyadic_ball_family(LINE, 1)
    result = stt.typicality_test(sys, mu, x, family, 3, 0.5, n_min=1)
    assert result.undecided_fraction == 0
    assert result.verdict is None
    assert stt.typicality_test(sys, mu, x, family, 3, 0.51, n_min=1).verdict is True
    assert stt.typicality_test(sys, mu, x, family, 3, 0.49, n_min=1).verdict is False


def test_family_set_cap():
    # level 9 gives 1,022 sets and level 10 2,046; shipped levels go to 4
    assert stt.FAMILY_SET_CAP == 1 << 10
    assert len(stt.dyadic_ball_family(LINE, 9)) == 1022
    for level in (10, 10**9):
        with pytest.raises(ValueError, match="more than FAMILY_SET_CAP = 1024 sets"):
            stt.dyadic_ball_family(LINE, level)
