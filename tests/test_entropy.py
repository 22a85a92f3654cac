import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effdyn import coding as cd
from effdyn import dynamics as dy
from effdyn import entropy as en
from effdyn import measure as ms
from effdyn import space as sp
from effdyn import symbolic as sb

F = Fraction

LINE = sp.unit_interval()
WHEEL = sp.circle()
SEQ2 = sp.cantor(2)
SEQ3 = sp.cantor(3)


def binary_entropy(p):
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def seeded_dyadic(seed, bits):
    rng = random.Random(seed)
    return F(rng.getrandbits(bits) | 1, 1 << bits)


def test_block_entropy_doubling_exact():
    mu = ms.ComputableMeasure.lebesgue(LINE)
    report = en.block_entropy(dy.doubling(), mu, sb.halves(LINE), 10)
    values = dict((n, v) for _, n, v in report.rows)
    assert all(values[n] == float(n) for n in range(1, 11))
    assert report.rate == 1.0


def test_block_entropy_markov_conditional_rate():
    chain = ms.ComputableMeasure.markov(SEQ2, [[F(9, 10), F(1, 10)], [F(1, 2), F(1, 2)]])
    report = en.block_entropy(dy.shift(2), chain, sb.cylinders(SEQ2, 1), 8)
    target = F(5, 6) * binary_entropy(0.9) + F(1, 6) * binary_entropy(0.5)
    assert abs(report.rate - float(target)) < 1e-9


def test_block_entropy_markov_window_coding():
    # coding through length-2 windows leaves the conditional rate unchanged
    chain = ms.ComputableMeasure.markov(SEQ2, [[F(9, 10), F(1, 10)], [F(1, 2), F(1, 2)]])
    report = en.block_entropy(dy.shift(2), chain, sb.cylinders(SEQ2, 2), 6)
    target = F(5, 6) * binary_entropy(0.9) + F(1, 6) * binary_entropy(0.5)
    assert abs(report.rate - float(target)) < 1e-9


def test_block_entropy_rotation_low_complexity():
    mu = ms.ComputableMeasure.lebesgue(WHEEL)
    sys = dy.rotation(sp.sqrt2_minus_1(WHEEL))
    report = en.block_entropy(sys, mu, sb.halves(WHEEL), 256)
    assert report.rate <= 0.06
    values = dict((n, v) for _, n, v in report.rows)
    for n, v in values.items():
        assert v <= math.log2(2 * n + 2) + 1e-9


def test_block_entropy_gap_method_matches_cylinders():
    mu = ms.ComputableMeasure.lebesgue(WHEEL)
    partition = sb.halves(WHEEL)
    for angle in (F(2, 5), F(1, 3), F(3, 7), F(3, 16)):
        sys = dy.rotation(angle)
        report = en.block_entropy(sys, mu, partition, 4)
        walk = en._pullback_level_entropies(sys, mu, partition, range(1, 5))
        for n in (1, 2, 3, 4):
            total = 0.0
            for value in range(2**n):
                word = tuple((value >> (n - 1 - i)) & 1 for i in range(n))
                mass = sb.cylinder_measure(sys, mu, partition, word)
                if mass > 0:
                    total -= float(mass) * math.log2(float(mass))
            got = next(v for _, m, v in report.rows if m == n)
            assert abs(got - total) < 1e-9
            # the gaps and the walk sum the same masses in different orders,
            # one ULP apart at 3/16, n = 2
            assert abs(got - walk[n]) < 1e-12, (angle, n)


def _arcs(*ends):
    """The partition of the circle into the arcs between consecutive ends."""
    atoms = tuple(((F(a), F(b)),) for a, b in zip(ends, ends[1:]))
    return sb.ComputablePartition(WHEEL, atoms, name="arcs")


def test_block_entropy_takes_gaps_only_when_they_are_cylinders():
    # the gap method counts each gap between cuts as one cylinder, which
    # needs one arc of length <= 1/2 per atom and arcs that fill the circle
    mu = ms.ComputableMeasure.lebesgue(WHEEL)
    whole = sb.ComputablePartition(WHEEL, (((F(0), F(1)),),), name="whole")
    across = sb.ComputablePartition(WHEEL, (((F(1, 4), F(3, 4)),), ((F(3, 4), F(5, 4)),)))
    gapped = [
        sb.halves(WHEEL),
        sb.dyadic_intervals(WHEEL, 2),
        sb.dyadic_intervals(WHEEL, 3),
        across,
        _arcs(0, F(1, 5), F(1, 2), 1),
    ]
    # two arcs per atom; an arc longer than 1/2; one atom; arcs with holes
    two_arcs = (((F(0), F(1, 4)), (F(1, 2), F(3, 4))), ((F(1, 4), F(1, 2)), (F(3, 4), F(1))))
    holes = (((F(0), F(1, 4)),), ((F(1, 2), F(3, 4)),))
    walked = [sb.ComputablePartition(WHEEL, two_arcs), _arcs(0, F(3, 4), 1), whole]
    walked.append(sb.ComputablePartition(WHEEL, holes))
    for partition in gapped + walked:
        for angle in (F(1, 2), F(1, 3), F(2, 5), F(3, 7), F(3, 16)):
            sys = dy.rotation(angle)
            report = en.block_entropy(sys, mu, partition, 6)
            walk = en._pullback_level_entropies(sys, mu, partition, range(1, 7))
            for _, n, value in report.rows[:-1]:
                if partition in walked:
                    assert value == walk[n], (partition.atoms, angle, n)
                else:
                    assert abs(value - walk[n]) < 1e-12, (partition.atoms, angle, n)
    third = dict((n, v) for _, n, v in en.block_entropy(dy.rotation(F(1, 3)), mu, walked[0], 1).rows)
    assert third[1] == 1.0
    half = dict((n, v) for _, n, v in en.block_entropy(dy.rotation(F(1, 2)), mu, walked[1], 2).rows)
    assert half[2] == 1.5
    irrational = dy.rotation(sp.sqrt2_minus_1(WHEEL))
    for partition in walked:
        with pytest.raises(sb.UnsupportedCylinder):
            en.block_entropy(irrational, mu, partition, 4)


def _fraction_entropy_bits(masses) -> float:
    """The entropy sum on Fraction masses, one term per distinct Fraction."""
    total = 0.0
    terms = {}
    for mass in masses:
        term = terms.get(mass)
        if term is None:
            term = terms[mass] = float(mass) * cd.neg_log2(mass) if mass > 0 else 0.0
        total += term
    return total


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_entropy_bits_on_pairs_matches_fractions(data):
    den = data.draw(st.sampled_from([1, 3, 1 << 12, 3 << 40, 1 << 4096, 5**300]))
    nums = data.draw(st.lists(st.integers(min_value=0, max_value=den), min_size=1, max_size=12))
    # repeats, each written over its own multiple of den
    nums += data.draw(st.lists(st.sampled_from(nums), max_size=6))
    scales = data.draw(st.lists(st.integers(1, 1 << 70), min_size=len(nums), max_size=len(nums)))
    pairs = [(num * k, den * k) for num, k in zip(nums, scales)]
    assert en._entropy_bits(pairs) == _fraction_entropy_bits(F(*pair) for pair in pairs)


def test_entropy_bits_of_tiny_masses():
    tiny = [(1, 1 << 4096), (3, 1 << 4097), (0, 7), (1, 1 << 1074), (1, 2), (2, 4)]
    assert en._entropy_bits(tiny) == _fraction_entropy_bits(F(*pair) for pair in tiny)
    # two halves, and terms that underflow to 0.0 or to a subnormal
    assert en._entropy_bits(tiny) == 1.0


def test_block_entropy_of_rotations_reads_the_measure():
    # three atoms on one orbit of the rotation by 1/3: the measure is
    # invariant, and its cylinders are not their Lebesgue lengths
    atoms = [(F(1, 10), F(1, 6)), (F(13, 30), F(1, 6)), (F(23, 30), F(1, 6))]
    mu = ms.ComputableMeasure.lebesgue_with_atoms(WHEEL, F(1, 2), atoms)
    partition = sb.halves(WHEEL)
    sys = dy.rotation(F(1, 3))
    values = dict((n, v) for _, n, v in en.block_entropy(sys, mu, partition, 4).rows)
    assert values[3] == values[4] == pytest.approx(2.396240625)
    lebesgue = ms.ComputableMeasure.lebesgue(WHEEL)
    masses = [sb.cylinder_measure(sys, mu, partition, w) for w in itertools.product((0, 1), repeat=3)]
    pairs = [m.as_integer_ratio() for m in masses]
    assert values[3] == pytest.approx(en._entropy_bits(pairs), abs=1e-12)
    assert dict((n, v) for _, n, v in en.block_entropy(sys, lebesgue, partition, 3).rows)[3] == (
        pytest.approx(math.log2(6))
    )
    with pytest.raises(sb.UnsupportedCylinder):
        en.block_entropy(dy.rotation(sp.sqrt2_minus_1(WHEEL)), mu, partition, 4)


def test_block_entropy_subadditive():
    mu = ms.ComputableMeasure.lebesgue(LINE)
    report = en.block_entropy(dy.tent(), mu, sb.halves(LINE), 8)
    H = dict((n, v) for _, n, v in report.rows)
    for n in range(1, 5):
        for m in range(1, 4):
            assert H[n + m] <= H[n] + H[m] + 1e-9


def test_local_info_doubling():
    mu = ms.ComputableMeasure.lebesgue(LINE)
    x = sp.rational_point(LINE, F(1, 3))
    assert en.local_info(dy.doubling(), mu, x, sb.halves(LINE), 12) == pytest.approx(12)
    assert en.local_info(dy.doubling(), mu, x, sb.halves(LINE), 0) == 0.0


def test_local_info_markov_word():
    chain = ms.ComputableMeasure.markov(SEQ2, [[F(9, 10), F(1, 10)], [F(1, 2), F(1, 2)]])
    x = sp.word_point(SEQ2, (0, 0, 1), repeat=True)
    value = en.local_info(dy.shift(2), chain, x, sb.cylinders(SEQ2, 1), 3)
    assert value == pytest.approx(-math.log2(3 / 40))


GRID12 = [1 << j for j in range(4, 13)]


def test_symbol_rate_doubling_seeded():
    x = sp.rational_point(LINE, seeded_dyadic(0, 1 << 13))
    report = en.symbol_rate(dy.doubling(), x, sb.halves(LINE), GRID12)
    assert 0.85 <= report.rate <= 1.1


def test_symbol_rate_rotation_low():
    # converges to ~0.05 by n = 2**14 (acceptance scale); at this desk grid
    # the top-quarter proxy still carries header overhead
    sys = dy.rotation(sp.sqrt2_minus_1(WHEEL))
    x = sp.rational_point(WHEEL, F(1, 7))
    report = en.symbol_rate(sys, x, sb.halves(WHEEL), GRID12)
    assert report.rate <= 0.2
    assert [v for p, _, v in report.rows if p == "bits_per_step"][-1] <= 0.12


def test_symbol_rate_periodic_compresses():
    x = sp.rational_point(LINE, F(1, 3))
    report = en.symbol_rate(dy.doubling(), x, sb.halves(LINE), GRID12)
    assert report.rate <= 0.05


def test_symbol_rate_reports_truncation():
    x = sp.rational_point(LINE, F(5, 16))  # orbit hits the cut at step 3
    report = en.symbol_rate(dy.doubling(), x, sb.halves(LINE), [2, 4, 8])
    assert report.diagnostics["truncated_at"] == 3
    assert [n for _, n, _ in report.rows] == [2]


def test_sandwich_symbol_rate_vs_local_info():
    mu = ms.ComputableMeasure.lebesgue(LINE)
    x = sp.rational_point(LINE, seeded_dyadic(1, 1 << 13))
    n = 1 << 12
    report = en.symbol_rate(dy.doubling(), x, sb.halves(LINE), GRID12)
    info = en.local_info(dy.doubling(), mu, x, sb.halves(LINE), n)
    assert abs(report.rate - info / n) < 0.15


def test_sandwich_on_markov_sample():
    rows = [[F(9, 10), F(1, 10)], [F(1, 2), F(1, 2)]]
    chain = ms.ComputableMeasure.markov(SEQ2, rows)
    rng = random.Random(6)
    symbols = [0]
    for _ in range((1 << 12) + 64):
        p_stay = rows[symbols[-1]][0]
        symbols.append(0 if rng.random() < float(p_stay) else 1)
    x = sp.sequence_point(SEQ2, lambda j: symbols[j])
    n = 1 << 12
    sys = dy.shift(2)
    partition = sb.cylinders(SEQ2, 1)
    report = en.symbol_rate(sys, x, partition, GRID12)
    info = en.local_info(sys, chain, x, partition, n)
    assert abs(report.rate - info / n) < 0.15


def test_orbit_rate_doubling_window_and_monotone():
    x = sp.rational_point(LINE, seeded_dyadic(0, 1 << 12))
    grid = [1 << j for j in range(5, 12)]
    report = en.orbit_rate(dy.doubling(), x, [4, 6, 8], grid)
    upper = {int(k.split("-")[1]): v for k, v in report.diagnostics["upper_by_scale"].items()}
    assert 0.85 <= upper[6] <= 1.15
    assert upper[6] >= upper[4] - 0.05
    assert upper[8] >= upper[6] - 0.05


def test_orbit_rate_lower_leq_upper():
    x = sp.rational_point(LINE, seeded_dyadic(3, 1 << 11))
    report = en.orbit_rate(dy.doubling(), x, [5], [1 << j for j in range(4, 11)])
    up = report.diagnostics["upper_by_scale"]["2^-5"]
    low = report.diagnostics["lower_by_scale"]["2^-5"]
    assert low <= up


def test_orbit_rate_rotation_small():
    sys = dy.rotation(sp.sqrt2_minus_1(WHEEL))
    x = sp.rational_point(WHEEL, F(1, 7))
    report = en.orbit_rate(sys, x, [4, 6], [1 << j for j in range(4, 11)])
    assert report.rate <= 0.35  # ~0.07 by n = 2**12; headers dominate here


def test_orbit_rate_single_step_sanity():
    x = sp.rational_point(LINE, F(1, 5))
    report = en.orbit_rate(dy.doubling(), x, [4], [1])
    assert report.rate > 0  # finite header cost for one index


def test_symbol_vs_orbit_rate_agree_on_seed():
    q = seeded_dyadic(0, 1 << 12)
    x = sp.rational_point(LINE, q)
    grid = [1 << j for j in range(5, 12)]
    sym = en.symbol_rate(dy.doubling(), x, sb.halves(LINE), grid)
    orb = en.orbit_rate(dy.doubling(), x, [6], grid)
    assert abs(sym.rate - orb.rate) <= 0.2


# -- spanning / h1 -------------------------------------------------------------


def test_spanning_shift_exact_counts():
    for k in (2, 3):
        for n, p in [(3, 1), (4, 2)]:
            span = en.spanning_separated(dy.shift(k), n, p)
            assert span.count == k ** (n + p)


def test_spanning_sets_verified_separated():
    cases = [
        (dy.doubling(), 5, 2),
        (dy.shift(2), 3, 2),
        (dy.rotation(F(2, 7)), 6, 3),
        (dy.tent(), 4, 2),
    ]
    for sysm, n, p in cases:
        span = en.spanning_separated(sysm, n, p)
        assert en.verify_separated(span)


def test_verify_separated_rejects_a_repeated_shift_word():
    span = en.spanning_separated(dy.shift(2), 3, 2)
    words = list(span.positions)
    words[-1] = words[len(words) // 2]
    assert not en.verify_separated(dataclasses.replace(span, positions=tuple(words)))


def test_spanning_rotation_count_constant_in_n():
    # isometry: net size is set by the scale alone, up to one grid point
    counts = {n: en.spanning_separated(dy.rotation(F(1, 3)), n, 3).count for n in (2, 5, 9)}
    assert max(counts.values()) - min(counts.values()) <= 1


def test_h1_shift_values():
    assert en.h1_estimate(dy.shift(2), [1, 2], range(2, 7)).rate == pytest.approx(1.0, abs=0.05)
    assert en.h1_estimate(dy.shift(3), [1, 2], range(2, 7)).rate == pytest.approx(
        math.log2(3), abs=0.05
    )


def test_h1_doubling():
    report = en.h1_estimate(dy.doubling(), [2, 3], range(4, 11))
    assert report.rate == pytest.approx(1.0, abs=0.1)


def test_h1_rotation_vanishes():
    report = en.h1_estimate(dy.rotation(sp.sqrt2_minus_1(WHEEL)), [2, 3, 4], range(2, 11))
    assert report.rate <= 0.05


def test_ordering_chain_upper_rate_below_capacity():
    # orbit information rates never exceed the capacity slope by more than
    # the proxy slack, on every tested system and seed
    grid = [1 << j for j in range(5, 11)]
    x = sp.rational_point(LINE, seeded_dyadic(7, 1 << 11))
    orbit = en.orbit_rate(dy.doubling(), x, [5], grid)
    h1 = en.h1_estimate(dy.doubling(), [2, 3], range(4, 11))
    assert orbit.rate <= h1.rate + 0.15


# -- null covers ---------------------------------------------------------------


def test_cover_weight_dichotomy():
    depths = range(4, 10)
    heavy = en.cover_from_spanning(dy.doubling(), depths, 2, 0.8)
    light = en.cover_from_spanning(dy.doubling(), depths, 2, 1.2)
    assert light.truncated_weight() < heavy.truncated_weight()
    # deepening the truncation: bounded growth at s=1.2, divergent at s=0.8
    light_tail = en.cover_from_spanning(dy.doubling(), range(8, 10), 2, 1.2).truncated_weight()
    heavy_tail = en.cover_from_spanning(dy.doubling(), range(8, 10), 2, 0.8).truncated_weight()
    assert light_tail < 3.0
    assert heavy_tail > 15.0


def test_cover_property_verified_for_samples():
    cover = en.cover_from_spanning(dy.doubling(), range(4, 9), 2, 1.2)
    rng = random.Random(3)
    samples = [
        sp.rational_point(LINE, F(rng.getrandbits(30), 1 << 30)) for _ in range(40)
    ]
    report = en.verify_null_s_cover(cover, samples, 5, weight_cap=20.0)
    assert report.weight_ok
    assert report.all_covered


def test_cover_single_orbit_small_exponent():
    # one ball per depth covers a single periodic orbit even at tiny s
    sys = dy.doubling()
    x = sp.rational_point(LINE, F(1, 3))
    entries = []
    levels = {}
    for n in range(2, 9, 2):
        g = 2 + n + 2
        anchor = (F(1, 3).numerator * (1 << g)) // 3
        entries.append((anchor, n, 2))
        levels[n] = g
    cover = en.NullSCover(sys, 0.1, tuple(entries), levels)
    assert cover.truncated_weight() < 4.0
    report = en.verify_null_s_cover(cover, [x], 2, weight_cap=4.0)
    assert report.weight_ok
