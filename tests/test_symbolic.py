import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effdyn import dynamics as dy
from effdyn import measure as ms
from effdyn import space as sp
from effdyn import symbolic as sb

F = Fraction

LINE = sp.unit_interval()
WHEEL = sp.circle()
SEQ2 = sp.cantor(2)


def test_symbolic_word_serialization():
    w = sb.SymbolicWord((0, 1, None, 0), 2)
    assert str(w) == "01?0"
    assert sb.SymbolicWord.parse("01?0", 2) == w
    assert w.known_prefix == (0, 1)
    assert w.truncated


def test_code_orbit_period_two():
    sys = dy.doubling()
    x = sp.rational_point(LINE, F(1, 3))
    word = sb.code_orbit(sys, x, sb.halves(LINE), 6)
    assert str(word) == "010101"


def test_code_orbit_boundary_hit():
    sys = dy.doubling()
    x = sp.rational_point(LINE, F(5, 16))
    word = sb.code_orbit(sys, x, sb.halves(LINE), 5)
    # 5/16 -> 5/8 -> 1/4 -> 1/2 -> 0: the cut point itself is Unknown,
    # the endpoint 0 is interior to [0, 1/2)
    assert str(word) == "010?0"


def test_code_orbit_rotation_quarter():
    sys = dy.rotation(F(1, 4))
    x = sp.rational_point(WHEEL, F(1, 8))
    word = sb.code_orbit(sys, x, sb.halves(WHEEL), 4)
    assert str(word) == "0011"


def test_code_orbit_fast_path_matches_enclosure_path():
    sys = dy.doubling()
    partition = sb.dyadic_intervals(LINE, 2)
    rng = random.Random(5)
    for _ in range(10):
        q = F(rng.getrandbits(40) | 1, 1 << 40)
        exact_point = sp.rational_point(LINE, q)
        fast = sb.code_orbit(sys, exact_point, partition, 20)

        def approximator(n, q=q):
            from effdyn.numerics import dyadic_floor

            return LINE.encode_dyadic(dyadic_floor(q, n + 2))

        hidden = sp.Point(LINE, approximator)
        slow = sb.code_orbit(sys, hidden, partition, 20, precision=30)
        assert fast.symbols == slow.symbols


def test_code_orbit_on_shift():
    sys = dy.shift(2)
    x = sp.word_point(SEQ2, (1, 0, 0, 1, 1, 0), repeat=True)
    word = sb.code_orbit(sys, x, sb.cylinders(SEQ2, 1), 6)
    assert str(word) == "100110"


def test_cylinder_measure_doubling_dyadic():
    sys = dy.doubling()
    mu = ms.ComputableMeasure.lebesgue(LINE)
    partition = sb.halves(LINE)
    assert sb.cylinder_measure(sys, mu, partition, (0, 1, 1, 0)) == F(1, 16)
    assert sb.cylinder_measure(sys, mu, partition, ()) == F(1)


def test_cylinder_measure_markov():
    sys = dy.shift(2)
    chain = ms.ComputableMeasure.markov(SEQ2, [[F(9, 10), F(1, 10)], [F(1, 2), F(1, 2)]])
    partition = sb.cylinders(SEQ2, 1)
    assert sb.cylinder_measure(sys, chain, partition, (0, 0, 1)) == F(5, 6) * F(9, 10) * F(1, 10)


def test_cylinder_measure_rotation_rational():
    sys = dy.rotation(F(1, 4))
    mu = ms.ComputableMeasure.lebesgue(WHEEL)
    partition = sb.halves(WHEEL)
    # orbit of the atom structure under quarter rotation: each length-2
    # cylinder is an arc of length 1/4
    total = F(0)
    for w in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        total += sb.cylinder_measure(sys, mu, partition, w)
    assert total == 1
    assert sb.cylinder_measure(sys, mu, partition, (0, 0)) == F(1, 4)


def test_circle_arc_below_zero_is_the_arc_past_one():
    # (-1/4, 1/4) and (3/4, 5/4) are one arc: the start is taken into [0, 1)
    spellings = [
        sb.ComputablePartition(WHEEL, (((F(lo), F(lo) + F(1, 2)),), ((F(1, 4), F(3, 4)),)))
        for lo in (F(-1, 4), F(3, 4))
    ]
    assert spellings[0] == spellings[1]
    sys = dy.rotation(F(1, 8))
    mu = ms.ComputableMeasure.lebesgue_with_atoms(WHEEL, F(1, 2), [(F(7, 8), F(1, 2))])
    for partition in spellings:
        assert sb._code_segment(partition, (7,), (7,), 8)[0] == 0
        assert sb._code_segment(partition, (1,), (1,), 8)[0] == 0
        assert sb._code_segment(partition, (7, 0, 1), (7, 0, 1), 8) == [0, 0, 0]
        assert sb.cylinder_measure(sys, mu, partition, (0,)) == F(3, 4)
        assert sb.cylinder_measure(sys, mu, partition, (1,)) == F(1, 4)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=6))
def test_cylinder_additivity_doubling(n):
    sys = dy.doubling()
    mu = ms.ComputableMeasure.lebesgue(LINE)
    partition = sb.halves(LINE)
    rng = random.Random(n)
    word = tuple(rng.randrange(2) for _ in range(n))
    parent = sb.cylinder_measure(sys, mu, partition, word)
    children = sum(
        sb.cylinder_measure(sys, mu, partition, word + (a,)) for a in range(2)
    )
    assert parent == children


def test_cylinder_additivity_markov():
    sys = dy.shift(2)
    chain = ms.ComputableMeasure.markov(SEQ2, [[F(9, 10), F(1, 10)], [F(1, 2), F(1, 2)]])
    partition = sb.cylinders(SEQ2, 1)
    for word in [(0,), (1,), (0, 1), (1, 1, 0)]:
        parent = sb.cylinder_measure(sys, chain, partition, word)
        children = sum(
            sb.cylinder_measure(sys, chain, partition, word + (a,)) for a in range(2)
        )
        assert parent == children


def test_cylinder_measures_sum_to_one_per_level():
    # coding counts 0 and 1 as interior to the atoms that end there, so a
    # point mass at either end is in the cylinder its coded orbit names;
    # under halves every length-n cylinder has length 2**-n
    partition = sb.halves(LINE)
    atoms = {None: ms.ComputableMeasure.lebesgue(LINE)}
    for q in (0, 1):
        atoms[q] = ms.ComputableMeasure.lebesgue_with_atoms(LINE, F(1, 2), [(F(q), F(1, 2))])
    for sys in (dy.doubling(), dy.tent()):
        for q, mu in atoms.items():
            for n in (1, 2, 3, 5):
                total = F(0)
                for value in range(2**n):
                    word = tuple((value >> (n - 1 - i)) & 1 for i in range(n))
                    total += sb.cylinder_measure(sys, mu, partition, word)
                assert total == 1, (sys.name, q, n)
                if q is not None:
                    word = sb.code_orbit(sys, sp.rational_point(LINE, q), partition, n).symbols
                    mass = sb.cylinder_measure(sys, mu, partition, word)
                    assert mass == F(1, 2) + F(1, 2 << n), (sys.name, q, n)


def test_partition_atom_cap():
    # above the largest shipped size, the dyadic level 10 of the coding tests
    assert sb.PARTITION_ATOM_CAP == 1 << 10
    assert sb.dyadic_intervals(LINE, 10).alphabet == 1 << 10
    assert sb.cylinders(SEQ2, 10).alphabet == 1 << 10
    over = [
        lambda: sb.dyadic_intervals(LINE, 11),
        lambda: sb.dyadic_intervals(WHEEL, 10**9),
        lambda: sb.cylinders(sp.cantor(3), 7),
        lambda: sb.cylinders(SEQ2, 10**9),
    ]
    for build in over:
        with pytest.raises(ValueError, match="above PARTITION_ATOM_CAP = 1024"):
            build()
