"""Differential tests: the integer grid kernel against Fraction references.

Each reference below is the plain Fraction computation the integer paths
replace: orbits by `exact_step`, regions as `LineRegion`s pulled back by
`preimage_pieces`, and Bowen-ball tests by rational distances.  The
integer paths must agree with them exactly, positions and masses alike.
On larger grids the spanning witness, scanned or in closed form, is
checked against the integer scan that marks every ball.
"""

import dataclasses
import itertools
import random
from fractions import Fraction as F

import pytest

from effdyn import dynamics as dy
from effdyn import entropy as en
from effdyn import measure as ms
from effdyn import space as sp
from effdyn import symbolic as sb

import fraction_orbit as fo
import fraction_regions as fr


def _fraction_orbit(sys, q, n):
    out = []
    for _ in range(n):
        out.append(q)
        q = fo.exact_step(sys, q)
    return out


# -- spanning ------------------------------------------------------------------


def _fraction_greedy(sys, n, p):
    """The plain greedy over the 2**-(p+n+2) grid: keep a point iff its d_n
    distance to every kept point exceeds 2**-(p+1)."""
    cells = 1 << (p + n + 2)
    threshold = F(1, 1 << (p + 1))
    kept, positions = [], []
    for i in range(cells):
        orbit = _fraction_orbit(sys, F(i, cells), n)
        if not any(all(abs(a - b) <= threshold for a, b in zip(orbit, o)) for o in kept):
            kept.append(orbit)
            positions.append(i)
    return tuple(positions)


# all n <= 6, p <= 4 up to grid 2**9, plus two grid-2**10 corners; the
# Fraction greedy takes seconds per case beyond that
SPANNING_CASES = [(n, p) for n in range(1, 7) for p in range(5) if n + p <= 7] + [(6, 2), (4, 4)]


@pytest.mark.parametrize("system", [dy.tent(), dy.doubling()], ids=["tent", "doubling"])
def test_spanning_positions_match_fraction_greedy(system):
    for n, p in SPANNING_CASES:
        span = en.spanning_separated(system, n, p)
        assert span.positions == _fraction_greedy(system, n, p), (n, p)
        assert span.count == len(span.positions)


def _marking_scan(sys, n, p):
    """The greedy on integers with every kept point's ball marked: keep i,
    mark the later points of its ball, go on at the next unmarked point."""
    g = p + n + 2
    ball = dy.grid_balls(sys.map_kind, 1 << g, n, 1 << (g - p - 1))
    marked = bytearray(1 << g)
    positions = []
    i = 0
    while i >= 0:
        positions.append(i)
        for lo, hi in ball(i):
            lo = max(lo, i + 1)
            if lo <= hi:
                marked[lo : hi + 1] = b"\x01" * (hi + 1 - lo)
        i = marked.find(0, i + 1)
    return tuple(positions)


def _counted_separated(span):
    """verify_separated's verdict from a count of positions per grid point
    and its running sum, in place of a sort and bisect."""
    held = [0] * ((1 << span.grid_level) + 1)
    for u in span.positions:
        held[u + 1] += 1
    below = list(itertools.accumulate(held))  # below[j]: positions < j
    bound = (1 << span.grid_level) >> (span.p + 2)
    ball = dy.grid_balls(span.system.map_kind, 1 << span.grid_level, span.n, bound)
    return all(sum(below[hi + 1] - below[lo] for lo, hi in ball(u)) == 1 for u in span.positions)


class _CountedMarks(bytearray):
    writes = 0

    def __setitem__(self, key, value):
        _CountedMarks.writes += 1
        super().__setitem__(key, value)


# doubling with p, n >= 1 is counted in closed form, p = 0 scans the pullback
SCAN_CASES = {
    "doubling": [(n, p) for p in range(5) for n in range(15 - p)],  # grids up to 2**16
    "tent": [(n, p) for p in range(5) for n in range(12 - p)],  # grids up to 2**13
}


@pytest.mark.parametrize("system", [dy.tent(), dy.doubling()], ids=["tent", "doubling"])
def test_spanning_scan_matches_marking_scan(system, monkeypatch):
    """The witness, scanned or in closed form, has the positions of the
    scan that marks every ball; verify_separated keeps the counted verdict
    on them and on a witness moved next to its neighbour."""
    monkeypatch.setattr(en, "bytearray", _CountedMarks, raising=False)
    name = system.map_kind.value
    for n, p in SCAN_CASES[name]:
        _CountedMarks.writes = 0
        span = en.spanning_separated(system, n, p)
        assert span.positions == _marking_scan(system, n, p), (n, p)
        assert span.count == len(span.positions)
        if name == "doubling" and p >= 1 and n >= 1:
            assert _CountedMarks.writes == 0, (n, p)  # closed form: no scan
        if n == 0:
            assert span.positions == (0,) and _CountedMarks.writes == 1, (n, p)
        assert en.verify_separated(span) and _counted_separated(span), (n, p)
        if span.count > 1:
            moved = list(span.positions)
            moved[len(moved) // 2] = moved[len(moved) // 2 - 1] + 1
            bad = dataclasses.replace(span, positions=tuple(moved))
            assert en.verify_separated(bad) == _counted_separated(bad), (n, p)


COUNT_SYSTEMS = [dy.shift(2), dy.shift(3), dy.rotation(F(3, 7)), dy.rotation(), dy.doubling(), dy.tent()]


@pytest.mark.parametrize("system", COUNT_SYSTEMS, ids=[s.name for s in COUNT_SYSTEMS])
def test_count_only_spanning_matches_witness(system):
    """witness=False gives the witnessed count and no positions."""
    for p in range(5):
        for n in range(9 - p):
            span = en.spanning_separated(system, n, p)
            counted = en.spanning_separated(system, n, p, witness=False)
            assert counted.positions is None, (n, p)
            assert (counted.count, counted.grid_level) == (span.count, span.grid_level), (n, p)
            assert span.count == len(span.positions), (n, p)


@pytest.mark.parametrize("kind", [dy.MapKind.DOUBLING, dy.MapKind.TENT], ids=["doubling", "tent"])
def test_grid_ball_matches_stepped_dn(kind):
    """Every ball on grids up to 2**7 against the pairwise d_n of stepped
    orbits, radii 2**g >> k from beyond the whole grid down to 0."""
    for g in range(1, 8):
        cells = 1 << g
        for n in range(g + 1):
            orbits = [dy.grid_orbit(kind, j, cells, n) for j in range(cells)]
            for t in (cells >> k for k in range(g + 2)):
                ball_of = dy.grid_balls(kind, cells, n, t)
                for i, orbit in enumerate(orbits):
                    ranges = ball_of(i)
                    if kind is dy.MapKind.DOUBLING and 4 * t <= cells and n >= 1:
                        assert len(ranges) == 1  # the one-range lemma
                    ball = [j for lo, hi in ranges for j in range(lo, hi + 1)]
                    assert ball == [
                        j
                        for j, other in enumerate(orbits)
                        if all(abs(a - b) <= t for a, b in zip(orbit, other))
                    ], (g, n, t, i)


@pytest.mark.parametrize("kind", [dy.MapKind.DOUBLING, dy.MapKind.TENT], ids=["doubling", "tent"])
def test_grid_ball_matches_stepped_dn_off_powers_of_two(kind):
    """Every ball on the grids b * 2**g of cover checks, b = 3, 5, 12,
    against the pairwise d_n of stepped orbits: radii on both sides of
    4t <= cells, depths on both sides of 2**(n-1) dividing cells."""
    for b, g in itertools.product((3, 5, 12), range(4)):
        cells = b << g
        orbits = [dy.grid_orbit(kind, j, cells, g + 5) for j in range(cells)]
        quarter = cells // 4
        radii = sorted({t for t in (0, 1, quarter - 1, quarter, quarter + 1, cells // 2, cells) if t >= 0})
        dn = [[0] * cells for _ in range(cells)]  # d_n in grid units, grown one step per n
        for n in range(g + 6):
            for t in radii:
                ball_of = dy.grid_balls(kind, cells, n, t)
                one_range = kind is dy.MapKind.DOUBLING and 4 * t <= cells and n >= 1
                for i in range(cells):
                    ranges = ball_of(i)
                    if one_range and cells % (1 << (n - 1)) == 0:
                        assert len(ranges) == 1, (b, g, n, t, i)  # the one-range lemma
                    ball = [j for lo, hi in ranges for j in range(lo, hi + 1)]
                    assert ball == [j for j in range(cells) if dn[i][j] <= t], (b, g, n, t, i)
            if n < g + 5:
                for i, row in enumerate(dn):
                    u = orbits[i][n]
                    for j, other in enumerate(orbits):
                        gap = abs(u - other[n])
                        if gap > row[j]:
                            row[j] = gap


@pytest.mark.parametrize("system", [dy.tent(), dy.doubling()], ids=["tent", "doubling"])
def test_spanning_grid_cap_raises_before_allocating(system, monkeypatch):
    def no_marks(size):
        raise AssertionError(f"allocated {size} marks past the cap")

    monkeypatch.setattr(en, "bytearray", no_marks, raising=False)
    assert en.SPANNING_GRID_CAP == 1 << 20
    with pytest.raises(dy.PrecisionBlowup):
        en.spanning_separated(system, 16, 3)  # grid 2**21


def test_grid_orbit_matches_exact_step():
    for system in (dy.doubling(), dy.tent()):
        for den in (1, 2, 3, 7, 12, 64, 1000):
            for v in range(den + (system.map_kind is dy.MapKind.TENT)):
                ints = dy.grid_orbit(system.map_kind, v, den, 9)
                assert [F(u, den) for u in ints] == _fraction_orbit(system, F(v, den), 9)


# -- separation ----------------------------------------------------------------


def _fraction_separated(span):
    cells = 1 << span.grid_level
    orbits = [_fraction_orbit(span.system, F(i, cells), span.n) for i in span.positions]
    bound = F(1, 1 << (span.p + 2))
    return all(
        max(abs(a - b) for a, b in zip(u, v)) > bound
        for u, v in itertools.combinations(orbits, 2)
    )


@pytest.mark.parametrize("system", [dy.tent(), dy.doubling()], ids=["tent", "doubling"])
def test_verify_separated_catches_a_moved_witness(system):
    for n, p in ((3, 2), (4, 3), (5, 2)):
        span = en.spanning_separated(system, n, p)
        assert en.verify_separated(span) and _fraction_separated(span)
        # move one witness next to its neighbour: d_n drops to one grid cell
        moved = list(span.positions)
        moved[len(moved) // 2] = moved[len(moved) // 2 - 1] + 1
        bad = dataclasses.replace(span, positions=tuple(moved))
        assert not _fraction_separated(bad)
        assert not en.verify_separated(bad)


def test_verify_separated_doubling_witness_n14_p3():
    span = en.spanning_separated(dy.doubling(), 14, 3)
    assert span.count == len(span.positions) == 106_496
    assert en.verify_separated(span)


def test_verify_separated_rotation_wraps():
    span = en.spanning_separated(dy.rotation(F(1, 3)), 4, 3)
    assert en.verify_separated(span)
    cells = 1 << span.grid_level
    # a point just below 1 is within the bound of 0 across the wrap
    near_top = dataclasses.replace(span, positions=span.positions + (cells - 1,))
    assert not en.verify_separated(near_top)


# -- pullback ------------------------------------------------------------------


def _fraction_cylinder(sys, partition, word):
    pieces = list(partition.atoms[word[-1]])
    for j in range(len(word) - 2, -1, -1):
        pulled = dy.preimage_pieces(sys, pieces)
        region = fr.LineRegion(tuple(ms._merge_pieces(pulled))).intersect(
            fr.LineRegion(tuple(ms._merge_pieces(partition.atoms[word[j]])))
        )
        pieces = list(region.pieces)
        if not pieces:
            return []
    return pieces


def _fraction_level_entropies(sys, mu, partition, n_max):
    """The pullback on LineRegions: level d holds every positive-mass
    length-d cylinder, in the order the integer pullback must keep."""

    def mass(pieces):
        return fr.region_measure(mu.model, fr.LineRegion(tuple(pieces)))

    level = [tuple(ms._merge_pieces(atom)) for atom in partition.atoms]
    level = [(r, mass(r)) for r in level if mass(r) > 0]
    out = {}
    for depth in range(1, n_max + 1):
        out[depth] = en._entropy_bits(m.as_integer_ratio() for _, m in level)
        new_level = []
        for region, _ in level:
            pulled = dy.preimage_pieces(sys, region)
            for atom in partition.atoms:
                joined = fr.LineRegion(tuple(ms._merge_pieces(atom))).intersect(
                    fr.LineRegion(tuple(ms._merge_pieces(pulled)))
                )
                if joined.pieces and mass(joined.pieces) > 0:
                    new_level.append((joined.pieces, mass(joined.pieces)))
        level = new_level
    return out


LINE = sp.unit_interval()
THIRDS = sb.ComputablePartition(LINE, (((F(0), F(1, 3)),), ((F(1, 3), F(1)),)), name="thirds")
PARTITIONS = [sb.halves(LINE), THIRDS, sb.dyadic_intervals(LINE, 2)]
MEASURES = [
    ms.ComputableMeasure.lebesgue(LINE),
    ms.ComputableMeasure.lebesgue_with_atoms(
        LINE, F(3, 4), [(F(1, 3), F(1, 8)), (F(2, 3), F(1, 8))]
    ),
    # an atom on the cut point 1/2 of halves and dyadic-2
    ms.ComputableMeasure.lebesgue_with_atoms(LINE, F(3, 4), [(F(1, 2), F(1, 4))]),
    ms.ComputableMeasure.lebesgue_with_atoms(
        LINE, F(1, 2), [(F(1, 10), F(1, 6)), (F(13, 30), F(1, 6)), (F(23, 30), F(1, 6))]
    ),
]


@pytest.mark.parametrize("system", [dy.doubling(), dy.tent()], ids=["doubling", "tent"])
def test_pullback_entropies_match_line_regions(system):
    for partition, mu in itertools.product(PARTITIONS, MEASURES):
        table = en._pullback_level_entropies(system, mu, partition, range(1, 8))
        assert table == _fraction_level_entropies(system, mu, partition, 7), partition.name


@pytest.mark.parametrize("system", [dy.doubling(), dy.tent()], ids=["doubling", "tent"])
def test_cylinders_match_line_regions(system):
    for partition, mu in itertools.product(PARTITIONS, MEASURES):
        k = partition.alphabet
        for length in range(1, 6):
            for word in itertools.product(range(k), repeat=length):
                pieces = _fraction_cylinder(system, partition, word)
                if length > 1:
                    assert sb.cylinder_region(system, partition, word) == pieces
                expected = fr.region_measure(mu.model, fr.LineRegion(tuple(ms._merge_pieces(pieces))))
                assert sb.cylinder_measure(system, mu, partition, word) == expected, word


# -- cover membership ----------------------------------------------------------


def _fraction_in_some_ball(x, positions, n, p, g):
    cells = 1 << g
    orbit = _fraction_orbit(dy.doubling(), x.exact % 1, n)
    radius = F(1, 1 << p)
    for pos in positions:
        other = _fraction_orbit(dy.doubling(), F(pos, cells), n)
        if all(abs(a - b) < radius for a, b in zip(orbit, other)):
            return True
    return False


def _check_membership(samples, cases):
    """The kernel against the reference on every (n, p) witness, for all
    its positions and for each grid position alone."""
    system = dy.doubling()
    for n, p in cases:
        span = en.spanning_separated(system, n, p)
        g = span.grid_level
        for q in samples:
            x = sp.rational_point(LINE, q)
            assert en._point_in_some_ball(system, x, span.positions, n, p, g) == (
                _fraction_in_some_ball(x, span.positions, n, p, g)
            ), (q, n, p)
            for pos in range(1 << g):
                assert en._point_in_some_ball(system, x, [pos], n, p, g) == (
                    _fraction_in_some_ball(x, [pos], n, p, g)
                ), (q, n, p, pos)


def test_ball_membership_of_non_dyadic_samples():
    samples = [F(1, 3), F(5, 7), F(2, 3), F(3, 11), F(1, 1), F(0)]
    _check_membership(samples, ((2, 1), (3, 2), (4, 2), (4, 3)))


def test_ball_membership_of_dyadic_and_end_samples():
    """Dyadic samples finer than the grid (denominators 2**20 and 2**48,
    as criterion 6 and perfbench draw them), grid points at distance
    exactly 2**-p from others, and 0 and 1; at p = 0 and 1 the ball is
    not given by the one-range closed form."""
    rng = random.Random(22)
    samples = [F(0), F(1), F(1, 4), F(3, 8), F(13, 32)]
    samples += [F(rng.getrandbits(e), 1 << e) for e in (20, 48) for _ in range(3)]
    _check_membership(samples, ((1, 0), (3, 0), (2, 1), (4, 1), (3, 2), (5, 3)))


def test_cover_report_matches_per_k_reference():
    system = dy.doubling()
    cover = en.cover_from_spanning(system, range(3, 7), 2, 1.2)
    samples = [sp.rational_point(LINE, q) for q in (F(1, 3), F(5, 7), F(2, 9), F(7, 64))]
    groups = {}
    for pos, n, p in cover.entries:
        groups.setdefault((n, p), []).append(pos)
    covered = {}
    for k in range(1, 8):
        covered[k] = sum(
            1
            for x in samples
            if any(
                _fraction_in_some_ball(x, positions, n, p, cover.grid_levels[n])
                for (n, p), positions in groups.items()
                if n >= k
            )
        )
    report = en.verify_null_s_cover(cover, samples, 7, weight_cap=100.0)
    assert report.covered == covered
    assert report.unknown == {
        k: 0 if c == len(samples) else len(samples) - c for k, c in covered.items()
    }
