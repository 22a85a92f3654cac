"""Differential tests: the integer grid kernel against Fraction references.

Each reference below is the plain Fraction computation the integer paths
replace: orbits by `exact_step`, regions as `LineRegion`s pulled back by
`preimage_pieces`, and Bowen-ball tests by rational distances.  The
integer paths must agree with them exactly, positions and masses alike.
"""

import dataclasses
import itertools
from fractions import Fraction as F

import pytest

from effdyn import dynamics as dy
from effdyn import entropy as en
from effdyn import measure as ms
from effdyn import space as sp
from effdyn import symbolic as sb


def _fraction_orbit(sys, q, n):
    out = []
    for _ in range(n):
        out.append(q)
        q = dy.exact_step(sys, q)
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


def test_doubling_dn_shortcut_matches_stepping():
    def stepped(a, b, g, n, threshold):
        x, y = a, b
        for _ in range(n):
            if abs(x - y) > threshold:
                return False
            x, y = (2 * x) % (1 << g), (2 * y) % (1 << g)
        return True

    for g in range(1, 6):
        size = 1 << g
        for n, threshold in itertools.product(range(g + 2), range(size + 1)):
            for a, b in itertools.product(range(size), repeat=2):
                assert en._doubling_dn_leq(a, b, g, n, threshold) == stepped(a, b, g, n, threshold)


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
        region = ms.LineRegion(tuple(ms._merge_pieces(pulled))).intersect(
            ms.LineRegion(tuple(ms._merge_pieces(partition.atoms[word[j]])))
        )
        pieces = list(region.pieces)
        if not pieces:
            return []
    return pieces


def _fraction_level_entropies(sys, mu, partition, n_max):
    """The pullback on LineRegions: level d holds every positive-mass
    length-d cylinder, in the order the integer pullback must keep."""

    def mass(pieces):
        return mu.model.region_measure(ms.LineRegion(tuple(pieces)))

    level = [tuple(ms._merge_pieces(atom)) for atom in partition.atoms]
    level = [(r, mass(r)) for r in level if mass(r) > 0]
    out = {}
    for depth in range(1, n_max + 1):
        out[depth] = en._entropy_bits(m for _, m in level)
        new_level = []
        for region, _ in level:
            pulled = dy.preimage_pieces(sys, region)
            for atom in partition.atoms:
                joined = ms.LineRegion(tuple(ms._merge_pieces(atom))).intersect(
                    ms.LineRegion(tuple(ms._merge_pieces(pulled)))
                )
                if joined.pieces and mass(joined.pieces) > 0:
                    new_level.append((joined.pieces, mass(joined.pieces)))
        level = new_level
    return out


LINE = sp.unit_interval()
THIRDS = sb.ComputablePartition(
    LINE, (((F(0), F(1, 3)),), ((F(1, 3), F(1)),)), boundary_points=(F(1, 3),), name="thirds"
)
PARTITIONS = [sb.halves(LINE), THIRDS, sb.dyadic_intervals(LINE, 2)]
MEASURES = [
    ms.ComputableMeasure.lebesgue(LINE),
    ms.ComputableMeasure.lebesgue_with_atoms(
        LINE, F(3, 4), [(F(1, 3), F(1, 8)), (F(2, 3), F(1, 8))]
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
                expected = mu.model.region_measure(ms.LineRegion(tuple(ms._merge_pieces(pieces))))
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


def test_ball_membership_of_non_dyadic_samples():
    system = dy.doubling()
    samples = [F(1, 3), F(5, 7), F(2, 3), F(3, 11), F(1, 1), F(0)]
    for n, p in ((2, 1), (3, 2), (4, 2), (4, 3)):
        span = en.spanning_separated(system, n, p)
        g = span.grid_level
        for q in samples:
            x = sp.rational_point(LINE, q)
            # all positions: the reference scans them all, the kernel a window
            assert en._point_in_some_ball(system, x, span.positions, n, p, g) == (
                _fraction_in_some_ball(x, span.positions, n, p, g)
            ), (q, n, p)
            # each grid position alone, inside the scan window or not
            for pos in range(1 << g):
                assert en._point_in_some_ball(system, x, [pos], n, p, g) == (
                    _fraction_in_some_ball(x, [pos], n, p, g)
                ), (q, n, p, pos)


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
