"""Differential tests: the level walk against the per-region walk it replaced.

`symbolic.pullback` holds each level of cylinders as one labelled piece
list and pulls, cuts and weighs it whole.  The reference below is the
walk it replaced: one region per cylinder, pulled back, cut to one atom
and weighed on its own, with the level built by extending each region by
each atom in turn.  It is kept as it was, except that it weighs point
masses at 0 and 1 where coding puts their points.  Entropies must agree float
for float, and regions and masses exactly.  The walk is also bounded:
a level that could exceed `symbolic.BLOCK_LEVEL_CAP` pieces is refused
before it is built.
"""

import bisect
import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effdyn import cli
from effdyn import dynamics as dy
from effdyn import entropy as en
from effdyn import measure as ms
from effdyn import space as sp
from effdyn import symbolic as sb

LINE = sp.unit_interval()
WHEEL = sp.circle()
SEQ2 = sp.cantor(2)


# -- the per-region reference -------------------------------------------------


def _intersect_pieces(xs, ys):
    """Intersection of two sorted lists of disjoint open integer pieces."""
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        a, b = xs[i]
        c, d = ys[j]
        lo = a if a > c else c
        hi = b if b < d else d
        if lo < hi:
            out.append((lo, hi))
        if b < d:
            i += 1
        else:
            j += 1
    return out


def _grid_preimage(kind, pieces, den):
    if kind is dy.MapKind.DOUBLING:
        return list(pieces) + [(a + den, b + den) for a, b in pieces]
    return list(pieces) + [(2 * den - b, 2 * den - a) for a, b in reversed(pieces)]


def _grid_den(sys, mu, partition):
    dens = [F(q).denominator for atom in partition.atoms for piece in atom for q in piece]
    if sys.map_kind is dy.MapKind.ROTATION:
        dens.append(sys.angle.denominator)
    if mu is not None:
        dens.extend(q.denominator for q, _ in mu.model.atoms)
    return math.lcm(*dens)


def _whole(arcs, den):
    return len(arcs) == 1 and arcs[0][1] - arcs[0][0] == den


def _piece_mass(mu, kind):
    """mass(pieces, den) of one region, as an integer pair.  A point mass
    counts where coding puts its point: strictly inside a piece, where on
    the interval 0 and 1 are interior to the pieces that end there, and
    doubling reads 1 as 0."""
    circle = kind is dy.MapKind.ROTATION
    model = mu.model
    scale = math.lcm(model.base_weight.denominator, *(w.denominator for _, w in model.atoms))
    base = model.base_weight.numerator * (scale // model.base_weight.denominator)
    atoms = [(q.numerator, q.denominator, w.numerator * scale // w.denominator) for q, w in model.atoms]

    def mass(pieces, den):
        inside = 0
        length = sum(b - a for a, b in pieces)
        if not circle:
            pieces = [(-1 if a == 0 else a, den + 1 if b == den else b) for a, b in pieces]
        for num, qden, weight in atoms:
            p = num * (den // qden)
            if kind is dy.MapKind.DOUBLING:
                p %= den
            lifts = (p % den, p % den + den) if circle else (p,)
            if circle and _whole(pieces, den) or any(a < x < b for a, b in pieces for x in lifts):
                inside += weight
        return base * length + den * inside, scale * den

    return mass


def _region_pullback(sys, mu, partition):
    """(atoms, pull, cut, mass) on one region at a time."""
    kind = sys.map_kind
    if kind is dy.MapKind.SHIFT:
        words = [tuple(atom[0]) for atom in partition.atoms]
        return (
            words,
            lambda word, d: word,
            lambda word, i, d: sb._prepend(words[i], word),
            lambda word, d: mu.word_measure(word).as_integer_ratio(),
        )
    piece_mass = None if mu is None else _piece_mass(mu, kind)
    den = _grid_den(sys, mu, partition)
    atoms = [[(int(a * den), int(b * den)) for a, b in ms._merge_pieces(atom)] for atom in partition.atoms]
    if kind is dy.MapKind.ROTATION:
        step = sys.angle.numerator * (den // sys.angle.denominator)
        turns = [[(a + t, b + t) for t in (-den, 0, den) for a, b in atom] for atom in atoms]

        def circle_pull(region, d):
            return sorted((s, s + b - a) for a, b in region for s in [(a - step) % den])

        def circle_cut(pulled, i, d):
            if _whole(atoms[i], den):
                return pulled
            region = _intersect_pieces(pulled, turns[i])
            return sorted((a - den, b - den) if a >= den else (a, b) for a, b in region) or None

        return atoms, circle_pull, circle_cut, lambda region, d: piece_mass(region, den)

    def grid_pull(pieces, d):
        return _grid_preimage(kind, pieces, den << (d - 1))

    def grid_cut(pulled, i, d):
        return _intersect_pieces(pulled, [(a << d, b << d) for a, b in atoms[i]]) or None

    return atoms, grid_pull, grid_cut, lambda pieces, d: piece_mass(pieces, den << (d - 1))


def _region_fold(atoms, pull, cut, word):
    region = atoms[word[-1]]
    for d, symbol in enumerate(reversed(word[:-1]), 1):
        region = cut(pull(region, d), symbol, d)
        if region is None:
            break
    return region


def _region_cylinder(sys, partition, word):
    atoms, pull, cut, _ = _region_pullback(sys, None, partition)
    if sys.map_kind is dy.MapKind.SHIFT:
        return _region_fold(atoms, pull, cut, word)
    region = _region_fold(atoms, pull, cut, word) or []
    den = _grid_den(sys, None, partition)
    if sys.map_kind is not dy.MapKind.ROTATION:
        den <<= len(word) - 1
    elif _whole(region, den):
        return [(F(0), F(1))]
    return [(F(a, den), F(b, den)) for a, b in region]


def _region_measure(sys, mu, partition, word):
    atoms, pull, cut, mass = _region_pullback(sys, mu, partition)
    region = _region_fold(atoms, pull, cut, word)
    return F(0) if region is None else F(*mass(region, len(word)))


def _region_level_entropies(sys, mu, partition, n_max):
    """Level d holds every length-d cylinder of positive length as one
    region, null ones too, extended by each atom in turn."""
    atoms, pull, cut, mass = _region_pullback(sys, mu, partition)
    out = {}
    level = []
    for d in range(1, n_max + 1):
        if d == 1:
            regions = atoms
        else:
            regions = [cut(pull(r, d - 1), i, d - 1) for r, _ in level for i in range(len(atoms))]
        level = [(r, mass(r, d)) for r in regions if r is not None]
        out[d] = en._entropy_bits(m for _, m in level)
    return out


# -- random systems, partitions and measures ----------------------------------


@st.composite
def _partitions(draw, space):
    """Atoms from the arcs (pieces on the interval) between random cuts on
    the grid 1/q: each piece goes to an atom or to a hole, so atoms may be
    several pieces; on the circle the cuts start at a random offset, so
    one arc may run across 0, lifted to an end beyond 1."""
    q = draw(st.integers(min_value=2, max_value=12), label="q")
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=q - 1), min_size=1, max_size=5), label="cuts"))
    ends = [0] + cuts + [q]
    if space.kind is sp.Kind.CIRCLE:
        ends = cuts + [cuts[0] + q]
    arcs = list(zip(ends, ends[1:]))
    owners = draw(st.lists(st.integers(min_value=-1, max_value=2), min_size=len(arcs), max_size=len(arcs)))
    atoms = {}
    for (a, b), owner in zip(arcs, owners):
        if owner >= 0:
            atoms.setdefault(owner, []).append((F(a, q), F(b, q)))
    if not atoms:
        atoms[0] = [(F(a, q), F(b, q)) for a, b in arcs[:1]]
    return sb.ComputablePartition(space, tuple(map(tuple, atoms.values())), name="drawn")


@st.composite
def _measures(draw, space, partition, bases=(F(0), F(1, 2), F(3, 4))):
    """Lebesgue, or a mixture with point masses on cut points, at 0 and at
    random rationals, with a base weight that may be 0; only mixtures
    when `bases` is (0,)."""
    if len(bases) > 1 and draw(st.booleans(), label="lebesgue"):
        return ms.ComputableMeasure.lebesgue(space)
    ends = sorted({F(q) % 1 for atom in partition.atoms for piece in atom for q in piece})
    spots = st.sampled_from(ends + [F(0)]) | st.fractions(min_value=0, max_value=1, max_denominator=9)
    positions = draw(st.lists(spots, min_size=1, max_size=3, unique=True), label="positions")
    base = draw(st.sampled_from(bases), label="base")
    weights = [(1 - base) / len(positions)] * len(positions)
    return ms.ComputableMeasure.lebesgue_with_atoms(space, base, list(zip(positions, weights)))


@st.composite
def _cases(draw, **measure):
    kind = draw(st.sampled_from(["doubling", "tent", "rotation"]), label="kind")
    if kind == "rotation":
        q = draw(st.integers(min_value=1, max_value=16), label="angle q")
        a = draw(st.integers(min_value=0, max_value=q - 1), label="angle a")
        sys, space = dy.rotation(F(a, q)), WHEEL
    else:
        sys, space = getattr(dy, kind)(), LINE
    partition = draw(_partitions(space))
    return sys, partition, draw(_measures(space, partition, **measure))


@settings(max_examples=200, deadline=None)
@given(_cases(), st.integers(min_value=1, max_value=7))
def test_level_walk_matches_region_walk(case, n_max):
    sys, partition, mu = case
    table = en._pullback_level_entropies(sys, mu, partition, range(1, n_max + 1))
    assert table == _region_level_entropies(sys, mu, partition, n_max)


@settings(max_examples=100, deadline=None)
@given(_cases())
def test_level_fold_matches_region_fold(case):
    sys, partition, mu = case
    for length in range(1, 6):
        for word in itertools.product(range(partition.alphabet), repeat=length):
            assert sb.cylinder_region(sys, partition, word) == _region_cylinder(sys, partition, word), word
            assert sb.cylinder_measure(sys, mu, partition, word) == _region_measure(sys, mu, partition, word), word


def _word_entropies(sys, mu, partition, n_max):
    """H_n summed over the cylinder masses of every word of length n."""
    return {
        n: en._entropy_bits(
            sb.cylinder_measure(sys, mu, partition, word).as_integer_ratio()
            for word in itertools.product(range(partition.alphabet), repeat=n)
        )
        for n in range(1, n_max + 1)
    }


def test_null_cylinders_are_kept_with_their_extensions():
    # base weight 0: the cylinders missing the point masses have positive
    # length but no mass; the walk keeps them, and under a measure that
    # is not invariant their extensions carry mass
    invariant = ms.ComputableMeasure.lebesgue_with_atoms(LINE, 0, [(F(1, 3), F(1, 2)), (F(2, 3), F(1, 2))])
    for sys in (dy.doubling(), dy.tent()):
        table = en._pullback_level_entropies(sys, invariant, sb.dyadic_intervals(LINE, 2), range(1, 7))
        assert table == _region_level_entropies(sys, invariant, sb.dyadic_intervals(LINE, 2), 6)
        assert table[1] == 1.0
    # 1/3 codes 0101... and 1/5 codes 0011...: [1] is null at n = 1, and
    # dropping it lost its extension [01], which holds 1/3, from n = 2 on
    moving = ms.ComputableMeasure.lebesgue_with_atoms(LINE, 0, [(F(1, 3), F(1, 2)), (F(1, 5), F(1, 2))])
    halves = sb.halves(LINE)
    table = en._pullback_level_entropies(dy.doubling(), moving, halves, range(1, 5))
    assert table == {1: 0.0, 2: 1.0, 3: 1.0, 4: 1.0}
    assert table == _word_entropies(dy.doubling(), moving, halves, 4)


@settings(max_examples=25, deadline=None)
@given(_cases(bases=(F(0),)))
def test_level_walk_matches_every_word_under_point_masses(case):
    sys, partition, mu = case
    table = en._pullback_level_entropies(sys, mu, partition, range(1, 6))
    words = _word_entropies(sys, mu, partition, 5)
    assert all(abs(table[n] - words[n]) <= 1e-12 for n in table), (table, words)


# -- the dict weighing ----------------------------------------------------------


def _dict_masses(model, pieces, span, circle, whole):
    """`_MixtureModel.masses` as it was: {label: (numerator, denominator)}
    over the labels some piece carries, in label order."""
    base, atoms, scale = model.integer_weights
    lengths = dict.fromkeys(sorted({c for _, _, c in pieces}), 0)
    for a, b, c in pieces:
        lengths[c] += b - a
    if pieces and not circle:
        a, _, c = pieces[0]
        lengths[c] += min(a, 0)
        _, b, c = pieces[-1]
        lengths[c] -= max(b - span, 0)
    inside = {}
    for num, qden, weight in atoms:
        p = num * (span // qden)
        for x in (p % span, p % span + span) if circle else (p,):
            i = bisect.bisect_left(pieces, x, key=lambda piece: piece[0]) - 1
            if whole or i >= 0 and x < pieces[i][1]:
                c = pieces[i][2]
                inside[c] = inside.get(c, 0) + weight
                break
    return {c: (base * length + span * inside.get(c, 0), scale * span) for c, length in lengths.items()}


def _dict_weigh(model, level, span, circle):
    """`pullback`'s weigh as it was: relabel densely whenever a label is
    missing, read off the dict."""
    masses = _dict_masses(model, level, span, circle, circle and _whole(level, span))
    if max(masses, default=-1) >= len(masses):
        dense = {c: j for j, c in enumerate(masses)}
        level = [(a, b, dense[c]) for a, b, c in level]
    return level, list(masses.values())


WEIGH_CASES = [
    (dy.doubling(), ms.ComputableMeasure.lebesgue(LINE), sb.dyadic_intervals(LINE, 2), 10),
    (dy.tent(), ms.ComputableMeasure.lebesgue(LINE), sb.dyadic_intervals(LINE, 2), 10),
    (
        dy.doubling(),
        ms.ComputableMeasure.lebesgue_with_atoms(LINE, F(1, 2), [(F(1, 3), F(1, 4)), (F(1, 2), F(1, 4))]),
        sb.dyadic_intervals(LINE, 2),
        9,
    ),
    (
        dy.tent(),
        ms.ComputableMeasure.lebesgue_with_atoms(LINE, 0, [(F(2, 5), F(1, 2)), (F(4, 5), F(1, 2))]),
        sb.halves(LINE),
        9,
    ),
    (
        dy.rotation(F(3, 7)),
        ms.ComputableMeasure.lebesgue_with_atoms(WHEEL, F(3, 4), [(F(0), F(1, 8)), (F(1, 2), F(1, 8))]),
        sb.dyadic_intervals(WHEEL, 2),
        10,
    ),
    (dy.rotation(F(1, 3)), ms.ComputableMeasure.lebesgue(WHEEL), sb.halves(WHEEL), 8),
]


def test_list_weighed_levels_match_dict_weighing():
    """Every level's relabelled pieces and masses against the dict weighing,
    on levels with and without missing labels."""
    missing = 0
    for sys, mu, partition, n_max in WEIGH_CASES:
        step, weigh = sb.pullback(sys, mu, partition)
        circle = sys.map_kind is dy.MapKind.ROTATION
        den = sb._grid_den(sys, mu, partition)
        level = None
        for d in range(n_max):
            raw = step(level, d, None)
            span = den if circle else den << d
            expected = _dict_weigh(mu.model, raw, span, circle)
            missing += max((c for _, _, c in raw), default=-1) >= len(expected[1])
            level, masses = weigh(raw, d + 1)
            assert (level, masses) == expected, (sys.name, partition.name, d + 1)
    assert missing >= 20, missing


# -- the level cap ------------------------------------------------------------


def test_level_cap_value():
    # above criterion 1's 2**16 pieces and every shipped size
    assert sb.BLOCK_LEVEL_CAP == 1 << 20


def _record_levels(monkeypatch):
    """Record the size of every pulled and cut level."""
    sizes = []
    grid_preimage, cut = dy.grid_preimage, sb._cut

    def recorded_preimage(*args):
        sizes.append(len(result := grid_preimage(*args)))
        return result

    def recorded_cut(*args):
        sizes.append(len(result := cut(*args)))
        return result

    monkeypatch.setattr(dy, "grid_preimage", recorded_preimage)
    monkeypatch.setattr(sb, "_cut", recorded_cut)
    return sizes


def test_level_cap_refuses_before_building(monkeypatch):
    monkeypatch.setattr(sb, "BLOCK_LEVEL_CAP", 64)
    sizes = _record_levels(monkeypatch)
    mu = ms.ComputableMeasure.lebesgue(LINE)
    # level 5 holds 32 pieces; level 6 could hold 2 * 32 + 2 > 64
    with pytest.raises(dy.PrecisionBlowup, match="level 6 could hold 66 pieces, above BLOCK_LEVEL_CAP = 64"):
        en.block_entropy(dy.doubling(), mu, sb.halves(LINE), 12)
    assert max(sizes) == 32
    assert en.block_entropy(dy.doubling(), mu, sb.halves(LINE), 5).rows[-1][2] == 5.0
    # shifts count words: level 6 holds 2 * 32 = 64, level 7 could hold 128
    fair = ms.ComputableMeasure.bernoulli(SEQ2, [F(1, 2), F(1, 2)])
    with pytest.raises(dy.PrecisionBlowup, match="level 7 could hold 128 pieces"):
        en.block_entropy(dy.shift(2), fair, sb.cylinders(SEQ2, 1), 7)
    assert en.block_entropy(dy.shift(2), fair, sb.cylinders(SEQ2, 1), 6).rows[-1][2] == 6.0


def test_level_cap_exits_1_from_a_config(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sb, "BLOCK_LEVEL_CAP", 64)
    sizes = _record_levels(monkeypatch)
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(
        "[system]\nkind = tent\n\n[partition]\nkind = dyadic\nlevel = 2\n\n"
        "[estimator]\nkind = block-entropy\n\n[grids]\nn_max = 30\n\n[run]\noutput = out/deep\n"
    )
    assert cli.main(["run", str(cfg)]) == 1
    assert "BLOCK_LEVEL_CAP = 64" in capsys.readouterr().err
    assert max(sizes) <= 64
    assert not list(tmp_path.glob("**/*.csv"))


def test_rotation_gap_cap_refuses_before_building(monkeypatch):
    """The gap method's deepest join has at most |cuts| * n cut points:
    halves has the two cuts 0 and 1/2, so n = 32 reaches a cap of 64."""
    monkeypatch.setattr(sb, "BLOCK_LEVEL_CAP", 64)
    sys = dy.rotation(sp.sqrt2_minus_1(WHEEL))
    mu = ms.ComputableMeasure.lebesgue(WHEEL)
    assert len(en.block_entropy(sys, mu, sb.halves(WHEEL), 32).rows) == 32
    monkeypatch.setattr(en, "_entropy_bits", None)  # nothing is weighed
    with pytest.raises(dy.PrecisionBlowup, match="level 33 could hold 66 pieces, above BLOCK_LEVEL_CAP = 64"):
        en.block_entropy(sys, mu, sb.halves(WHEEL), 33)


def test_rotation_gap_cap_exits_1_from_a_config(tmp_path, capsys):
    # at n_max = 2**19, 2**20 cut points take about 2.4 s and 220 MB
    cfg = tmp_path / "gaps.cfg"
    cfg.write_text(
        "[system]\nkind = rotation\nangle = sqrt2-1\n\n[measure]\nkind = lebesgue\n\n"
        "[partition]\nkind = halves\n\n[estimator]\nkind = block-entropy\n\n"
        "[grids]\nn_max = 524289\n\n[run]\noutput = out/gaps\n"
    )
    assert cli.main(["run", str(cfg)]) == 1
    assert "could hold 1048578 pieces, above BLOCK_LEVEL_CAP = 1048576" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/*.csv"))
