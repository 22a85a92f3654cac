"""Differential tests: the one cylinder pullback against the paths it replaced.

`symbolic.pullback` gives each map one level step, and both the word
fold (`cylinder_region`, `cylinder_measure`) and the block-entropy level
walk run on it.  The references below are the separate computations they
replace: the forward merge of a shift word's atoms, the shift level walk
with its hand merge, the `Fraction` word measure for the integer masses a
shift level carries, and, for the integer arcs of rational rotations, the
`Fraction` circle loop over `preimage_pieces` with masses from the
`Fraction` `CircleRegion` of `fraction_regions`.  Regions, masses and entropies must agree
exactly.
"""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from effdyn import coding as cd
from effdyn import dynamics as dy
from effdyn import entropy as en
from effdyn import measure as ms
from effdyn import space as sp
from effdyn import symbolic as sb

import fraction_regions as fr

SEQ2 = sp.cantor(2)
SEQ3 = sp.cantor(3)
WHEEL = sp.circle()
MAX_LENGTH = 6


def _words(k, max_length):
    for length in range(1, max_length + 1):
        yield from itertools.product(range(k), repeat=length)


# -- references ----------------------------------------------------------------


def _forward_merge(partition, word):
    """The word a shift cylinder fixes, merged from the front: atom word[j]
    constrains positions j, j+1, ...; None on a clash."""
    merged = []
    for j, a in enumerate(word):
        for offset, c in enumerate(partition.atoms[a][0]):
            pos = j + offset
            while len(merged) <= pos:
                merged.append(None)
            if merged[pos] is not None and merged[pos] != c:
                return None
            merged[pos] = c
    return tuple(0 if c is None else c for c in merged)


def _shift_level_entropies(mu, partition, n_max):
    """The shift level walk: prepend each atom's word to each level word by
    filling a candidate list slot by slot."""
    level = [tuple(atom[0]) for atom in partition.atoms]
    masses = [mu.word_measure(w) for w in level]
    out = {}
    for depth in range(1, n_max + 1):
        out[depth] = en._entropy_bits(m.as_integer_ratio() for m in masses)
        new_level, new_masses = [], []
        for word in level:
            for atom in partition.atoms:
                cyl = atom[0]
                candidate = list(cyl) + [None] * max(0, 1 + len(word) - len(cyl))
                ok = True
                for pos, c in enumerate(word):
                    slot = pos + 1
                    if slot < len(cyl):
                        if cyl[slot] != c:
                            ok = False
                            break
                    else:
                        candidate[slot] = c
                if not ok:
                    continue
                new_word = tuple(c for c in candidate if c is not None)
                mass = mu.word_measure(new_word)
                if mass > 0:
                    new_level.append(new_word)
                    new_masses.append(mass)
        level, masses = new_level, new_masses
    return out


def _arcs_region(arcs):
    """The region of a cylinder's arcs, where, as in the pullback, one arc
    of length 1 is the whole circle."""
    if len(arcs) == 1 and arcs[0][1] - arcs[0][0] == 1:
        return fr.CircleRegion((), full=True)
    return fr.circle_region(arcs)


def _circle_loop(sys, partition, word):
    """The cylinder of a rotation word as arcs, pulled back one symbol at a
    time through `preimage_pieces` and `CircleRegion.intersect`."""
    pieces = list(partition.atoms[word[-1]])
    for j in range(len(word) - 2, -1, -1):
        pulled = dy.preimage_pieces(sys, pieces)
        region = _arcs_region(pulled).intersect(_arcs_region(partition.atoms[word[j]]))
        pieces = [(F(0), F(1))] if region.full else list(region.pieces)
        if not pieces:
            return []
    return pieces


def _walk_from_masses(mass_of, k, n_max):
    """Entropies of the positive-mass words of each length, in the walk's
    order: by the word they extend, then by their first symbol."""
    level = [(a,) for a in range(k) if mass_of((a,)) > 0]
    out = {1: en._entropy_bits(mass_of(w).as_integer_ratio() for w in level)}
    for depth in range(2, n_max + 1):
        level = [(a,) + w for w in level for a in range(k) if mass_of((a,) + w) > 0]
        out[depth] = en._entropy_bits(mass_of(w).as_integer_ratio() for w in level)
    return out


# -- shifts --------------------------------------------------------------------


def _shift_cases():
    mixed = sb.ComputablePartition(SEQ2, (((0,),), ((1, 0),), ((1, 1),)), name="mixed")
    seq2_measures = [
        ms.ComputableMeasure.bernoulli(SEQ2, [F(1, 3), F(2, 3)]),
        ms.ComputableMeasure.markov(SEQ2, [[F(1, 2), F(1, 2)], [F(1), F(0)]]),
    ]
    seq3_measures = [
        ms.ComputableMeasure.bernoulli(SEQ3, [F(1, 2), F(1, 3), F(1, 6)]),
        ms.ComputableMeasure.markov(
            SEQ3, [[F(1, 2), F(1, 2), F(0)], [F(1, 3), F(1, 3), F(1, 3)], [F(0), F(1, 4), F(3, 4)]]
        ),
    ]
    for partition in (sb.cylinders(SEQ2, 1), sb.cylinders(SEQ2, 2), mixed):
        for mu in seq2_measures:
            yield dy.shift(2), mu, partition
    for mu in seq3_measures:
        yield dy.shift(3), mu, sb.cylinders(SEQ3, 2)


SHIFT_CASES = list(_shift_cases())
SHIFT_IDS = [f"{p.name}-{p.space.alphabet}-{mu.name}" for _, mu, p in SHIFT_CASES]


@pytest.mark.parametrize("sys, mu, partition", SHIFT_CASES, ids=SHIFT_IDS)
def test_shift_fold_matches_forward_merge(sys, mu, partition):
    # the 9**6 six-symbol words of cylinders(cantor(3), 2) take 18 s per measure
    k = partition.alphabet
    for word in _words(k, MAX_LENGTH if k <= 4 else 5):
        region = _forward_merge(partition, word)
        assert sb.cylinder_region(sys, partition, word) == region, word
        mass = F(0) if region is None else mu.word_measure(region)
        assert sb.cylinder_measure(sys, mu, partition, word) == mass, word


@pytest.mark.parametrize("sys, mu, partition", SHIFT_CASES, ids=SHIFT_IDS)
def test_shift_walk_matches_hand_merge(sys, mu, partition):
    table = en._pullback_level_entropies(sys, mu, partition, range(1, MAX_LENGTH + 1))
    assert table == _shift_level_entropies(mu, partition, MAX_LENGTH)


@st.composite
def _probs(draw, k, label):
    """k nonnegative rationals summing to 1, zeros often."""
    weights = draw(st.lists(st.integers(min_value=0, max_value=6), min_size=k, max_size=k), label=label)
    assume(sum(weights))
    return [F(w, sum(weights)) for w in weights]


@st.composite
def _tree(draw, k, depth):
    """The words of a random complete prefix code on k letters, of length
    at most depth: a shift partition whose atoms are single cylinders."""
    if depth and draw(st.booleans()):
        return [(a,) + w for a in range(k) for w in draw(_tree(k, depth - 1))]
    return [()]


@st.composite
def _shift_measure_cases(draw):
    """A shift, a Bernoulli or Markov measure (rows with zeros, initial
    vector stationary or not) and a partition: cylinders of length 0 (the
    one empty word), 1 or 2, the `mixed` shape, a `deep` shape with atoms
    of length 1 to 3, or a random prefix code with atoms of such lengths."""
    k = draw(st.sampled_from([2, 3]), label="k")
    space = SEQ2 if k == 2 else SEQ3
    kind = draw(st.sampled_from(["bernoulli", "markov", "markov-initial"]), label="measure")
    if kind == "bernoulli":
        mu = ms.ComputableMeasure.bernoulli(space, draw(_probs(k, "probs")))
    else:
        rows = [draw(_probs(k, f"row {a}")) for a in range(k)]
        initial = draw(_probs(k, "initial")) if kind == "markov-initial" else None
        try:
            mu = ms.ComputableMeasure.markov(space, rows, initial)
        except ValueError:  # no unique stationary law
            assume(False)
    shapes = ["cylinders-0", "cylinders-1", "cylinders-2", "mixed", "deep", "tree"]
    shape = draw(st.sampled_from(shapes), label="partition")
    if shape == "deep":
        # (a, 0, b) put in front of (0,) reaches a letter past it
        words = [(0,)] + [(a, c) for a in range(1, k) for c in range(1, k)]
        words += [(a, 0, b) for a in range(1, k) for b in range(k)]
    elif shape == "tree":
        words = draw(_tree(k, 3))
        assume(words != [()])
    elif shape == "mixed":
        words = [(a,) for a in range(k - 1)] + [(k - 1, b) for b in range(k)]
    else:
        words = list(itertools.product(range(k), repeat=int(shape[-1])))
    partition = sb.ComputablePartition(space, tuple((w,) for w in words), name=shape)
    return dy.shift(k), mu, partition


@settings(max_examples=150, deadline=None)
@given(_shift_measure_cases())
def test_shift_level_masses_match_word_measure(case):
    """Every cylinder of every level, null ones too, carries the integer
    mass of its word, which `word_measure` gives as a Fraction."""
    sys, mu, partition = case
    step, weigh = sb.pullback(sys, mu, partition)
    level = None
    for d in range(5 if partition.alphabet <= 4 else 3):
        level, masses = weigh(step(level, d, None), d + 1)
        expected = [mu.word_measure(word) for word, _ in level]
        assert [F(*pair) for pair in masses] == expected, d + 1
        assert en._entropy_bits(masses) == en._entropy_bits(m.as_integer_ratio() for m in expected)


@settings(max_examples=60, deadline=None)
@given(_shift_measure_cases(), st.integers(min_value=0, max_value=1 << 16), st.integers(1, 8))
def test_shift_cylinder_measure_and_local_info_match_word_measure(case, seed, n):
    """The fold of a coded word weighs its cylinder as `word_measure` does."""
    sys, mu, partition = case
    rng = random.Random(seed)
    symbols = [rng.randrange(partition.space.alphabet) for _ in range(64)]
    x = sp.sequence_point(partition.space, lambda j: symbols[j] if j < len(symbols) else 0)
    word = sb.code_orbit(sys, x, partition, n).symbols
    mass = mu.word_measure(sb.cylinder_region(sys, partition, word))
    assert sb.cylinder_measure(sys, mu, partition, word) == mass
    if mass:
        assert en.local_info(sys, mu, x, partition, n) == cd.neg_log2(mass)
    else:
        with pytest.raises(en.OracleUnavailable):
            en.local_info(sys, mu, x, partition, n)


def test_multi_cylinder_shift_atoms_are_refused():
    # the parity partition {00, 11}, {01, 10}: the cylinder of (0,) has
    # mass 1/2 under fair Bernoulli, which the first cylinder alone misses
    sys = dy.shift(2)
    parity = sb.ComputablePartition(SEQ2, (((0, 0), (1, 1)), ((0, 1), (1, 0))), name="parity")
    fair = ms.ComputableMeasure.bernoulli(SEQ2, [F(1, 2), F(1, 2)])
    x = sp.word_point(SEQ2, (1, 1), repeat=True)
    for call in (
        lambda: sb.cylinder_measure(sys, fair, parity, (0,)),
        lambda: sb.cylinder_region(sys, parity, (0, 0)),
        lambda: en.local_info(sys, fair, x, parity, 3),
        lambda: en.block_entropy(sys, fair, parity, 3),
    ):
        with pytest.raises(sb.UnsupportedCylinder):
            call()


# -- rational rotations --------------------------------------------------------

ROTATIONS = [dy.rotation(F(1, 3)), dy.rotation(F(2, 5)), dy.rotation(F(3, 7))]
# the one-atom partition makes every cylinder the full circle
WHOLE = sb.ComputablePartition(WHEEL, (((F(0), F(1)),),), name="whole")
# an atom given as a lifted arc across 0, so that cylinders hold 0 inside
ACROSS = sb.ComputablePartition(WHEEL, (((F(1, 4), F(3, 4)),), ((F(3, 4), F(5, 4)),)), name="across")
CIRCLE_PARTITIONS = [sb.halves(WHEEL), sb.dyadic_intervals(WHEEL, 2), WHOLE, ACROSS]
CIRCLE_MEASURES = [
    ms.ComputableMeasure.lebesgue(WHEEL),
    ms.ComputableMeasure.lebesgue_with_atoms(WHEEL, F(3, 4), [(F(0), F(1, 4))]),
    # an atom on the cut point 1/2 of halves and dyadic-2
    ms.ComputableMeasure.lebesgue_with_atoms(WHEEL, F(3, 4), [(F(1, 2), F(1, 4))]),
    # invariant under the rotation by 1/3: one orbit of three atoms
    ms.ComputableMeasure.lebesgue_with_atoms(
        WHEEL, F(1, 2), [(F(1, 10), F(1, 6)), (F(13, 30), F(1, 6)), (F(23, 30), F(1, 6))]
    ),
]


@pytest.mark.parametrize("sys", ROTATIONS, ids=[s.name for s in ROTATIONS])
def test_rotation_fold_and_walk_match_circle_loop(sys):
    for partition in CIRCLE_PARTITIONS:
        k = partition.alphabet
        # Fraction arcs are slow: the 4**6 six-symbol dyadic-2 words take 11 s
        n_max = MAX_LENGTH if k <= 2 else 5
        regions = {word: _circle_loop(sys, partition, word) for word in _words(k, n_max)}
        for word, region in regions.items():
            assert sb.cylinder_region(sys, partition, word) == region, word
        for mu in CIRCLE_MEASURES:

            def mass_of(word):
                return fr.region_measure(mu.model, _arcs_region(regions[word]))

            for word in regions:
                assert sb.cylinder_measure(sys, mu, partition, word) == mass_of(word), word
            table = en._pullback_level_entropies(sys, mu, partition, range(1, n_max + 1))
            assert table == _walk_from_masses(mass_of, k, n_max), (partition.name, mu.name)


# the angles of the benchmark's local-info shapes have denominators 3..16
LOCAL_ROTATIONS = [dy.rotation(F(a, q)) for a, q in ((1, 3), (3, 7), (3, 16), (5, 12), (11, 16))]


@pytest.mark.parametrize("sys", LOCAL_ROTATIONS, ids=[s.name for s in LOCAL_ROTATIONS])
def test_rotation_local_info_matches_circle_loop(sys):
    rng = random.Random(f"local-info:{sys.name}")
    partition = sb.halves(WHEEL)
    points = [sp.rational_point(WHEEL, F(rng.getrandbits(64) | 1, 1 << 64)) for _ in range(8)]
    for x, n in zip(points, range(8, 16)):
        word = sb.code_orbit(sys, x, partition, n).symbols
        region = _arcs_region(_circle_loop(sys, partition, word))
        for mu in CIRCLE_MEASURES:
            expected = cd.neg_log2(fr.region_measure(mu.model, region))
            assert en.local_info(sys, mu, x, partition, n) == expected, (n, mu.name)


def test_conditioned_measures_are_refused():
    # only Lebesgue and its mixtures with point masses have integer masses
    # on the interval and circle; any other model is refused
    line = sp.unit_interval()
    for sys, space in ((dy.doubling(), line), (dy.rotation(F(1, 3)), WHEEL)):
        other = ms.ComputableMeasure(space, "words", ms._ProductWordModel((F(1, 2), F(1, 2)), None))
        with pytest.raises(sb.UnsupportedCylinder):
            sb.cylinder_measure(sys, other, sb.halves(space), (0, 1))
        with pytest.raises(sb.UnsupportedCylinder):
            en.block_entropy(sys, other, sb.halves(space), 2)
