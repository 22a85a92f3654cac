"""Computable partitions, orbit coding, and cylinder measures.

Partitions are finite unions of rational-endpoint intervals (or cylinder
words on sequence space), so the boundary is an explicit finite set and
membership of rational points is exactly decidable.  An interval or
circle partition has one integer layout, its pieces over the lcm of the
endpoint denominators, and `_code_segment` is the one membership test on
it, with the open-atom rules: orbit coding and the doubling fast path
both decide through it.

Coding emits one symbol per orbit step whenever the step's enclosure
certifiably sits inside an atom, and the first-class Unknown symbol
(None, serialized '?') when it straddles the boundary at the working
precision.  An exactly rational orbit therefore gets Unknown precisely at
true boundary hits.

Cylinder sets are computed exactly a whole level at a time (`pullback`):
one list of the words of a level for shifts whose atoms are single
cylinders, each with the integer product of its transitions, extended by
prepending, and one sorted list of labelled integer pieces over a common
denominator for doubling, tent and rational rotations (lifted arcs on the
circle), pulled back and cut to the atoms in one sweep.  The
block-entropy walk extends a level by every atom, and the fold of one
word by the atom each symbol names.  Masses are exact integer pairs
under Lebesgue and its mixtures with point masses, and under Bernoulli
and Markov measures on shifts.  Every other case (irrational rotations,
shift atoms that are unions of several cylinders, other measures) raises
UnsupportedCylinder.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import KW_ONLY, dataclass
from functools import cached_property
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from effdyn import dynamics as dy
from effdyn.measure import _START, ComputableMeasure, _merge_pieces, _MixtureModel, _ProductWordModel
from effdyn.space import Kind, Point, Space, SpaceMismatch

F = Fraction


class UnsupportedCylinder(ValueError):
    """No exact cylinder oracle for this system/partition pair."""


@dataclass(frozen=True)
class SymbolicWord:
    """Finite word over a partition's alphabet; None marks Unknown."""

    symbols: Tuple[Optional[int], ...]
    alphabet: int

    def __len__(self):
        return len(self.symbols)

    def __str__(self):
        return "".join("?" if s is None else str(s) for s in self.symbols)

    @classmethod
    def parse(cls, text: str, alphabet: int) -> "SymbolicWord":
        return cls(tuple(None if c == "?" else int(c) for c in text), alphabet)

    @property
    def known_prefix(self) -> Tuple[int, ...]:
        """Symbols before the first Unknown; estimators drop the rest."""
        return self.symbols[: self.symbols.index(None)] if self.truncated else self.symbols

    @property
    def truncated(self) -> bool:
        return None in self.symbols


@dataclass(frozen=True)
class ComputablePartition:
    """Finitely many disjoint open atoms; the boundary is what they leave out.

    Interval/circle atoms are tuples of (a, b) pieces; sequence-space
    atoms are tuples of cylinder words.  A circle arc is stored with its
    start taken into [0, 1): (-1/4, 1/4) becomes (3/4, 5/4).
    """

    space: Space
    atoms: Tuple[Tuple, ...]
    _: KW_ONLY
    name: str = ""

    def __post_init__(self):
        if self.space.kind is Kind.CIRCLE:
            lift = [[(a - math.floor(a), b - math.floor(a)) for a, b in atom] for atom in self.atoms]
            object.__setattr__(self, "atoms", tuple(map(tuple, lift)))

    @property
    def alphabet(self) -> int:
        return len(self.atoms)

    @cached_property
    def layout(self) -> Tuple[int, Tuple[Tuple[int, int, int], ...]]:
        """(den, pieces) of an interval or circle partition: den is the lcm
        of the endpoint denominators, and each piece (a/den, b/den) of atom
        i is (a, b, i), in atom order."""
        pieces = [(F(a), F(b), i) for i, atom in enumerate(self.atoms) for a, b in atom]
        den = math.lcm(*(q.denominator for a, b, _ in pieces for q in (a, b)))
        return den, tuple((int(a * den), int(b * den), i) for a, b, i in pieces)

    def atom_of_word(self, word: Tuple[int, ...]) -> Optional[int]:
        for i, atom in enumerate(self.atoms):
            for cyl in atom:
                if len(word) >= len(cyl) and tuple(word[: len(cyl)]) == tuple(cyl):
                    return i
        return None


def halves(space: Space) -> ComputablePartition:
    if space.kind not in (Kind.UNIT_INTERVAL, Kind.CIRCLE):
        raise SpaceMismatch("halves needs an interval or circle")
    return ComputablePartition(space, (((F(0), F(1, 2)),), ((F(1, 2), F(1)),)), name="halves")


#: Largest number of atoms `dyadic_intervals` and `cylinders` build; more
#: raise ValueError before any atom is built (the coding tests ship level
#: 10).  At the cap a dyadic partition builds in 2-3 ms and codes a doubling
#: orbit of n = 2**14 in 7 ms; symbol_rate at n = 2**12 takes 0.10-0.14 s
#: and 19 MB peak memory (CPython 3.11.7, shared 2-vCPU VM).
PARTITION_ATOM_CAP = 1 << 10


def _check_atoms(base: int, exponent: int) -> None:
    # base >= 2, so an exponent past the cap's bit length is over the cap
    if exponent >= PARTITION_ATOM_CAP.bit_length() or base**exponent > PARTITION_ATOM_CAP:
        raise ValueError(f"{base}**{exponent} atoms, above PARTITION_ATOM_CAP = {PARTITION_ATOM_CAP}")


def dyadic_intervals(space: Space, level: int) -> ComputablePartition:
    _check_atoms(2, level)
    cells = 1 << level
    atoms = tuple(((F(j, cells), F(j + 1, cells)),) for j in range(cells))
    return ComputablePartition(space, atoms, name=f"dyadic-{level}")


def cylinders(space: Space, length: int) -> ComputablePartition:
    if space.kind is not Kind.CANTOR:
        raise SpaceMismatch("cylinder partitions need sequence space")
    _check_atoms(space.alphabet, length)
    atoms = tuple((w,) for w in itertools.product(range(space.alphabet), repeat=length))
    return ComputablePartition(space, atoms, name=f"cylinders-{length}")


# ---------------------------------------------------------------------------
# Orbit coding
# ---------------------------------------------------------------------------


def code_orbit(
    sys: dy.System, x: Point, partition: ComputablePartition, n: int, precision: int = 24
) -> SymbolicWord:
    """Certified symbolic orbit of length n; Unknown where certification
    fails at the working precision, the p of `dy.iterate`; a shift point
    with a symbol oracle is read to the partition's longest cylinder."""
    return _code_orbit(sys, x, partition, n, precision)[0]


def _code_orbit(
    sys: dy.System, x: Point, partition: ComputablePartition, n: int, precision: int
) -> Tuple[SymbolicWord, dy.OrbitSegment]:
    """`code_orbit`'s word and the segment it was coded from.  A dyadic
    doubling or tent point on a layout over 2**level is read by
    `dy.dyadic_windows`: no end lies inside a cell, so a step strictly
    inside the cell of window w is 2w + 1 over 2**(level+1), one on the
    grid 2w.  Others take `dy.iterate`'s; shift step j is sliced from the
    symbol stream as its `longest` symbols from j on, all that
    `atom_of_word` reads, and each distinct step is coded once."""
    if partition.space != sys.space:
        raise SpaceMismatch(f"{partition.space} vs {sys.space}")
    if sys.space.kind is Kind.CANTOR:
        longest = max((len(cyl) for atom in partition.atoms for cyl in atom), default=0)
        seg = dy.iterate(sys, x, n, longest - 1 if callable(x.exact) else precision)
        steps = [seg.symbols[j : j + longest] for j in range(n)]
        table = {word: partition.atom_of_word(word) for word in set(steps)}
        symbols = tuple(map(table.__getitem__, steps))
    else:
        den = partition.layout[0]
        read = None if den & (den - 1) else dy.dyadic_windows(sys, x, n, den.bit_length() - 1)
        if read is None:
            seg = dy.iterate(sys, x, n, precision)
        else:
            windows, inside = read
            steps = [2 * w + 1 for w in windows[:inside]] + [2 * w for w in windows[inside:]]
            seg = dy.OrbitSegment(n, steps, steps, 2 * den)
        symbols = tuple(_code_segment(partition, seg.lows, seg.highs, seg.den))
    return SymbolicWord(symbols, partition.alphabet), seg


def _scaled_layout(partition: ComputablePartition, den: int):
    """(pieces, starts, reach): the layout's open pieces (a, b, atom) on
    integers over den, a multiple of the layout's denominator, sorted by
    a, with their starts and the running furthest b (see `_code_segment`)."""
    pden, layout = partition.layout
    up = den // pden
    if partition.space.kind is Kind.CIRCLE:
        pieces = [(a * up - t, b * up - t, i) for a, b, i in layout for t in (0, den)]
    else:
        pieces = [(a * up if a else -1, b * up if b != pden else den + 1, i) for a, b, i in layout]
    pieces.sort()
    starts = [a for a, _, _ in pieces]
    reach = list(itertools.accumulate((b for _, b, _ in pieces), max))
    return pieces, starts, reach


def _code_segment(
    partition: ComputablePartition,
    lows: Sequence[int],
    highs: Sequence[int],
    den: int,
) -> List[Optional[int]]:
    """The certified atom of every step [lows[j], highs[j]] over den of an
    interval or circle orbit: the lowest atom with a piece holding the
    step's whole enclosure, or None.  This is the one membership test for
    interval and circle atoms.

    On integers over L, the lcm of den and the layout's denominator, the
    open-atom rules give plain open pieces (a, b), which hold a step when
    a < lo and hi < b: on the unit interval 0 and 1 count as interior, so
    an end 0 moves to -1 and an end L to L + 1; on the circle each arc
    also appears one turn down (the lift t = 1), and lo is
    taken mod L.  Pieces stay unmerged, so that an enclosure across an end
    shared by two pieces is not certified.

    Sorted by a, the pieces with a < lo are a prefix found by bisect, which
    the scan walks back while the furthest b left in it passes hi, keeping
    the lowest atom that holds the step; disjoint pieces end the walk after
    one piece, so a step costs one bisect whatever the partition's size.
    Exact steps (`lows is highs`) on fewer grid points than steps are
    coded once each.
    """
    if lows is highs and den + 1 < len(lows):
        values = sorted(set(lows))
        table = dict(zip(values, _code_segment(partition, values, values, den)))
        return list(map(table.__getitem__, lows))
    scale = math.lcm(den, partition.layout[0]) // den
    den *= scale
    circle = partition.space.kind is Kind.CIRCLE
    pieces, starts, reach = _scaled_layout(partition, den)
    out: List[Optional[int]] = []
    for lo, hi in zip(lows, highs):
        if scale != 1:
            lo, hi = lo * scale, hi * scale
        if circle and not 0 <= lo < den:
            wraps = lo // den * den
            lo, hi = lo - wraps, hi - wraps
        symbol = None
        t = bisect_left(starts, lo) - 1
        while t >= 0 and hi < reach[t]:
            _, b, i = pieces[t]
            if hi < b and (symbol is None or i < symbol):
                symbol = i
            t -= 1
        out.append(symbol)
    return out


# ---------------------------------------------------------------------------
# Cylinder pullback
# ---------------------------------------------------------------------------


#: Largest number of pieces (words, for shifts; cut points, for the
#: rotation gap method's deepest join) that one cylinder level may reach:
#: a level that could hold more is refused with PrecisionBlowup before it
#: is built.  Criterion 1's deepest level holds 2**16 pieces.  At the cap,
#: under Lebesgue (CPython 3.11.7, shared 2-vCPU VM, two single runs each):
#: doubling with halves runs n = 19 in 0.9-1.1 s and 187 MB peak memory
#: and refuses n = 20; tent with dyadic-2 is refused at n = 19 after
#: 2.1-2.8 s and 301 MB; fair Bernoulli shift(2) runs n = 19 in 1.7-1.9 s
#: and 272 MB (n = 20 would take about 4 s and 0.55 GB); sqrt2-1 with
#: halves (at most |cuts| * n = 2n cut points) runs n = 2**19 in 2.4-3.1 s
#: and 221 MB and refuses n = 2**19 + 1 at once.
BLOCK_LEVEL_CAP = 1 << 20

_END = operator.itemgetter(1)


def _check_level(count: int, d: int) -> None:
    if count > BLOCK_LEVEL_CAP:
        raise dy.PrecisionBlowup(
            f"cylinder level {d} could hold {count} pieces, above BLOCK_LEVEL_CAP = {BLOCK_LEVEL_CAP}"
        )


def _prepend(cyl, word):
    """The word fixed by [cyl] n shift^-1 [word]: cyl from position 0 and
    word from position 1, or None when the two disagree where they overlap."""
    if cyl[1 : 1 + len(word)] != word[: len(cyl) - 1]:
        return None
    return cyl + word[len(cyl) - 1 :]


def _grid_den(sys: dy.System, mu: Optional[ComputableMeasure], partition: ComputablePartition) -> int:
    """D: the lcm of the denominators of the partition's endpoints, of a
    rotation's angle and of mu's point masses, which all lie on 1/D."""
    dens = [partition.layout[0]]
    if sys.map_kind is dy.MapKind.ROTATION:
        dens.append(sys.angle.denominator)
    if mu is not None and isinstance(mu.model, _MixtureModel):
        dens.extend(q.denominator for q, _ in mu.model.atoms)
    return math.lcm(*dens)


def _whole(arcs, den: int) -> bool:
    """Is the circle region one arc of length den, the whole circle?"""
    return len(arcs) == 1 and arcs[0][1] - arcs[0][0] == den


def _cut(pulled, cuts, width: int, shift: int = 0):
    """Labelled pieces (start, end, label) cut to labelled pieces (s, e, t).

    Each overlap of a piece and a cut becomes the piece
    (max(start, s), min(end, e), label * width + t), in order of position;
    the cut ends are taken times 2**shift.  Both lists are sorted and
    disjoint, so their ends are sorted too: the pieces meeting a cut are
    one run, found by two bisects, and only its first and last piece can
    stick out of the cut.
    """
    out = []
    if not pulled:
        return out
    low, high = pulled[0][0], pulled[-1][1]
    for s, e, t in cuts:
        if shift:
            s <<= shift
            e <<= shift
        if e <= low or s >= high:
            continue
        i = bisect_right(pulled, s, key=_END)
        j = bisect_left(pulled, e, i, key=_START)
        if i == j:
            continue
        first = len(out)
        out += [(a, b, c * width + t) for a, b, c in pulled[i:j]]
        a, b, c = out[first]
        if a < s:
            out[first] = (s, b, c)
        a, b, c = out[-1]
        if b > e:
            out[-1] = (a, e, c)
    return out


def _word_weights(mu: ComputableMeasure):
    """(initial, Q, rows, R): a Bernoulli or Markov measure on integers, its
    initial vector as numerators over Q, their common denominator, and its
    transition rows as numerators over R, the lcm of the row denominators.
    A Bernoulli measure's every row is its initial vector, so R = Q.  The
    mass of a word w is initial[w0] times the product of its transitions'
    numerators, over Q * R**(len(w) - 1).  Other models raise
    UnsupportedCylinder."""
    model = mu.model
    if not isinstance(model, _ProductWordModel):
        raise UnsupportedCylinder(f"no exact cylinder masses under {mu.name}")
    q = math.lcm(*(p.denominator for p in model.initial))
    initial = [int(p * q) for p in model.initial]
    if model.rows is None:
        return initial, q, [initial] * len(initial), q
    r = math.lcm(*(p.denominator for row in model.rows for p in row))
    return initial, q, [[int(p * r) for p in row] for row in model.rows], r


def pullback(sys: dy.System, mu: Optional[ComputableMeasure], partition: ComputablePartition):
    """(step, weigh): the exact cylinders of a partition under a map, one
    level at a time.

    A level holds disjoint cylinders of one length d, each under a label.
    step(level, d, symbol) extends every cylinder C of a length-d level in
    front, to atom s n T^-1(C): by every symbol s when `symbol` is None,
    under the label label(C) * k + s, and else by the named symbol only,
    under C's label; step(None, 0, symbol) gives the atoms, the length-1
    cylinders, labelled the same way.  Before it builds a level, step
    checks the count that level could reach against BLOCK_LEVEL_CAP.
    weigh(level, d) gives (level, masses): the level relabelled 0, 1, ...
    in the order of its labels (a label is missing where a cut was empty),
    and the exact mu-mass of each cylinder as an integer pair (numerator,
    denominator).  Null cylinders stay: under a measure that is not
    invariant an extension of one can have positive mass.
    Only weigh and a shift's step read mu, which may be None (a shift
    cylinder then carries t = 1).  A level is

    * shifts: pairs (w, t) of the word w its cylinder fixes, labelled by
      position, and the integer product t of w's transition numerators
      over R (`_word_weights`), extended by prepending an atom's word,
      which multiplies t by the transitions it puts in front; each atom
      must be a single cylinder, and a mass is
      (initial[w0] * t, Q * R**(len(w) - 1));
    * doubling and tent: sorted disjoint integer pieces (start, end, label)
      over D * 2**(d-1), D = `_grid_den`, pulled back by grid_preimage and
      cut to the atoms in one sweep (`_cut`);
    * rotations by a/q: sorted disjoint arcs (start, end, label) over D,
      which q divides, each lifted to a start in [0, D) and an end at most
      start + D; a preimage subtracts a*D/q mod D, the atoms cut over three
      turns, and an arc of length D is the whole circle.

    On the interval and circle the masses come from the mixture's one mass
    formula on labelled integer pieces, `_MixtureModel.masses`, over
    N = D * 2**(d-1) or D: (base * length + N * inside) / (W * N), where
    inside sums the weights of the point masses strictly inside one of the
    cylinder's pieces (anywhere on the whole circle).  As in coding, 0 and
    1 are interior on the interval: a point mass at 0 is in the piece from
    0, and the tent map's at 1 in the piece to N.  Lebesgue, and mu None,
    is base 1 over W = 1 with no point masses; other models raise
    UnsupportedCylinder.
    """
    kind = sys.map_kind
    k = partition.alphabet
    if kind is dy.MapKind.SHIFT:
        if any(len(atom) != 1 for atom in partition.atoms):
            raise UnsupportedCylinder("shift cylinders need single-cylinder atoms")
        words = [tuple(atom[0]) for atom in partition.atoms]
        longest = max(map(len, words), default=1)
        ones = [1] * sys.space.alphabet
        initial, q, rows, r = (ones, 1, [ones] * len(ones), 1) if mu is None else _word_weights(mu)
        gain = {(a, b): t for a, row in enumerate(rows) for b, t in enumerate(row)}

        def product(word):
            return math.prod(map(gain.__getitem__, zip(word, word[1:])))

        def shift_step(level, d, symbol):
            named = words if symbol is None else [words[symbol]]
            _check_level(len(named) * (1 if level is None else len(level)), d + 1)
            if level is None:
                return [(cyl, product(cyl)) for cyl in named]
            # w is word with one letter in front, and so one more transition,
            # unless an atom reaches past word or is the empty cylinders-0
            return [
                (w, t * gain[w[0], w[1]] if len(w) == len(word) + 1 else product(w))
                for word, t in level
                for cyl in named
                for w in [_prepend(cyl, word)]
                if w is not None
            ]

        def shift_weigh(level, d):
            # a word of a level of d symbols has at most d + longest - 1
            # letters; the empty word of cylinders-0 has mass 1
            dens = [q * r**j for j in range(d + longest - 1)]
            return level, [(initial[w[0]] * t, dens[len(w) - 1]) if w else (1, 1) for w, t in level]

        return shift_step, shift_weigh
    if kind is dy.MapKind.ROTATION and not isinstance(sys.angle, F):
        raise UnsupportedCylinder("irrational rotation has no exact pullback here")
    circle = kind is dy.MapKind.ROTATION
    model = _MixtureModel(F(1), ()) if mu is None else mu.model
    if not isinstance(model, _MixtureModel):
        raise UnsupportedCylinder(f"no exact cylinder masses under {mu.name}")
    den = _grid_den(sys, mu, partition)
    up = den // partition.layout[0]
    atoms = [[] for _ in range(k)]
    for a, b, i in partition.layout[1]:
        atoms[i].append((a * up, b * up))
    atoms = [_merge_pieces(atom) for atom in atoms]
    cuts = atoms
    if circle:
        angle = sys.angle.numerator * (den // sys.angle.denominator) % den
        # lifted arcs lie in [0, 2D), where an atom over three turns meets
        # them in line cuts; the whole circle, as one cut, cuts nothing
        cuts = [
            [(-den, 3 * den)]
            if _whole(atom, den)
            else [(a + t, b + t) for t in (-den, 0, den) for a, b in atom if b + t > 0 and a + t < 2 * den]
            for atom in atoms
        ]
    every = sorted((a, b, i) for i, atom in enumerate(cuts) for a, b in atom)
    each = [[(a, b, 0) for a, b in sorted(atom)] for atom in cuts]
    # the weights of the point masses at the interval's ends, which
    # `masses` finds in no piece (doubling reads 1 as 0)
    at_zero = at_one = 0
    for num, qden, weight in [] if circle else model.integer_weights[1]:
        if num == 0 or num == qden and kind is dy.MapKind.DOUBLING:
            at_zero += weight
        elif num == qden:
            at_one += weight

    def step(level, d, symbol):
        if level is None:
            named = list(enumerate(atoms)) if symbol is None else [(0, atoms[symbol])]
            _check_level(sum(len(atom) for _, atom in named), 1)
            return sorted((a, b, i) for i, atom in named for a, b in atom)
        cut, width = (every, k) if symbol is None else (each[symbol], 1)
        _check_level(len(level) * (1 if circle else 2) + len(cut), d + 1)
        if not circle:
            return _cut(dy.grid_preimage(kind, level, den << (d - 1)), cut, width, d)
        pulled = [(s, s + b - a, c) for a, b, c in level for s in [(a - angle) % den]]
        pulled.sort()
        pulled = _cut(pulled, cut, width)
        if pulled and pulled[-1][0] >= den:
            # the pieces past D, all cut from the one arc across D, go one
            # turn down, to the front
            i = bisect_left(pulled, den, key=_START)
            pulled = [(a - den, b - den, c) for a, b, c in pulled[i:]] + pulled[:i]
        return pulled

    def weigh(level, d):
        span = den if circle else den << (d - 1)
        masses = model.masses(level, span, circle, circle and _whole(level, span))
        if at_zero and level and level[0][0] == 0:
            c = level[0][2]
            masses[c] = (masses[c][0] + span * at_zero, masses[c][1])
        if at_one and level and level[-1][1] == span:
            c = level[-1][2]
            masses[c] = (masses[c][0] + span * at_one, masses[c][1])
        if None in masses:
            labels = [c for c, mass in enumerate(masses) if mass is not None]
            dense = dict(zip(labels, range(len(labels))))
            level = [(a, b, dense[c]) for a, b, c in level]
            masses = [masses[c] for c in labels]
        return level, masses

    return step, weigh


def _fold(step, word):
    """The cylinder of a nonempty word as a level: the last symbol's atom,
    pulled back and cut to the named atom once per earlier symbol; empty
    when the cylinder is."""
    level = step(None, 0, word[-1])
    for d, symbol in enumerate(reversed(word[:-1]), 1):
        if not level:
            break
        level = step(level, d, symbol)
    return level


def _known(word) -> Tuple[int, ...]:
    word = tuple(word)
    if any(s is None for s in word):
        raise ValueError("cylinder of a word with Unknown symbols")
    return word


def cylinder_region(sys: dy.System, partition: ComputablePartition, word):
    """Exact region of the cylinder: points whose first len(word) symbols
    match.  Shifts give the word it fixes (None when empty); interval and
    circle maps give rational pieces ([] when empty), circle arcs with a
    start in [0, 1) and the whole circle as [(0, 1)]."""
    word = _known(word)
    step, _ = pullback(sys, None, partition)
    if sys.map_kind is dy.MapKind.SHIFT:
        if not word:
            return ()
        level = _fold(step, word)
        return level[0][0] if level else None
    if not word:
        return [(F(0), F(1))]
    region = _fold(step, word)
    den = _grid_den(sys, None, partition)
    if sys.map_kind is not dy.MapKind.ROTATION:
        den <<= len(word) - 1
    elif _whole(region, den):
        return [(F(0), F(1))]
    return [(F(a, den), F(b, den)) for a, b, _ in region]


def cylinder_measure(
    sys: dy.System,
    mu: ComputableMeasure,
    partition: ComputablePartition,
    word,
) -> F:
    """Exact cylinder mass for zoo system/partition pairs."""
    word = _known(word)
    if not word:
        return F(1)
    step, weigh = pullback(sys, mu, partition)
    _, masses = weigh(_fold(step, word), len(word))
    return F(*masses[0]) if masses else F(0)
