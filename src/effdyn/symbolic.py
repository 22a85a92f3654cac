"""Computable partitions, orbit coding, and cylinder measures.

Partitions are finite unions of rational-endpoint intervals (or cylinder
words on sequence space), so the boundary is an explicit finite set,
membership of rational points is exactly decidable, and neighborhoods of
the boundary have exactly computable Lebesgue mass.  On the unit interval
the endpoints 0 and 1 count as interior (pieces are relatively open), so
[0, 1/2) is a legitimate open atom.

Coding emits one symbol per orbit step whenever the step's enclosure
certifiably sits inside an atom, and the first-class Unknown symbol
(None, serialized '?') when it straddles the boundary at the working
precision.  An exactly rational orbit therefore gets Unknown precisely at
true boundary hits.

Cylinder sets are computed exactly by one backward pullback step per map
(`pullback`): prepended words for shifts whose atoms are single
cylinders, and integer pieces over one common denominator for doubling,
tent and rational rotations (lifted arcs on the circle).  Their masses
are exact under Lebesgue and its mixtures with point masses.  Every
other case (irrational rotations, shift atoms that are unions of several
cylinders, other measures on the interval or circle) raises
UnsupportedCylinder.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import KW_ONLY, dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from effdyn import dynamics as dy
from effdyn.measure import ComputableMeasure, _merge_pieces, _MixtureModel, interval_as_balls
from effdyn.numerics import dyadic_level
from effdyn.space import Kind, Point, Space, SpaceMismatch

F = Fraction


class UnsupportedCylinder(ValueError):
    """No exact cylinder oracle for this system/partition pair."""


class ReconstructStalled(RuntimeError):
    def __init__(self, position: int, partial):
        super().__init__(f"reconstruction stalled at position {position}")
        self.position = position
        self.partial = partial


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
        out = []
        for s in self.symbols:
            if s is None:
                break
            out.append(s)
        return tuple(out)

    @property
    def truncated(self) -> bool:
        return len(self.known_prefix) < len(self.symbols)


@dataclass(frozen=True)
class ComputablePartition:
    """Finitely many disjoint open atoms; the boundary is what they leave out.

    Interval/circle atoms are tuples of (a, b) pieces; sequence-space
    atoms are tuples of cylinder words.
    """

    space: Space
    atoms: Tuple[Tuple, ...]
    _: KW_ONLY
    name: str = ""

    @property
    def alphabet(self) -> int:
        return len(self.atoms)

    # -- membership, exactly decidable ----------------------------------

    def _piece_contains_value(self, piece, q: F) -> bool:
        a, b = piece
        if self.space.kind is Kind.UNIT_INTERVAL:
            left = q > a or (a <= 0 <= q)
            right = q < b or (b >= 1 >= q)
            return left and right
        q = q - (q.numerator // q.denominator)
        return any(a < q + t < b for t in (0, 1))

    def atom_of_value(self, q) -> Optional[int]:
        """Exact membership of a rational value (interval/circle kinds)."""
        q = F(q)
        for i, atom in enumerate(self.atoms):
            if any(self._piece_contains_value(piece, q) for piece in atom):
                return i
        return None

    def atom_of_word(self, word: Tuple[int, ...]) -> Optional[int]:
        for i, atom in enumerate(self.atoms):
            for cyl in atom:
                if len(word) >= len(cyl) and tuple(word[: len(cyl)]) == tuple(cyl):
                    return i
        return None

    def boundary_neighborhood_measure(self, mu: ComputableMeasure, radius: F) -> F:
        """Exact mass of the union of radius-balls around the atoms' piece
        ends, taken mod 1 on the circle; 0 and 1 are interior on the interval."""
        circle = self.space.kind is Kind.CIRCLE
        ends = {F(q) for atom in self.atoms for piece in atom for q in piece}
        balls = []
        for q in sorted({q % 1 for q in ends} if circle else ends):
            if circle or 0 < q < 1:
                balls.extend(interval_as_balls(self.space, q - radius, q + radius))
        return mu.exact_union(balls)


def halves(space: Space) -> ComputablePartition:
    if space.kind not in (Kind.UNIT_INTERVAL, Kind.CIRCLE):
        raise SpaceMismatch("halves needs an interval or circle")
    return ComputablePartition(space, (((F(0), F(1, 2)),), ((F(1, 2), F(1)),)), name="halves")


def dyadic_intervals(space: Space, level: int) -> ComputablePartition:
    cells = 1 << level
    atoms = tuple(((F(j, cells), F(j + 1, cells)),) for j in range(cells))
    return ComputablePartition(space, atoms, name=f"dyadic-{level}")


def cylinders(space: Space, length: int) -> ComputablePartition:
    if space.kind is not Kind.CANTOR:
        raise SpaceMismatch("cylinder partitions need sequence space")
    words = itertools.product(range(space.alphabet), repeat=length)
    atoms = tuple((w,) for w in words)
    return ComputablePartition(space, atoms, name=f"cylinders-{length}")


# ---------------------------------------------------------------------------
# Orbit coding
# ---------------------------------------------------------------------------


def _dyadic_level(partition: ComputablePartition) -> Optional[int]:
    """Largest denominator exponent if all pieces are dyadic, else None."""
    return dyadic_level(q for atom in partition.atoms for a, b in atom for q in (a, b))


def _fast_doubling_symbols(
    num: int, bits_total: int, partition: ComputablePartition, n: int
) -> Optional[List[Optional[int]]]:
    """Symbols of the doubling orbit of num/2**bits_total by bit windows.

    The j-th orbit point is 0.bits[j:], so membership in a dyadic-endpoint
    atom reduces to an integer window comparison plus an exact boundary
    check via the suffix-nonzero table.
    """
    level = _dyadic_level(partition)
    if level is None:
        return None
    bits = format(num, f"0{bits_total}b") if bits_total else ""
    if n + level > len(bits):
        bits = bits + "0" * (n + level - len(bits))
    suffix_nonzero = [False] * (len(bits) + 1)
    for i in range(len(bits) - 1, -1, -1):
        suffix_nonzero[i] = suffix_nonzero[i + 1] or bits[i] == "1"
    scale = 1 << level
    scaled_atoms = []
    for atom in partition.atoms:
        scaled_atoms.append([(int(a * scale), int(b * scale)) for a, b in atom])
    out: List[Optional[int]] = []
    for j in range(n):
        window = int(bits[j : j + level], 2) if level else 0
        tail = suffix_nonzero[j + level]
        symbol = None
        for i, pieces in enumerate(scaled_atoms):
            hit = False
            for a, b in pieces:
                if window < a or window >= b:
                    continue
                if window == a and not tail and a != 0:
                    continue  # exactly on an interior boundary point
                hit = True
                break
            if hit:
                symbol = i
                break
        out.append(symbol)
    return out


def code_orbit(
    sys: dy.System,
    x: Point,
    partition: ComputablePartition,
    n: int,
    precision: int = 24,
) -> SymbolicWord:
    """Certified symbolic orbit of length n; Unknown where certification
    fails at the working precision."""
    if partition.space != sys.space:
        raise SpaceMismatch(f"{partition.space} vs {sys.space}")
    if (
        sys.map_kind is dy.MapKind.DOUBLING
        and isinstance(x.exact, F)
        and x.exact.denominator & (x.exact.denominator - 1) == 0
    ):
        q = x.exact
        fast = _fast_doubling_symbols(
            q.numerator, q.denominator.bit_length() - 1, partition, n
        )
        if fast is not None:
            return SymbolicWord(tuple(fast), partition.alphabet)
    seg = dy.iterate(sys, x, n, precision)
    if sys.space.kind is Kind.CANTOR:
        symbols = tuple(partition.atom_of_word(word) for word in seg.words)
    else:
        symbols = tuple(_code_segment(partition, seg))
    return SymbolicWord(symbols, partition.alphabet)


def _code_segment(partition: ComputablePartition, seg: dy.OrbitSegment) -> List[Optional[int]]:
    """The certified atom (the lowest one with a piece holding the whole
    enclosure), or None, of every step of an interval or circle segment,
    on integers over the lcm L of the segment's and the pieces' denominators.

    The open-atom rules become plain open pieces (a, b) with a < lo and
    hi < b: on the unit interval an endpoint 0 moves to -1 and an endpoint
    L to L + 1, so that 0 and 1 count as interior; on the circle each
    piece also appears one turn down, for the lift t = 1, and lo is taken
    mod L.  Pieces stay unmerged, so that an enclosure across a shared
    endpoint of two pieces is not certified.

    The pieces are sorted by a, so those with a < lo are a prefix found
    by bisect; the scan walks that prefix back while the furthest b left
    in it passes hi, keeping the lowest atom among the pieces holding the
    enclosure.  Disjoint pieces end that walk after one piece, so a step
    costs one bisect whatever the partition's size.
    """
    ends = [F(q) for atom in partition.atoms for piece in atom for q in piece]
    den = math.lcm(seg.den, *(q.denominator for q in ends))
    scale = den // seg.den
    circle = partition.space.kind is Kind.CIRCLE
    pieces = []
    for i, atom in enumerate(partition.atoms):
        for a, b in atom:
            a, b = int(F(a) * den), int(F(b) * den)
            if circle:
                pieces += [(a, b, i), (a - den, b - den, i)]
            else:
                pieces.append((-1 if a == 0 else a, den + 1 if b == den else b, i))
    pieces.sort()
    starts = [a for a, _, _ in pieces]
    reach = list(itertools.accumulate((b for _, b, _ in pieces), max))
    out: List[Optional[int]] = []
    for lo, hi in zip(seg.lows, seg.highs):
        if scale != 1:
            lo *= scale
            hi *= scale
        if circle and not 0 <= lo < den:
            wraps = lo // den
            lo -= wraps * den
            hi -= wraps * den
        symbol = None
        t = bisect.bisect_left(starts, lo) - 1
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


def _intersect_pieces(xs, ys) -> List[Tuple[int, int]]:
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


def _prepend(cyl, word):
    """The word fixed by [cyl] n shift^-1 [word]: cyl from position 0 and
    word from position 1, or None when the two disagree where they overlap."""
    if cyl[1 : 1 + len(word)] != word[: len(cyl) - 1]:
        return None
    return cyl + word[len(cyl) - 1 :]


def _grid_den(sys: dy.System, mu: Optional[ComputableMeasure], partition: ComputablePartition) -> int:
    """D: the lcm of the denominators of the partition's endpoints, of a
    rotation's angle and of mu's point masses, which all lie on 1/D."""
    dens = [F(q).denominator for atom in partition.atoms for piece in atom for q in piece]
    if sys.map_kind is dy.MapKind.ROTATION:
        dens.append(sys.angle.denominator)
    if mu is not None and isinstance(mu.model, _MixtureModel):
        dens.extend(q.denominator for q, _ in mu.model.atoms)
    return math.lcm(*dens)


def _whole(arcs, den: int) -> bool:
    """Is the circle region one arc of length den, the whole circle?"""
    return len(arcs) == 1 and arcs[0][1] - arcs[0][0] == den


def _piece_mass(mu: ComputableMeasure, circle: bool):
    """mass(pieces, den): the exact mu-mass of open integer pieces over den,
    as an integer pair (numerator, denominator).

    A mixture's weights are held over their common denominator W, so the
    mass is (base * length + den * inside) / (W * den), where inside sums
    the weights of the atoms strictly inside a piece: on the circle at the
    lifted position p or p + den, and anywhere on the whole circle.
    Lebesgue is base 1 over W = 1 with no atoms.  Other models raise
    UnsupportedCylinder.
    """
    model = mu.model
    if not isinstance(model, _MixtureModel):
        raise UnsupportedCylinder(f"no exact cylinder masses under {mu.name}")
    scale = math.lcm(model.base_weight.denominator, *(w.denominator for _, w in model.atoms))
    base = model.base_weight.numerator * (scale // model.base_weight.denominator)
    atoms = [(q.numerator, q.denominator, w.numerator * scale // w.denominator) for q, w in model.atoms]

    def mass(pieces, den):
        inside = 0
        for num, qden, weight in atoms:
            p = num * (den // qden)
            lifts = (p % den, p % den + den) if circle else (p,)
            if circle and _whole(pieces, den) or any(a < x < b for a, b in pieces for x in lifts):
                inside += weight
        return base * sum(b - a for a, b in pieces) + den * inside, scale * den

    return mass


def pullback(sys: dy.System, mu: Optional[ComputableMeasure], partition: ComputablePartition):
    """(atoms, pull, cut, mass): the exact cylinders of a partition under a map.

    atoms[i] is atom i as a length-1 cylinder region.  pull(region, d)
    takes the region of a length-d cylinder C to T^-1(C), once, and
    cut(pulled, i, d) cuts that to atom i: the length-(d+1) cylinder that
    extends C by symbol i in front, None when it is empty.  mass(region, d)
    is the exact mu-mass of a length-d region as an integer pair
    (numerator, denominator): by `_piece_mass` for interval and circle
    maps, and the word measure's ratio for shifts; only mass reads mu,
    which may be None.  A region is

    * shifts: the word the cylinder fixes, pulled back by prepending an
      atom's word; each atom must be a single cylinder;
    * doubling and tent: sorted disjoint integer pieces over D * 2**(d-1),
      D = `_grid_den`, pulled back by grid_preimage;
    * rotations by a/q: sorted disjoint arcs over D, which q divides, each
      lifted to a start in [0, D) and an end at most start + D; a preimage
      subtracts a*D/q mod D, and an arc of length D is the whole circle.
    """
    kind = sys.map_kind
    if kind is dy.MapKind.SHIFT:
        if any(len(atom) != 1 for atom in partition.atoms):
            raise UnsupportedCylinder("shift cylinders need single-cylinder atoms")
        words = [tuple(atom[0]) for atom in partition.atoms]

        def shift_pull(word, d):
            return word

        def shift_cut(word, i, d):
            return _prepend(words[i], word)

        def shift_mass(word, d):
            return mu.word_measure(word).as_integer_ratio()

        return words, shift_pull, shift_cut, shift_mass
    if kind is dy.MapKind.ROTATION and not isinstance(sys.angle, F):
        raise UnsupportedCylinder("irrational rotation has no exact pullback here")
    piece_mass = None if mu is None else _piece_mass(mu, kind is dy.MapKind.ROTATION)
    den = _grid_den(sys, mu, partition)
    atoms = [[(int(a * den), int(b * den)) for a, b in _merge_pieces(atom)] for atom in partition.atoms]
    if kind is dy.MapKind.ROTATION:
        step = sys.angle.numerator * (den // sys.angle.denominator)
        # an atom over three turns meets a lifted arc in one line cut
        turns = [[(a + t, b + t) for t in (-den, 0, den) for a, b in atom] for atom in atoms]

        def circle_pull(region, d):
            return sorted((s, s + b - a) for a, b in region for s in [(a - step) % den])

        def circle_cut(pulled, i, d):
            if _whole(atoms[i], den):  # the whole circle cuts nothing
                return pulled
            region = _intersect_pieces(pulled, turns[i])
            return sorted((a - den, b - den) if a >= den else (a, b) for a, b in region) or None

        return atoms, circle_pull, circle_cut, lambda region, d: piece_mass(region, den)

    @functools.cache
    def scaled(d):
        return [[(a << d, b << d) for a, b in atom] for atom in atoms]

    def grid_pull(pieces, d):
        return dy.grid_preimage(kind, pieces, den << (d - 1))

    def grid_cut(pulled, i, d):
        return _intersect_pieces(pulled, scaled(d)[i]) or None

    return atoms, grid_pull, grid_cut, lambda pieces, d: piece_mass(pieces, den << (d - 1))


def _fold(atoms, pull, cut, word):
    """Region of the cylinder of a nonempty word, None when it is empty:
    the last symbol's atom, pulled back and cut to the named atom once per
    earlier symbol."""
    region = atoms[word[-1]]
    for d, symbol in enumerate(reversed(word[:-1]), 1):
        region = cut(pull(region, d), symbol, d)
        if region is None:
            break
    return region


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
    atoms, pull, cut, _ = pullback(sys, None, partition)
    if sys.map_kind is dy.MapKind.SHIFT:
        return _fold(atoms, pull, cut, word) if word else ()
    if not word:
        return [(F(0), F(1))]
    region = _fold(atoms, pull, cut, word) or []
    den = _grid_den(sys, None, partition)
    if sys.map_kind is not dy.MapKind.ROTATION:
        den <<= len(word) - 1
    elif _whole(region, den):
        return [(F(0), F(1))]
    return [(F(a, den), F(b, den)) for a, b in region]


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
    atoms, pull, cut, mass = pullback(sys, mu, partition)
    region = _fold(atoms, pull, cut, word)
    return F(0) if region is None else F(*mass(region, len(word)))


# ---------------------------------------------------------------------------
# Reconstruction from pseudo-orbits
# ---------------------------------------------------------------------------


def _ball_candidates(space: Space, center_desc, eps: F):
    """Deterministic enumeration of ideal descriptions in the open ball."""
    if space.kind in (Kind.UNIT_INTERVAL, Kind.CIRCLE):
        yield center_desc
        level = 0
        while True:
            cells = 1 << level
            lo_edge = center_desc - eps
            start = lo_edge.numerator * cells // lo_edge.denominator
            for num in range(start, start + int(2 * eps * cells) + 2):
                q = F(num, cells)
                if num % 2 == 0 and level > 0:
                    continue  # already emitted at a lower level
                if not abs(q - center_desc) < eps:
                    continue
                if space.kind is Kind.CIRCLE:
                    yield q - (q.numerator // q.denominator)
                elif 0 <= q <= 1:
                    yield q
            level += 1
    elif space.kind is Kind.CANTOR:
        word = tuple(center_desc)
        length = 0
        while F(1, 1 << length) >= eps:
            length += 1
        prefix = word[:length] + (0,) * max(0, length - len(word))
        # enumerate extensions of the forced prefix by total length
        for extension in itertools.count():
            yield prefix + space.decode(extension)
    else:
        raise SpaceMismatch(f"no candidate enumeration for {space}")


def reconstruct_symbols(
    partition: ComputablePartition,
    eps,
    pseudo_orbit: Sequence[int],
    budget: int = 4096,
) -> SymbolicWord:
    """Recover a symbolic word from an eps-accurate ideal pseudo-orbit.

    For each position, scans the pseudo-orbit point itself and then a
    fixed enumeration of ideal points in its eps-ball, emitting the first
    atom containing a candidate (atoms tried in index order, so ambiguity
    near the boundary resolves deterministically).  Guaranteed to halt
    when the ball meets some atom; budget exhaustion raises.
    """
    eps = F(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    space = partition.space
    out: List[int] = []
    for j, index in enumerate(pseudo_orbit):
        desc = space.decode(index)
        found = None
        candidates = _ball_candidates(space, desc, eps)
        for _ in range(budget):
            try:
                candidate = next(candidates)
            except StopIteration:
                break
            if space.kind is Kind.CANTOR:
                found = partition.atom_of_word(candidate)
            else:
                found = partition.atom_of_value(candidate)
            if found is not None:
                break
        if found is None:
            raise ReconstructStalled(j, SymbolicWord(tuple(out), partition.alphabet))
        out.append(found)
    return SymbolicWord(tuple(out), partition.alphabet)


def mismatch_fraction(word_a: SymbolicWord, word_b: SymbolicWord) -> F:
    """Fraction of positions where two equal-length words disagree."""
    if len(word_a) != len(word_b):
        raise ValueError("words must have equal length")
    bad = sum(1 for a, b in zip(word_a.symbols, word_b.symbols) if a != b)
    return F(bad, len(word_a)) if len(word_a) else F(0)
