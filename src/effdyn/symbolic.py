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

Cylinder sets are computed exactly by backward pullback for the interval
zoo and by window consistency for shifts; a seeded Monte-Carlo estimate
covers everything else.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from effdyn import dynamics as dy
from effdyn.measure import (
    ComputableMeasure,
    LineRegion,
    _circle_region,
    _LebesgueModel,
    _merge_pieces,
    interval_as_balls,
)
from effdyn.numerics import Interval
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
    """Finitely many disjoint open atoms with an explicit boundary set.

    Interval/circle atoms are tuples of (a, b) pieces; sequence-space
    atoms are tuples of cylinder words.  The complement of the union is
    the declared boundary set (finite, measure zero for the zoo).
    """

    space: Space
    atoms: Tuple[Tuple, ...]
    boundary_points: Tuple = ()
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

    def _piece_contains_enclosure(self, piece, box: Interval) -> bool:
        a, b = piece
        if self.space.kind is Kind.UNIT_INTERVAL:
            left = box.lo > a or (a <= 0 <= box.lo)
            right = box.hi < b or (b >= 1 and box.hi <= 1)
            return left and right
        width = box.width
        lo = box.lo - (box.lo.numerator // box.lo.denominator)
        hi = lo + width
        return any(a < lo + t and hi + t < b for t in (0, 1))

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

    def atom_of_enclosure(self, enclosure) -> Optional[int]:
        """Certified atom of an orbit enclosure, or None."""
        if self.space.kind is Kind.CANTOR:
            return self.atom_of_word(tuple(enclosure))
        for i, atom in enumerate(self.atoms):
            if any(self._piece_contains_enclosure(piece, enclosure) for piece in atom):
                return i
        return None

    def boundary_neighborhood_measure(self, mu: ComputableMeasure, radius: F) -> F:
        """Exact mass of the union of radius-balls around boundary points."""
        balls = []
        for q in self.boundary_points:
            balls.extend(interval_as_balls(self.space, F(q) - radius, F(q) + radius))
        return mu.exact_union(balls)

    def min_boundary_distance(self, values) -> F:
        """Exact min distance from the given values to the boundary set."""
        best = None
        for v in values:
            for q in self.boundary_points:
                d = self.space.dist_desc(F(v), F(q))
                best = d if best is None else min(best, d)
        return best


def halves(space: Space) -> ComputablePartition:
    if space.kind is Kind.UNIT_INTERVAL:
        return ComputablePartition(
            space,
            (((F(0), F(1, 2)),), ((F(1, 2), F(1)),)),
            boundary_points=(F(1, 2),),
            name="halves",
        )
    if space.kind is Kind.CIRCLE:
        return ComputablePartition(
            space,
            (((F(0), F(1, 2)),), ((F(1, 2), F(1)),)),
            boundary_points=(F(0), F(1, 2)),
            name="halves",
        )
    raise SpaceMismatch("halves needs an interval or circle")


def dyadic_intervals(space: Space, level: int) -> ComputablePartition:
    cells = 1 << level
    atoms = tuple(((F(j, cells), F(j + 1, cells)),) for j in range(cells))
    interior = tuple(F(j, cells) for j in range(1, cells))
    boundary = interior if space.kind is Kind.UNIT_INTERVAL else (F(0),) + interior
    return ComputablePartition(space, atoms, boundary, name=f"dyadic-{level}")


def cylinders(space: Space, length: int) -> ComputablePartition:
    if space.kind is not Kind.CANTOR:
        raise SpaceMismatch("cylinder partitions need sequence space")
    k = space.alphabet
    words = []
    for value in range(k**length):
        w = []
        v = value
        for _ in range(length):
            w.append(v % k)
            v //= k
        words.append(tuple(reversed(w)))
    atoms = tuple((w,) for w in sorted(words))
    return ComputablePartition(space, atoms, (), name=f"cylinders-{length}")


# ---------------------------------------------------------------------------
# Orbit coding
# ---------------------------------------------------------------------------


def _dyadic_level(partition: ComputablePartition) -> Optional[int]:
    """Largest denominator exponent if all pieces are dyadic, else None."""
    level = 0
    for atom in partition.atoms:
        for a, b in atom:
            for q in (a, b):
                den = F(q).denominator
                if den & (den - 1):
                    return None
                level = max(level, den.bit_length() - 1)
    return level


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
    symbols = tuple(partition.atom_of_enclosure(e) for e in seg.enclosures)
    return SymbolicWord(symbols, partition.alphabet)


# ---------------------------------------------------------------------------
# Cylinder measures
# ---------------------------------------------------------------------------


def integer_atoms(partition: ComputablePartition) -> Tuple[int, List[List[Tuple[int, int]]]]:
    """(D, atoms): each atom's merged pieces as integer endpoint pairs over
    D, the lcm of the endpoint denominators.  Interval atoms lie in [0, 1]."""
    merged = [_merge_pieces(atom) for atom in partition.atoms]
    den = math.lcm(*(F(q).denominator for atom in merged for piece in atom for q in piece))
    atoms = [[(int(F(a) * den), int(F(b) * den)) for a, b in atom] for atom in merged]
    return den, atoms


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


def pull_back_into(kind: dy.MapKind, region, den: int, atoms) -> List[List[Tuple[int, int]]]:
    """atom n T^-1(region) for each atom, for doubling or tent: `region`
    over den, the atoms and the results over 2*den, all as sorted disjoint
    integer pieces."""
    pulled = dy.grid_preimage(kind, region, den)
    return [_intersect_pieces(pulled, atom) for atom in atoms]


def interval_mass(mu: ComputableMeasure, pieces, den: int) -> F:
    """Exact mass of the open pieces (a/den, b/den); Lebesgue stays on
    integers, other models receive the region as a LineRegion."""
    if isinstance(mu.model, _LebesgueModel):
        return F(sum(b - a for a, b in pieces), den)
    return mu.model.region_measure(LineRegion(tuple((F(a, den), F(b, den)) for a, b in pieces)))


def _interval_cylinder(sys: dy.System, partition: ComputablePartition, word):
    """(pieces, den): the cylinder of a nonempty word for doubling or tent,
    pulled back one symbol at a time from the last."""
    den, atoms = integer_atoms(partition)
    pieces = atoms[word[-1]]
    for j in range(len(word) - 2, -1, -1):
        shift = len(word) - 1 - j
        atom = [(a << shift, b << shift) for a, b in atoms[word[j]]]
        (pieces,) = pull_back_into(sys.map_kind, pieces, den, [atom])
        den *= 2
        if not pieces:
            break
    return pieces, den


def cylinder_region(sys: dy.System, partition: ComputablePartition, word):
    """Exact region of the cylinder: points whose first len(word) symbols
    match.  Backward pullback through exact preimages."""
    word = tuple(word)
    if any(s is None for s in word):
        raise ValueError("cylinder of a word with Unknown symbols")
    if sys.map_kind is dy.MapKind.SHIFT:
        merged: List[Optional[int]] = []
        for j, a in enumerate(word):
            for offset, c in enumerate(partition.atoms[a][0]):
                pos = j + offset
                while len(merged) <= pos:
                    merged.append(None)
                if merged[pos] is not None and merged[pos] != c:
                    return None  # inconsistent overlap: empty cylinder
                merged[pos] = c
        return tuple(0 if c is None else c for c in merged)
    if sys.map_kind is dy.MapKind.ROTATION and not isinstance(sys.angle, F):
        raise UnsupportedCylinder("irrational rotation has no exact pullback here")
    if not word:
        return [(F(0), F(1))]
    pieces = list(partition.atoms[word[-1]])
    if len(word) == 1:
        return pieces
    if sys.space.kind is Kind.UNIT_INTERVAL:
        pieces, den = _interval_cylinder(sys, partition, word)
        return [(F(a, den), F(b, den)) for a, b in pieces]
    for j in range(len(word) - 2, -1, -1):
        pulled = dy.preimage_pieces(sys, pieces)
        region = _circle_region(pulled).intersect(_circle_region(partition.atoms[word[j]]))
        if region.full:
            pieces = [(F(0), F(1))]
        else:
            pieces = list(region.pieces)
        if not pieces:
            return []
    return pieces


def cylinder_measure(
    sys: dy.System,
    mu: ComputableMeasure,
    partition: ComputablePartition,
    word,
) -> F:
    """Exact cylinder mass for zoo system/partition pairs."""
    word = tuple(word)
    if any(s is None for s in word):
        raise ValueError("cylinder of a word with Unknown symbols")
    if not word:
        return F(1)
    if sys.space.kind is Kind.UNIT_INTERVAL:
        return interval_mass(mu, *_interval_cylinder(sys, partition, word))
    region = cylinder_region(sys, partition, word)
    if sys.map_kind is dy.MapKind.SHIFT:
        return F(0) if region is None else mu.word_measure(region)
    return mu.model.region_measure(_circle_region(region))


@dataclass(frozen=True)
class MCEstimate:
    value: float
    half_width: float
    samples: int
    seed: int


def mc_cylinder_estimate(
    sys: dy.System,
    partition: ComputablePartition,
    word,
    samples: int = 2000,
    seed: int = 0,
) -> MCEstimate:
    """Seeded Monte-Carlo fallback: frequency of sampled orbits coding to
    the word, with a two-sigma binomial half-width."""
    from effdyn.space import rational_point

    word = tuple(word)
    rng = random.Random(seed)
    hits = 0
    n = len(word)
    for _ in range(samples):
        q = F(rng.getrandbits(48), 1 << 48)  # uniform dyadic seed
        x = rational_point(sys.space, q)
        coded = code_orbit(sys, x, partition, n)
        if coded.symbols == word:
            hits += 1
    p = hits / samples
    half = 2 * (max(p * (1 - p), 1.0 / samples) / samples) ** 0.5
    return MCEstimate(p, half, samples, seed)


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
        k = space.alphabet
        extension = 0
        while True:
            # enumerate extensions of the forced prefix by total length
            yield prefix + _int_to_word(extension, k)
            extension += 1
    else:
        raise SpaceMismatch(f"no candidate enumeration for {space}")


def _int_to_word(value: int, k: int):
    length = 0
    block = 1
    v = value
    while v >= block:
        v -= block
        block *= k
        length += 1
    word = []
    for _ in range(length):
        word.append(v % k)
        v //= k
    return tuple(reversed(word))


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
