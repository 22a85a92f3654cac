"""Entropy and orbit-information estimators.

Five estimator families:

* block_entropy: exact Shannon block entropies H(xi_n) of the coded
  process, by backward pullback of whole cylinder levels (interval maps,
  shifts, rational rotations) or by the boundary-orbit gap structure
  (rotations under Lebesgue); the rate is the conditional entropy
  H(xi_n) - H(xi_{n-1}).
* local_info: -log2 of the exact mass of one orbit's length-n cylinder.
* symbol_rate (symbolic orbit information): compressed bits per step of
  the coded orbit, with limsup proxied by the top quarter of the n-grid.
* orbit_rate (pseudo-orbit information): quantize the orbit on the
  2**-p grid, serialize first index then successive differences, compress
  the bit stream; reported per scale with upper/lower proxies.
* spanning/h1: greedy Bowen-ball nets over the ideal grid, counted
  exactly; log-counts against n give the capacity slope.

Limits are proxied by fixed grid rules (powers of two, top-quarter
max/min), keeping runs reproducible.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from effdyn import dynamics as dy
from effdyn import symbolic as sb
from effdyn.coding import PrefixFreeCompressor, neg_log2
from effdyn.measure import ComputableMeasure
from effdyn.reporting import EntropyReport, liminf_proxy, limsup_proxy
from effdyn.space import Kind, Point, SpaceMismatch

F = Fraction


class OracleUnavailable(ValueError):
    """No exact cylinder oracle for the requested pair."""


# ---------------------------------------------------------------------------
# Block entropy
# ---------------------------------------------------------------------------


def _entropy_bits(masses) -> float:
    """Entropy in bits of masses given as integer pairs (numerator, denominator).

    Cylinder masses repeat heavily (all 2**-n under Lebesgue doubling,
    three gap lengths for a rotation), so each distinct pair's term is
    computed once; the sum keeps its order, hence its rounding (adding
    0.0 for a null mass leaves it unchanged).
    """
    total = 0.0
    seen: Dict[Tuple[int, int], float] = {}
    for pair in masses:
        term = seen.get(pair)
        if term is None:
            q = F(*pair)
            term = seen[pair] = float(q) * neg_log2(q) if q else 0.0
        total += term
    return total


def _gaps_are_cylinders(partition) -> bool:
    """Is each gap between consecutive cuts one cylinder of a rotation?  It
    is when every atom is one arc of length at most 1/2, so that each join
    of atoms is one arc, and the arcs fill the circle."""
    lengths = [b - a for atom in partition.atoms for a, b in atom]
    one_arc = all(len(atom) == 1 for atom in partition.atoms)
    return one_arc and sum(lengths) == 1 and 2 * max(lengths) <= 1


def _rotation_gap_entropies(sys: dy.System, partition, ns: Sequence[int]) -> Dict[int, float]:
    """H(xi_n) for circle rotations under Lebesgue from the boundary-orbit
    gap structure, for partitions that pass `_gaps_are_cylinders`.

    The join of the first n coded partitions cuts the circle exactly at
    the backward angle-orbit of the atoms' piece ends; cylinder masses are
    the gaps between consecutive cut points.  The cuts are integers mod L,
    the lcm of the denominators of the angle and the ends.  An irrational
    angle is taken at its 80-bit approximant, the midpoint of its
    enclosure: gap perturbations are far below the minimal three-gap scale
    at desk-size n.  A deepest join of more than `sb.BLOCK_LEVEL_CAP` cut
    points (at most |cuts| * n) is refused before any is built.
    """
    alpha = sys.angle if isinstance(sys.angle, F) else sys.angle.approx_desc(80)
    pden, pieces = partition.layout
    den = math.lcm(alpha.denominator, pden)
    step = alpha.numerator * (den // alpha.denominator)
    cuts = {q * (den // pden) % den for a, b, _ in pieces for q in (a, b)}
    sb._check_level(len(cuts) * max(ns), max(ns))
    out = {}
    points = set()
    shift = 0
    wanted = set(ns)
    for n in range(1, max(ns) + 1):
        points.update((c - shift) % den for c in cuts)
        shift = (shift + step) % den
        if n in wanted:
            ordered = sorted(points)
            gaps = [b - a for a, b in zip(ordered, ordered[1:])]
            gaps.append(den - ordered[-1] + ordered[0])
            out[n] = _entropy_bits((g, den) for g in gaps)
    return out


def _pullback_level_entropies(sys, mu, partition, ns: Sequence[int]) -> Dict[int, float]:
    """H(xi_n) by suffix pullback, a whole level at a time: level d holds
    every nonempty length-d cylinder (`symbolic.pullback`), null ones
    too, labelled in the order of the level-(d-1) cylinder it extends and
    then of its first symbol, which is the order its masses are summed
    in; a null cylinder adds a 0.0 term.  A level
    that could exceed `symbolic.BLOCK_LEVEL_CAP` pieces raises
    PrecisionBlowup before it is built."""
    step, weigh = sb.pullback(sys, mu, partition)
    wanted = set(ns)
    out = {}
    level = None
    for d in range(max(ns)):
        level, masses = weigh(step(level, d, None), d + 1)
        if d + 1 in wanted:
            out[d + 1] = _entropy_bits(masses)
    return out


def block_entropy(
    sys: dy.System,
    mu: ComputableMeasure,
    partition,
    n_max: int,
) -> EntropyReport:
    """Exact block entropies and the conditional-entropy rate estimate."""
    if n_max <= 32:
        ns = list(range(1, n_max + 1))
    else:
        ns = sorted({1 << j for j in range((n_max).bit_length())} | {n_max - 1, n_max})
        ns = [n for n in ns if n <= n_max]
    if sys.map_kind is dy.MapKind.ROTATION and mu.is_lebesgue and _gaps_are_cylinders(partition):
        table = _rotation_gap_entropies(sys, partition, ns)
    else:
        table = _pullback_level_entropies(sys, mu, partition, ns)
    rows = tuple(("H_bits", n, table[n]) for n in sorted(table))
    ordered = sorted(table)
    if len(ordered) >= 2:
        a, b = ordered[-2], ordered[-1]
        rate = (table[b] - table[a]) / (b - a)
    else:
        rate = table[ordered[-1]] / ordered[-1]
    diag = {"rate_avg": table[ordered[-1]] / ordered[-1]}
    return EntropyReport("block-entropy", sys.name, rows, rate, diag)


def local_info(sys, mu, x: Point, partition, n: int) -> float:
    """-log2 of the exact mass of x's length-n cylinder."""
    if n == 0:
        return 0.0
    word = sb.code_orbit(sys, x, partition, n)
    if word.truncated:
        raise sb.UnsupportedCylinder(f"orbit coding unresolved at {len(word.known_prefix)}")
    mass = sb.cylinder_measure(sys, mu, partition, word.symbols)
    if mass == 0:
        raise OracleUnavailable("zero-mass cylinder")
    return neg_log2(mass)


# ---------------------------------------------------------------------------
# Symbolic orbit information rate
# ---------------------------------------------------------------------------


def symbol_rate(
    sys: dy.System,
    x: Point,
    partition,
    n_grid: Sequence[int],
) -> EntropyReport:
    """Compressed bits per step of the coded orbit, over the n-grid.

    The orbit is coded once at the largest n; a truncation at the first
    Unknown symbol is reported and the grid restricted accordingly.
    """
    n_grid = sorted(n_grid)
    n_max = n_grid[-1]
    word = sb.code_orbit(sys, x, partition, n_max)
    usable = word.known_prefix
    diag = {}
    if word.truncated:
        diag["truncated_at"] = len(usable)
    grid = [n for n in n_grid if n <= len(usable)]
    if not grid:
        raise sb.UnsupportedCylinder("orbit coding unresolved before the first grid point")
    bits = PrefixFreeCompressor(partition.alphabet).prefix_bits_len(usable, grid)
    rows = tuple(("bits_per_step", n, b / n) for n, b in zip(grid, bits))
    values = [v for _, _, v in rows]
    rate = limsup_proxy(values)
    diag["liminf"] = liminf_proxy(values)
    return EntropyReport("symbol-rate", sys.name, rows, rate, diag)


# ---------------------------------------------------------------------------
# Pseudo-orbit (grid-coded) information rate
# ---------------------------------------------------------------------------


def _quantize_orbit(sys: dy.System, x: Point, n: int, p: int) -> List[int]:
    """Grid indices of spacing 2**-p following the orbit within 2**-p; for
    a dyadic doubling or tent point, floor(2**p T^j x) is its window from
    `dy.dyadic_windows`, clipped like the midpoints to the grid, which
    moves only the tent map's point 1 (on the grid, past `inside`).

    On a shift, index j is the base-k value of the symbols s_j .. s_{j+p}
    of the point: `dy.digit_windows` of width p + 1 over the segment's
    symbol stream, which holds at least n + p + 3 of them."""
    cells = 1 << p
    read = dy.dyadic_windows(sys, x, n, p)
    if read is not None:
        windows, inside = read
        windows[inside:] = [w if w < cells else cells - 1 for w in windows[inside:]]
        return windows
    seg = dy.iterate(sys, x, n, p + 3)
    if sys.space.kind is Kind.CANTOR:
        return dy.digit_windows(seg.symbols, sys.space.alphabet, p + 1, n)
    # floor(midpoint * 2**p), the midpoint being (lo + hi) / (2 * den)
    den2 = 2 * seg.den
    out = [((lo + hi) << p) // den2 for lo, hi in zip(seg.lows, seg.highs)]
    if sys.space.kind is Kind.CIRCLE:
        return [index % cells for index in out]
    return [min(max(index, 0), cells - 1) for index in out]


_PREDICTOR_FAMILY = (0, 1, 2, 3, 4)


def _zigzag(v: int) -> int:
    return 2 * v if v >= 0 else -2 * v - 1


def _packed_bits(values: List[int], width: int) -> bytes:
    """The bits of the values, each at `width` bits, first value first, as
    one 0/1 byte per bit: the form `PrefixFreeCompressor(2)` reads.

    The values become one integer by merging neighbours pairwise, which
    keeps every merge level linear in the total size; a zero put in front
    of an odd level only adds leading zero bits, which the fixed-width
    format drops again.
    """
    total = len(values) * width
    while len(values) > 1:
        if len(values) % 2:
            values = [0] + values
        values = [a << width | b for a, b in zip(values[::2], values[1::2])]
        width *= 2
    return format(values[0], f"0{total}b").encode().translate(dy._DIGIT_VALUES)


def pseudo_orbit_code_bits(
    indices: Sequence[int], modulus: int, compressor: PrefixFreeCompressor, ends: Sequence[int]
) -> List[int]:
    """Self-delimiting code length of the grid pseudo-orbit indices[:m], for
    each m in the sorted `ends` (all >= 1).

    Format: predictor coefficient c (from a fixed small family), the
    centered residual offset and bit-width, the first index, then the
    residuals (i_{j+1} - c*i_j, centered and offset) packed at that width
    and compressed.  Plain differences are c = 1; expanding maps get their
    step structure exposed by c = 2, 3, ...; the best coefficient is the
    one minimizing the total, ties to the smallest.

    For one predictor the stream of a prefix is a prefix of the stream of
    a longer one while the offset and width stay the same, so the ends are
    grouped by (offset, width) and each group's stream is packed once and
    costed once for all its ends.  The extrema of residuals[:m - 1] are
    running ones, extended from end to end by `min` and `max` over the
    slice between consecutive ends.  The predictors are costed narrowest
    first, each against the best total so far at every end: a stream's
    compressed length is exact while it can still win and a lower bound
    once it cannot, so the minimum is the same as with every stream
    costed in full.
    """
    from effdyn.coding import elias_len, phased_len

    first_cost = phased_len(indices[0] % modulus, modulus)
    # no residuals: c = 0 has the shortest header
    best: List[Optional[int]] = [elias_len(1) + first_cost if m < 2 else None for m in ends]
    half = modulus // 2
    last = ends[-1]
    predictors = []
    for ci, c in enumerate(_PREDICTOR_FAMILY):
        # residuals shifted up by half, into [0, modulus); only the
        # offsets are centered
        shifted = [(b - c * a + half) % modulus for a, b in zip(indices[: last - 1], indices[1:last])]
        # the ends m >= 2 by the offset and width of residuals[:m - 1]
        groups: Dict[Tuple[int, int], List[int]] = {}
        low, high, seen = modulus, -1, 0
        for i, m in enumerate(ends):
            if m - 1 > seen:
                part = shifted[seen : m - 1]
                low, high, seen = min(low, min(part)), max(high, max(part)), m - 1
            if m >= 2:
                groups.setdefault((low - half, (high - low).bit_length()), []).append(i)
        # the width only grows with m, so the last group's is the widest
        width = next(reversed(groups))[1] if groups else 0
        predictors.append((width, ci, shifted, groups))
    for _, ci, shifted, groups in sorted(predictors, key=lambda predictor: predictor[0]):
        for (offset, width), members in groups.items():
            fixed = first_cost + elias_len(ci + 1) + elias_len(_zigzag(offset) + 1)
            fixed += elias_len(width + 1)
            count = ends[members[-1]] - 1
            bits = b""
            if width:
                base = offset + half
                bits = _packed_bits([r - base for r in shifted[:count]], width)
            costs = compressor._prefix_bits_len(
                bits,
                [(ends[i] - 1) * width for i in members],
                [None if best[i] is None else best[i] - fixed for i in members],
            )
            for i, cost in zip(members, costs):
                if best[i] is None or fixed + cost < best[i]:
                    best[i] = fixed + cost
    return best


def orbit_rate(
    sys: dy.System,
    x: Point,
    scale_exponents: Sequence[int],
    n_grid: Sequence[int],
) -> EntropyReport:
    """Information rate of grid-quantized pseudo-orbits, per scale.

    For each scale 2**-p the orbit is quantized once at the largest n and
    every grid prefix is coded standalone, all in one pass of
    `pseudo_orbit_code_bits`; bits/n per (scale, n) fill the report.  The
    headline rate is the upper proxy at the finest scale; diagnostics
    carry per-scale upper/lower proxies for the scale trend.
    """
    compressor = PrefixFreeCompressor(2)
    n_grid = sorted(n_grid)
    n_max = n_grid[-1]
    rows = []
    upper: Dict[int, float] = {}
    lower: Dict[int, float] = {}
    for p in sorted(scale_exponents):
        indices = _quantize_orbit(sys, x, n_max, p)
        if sys.space.kind is Kind.CANTOR:
            modulus = sys.space.alphabet ** (p + 1)
        else:
            modulus = 1 << p
        bits = pseudo_orbit_code_bits(indices, modulus, compressor, n_grid)
        values = [b / n for n, b in zip(n_grid, bits)]
        rows.extend((f"eps=2^-{p}", n, value) for n, value in zip(n_grid, values))
        upper[p] = limsup_proxy(values)
        lower[p] = liminf_proxy(values)
    finest = max(scale_exponents)
    diag = {
        "upper_by_scale": {f"2^-{p}": round(v, 6) for p, v in sorted(upper.items())},
        "lower_by_scale": {f"2^-{p}": round(v, 6) for p, v in sorted(lower.items())},
    }
    return EntropyReport("orbit-rate", sys.name, tuple(rows), upper[finest], diag)


# ---------------------------------------------------------------------------
# Spanning / separated sets and the capacity slope
# ---------------------------------------------------------------------------


# Largest witness whose positions spanning_separated materializes.
SPANNING_MEMBER_CAP = 1 << 17

#: Largest doubling or tent grid 2**(p+n+2) that spanning_separated takes;
#: a larger one raises PrecisionBlowup before anything is allocated.  The
#: scan holds one byte of marks per grid point, 1 MB at the cap.  There,
#: for p = 0..3, tent takes 1.4-4.7 s and at most 6 MB more peak memory
#: (n = 15, p = 3 keeps 133,744 points), and doubling at p = 0 1.1-1.5 s;
#: from p = 1 on doubling is counted in closed form.  Measured with
#: CPython 3.11.7 on a shared 2-vCPU Linux VM, two single runs each.
SPANNING_GRID_CAP = 1 << 20


@dataclass(frozen=True)
class SpanningSet:
    """Greedy (n, 2**-p-2)-separated, (n, 2**-p)-spanning witness.

    positions: grid integers (interval/circle, resolution 2**-grid_level)
    or words (shifts); None when only the exact count is materialized.
    """

    system: dy.System
    n: int
    p: int
    count: int
    grid_level: int
    positions: Optional[Tuple] = None


def spanning_separated(sys: dy.System, n: int, p: int, witness: bool = True) -> SpanningSet:
    """Greedy scan over ideal points of resolution p+n+2: keep a point iff
    its d_n distance to every kept point exceeds 2**-(p+1).

    Kept points are (n, 2**-p-2)-separated (their pairwise d_n even
    exceeds 2**-p-1) and (n, 2**-p)-spanning: a rejected grid point is
    2**-p-1-close to a kept one and an arbitrary point is grid-close to
    its nearest grid point even through n expansions.

    Rotations, shifts and doubling with p, n >= 1 have the scan's result
    in closed form: on the doubling grid each ball is [v - 4, v + 4] cut
    to v's block of 2**(p+3) points (`grid_balls`), so the scan keeps
    base, base + 5, ... in each of the 2**(n-1) blocks.  Otherwise the
    scan walks the grid upwards: each kept point marks the later points
    of its grid Bowen ball, and the scan goes on at the first unmarked
    point.  With witness False only the count is made; positions is None.
    """
    g = p + n + 2
    size = 1 << g
    threshold = 1 << (g - p - 1)
    if sys.map_kind is dy.MapKind.ROTATION:
        positions = range(0, size, threshold + 1)
        while positions and min(positions[-1], size - positions[-1]) <= threshold:
            positions = positions[:-1]
        if not positions:
            positions = range(1)
        return SpanningSet(sys, n, p, len(positions), g, tuple(positions) if witness else None)
    if sys.map_kind is dy.MapKind.SHIFT:
        k = sys.space.alphabet
        length = n + p
        count = k**length
        if witness and count <= SPANNING_MEMBER_CAP:
            words = itertools.product(range(k), repeat=length)
            return SpanningSet(sys, n, p, count, length, tuple(words))
        return SpanningSet(sys, n, p, count, length, None)
    if sys.map_kind not in (dy.MapKind.DOUBLING, dy.MapKind.TENT):
        raise SpaceMismatch(f"no spanning construction for {sys.map_kind}")
    if size > SPANNING_GRID_CAP:
        cap = SPANNING_GRID_CAP.bit_length() - 1
        raise dy.PrecisionBlowup(f"spanning scan capped at grid 2**{cap}, needs 2**{g}")
    if sys.map_kind is dy.MapKind.DOUBLING and p >= 1 and n >= 1:
        block = 1 << (p + 3)
        kept = range(0, block, 5)  # offsets kept in each block
        count = (size // block) * len(kept)
        keep = None
        if witness and count <= SPANNING_MEMBER_CAP:
            keep = tuple(base + j for base in range(0, size, block) for j in kept)
        return SpanningSet(sys, n, p, count, g, keep)
    ball = dy.grid_balls(sys.map_kind, size, n, threshold)
    marked = bytearray(size)
    positions = []
    i = 0
    while i >= 0:
        positions.append(i)
        for lo, hi in ball(i):
            if lo <= i:
                lo = i + 1
            if lo <= hi:
                marked[lo : hi + 1] = b"\x01" * (hi + 1 - lo)
        i = marked.find(0, i + 1)
    keep = tuple(positions) if witness and len(positions) <= SPANNING_MEMBER_CAP else None
    return SpanningSet(sys, n, p, len(positions), g, keep)


def verify_separated(span: SpanningSet) -> bool:
    """Exact check that all pairs have d_n > 2**-(p+2).

    Linear in the witness size after a sort: shift words and rotation
    points need only their sorted (for rotations, circular) neighbours,
    and a doubling or tent point's grid Bowen ball of radius 2**-(p+2)
    must hold no other position.
    """
    sys = span.system
    if span.positions is None:
        raise ValueError("positions not materialized")
    pts = sorted(span.positions)
    if sys.map_kind is dy.MapKind.SHIFT:
        # d_n(u, v) = 2**-max(t-n+1, 0) for a first difference at t, so
        # d_n <= 2**-(p+2) iff u and v agree on their first n+p+1 symbols;
        # the longest common prefix of a sorted list is between neighbours
        for u, v in zip(pts, pts[1:]):
            t = next((j for j in range(min(len(u), len(v))) if u[j] != v[j]), None)
            if t is None or t >= span.n + span.p + 1:
                return False
        return True
    # grid units: d <= 2**-(p+2) iff d * 2**g <= floor(2**g / 2**(p+2))
    cells = 1 << span.grid_level
    bound = cells >> (span.p + 2)
    if sys.map_kind is dy.MapKind.ROTATION:
        ring = pts[1:] + [q + cells for q in pts[:1]]
        return all(b - a > bound for a, b in zip(pts, ring))
    ball = dy.grid_balls(sys.map_kind, cells, span.n, bound)
    for u in pts:
        ranges = ball(u)
        # u lies in its own ball, so any second position breaks separation
        inside = sum(bisect.bisect_right(pts, hi) - bisect.bisect_left(pts, lo) for lo, hi in ranges)
        if inside > 1:
            return False
    return True


def h1_estimate(sys: dy.System, p_grid: Sequence[int], n_grid: Sequence[int]) -> EntropyReport:
    """Capacity slope: least-squares fit of log2 |S(n, p)| against n, per
    scale; the headline value is the slope at the finest scale."""
    rows = []
    slopes = {}
    for p in sorted(p_grid):
        ns, logs = [], []
        for n in sorted(n_grid):
            value = math.log2(spanning_separated(sys, n, p, witness=False).count)
            rows.append((f"eps=2^-{p}", n, value))
            ns.append(n)
            logs.append(value)
        mean_n = sum(ns) / len(ns)
        mean_l = sum(logs) / len(logs)
        var = sum((a - mean_n) ** 2 for a in ns)
        slope = (
            sum((a - mean_n) * (b - mean_l) for a, b in zip(ns, logs)) / var
            if var
            else logs[-1] / ns[-1]
        )
        slopes[p] = slope
    finest = max(p_grid)
    diag = {"slope_by_scale": {f"2^-{p}": round(v, 6) for p, v in sorted(slopes.items())}}
    return EntropyReport("h1", sys.name, tuple(rows), slopes[finest], diag)


# ---------------------------------------------------------------------------
# Null s-covers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NullSCover:
    """Finite truncation of a weighted family of Bowen balls.

    entries: (grid position or word, depth n, scale exponent p); grid
    positions refer to resolution 2**-grid_level like SpanningSet.
    """

    system: dy.System
    exponent: float
    entries: Tuple[Tuple[object, int, int], ...]
    grid_levels: Dict[int, int]  # depth -> grid level

    def truncated_weight(self) -> float:
        return sum(2.0 ** (-self.exponent * n) for _, n, _ in self.entries)


def cover_from_spanning(sys: dy.System, depths: Sequence[int], p: int, exponent: float) -> NullSCover:
    entries = []
    levels = {}
    for n in sorted(depths):
        span = spanning_separated(sys, n, p)
        if span.positions is None:
            raise ValueError("cover construction needs materialized witnesses")
        levels[n] = span.grid_level
        entries.extend((pos, n, p) for pos in span.positions)
    return NullSCover(sys, exponent, tuple(entries), levels)


@dataclass(frozen=True)
class CoverReport:
    weight: float
    weight_ok: bool
    covered: Dict[int, int]  # k -> sample points covered by depth >= k
    unknown: Dict[int, int]
    samples: int

    @property
    def all_covered(self) -> bool:
        return all(self.covered[k] == self.samples for k in self.covered)


def verify_null_s_cover(
    cover: NullSCover,
    sample_points: Sequence[Point],
    k_max: int,
    weight_cap: float,
) -> CoverReport:
    """Check the truncated weight and the depth-k cover property.

    Membership of a sample in a listed Bowen ball is decided exactly on
    the sample's grid Bowen ball from `dynamics.grid_balls`
    (`_point_in_some_ball`), so every sample must be a rational point of
    the doubling map: any other raises `SpaceMismatch`.  `unknown[k]` is
    the number of samples that no ball covers at depth k.
    """
    sys = cover.system
    weight = cover.truncated_weight()
    by_group: Dict[Tuple[int, int], List] = {}
    for pos, n, p in cover.entries:
        by_group.setdefault((n, p), []).append(pos)
    groups = {key: sorted(positions) for key, positions in by_group.items()}
    # membership in a group's balls does not depend on k: a sample is
    # covered at depth >= k iff k <= the deepest group holding it
    deepest = []
    if k_max >= 1:
        order = sorted(groups, reverse=True)
        for x in sample_points:
            depth = 0
            for n, p in order:
                if _point_in_some_ball(sys, x, groups[(n, p)], n, p, cover.grid_levels[n]):
                    depth = n
                    break
            deepest.append(depth)
    covered = {}
    unknown = {}
    for k in range(1, k_max + 1):
        hits = sum(1 for depth in deepest if depth >= k)
        covered[k] = hits
        unknown[k] = len(sample_points) - hits
    return CoverReport(weight, weight <= weight_cap, covered, unknown, len(sample_points))


def _point_in_some_ball(sys, x: Point, positions, n: int, p: int, g: int) -> bool:
    """Is d_n(x, pos / 2**g) < 2**-p for some listed grid position?

    The sample a/b and the positions are points of the grid b * 2**g,
    which doubling maps into itself.  There d_n < 2**-p is the closed
    grid ball of radius b * 2**(g-p) - 1, and a position pos is the grid
    point pos * b.
    """
    if sys.map_kind is not dy.MapKind.DOUBLING or not isinstance(x.exact, F):
        raise SpaceMismatch("cover verification implemented for doubling samples")
    b = x.exact.denominator
    a = x.exact.numerator % b  # doubling identifies 1 with 0
    ball = dy.grid_balls(sys.map_kind, b << g, n, (b << (g - p)) - 1)
    for lo, hi in ball(a << g):
        i = bisect.bisect_left(positions, -(-lo // b))
        if i < len(positions) and positions[i] * b <= hi:
            return True
    return False
