"""Entropy and orbit-information estimators.

Five estimator families:

* block_entropy: exact Shannon block entropies H(xi_n) of the coded
  process, by backward region pullback (interval maps, shifts) or by the
  boundary-orbit gap structure (rotations); the rate is the conditional
  entropy H(xi_n) - H(xi_{n-1}).
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
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    # cylinder masses repeat heavily (all 2**-n under Lebesgue doubling,
    # three gap lengths for a rotation), so each distinct term is computed
    # once; the sum keeps its order, hence its rounding (adding 0.0 for a
    # null mass leaves it unchanged)
    total = 0.0
    terms: Dict[Fraction, float] = {}
    for mass in masses:
        term = terms.get(mass)
        if term is None:
            term = terms[mass] = float(mass) * neg_log2(mass) if mass > 0 else 0.0
        total += term
    return total


def _rotation_gap_entropies(sys: dy.System, partition, ns: Sequence[int]) -> Dict[int, float]:
    """H(xi_n) for circle rotations from the boundary-orbit gap structure.

    The join of the first n coded partitions cuts the circle exactly at
    the backward angle-orbit of the atom endpoints; cylinder masses are
    the gaps between consecutive cut points.
    """
    if isinstance(sys.angle, F):
        alpha = sys.angle
    else:
        # 80 fractional bits: gap perturbations are far below the minimal
        # three-gap scale at desk-size n
        box = sys.angle.enclosure(80)
        alpha = box.midpoint
    cuts = [F(e) for e in partition.boundary_points]
    out = {}
    n_max = max(ns)
    points = set()
    shift = F(0)
    wanted = set(ns)
    for j in range(n_max):
        for e in cuts:
            q = e - shift
            points.add(q - (q.numerator // q.denominator))
        shift += alpha
        n = j + 1
        if n in wanted:
            ordered = sorted(points)
            gaps = [b - a for a, b in zip(ordered, ordered[1:])]
            gaps.append(1 - ordered[-1] + ordered[0])
            out[n] = _entropy_bits(g for g in gaps if g > 0)
    return out


def _pullback_level_entropies(sys, mu, partition, ns: Sequence[int]) -> Dict[int, float]:
    """H(xi_n) by suffix pullback: level d holds every positive-mass
    length-d cylinder as an exact region."""
    n_max = max(ns)
    wanted = set(ns)
    out = {}
    if sys.map_kind is dy.MapKind.SHIFT:
        level = [tuple(atom[0]) for atom in partition.atoms]
        if any(len(atom) != 1 for atom in partition.atoms):
            raise OracleUnavailable("shift entropy needs single-cylinder atoms")
        masses = [mu.word_measure(w) for w in level]
        depth = 1
        while True:
            if depth in wanted:
                out[depth] = _entropy_bits(masses)
            if depth == n_max:
                return out
            new_level, new_masses = [], []
            for word in level:
                for atom in partition.atoms:
                    cyl = atom[0]
                    # prepend: constraint = atom word at 0.., old word at 1..
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
            depth += 1
    # doubling and tent: regions as integer pieces over D * 2**(depth-1)
    den, atoms = sb.integer_atoms(partition)
    level = []
    for atom in atoms:
        mass = sb.interval_mass(mu, atom, den)
        if mass > 0:
            level.append((atom, mass))
    depth = 1
    while True:
        if depth in wanted:
            out[depth] = _entropy_bits(m for _, m in level)
        if depth == n_max:
            return out
        scaled = [[(a << depth, b << depth) for a, b in atom] for atom in atoms]
        new_level = []
        for region, _ in level:
            for pieces in sb.pull_back_into(sys.map_kind, region, den, scaled):
                if pieces:
                    mass = sb.interval_mass(mu, pieces, 2 * den)
                    if mass > 0:
                        new_level.append((pieces, mass))
        level = new_level
        den *= 2
        depth += 1


def block_entropy(
    sys: dy.System,
    mu: ComputableMeasure,
    partition,
    n_max: int,
    ns: Optional[Sequence[int]] = None,
) -> EntropyReport:
    """Exact block entropies and the conditional-entropy rate estimate."""
    if ns is None:
        if n_max <= 32:
            ns = list(range(1, n_max + 1))
        else:
            ns = sorted({1 << j for j in range((n_max).bit_length())} | {n_max - 1, n_max})
            ns = [n for n in ns if n <= n_max]
    if sys.map_kind is dy.MapKind.ROTATION:
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
    compressor: Optional[PrefixFreeCompressor] = None,
) -> EntropyReport:
    """Compressed bits per step of the coded orbit, over the n-grid.

    The orbit is coded once at the largest n; a truncation at the first
    Unknown symbol is reported and the grid restricted accordingly.
    """
    n_grid = sorted(n_grid)
    n_max = n_grid[-1]
    compressor = compressor or PrefixFreeCompressor(partition.alphabet)
    word = sb.code_orbit(sys, x, partition, n_max)
    usable = word.known_prefix
    diag = {}
    if word.truncated:
        diag["truncated_at"] = len(usable)
    grid = [n for n in n_grid if n <= len(usable)]
    if not grid:
        raise sb.UnsupportedCylinder("orbit coding unresolved before the first grid point")
    rows = tuple(
        ("bits_per_step", n, compressor.bits_len(usable[:n]) / n) for n in grid
    )
    values = [v for _, _, v in rows]
    rate = limsup_proxy(values)
    diag["liminf"] = liminf_proxy(values)
    return EntropyReport("symbol-rate", sys.name, rows, rate, diag)


# ---------------------------------------------------------------------------
# Pseudo-orbit (grid-coded) information rate
# ---------------------------------------------------------------------------


def _quantize_orbit(sys: dy.System, x: Point, n: int, p: int) -> List[int]:
    """Grid indices of spacing 2**-p following the orbit within 2**-p."""
    seg = dy.iterate(sys, x, n, p + 3)
    cells = 1 << p
    out = []
    if sys.space.kind is Kind.CANTOR:
        for word in seg.enclosures:
            value = 0
            for j in range(p + 1):
                value = value * sys.space.alphabet + (word[j] if j < len(word) else 0)
            out.append(value)
        return out
    for box in seg.enclosures:
        mid = box.midpoint
        index = (mid.numerator * cells) // mid.denominator
        out.append(index % cells if sys.space.kind is Kind.CIRCLE else min(max(index, 0), cells - 1))
    return out


_PREDICTOR_FAMILY = (0, 1, 2, 3, 4)


def _zigzag(v: int) -> int:
    return 2 * v if v >= 0 else -2 * v - 1


def pseudo_orbit_code_bits(
    indices: Sequence[int], modulus: int, compressor: PrefixFreeCompressor
) -> int:
    """Self-delimiting code length for a grid pseudo-orbit.

    Format: predictor coefficient c (from a fixed small family), the
    centered residual offset and bit-width, the first index, then the
    residuals (i_{j+1} - c*i_j, centered and offset) packed at that width
    and compressed.  Plain differences are c = 1; expanding maps get their
    step structure exposed by c = 2, 3, ...; the best coefficient is the
    one minimizing the total, ties to the smallest.
    """
    from effdyn.coding import elias_len, phased_len

    best = None
    half = modulus // 2
    first_cost = phased_len(indices[0] % modulus, modulus)
    for ci, c in enumerate(_PREDICTOR_FAMILY):
        residuals = [
            ((b - c * a + half) % modulus) - half for a, b in zip(indices, indices[1:])
        ]
        cost = elias_len(ci + 1) + first_cost
        if residuals:
            offset = min(residuals)
            spread = max(residuals) - offset
            width = spread.bit_length()
            cost += elias_len(_zigzag(offset) + 1) + elias_len(width + 1)
            bits: List[int] = []
            for r in residuals:
                v = r - offset
                for j in range(width - 1, -1, -1):
                    bits.append((v >> j) & 1)
            cost += compressor.bits_len(tuple(bits))
        if best is None or cost < best:
            best = cost
    return best


def orbit_rate(
    sys: dy.System,
    x: Point,
    scale_exponents: Sequence[int],
    n_grid: Sequence[int],
    compressor: Optional[PrefixFreeCompressor] = None,
) -> EntropyReport:
    """Information rate of grid-quantized pseudo-orbits, per scale.

    For each scale 2**-p the orbit is quantized once at the largest n and
    every grid prefix is coded standalone; bits/n per (scale, n) fill the
    report.  The headline rate is the upper proxy at the finest scale;
    diagnostics carry per-scale upper/lower proxies for the scale trend.
    """
    compressor = compressor or PrefixFreeCompressor(2)
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
        values = []
        for n in n_grid:
            bits = pseudo_orbit_code_bits(indices[:n], modulus, compressor)
            value = bits / n
            values.append(value)
            rows.append((f"eps=2^-{p}", n, value))
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


# Version of spanning_separated's counts, for stored counts to key on;
# bump it whenever a change alters any count.
SPANNING_VERSION = 1


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

    def ideal_indices(self) -> Tuple[int, ...]:
        if self.positions is None:
            raise ValueError("positions not materialized")
        space = self.system.space
        if space.kind is Kind.CANTOR:
            return tuple(space.encode_word(w) for w in self.positions)
        cells = 1 << self.grid_level
        return tuple(space.encode_dyadic(F(i, cells)) for i in self.positions)


def _doubling_reject_set(g: int, n: int, p: int) -> List[int]:
    """Wrap-metric Bowen ball of 0 on the 2**g grid: all offsets whose
    first n doublings stay within 2**(g-p-1) of 0 (mod wrap).  A superset
    filter for the interval-metric rejection test."""
    size = 1 << g
    threshold = 1 << (g - p - 1)
    out = []
    for delta in range(-threshold, threshold + 1):
        value = delta % size
        ok = True
        v = value
        for _ in range(n):
            wrapped = min(v, size - v)
            if wrapped > threshold:
                ok = False
                break
            v = (v << 1) % size
        if ok:
            out.append(value)
    return out


def _doubling_dn_leq(a: int, b: int, g: int, n: int, threshold: int) -> bool:
    """Exact interval-metric d_n comparison on the 2**g doubling grid.

    While |x - y| <= threshold <= 2**g / 4, a doubling takes the gap to
    2(x - y) if x and y lie in the same half, and beyond the threshold if
    not.  So for 1 <= n <= g, d_n <= threshold iff a and b share their top
    n-1 bits and |a - b| * 2**(n-1) <= threshold.
    """
    size = 1 << g
    if threshold << 2 <= size and 1 <= n <= g:
        shift = g - n + 1
        return a >> shift == b >> shift and abs(a - b) << (n - 1) <= threshold
    x, y = a, b
    for _ in range(n):
        if abs(x - y) > threshold:
            return False
        x = (x << 1) % size
        y = (y << 1) % size
    return True


def spanning_separated(
    sys: dy.System, n: int, p: int, member_cap: int = 1 << 17
) -> SpanningSet:
    """Greedy scan over ideal points of resolution p+n+2: keep a point iff
    its d_n distance to every kept point exceeds 2**-(p+1).

    Kept points are (n, 2**-p-2)-separated (their pairwise d_n even
    exceeds 2**-p-1) and (n, 2**-p)-spanning: a rejected grid point is
    2**-p-1-close to a kept one and an arbitrary point is grid-close to
    its nearest grid point even through n expansions.
    """
    g = p + n + 2
    if sys.map_kind is dy.MapKind.ROTATION:
        size = 1 << g
        threshold = 1 << (g - p - 1)
        positions = list(range(0, size, threshold + 1))
        while positions and min(positions[-1], size - positions[-1]) <= threshold:
            positions.pop()
        if not positions:
            positions = [0]
        return SpanningSet(sys, n, p, len(positions), g, tuple(positions))
    if sys.map_kind is dy.MapKind.DOUBLING:
        size = 1 << g
        threshold = 1 << (g - p - 1)
        reject = _doubling_reject_set(g, n, p)
        # each kept point marks the later points of its ball when it is
        # kept, so the scan reaches every grid point with its verdict set
        rejected = bytearray(size)
        positions = []
        i = rejected.find(0)
        while i >= 0:
            positions.append(i)
            for delta in reject:
                j = (i + delta) % size
                if j > i and not rejected[j] and _doubling_dn_leq(j, i, g, n, threshold):
                    rejected[j] = 1
            i = rejected.find(0, i + 1)
        keep = tuple(positions) if len(positions) <= member_cap else None
        return SpanningSet(sys, n, p, len(positions), g, keep)
    if sys.map_kind is dy.MapKind.SHIFT:
        k = sys.space.alphabet
        length = n + p
        count = k**length
        if count <= member_cap:
            words = []
            for value in range(count):
                w = []
                v = value
                for _ in range(length):
                    w.append(v % k)
                    v //= k
                words.append(tuple(reversed(w)))
            return SpanningSet(sys, n, p, count, length, tuple(words))
        return SpanningSet(sys, n, p, count, length, None)
    if sys.map_kind is dy.MapKind.TENT:
        return _spanning_window_scan(sys, n, p, member_cap)
    raise SpaceMismatch(f"no spanning construction for {sys.map_kind}")


def _spanning_window_scan(sys: dy.System, n: int, p: int, member_cap: int) -> SpanningSet:
    """Greedy scan on integer orbits over the 2**g grid.

    A kept point more than `threshold` below i already fails d_n at step
    0, so only the kept points in [i - threshold, i) are compared, newest
    first.  Doubling keeps its reject-set scan instead: doubling commutes
    with translation mod 1, so the offsets that stay close form one small
    fixed set, while a kept point here must be compared with every kept
    point of its window.
    """
    g = p + n + 2
    if g > 16:
        raise dy.PrecisionBlowup("tent spanning scan capped at grid 2**16")
    cells = 1 << g
    threshold = 1 << (g - p - 1)
    if n < 1:
        return SpanningSet(sys, n, p, 1, g, (0,))  # d_0 has no steps: one ball
    positions: List[int] = []
    orbits: List[List[int]] = []
    for i in range(cells):
        orbit = dy.grid_orbit(sys.map_kind, i, cells, n)
        close = False
        for k in range(len(positions) - 1, -1, -1):
            if i - positions[k] > threshold:
                break
            if all(abs(a - b) <= threshold for a, b in zip(orbit, orbits[k])):
                close = True
                break
        if not close:
            positions.append(i)
            orbits.append(orbit)
    keep = tuple(positions) if len(positions) <= member_cap else None
    return SpanningSet(sys, n, p, len(positions), g, keep)


def verify_separated(span: SpanningSet, pair_cap: int = 200_000) -> bool:
    """Exact check that all pairs have d_n > 2**-(p+2); quadratic, so the
    caller should pass desk-size witnesses."""
    sys = span.system
    if span.positions is None:
        raise ValueError("positions not materialized")
    pts = span.positions
    if len(pts) * (len(pts) - 1) // 2 > pair_cap:
        raise ValueError("witness too large for exhaustive verification")
    if sys.map_kind is dy.MapKind.SHIFT:
        bound = F(1, 1 << (span.p + 2))
        for i, u in enumerate(pts):
            for v in pts[i + 1 :]:
                t = next((j for j in range(min(len(u), len(v))) if u[j] != v[j]), None)
                if t is None:
                    return False
                dn = F(1, 1 << max(t - span.n + 1, 0))
                if dn <= bound:
                    return False
        return True
    # grid units: d <= 2**-(p+2) iff d * 2**g <= floor(2**g / 2**(p+2))
    cells = 1 << span.grid_level
    bound = cells >> (span.p + 2)
    if sys.map_kind is dy.MapKind.ROTATION:
        for i, u in enumerate(pts):
            for v in pts[i + 1 :]:
                m = abs(u - v)
                if min(m, cells - m) <= bound:
                    return False
        return True
    orbits = [dy.grid_orbit(sys.map_kind, i, cells, span.n) for i in pts]
    for i, u in enumerate(orbits):
        for v in orbits[i + 1 :]:
            if all(abs(a - b) <= bound for a, b in zip(u, v)):
                return False
    return True


def h1_estimate(
    sys: dy.System,
    p_grid: Sequence[int],
    n_grid: Sequence[int],
    count: Optional[Callable[[int, int], int]] = None,
) -> EntropyReport:
    """Capacity slope: least-squares fit of log2 |S(n, p)| against n, per
    scale; the headline value is the slope at the finest scale.

    count(n, p) supplies |S(n, p)|, by default from spanning_separated; a
    caller with stored counts passes its own.
    """
    if count is None:
        count = lambda n, p: spanning_separated(sys, n, p).count
    rows = []
    slopes = {}
    for p in sorted(p_grid):
        ns, logs = [], []
        for n in sorted(n_grid):
            value = math.log2(count(n, p))
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

    Membership of a sample in a listed Bowen ball is certified through
    exact orbits (rational points) or enclosure comparisons; inconclusive
    scans count as Unknown, never as failure.
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
        unknown[k] = 0 if hits == len(sample_points) else len(sample_points) - hits
    return CoverReport(weight, weight <= weight_cap, covered, unknown, len(sample_points))


def _point_in_some_ball(sys, x: Point, positions, n: int, p: int, g: int) -> bool:
    """Is d_n(x, pos / 2**g) < 2**-p for some listed grid position?

    The sample a/b and the positions are compared as numerators over the
    common denominator b * 2**g, where doubling stays exact.
    """
    if sys.map_kind is not dy.MapKind.DOUBLING or not isinstance(x.exact, F):
        raise SpaceMismatch("cover verification implemented for doubling samples")
    cells = 1 << g
    b = x.exact.denominator
    a = x.exact.numerator % b  # doubling identifies 1 with 0
    den = b * cells
    orbit = dy.grid_orbit(sys.map_kind, a * cells, den, n)
    window = (1 << (g - p)) + 2
    anchor = (a * cells) // b
    lo = bisect.bisect_left(positions, anchor - window)
    hi = bisect.bisect_right(positions, anchor + window)
    for pos in positions[lo:hi]:
        v = pos * b % den
        for u in orbit:
            if abs(u - v) << p >= den:  # |u - v| / den >= 2**-p
                break
            v = (v << 1) % den
        else:
            return True
    return False
