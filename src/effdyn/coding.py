"""Prefix-free codes and the compression proxy for algorithmic information.

All code lengths are in bits, logs are base 2, and every encoder here is
self-delimiting: within one family no codeword is a prefix of another, so
Kraft sums stay below one and concatenations decode unambiguously.

The default word compressor hedges between three models behind a short
selector, the way block compressors switch between stored, static and
dynamic blocks:

* an enumerative branch: symbol counts followed by the exact
  combinatorial rank of the word within its type class, which costs the
  empirical entropy plus a few bits and so stays within a hair of n bits
  on incompressible words, where dictionary codes pay a visible premium.
  Its rank and unrank walks move by blocks of positions while the class
  size is wide, one wide division per block, and the unrank checks each
  block it guesses from the rank's top bits.  A wide class size is built
  from its prime exponents (Legendre's formula) rather than by math.comb;
* a dictionary branch: Welch-style LZ78 parse (dictionary seeded with
  the alphabet, one index per phrase, no explicit literals), with indices
  economy-coded behind a two-entry cache of recent back-reference
  distances, so constant and periodic inputs settle into two bits per
  growing phrase.  One loop over an integer-keyed trie parses, costs
  and collects the indices;
* a copy branch: LZ77 tokens (literal, or copy at delta-coded offset and
  length, overlap allowed), which captures long-range recurrence: words
  with slowly growing factor complexity collapse to a handful of copies.
  Its greedy parse finds each earliest longest match by bit-parallel
  shift-and steps on per-symbol history masks.

The emitted stream is elias_delta(length+1), an economy-coded selector,
then the shortest payload.  Costing is one fold per branch over a sorted
list of prefix ends, each with an optional budget: `prefix_bits_len`
gives bits_len(word[:m]) for every end from the enumerative length
taken per prefix, then one lz78 parse and one lz77 parse, each budgeted
by the branches costed before it, and `bits_len` is its one-end case.
A budgeted cost is exact below its budget and a lower bound at least
the budget otherwise; the enumerative branch skips its class sizes once
a certified binomial lower bound reaches the budget.  `encode` emits
from the class sizes, lz78 indices or lz77 tokens that its costing
computed.  The rate estimators read every grid prefix of a word from
one such fold.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from effdyn.numerics import log2_fixed

F = Fraction

# a checked word is bytes on alphabets of at most 256 symbols, else a tuple;
# decoders return tuples
Word = Sequence[int]


class UnknownSymbol(ValueError):
    """Word contains an unresolved symbol and cannot be encoded."""


class CodeError(ValueError):
    """Bit stream does not decode under this family."""


_BYTES = bytes(range(256))


def _check_word(word: Sequence[int], alphabet: int) -> Word:
    """The word, once every symbol is known to lie in range(alphabet).

    On alphabets of at most 256 symbols an accepted word comes back as
    bytes, the form every kernel reads fastest, and a bytes word passes
    after one translate; otherwise, and when bytes() refuses a symbol
    (None, floats, values past 255), the symbols are checked one by one
    and the word comes back as a tuple, the first offending symbol named.
    """
    w = word if isinstance(word, bytes) else tuple(word)
    try:  # bytes() raises on None and on values outside 0..255
        if 0 <= alphabet <= 256 and not (b := bytes(w)).translate(None, _BYTES[:alphabet]):
            return b
    except (TypeError, ValueError):
        pass
    w = tuple(w)
    if None in w or w and not (0 <= min(w) and max(w) < alphabet):
        for c in w:  # name the first offending symbol
            if c is None:
                raise UnknownSymbol("word contains an unresolved symbol")
            if not 0 <= c < alphabet:
                raise ValueError(f"symbol {c} outside alphabet of size {alphabet}")
    return w


# ---------------------------------------------------------------------------
# Elias gamma / delta
# ---------------------------------------------------------------------------


def elias_gamma(n: int) -> str:
    if n < 1:
        raise ValueError("gamma code needs n >= 1")
    binary = bin(n)[2:]
    return "0" * (len(binary) - 1) + binary


def elias_gamma_len(n: int) -> int:
    return 2 * (n.bit_length() - 1) + 1


def elias_gamma_decode(bits: str, pos: int = 0) -> Tuple[int, int]:
    zeros = 0
    while pos + zeros < len(bits) and bits[pos + zeros] == "0":
        zeros += 1
    end = pos + 2 * zeros + 1
    if end > len(bits):
        raise CodeError("truncated gamma code")
    return int(bits[pos + zeros : end], 2), end


def elias_encode(n: int) -> str:
    """Elias delta code: |code| <= J(log2 n) + 1, prefix-free over n >= 1."""
    if n < 1:
        raise ValueError("delta code needs n >= 1")
    binary = bin(n)[2:]
    return elias_gamma(len(binary)) + binary[1:]


def elias_len(n: int) -> int:
    nbits = n.bit_length()
    return elias_gamma_len(nbits) + nbits - 1


def elias_decode(bits: str, pos: int = 0) -> Tuple[int, int]:
    nbits, pos = elias_gamma_decode(bits, pos)
    end = pos + nbits - 1
    if end > len(bits):
        raise CodeError("truncated delta code")
    return int("1" + bits[pos:end], 2), end


# ---------------------------------------------------------------------------
# Economy (phased-in) code for a value with a known range
# ---------------------------------------------------------------------------


def phased_len(value: int, size: int) -> int:
    if size <= 1:
        return 0
    k = (size - 1).bit_length()
    short = (1 << k) - size
    return k - 1 if value < short else k


def phased_encode(value: int, size: int) -> str:
    if not 0 <= value < size:
        raise ValueError(f"value {value} outside range {size}")
    if size <= 1:
        return ""
    k = (size - 1).bit_length()
    short = (1 << k) - size
    if value < short:
        return format(value, f"0{k - 1}b") if k > 1 else ""
    return format(value + short, f"0{k}b")


def phased_decode(bits: str, pos: int, size: int) -> Tuple[int, int]:
    if size <= 1:
        return 0, pos
    k = (size - 1).bit_length()
    short = (1 << k) - size
    head = bits[pos : pos + k - 1]
    if len(head) < k - 1:
        raise CodeError("truncated economy code")
    value = int(head, 2) if head else 0
    if value < short:
        return value, pos + k - 1
    if pos + k > len(bits):
        raise CodeError("truncated economy code")
    return int(bits[pos : pos + k], 2) - short, pos + k


# ---------------------------------------------------------------------------
# LZ branch
# ---------------------------------------------------------------------------


class _DiffCache:
    """Two most recent distinct back-reference distances.

    A hit on the first entry is coded "10", on the second "11" (which then
    moves to front); a miss is the escape bit "0" plus the index.
    """

    __slots__ = ("first", "second")

    def __init__(self):
        self.first = 0
        self.second = 1

    def update(self, diff: int) -> int:
        """Slot of `diff` (0 first, 1 second, 2 miss), moved to front."""
        if diff == self.first:
            return 0
        if diff == self.second:
            self.first, self.second = self.second, self.first
            return 1
        self.first, self.second = diff, self.first
        return 2

    def read(self, bits: str, pos: int, size: int) -> Tuple[int, int]:
        if pos >= len(bits):
            raise CodeError("truncated token")
        if bits[pos] == "1":
            if pos + 1 >= len(bits):
                raise CodeError("truncated cache flag")
            diff = self.second if bits[pos + 1] == "1" else self.first
            self.update(diff)
            index = (size - 1) - diff
            if index < 0:
                raise CodeError("cache distance outside the dictionary")
            return index, pos + 2
        index, pos = phased_decode(bits, pos + 1, size)
        self.first, self.second = (size - 1) - index, self.first
        return index, pos


def _lz_costs(
    word: Word, alphabet: int, ends: Sequence[int], budgets: Sequence, indices: Optional[list] = None
) -> List[int]:
    """Payload length of word[:m] for each sorted end m, from one parse: the
    phrases closed before m, plus the one open at m costed from the cache
    without updating it.  The trie keys node's child under c by
    (node + 1) * alphabet + c, the root being -1.  The fold stops once the
    closed phrases reach every budget left, so a cost is exact below its
    budget and otherwise a lower bound at least the budget.  `indices`, if
    given, receives every phrase index folded, and the one open at the
    last end when the fold gets there."""
    limits = _suffix_max(budgets)
    limit = limits[0]
    costs: List[int] = []
    total = 0
    trie = {c: c for c in range(alphabet)}
    node = -1
    size = alphabet
    width = (size - 1).bit_length()
    short = (1 << width) - size
    first, second = 0, 1
    start = 0
    for end in ends:
        for c in word[start:end]:
            key = (node + 1) * alphabet + c
            child = trie.get(key)
            if child is not None:
                node = child
                continue
            diff = (size - 1) - node
            if diff == first:
                total += 2
            elif diff == second:
                total += 2
                first, second = second, first
            else:
                total += width if node < short else width + 1
                first, second = diff, first
            if indices is not None:
                indices.append(node)
            trie[key] = size
            size += 1
            short -= 1
            if short < 0:  # size - 1 reached a power of two
                short += 1 << width
                width += 1
            node = c
            if total >= limit:
                return costs + [total] * (len(ends) - len(costs))
        start = end
        if node < 0:  # the empty prefix
            costs.append(0)
        elif (size - 1) - node in (first, second):
            costs.append(total + 2)
        else:
            costs.append(total + (width if node < short else width + 1))
        limit = limits[len(costs)]
    if indices is not None and node >= 0:
        indices.append(node)
    return costs


def _lz_payload(word: Word, alphabet: int, indices: Optional[Sequence[int]] = None) -> str:
    """Payload from the word's phrase indices, parsed here unless given."""
    if indices is None:
        indices = []
        _lz_costs(word, alphabet, (len(word),), (math.inf,), indices)
    parts = []
    cache = _DiffCache()
    for size, index in enumerate(indices, alphabet):
        slot = cache.update((size - 1) - index)
        parts.append("0" + phased_encode(index, size) if slot == 2 else ("10", "11")[slot])
    return "".join(parts)


def _suffix_max(budgets: Sequence) -> list:
    """limits[i] = max(budgets[i:]): a fold may stop once its total reaches
    limits[i], i ends being costed.  Past the last end nothing is left to
    cost, so every total reaches the limit there."""
    return list(itertools.accumulate(reversed(budgets), max))[::-1] + [-math.inf]


def _lz_decode_payload(bits: str, pos: int, n: int, alphabet: int) -> Tuple[Word, int]:
    words: List[Word] = [(c,) for c in range(alphabet)]
    out: List[int] = []
    cache = _DiffCache()
    prev: Optional[Word] = None
    t = 1
    while len(out) < n:
        size = alphabet + t - 1
        index, pos = cache.read(bits, pos, size)
        if index < len(words):
            phrase = words[index]
        elif index == len(words) and prev is not None:
            phrase = prev + (prev[0],)
        else:
            raise CodeError(f"dictionary index {index} out of range")
        if len(out) + len(phrase) > n:
            raise CodeError("phrase overruns the declared length")
        out.extend(phrase)
        if prev is not None:
            words.append(prev + (phrase[0],))
        prev = phrase
        t += 1
    return tuple(out), pos


# ---------------------------------------------------------------------------
# Enumerative branch: counts, then layered combinadic ranks
# ---------------------------------------------------------------------------
#
# Layer j (j = k-1 .. 1) is the subsequence of symbols <= j, with a one
# where the symbol equals j; it has length m_j = counts[0] + ... +
# counts[j] and r_j = counts[j] ones.  With ones at 0-based layer
# positions p_1 < ... < p_r its rank sum C(p_t, t) is a bijection onto
# [0, C(m_j, r_j)) (the combinatorial number system), coded economy-style
# in that range.
#
# Both walks keep c = C(p, t) for the t ones left in the p positions left.
# While c is narrow they step one position at a time, one small multiply
# and one floor-divide of c each; while it is wide they move by blocks of
# _BLOCK positions, whose small-integer products (`_block`) leave one wide
# division per block.  The unrank guesses each block's bits in floats and
# keeps the guess only when the exact block products confirm it.


# Layer positions per block of the wide walks.  The wide division and
# products cost about 1.7, 1.4 and 1.25 us per position at 16 Kbit for
# blocks of 16, 32 and 64, against 4.7 us for one per-position step, but a
# guess spends about a bit of its 53-bit float per position of a uniform
# layer: at 64 the guesses failed and a uniform 2**14 unrank took 74 ms,
# against 54 ms per position (CPython 3.11, 2-vCPU VM).
_BLOCK = 32
# Class sizes of at most this many bits take the per-position step.  At
# 2 Kbit 32 steps take 24 us, a rank block 15 us and an unrank block
# (guess, kernel, check) 20 us; at 1 Kbit the steps take 11.5 us and an
# unrank block 14 us (same host).
_NARROW_BITS = 2048


def _block(bits: Iterable[int], p: int, t: int) -> Tuple[int, int, int, int, int]:
    """(P, Q, S, p', t') for a block of layer bits, top position first,
    entered with t ones left in p positions.

    With c = C(p, t), c*P/Q = C(p', t') at the block's end and c*S/Q is
    the sum of the block's rank terms; both are exact integer quotients,
    since every partial product c*P_i/Q_i is a binomial.  The factors are
    small (Q is the product of the block's p's), so a wide c pays one
    division per block instead of one per position.
    """
    P = Q = 1
    S = 0
    z = p - t
    for bit in bits:
        if bit:
            S = S * p + P * z
            P *= t
            t -= 1
        else:
            S *= p
            P *= z
            z -= 1
        Q *= p
        p -= 1
    return P, Q, S, p, t


def _decided(s: int, c: int, cut: Optional[int]) -> bool:
    """Whether [s, s + c), which holds the rank, lies on one side of cut."""
    return cut is not None and (s >= cut or s + c <= cut)


def _rank_steps(symbols, j: int, s: int, c: int, p: int, t: int, cut: Optional[int]):
    """The per-position rank walk over `symbols`, top first, from partial
    sum s and c = C(p, t); stops when no one is left or the cut is
    decided, and returns (s, c, p, t)."""
    for symbol in symbols:
        if symbol > j:
            continue
        if symbol == j:
            below = c * t // p
            s += c - below
            c = below
            t -= 1
            p -= 1
            if t == 0 or cut is not None and (s >= cut or s + c <= cut):
                break
        else:
            c = c * (p - t) // p
            p -= 1
    return s, c, p, t


def _layer_rank(word: Word, j: int, size: int, m: int, r: int, cut: Optional[int] = None) -> int:
    """Rank of layer j, summed from its top one down; size = C(m, r).

    The walk keeps c = C(p, t), the number of ways to place the t ones
    left in the p positions left, and the partial sum s.  One position at
    a time, a zero leaves C(p-1, t) = c*(p-t)/p and a one adds that term
    and leaves C(p-1, t-1) = c*t/p; while c has more than _NARROW_BITS
    bits the walk moves by whole blocks (`_block`) instead.  The ones
    below add up to less than c, so the rank lies in [s, s + c); with
    `cut` the walk stops once s >= cut or s + c <= cut and returns s: then
    s < cut exactly when the rank is.  A cut is usually decided within a
    few positions, so a cut walk steps its first _BLOCK symbols singly.
    """
    symbols = reversed(word)
    if size.bit_length() <= _NARROW_BITS:
        return _rank_steps(symbols, j, 0, size, m, r, cut)[0]
    s, c, p, t = 0, size, m, r
    if cut is not None:
        s, c, p, t = _rank_steps(itertools.islice(symbols, _BLOCK), j, s, c, p, t, cut)
        if t == 0 or _decided(s, c, cut):
            return s
    layer = (symbol == j for symbol in symbols if symbol <= j)
    while t and c.bit_length() > _NARROW_BITS and not _decided(s, c, cut):
        P, Q, S, p, t = _block(itertools.islice(layer, _BLOCK), p, t)
        a, b = divmod(c, Q)
        s += a * S + b * S // Q
        c = a * P + b * P // Q
    if t and not _decided(s, c, cut):
        s = _rank_steps(symbols, j, s, c, p, t, cut)[0]
    return s


def _guess_block(f: float, p: int, t: int, n: int) -> List[bool]:
    """The bits of the next n layer positions, top first, that a rank at
    fraction f of C(p, t) walks: a guess in floats, to be checked."""
    bits = []
    for p in range(p, p - n, -1):
        z = (p - t) / p
        one = f >= z and t > 0  # f may have rounded up to 1
        if one:
            f = (f - z) * p / t
            t -= 1
        else:
            f /= z
        bits.append(one)
    return bits


def _unrank_steps(positions: List[int], rank: int, c: int, p: int, t: int, stop: int):
    """Exact unrank steps from c = C(p, t), t >= 1, through the first one
    at or below position `stop` (or the last one), appending the positions
    of ones; returns (rank, c, p, t) after that one.

    The walk keeps z = C(q, t), the term a one at position q adds: a zero
    there leaves C(q-1, t) = z*(q-t)/q, a one C(q-1, t-1) = z*t/q.
    """
    z = c * (p - t) // p
    q = p - 1
    while True:
        while z > rank:
            z = z * (q - t) // q
            q -= 1
        rank -= z
        positions.append(q)
        if t == 1 or q <= stop:  # C(q, t-1) = z*t/(q-t+1), or 1 when q = t-1
            return rank, z * t // (q - t + 1) if z else 1, q, t - 1
        z = z * t // q
        q -= 1
        t -= 1


def _combinadic_unrank(rank: int, m: int, r: int, size: int) -> List[int]:
    """Positions of the r ones, from rank in [0, size), size = C(m, r).

    The mirror of `_layer_rank`: with c = C(p, t), the next position holds
    a one when the rank left is at least C(p-1, t) = c*(p-t)/p.  While c is
    wide, each block's bits are guessed from the top bits of rank/c and
    accepted only if 0 <= rank - c*S/Q < c*P/Q: the block's patterns tile
    [0, c), so this holds for the true pattern alone.  After a rejected
    guess, exact steps decode down to the first one at or below the
    block's last position.
    """
    if not 0 <= rank < size:
        raise CodeError("combinadic rank out of range")
    positions: List[int] = []
    p, t, c = m, r, size
    while t and c.bit_length() > _NARROW_BITS:  # so p > _NARROW_BITS > _BLOCK
        shift = c.bit_length() - 64  # more top bits than a float keeps
        bits = _guess_block((rank >> shift) / (c >> shift), p, t, _BLOCK)
        P, Q, S, _, _ = _block(bits, p, t)
        a, b = divmod(c, Q)
        low = a * S + b * S // Q
        if low <= rank < low + (width := a * P + b * P // Q):
            positions.extend(p - 1 - i for i, one in enumerate(bits) if one)
            rank -= low
            c = width
            p -= _BLOCK
            t -= sum(bits)
        else:
            rank, c, p, t = _unrank_steps(positions, rank, c, p, t, p - _BLOCK)
    if t:
        _unrank_steps(positions, rank, c, p, t, 0)
    return positions[::-1]


def _enum_layers(word: Word, alphabet: int):
    """(j, m_j, r_j) for the layers j = k-1 .. 1, in payload order."""
    rem = len(word)
    for j in range(alphabet - 1, 0, -1):
        r = word.count(j)
        yield j, rem, r
        rem -= r


# fractional bits of the fixed-point logs in the binomial bound
_LOG_FRAC = 16


def _log2_comb_floor(m: int, r: int) -> int:
    """A certified integer lower bound on log2 C(m, r).

    With p = r/m, C(m, r) p^r (1-p)^(m-r) is the largest of the m + 1
    terms that sum to 1, so C(m, r) >= 2**(m h(p)) / (m + 1), where
    m h(p) = m log2 m - r log2 r - (m - r) log2(m - r) (the size of a
    type class, Cover & Thomas §11.1).  Each log is a `numerics.log2_fixed`
    bound in units of 2**-_LOG_FRAC, taken on the side that keeps the whole
    a lower bound, and log2(m + 1) is taken as its bit length.
    """
    if r == 0 or r == m:
        return 0
    s = m - r
    bits = (
        m * log2_fixed(m, 1, _LOG_FRAC)
        - r * log2_fixed(r, 1, _LOG_FRAC)
        - s * log2_fixed(s, 1, _LOG_FRAC)
        - 2 * m
    )
    return (bits >> _LOG_FRAC) - (m + 1).bit_length()


@functools.cache
def _primes(bits: int) -> List[int]:
    """The primes below 2**bits, from a sieve."""
    n = 1 << bits
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return list(itertools.compress(range(n), sieve))


# math.comb pays about width * r for C(m, r), with r the smaller side
# (its last wide division), and `_prime_comb` about m (one pass over the
# primes) plus its product tree, so `_class_size` takes the primes where
# width * r > m * _NARROW_BITS / 8.  Per class size (us, comb / primes):
# C(1024, 20) 0.4 / 14, C(1024, 512) 35 / 21, C(4096, 256) 16 / 36,
# C(4096, 512) 45 / 43, C(16384, 512) 54 / 96, C(16384, 1024) 196 / 163,
# C(16384, 8192) 4,940 / 243 (same host as _BLOCK); of 60 measured sizes
# up to m = 2**16 the rule picked the slower side once, by 6 us.


def _class_size(m: int, r: int) -> int:
    """C(m, r) for 0 <= r <= m: math.comb while narrow, else `_prime_comb`."""
    r = min(r, m - r)
    s = m - r
    cut = _NARROW_BITS // 8  # the width is at most m, so r <= cut alone settles it
    if r <= cut or (r * math.log2(m / r) + s * math.log2(m / s)) * r <= m * cut:
        return math.comb(m, r)
    return _prime_comb(m, r)


def _prime_comb(m: int, r: int) -> int:
    """C(m, r), exactly, for 0 <= r <= m, with no wide division.

    By Legendre's formula a prime p enters C(m, r) with exponent
    sum_k (m // p^k - r // p^k - s // p^k), s = m - r.  Above sqrt(m) only
    k = 1 counts, and the exponent is the carry m % p < r % p (at most
    one); taking r <= s, primes in (m/2, s] never enter and primes in
    (s, m] always do, once.  The factors are multiplied pairwise, as a
    product tree.
    """
    r = min(r, m - r)
    s = m - r
    primes = _primes(m.bit_length())
    root = bisect.bisect_right(primes, math.isqrt(m))
    top = max(bisect.bisect_right(primes, s), root)
    half = max(min(bisect.bisect_right(primes, m // 2), top), root)
    factors = primes[top : bisect.bisect_right(primes, m)]
    factors += [p for p in primes[root:half] if m % p < r % p]
    for p in primes[:root]:
        e, q = 0, p
        while q <= m:
            e += m // q - r // q - s // q
            q *= p
        if e:
            factors.append(p**e)
    while len(factors) > 1:
        factors = [a * b for a, b in itertools.zip_longest(factors[::2], factors[1::2], fillvalue=1)]
    return factors[0] if factors else 1


def _enum_cost(word: Word, alphabet: int, budget=math.inf, sizes: Optional[list] = None) -> int:
    """Payload length, exact below `budget` and otherwise a lower bound at
    least the budget.

    A layer's economy code takes at least ceil(log2 C(m, r)) - 1 bits, so
    the counts' length plus one bit less than each layer's binomial bound
    is a lower bound; where it can reach the budget it is taken, and once
    it does no class size is computed.  Otherwise each class size
    C(m_j, r_j) fixes the economy width k, and the one bit left, whether
    the rank is below 2^k - size, comes from a rank walk that stops once
    it is decided.  `sizes`, if given, receives the class sizes in layer
    order when they are all computed.
    """
    layers = list(_enum_layers(word, alphabet))
    total = sum(phased_len(r, m + 1) for _, m, r in layers)
    if total + sum(m for _, m, _ in layers) >= budget:  # else log2 C(m, r) <= m falls short
        bound = total + sum(max(_log2_comb_floor(m, r) - 1, 0) for _, m, r in layers)
        if bound >= budget:
            return bound
    for j, m, r in layers:
        size = _class_size(m, r)
        if sizes is not None:
            sizes.append(size)
        if size > 1:
            k = (size - 1).bit_length()
            short = (1 << k) - size
            below = short and _layer_rank(word, j, size, m, r, short) < short
            total += k - 1 if below else k
    return total


def _enum_payload(word: Word, alphabet: int, sizes: Optional[Sequence[int]] = None) -> str:
    """Counts, then each layer's rank; `sizes` are the class sizes
    C(m_j, r_j) in layer order, computed here unless given."""
    layers = list(_enum_layers(word, alphabet))
    if sizes is None:
        sizes = [_class_size(m, r) for _, m, r in layers]
    parts = [phased_encode(r, m + 1) for _, m, r in layers]
    for (j, m, r), size in zip(layers, sizes):
        parts.append(phased_encode(_layer_rank(word, j, size, m, r), size))
    return "".join(parts)


def _enum_decode_payload(bits: str, pos: int, n: int, alphabet: int) -> Tuple[Word, int]:
    counts = [0] * alphabet
    rem = n
    for j in range(alphabet - 1, 0, -1):
        counts[j], pos = phased_decode(bits, pos, rem + 1)
        rem -= counts[j]
    counts[0] = rem
    if counts[0] < 0:
        raise CodeError("counts exceed the declared length")
    # positions are filled top layer down: layer j distributes symbol j
    # over the slots not yet claimed by higher symbols
    slots = list(range(n))
    symbols = [0] * n
    for j in range(alphabet - 1, 0, -1):
        m = sum(counts[: j + 1])
        r = counts[j]
        size = _class_size(m, r)
        rank, pos = phased_decode(bits, pos, size)
        for local in _combinadic_unrank(rank, m, r, size):
            symbols[slots[local]] = j
        slots = [slot for slot in slots if not symbols[slot]]
    return tuple(symbols), pos


# ---------------------------------------------------------------------------
# Copy branch (LZ77, greedy parse on bit-parallel history masks)
# ---------------------------------------------------------------------------

_LZ77_MIN_MATCH = 3


def _add_masks(masks: list, word: Word, a: int, b: int) -> None:
    """Set bit i of masks[word[i]] for a <= i < b: one translate per symbol
    of the chunk on alphabets of at most 256 symbols, one bit at a time on
    wider ones, where most masks are sparse."""
    if len(masks) <= 256:
        chunk = bytes(word[a:b])[::-1]
        for c in set(chunk):
            masks[c] |= int(chunk.translate(b"0" * c + b"1" + b"0" * (255 - c)), 2) << a
        return
    for i in range(a, b):
        masks[word[i]] |= 1 << i


def _lz77_tokens(word: Word, alphabet: int, ends: Sequence[int]):
    """Exact-greedy parse of word[:ends[-1]], for sorted ends: (offset,
    value, cuts) per token, a copy (offset, length) or a literal
    (0, symbol).

    Longest in-history matches come from bit-parallel shift-and matching
    (Baeza-Yates & Gonnet): bit i of masks[c] is set when word[i] == c,
    and the masks grow in doubling chunks as the parse reaches them.  The
    walk at pos keeps hits, the last positions of the occurrences of
    word[pos:end] wholly inside word[:pos], steps hits = (hits << 1) &
    masks[word[end]] below bit pos until none is left, and takes the
    earliest occurrence from the lowest bit left.  Once the in-history
    match is maximal the copy may keep reading its own output
    periodically, so copies may overlap onward.  The masks hold at most
    alphabet x n bits, and a step shifts and ands pos-bit integers, so a
    parse takes time quadratic in n with a small constant.

    The parse of a prefix word[:m] shares every token that ends by m, so
    `cuts` holds, for each end m the token reaches, the tokens that finish
    the prefix's parse from the token's start: the token itself when it
    ends at m, else the copy cut at m.  Its offset is the token's unless
    the walk went past m; then the walk of the cut alone gives it.  A cut
    shorter than the minimum copy becomes literals.
    """
    n = ends[-1]
    masks = [0] * alphabet
    built = pos = e = 0
    while pos < n:
        if pos > built:
            built, a = min(n, 2 * pos), built
            _add_masks(masks, word, a, built)
        low = (1 << pos) - 1
        hits = masks[word[pos]] & low
        end = walked = pos
        if hits:
            end += 1
            while end < n:
                nxt = (hits << 1) & masks[word[end]]
                if nxt.bit_length() > pos:  # an occurrence ending at pos
                    nxt &= low
                if not nxt:
                    break
                hits = nxt
                end += 1
            src = (hits & -hits).bit_length() - (end - pos)
            walked = end
            while end < n and word[src + end - pos] == word[end]:
                end += 1
        if end - pos >= _LZ77_MIN_MATCH:
            token = (pos - src, end - pos)
        else:
            end = pos + 1
            token = (0, word[pos])
        cuts = ()
        if end >= ends[e]:
            cuts = []
            while e < len(ends) and ends[e] <= end:
                m = ends[e]
                e += 1
                if m == end:
                    cuts.append((token,))
                elif m - pos < _LZ77_MIN_MATCH:
                    cuts.append(tuple((0, word[i]) for i in range(pos, m)))
                else:
                    cut_src = src
                    if walked > m:
                        hits = masks[word[pos]] & low
                        for i in range(pos + 1, m):
                            hits = (hits << 1) & masks[word[i]] & low
                        cut_src = (hits & -hits).bit_length() - (m - pos)
                    cuts.append(((pos - cut_src, m - pos),))
        yield token[0], token[1], cuts
        pos = end


def _lz77_token_len(offset: int, value: int, alphabet: int) -> int:
    if offset:
        return 1 + elias_len(offset) + elias_len(value - _LZ77_MIN_MATCH + 1)
    return 1 + phased_len(value, alphabet)


def _lz77_costs(
    word: Word, alphabet: int, ends: Sequence[int], budgets: Sequence, tokens: Optional[list] = None
) -> List[int]:
    """Payload length of word[:m] for each end m, from one parse: the
    tokens before the one that reaches m, plus that token's cut at m.  The
    fold stops once the tokens folded reach every budget left, so a cost
    is exact below its budget and otherwise a lower bound at least the
    budget.  `tokens`, if given, receives every token folded."""
    limits = _suffix_max(budgets)
    limit = limits[0]
    costs: List[int] = []
    total = 0
    for offset, value, cuts in _lz77_tokens(word, alphabet, ends):
        if tokens is not None:
            tokens.append((offset, value))
        if cuts:
            costs.extend(total + sum(_lz77_token_len(o, v, alphabet) for o, v in cut) for cut in cuts)
            limit = limits[len(costs)]
        total += _lz77_token_len(offset, value, alphabet)
        if total >= limit:
            break
    return costs + [total] * (len(ends) - len(costs))


def _lz77_payload(word: Word, alphabet: int, tokens=None) -> str:
    """Payload from the word's tokens, parsed here unless given."""
    if tokens is None:
        tokens = [(offset, value) for offset, value, _ in _lz77_tokens(word, alphabet, (len(word),))]
    return "".join(
        "1" + elias_encode(offset) + elias_encode(value - _LZ77_MIN_MATCH + 1)
        if offset
        else "0" + phased_encode(value, alphabet)
        for offset, value in tokens
    )


def _lz77_decode_payload(bits: str, pos: int, n: int, alphabet: int) -> Tuple[Word, int]:
    out: List[int] = []
    while len(out) < n:
        if pos >= len(bits):
            raise CodeError("truncated copy-branch token")
        flag = bits[pos]
        pos += 1
        if flag == "0":
            symbol, pos = phased_decode(bits, pos, alphabet)
            out.append(symbol)
        else:
            offset, pos = elias_decode(bits, pos)
            length, pos = elias_decode(bits, pos)
            length += _LZ77_MIN_MATCH - 1
            if offset < 1 or offset > len(out):
                raise CodeError("copy offset outside the produced prefix")
            if len(out) + length > n:
                raise CodeError("copy overruns the declared length")
            src = len(out) - offset
            for i in range(length):
                out.append(out[src + i])
    return tuple(out), pos


# ---------------------------------------------------------------------------
# Compressor families
# ---------------------------------------------------------------------------

_DECODERS = (_enum_decode_payload, _lz_decode_payload, _lz77_decode_payload)


@dataclass(frozen=True)
class PrefixFreeCompressor:
    """Default proxy: delta header, economy selector, shortest branch.

    Branch 0 (enumerative) pays a one-bit selector, the dictionary and
    copy branches two bits; ties resolve to the lowest branch index.
    """

    alphabet: int = 2

    def _costs(
        self,
        word: Word,
        ends: Sequence[int],
        budgets: Sequence,
        enum_sizes: Optional[list] = None,
        lz78_indices: Optional[list] = None,
        lz77_tokens: Optional[list] = None,
    ) -> List[Tuple[int, int, int]]:
        """Selector plus payload bits of the enum, lz78 and lz77 branches of
        word[:m], for each m in the sorted ends (all >= 1).

        enum is costed first, per prefix, against the budget alone.  lz78
        is then folded, by one parse for every end, only until it reaches
        enum, and lz77, by one parse for every end, only until it reaches
        the best of those two, so each entry is exact when its branch wins
        and otherwise a lower bound that still loses (ties go to the lower
        branch).  With finite budgets the minimum is exact below the budget
        and at least the budget otherwise.  `enum_sizes`, if given,
        receives the class sizes of the last end, all of them when the enum
        branch is below the budget there, and `lz78_indices` and
        `lz77_tokens` the phrase indices and tokens folded, all of them
        when that branch wins at the last end.
        """
        k = self.alphabet
        enum_sel, lz78_sel, lz77_sel = (phased_len(i, 3) for i in range(3))
        last = len(ends) - 1
        enum = [
            enum_sel + _enum_cost(word[:m], k, b - enum_sel, enum_sizes if i == last else None)
            for i, (m, b) in enumerate(zip(ends, budgets))
        ]
        bounds = [min(e, b) - lz78_sel for e, b in zip(enum, budgets)]
        lz78 = [lz78_sel + c for c in _lz_costs(word, k, ends, bounds, lz78_indices)]
        bounds = [min(e, d, b) - lz77_sel for e, d, b in zip(enum, lz78, budgets)]
        lz77 = [lz77_sel + c for c in _lz77_costs(word, k, ends, bounds, lz77_tokens)]
        return list(zip(enum, lz78, lz77))

    def _best(
        self,
        word: Word,
        enum_sizes: Optional[list] = None,
        lz78_indices: Optional[list] = None,
        lz77_tokens: Optional[list] = None,
    ) -> int:
        costs = self._costs(word, (len(word),), (math.inf,), enum_sizes, lz78_indices, lz77_tokens)[0]
        return min(range(3), key=lambda i: (costs[i], i))

    def encode(self, word: Sequence[int]) -> str:
        word = _check_word(word, self.alphabet)
        header = elias_encode(len(word) + 1)
        if not word:
            return header + phased_encode(0, 3)
        emitted: Tuple[list, list, list] = ([], [], [])
        best = self._best(word, *emitted)
        # each branch emits from the sizes, indices or tokens it was costed from
        payload = (_enum_payload, _lz_payload, _lz77_payload)[best](word, self.alphabet, emitted[best])
        return header + phased_encode(best, 3) + payload

    def bits_len(self, word: Sequence[int]) -> int:
        word = _check_word(word, self.alphabet)
        return self._prefix_bits_len(word, (len(word),))[0]

    def prefix_bits_len(self, word: Sequence[int], ends: Sequence[int]) -> List[int]:
        """bits_len(word[:m]) for every m in the sorted `ends`, each branch
        parsing the word once for all of them."""
        return self._prefix_bits_len(_check_word(word, self.alphabet), ends)

    def _prefix_bits_len(
        self, word: Word, ends: Sequence[int], budgets: Optional[Sequence[Optional[int]]] = None
    ) -> List[int]:
        """bits_len(word[:m]) of a checked word for every m in the sorted
        `ends`.  With budgets (None for none), each is exact below its
        budget and otherwise a lower bound at least the budget."""
        empty = sum(1 for m in ends if m == 0)
        out = [elias_len(1) + phased_len(0, 3)] * empty
        ends = ends[empty:]
        if ends:
            budgets = [None] * len(ends) if budgets is None else budgets[empty:]
            headers = [elias_len(m + 1) for m in ends]
            limits = [math.inf if b is None else b - h for b, h in zip(budgets, headers)]
            out += [h + min(c) for h, c in zip(headers, self._costs(word, ends, limits))]
        return out

    def decode_stream(self, bits: str, pos: int = 0) -> Tuple[Word, int]:
        header, pos = elias_decode(bits, pos)
        n = header - 1
        selector, pos = phased_decode(bits, pos, 3)
        if n == 0:
            return (), pos
        return _DECODERS[selector](bits, pos, n, self.alphabet)

    def decode(self, bits: str) -> Word:
        word, pos = self.decode_stream(bits)
        if pos != len(bits):
            raise CodeError(f"{len(bits) - pos} trailing bits")
        return word


# ---------------------------------------------------------------------------
# Gap coding: reconstruct u from v plus the positions where they differ
# ---------------------------------------------------------------------------


def gap_encode(v: Sequence[int], diffs, alphabet: int = 2) -> str:
    """Patch turning v into u.

    `diffs` lists the differing positions in increasing order; for
    alphabets beyond binary each entry is (position, replacement symbol).
    Cost: delta(p+1) header plus one delta-coded gap per difference (each
    at most f(gap) bits), plus economy-coded replacements when flipping is
    ambiguous.
    """
    v = tuple(v)
    entries = []
    for item in diffs:
        pos, sym = item if isinstance(item, tuple) else (item, None)
        if not 0 <= pos < len(v):
            raise ValueError(f"diff position {pos} out of range")
        if alphabet > 2:
            if sym is None:
                raise ValueError("replacement symbols required beyond binary")
            if sym == v[pos] or not 0 <= sym < alphabet:
                raise ValueError(f"invalid replacement {sym} at {pos}")
        entries.append((pos, sym))
    if any(b <= a for (a, _), (b, _) in zip(entries, entries[1:])):
        raise ValueError("diff positions must be strictly increasing")
    parts = [elias_encode(len(entries) + 1)]
    last = -1
    for pos, sym in entries:
        parts.append(elias_encode(pos - last))
        last = pos
        if alphabet > 2:
            rank = sym - (sym > v[pos])
            parts.append(phased_encode(rank, alphabet - 1))
    return "".join(parts)


def gap_apply(v: Sequence[int], patch: str, alphabet: int = 2) -> Word:
    v = list(v)
    count, pos = elias_decode(patch, 0)
    last = -1
    for _ in range(count - 1):
        gap, pos = elias_decode(patch, pos)
        last += gap
        if last >= len(v):
            raise ValueError(f"diff position {last} out of range")
        if alphabet > 2:
            rank, pos = phased_decode(patch, pos, alphabet - 1)
            v[last] = rank + (rank >= v[last])
        else:
            v[last] = 1 - v[last]
    if pos != len(patch):
        raise CodeError(f"{len(patch) - pos} trailing patch bits")
    return tuple(v)


# ---------------------------------------------------------------------------
# Ideal code lengths and Kraft utilities
# ---------------------------------------------------------------------------


def neg_log2(q) -> float:
    """-log2 of a positive rational, safe for astronomically small values."""
    q = F(q)
    if q <= 0:
        raise ValueError("needs a positive rational")
    num, den = q.numerator, q.denominator
    shift = num.bit_length() - den.bit_length()
    scaled = float(F(num, den * (1 << shift)) if shift >= 0 else F(num * (1 << -shift), den))
    return -(shift + math.log2(scaled))


def kraft_sum(codes: Iterable[str]) -> F:
    return sum((F(1, 1 << len(c)) for c in codes), F(0))


def prefix_violations(codes: Iterable[str]) -> List[Tuple[str, str]]:
    """All adjacent (prefix, extension) pairs among sorted distinct codewords.

    Sorting makes any prefix relation appear between lexicographic
    neighbors, so the scan is exhaustive; [] means prefix-free.
    """
    ordered = sorted(set(codes))
    bad = []
    for a, b in zip(ordered, ordered[1:]):
        if b.startswith(a):
            bad.append((a, b))
    return bad
