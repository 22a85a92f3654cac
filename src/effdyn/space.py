"""Computable metric spaces: ideal points, fast approximation, ideal balls.

Three space kinds are provided: the unit interval, the circle (as [0,1)
with wrap-around metric) and finite-alphabet sequence space.  Ideal
points are dyadic rationals on the interval and circle, and
ultimately-zero symbol sequences on sequence space; both families admit
exact rational distances, so `ideal_dist` returns degenerate enclosures
and all downstream slack comes from point approximation alone.

Points are approximator callbacks producing a fast sequence of ideal
points: consecutive approximants are closer than 2**-n, so the n-th one
is within 2**-(n-1) of the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Tuple

from effdyn.numerics import Interval, dyadic_floor

F = Fraction


class SpaceMismatch(ValueError):
    """Raised when an operation mixes points from different spaces."""


class Kind(Enum):
    UNIT_INTERVAL = "unit_interval"
    CIRCLE = "circle"
    CANTOR = "cantor"


def pair(a: int, b: int) -> int:
    s = a + b
    return s * (s + 1) // 2 + b


def unpair(n: int) -> Tuple[int, int]:
    s = (math.isqrt(8 * n + 1) - 1) // 2
    b = n - s * (s + 1) // 2
    return s - b, b


# Words of at most this many symbols are split and joined one digit at a
# time; longer ones in halves, by one wide divmod or product by k**h.
_DIGIT_LEAF = 32


def _split_digits(value: int, k: int, length: int) -> list:
    """The `length` base-k digits of value < k**length, most significant
    first."""
    if length > _DIGIT_LEAF:
        h = length // 2
        high, low = divmod(value, k**h)
        return _split_digits(high, k, length - h) + _split_digits(low, k, h)
    digits = []
    for _ in range(length):
        value, digit = divmod(value, k)
        digits.append(digit)
    return digits[::-1]


def _join_digits(word, k: int) -> int:
    """The base-k value of the word, most significant digit first."""
    if len(word) > _DIGIT_LEAF:
        h = len(word) // 2
        return _join_digits(word[:-h], k) * k**h + _join_digits(word[-h:], k)
    value = 0
    for c in word:
        value = value * k + c
    return value


@dataclass(frozen=True)
class Space:
    kind: Kind
    alphabet: int = 2

    def __repr__(self):
        if self.kind is Kind.CANTOR:
            return f"Space(cantor, k={self.alphabet})"
        return f"Space({self.kind.value})"

    # -- ideal point numbering -------------------------------------------

    def decode(self, index: int):
        """Canonical finite description of ideal point `index`.

        Interval/circle: a dyadic Fraction.  Sequence space: a symbol
        tuple (the point is the tuple padded with zeros).
        """
        if self.kind is Kind.UNIT_INTERVAL:
            num, level = unpair(index)
            return F(num % ((1 << level) + 1), 1 << level)
        if self.kind is Kind.CIRCLE:
            num, level = unpair(index)
            return F(num % (1 << level), 1 << level)
        k = self.alphabet
        # the length L is the largest with the (k^L - 1)/(k - 1) shorter
        # words at most index, that is with k^L <= index*(k - 1) + 1; the
        # float estimate, less one for rounding, is at most two below it
        top = index * (k - 1) + 1
        length = max(int((top.bit_length() - 1) / math.log2(k)) - 1, 0)
        block = k**length
        while block * k <= top:
            block *= k
            length += 1
        return tuple(_split_digits(index - (block - 1) // (k - 1), k, length))

    def encode_dyadic(self, q: F) -> int:
        """Index of the dyadic rational q (interval and circle kinds)."""
        if self.kind is Kind.CIRCLE:
            q = q - (q.numerator // q.denominator)  # reduce mod 1
        if not 0 <= q <= 1:
            raise ValueError(f"{q} outside the unit range")
        den = q.denominator
        if den & (den - 1):
            raise ValueError(f"{q} is not dyadic")
        return pair(q.numerator, den.bit_length() - 1)

    def encode_word(self, word: Tuple[int, ...]) -> int:
        k = self.alphabet
        if any(not 0 <= c < k for c in word):
            raise ValueError(f"word {word} outside alphabet of size {k}")
        return (k ** len(word) - 1) // (k - 1) + _join_digits(word, k)

    # -- exact metric on ideal descriptions ------------------------------

    def dist_desc(self, u, v) -> F:
        if self.kind is Kind.UNIT_INTERVAL:
            return abs(u - v)
        if self.kind is Kind.CIRCLE:
            m = abs(u - v)
            m -= m.numerator // m.denominator  # mod 1
            return min(m, 1 - m)
        for i in range(max(len(u), len(v))):
            cu = u[i] if i < len(u) else 0
            cv = v[i] if i < len(v) else 0
            if cu != cv:
                return F(1, 1 << i)
        return F(0)

    def ideal_dist(self, i: int, j: int) -> Interval:
        """d(s_i, s_j) as a degenerate interval: distances between ideal
        points are exact rationals for every kind."""
        return Interval.point(self.dist_desc(self.decode(i), self.decode(j)))

    @property
    def diameter(self) -> F:
        return F(1, 2) if self.kind is Kind.CIRCLE else F(1)


def unit_interval() -> Space:
    return Space(Kind.UNIT_INTERVAL)


def circle() -> Space:
    return Space(Kind.CIRCLE)


def cantor(alphabet: int = 2) -> Space:
    if alphabet < 2:
        raise ValueError("alphabet size must be at least 2")
    return Space(Kind.CANTOR, alphabet=alphabet)


@dataclass(frozen=True)
class IdealBall:
    space: Space
    center: int
    radius: F

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    @property
    def center_desc(self):
        return self.space.decode(self.center)


@dataclass(frozen=True)
class Point:
    """A point given by a fast-approximation oracle.

    `approximator(n)` returns the index of an ideal point within
    2**-(n-1) of the point; rationally-specified points also carry their
    exact description for exact-arithmetic paths.
    """

    space: Space
    approximator: Callable[[int], int]
    exact: object = None  # Fraction, symbol tuple+callback, or None

    def approx_index(self, n: int) -> int:
        return self.approximator(n)

    def approx_desc(self, n: int):
        return self.space.decode(self.approximator(n))

    def enclosure(self, n: int) -> Interval:
        """Interval/circle kinds: [c - r, c + r] around the n-th approximant."""
        c = self.approx_desc(n)
        r = F(2, 1 << n) if n >= 0 else F(2 << (-n))
        return Interval(c - r, c + r)


def rational_point(space: Space, q) -> Point:
    """Exact fast sequence for a rational value on the interval or circle."""
    q = F(q)
    if space.kind is Kind.CIRCLE:
        q = q - (q.numerator // q.denominator)
    elif space.kind is Kind.UNIT_INTERVAL:
        if not 0 <= q <= 1:
            raise ValueError(f"{q} outside [0, 1]")
    else:
        raise SpaceMismatch("rational_point requires interval or circle")

    def approximator(n: int) -> int:
        return space.encode_dyadic(dyadic_floor(q, max(n, 0) + 2))

    return Point(space, approximator, exact=q)


def sequence_point(space: Space, symbol_fn: Callable[[int], int]) -> Point:
    """Point of sequence space given by a total symbol oracle."""
    if space.kind is not Kind.CANTOR:
        raise SpaceMismatch("sequence_point requires a sequence space")

    def approximator(n: int) -> int:
        return space.encode_word(tuple(symbol_fn(j) for j in range(max(n, 0) + 2)))

    return Point(space, approximator, exact=symbol_fn)


def word_point(space: Space, word, repeat=False) -> Point:
    """Sequence-space point from a concrete word, zero-padded or repeated."""
    word = tuple(word)
    if repeat:
        return sequence_point(space, lambda j: word[j % len(word)])
    return sequence_point(space, lambda j: word[j] if j < len(word) else 0)


def sqrt2_minus_1(space: Space) -> Point:
    """The rotation-friendly irrational sqrt(2) - 1 as a circle point."""

    def approximator(n: int) -> int:
        m = max(n, 0) + 2
        a = math.isqrt(2 << (2 * m))  # floor(sqrt(2) * 2^m)
        return space.encode_dyadic(F(a - (1 << m), 1 << m))

    return Point(space, approximator)


def approx(x: Point, n: int) -> IdealBall:
    """Ball around the n-th approximant that is guaranteed to contain x."""
    if n < 0:
        raise ValueError("precision must be nonnegative")
    radius = F(2) if n == 0 else F(1, 1 << (n - 1))
    return IdealBall(x.space, x.approx_index(n), radius)


def dist(x: Point, y: Point, precision: int) -> Interval:
    """Enclosure of d(x, y) of width <= 2**-precision."""
    if x.space != y.space:
        raise SpaceMismatch(f"{x.space} vs {y.space}")
    n = precision + 3
    bx, by = approx(x, n), approx(y, n)
    e = x.space.dist_desc(bx.center_desc, by.center_desc)
    slack = bx.radius + by.radius
    return Interval(max(F(0), e - slack), min(e + slack, x.space.diameter))
