"""Exact rational and dyadic interval arithmetic.

Every quantity downstream (point approximations, distances, measures,
code-length bounds) bottoms out in `fractions.Fraction` endpoints, so
enclosure guarantees are unconditional: floating point only appears when
results are reported.

Logarithms are base 2 throughout.  One integer kernel, `log2_fixed`,
extracts the binary digits of log2 by repeated squaring of a floor-rounded
fixed-point mantissa, with no dependence on libm semantics; `log2` and the
enumerative coder's binomial bound both read their logs from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Fraction

RationalLike = Union[Fraction, int]

#: Default certified width (2**-DEFAULT_LOG_PRECISION) for log-based bounds.
DEFAULT_LOG_PRECISION = 20


def dyadic_floor(q: Fraction, grid_bits: int) -> Fraction:
    """Largest multiple of 2**-grid_bits that is <= q."""
    scaled = q * (1 << grid_bits)
    return Fraction(scaled.numerator // scaled.denominator, 1 << grid_bits)


def is_power_of_two(q: Fraction) -> bool:
    n, d = q.numerator, q.denominator
    return n > 0 and n & (n - 1) == 0 and d & (d - 1) == 0


@dataclass(frozen=True)
class Interval:
    """Closed interval with exact rational endpoints, lo <= hi.

    Operations return intervals containing the exact image set; degenerate
    rational inputs stay exact under add/sub/mul.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @classmethod
    def point(cls, q: RationalLike) -> "Interval":
        q = Fraction(q)
        return cls(q, q)

    @classmethod
    def make(cls, a: RationalLike, b: RationalLike) -> "Interval":
        a, b = Fraction(a), Fraction(b)
        return cls(min(a, b), max(a, b))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, q: RationalLike) -> bool:
        return self.lo <= q <= self.hi

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    def scale(self, q: RationalLike) -> "Interval":
        q = Fraction(q)
        if q >= 0:
            return Interval(self.lo * q, self.hi * q)
        return Interval(self.hi * q, self.lo * q)

    def shift(self, q: RationalLike) -> "Interval":
        q = Fraction(q)
        return Interval(self.lo + q, self.hi + q)


def log2_fixed(num: int, den: int, k: int) -> int:
    """lo with lo <= 2**k * log2(num / den) < lo + 2, for integers
    num >= den >= 1.

    The mantissa z = num / (den 2**e) in [1, 2) is held as a floor-rounded
    fixed-point integer with k + 8 fractional bits and squared k times; the
    i-th square, halved when it is at least 2, gives bit i of log2(z):
    log2(z) = sum(bit_i 2**-i) + 2**-n log2(z_n) after n steps.  Rounding
    z down at every step lowers that sum by less than 4.4 * 2**-(k + 8) in
    all, and the last z_n lies in [1, 2), so the bits fall short of
    log2(z) by less than two units of 2**-k.
    """
    e = num.bit_length() - den.bit_length()
    if num < den << e:
        e -= 1
    prec = k + 8
    shift = prec - e
    z = (num << shift) // den if shift >= 0 else num // (den << -shift)
    two = 2 << prec
    bits = 0
    for _ in range(k):
        z = z * z >> prec
        bits <<= 1
        if z >= two:
            z >>= 1
            bits |= 1
    return (e << k) + bits


def log2(q: RationalLike, precision: int = DEFAULT_LOG_PRECISION) -> Interval:
    """Certified enclosure of log2(q), width <= 2**-precision.

    Exact (degenerate) for q a power of two.  Otherwise log2(q) is
    irrational, so its first precision + 1 binary digits are unique: they
    are read off `log2_fixed`, with guard bits below them, once its
    two-unit uncertainty stays inside one digit, with more guard bits on
    each retry.  Below 1, floor(-t) = -1 - floor(t) for the irrational
    t = 2**(precision + 1) * log2(1 / q).
    """
    q = Fraction(q)
    if q <= 0:
        raise ValueError("log2 requires a positive argument")
    if is_power_of_two(q):
        return Interval.point(q.numerator.bit_length() - q.denominator.bit_length())
    num, den = q.numerator, q.denominator
    below_one = num < den  # then log2(q) = -log2(den / num)
    if below_one:
        num, den = den, num
    steps = precision + 1
    guard = 12
    for _ in range(8):
        lo = log2_fixed(num, den, steps + guard)
        if lo >> guard == (lo + 1) >> guard:
            digits = -1 - (lo >> guard) if below_one else lo >> guard
            return Interval(Fraction(digits, 1 << steps), Fraction(digits + 1, 1 << steps))
        guard *= 2
    raise ArithmeticError(f"log2 enclosure did not converge for {q}")


def _log2_interval(x: Interval, precision: int) -> Interval:
    """Monotone extension of log2 to intervals with positive lo."""
    return Interval(log2(x.lo, precision).lo, log2(x.hi, precision).hi)


def eval_f(x: RationalLike, precision: int = DEFAULT_LOG_PRECISION) -> Interval:
    """Enclosure of f(x) = log2(x) + 1 + 2*log2(log2(x) + 1) for x >= 1.

    f is the self-delimiting code-length bound for positive integers: it is
    concave and increasing on [1, inf), and x*f(1/x) increases on (0, 1/2].
    """
    x = Fraction(x)
    if x < 1:
        raise ValueError("eval_f requires x >= 1")
    target = Fraction(1, 1 << precision)
    inner_precision = precision + 3
    while True:
        lg = log2(x, inner_precision)
        shifted = lg.shift(1)
        result = shifted + _log2_interval(shifted, inner_precision).scale(2)
        if result.width <= target:
            return result
        inner_precision += 4


def eval_J(x: RationalLike, precision: int = DEFAULT_LOG_PRECISION) -> Interval:
    """Enclosure of J(x) = x + 2*log2(x + 1) for x >= 0."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("eval_J requires x >= 0")
    target = Fraction(1, 1 << precision)
    inner_precision = precision + 3
    while True:
        lg = _log2_interval(Interval.point(x + 1), inner_precision)
        result = lg.scale(2).shift(x)
        if result.width <= target:
            return result
        inner_precision += 4
