"""Exact rational and dyadic interval arithmetic.

Every quantity downstream (point approximations, distances, measures,
code-length bounds) bottoms out in `fractions.Fraction` endpoints, so
enclosure guarantees are unconditional: floating point only appears when
results are reported.

Logarithms are base 2 throughout.  Certified enclosures of log2 are
produced by binary-digit extraction with outward dyadic rounding, with no
dependence on libm semantics.
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


def dyadic_ceil(q: Fraction, grid_bits: int) -> Fraction:
    """Smallest multiple of 2**-grid_bits that is >= q."""
    scaled = q * (1 << grid_bits)
    return Fraction(-((-scaled.numerator) // scaled.denominator), 1 << grid_bits)


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

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

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

    def dist(self, other: "Interval") -> "Interval":
        """Enclosure of {|x - y| : x in self, y in other} on the line."""
        gap = max(self.lo - other.hi, other.lo - self.hi, Fraction(0))
        spread = max(self.hi - other.lo, other.hi - self.lo)
        return Interval(gap, spread)

    def min_with(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), min(self.hi, other.hi))

    def max_with(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))

    def outward(self, grid_bits: int) -> "Interval":
        """Round endpoints outward to the dyadic grid 2**-grid_bits."""
        return Interval(dyadic_floor(self.lo, grid_bits), dyadic_ceil(self.hi, grid_bits))


_IV_OPS = {
    "add": Interval.__add__,
    "sub": Interval.__sub__,
    "mul": Interval.__mul__,
    "dist": Interval.dist,
    "min": Interval.min_with,
    "max": Interval.max_with,
}


def iv_arith(a: Interval, b: Interval, op: str) -> Interval:
    """Dispatch table entry point for the six supported binary operations."""
    try:
        fn = _IV_OPS[op]
    except KeyError:
        raise ValueError(f"unknown interval op {op!r}") from None
    return fn(a, b)


def _log2_digits(m: Fraction, steps: int, guard_bits: int):
    """Binary digits of log2(m) for m in [1, 2), via repeated squaring.

    Squaring is done on a dyadic lower/upper bound pair with outward
    rounding at guard_bits, so every extracted digit is certified.  Returns
    (prefix, slack): log2(m) lies in [prefix, prefix + slack].  slack is
    2**-steps on completion, larger if a digit could not be resolved at
    this guard precision.
    """
    lo = dyadic_floor(m, guard_bits)
    hi = dyadic_ceil(m, guard_bits)
    prefix = Fraction(0)
    w = Fraction(1)
    two = Fraction(2)
    for _ in range(steps):
        w /= 2
        lo = dyadic_floor(lo * lo, guard_bits)
        hi = dyadic_ceil(hi * hi, guard_bits)
        if lo >= two:
            prefix += w
            lo /= 2
            hi /= 2
        elif hi < two:
            pass
        else:
            return prefix, 2 * w
        # the true value is always in [1, 2); clamping keeps bounds tight
        if lo < 1:
            lo = Fraction(1)
        if hi > two:
            hi = two
    return prefix, w


def log2(q: RationalLike, precision: int = DEFAULT_LOG_PRECISION) -> Interval:
    """Certified enclosure of log2(q), width <= 2**-precision.

    Exact (degenerate) for q a power of two.
    """
    q = Fraction(q)
    if q <= 0:
        raise ValueError("log2 requires a positive argument")
    if is_power_of_two(q):
        return Interval.point(q.numerator.bit_length() - q.denominator.bit_length())
    exponent = q.numerator.bit_length() - q.denominator.bit_length()
    m = q / Fraction(1 << exponent) if exponent >= 0 else q * (1 << -exponent)
    if m >= 2:
        m /= 2
        exponent += 1
    elif m < 1:
        m *= 2
        exponent -= 1
    steps = precision + 1
    guard = 2 * steps + 12
    target = Fraction(1, 1 << precision)
    for _ in range(8):
        prefix, slack = _log2_digits(m, steps, guard)
        if slack <= target:
            return Interval(exponent + prefix, exponent + prefix + slack)
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
