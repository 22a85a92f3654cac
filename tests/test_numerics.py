import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effdyn import dynamics as dy
from effdyn import numerics as nm
from effdyn.numerics import Interval, eval_f, eval_J, log2, log2_fixed

F = Fraction


def rationals(max_num=1000, max_den=60):
    return st.builds(
        F,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def intervals():
    return st.builds(lambda a, b: Interval.make(a, b), rationals(), rationals())


def _step_dist(circle):
    """`dy.step_dist` as an operation on Intervals: both on the lcm of
    their ends' denominators, the result over twice that."""

    def op(a, b):
        ends = (a.lo, a.hi, b.lo, b.hi)
        den = math.lcm(*(q.denominator for q in ends))
        lo, hi = dy.step_dist(circle, den, *(int(q * den) for q in ends))
        return Interval(F(lo, 2 * den), F(hi, 2 * den))

    return op


line_dist, circle_dist = _step_dist(False), _step_dist(True)


def _wrap(x, y):
    """The circle's distance between the points x and y mod 1."""
    t = (x - y) % 1
    return min(t, 1 - t)


def test_exact_rational_add():
    r = Interval.point(F(1, 4)) + Interval.point(F(1, 2))
    assert r == Interval.point(F(3, 4))


def test_unit_square_mul():
    u = Interval.make(0, 1)
    assert u * u == Interval.make(0, 1)


def test_dist_corner_enumeration():
    # oracle: enumerate corner combinations of |x - y|
    a = Interval.make(F(1, 3), F(1, 2))
    b = Interval.make(0, F(1, 4))
    corners = [abs(x - y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    expected = Interval(min(corners), max(corners))  # disjoint case: corners suffice
    assert line_dist(a, b) == expected
    assert expected == Interval.make(F(1, 12), F(1, 2))


def test_dist_overlapping_reaches_zero():
    a = Interval.make(0, 1)
    b = Interval.make(F(1, 2), 2)
    assert line_dist(a, b).lo == 0


# each binary operation with its pointwise meaning
POINTWISE = [
    (Interval.__add__, operator.add),
    (Interval.__sub__, operator.sub),
    (Interval.__mul__, operator.mul),
    (line_dist, lambda x, y: abs(x - y)),
    (circle_dist, _wrap),
]


@given(intervals(), intervals(), st.sampled_from(POINTWISE))
def test_interval_ops_enclose_sampled_points(a, b, op_fn):
    op, fn = op_fn
    result = op(a, b)
    for x in (a.lo, a.midpoint, a.hi):
        for y in (b.lo, b.midpoint, b.hi):
            assert result.contains(fn(x, y))


def _contains(outer, inner):
    return outer.lo <= inner.lo and inner.hi <= outer.hi


@given(intervals(), intervals(), st.sampled_from([op for op, _ in POINTWISE]))
def test_inclusion_monotonicity(a, b, op):
    wider_a = Interval(a.lo - 1, a.hi + 1)
    wider_b = Interval(b.lo - F(1, 3), b.hi + F(1, 3))
    assert _contains(op(wider_a, wider_b), op(a, b))


def test_log2_exact_on_powers_of_two():
    assert log2(1) == Interval.point(0)
    assert log2(2) == Interval.point(1)
    assert log2(F(1, 8)) == Interval.point(-3)
    assert log2(1024) == Interval.point(10)


@pytest.mark.parametrize("q", [F(3), F(5, 7), F(100), F(999, 1000), F(1, 3)])
def test_log2_agrees_with_float(q):
    enclosure = log2(q, 30)
    assert enclosure.width <= F(1, 2**30)
    assert enclosure.lo <= F(math.log2(q)).limit_denominator(10**12) <= enclosure.hi or (
        abs(float(enclosure.midpoint) - math.log2(q)) < 1e-8
    )


def test_log2_rejects_nonpositive():
    with pytest.raises(ValueError):
        log2(0)
    with pytest.raises(ValueError):
        log2(F(-1, 2))


def test_f_at_one_is_exact():
    assert eval_f(1) == Interval.point(1)


def test_f_at_two_is_exact_four():
    # log2(2) = 1, so f(2) = 1 + 1 + 2*log2(2) = 4 with every step exact
    assert eval_f(2) == Interval.point(4)


def test_f_at_hundred():
    enclosure = eval_f(100)
    assert enclosure.width <= F(1, 2**20)
    assert enclosure.lo <= F(1351, 100) <= enclosure.hi or abs(float(enclosure.midpoint) - 13.5126) < 0.01


def test_f_rejects_below_one():
    with pytest.raises(ValueError):
        eval_f(F(1, 2))


def test_J_reference_values():
    assert eval_J(0) == Interval.point(0)
    # J(1) = 1 + 2*log2(2) = 3 exactly
    assert eval_J(1) == Interval.point(3)
    j = eval_J(F(100))
    expected = 100 + 2 * math.log2(101)
    assert abs(float(j.midpoint) - expected) < 1e-5


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=500),
    st.fractions(min_value=F(1, 100), max_value=F(99, 100)),
)
def test_f_concavity(a, b, lam):
    x, y = F(a), F(a + b)
    mid = lam * x + (1 - lam) * y
    lhs = eval_f(mid)
    rhs = eval_f(x).scale(lam) + eval_f(y).scale(1 - lam)
    # concavity up to enclosure slack
    assert lhs.hi >= rhs.lo


def test_xf_of_inverse_monotone():
    # x * f(1/x) increasing on a rational grid of (0, 1/2]
    grid = [F(k, 64) for k in range(1, 33)]
    values = [eval_f(1 / x).scale(x) for x in grid]
    for left, right in zip(values, values[1:]):
        assert left.lo <= right.hi  # increasing within enclosure width
    # strict growth at a coarser scale
    assert values[0].hi < values[-1].lo


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        Interval(F(1), F(0))


# ---------------------------------------------------------------------------
# log2 against the Fraction digit extraction it replaced
# ---------------------------------------------------------------------------


def _floor_at(q, bits):
    scaled = q * (1 << bits)
    return F(scaled.numerator // scaled.denominator, 1 << bits)


def _ceil_at(q, bits):
    scaled = q * (1 << bits)
    return F(-(-scaled.numerator // scaled.denominator), 1 << bits)


def _reference_digits(m, steps, guard_bits):
    """(prefix, slack) with log2(m) in [prefix, prefix + slack], m in [1, 2):
    squaring a dyadic lower/upper pair, each rounded outward."""
    lo, hi = _floor_at(m, guard_bits), _ceil_at(m, guard_bits)
    prefix, w = F(0), F(1)
    for _ in range(steps):
        w /= 2
        lo, hi = _floor_at(lo * lo, guard_bits), _ceil_at(hi * hi, guard_bits)
        if lo >= 2:
            prefix += w
            lo, hi = lo / 2, hi / 2
        elif hi >= 2:
            return prefix, 2 * w
        lo, hi = max(lo, F(1)), min(hi, F(2))
    return prefix, w


def reference_log2(q, precision=nm.DEFAULT_LOG_PRECISION):
    q = F(q)
    exponent = q.numerator.bit_length() - q.denominator.bit_length()
    if nm.is_power_of_two(q):
        return Interval.point(exponent)
    m = q / F(2) ** exponent
    if m >= 2:
        m, exponent = m / 2, exponent + 1
    elif m < 1:
        m, exponent = m * 2, exponent - 1
    steps = precision + 1
    guard = 2 * steps + 12
    for _ in range(8):
        prefix, slack = _reference_digits(m, steps, guard)
        if slack <= F(1, 1 << precision):
            return Interval(exponent + prefix, exponent + prefix + slack)
        guard *= 2
    raise ArithmeticError(q)


# the reference leaves its last digit unresolved here, at precision 0
COARSE = F(674, 65502296760341)


def _log2_corpus():
    rng = random.Random(10)
    qs = [F(k) for k in range(1, 400)]
    qs += [F((1 << k) + d) for k in range(2, 70) for d in (-1, 1)]
    qs += [1 + F(1, 1 << 60), 1 - F(1, 1 << 60), F(3) ** 400, F(3) ** -400]
    qs += [F(10**30 + 1, 10**30), F(10**30, 10**30 + 1), F(1, 10**40 + 7), COARSE]
    for _ in range(300):
        num, den = (rng.randrange(1, 10 ** rng.randrange(1, 30)) for _ in range(2))
        qs.append(F(num, den))
    for q in qs:
        precisions = {0, 5, 20, 23, 40, rng.randrange(41)}
        for p in sorted(precisions):
            yield q, p


def test_log2_matches_the_fraction_reference():
    """The first precision + 1 digits of an irrational log2 are unique, so
    both paths return them, except where the reference could not resolve
    its last digit and returned the enclosing width-2**-precision interval."""
    coarse = []
    for q, p in _log2_corpus():
        got, want = log2(q, p), reference_log2(q, p)
        if got != want:
            assert want.width == F(1, 1 << p) and _contains(want, got), (q, p)
            assert got.width == F(1, 1 << (p + 1)), (q, p)
            coarse.append((q, p))
    assert coarse == [(COARSE, 0)]
    # log2(COARSE) < -36.5 exactly: COARSE**2 < 2**-73
    assert log2(COARSE, 0) == Interval(F(-37), F(-73, 2))
    assert 674**2 << 73 < 65502296760341**2


def test_log2_retries_a_kernel_one_unit_short(monkeypatch):
    """A kernel one unit below floor(2**k log2 q) still keeps its contract;
    log2 must then find the digits by retrying with more guard bits.  Near
    powers of two the guard bits are all zeros or all ones, so the digits
    the short kernel reads first are wrong there."""
    qs = [F((1 << k) + d) for k in range(2, 70) for d in (-1, 1)] + [1 + F(1, 1 << 60)]
    cases = [(q, p) for q in qs for p in (0, 5, 20, 40)]
    want = [log2(q, p) for q, p in cases]
    kernel = nm.log2_fixed
    monkeypatch.setattr(nm, "log2_fixed", lambda num, den, k: kernel(num, den, k) - 1)
    assert [log2(q, p) for q, p in cases] == want


def test_log2_fixed_contract_exactly():
    """lo <= 2**k log2(a / b) < lo + 2, checked on integers as
    a**(2**k) >= 2**lo b**(2**k) and a**(2**k) < 2**(lo + 2) b**(2**k)."""
    rng = random.Random(11)
    pairs = [(a, 1) for a in range(1, 200)] + [((1 << 40) + 1, 1 << 40), (3**30, 2**47)]
    bs = [rng.randrange(1, 10**6) for _ in range(150)]
    pairs += [(b + rng.randrange(1, 4 * b), b) for b in bs]
    for a, b in pairs:
        for k in range(9):
            lo = log2_fixed(a, b, k)
            ak, bk = a ** (1 << k), b ** (1 << k)
            assert bk << lo <= ak < bk << (lo + 2), (a, b, k)


def _criterion_7_alphas():
    """The shares alpha of criterion 7's 200 instances, replaying its draws
    from random.Random(2024), and the codec benchmark's fixed shares."""
    rng = random.Random(2024)
    alphas = []
    for _ in range(200):
        n = rng.randrange(400, 4000)
        style = rng.choice(["random", "zeros", "periodic", "biased"])
        if style == "random":
            [rng.randrange(2) for _ in range(n)]
        elif style == "periodic":
            [rng.randrange(2) for _ in range(rng.randrange(1, 5))]
        elif style == "biased":
            [rng.random() for _ in range(n)]
        alpha = rng.uniform(0.002, 0.49)
        rng.sample(range(n), rng.randrange(0, max(1, int(alpha * n))))
        alphas.append(F(alpha).limit_denominator(10**6))
    fixed = (0.002, 0.01, 0.03, 0.1, 0.2, 0.35, 0.49)
    return alphas + [F(a).limit_denominator(10**6) for a in fixed]


def test_f_and_J_match_the_fraction_reference(monkeypatch):
    alphas = _criterion_7_alphas()
    js = list(range(20)) + [F(100), F(10**6 + 3, 7)]
    got = [eval_f(1 / a) for a in alphas], [eval_J(x) for x in js]
    monkeypatch.setattr(nm, "log2", reference_log2)
    assert got == ([eval_f(1 / a) for a in alphas], [eval_J(x) for x in js])
