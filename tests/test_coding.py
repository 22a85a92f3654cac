import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effdyn import coding as cd
from effdyn.numerics import eval_J, eval_f

F = Fraction


# -- Elias codes ---------------------------------------------------------------


def test_elias_smallest_input():
    assert cd.elias_encode(1) == "1"
    assert len(cd.elias_encode(1)) <= 4


def test_elias_hundred_within_bound():
    code = cd.elias_encode(100)
    assert len(code) == cd.elias_len(100) == 11
    assert len(code) <= 16  # J(log2 100) + 4 ~ 16.5


def test_elias_roundtrip_sweep():
    for n in range(1, 10_001):
        code = cd.elias_encode(n)
        assert len(code) == cd.elias_len(n)
        value, pos = cd.elias_decode(code)
        assert value == n and pos == len(code)


def test_elias_length_bound_exhaustive_to_million():
    # |delta(n)| is constant on dyadic blocks while J(log2 n) increases,
    # so certify block starts with interval arithmetic and sweep the rest
    # against the float evaluation.
    for e in range(0, 20):
        n = 1 << e
        j_upper_ok = cd.elias_len(n) <= eval_J(e).lo + 4
        assert j_upper_ok, n
    n = 1
    while n <= 1_000_000:
        assert cd.elias_len(n) <= n.bit_length() - 1 + 2 * math.log2(n.bit_length()) + 1 + 1e-9
        assert cd.elias_len(n) <= math.log2(n) + 2 * math.log2(math.log2(n) + 1) + 4 + 1e-9
        n += 997  # coarse but covers every dyadic block many times


def test_elias_prefix_free_exhaustive_short_codes():
    codes = [cd.elias_encode(n) for n in range(1, 1 << 14)]
    short = [c for c in codes if len(c) <= 20]
    assert len(short) > 8000
    assert cd.prefix_violations(short) == []
    assert cd.prefix_violations(codes) == []


def test_elias_kraft_sum():
    assert cd.kraft_sum(cd.elias_encode(n) for n in range(1, 1 << 14)) <= 1


def test_elias_chain_decodes_componentwise():
    parts = [3, 1, 77, 4096, 12]
    chained = "".join(cd.elias_encode(p) for p in parts)
    assert len(chained) == sum(cd.elias_len(p) for p in parts)
    pos = 0
    out = []
    while pos < len(chained):
        value, pos = cd.elias_decode(chained, pos)
        out.append(value)
    assert out == parts


def test_gamma_roundtrip():
    for n in (1, 2, 3, 17, 255, 1024):
        value, pos = cd.elias_gamma_decode(cd.elias_gamma(n))
        assert value == n and pos == cd.elias_gamma_len(n)


# -- economy code --------------------------------------------------------------


@given(st.integers(min_value=1, max_value=200), st.data())
def test_phased_roundtrip(size, data):
    value = data.draw(st.integers(min_value=0, max_value=size - 1))
    bits = cd.phased_encode(value, size)
    assert len(bits) == cd.phased_len(value, size)
    out, pos = cd.phased_decode(bits, 0, size)
    assert out == value and pos == len(bits)


def test_phased_is_prefix_free_per_size():
    for size in (2, 3, 5, 8, 13):
        codes = [cd.phased_encode(v, size) for v in range(size)]
        assert cd.prefix_violations(codes) == []
        assert cd.kraft_sum(codes) <= 1


# -- compressor families -------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3])
def test_compressor_exhaustive_roundtrip_and_prefix_free(k):
    comp = cd.PrefixFreeCompressor(k)
    codes = []
    max_len = 9 if k == 2 else 5
    for length in range(max_len + 1):
        for value in range(k**length):
            word = []
            v = value
            for _ in range(length):
                word.append(v % k)
                v //= k
            word = tuple(word)
            code = comp.encode(word)
            assert comp.decode(code) == word
            assert len(code) == comp.bits_len(word)
            codes.append(code)
    assert cd.prefix_violations(codes) == []
    assert cd.kraft_sum(codes) <= 1


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_compressor_random_roundtrip(data):
    k = data.draw(st.sampled_from([2, 2, 3, 4]))
    comp = cd.PrefixFreeCompressor(k)
    word = tuple(
        data.draw(st.lists(st.integers(min_value=0, max_value=k - 1), max_size=400))
    )
    code = comp.encode(word)
    assert comp.decode(code) == word
    assert len(code) == comp.bits_len(word)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_lz_engine_roundtrip(data):
    # the dictionary (lz78) branch alone: payload, cost and decoder agree
    k = data.draw(st.sampled_from([2, 3]))
    word = tuple(
        data.draw(st.lists(st.integers(min_value=0, max_value=k - 1), max_size=300))
    )
    payload = cd._lz_payload(word, k)
    assert [len(payload)] == cd._lz_costs(word, k, (len(word),), (math.inf,))
    assert cd._lz_decode_payload(payload, 0, len(word), k) == (word, len(payload))


def test_compressor_streams_chain_componentwise():
    comp = cd.PrefixFreeCompressor(2)
    words = [(0, 1, 1), (), (1,) * 40, tuple(random.Random(5).randrange(2) for _ in range(100))]
    chained = "".join(comp.encode(w) for w in words)
    pos = 0
    out = []
    while pos < len(chained):
        word, pos = comp.decode_stream(chained, pos)
        out.append(word)
    assert out == words


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compressor_prefix_free_on_random_pairs(data):
    comp = cd.PrefixFreeCompressor(2)
    u = tuple(data.draw(st.lists(st.integers(0, 1), max_size=300), label="u"))
    v = tuple(data.draw(st.lists(st.integers(0, 1), max_size=300), label="v"))
    cu, cv = comp.encode(u), comp.encode(v)
    if u != v:
        assert not cu.startswith(cv) and not cv.startswith(cu)
    else:
        assert cu == cv


def test_rate_rejects_unknown_symbols():
    with pytest.raises(cd.UnknownSymbol):
        word = (0, 1, None, 0)
        F(cd.PrefixFreeCompressor(2).bits_len(word), len(word))


def test_word_check_names_the_first_offending_symbol():
    comp = cd.PrefixFreeCompressor(3)
    with pytest.raises(ValueError, match=r"^symbol 5 outside alphabet of size 3$"):
        comp.bits_len((0, 2, 5, -1, 7))
    with pytest.raises(ValueError, match=r"^symbol -1 outside alphabet of size 3$"):
        comp.encode((1, -1, 5))
    with pytest.raises(ValueError, match=r"^symbol 3 outside alphabet of size 3$"):
        comp.bits_len((2, 1, 3))
    # an offending symbol before an unresolved one is named, not the None
    with pytest.raises(ValueError, match=r"^symbol 3 outside alphabet of size 3$") as info:
        comp.prefix_bits_len((0, 3, None), (1, 3))
    assert not isinstance(info.value, cd.UnknownSymbol)
    with pytest.raises(cd.UnknownSymbol):
        comp.bits_len((0, None, 7))
    assert comp.bits_len((0, 1, 2)) == comp.bits_len([0, 1, 2])


@pytest.mark.parametrize("alphabet", [3, 256, 300])
def test_word_check_keeps_its_answers_on_odd_symbols(alphabet):
    """The bytes fast path for alphabets up to 256 accepts and rejects
    exactly what the symbol-by-symbol check does, with the same message;
    an accepted word comes back as bytes there and as a tuple on wider
    alphabets or when a symbol is not a byte."""
    check = cd._check_word
    held = bytes if alphabet <= 256 else tuple
    with pytest.raises(cd.UnknownSymbol, match=r"^word contains an unresolved symbol$"):
        check((0, None, 1), alphabet)
    for bad in (-1, alphabet, 256, 1 << 70):
        if not 0 <= bad < alphabet:
            with pytest.raises(ValueError, match=rf"^symbol {bad} outside alphabet of size {alphabet}$"):
                check((0, bad, 1), alphabet)
    # bools and floats inside the alphabet pass through unchanged, as they always did
    word = check((0, True, 1.0, 2), alphabet)
    assert word == (0, True, 1.0, 2) and word[1] is True and isinstance(word[2], float)
    assert type(word) is tuple
    with pytest.raises(ValueError, match=rf"^symbol {float(alphabet)} outside alphabet of size {alphabet}$"):
        check((1.0, float(alphabet)), alphabet)
    for word in (range(3), [0, 1, 2], (0, 1, 2), b"\0\1\2"):
        assert tuple(check(word, alphabet)) == (0, 1, 2) and type(check(word, alphabet)) is held
    assert tuple(check((), alphabet)) == () and type(check((), alphabet)) is held
    # a bytes word is checked against the alphabet like any other
    if alphabet < 256:
        with pytest.raises(ValueError, match=rf"^symbol {alphabet} outside alphabet of size {alphabet}$"):
            check(bytes((0, alphabet, 1)), alphabet)


def test_rate_on_constant_run():
    word = (0,) * 4096
    assert F(cd.PrefixFreeCompressor(2).bits_len(word), len(word)) <= F(8, 100)


def test_rate_on_alternating_run():
    word = (0, 1) * 2048
    assert F(cd.PrefixFreeCompressor(2).bits_len(word), len(word)) <= F(8, 100)


def test_rate_on_seeded_fair_coin():
    rng = random.Random(0)  # generator and seed are part of the golden value
    word = tuple(rng.randrange(2) for _ in range(1 << 16))
    assert F(9, 10) <= F(cd.PrefixFreeCompressor(2).bits_len(word), len(word)) <= F(115, 100)


# -- gap coding ----------------------------------------------------------------


def test_gap_no_diffs_constant_size():
    v = (0, 1, 1, 0, 1)
    patch = cd.gap_encode(v, [])
    assert len(patch) == cd.elias_len(1)
    assert cd.gap_apply(v, patch) == v


def test_gap_equally_spaced_bound():
    n, p = 1000, 10
    v = (0,) * n
    positions = [99 + 100 * j for j in range(p)]  # gaps of exactly 100
    patch = cd.gap_encode(v, positions)
    u = cd.gap_apply(v, patch)
    assert [i for i in range(n) if u[i] != v[i]] == positions
    bound = p * float(eval_f(100).hi) + 16
    assert len(patch) <= bound  # ~10 * 13.51 + c


def test_gap_clustered_still_bounded_by_concavity():
    n, p = 1000, 10
    v = (1,) * n
    positions = list(range(10))  # all diffs in the first ten positions
    patch = cd.gap_encode(v, positions)
    assert cd.gap_apply(v, patch) != v
    bound = p * float(eval_f(F(n, p)).hi) + 16
    assert len(patch) <= bound


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gap_roundtrip_randomized(data):
    k = data.draw(st.sampled_from([2, 2, 3, 5]))
    n = data.draw(st.integers(min_value=1, max_value=300))
    v = tuple(data.draw(st.integers(min_value=0, max_value=k - 1)) for _ in range(n))
    count = data.draw(st.integers(min_value=0, max_value=min(n, 12)))
    positions = sorted(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
    )
    if k == 2:
        diffs = positions
        expected = tuple(1 - c if i in set(positions) else c for i, c in enumerate(v))
    else:
        diffs = []
        expected = list(v)
        for pos in positions:
            sym = data.draw(
                st.integers(min_value=0, max_value=k - 2), label=f"sym@{pos}"
            )
            sym = sym + (sym >= v[pos])
            diffs.append((pos, sym))
            expected[pos] = sym
        expected = tuple(expected)
    patch = cd.gap_encode(v, diffs, alphabet=k)
    assert cd.gap_apply(v, patch, alphabet=k) == expected


def test_gap_patch_length_within_f_sum():
    # |patch| <= sum f(gap_j) + f(p+1) + slack, each delta length <= f(gap)
    rng = random.Random(42)
    for _ in range(50):
        n = rng.randrange(20, 2000)
        p = rng.randrange(1, max(2, n // 20))
        positions = sorted(rng.sample(range(n), p))
        v = tuple(rng.randrange(2) for _ in range(n))
        patch = cd.gap_encode(v, positions)
        gaps = [positions[0] + 1] + [
            b - a for a, b in zip(positions, positions[1:])
        ]
        f_sum = sum(float(eval_f(max(g, 1)).hi) for g in gaps)
        assert len(patch) <= f_sum + float(eval_f(p + 1).hi) + 2


class _SwapCache:
    """The dictionary cache's reader with explicit swaps, the reference
    for `_DiffCache.read`: a hit on the second entry swaps it to the
    front, a miss always pushes the decoded distance."""

    def __init__(self):
        self.first = 0
        self.second = 1

    def read(self, bits, pos, size):
        if pos >= len(bits):
            raise cd.CodeError("truncated token")
        if bits[pos] == "1":
            if pos + 1 >= len(bits):
                raise cd.CodeError("truncated cache flag")
            hit_second = bits[pos + 1] == "1"
            diff = self.second if hit_second else self.first
            if hit_second:
                self.first, self.second = self.second, self.first
            index = (size - 1) - diff
            if index < 0:
                raise cd.CodeError("cache distance outside the dictionary")
            return index, pos + 2
        index, pos = cd.phased_decode(bits, pos + 1, size)
        self.first, self.second = (size - 1) - index, self.first
        return index, pos


def _lz_outcome(bits, n, k):
    try:
        return cd._lz_decode_payload(bits, 0, n, k)
    except cd.CodeError:
        return "CodeError"


def test_lz_decoder_bit_flips_match_swap_reference():
    rng = random.Random(11)
    corpus = []
    for k in (2, 3):
        corpus += [
            (tuple(rng.randrange(k) for _ in range(60)), k),
            ((0,) * 50, k),
            ((0, 1, 1) * 20, k),
            (tuple(rng.randrange(k) for _ in range(8)) * 6, k),
        ]
    flips = differing = 0
    for word, k in corpus:
        payload = cd._lz_payload(word, k)
        variants = [payload[:i] + "01"[payload[i] == "0"] + payload[i + 1 :] for i in range(len(payload))]
        variants += [payload[:i] for i in range(len(payload))]
        for bits in variants:
            got = _lz_outcome(bits, len(word), k)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cd, "_DiffCache", _SwapCache)
                want = _lz_outcome(bits, len(word), k)
            assert got == want, (word, bits)
            flips += 1
            differing += got != (word, len(payload))
    assert flips > 1000 and differing > 500


def test_neg_log2_handles_tiny_rationals():
    assert cd.neg_log2(F(1, 1 << 4096)) == pytest.approx(4096)
    assert cd.neg_log2(F(3, 40)) == pytest.approx(-math.log2(3 / 40))
