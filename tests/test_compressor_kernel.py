"""The default compressor against its references and a golden file.

The references below are the full walks the lazy branch costs replace:
the enumerative length from ranks grown one symbol at a time, the
per-position combinadic rank and unrank walks the block walks replace,
`math.comb` for the class sizes built from prime exponents, the
copy-branch parse on a suffix automaton with one dict per state, and the
dictionary branch's phrase generator of `lz78_reference`.
The costs, the selector, `bits_len` and every codeword must agree with
them exactly; the copy branch's budgeted cost must be exact below its
budget and at least the budget otherwise.

`tests/golden/codewords.txt` holds, for every word of a seeded corpus, the
length and sha256 of its `PrefixFreeCompressor` codeword.  The codeword
format is frozen, so any change to the branch costs or the emission must
reproduce these lines exactly.  Regenerate the file with
`PYTHONPATH=src python tests/test_compressor_kernel.py` only when the
format is changed on purpose.
"""

import hashlib
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effdyn import coding as cd

import lz78_reference as lzr

GOLDEN = Path(__file__).parent / "golden" / "codewords.txt"

STYLES = ("random", "biased", "periodic", "constant")
LENGTHS = (0, 1, 2, 3, 7, 64, 255, 1000, 3000)


def make_word(rng: random.Random, k: int, style: str, n: int):
    """One seeded word: uniform symbols, symbol 0 with probability 0.85,
    a random period of 1..12 with about n/50 flipped positions, or one
    repeated symbol."""
    if style == "random":
        return tuple(rng.randrange(k) for _ in range(n))
    if style == "biased":
        return tuple(0 if rng.random() < 0.85 else 1 + rng.randrange(k - 1) for _ in range(n))
    if style == "periodic":
        pattern = [rng.randrange(k) for _ in range(rng.randint(1, 12))]
        word = [pattern[i % len(pattern)] for i in range(n)]
        for _ in range(n // 50):
            i = rng.randrange(n)
            word[i] = (word[i] + 1 + rng.randrange(k - 1)) % k
        return tuple(word)
    return (rng.randrange(k),) * n


def corpus():
    """(label, alphabet, word) over alphabets 2-4, four styles, nine lengths."""
    rng = random.Random(20240)  # generator and seed are part of the golden file
    for k in (2, 3, 4):
        for style in STYLES:
            for n in LENGTHS:
                yield f"k{k}-{style}-n{n}", k, make_word(rng, k, style, n)


def golden_lines():
    lines = []
    for label, k, word in corpus():
        code = cd.PrefixFreeCompressor(k).encode(word)
        lines.append(f"{label} {len(code)} {hashlib.sha256(code.encode()).hexdigest()}")
    return lines


# -- references ----------------------------------------------------------------


class _GrownLayer:
    """Rank and class size of a layer grown one bit at a time."""

    def __init__(self):
        self.length = self.ones = self.rank = 0
        self.size = 1

    def append(self, bit):
        m, r = self.length, self.ones
        if bit:
            self.rank += self.size * (m - r) // (r + 1)
            self.size = self.size * (m + 1) // (r + 1)
            self.ones += 1
        else:
            self.size = self.size * (m + 1) // (m + 1 - r)
        self.length += 1


def _grown_layers(word, alphabet):
    layers = [_GrownLayer() for _ in range(alphabet)]
    for c in word:
        for j in range(max(c, 1), alphabet):
            layers[j].append(1 if c == j else 0)
    return layers


def _enum_payload_len(word, alphabet):
    counts = [word.count(c) for c in range(alphabet)]
    layers = _grown_layers(word, alphabet)
    total = 0
    rem = len(word)
    for j in range(alphabet - 1, 0, -1):
        total += cd.phased_len(counts[j], rem + 1)
        rem -= counts[j]
        total += cd.phased_len(layers[j].rank, layers[j].size)
    return total


def _enum_payload(word, alphabet):
    counts = [word.count(c) for c in range(alphabet)]
    layers = _grown_layers(word, alphabet)
    parts = []
    rem = len(word)
    for j in range(alphabet - 1, 0, -1):
        parts.append(cd.phased_encode(counts[j], rem + 1))
        rem -= counts[j]
    for j in range(alphabet - 1, 0, -1):
        parts.append(cd.phased_encode(layers[j].rank, layers[j].size))
    return "".join(parts)


def _layer_rank(word, j, size, m, r, cut=None):
    """Rank of layer j by one multiply and one floor-divide per position,
    stopping once [s, s + c) lies on one side of `cut`."""
    s = 0
    t = r
    p = m
    c = size
    for symbol in reversed(word):
        if symbol > j:
            continue
        if symbol == j:
            below = c * t // p
            s += c - below
            c = below
            t -= 1
            p -= 1
            if t == 0 or cut is not None and (s >= cut or s + c <= cut):
                return s
        else:
            c = c * (p - t) // p
            p -= 1
    return s


def _combinadic_unrank(rank, m, r):
    """Positions of the r ones, from rank in [0, C(m, r)), by one step per
    position."""
    if r == 0:
        if rank != 0:
            raise cd.CodeError("combinadic rank out of range")
        return []
    positions = []
    p = m - 1
    c = math.comb(m - 1, r)
    for t in range(r, 0, -1):
        while c > rank:
            c = c * (p - t) // p  # C(p-1, t) from C(p, t)
            p -= 1
        rank -= c
        positions.append(p)
        if t > 1:
            c = c * t // p  # C(p-1, t-1) from C(p, t)
            p -= 1
    if rank != 0:
        raise cd.CodeError("combinadic rank out of range")
    return positions[::-1]


class _SuffixAutomaton:
    """Online suffix automaton, one transition dict per state."""

    def __init__(self):
        self.nexts, self.links, self.lens, self.firstpos = [{}], [-1], [0], [-1]
        self.last = 0

    def extend(self, c, position):
        cur = len(self.lens)
        self.nexts.append({})
        self.links.append(-1)
        self.lens.append(self.lens[self.last] + 1)
        self.firstpos.append(position)
        p = self.last
        while p >= 0 and c not in self.nexts[p]:
            self.nexts[p][c] = cur
            p = self.links[p]
        if p == -1:
            self.links[cur] = 0
        else:
            q = self.nexts[p][c]
            if self.lens[p] + 1 == self.lens[q]:
                self.links[cur] = q
            else:
                clone = len(self.lens)
                self.nexts.append(dict(self.nexts[q]))
                self.links.append(self.links[q])
                self.lens.append(self.lens[p] + 1)
                self.firstpos.append(self.firstpos[q])
                while p >= 0 and self.nexts[p].get(c) == q:
                    self.nexts[p][c] = clone
                    p = self.links[p]
                self.links[q] = clone
                self.links[cur] = clone
        self.last = cur

    def longest_match(self, text, start):
        state = length = 0
        for i in range(start, len(text)):
            nxt = self.nexts[state].get(text[i])
            if nxt is None:
                break
            state = nxt
            length += 1
        if length == 0:
            return 0, -1
        return length, self.firstpos[state] - length + 1


def _lz77_tokens(word):
    sam = _SuffixAutomaton()
    pos = 0
    while pos < len(word):
        length, src = sam.longest_match(word, pos)
        if length:
            while pos + length < len(word) and word[src + length] == word[pos + length]:
                length += 1
        if length >= cd._LZ77_MIN_MATCH:
            yield ("copy", pos - src, length)
            step = length
        else:
            yield ("lit", word[pos], 1)
            step = 1
        for i in range(pos, pos + step):
            sam.extend(word[i], i)
        pos += step


def _lz77_payload_len(word, alphabet):
    total = 0
    for kind, a, b in _lz77_tokens(word):
        if kind == "lit":
            total += 1 + cd.phased_len(a, alphabet)
        else:
            total += 1 + cd.elias_len(a) + cd.elias_len(b - cd._LZ77_MIN_MATCH + 1)
    return total


def _lz77_payload(word, alphabet):
    return "".join(
        "0" + cd.phased_encode(a, alphabet)
        if kind == "lit"
        else "1" + cd.elias_encode(a) + cd.elias_encode(b - cd._LZ77_MIN_MATCH + 1)
        for kind, a, b in _lz77_tokens(word)
    )


# -- differential checks -------------------------------------------------------


def check_word(word, k, full_lz77=True):
    """Every branch cost, the selector, bits_len and the codeword of one
    word against the references.  The reference lz77 payload is rebuilt
    only when `full_lz77` is set or that branch wins."""
    comp = cd.PrefixFreeCompressor(k)
    ends = (len(word),)
    enum = _enum_payload_len(word, k)
    lz78 = lzr.costs(word, k, ends, (math.inf,))[0]
    lz77 = _lz77_payload_len(word, k)
    assert cd._enum_cost(word, k) == enum
    assert cd._lz77_costs(word, k, ends, (lz77 + 1,)) == [lz77]
    for budget in (lz77 - 1, lz77, 0, 1, enum):
        if budget <= lz77:
            assert cd._lz77_costs(word, k, ends, (budget,))[0] >= budget
    for budget in (enum - 1, enum, enum + 1, 0, lz78):
        got = cd._enum_cost(word, k, budget)
        assert got == enum if enum < budget else budget <= got <= enum
    ref = [enum + cd.phased_len(0, 3), lz78 + cd.phased_len(1, 3), lz77 + cd.phased_len(2, 3)]
    header = cd.elias_encode(len(word) + 1)
    if not word:
        best = 0
        assert comp.bits_len(word) == len(header) + 1
    else:
        best = min(range(3), key=lambda i: (ref[i], i))
        costs = comp._costs(word, ends, (math.inf,))[0]
        # enum is exact, lz78 while it beats enum, and lz77 while it can win
        assert costs[0] == ref[0]
        assert costs[1] == ref[1] if ref[1] < ref[0] else ref[0] <= costs[1] <= ref[1]
        assert costs[2] == ref[2] if best == 2 else costs[2] >= ref[best]
        assert comp._best(word) == best
        assert comp.bits_len(word) == len(header) + ref[best]
    payload = (_enum_payload, lzr.payload, _lz77_payload)[best](word, k) if word else ""
    code = comp.encode(word)
    assert code == header + cd.phased_encode(best, 3) + payload
    assert comp.decode(code) == word
    assert cd._enum_payload(word, k) == _enum_payload(word, k)
    if full_lz77 or best == 2:
        assert cd._lz77_payload(word, k) == _lz77_payload(word, k)
    return best


# no binary word of length <= 12 is won by the copy branch
@pytest.mark.parametrize("k, max_len, winners", [(2, 12, {0, 1}), (3, 8, {0, 1, 2})])
def test_every_short_word_matches_references(k, max_len, winners):
    won = set()
    for n in range(max_len + 1):
        for word in itertools.product(range(k), repeat=n):
            won.add(check_word(word, k, full_lz77=False))
    assert won == winners


@pytest.mark.parametrize("k", [2, 3, 4])
def test_seeded_words_match_references(k):
    won = {check_word(word, k) for _, alphabet, word in corpus() if alphabet == k}
    assert 0 in won and 2 in won


def _as_pairs(tokens):
    return [(0, a) if kind == "lit" else (a, b) for kind, a, b in tokens]


def _parses_by_end(word, k, ends):
    """The parse of word[:m] for every end m, read off one `_lz77_tokens`
    pass: the tokens that finish by m plus m's cut."""
    parses, done, pos = {}, [], 0
    for offset, value, cuts in cd._lz77_tokens(word, k, ends):
        end = pos + (value if offset else 1)
        for cut, m in zip(cuts, [m for m in ends if pos < m <= end]):
            parses[m] = done + list(cut)
        done.append((offset, value))
        pos = end
    return parses


@settings(max_examples=40, deadline=None)
@given(
    k=st.sampled_from((2, 3, 5, 300)),
    style=st.sampled_from(STYLES),
    n=st.one_of(st.integers(1, 64), st.integers(65, 1 << 12)),
    seed=st.integers(0, 1 << 32),
)
def test_lz77_tokens_and_cuts_match_the_automaton(k, style, n, seed):
    """Bit-parallel tokens and cuts against the dict-per-state automaton:
    for each end m the tokens finishing by m plus m's cut are the
    reference parse of word[:m].  The ends include 1, 2, the word's end,
    token ends, and ends three symbols into a copy and one before its
    end, which the match walk may have passed."""
    rng = random.Random(seed)
    word = make_word(rng, k, style, n)
    tokens = list(_lz77_tokens(word))
    starts = list(itertools.accumulate((t[2] for t in tokens), initial=0))
    ends = {1, 2, n} | set(rng.sample(starts[1:], min(len(tokens), 4)))
    copies = [(starts[i], t[2]) for i, t in enumerate(tokens) if t[0] == "copy" and t[2] > 4]
    for start, length in rng.sample(copies, min(len(copies), 3)):
        ends |= {start + 3, start + length - 1}
    ends = sorted(m for m in ends if m <= n)
    parses = _parses_by_end(word, k, ends)
    assert sorted(parses) == ends
    for m in ends:
        assert parses[m] == _as_pairs(_lz77_tokens(word[:m])), (m, parses[m])


def test_lz77_tokens_on_a_wide_alphabet():
    """4,096 uniform symbols over 1,024 letters: wider than a byte, so the
    history masks are built one bit at a time."""
    rng = random.Random(17)
    word = tuple(rng.randrange(1024) for _ in range(4096))
    got = [(offset, value) for offset, value, _ in cd._lz77_tokens(word, 1024, (len(word),))]
    assert got == _as_pairs(_lz77_tokens(word))
    comp = cd.PrefixFreeCompressor(1024)
    assert comp.decode(comp.encode(word)) == word


# -- the lz78 fold -------------------------------------------------------------


@pytest.mark.parametrize("k", (2, 3, 4, 7, 300))
@pytest.mark.parametrize("style", ("random", "zeros", "periodic", "biased"))
def test_lz78_fold_matches_the_generator_reference(k, style):
    """Per-prefix costs and phrase indices of the integer-keyed fold against
    the generator and its fold: sorted ends with 0 and duplicates, budgets
    of infinity, 0, the exact cost and values that stop the fold
    mid-word.  A stopped fold's indices are the reference's first ones."""
    rng = random.Random(f"{k}-{style}")
    for n in (1, 2, 9, 200, 3000):
        word = (0,) * n if style == "zeros" else make_word(rng, k, style, n)
        ends = sorted([0, n, n] + [rng.randint(0, n) for _ in range(5)])
        exact = lzr.costs(word, k, ends, [math.inf] * len(ends))
        phrases = lzr.indices(word, k)
        budgets = [
            [math.inf] * len(ends),
            [0] * len(ends),
            exact,
            [c + 1 for c in exact],
            [c // 3 for c in exact],
            [rng.randint(0, c + 1) for c in exact],
        ]
        for budget in budgets:
            indices = []
            got = cd._lz_costs(word, k, ends, budget, indices)
            assert got == lzr.costs(word, k, ends, budget), (n, budget)
            assert indices == phrases[: len(indices)]
            if all(c < b for c, b in zip(exact, budget)):
                assert got == exact and indices == phrases
        assert cd._lz_payload(word, k) == lzr.payload(word, k)


# -- enumerative block walks ---------------------------------------------------

# lengths on both sides of the narrow width (a uniform binary layer of n
# positions has a class size of about n bits), and 2**14
ENUM_LENGTHS = (1, 2, 7, 64, 1000, 1900, 2300, 4000, 1 << 14)


def _unrank_with_failing_guesses(rank, m, r, size, positions):
    """`_combinadic_unrank` with every block guess wrong in its first bit;
    returns the positions and the number of guesses made."""
    ones = set(positions)
    guesses = []

    def wrong(f, p, t, n):
        guesses.append(p)
        return [(p - 1 - i in ones) != (i == 0) for i in range(n)]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cd, "_guess_block", wrong)
        return cd._combinadic_unrank(rank, m, r, size), len(guesses)


@settings(max_examples=30, deadline=None)
@given(
    k=st.sampled_from((2, 3, 5)),
    style=st.sampled_from(STYLES),
    n=st.sampled_from(ENUM_LENGTHS),
    seed=st.integers(0, 1 << 32),
)
@example(k=2, style="random", n=1 << 14, seed=1)
@example(k=2, style="biased", n=1 << 14, seed=2)
@example(k=3, style="periodic", n=1 << 14, seed=3)
@example(k=5, style="random", n=4000, seed=4)
def test_layer_walks_match_the_per_position_walks(k, style, n, seed):
    """Every layer's rank, its cut walks and its unrank against the
    per-position references: cuts at rank - 1, rank, rank + 1, 0, size - 1,
    size and 2^k - size, and the unrank again with every guess wrong."""
    word = make_word(random.Random(seed), k, style, n)
    for j, m, r in cd._enum_layers(word, k):
        size = math.comb(m, r)
        rank = _layer_rank(word, j, size, m, r)
        assert cd._layer_rank(word, j, size, m, r) == rank
        short = (1 << (size - 1).bit_length()) - size
        for cut in {rank - 1, rank, rank + 1, 0, size - 1, size, short} - {-1}:
            assert (cd._layer_rank(word, j, size, m, r, cut) < cut) == (rank < cut), cut
        positions = _combinadic_unrank(rank, m, r)
        assert cd._combinadic_unrank(rank, m, r, size) == positions
        got, guesses = _unrank_with_failing_guesses(rank, m, r, size, positions)
        assert got == positions
        assert guesses or size.bit_length() <= cd._NARROW_BITS


@pytest.mark.parametrize(
    "m, r", [(1, 0), (1, 1), (12, 5), (3000, 1500), (1 << 14, 1 << 13), (1 << 14, 2458)]
)
def test_unrank_ends_of_the_range(m, r):
    """Ranks 0 and size - 1 unrank as the reference does and rank back;
    size and -1 raise CodeError."""
    size = math.comb(m, r)
    for rank in {0, size - 1}:
        positions = _combinadic_unrank(rank, m, r)
        assert cd._combinadic_unrank(rank, m, r, size) == positions
        assert _unrank_with_failing_guesses(rank, m, r, size, positions)[0] == positions
        ones = set(positions)
        word = tuple(int(i in ones) for i in range(m))
        assert cd._layer_rank(word, 1, size, m, r) == rank
    for rank in (size, -1):
        with pytest.raises(cd.CodeError):
            cd._combinadic_unrank(rank, m, r, size)


# -- per-prefix costs and budgets ---------------------------------------------


@pytest.mark.parametrize("k, max_len", [(2, 12), (3, 8)])
def test_prefix_costs_match_bits_len_on_every_short_word(k, max_len):
    # every shorter word is a prefix of some word of the largest length
    comp = cd.PrefixFreeCompressor(k)
    words = [w for n in range(max_len + 1) for w in itertools.product(range(k), repeat=n)]
    ref = {w: comp.bits_len(w) for w in words}
    rng = random.Random(29)
    for word in itertools.product(range(k), repeat=max_len):
        ends = range(max_len + 1)
        assert comp.prefix_bits_len(word, ends) == [ref[word[:m]] for m in ends]
        some = sorted(rng.sample(range(max_len + 1), rng.randint(1, 4)))
        assert comp.prefix_bits_len(word, some) == [ref[word[:m]] for m in some]


def _corpus_ends(n):
    return sorted({1 << e for e in range(n.bit_length())} | {3, 5, n // 3, n - 1, n} - {0}) if n else [0]


def test_budgeted_prefix_costs_on_the_seeded_corpus():
    """Budgets just below, at and just above each exact cost, mixed across
    the ends of one call: a cost below its budget is exact, and any other
    is a lower bound at least the budget."""
    for _, k, word in corpus():
        comp = cd.PrefixFreeCompressor(k)
        ends = [m for m in _corpus_ends(len(word)) if m <= len(word)]
        exact = comp._prefix_bits_len(word, ends)
        assert exact == [comp.bits_len(word[:m]) for m in ends]
        for shift in range(3):
            budgets = [e + (-1, 0, 1)[(i + shift) % 3] for i, e in enumerate(exact)]
            got = comp._prefix_bits_len(word, ends, budgets)
            for e, b, g in zip(exact, budgets, got):
                assert g == e if e < b else b <= g <= e


@pytest.mark.parametrize("k", (2, 3, 256))
@pytest.mark.parametrize("style", ("random", "zeros", "periodic", "biased"))
def test_bytes_words_cost_and_code_as_their_tuples(k, style, monkeypatch):
    """`_check_word` hands the kernels a word's bytes; with a check that
    hands them the tuple instead, bits_len, prefix_bits_len, encode and
    budgeted `_prefix_bits_len` give the same values and codewords, on
    tuple, list and bytes inputs."""
    check = cd._check_word
    rng = random.Random(f"{k}-{style}")
    comp = cd.PrefixFreeCompressor(k)
    for n in (0, 1, 5, 300, 2000):
        word = (0,) * n if style == "zeros" else make_word(rng, k, style, n)
        ends = [m for m in _corpus_ends(n) if m <= n]
        budgets = [rng.randint(0, n + 64) for _ in ends]
        answers = []
        for form in (tuple, bytes):
            monkeypatch.setattr(cd, "_check_word", lambda w, a: form(check(w, a)))
            got = []
            for given in (word, list(word), bytes(word)):
                assert type(cd._check_word(given, k)) is form
                got.append((comp.bits_len(given), comp.prefix_bits_len(given, ends), comp.encode(given)))
            assert got[1:] == got[:-1]
            checked = cd._check_word(word, k)
            answers.append((got[0], comp._prefix_bits_len(checked, ends, budgets)))
        assert answers[0] == answers[1], n
        assert comp.decode(answers[1][0][2]) == word


def test_binomial_bound_is_certified():
    def check(m, r):
        bound, size = cd._log2_comb_floor(m, r), math.comb(m, r)
        assert bound <= size.bit_length() and (bound <= 0 or 1 << bound <= size), (m, r)
        assert size.bit_length() - bound <= m.bit_length() + 4, (m, r)

    for m in range(1, 301):
        for r in range(m + 1):
            check(m, r)
    rng = random.Random(31)
    for _ in range(40):
        m = rng.randrange(301, 1 << 16)
        check(m, rng.randrange(m + 1))
        check(m, rng.choice((1, 2, m // 2, m - 1)))


# -- class sizes from prime exponents ------------------------------------------


def test_prime_comb_matches_math_comb_on_every_small_pair():
    for m in range(201):
        for r in range(m + 1):
            assert cd._prime_comb(m, r) == math.comb(m, r), (m, r)


def test_class_size_matches_math_comb_on_both_sides_of_the_cutover():
    """Seeded pairs up to m = 2**16: r <= 256 always takes math.comb, and
    r in [m/4, m/2] with m >= 2048 always takes the primes (its width
    times r is then above 256 m); the rest fall either way.  The edges
    r in {0, 1, m - 1, m} are checked at every drawn m."""
    rng = random.Random(21)
    pairs = []
    for e in range(1, 17):
        m = rng.randrange(1 << (e - 1), 1 << e) + 1
        pairs += [(m, r) for r in {0, 1, m - 1, m}]
        pairs += [(m, rng.randrange(min(m, 256) + 1)), (m, rng.randrange(m + 1))]
        if m >= 2048:
            pairs.append((m, rng.randrange(m // 4, m // 2 + 1)))
    for m, r in pairs:
        size = math.comb(m, r)
        assert cd._class_size(m, r) == size == cd._prime_comb(m, r), (m, r)
        assert cd._class_size(m, m - r) == size, (m, r)


def test_wide_ternary_word_round_trips_through_the_prime_kernel(monkeypatch):
    """A random ternary word of 2**14 symbols: both layers' class sizes
    are wide, so encode, decode and bits_len all take `_prime_comb`."""
    kernel, calls = cd._prime_comb, []

    def counted(m, r):
        calls.append((m, r))
        return kernel(m, r)

    monkeypatch.setattr(cd, "_prime_comb", counted)
    comp = cd.PrefixFreeCompressor(3)
    word = make_word(random.Random(14), 3, "random", 1 << 14)
    code = comp.encode(word)
    assert code[: cd.elias_len(len(word) + 1) + 1].endswith("0")  # the enum branch won
    assert comp.decode(code) == word
    assert len(code) == comp.bits_len(word)
    layers = [(m, min(r, m - r)) for _, m, r in cd._enum_layers(word, 3)]
    assert calls == layers * 3  # costed in encode, then decode, then bits_len


def _layer_cases():
    """(word, alphabet) with the walk's edge cases: a layer without ones
    (r = 0) or of ones only (r = m), a class size that is a power of two,
    ones packed at the bottom or the top of a layer, and layers interleaved
    with higher symbols."""
    yield (0,) * 9, 2
    yield (1,) * 9, 2
    yield (2, 0, 2, 0, 0), 3  # layer 2 has r = 2, layer 1 has r = 0
    yield (1, 2, 1, 2, 1), 3  # layer 1 has r = m = 3
    for m in (2, 4, 8, 16, 64, 128):
        for i in range(m):  # C(m, 1) and C(m, m - 1): powers of two
            yield tuple(int(p == i) for p in range(m)), 2
            yield tuple(int(p != i) for p in range(m)), 2
    yield (0, 1, 1, 0), 2  # C(4, 2) = 6, short = 2
    for m in range(1, 40):
        for r in range(m + 1):
            yield (1,) * r + (0,) * (m - r), 2  # packed at the bottom: rank 0
            yield (0,) * (m - r) + (1,) * r, 2  # packed at the top: the last rank
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randrange(1, 60)
        yield tuple(rng.randrange(4) for _ in range(m)), 4


def test_layer_walk_edge_cases():
    for word, k in _layer_cases():
        check_word(word, k)
        counts = [word.count(c) for c in range(k)]
        layers = _grown_layers(word, k)
        for j in range(k - 1, 0, -1):
            m, r = sum(counts[: j + 1]), counts[j]
            size, rank = math.comb(m, r), layers[j].rank
            assert size == layers[j].size
            assert cd._layer_rank(word, j, size, m, r) == rank
            for cut in {0, 1, rank - 1, rank, rank + 1, size - 1, size}:
                if 0 <= cut <= size:
                    s = cd._layer_rank(word, j, size, m, r, cut)
                    assert s <= rank and (s < cut) == (rank < cut), (word, j, cut)


def test_codewords_match_golden():
    assert golden_lines() == GOLDEN.read_text().splitlines()


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(golden_lines()) + "\n")
