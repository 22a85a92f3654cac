"""The lz78 phrase generator and its fold, kept as a reference for the tests.

`effdyn.coding._lz_costs` parses, costs and collects phrase indices in
one loop over an integer-keyed trie.  These are the computations that
came before it: a generator of (t, index, end) phrases over a trie keyed
by (node, symbol) pairs, and folds that cost and emit them through the
`_DiffCache` and `phased_len`.  The generator yields nothing at an end of
0, so `costs` gives the empty prefix its empty payload itself.
"""

from effdyn import coding as cd


def tokens(word, alphabet, ends):
    """(t, index, end) phrases of the seeded-dictionary longest-match parse
    of word[:ends[-1]], for sorted ends: each phrase closed on the way with
    end 0, and at each end m >= 1 the phrase still open there with end m.
    The parse of word[:m] is the phrases closed before m plus that one."""
    trie = {(-1, c): c for c in range(alphabet)}
    next_id = alphabet
    node = -1
    t = 1
    start = 0
    for end in ends:
        for c in word[start:end]:
            child = trie.get((node, c))
            if child is not None:
                node = child
                continue
            yield t, node, 0
            trie[(node, c)] = next_id
            next_id += 1
            t += 1
            node = trie[(-1, c)]
        start = end
        if end:
            yield t, node, end


def costs(word, alphabet, ends, budgets):
    """Payload length of word[:m] for each end m, from one parse.  The fold
    stops once the closed phrases reach every budget left, so a cost is
    exact below its budget and otherwise a lower bound at least the budget.
    The phrase open at m is costed from the cache without updating it."""
    empty = sum(1 for m in ends if m == 0)
    ends, budgets = ends[empty:], budgets[empty:]
    limits = cd._suffix_max(budgets)
    limit = limits[0]
    out = [0] * empty
    total = 0
    cache = cd._DiffCache()
    for t, index, end in tokens(word, alphabet, ends):
        size = alphabet + t - 1
        if end:
            diff = (size - 1) - index
            hit = diff == cache.first or diff == cache.second
            out.append(total + (2 if hit else 1 + cd.phased_len(index, size)))
            limit = limits[len(out) - empty]
            continue
        total += 1 + cd.phased_len(index, size) if cache.update((size - 1) - index) == 2 else 2
        if total >= limit:
            break
    return out + [total] * (len(ends) + empty - len(out))


def indices(word, alphabet):
    """Index of every phrase of the parse of the whole word."""
    return [index for _, index, _ in tokens(word, alphabet, (len(word),))]


def payload(word, alphabet):
    parts = []
    cache = cd._DiffCache()
    for t, index, _ in tokens(word, alphabet, (len(word),)):
        size = alphabet + t - 1
        slot = cache.update((size - 1) - index)
        parts.append("0" + cd.phased_encode(index, size) if slot == 2 else ("10", "11")[slot])
    return "".join(parts)

