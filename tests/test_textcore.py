import math
from collections import Counter

import numpy as np
import pytest

from conftest import gdb_grid, random_text
from gclab.debruijn import GdBParams, generalized_word, verify_gdb
from gclab.greedy import greedy_run
from gclab.parsing import lz77_parse_nonself
from gclab.repair import repair_run
from gclab.textcore import (
    Text,
    _context_counts,
    _hk,
    _level_counts,
    count_occurrences,
    empirical_entropy,
    entropy_profile,
)

LOG2E = math.log2(math.e)


# -- brute-force oracles -------------------------------------------------------


def count_oracle(symbols, pattern, cyclic):
    symbols = tuple(symbols)
    pattern = tuple(pattern)
    n = len(symbols)
    if not pattern:
        return n
    if cyclic:
        ext = symbols + symbols
        return sum(1 for i in range(n) if ext[i : i + len(pattern)] == pattern)
    return sum(
        1 for i in range(n - len(pattern) + 1) if symbols[i : i + len(pattern)] == pattern
    )


def entropy_oracle(symbols, k, cyclic):
    """Straight from the definition: -sum |w|_va log(|w|_va / |w|_v),
    counts being (cyclic) substring counts and |w|_eps := |w|."""
    symbols = tuple(symbols)
    n = len(symbols)
    if n == 0 or (not cyclic and k + 1 > n):
        return 0.0
    ext = symbols + symbols if cyclic else symbols
    limit = n if cyclic else n - k
    if k == 0:
        ctx = Counter({(): n})
    else:
        ctx = Counter(ext[i : i + k] for i in range(n if cyclic else n - k + 1))
    pairs = Counter(ext[i : i + k + 1] for i in range(limit))
    total = 0.0
    for va, c in pairs.items():
        total -= c * math.log2(c / ctx[va[:-1]])
    return total


# -- construction and counting ---------------------------------------------------


def test_text_validation():
    assert Text([0, 2], 3).symbols == (0, 2)
    with pytest.raises(ValueError):
        Text([0, 3], 3)
    with pytest.raises(ValueError):
        Text([3], 3)
    with pytest.raises(ValueError):
        Text([0], 0)
    assert len(Text([], 1)) == 0
    # out of range below, at sigma and past int64, by list and by tokens
    for bad in (-1, 7, 1 << 64):
        with pytest.raises(ValueError):
            Text([0, bad], 7)
        with pytest.raises(ValueError):
            Text.from_tokens(f"sigma=7\n0 {bad}\n")
    # the Text holds its own read-only copy of the caller's array
    source = np.array([1, 0, 2], dtype=np.int64)
    t = Text(source, 3)
    source[0] = 2
    assert t.symbols == (1, 0, 2)
    assert not t.array.flags.writeable
    with pytest.raises(ValueError):
        t.array[0] = 0


def test_token_round_trip():
    t = Text([5, 0, 2], 7)
    assert Text.from_tokens(t.to_tokens()) == t
    with pytest.raises(ValueError):
        Text.from_tokens("3 1 2")
    # every way in builds the same Text
    forms = [
        Text([97, 98, 99], 256),
        Text((97, 98, 99), 256),
        Text(range(97, 100), 256),
        Text((c for c in b"abc"), 256),
        Text.from_bytes(b"abc"),
        Text(np.array([97, 98, 99], dtype=np.int32), 256),
        Text.from_tokens(Text([97, 98, 99], 256).to_tokens()),
    ]
    for form in forms:
        assert form == forms[0] and hash(form) == hash(forms[0])
        assert form.array.dtype == np.int64
        assert type(form.symbols) is tuple and all(type(s) is int for s in form.symbols)
    assert Text([97, 98, 99], 257) != forms[0]
    assert Text([97, 98], 256) != forms[0]


def test_symbols_tuple_built_only_on_request():
    # the array is the storage: the numpy consumers never build the tuple
    params = GdBParams(2, 1, 1)
    runs = {
        "lz77_parse_nonself": lz77_parse_nonself,
        "verify_gdb": lambda t: verify_gdb(t, params),
        "repair_run": repair_run,
        "greedy_run": greedy_run,
    }
    for name, run in runs.items():
        word = generalized_word(params)
        run(word)
        assert "symbols" not in word.__dict__, name
    assert word.symbols == tuple(word.array.tolist())
    assert "symbols" in word.__dict__


def test_count_overlapping_runs():
    assert count_occurrences(Text.from_string("aaaa"), (0, 0)) == 3


def test_count_empty_pattern_is_length():
    # convention: |w|_eps := |w|
    assert count_occurrences(Text.from_string("abab"), ()) == 4
    assert count_occurrences(Text.from_string("abab"), (), cyclic=True) == 4


def test_count_cyclic_example():
    # enumerate all 4 cyclic start positions of "ba" in "abab"
    t = Text.from_string("abab")
    assert count_oracle(t.symbols, (1, 0), True) == 2
    assert count_occurrences(t, (1, 0), cyclic=True) == 2


def test_count_longer_than_text():
    t = Text.from_string("ab")
    assert count_occurrences(t, (0, 1, 0)) == 0
    with pytest.raises(ValueError):
        count_occurrences(t, (0, 1, 0), cyclic=True)


def test_count_matches_oracle_randomized(rng):
    for _ in range(40):
        sigma = rng.choice([2, 3, 5])
        t = random_text(rng, sigma, rng.randrange(1, 60))
        for _ in range(20):
            plen = rng.randrange(0, min(len(t), 6) + 1)
            pat = [rng.randrange(sigma) for _ in range(plen)]
            assert count_occurrences(t, pat) == count_oracle(t.symbols, pat, False)
            assert count_occurrences(t, pat, cyclic=True) == count_oracle(
                t.symbols, pat, True
            )


def test_count_linear_vs_cyclic_bracket(rng):
    for _ in range(30):
        t = random_text(rng, 3, rng.randrange(2, 40))
        for _ in range(10):
            plen = rng.randrange(1, len(t) + 1)
            pat = t.symbols[:plen]
            lin = count_occurrences(t, pat)
            cyc = count_occurrences(t, pat, cyclic=True)
            assert lin <= cyc <= lin + plen - 1


def test_suffix_index_matches_oracle(rng):
    # suffix array, LCP and LCP-interval window counts against sorted
    # suffixes, direct comparison and a scan, on random, run-heavy and
    # periodic texts, sigma up to 2^32
    for trial in range(200):
        sigma = (1, 2, 3, 4, 1 << 32)[trial % 5]
        letters = rng.sample(range(sigma), min(sigma, 3))
        n = rng.randrange(0, 60)
        if trial % 3 == 0:
            unit = [rng.choice(letters) for _ in range(rng.randrange(1, 4))]
            symbols = (unit * 60)[:n]
        else:
            symbols = []
            while len(symbols) < n:
                symbols += [rng.choice(letters)] * rng.randrange(1, 4 if trial % 3 == 1 else 2)
            symbols = symbols[:n]
        index = Text(symbols, sigma)._index
        sa = sorted(range(n), key=lambda i: symbols[i:])
        assert index.sa.tolist() == sa
        assert index.rank.tolist() == sorted(range(n), key=sa.__getitem__)

        def lcp(a, b):
            k = 0
            while a + k < n and b + k < n and symbols[a + k] == symbols[b + k]:
                k += 1
            return k

        assert index.lcp.tolist() == [0][:n] + [lcp(sa[r - 1], sa[r]) for r in range(1, n)]
        if n:
            starts = [rng.randrange(n) for _ in range(20)]
            lengths = [rng.randrange(n - a + 1) for a in starts]
            got = index.count_windows(np.array(starts), np.array(lengths)).tolist()
            assert got == [count_oracle(symbols, symbols[a : a + m], False)
                           for a, m in zip(starts, lengths)]


def window_oracle(symbols, g, cyclic):
    """All length-g windows as tuples: n cyclic starts (g <= n) or n-g+1
    linear ones."""
    n = len(symbols)
    if cyclic:
        ext = symbols + symbols
        return [ext[i : i + g] for i in range(n)]
    return [symbols[i : i + g] for i in range(n - g + 1)]


def test_window_counts_match_counter_oracle(rng):
    texts = [Text([], 1), Text([0], 1), Text([1], 2), Text.from_string("ab"),
             Text.from_string("abab"), Text.from_string("aaaa")]
    texts += [random_text(rng, sigma, rng.randrange(1, 40))
              for sigma in (2, 3, 5, 256, 1 << 32) for _ in range(6)]
    texts += [random_text(rng, sigma, 12) for sigma in (256, 1 << 32)]
    for t in texts:
        n = len(t)
        for g in range(n + 2):
            for cyclic in (False, True):
                if cyclic and g > n:
                    with pytest.raises(ValueError):
                        t.position_counts(g, cyclic)
                    with pytest.raises(ValueError):
                        t.window_count_histogram(g, cyclic)
                    continue
                # linear g > n: no windows, so both results are empty
                windows = window_oracle(t.symbols, g, cyclic)
                counter = Counter(windows)
                got = t.position_counts(g, cyclic).tolist()
                assert got == [counter[w] for w in windows], (t, g, cyclic)
                assert t.window_count_histogram(g, cyclic) == dict(Counter(counter.values()))
        # both modes from one sorted level: the linear counts are the cyclic
        # ones less the g-1 windows that wrap, up to g = n, where only the
        # window at 0 does not wrap (no level when n = 0); the histogram is
        # the cyclic one when that mode is asked for, else the linear one
        levels = list(t._rank_ladder(n))
        assert [g for g, *_ in levels] == list(range(1, n + 1))
        for g, *level in levels:
            for modes in ((True, False), (False, True), (True,), (False,)):
                counts, hist = _level_counts(*level, g - 1, modes, histogram=True)
                for cyclic in modes:
                    windows = window_oracle(t.symbols, g, cyclic)
                    counter = Counter(windows)
                    assert counts[cyclic].tolist() == [counter[w] for w in windows], (t, g, modes)
                    if cyclic or True not in modes:
                        assert hist == dict(Counter(counter.values())), (t, g, modes)


def test_remap_matches_unique_oracle():
    rng = np.random.default_rng(20)
    texts = [Text([], 1), Text([], 1 << 32), Text([0], 1), Text([6], 9), Text([(1 << 32) - 1], 1 << 32)]
    for sigma in (1, 2, 255, 256, 257, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 1 << 32):
        for n in (2, 7, 255, 256, 257, 3000, 70000):
            texts.append(Text(rng.integers(0, sigma, n), sigma))
            # few distinct letters, the largest symbol of the alphabet among them
            letters = np.append(rng.integers(0, sigma, 3), sigma - 1)
            texts.append(Text(rng.choice(letters, n), sigma))
    # largest symbol just below n, at n and past it
    for n in (1, 2, 5, 300):
        for top in (n - 1, n, n + 1, 1 << 31):
            symbols = np.append(rng.integers(0, top + 1, n - 1), top)
            texts.append(Text(rng.permutation(symbols), 1 << 32))
    for t in texts:
        uniq, inv = np.unique(t.array, return_inverse=True)
        arr, base = t._remap
        assert arr.dtype == np.int64 and np.array_equal(arr, inv), t
        assert base == max(1, len(uniq)), t


def unique_ladder(text, g_max):
    """The rank ladder by one np.unique sort of (level g-1 rank, next symbol)
    keys per level: the reference for Text._rank_ladder's prefix extension."""
    arr, base = text._remap
    ranks = arr
    for g in range(1, min(g_max, len(text.symbols)) + 1):
        if g > 1:
            ranks = np.unique(ranks * base + np.roll(arr, 1 - g), return_inverse=True)[1]
        yield g, ranks


def assert_ladders_equal(text, g_max):
    """Each sorted level lists its windows in non-decreasing order with their
    dense ranks, its runs start exactly where the window changes, and
    window_codes scatters the level back to the oracle's int64 ranks."""
    n = len(text)
    got = list(text._rank_ladder(g_max))
    want = list(unique_ladder(text, g_max))
    assert [g for g, *_ in got] == [g for g, _ in want], (text, g_max)
    for (g, order, dense, bounds), (_, expected) in zip(got, want):
        assert sorted(order.tolist()) == list(range(n)), (text, g_max, g)
        ranked = expected[order]
        assert np.all(ranked[1:] >= ranked[:-1]) and np.array_equal(dense, ranked), (text, g_max, g)
        changes = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
        assert bounds.tolist() == [0] + changes.tolist() + [n], (text, g_max, g)
    for cyclic in (False, True):
        if cyclic and g_max > n:
            with pytest.raises(ValueError):
                text.window_codes(g_max, cyclic)
            continue
        if g_max == 0:
            expected = np.zeros(n if cyclic else n + 1, dtype=np.int64)
        elif g_max > n:
            expected = np.zeros(0, dtype=np.int64)
        else:
            expected = want[-1][1][: n if cyclic else n - g_max + 1]
        codes = text.window_codes(g_max, cyclic)
        assert codes.dtype == np.int64 and np.array_equal(codes, expected), (text, g_max, cyclic)


def test_rank_ladder_matches_unique_oracle():
    rng = np.random.default_rng(15)
    texts = [Text([], 1), Text([0], 1), Text([6], 9)]
    for sigma in (1, 2, 4, 70, 300, 70000):
        for n in (2, 3, 8, 17, 40):
            texts.append(Text(rng.integers(0, sigma, n).tolist(), sigma))
            period = rng.integers(0, sigma, int(rng.integers(1, 6)))
            texts.append(Text(np.resize(period, n).tolist(), sigma))
    for t in texts:
        for g_max in range(len(t) + 3):
            assert_ladders_equal(t, g_max)
    # observed alphabets at the first-symbol dtype edges: 256 (uint8), 300
    # (uint16) and 70000 (int64, above 2^16), with repeated windows
    for sigma in (256, 300, 70000):
        block = rng.permutation(sigma)
        symbols = np.concatenate([block, block, rng.integers(0, sigma, 50), block[:99]])
        assert_ladders_equal(Text(symbols.tolist(), sigma), 6)


# -- the rank-based walk, kept as the oracle of _context_counts ----------------------
#
# The rank ladder and its counter as they stood before the levels were counted
# from their sorted runs: every level scattered back to a fresh int64 rank
# array, counted by one bincount of the ranks and gathered per position.


def oracle_rank_ladder(self, g_max: int):
    arr, base = self._remap
    n = len(arr)
    top = min(g_max, n)
    if top < 1:
        return
    yield 1, arr
    if top == 1:
        return
    first = arr if base > 1 << 16 else arr.astype(np.uint8 if base <= 1 << 8 else np.uint16)
    pos = np.int32 if n < 1 << 31 else np.int64
    order = np.argsort(first, kind="stable").astype(pos)  # positions by window
    dense = arr[order].astype(pos)                         # their ranks, ascending
    for g in range(2, top + 1):
        order -= 1
        order[order < 0] = n - 1
        key = first[order]
        perm = np.argsort(key, kind="stable")
        order, key, prev = order[perm], key[perm], dense[perm]
        # only first, order and dense stay alive while a level is consumed
        del perm
        np.cumsum((key[1:] != key[:-1]) | (prev[1:] != prev[:-1]), out=dense[1:])
        del key, prev
        ranks = np.empty(n, dtype=np.int64)
        ranks[order] = dense
        yield g, ranks


def oracle_level_counts(ranks: np.ndarray, wrap: int, modes, histogram: bool = False):
    n = len(ranks)
    per_rank = np.bincount(ranks)
    counts, hist = {}, None
    for cyclic in sorted(modes, reverse=True):  # the cyclic counts before the in-place take
        if not cyclic:
            np.subtract.at(per_rank, ranks[n - wrap :], 1)
        if histogram and not counts:
            vals, mult = np.unique(per_rank[per_rank > 0], return_counts=True)
            hist = {int(v): int(m) for v, m in zip(vals, mult)}
        counts[cyclic] = per_rank[ranks if cyclic else ranks[: n - wrap]]
    return counts, hist


def oracle_context_counts(text: Text, k_lo: int, k_hi: int, modes, histogram: bool = False):
    n = len(text)
    if True in modes and 0 < n <= k_hi:
        raise ValueError("cyclic entropy requires k < |text|")
    d = dict.fromkeys(modes, np.full(n, n))
    for g, ranks in oracle_rank_ladder(text, k_hi + 1):
        if g >= k_lo:
            c, hist = oracle_level_counts(ranks, g - 1, modes, histogram)
            if g > k_lo:
                yield g - 1, hist, {cyclic: _hk(d[cyclic], c[cyclic], cyclic) for cyclic in modes}
            d = c


def walk_record(walk):
    """Everything a _context_counts walk yields, in a form compared exactly:
    histograms with their items order, totals by repr, linear terms by their
    bytes; or the error it raised."""
    try:
        return [
            (k, None if hist is None else list(hist.items()),
             {cyclic: (repr(total), None if terms is None else (terms.dtype.str, terms.tobytes()))
              for cyclic, (total, terms) in orders.items()})
            for k, hist, orders in walk
        ]
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_walks_match(text, k_lo, k_hi, modes, histogram):
    want = walk_record(oracle_context_counts(text, k_lo, k_hi, modes, histogram))
    got = walk_record(_context_counts(text, k_lo, k_hi, modes, histogram))
    assert got == want, (text, k_lo, k_hi, modes, histogram)


def test_context_counts_match_rank_walk():
    rng = np.random.default_rng(22)
    texts = []
    for sigma in (1, 2, 3, 4, 256, 70000):
        for n in (0, 1, 2, 3, 4, 5, 6, 9, 14, 23, 37, 59):
            texts.append(Text(rng.integers(0, sigma, n), sigma))
            period = rng.integers(0, sigma, int(rng.integers(1, 6)))
            texts.append(Text(np.resize(period, n), sigma))
            texts.append(Text(np.full(n, sigma - 1), sigma))
    flavours = [(modes, histogram)
                for modes in ((True, False), (False, True), (True,), (False,))
                for histogram in (False, True)]
    for t in texts:
        n = len(t)
        # on the short texts every k range up to k = n + 1 in every flavour;
        # on the longer ones the ranges between the orders at both ends and
        # the middle, each in the next flavour in turn
        ks = range(n + 2) if n < 6 else sorted({0, 1, n // 2, n - 2, n - 1, n, n + 1})
        ranges = [(k_lo, k_hi) for k_hi in ks for k_lo in ks if k_lo <= k_hi]
        for i, (k_lo, k_hi) in enumerate(ranges):
            for modes, histogram in flavours if n < 6 else flavours[i % 8 : i % 8 + 1]:
                assert_walks_match(t, k_lo, k_hi, modes, histogram)
    # the certificate's walk on every grid word up to 2^16
    for params in gdb_grid(1 << 16):
        assert_walks_match(generalized_word(params), 0, params.z - 1, (True, False), True)


# -- entropy ------------------------------------------------------------------------


def test_entropy_single_letter_text():
    assert empirical_entropy(Text.from_string("aaaa"), 0) == (0.0, 0.0)


def test_entropy_abab_k1():
    total, per = empirical_entropy(Text.from_string("abab"), 1)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert per == pytest.approx(0.25, abs=1e-9)
    assert entropy_oracle("abab", 1, False) == pytest.approx(1.0, abs=1e-9)


def test_entropy_example_word_cyclic_k2():
    t = Text.from_string("aababcbbadccdbddaacadaccbdbbcddc")
    _, per = empirical_entropy(t, 2, cyclic=True)
    assert per == pytest.approx(1.0, abs=1e-9)  # log(sigma)/2 with sigma = 4


def test_entropy_rejects_bad_orders():
    t = Text.from_string("ab")
    with pytest.raises(ValueError):
        empirical_entropy(t, -1)
    for _ in range(2):  # a rejected order leaves no memo entry behind
        with pytest.raises(ValueError):
            empirical_entropy(t, 2, cyclic=True)


def test_entropy_matches_oracle_randomized(rng):
    for _ in range(40):
        sigma = rng.choice([2, 4, 7, 256, 1 << 32])
        t = random_text(rng, sigma, rng.randrange(2, 80))
        for k in range(0, 10):
            got, _ = empirical_entropy(t, k)
            assert got == pytest.approx(entropy_oracle(t.symbols, k, False), abs=1e-9)
            if k < len(t):
                got_c, _ = empirical_entropy(t, k, cyclic=True)
                assert got_c == pytest.approx(
                    entropy_oracle(t.symbols, k, True), abs=1e-9
                )


def test_entropy_range(rng):
    # 0 <= Hk <= log sigma, up to the boundary term of at most log2(e) bits in
    # total contributed by the final context occurrence without a successor
    for _ in range(20):
        sigma = rng.choice([2, 4, 16])
        t = random_text(rng, sigma, rng.randrange(4, 100))
        for k in range(0, 4):
            total, per = empirical_entropy(t, k)
            assert total >= -1e-12
            assert total <= len(t) * math.log2(sigma) + LOG2E + 1e-9
            if k == 0:
                assert per <= math.log2(sigma) + 1e-12


def test_cyclic_sandwich_corrected(rng):
    """|S|Hk <= |S|Hk_cyc + log2(e) and |S|Hk_cyc <= |S|Hk + k(log n + 8)."""
    texts = [random_text(rng, rng.choice([2, 4, 16]), rng.randrange(4, 120))
             for _ in range(40)]
    texts += [Text.from_string("abab"), Text.from_string("aabb" * 8)]
    for t in texts:
        n = len(t)
        for k in range(0, min(9, n)):
            lin, _ = empirical_entropy(t, k)
            cyc, _ = empirical_entropy(t, k, cyclic=True)
            assert lin <= cyc + LOG2E + 1e-9
            assert cyc <= lin + k * math.log2(n) + 8 * k + 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="with substring-count denominators the lower sandwich "
    "|S|Hk <= |S|Hk_cyclic fails by up to log2(e) bits in total "
    "(counterexample abab, k=1); the corrected form is asserted above",
)
def test_cyclic_sandwich_literal_lower_side():
    t = Text.from_string("abab")
    lin, _ = empirical_entropy(t, 1)
    cyc, _ = empirical_entropy(t, 1, cyclic=True)
    assert lin <= cyc + 1e-9


# -- profile ---------------------------------------------------------------------------


def test_profile_unary_text():
    # H_0 of a^n is exactly 0; for k >= 1 the literal formula keeps a small
    # boundary term: |S|H_1(aaaa) = 3 log(4/3), |S|H_2(aaaa) = 2 log(3/2)
    prof = entropy_profile(Text.from_string("aaaa"), 2)
    assert prof.total_bits(0) == 0.0
    assert prof.total_bits(1) == pytest.approx(3 * math.log2(4 / 3), abs=1e-9)
    assert prof.total_bits(2) == pytest.approx(2 * math.log2(3 / 2), abs=1e-9)
    for k in range(3):
        assert prof.total_bits(k) == pytest.approx(
            entropy_oracle("aaaa", k, False), abs=1e-9
        )
    # cyclically the text is fully deterministic at every order
    cyc = entropy_profile(Text.from_string("aaaa"), 2, cyclic=True)
    assert all(t == 0.0 for _, t, _ in cyc.per_order)


def test_profile_example_16_word():
    t = Text.from_string("abbbdacdcacabdcd")
    prof = entropy_profile(t, 2, cyclic=True)
    assert prof.bits_per_symbol(0) == pytest.approx(2.0, abs=1e-9)
    assert prof.bits_per_symbol(1) == pytest.approx(1.0, abs=1e-9)
    assert prof.bits_per_symbol(2) == pytest.approx(1.0, abs=1e-9)


def test_profile_mean_up_to():
    prof = entropy_profile(Text.from_string("abab"), 1)
    assert prof.mean_up_to[1] == pytest.approx(1.0, abs=1e-9)
    assert prof.mean_up_to[2] == pytest.approx((1.0 + 0.25) / 2, abs=1e-9)
    # total_bits consistency: total = per_symbol * n
    for k, total, per in prof.per_order:
        assert total == pytest.approx(per * 4, rel=1e-9)
