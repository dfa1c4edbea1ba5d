import math
from collections import Counter

import numpy as np
import pytest

from conftest import random_text
from gclab.textcore import (
    Text,
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


def test_token_round_trip():
    t = Text([5, 0, 2], 7)
    assert Text.from_tokens(t.to_tokens()) == t
    with pytest.raises(ValueError):
        Text.from_tokens("3 1 2")


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
    texts = [Text([], 1), Text([0], 1), Text.from_string("abab"), Text.from_string("aaaa")]
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
