import math
import time
from collections import Counter

import pytest

from conftest import random_text
from gclab.parsing import (
    InfiniteCostError,
    Parsing,
    best_offset_parsing,
    is_natural_parsing,
    lz77_parse_nonself,
    lz78_parse,
    parsing_cost,
    phrase_probability,
    verify_parsing_bounds,
)
from gclab.textcore import Text, count_occurrences, empirical_entropy


# -- oracles ------------------------------------------------------------------


def count(symbols, pattern):
    symbols, pattern = tuple(symbols), tuple(pattern)
    if not pattern:
        return len(symbols)
    return sum(
        1
        for i in range(len(symbols) - len(pattern) + 1)
        if symbols[i : i + len(pattern)] == pattern
    )


def prob_oracle(text, phrase, k=None):
    s = text.symbols
    n = len(s)
    phrase = tuple(phrase)
    if k is None:
        p = 1.0
        for j in range(1, len(phrase) + 1):
            num, den = count(s, phrase[:j]), count(s, phrase[: j - 1])
            if num == 0:
                return 0.0
            p *= num / den
        return p
    p = text.sigma ** -min(len(phrase), k)
    for j in range(k + 1, len(phrase) + 1):
        num = count(s, phrase[j - k - 1 : j])
        den = count(s, phrase[j - k - 1 : j - 1])
        if num == 0:
            return 0.0
        p *= num / den
    return p


def cost_oracle(parsing, k=None):
    return sum(
        -math.log2(prob_oracle(parsing.source, ph, k)) for ph in parsing.phrases
    )


def lz77ns_oracle(symbols):
    """Phrase lengths from the definition: at i, the longest L such that
    symbols[i : i+L] occurs inside symbols[:i], plus one fresh letter."""
    symbols = tuple(symbols)
    n = len(symbols)
    lengths = []
    i = 0
    while i < n:
        copy = 0
        while i + copy < n and count(symbols[:i], symbols[i : i + copy + 1]):
            copy += 1
        lengths.append(min(copy + 1, n - i))
        i += lengths[-1]
    return lengths


def lz77ns_texts(rng, count):
    """Seeded texts over sigma in {1, 2, 3, 4, 2^32}: uniform draws, runs and
    periodic words, each over at most four distinct symbols."""
    for t in range(count):
        sigma = (1, 2, 3, 4, 1 << 32)[t % 5]
        letters = rng.sample(range(sigma), min(sigma, 4))
        n = rng.randrange(1, 120)
        kind = t // 5 % 3
        if kind == 0:
            symbols = [rng.choice(letters) for _ in range(n)]
        elif kind == 1:
            symbols = []
            while len(symbols) < n:
                symbols += [rng.choice(letters)] * rng.randrange(1, 12)
        else:
            unit = [rng.choice(letters) for _ in range(rng.randrange(1, 6))]
            symbols = unit * (n // len(unit) + 1)
        yield Text(symbols[:n], sigma)


def entropy_of_word(seq):
    c = Counter(seq)
    n = len(seq)
    return sum(v * math.log2(n / v) for v in c.values()) if n else 0.0


# -- Parsing container -----------------------------------------------------------


def test_parsing_validation():
    t = Text.from_string("abab")
    with pytest.raises(ValueError):
        Parsing(t, (0, 4, 4))
    with pytest.raises(ValueError):
        Parsing(t, (1, 4))
    p = Parsing(t, (0, 2, 4))
    assert p.phrases == ((0, 1), (0, 1))
    assert p.lengths == (2, 2)
    assert len(Parsing(Text([], 1), (0,))) == 0


def test_parsing_serialization_round_trip():
    t = Text.from_string("abcab")
    p = Parsing.from_lengths(t, [2, 3])
    assert Parsing.loads(t, p.dumps()).boundaries == p.boundaries
    with pytest.raises(ValueError):
        Parsing.loads(Text.from_string("ab"), p.dumps())


# -- phrase probability ------------------------------------------------------------


def test_phrase_probability_telescopes():
    t = Text.from_string("abab")
    assert phrase_probability(t, (0, 1)) == pytest.approx(0.5)


def test_phrase_probability_k0():
    t = Text.from_string("abab")
    assert phrase_probability(t, (0, 1), 0) == pytest.approx(0.25)


def test_phrase_probability_absent():
    t = Text.from_string("abab")
    assert phrase_probability(t, (1, 1)) == 0.0


def test_phrase_probability_matches_oracle(rng):
    for _ in range(25):
        t = random_text(rng, rng.choice([2, 3]), rng.randrange(2, 40))
        for _ in range(10):
            ln = rng.randrange(1, 5)
            start = rng.randrange(0, len(t) - min(ln, len(t)) + 1)
            ph = t.symbols[start : start + ln]
            for k in (None, 0, 1, 2):
                assert phrase_probability(t, ph, k) == pytest.approx(
                    prob_oracle(t, ph, k), rel=1e-12
                )


def test_count_and_probability_edge_cases():
    # suffix-array search corners: symbols absent from the text or above its
    # observed alphabet, a 2^32 alphabet, whole-text, over-long and empty
    # patterns, and cyclic windows across the wrap point
    big = 1 << 32
    cases = [
        (Text([0, 2, 2, 0, 2], 5), [(1,), (4,), (2, 3), (0, 4), (2, 2, 4), (3, 3, 3)]),
        (Text([big - 1, 0, big - 1, big - 1, 7], big),
         [(big - 2,), (big - 1, big - 1), (7, big - 1), (1,), (big - 1, 8)]),
        (Text.from_string("abaababa"), [(2,), (0, 0, 0)]),
    ]
    for text, patterns in cases:
        s, n = text.symbols, len(text)
        patterns += [(), s, s + s[:1], s[n - 2 :] + s[:2], s[n - 1 :] + s[: n - 1], s[1:] + s[:1]]
        for pat in patterns:
            assert count_occurrences(text, pat) == count(s, pat), pat
            if len(pat) <= n:
                wrapped = count(s + s[: len(pat) - 1], pat) if pat else n
                assert count_occurrences(text, pat, cyclic=True) == wrapped, pat
            else:
                with pytest.raises(ValueError):
                    count_occurrences(text, pat, cyclic=True)
            for k in (None, 0, 1, 2):
                assert phrase_probability(text, pat, k) == pytest.approx(
                    prob_oracle(text, pat, k), rel=1e-12
                ), (pat, k)


def test_probability_sum_over_fixed_length_at_most_one(rng):
    # sum over all length-l words of P(y) <= 1; exhaustively for small sigma, l
    import itertools

    for sigma, n, l in [(2, 17, 3), (3, 23, 2), (2, 9, 4)]:
        t = random_text(rng, sigma, n)
        total = sum(
            phrase_probability(t, w) for w in itertools.product(range(sigma), repeat=l)
        )
        assert total <= 1.0 + 1e-9
        total_k = sum(
            phrase_probability(t, w, 1)
            for w in itertools.product(range(sigma), repeat=l)
        )
        assert total_k <= 1.0 + 1e-9


# -- parsing cost --------------------------------------------------------------------


def test_parsing_cost_ab4():
    t = Text.from_string("abababab")
    rep = parsing_cost(Parsing.from_lengths(t, [2] * 4))
    assert rep.cost_bits == pytest.approx(4.0, abs=1e-9)


def test_parsing_cost_unary_text():
    # P(aa) telescopes to |S|_aa / |S| = 3/4: the cost keeps the boundary term
    t = Text.from_string("aaaa")
    rep = parsing_cost(Parsing.from_lengths(t, [2, 2]))
    assert rep.cost_bits == pytest.approx(2 * math.log2(4 / 3), abs=1e-9)
    assert rep.parsing_entropy_bits == 0.0
    assert rep.lengths_entropy_bits == 0.0


def test_parsing_cost_k1_example():
    # sigma^{-1} * |S|_ab / |S|_a = (1/2)(2/2) = 1/2 gives exactly 1 bit
    # per phrase
    t = Text.from_string("abab")
    rep = parsing_cost(Parsing.from_lengths(t, [2, 2]), 1)
    assert rep.k_cost_bits == pytest.approx(2.0, abs=1e-9)
    assert rep.k_cost_bits == pytest.approx(cost_oracle(Parsing.from_lengths(t, [2, 2]), 1))


def test_parsing_cost_matches_oracle(rng):
    for _ in range(20):
        t = random_text(rng, rng.choice([2, 4]), rng.randrange(3, 50))
        lengths = []
        left = len(t)
        while left:
            ln = min(left, rng.randrange(1, 5))
            lengths.append(ln)
            left -= ln
        p = Parsing.from_lengths(t, lengths)
        for k in (None, 0, 1, 2, 3):
            rep = parsing_cost(p, k)
            if k is None:
                assert rep.cost_bits == pytest.approx(cost_oracle(p), abs=1e-6)
            else:
                assert rep.k_cost_bits == pytest.approx(cost_oracle(p, k), abs=1e-6)
        assert rep.parsing_entropy_bits == pytest.approx(
            entropy_of_word(p.phrases), abs=1e-9
        )
        assert rep.lengths_entropy_bits == pytest.approx(
            entropy_of_word(p.lengths), abs=1e-9
        )


def test_each_parsing_counted_once(rng, monkeypatch):
    from gclab.textcore import _SuffixIndex

    calls = []
    count_windows = _SuffixIndex.count_windows

    def counting(self, starts, lengths):
        calls.append(len(starts))
        return count_windows(self, starts, lengths)

    monkeypatch.setattr(_SuffixIndex, "count_windows", counting)
    p = lz78_parse(random_text(rng, 3, 500))
    reports = [(parsing_cost(p, k), verify_parsing_bounds(p, k or 0)) for k in (None, 0, 1, 2)]
    assert calls == [len(p)]
    assert all(rep.cost_bits == reports[0][0].cost_bits for rep, _ in reports)


def test_zero_probability_phrase_error():
    t = Text.from_string("abab")
    with pytest.raises(InfiniteCostError):
        # not a parsing of t, so construct directly against another text
        from gclab.parsing import phrase_cost

        phrase_cost(t, (1, 1))


# -- best offset parsing ------------------------------------------------------------


def offsets_oracle(text, l):
    """Enumerate all offset parsings and return (cost, offset) pairs."""
    n = len(text)
    out = []
    for off in range(l):
        bounds = [0]
        if off:
            bounds.append(off)
        x = off
        while x < n:
            x = min(x + l, n)
            bounds.append(x)
        if bounds[-1] != n:
            bounds.append(n)
        p = Parsing(text, bounds)
        out.append((cost_oracle(p), off, p))
    return out


def test_best_offset_spec_examples():
    t = Text.from_string("abababab")
    p = best_offset_parsing(t, 2)
    assert p.boundaries == (0, 2, 4, 6, 8)
    assert parsing_cost(p).cost_bits == pytest.approx(4.0)
    # offset 1 costs more
    all_offsets = offsets_oracle(t, 2)
    assert all_offsets[1][0] > 4.0

    t = Text.from_string("abcabcabc")
    p = best_offset_parsing(t, 3)
    assert p.boundaries == (0, 3, 6, 9)


def test_best_offset_minimizes_and_bounds(rng):
    for _ in range(15):
        t = random_text(rng, rng.choice([2, 4]), rng.randrange(5, 60))
        for l in (2, 3, 5):
            if l > len(t):
                continue
            p = best_offset_parsing(t, l)
            got = parsing_cost(p).cost_bits
            best = min(c for c, _, _ in offsets_oracle(t, l))
            assert got == pytest.approx(best, abs=1e-6)
            assert len(p) <= math.ceil(len(t) / l) + 1
            # mean-of-entropies bound, exact
            n = len(t)
            mean = sum(empirical_entropy(t, i)[0] for i in range(l)) / l
            assert got <= mean + math.log2(n) + 1e-6


def test_best_offset_rejects_bad_length():
    with pytest.raises(ValueError):
        best_offset_parsing(Text.from_string("ab"), 3)
    with pytest.raises(ValueError):
        best_offset_parsing(Text.from_string("ab"), 0)


# -- LZ parsers -----------------------------------------------------------------------


def test_lz78_traces():
    assert lz78_parse(Text.from_string("aaaa")).phrases == ((0,), (0, 0), (0,))
    assert lz78_parse(Text.from_string("abab")).phrases == ((0,), (1,), (0, 1))
    assert len(lz78_parse(Text([], 1))) == 0


def test_lz78_dictionary_property(rng):
    # every phrase minus its last letter equals a previous phrase (or eps)
    for _ in range(10):
        t = random_text(rng, 2, rng.randrange(2, 200))
        phrases = lz78_parse(t).phrases
        seen = {()}
        for i, ph in enumerate(phrases):
            if i < len(phrases) - 1:
                assert ph[:-1] in seen
            seen.add(ph)


def test_lz77ns_traces():
    assert lz77_parse_nonself(Text.from_string("aaaa")).phrases == ((0,), (0, 0), (0,))
    assert lz77_parse_nonself(Text(range(4), 4)).phrases == (
        (0,),
        (1,),
        (2,),
        (3,),
    )
    assert lz77_parse_nonself(Text.from_string("abab")).phrases == ((0,), (1,), (0, 1))


def test_lz77ns_nonoverlap_property(rng):
    # each copy is the longest prefix of the rest that occurs inside the
    # parsed prefix, not merely one that does
    for t in lz77ns_texts(rng, 300):
        assert list(lz77_parse_nonself(t).lengths) == lz77ns_oracle(t.symbols), t


def test_lz77ns_runs_and_periods_in_bounded_time():
    # a walk per repeat length would be quadratic on these
    for unit, reps in (("a", 1 << 16), ("ab", 1 << 15), ("aab", 1 << 14)):
        text = Text.from_string(unit * reps, 2)
        start = time.perf_counter()
        p = lz77_parse_nonself(text)
        assert time.perf_counter() - start < 10, unit
        data = bytes(text.symbols)
        pos = 0
        for ln in p.lengths:
            # the copy occurs inside the parsed prefix, one symbol more does not
            assert data.find(data[pos : pos + ln - 1], 0, pos) >= 0 or ln == 1
            if pos + ln < len(data):
                assert data.find(data[pos : pos + ln], 0, pos) < 0
            pos += ln


# -- natural parser predicate ----------------------------------------------------------


def test_natural_single_letters():
    t = Text.from_string("abcd")
    ok, viol = is_natural_parsing(Parsing.from_lengths(t, [1, 1, 1, 1]))
    assert ok and not viol


def test_natural_one_long_phrase_fails():
    t = Text(range(8), 8)
    ok, viol = is_natural_parsing(Parsing.from_lengths(t, [8]))
    assert not ok and viol == [0]


def test_natural_lz78(rng):
    for _ in range(10):
        t = random_text(rng, rng.choice([2, 4]), rng.randrange(2, 200))
        ok, viol = is_natural_parsing(lz78_parse(t))
        assert ok, viol
        ok, viol = is_natural_parsing(lz77_parse_nonself(t))
        assert ok, viol


def test_natural_rejects_unary_alphabet():
    t = Text.from_string("aaaa", 1)
    with pytest.raises(ValueError):
        is_natural_parsing(Parsing.from_lengths(t, [4]))


# -- bound verification ------------------------------------------------------------------


def test_verify_bounds_trivial():
    t = Text.from_string("aaaa")
    rep = verify_parsing_bounds(Parsing.from_lengths(t, [2, 2]), 0)
    assert rep.all_pass
    assert rep.row("parsing_entropy_le_cost").lhs_bits == 0.0


def test_verify_bounds_ab4():
    t = Text.from_string("abababab")
    rep = verify_parsing_bounds(Parsing.from_lengths(t, [2] * 4), 1)
    assert rep.all_pass


def test_verify_bounds_random_lz78(rng):
    t = random_text(rng, 4, 1000)
    rep = verify_parsing_bounds(lz78_parse(t), 2)
    assert rep.all_pass


def test_gibbs_bound_randomized(rng):
    # |w|H0(w) <= -sum |w|_s log p(s) for any sub-probability p
    for _ in range(15):
        t = random_text(rng, 3, rng.randrange(4, 60))
        lengths = []
        left = len(t)
        while left:
            ln = min(left, rng.randrange(1, 4))
            lengths.append(ln)
            left -= ln
        p = Parsing.from_lengths(t, lengths)
        counts = Counter(p.phrases)
        raw = {ph: rng.random() + 1e-9 for ph in counts}
        scale = sum(raw.values()) / 0.999
        rhs = -sum(c * math.log2(raw[ph] / scale) for ph, c in counts.items())
        assert p.entropy_bits() <= rhs + 1e-9


def test_lengths_entropy_bound(rng):
    from gclab.textcore import LOG2E

    for _ in range(15):
        t = random_text(rng, 2, rng.randrange(4, 120))
        for parser in (lz78_parse, lz77_parse_nonself):
            p = parser(t)
            m, n = len(p), len(t)
            assert p.lengths_entropy_bits() <= m * math.log2(n / m) + m * (1 + LOG2E) + 1e-9
