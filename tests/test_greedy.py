import math

import pytest

from conftest import random_text
from gclab import greedy
from gclab.grammar import (
    check_irreducible, check_weakly_nonredundant, grammar_from_segments, metrics,
)
from gclab.greedy import (
    GreedyPolicy, _join, _scan, _split, greedy_run, greedy_stop_report, greedy_threshold,
)
from gclab.labcli import fixture_text
from gclab.textcore import Text


def _occurrences(segments):
    """{word: taken positions} of every substring of length >= 2, counted
    greedily left to right, positions global with one separator slot after
    each segment."""
    occ = {}
    base = 0
    for seg in segments:
        seg = tuple(seg)
        for ln in range(2, len(seg) + 1):
            for i in range(len(seg) - ln + 1):
                taken = occ.setdefault(seg[i : i + ln], [])
                if not taken or base + i >= taken[-1] + ln:
                    taken.append(base + i)
        base += len(seg) + 1
    return occ


def reference_best_candidate(segments):
    """Exhaustive substring-gain oracle over all segment substrings.

    Returns (gain, length, first, word, count, positions) for the winner under
    the tie-break (max gain, longer word, leftmost first occurrence), or None.
    """
    best = None
    for w, taken in _occurrences(segments).items():
        count = len(taken)
        if count < 2:
            continue
        gain = (count - 1) * (len(w) - 1) - 1
        key = (gain, len(w), -taken[0])
        if best is None or key > best[0]:
            best = (key, w, taken)
    if best is None:
        return None
    (gain, length, negfirst), w, taken = best
    return gain, length, -negfirst, w, len(taken), taken


def reference_max_pair(segments):
    """Non-overlapping count of the most frequent pair; 1 when none repeats."""
    pairs = [len(t) for w, t in _occurrences(segments).items() if len(w) == 2]
    return max(pairs, default=1)


def reference_long_bound(segments):
    """Best gain of a word of length >= 3 occurring twice; -1 when none does."""
    gains = [(len(t) - 1) * (len(w) - 1) - 1
             for w, t in _occurrences(segments).items() if len(w) >= 3 and len(t) >= 2]
    return max(gains, default=-1)


def reference_greedy(text):
    segments = [list(text.symbols)]
    while True:
        cand = reference_best_candidate(segments)
        if cand is None:
            return segments
        length, w = cand[1], cand[3]
        x = text.sigma + len(segments) - 1
        # replace greedy left-to-right occurrences in all segments
        new_segments = []
        for seg in segments:
            out = []
            i = 0
            while i < len(seg):
                if tuple(seg[i : i + length]) == w:
                    out.append(x)
                    i += length
                else:
                    out.append(seg[i])
                    i += 1
            new_segments.append(out)
        new_segments.append(list(w))
        segments = new_segments


def scan_inputs(rng):
    """Multi-segment working texts (S' of at least two symbols, as in every
    Greedy round): random S' over sigma <= 8 and rules that hold nonterminal
    ids, then runs and periodic words within and across segments."""
    for _ in range(200):
        sigma = rng.randrange(2, 9)
        n_rules = rng.randrange(0, 6)
        ids = sigma + n_rules
        segments = [[rng.randrange(ids) for _ in range(rng.randrange(2, 90))]]
        for _ in range(n_rules):
            segments.append([rng.randrange(ids) for _ in range(rng.randrange(1, 8))])
        yield segments
    for m in (2, 3, 4, 7, 16, 33):
        yield [[0] * m]
        yield [[0, 1] * m]
        yield [[0, 0, 1] * m + [1]]
        yield [[0] * m, [1, 0] * m, [0] * (m + 1)]
        yield [[2, 0, 1] * m, [0, 1] * m + [0], [3] * m]
    big = 1 << 32  # the largest alphabet a Text allows; rule ids go above it
    yield [[big - 1, 7, big - 1, 7, big - 2, big - 1, 7], [big + 1, big - 1], [7, big - 1, 7]]
    yield [[1, 5, big, 6], [0, 1]]  # (1, 5) and (big, 6) pack alike modulo 2^64


def test_scan_matches_oracle(rng):
    for segments in scan_inputs(rng):
        work = _join(segments)
        assert _split(work) == segments
        cand, max_pair, bound = _scan(work)
        assert max_pair == reference_max_pair(segments), segments
        assert bound == reference_long_bound(segments), segments
        ref = reference_best_candidate(segments)
        if ref is None:
            assert cand is None, segments
            continue
        got = (cand.gain, cand.length, cand.first, cand.word, cand.count,
               cand.positions.tolist())
        assert got == ref, segments


# -- spec examples ------------------------------------------------------------


def test_abab_zero_gain_round_still_runs():
    # the pair occurs twice: gain 0, but replacing it is what makes the
    # final grammar irreducible (IG3)
    g, tr = greedy_run(Text.from_string("abab"))
    assert g.start == (2, 2) and g.rules == ((0, 1),)
    assert [s.gain for s in tr.steps] == [0]
    assert check_irreducible(g).all_ok


def test_ababab():
    g, tr = greedy_run(Text.from_string("ababab"))
    assert g.start == (2, 2, 2) and g.rules == ((0, 1),)
    assert tr.steps[0].gain == 1 and tr.steps[0].frequency == 3


def test_abcabcabc_prefers_longer():
    g, tr = greedy_run(Text.from_string("abcabcabc"))
    assert g.start == (3, 3, 3) and g.rules == ((0, 1, 2),)
    assert tr.steps[0].gain == 3


PERIODIC_WORDS = [("a", 100), ("ab", 77), ("aab", 40)]

# shapes of the zero-gain rounds: a^4 and a^5 after a pair (c, a) that
# occurs twice, whose round uses up the run's first (a, a) (a^5 keeps two
# occurrences, from the next position on), aaa plus aa, and babab
ZERO_GAIN_WORDS = ["caaaadca", "caaaaadca", "baaacaad", "bcaaadcaeaa", "cbababd"]


def test_matches_reference(rng):
    texts = [random_text(rng, rng.choice([2, 3]), rng.randrange(2, 60)) for _ in range(20)]
    texts += [Text.from_string(w * m, 2) for w, m in PERIODIC_WORDS]
    texts.append(Text.from_string("aab" * 40 + "b"))
    texts += [Text.from_string(w) for w in ZERO_GAIN_WORDS]
    big = 1 << 32
    texts.append(Text([big - 1, 0, big - 2] * 9 + [big - 1, 0] * 5, big))
    for t in texts:
        g, _ = greedy_run(t)
        ref = grammar_from_segments(t.sigma, reference_greedy(t))
        assert g == ref
        assert g.expand_start() == t.symbols


def test_long_word_wins_a_tie_after_a_pair_round():
    # the pair round (b, a) leaves the pair (b, b) at gain 1, the bound of
    # the scan before it, and bbb, which also gains 1, wins by length: a
    # pair equal to the bound must not be taken without a rescan
    t = Text.from_string("baaababbbbbbbabaa")
    g, tr = greedy_run(t)
    assert [(s.substring, s.gain) for s in tr.steps] == [((1, 0), 2), ((1, 1, 1), 1), ((2, 0), 0)]
    assert g == grammar_from_segments(t.sigma, reference_greedy(t))


def test_pair_rounds_between_scans(monkeypatch):
    # on random text nearly every round replaces a pair (717 of 721 here),
    # and a scan is needed only where a longer word may win: 13 scans,
    # against 426 with a scan for every positive-gain round
    scans = []

    def counted(work):
        scans.append(len(work))
        return _scan(work)

    monkeypatch.setattr(greedy, "_scan", counted)
    t = fixture_text("random:4,20000,1")
    g, tr = greedy_run(t)
    assert len(scans) <= 20, len(scans)
    assert len(tr.steps) > 400 and tr.stopped_by == "exhausted"
    assert g.expand_start() == t.symbols


def test_gain_accounting_and_invariants(rng):
    for _ in range(10):
        t = random_text(rng, 2, rng.randrange(20, 200))
        g, tr = greedy_run(t)
        size = tr.initial_size
        for step in tr.steps:
            assert step.gain == (step.frequency - 1) * (len(step.substring) - 1) - 1
            assert step.gain >= 0
            size -= step.gain
            assert step.full_size_after == size
        m = metrics(g)
        assert m.rhs_size_full == size
        pf = [s.max_pair_freq for s in tr.steps]
        assert all(a >= b for a, b in zip(pf, pf[1:]))
        for step in tr.steps:
            if step.max_pair_freq >= 3:
                assert step.iteration - 1 <= len(t) / (step.max_pair_freq - 2)


def test_run_to_end_is_irreducible(rng):
    for _ in range(8):
        t = random_text(rng, rng.choice([2, 4]), rng.randrange(16, 300))
        g, _ = greedy_run(t)
        res = check_irreducible(g)
        assert res.all_ok, (res, t.symbols[:20])
        n = len(t)
        assert metrics(g).rhs_size_full <= 64 * n / (math.log(n) / math.log(t.sigma))
        assert check_weakly_nonredundant(g).ok


def test_decompression_identity_each_round(rng):
    t = random_text(rng, 3, 60)

    def check(g):
        assert g.expand_start() == t.symbols

    greedy_run(t, on_step=check)


def test_threshold_policy():
    t = Text.from_string("abcd" * 16)
    g, tr = greedy_run(t, GreedyPolicy.full_threshold())
    assert tr.threshold == greedy_threshold(len(t), 4)
    assert tr.stopped_by == "threshold"
    rep = greedy_stop_report(tr, t)
    assert rep.all_pass
    with pytest.raises(ValueError):
        greedy_stop_report(greedy_run(t)[1], t)


def test_max_iterations_policy(rng):
    # every budget, through the zero-gain rounds at the end: a budget that
    # runs out on the last round still stops by max_iterations
    for t in (random_text(rng, 4, 150), Text.from_string("cbababdcaaaaadca")):
        g_full, tr_full = greedy_run(t)
        assert tr_full.steps[-1].gain == 0
        for m in range(len(tr_full.steps) + 1):
            g_m, tr_m = greedy_run(t, GreedyPolicy.max_iterations(m))
            assert tr_m.steps == tr_full.steps[:m]
            assert tr_m.stopped_by == "max_iterations"
            assert g_m.expand_start() == t.symbols
        assert g_m == g_full


def test_degenerate():
    with pytest.raises(ValueError):
        greedy_run(Text.from_string("a"))
    with pytest.raises(ValueError):
        greedy_run(Text([0, 0], 1), GreedyPolicy.full_threshold())
