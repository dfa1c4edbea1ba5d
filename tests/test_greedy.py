import math

import numpy as np
import pytest

from conftest import random_text
from gclab import greedy
from gclab.grammar import (
    check_irreducible, check_weakly_nonredundant, grammar_from_segments, metrics,
)
from gclab.greedy import (
    GreedyPolicy, GreedyStep, _greedy_occurrences, _scan, greedy_run,
    greedy_stop_report, greedy_threshold,
)
from gclab.labcli import fixture_text
from gclab.pairs import PairEngine, _join
from gclab.repair import StopPolicy, repair_run, stop_point_report
from gclab.textcore import Text


def work_segments(work):
    """The segments of a working array, as lists."""
    values = work.tolist()
    segments = []
    start = 0
    for end in np.flatnonzero(work < 0).tolist():
        segments.append(values[start:end])
        start = end + 1
    return segments


def segments_grammar(sigma, segments):
    """grammar_from_segments of segments given as lists."""
    return grammar_from_segments(sigma, [s for seg in segments for s in seg],
                                 np.cumsum([len(seg) for seg in segments]))


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


def reference_best_candidate(segments, min_length=2):
    """Exhaustive substring-gain oracle over all segment substrings of length
    at least min_length.

    Returns (gain, length, first, word, count, positions) for the winner under
    the tie-break (max gain, longer word, leftmost first occurrence), or None.
    """
    best = None
    for w, taken in _occurrences(segments).items():
        count = len(taken)
        if count < 2 or len(w) < min_length:
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
    return max(reference_pairs(segments).values(), default=1)


def reference_pairs(segments):
    """{pair: non-overlapping count} of every pair within a segment."""
    return {w: len(t) for w, t in _occurrences(segments).items() if len(w) == 2}


def reference_ties(segments):
    """[(length, first, count)] of every word of length >= 3 that has the
    best gain, longest first, then leftmost first."""
    words = [(len(w), t[0], len(t)) for w, t in _occurrences(segments).items()
             if len(w) >= 3 and len(t) >= 2]
    best = max(((c - 1) * (ln - 1) - 1 for ln, _, c in words), default=None)
    return sorted(((ln, f, c) for ln, f, c in words if (c - 1) * (ln - 1) - 1 == best),
                  key=lambda row: (-row[0], row[1]))


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


def _find(work: np.ndarray, word: np.ndarray) -> np.ndarray:
    """The left-to-right non-overlapping occurrences of word in work."""
    length = len(word)
    at = np.flatnonzero(work[: len(work) - length + 1] == word[0])
    for j in range(1, length):
        at = at[work[at + j] == word[j]]
    return np.array(_greedy_occurrences(at.tolist(), length), dtype=np.int64)


def _apply(work: np.ndarray, positions: np.ndarray, word: np.ndarray,
           new_symbol: int, separator: int) -> np.ndarray:
    """The working array with the word's occurrences at positions replaced by
    new_symbol, then the new rule and its separator appended."""
    length = len(word)
    keep = np.ones(len(work), dtype=bool)
    keep[(positions[:, None] + np.arange(1, length)).ravel()] = False
    kept = len(work) - len(positions) * (length - 1)
    out = np.empty(kept + length + 1, dtype=np.int64)
    out[:kept] = work[keep]
    out[positions - (length - 1) * np.arange(len(positions))] = new_symbol
    out[kept:-1] = word
    out[-1] = separator
    return out


def test_scan_matches_oracle(rng):
    # the scan's ties, the engine's most frequent pair over the same array
    # and each tie's occurrences on the thread of its first pair
    for segments in scan_inputs(rng):
        work = _join(np.array([s for seg in segments for s in seg], dtype=np.int64),
                     np.cumsum([len(seg) for seg in segments]))
        assert work_segments(work) == segments
        ties = _scan(work)
        engine = PairEngine(work)
        best = engine.select()
        assert (best[1] if best else 1) == reference_max_pair(segments), segments
        assert ties.tolist() == [list(row) for row in reference_ties(segments)], segments
        for length, first, count in ties.tolist():
            word = work[first : first + length]
            positions = engine.occurrences(engine.pid[first], word.tolist())
            assert positions == _find(work, word).tolist(), segments
            assert (len(positions), positions[0]) == (count, first), segments
        ref = reference_best_candidate(segments, min_length=3)
        if ref is None:
            assert not len(ties), segments
            continue
        length, first, count = ties[0].tolist()
        word = work[first : first + length]
        got = ((count - 1) * (length - 1) - 1, length, first, tuple(word.tolist()), count,
               _find(work, word).tolist())
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
        ref = segments_grammar(t.sigma, reference_greedy(t))
        assert g == ref
        assert g.expand_start() == t.symbols


def greedy_scanning_every_round(text, policy):
    """Greedy with a scan before every round: the scan's best word of length
    >= 3 unless the best pair, from a PairEngine built afresh, gains more.
    Returns the steps, the stop reason and the grammar after each round."""
    sigma, n = text.sigma, len(text)
    threshold = greedy_threshold(n, sigma) if policy.kind == "full_threshold" else None
    work = _join(text.array, [n])
    steps, size = [], n
    grammars = [segments_grammar(sigma, work_segments(work))]
    while True:
        if threshold is not None and size < threshold:
            return steps, "threshold", grammars
        if policy.kind == "max_iterations" and len(steps) >= policy.param:
            return steps, "max_iterations", grammars
        ties = _scan(work)
        best = PairEngine(work).select()
        max_pair = best[1] if best else 1
        if len(ties):
            length, first, count = ties[0].tolist()
            word, gain = work[first : first + length], (count - 1) * (length - 1) - 1
        else:
            gain = -1
        if max_pair - 2 > gain:
            pair, count, _, _ = best
            word, gain = np.array(pair, dtype=np.int64), count - 2
        elif not len(ties):
            return steps, "exhausted", grammars
        positions = _find(work, word)
        assert len(positions) == count
        work = _apply(work, positions, word, sigma + len(steps), -(len(steps) + 2))
        size -= gain
        steps.append(GreedyStep(len(steps) + 1, tuple(word.tolist()), count, gain, size, max_pair))
        grammars.append(segments_grammar(sigma, work_segments(work)))


# a round shortens the run that the next tie starts in, so that tie keeps
# its count but its first occurrence moves and the run scans again: in the
# first word, 110 at 0 is replaced and 000 moves from 2 to 3
MOVED_FIRST_WORDS = ["1100000001101", "00100111111100", "01011010000000"]

# the tie replaced first starts with a pair (a, a) that also occurs outside
# it, so only some of that pair's occurrences are replaced
PAIR_OUTSIDE_WORDS = ["aabcdeaabcdfaabcdgaahaa", "aabcdeaabcdfaabcdgaahaaiaa", "aaabcaaabcaaabcdaaeaa"]


def tied_round_texts(rng):
    """Random, periodic (with and without substitutions), repeated-block,
    zero-gain, (a, a)-first, worst-case and de Bruijn texts."""
    for _ in range(60):
        sigma = rng.randrange(1, 9)
        yield random_text(rng, sigma, rng.randrange(2, 121))
    for _ in range(30):
        sigma = rng.randrange(1, 5)
        period = [rng.randrange(sigma) for _ in range(rng.randrange(1, 6))]
        symbols = (period * 120)[: rng.randrange(2, 121)]
        for _ in range(rng.choice([0, 0, 1, 2, 3])):
            symbols[rng.randrange(len(symbols))] = rng.randrange(sigma + 1)
        yield Text(symbols, sigma + 1)
    for _ in range(20):
        blocks = [[rng.randrange(4) for _ in range(rng.randrange(2, 12))] for _ in range(3)]
        yield Text([s for _ in range(rng.randrange(2, 9)) for s in rng.choice(blocks)], 4)
    yield from (Text.from_string(w) for w in ZERO_GAIN_WORDS)
    yield from (Text([int(c) for c in w], 2) for w in MOVED_FIRST_WORDS)
    yield from (Text.from_string(w) for w in PAIR_OUTSIDE_WORDS)
    yield from (fixture_text(f"worst:{m}") for m in (*range(1, 17), 31, 64, 100, 256))
    yield fixture_text("gdb:2,3,1")


def test_tied_rounds_match_a_scan_every_round(rng, monkeypatch):
    # the rounds one scan's engine makes, pair rounds and tied long-word
    # rounds, must give the very steps, stop and grammar of a run that scans
    # before every round, under every policy and every budget; after every
    # round without a scan the engine's most frequent pair must be a fresh
    # engine's
    unscanned, moved = [], []
    scanned = {}  # word -> (first, count) of every tie of the last scan

    def scan(work):
        ties = _scan(work)
        scanned.clear()
        for length, first, count in ties.tolist():
            scanned[tuple(work[first : first + length].tolist())] = first, count
        return ties

    class CheckedEngine(PairEngine):
        replaced = False

        def select(self):
            best = super().select()
            if self.replaced:
                fresh = PairEngine(self.symbols()).select()
                assert (best and best[:2]) == (fresh and fresh[:2])
                unscanned.append(best)
            return best

        def replace(self, *args):
            self.replaced = True
            super().replace(*args)

        def occurrences(self, record, word):
            positions = super().occurrences(record, word)
            first, count = scanned[tuple(word)]
            if len(positions) >= count and (len(positions) > count or positions[0] != first):
                moved.append(word)
            return positions

    for t in tied_round_texts(rng):
        policies = [GreedyPolicy.run_to_end()]
        if t.sigma >= 2:
            policies.append(GreedyPolicy.full_threshold())
        for policy in policies:
            monkeypatch.setattr(greedy, "_scan", scan)
            monkeypatch.setattr(greedy, "PairEngine", CheckedEngine)
            g, tr = greedy_run(t, policy)
            monkeypatch.undo()
            steps, stopped_by, grammars = greedy_scanning_every_round(t, policy)
            assert (tr.steps, tr.stopped_by, g) == (steps, stopped_by, grammars[-1]), t.symbols
        steps, _, grammars = greedy_scanning_every_round(t, GreedyPolicy.run_to_end())
        for m in range(len(steps) + 1):
            g, tr = greedy_run(t, GreedyPolicy.max_iterations(m))
            assert (tr.steps, tr.stopped_by, g) == (steps[:m], "max_iterations", grammars[m])
    assert len(unscanned) > 300 and len(moved) >= len(MOVED_FIRST_WORDS), (len(unscanned), len(moved))


def test_long_word_wins_a_tie_after_a_pair_round():
    # the pair round (b, a) leaves the pair (b, b) at gain 1, the bound of
    # the scan before it, and bbb, which also gains 1, wins by length: a
    # pair equal to the bound must not be taken without a rescan
    t = Text.from_string("baaababbbbbbbabaa")
    g, tr = greedy_run(t)
    assert [(s.substring, s.gain) for s in tr.steps] == [((1, 0), 2), ((1, 1, 1), 1), ((2, 0), 0)]
    assert g == segments_grammar(t.sigma, reference_greedy(t))


def test_scan_stops_when_every_window_reaches_a_separator():
    # (0, 1) occurs twice but no length-3 window stays inside a segment:
    # the level of length 3 is empty, and the scan returns no tie
    ties = _scan(np.array([5, 0, 1, -1, 0, 1, -2]))
    assert ties.shape == (0, 3)


def test_long_word_wins_a_tie_at_a_scan(monkeypatch):
    # (ab)^4: the pair ab (count 4) and abab (count 2) both gain 2, and abab
    # wins by length.  A pair round chosen on the tie would be refused by the
    # engine's own test and scanned again without end, so the scans are
    # capped: every scan after the first follows at least one round
    scans = []

    def counted(work):
        scans.append(len(work))
        assert len(scans) <= 3, "scanned again without a round"
        return _scan(work)

    monkeypatch.setattr(greedy, "_scan", counted)
    g, tr = greedy_run(Text.from_string("abababab"))
    assert [(s.substring, s.gain) for s in tr.steps] == [((0, 1, 0, 1), 2), ((0, 1), 0)]
    assert g.start == (3, 3) and g.rules == ((0, 1), (2, 2))


def test_pair_rounds_between_scans(monkeypatch):
    # on random text nearly every round replaces a pair (717 of 721 here),
    # and a scan is needed only where a longer word may win: 10 scans (13
    # with a scan for every long-word round), against 426 with a scan for
    # every positive-gain round
    scans = []

    def counted(work):
        scans.append(len(work))
        return _scan(work)

    monkeypatch.setattr(greedy, "_scan", counted)
    t = fixture_text("random:4,20000,1")
    g, tr = greedy_run(t)
    assert tr.scans == len(scans) <= 13, len(scans)
    assert len(tr.steps) > 400 and tr.stopped_by == "exhausted"
    assert g.expand_start() == t.symbols


def test_tied_rounds_between_scans():
    # every round of worst:m but the last replaces a word # a_i # of gain 1,
    # and one scan's ties carry them all: 2 scans, against m / 2 with a scan
    # for every long-word round
    for m in (256, 1024):
        t = fixture_text(f"worst:{m}")
        g, tr = greedy_run(t)
        assert len(tr.steps) == m // 2 and tr.scans == 2, (m, tr.scans)
        assert sum(len(s.substring) >= 3 for s in tr.steps) == m // 2 - 1
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


def test_stop_reports_pin_their_rows():
    # the golden digests skip row details, so both stop reports' rows and
    # measurements are pinned here whole
    t = Text.from_string("ab" * 50)
    _, tr = repair_run(t, StopPolicy.custom_threshold(60))
    rep = stop_point_report(tr, t)
    assert [r.as_dict() for r in rep.rows] == [
        {"name": "repair_stop_exists", "lhs_bits": 50.0, "rhs_bits": 60.0, "pass": True,
         "slack_used": 0.0, "detail": "strict: working string below threshold at stop"},
        {"name": "repair_stop_nonterminals", "lhs_bits": 1.0, "rhs_bits": math.sqrt(100) * math.log2(100),
         "pass": True, "slack_used": 0.0, "detail": ""},
    ]
    assert rep.measurements == {"threshold": 60, "working_len_at_stop": 50, "nonterminals_at_stop": 1,
                                "iterations": 1, "stopped_by": "threshold"}
    t = Text.from_string("abcd" * 16)
    _, tr = greedy_run(t, GreedyPolicy.full_threshold())
    rep = greedy_stop_report(tr, t)
    assert [r.as_dict() for r in rep.rows] == [
        {"name": "greedy_stop_exists", "lhs_bits": 64.0, "rhs_bits": 1366.0, "pass": True,
         "slack_used": 0.0, "detail": "strict: ||S',G|| below threshold at stop"},
        {"name": "greedy_stop_nonterminals", "lhs_bits": 0.0, "rhs_bits": 27.0,
         "pass": True, "slack_used": 0.0, "detail": ""},
    ]
    assert rep.measurements == {"threshold": 1366, "full_size_at_stop": 64, "nonterminals_at_stop": 0,
                                "iterations": 0, "stopped_by": "threshold"}


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
