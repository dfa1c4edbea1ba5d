"""Greedy grammar compression: each round replaces the repeated substring
that shrinks ||S', G|| the most.

The gain of replacing w with f_w disjoint occurrences is
(f_w - 1)(|w| - 1) - 1; rounds continue while any substring has f_w >= 2
and |w| >= 2 (zero-gain pair rounds included, which is what makes the final
grammar irreducible).  Ties: maximum gain, then longer substring, then
leftmost first occurrence; candidates live in S' and all rule right-hand
sides, matches never span two of them.

The working text is one int64 array: S' and then every rule's right-hand
side in creation order, segment i followed by its separator -(i+1), so no
window that matches another can contain a separator.  A scan (_scan) finds
every word of length >= 3 with the best gain, ``bound`` (-1 if none),
ranked longest first, then leftmost first, and the exact count of every
pair.  While the most frequent pair gains no more than ``bound``, the
long-word rounds come from the head of that list (_TiedWords): a search of
the array drops a head whose count fell and replaces one found with its
scan-time count and first occurrence (_apply); anything else scans again.
This is exact: between scans a word with no new symbol never gains
occurrences (its occurrences in new rule segments map one to one onto
replaced ones), and a word that holds a new symbol gains strictly less
than its expansion, which gained at most ``bound``.  The pair counts are
updated only where a round changes them (_pair_changes), so the most
frequent pair stays exact.  Else a PairEngine over the array makes the pair
rounds without a scan for as long as its best pair gains more than
``bound`` (zero-gain rounds included, once ``bound`` is -1).  See
greedy_run.  Lists are built only for on_step and the final grammar.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

import numpy as np

from .grammar import FullGrammar, grammar_from_segments
from .pairs import PairEngine
from .repair import log_sigma
from .reporting import BoundRow, CheckReport
from .textcore import Text

RUN_TO_END = "run_to_end"
FULL_THRESHOLD = "full_threshold"
MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class GreedyPolicy:
    kind: str
    param: int | None = None

    @classmethod
    def run_to_end(cls) -> "GreedyPolicy":
        return cls(RUN_TO_END)

    @classmethod
    def full_threshold(cls) -> "GreedyPolicy":
        """Stop once ||S', G|| is first below ceil(64 n / log_sigma n)."""
        return cls(FULL_THRESHOLD)

    @classmethod
    def max_iterations(cls, m: int) -> "GreedyPolicy":
        if m < 0:
            raise ValueError("iteration budget must be >= 0")
        return cls(MAX_ITERATIONS, m)


def greedy_threshold(n: int, sigma: int) -> int:
    return math.ceil(64.0 * n / log_sigma(n, sigma))


@dataclass(frozen=True)
class GreedyStep:
    iteration: int            # 1-based
    substring: tuple
    frequency: int            # disjoint occurrences replaced
    gain: int                 # (f-1)(|w|-1) - 1
    full_size_after: int      # ||S', G|| after the round
    max_pair_freq: int        # most frequent pair before the round

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class GreedyTrace:
    steps: list[GreedyStep]
    policy: GreedyPolicy
    initial_size: int
    sigma: int
    threshold: int | None
    stopped_by: str  # "exhausted" | "threshold" | "max_iterations"
    scans: int = 0  # _scan calls; no digest, report or JSONL trace reads it


def _gain(count: int, length: int) -> int:
    return (count - 1) * (length - 1) - 1


def _join(segments) -> np.ndarray:
    """The working array of the given segments: each followed by -(i+1)."""
    parts = []
    for i, seg in enumerate(segments):
        parts.append(np.asarray(seg, dtype=np.int64))
        parts.append(np.array([-(i + 1)], dtype=np.int64))
    return np.concatenate(parts)


def _split(work: np.ndarray) -> list[list[int]]:
    """The segments of a working array, as lists."""
    values = work.tolist()
    segments = []
    start = 0
    for end in np.flatnonzero(work < 0).tolist():
        segments.append(values[start:end])
        start = end + 1
    return segments


def _greedy_occurrences(positions, length: int) -> list[int]:
    """Left-to-right non-overlapping occurrences among ascending positions."""
    taken = []
    limit = -1
    for p in positions:
        if p >= limit:
            taken.append(p)
            limit = p + length
    return taken


def _scan(work: np.ndarray) -> tuple[np.ndarray, int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every word of length >= 3 that has the best gain, the exact count of
    the most frequent pair (1 when none repeats) and the exact count of every
    pair that repeats.  Pairs are counted but not ranked: greedy_run weighs
    the pair count against the long words' gain.

    The tied words are rows (length, first occurrence, count), longest first,
    then leftmost first; there are none when no word of length >= 3 occurs
    twice.  The pairs are three arrays: first symbols, second symbols and
    non-overlapping counts, one entry per distinct pair that occurs at least
    twice without overlap.

    ``work`` is the working array: S' and every rule's right-hand side, each
    followed by its own negative separator.  Level l groups the length-l
    windows that start where a length-(l-1) window has occurrences at least
    l apart (so two disjoint length-l windows fit): one stable argsort of the
    (level l-1 group, next symbol) codes puts each group's positions in
    ascending order; windows that reach a separator are dropped.

    Gap test: a group whose consecutive positions are all >= l apart counts
    every occurrence; only a group with a gap < l runs the left-to-right
    count.  From length 3 on, the groups that reach a level's maximum count
    tie on that level, and the levels whose gain is the best so far keep
    their ties.
    """
    width = int(work.max()) + 1
    pos = np.flatnonzero(work[:-1] >= 0)
    code = work[pos]
    if width > 1 << 31:
        # symbol * width + symbol would overflow int64 (sigma may be 2^32);
        # group codes at later levels stay below len(work)
        code = np.unique(code, return_inverse=True)[1].reshape(-1)
    best = -1
    ties = []  # per level of gain best: (length, ascending first occurrences, count)
    max_pair = 1
    pairs = (np.zeros(0, dtype=np.int64),) * 3
    length = 1
    while True:
        length += 1
        ext = work[pos + (length - 1)]
        inside = ext >= 0
        pos, code, ext = pos[inside], code[inside], ext[inside]
        if not len(pos):
            break
        key = code * width + ext
        order = np.argsort(key, kind="stable")
        key, pos = key[order], pos[order]
        head = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        counts = np.diff(starts, append=len(key))
        short = np.zeros(len(pos), dtype=bool)
        np.less(pos[1:] - pos[:-1], length, out=short[1:])
        short[starts] = False
        overlapping = np.logical_or.reduceat(short, starts)
        freq = counts.copy()
        for g in np.flatnonzero(overlapping).tolist():
            s = starts[g]
            freq[g] = len(_greedy_occurrences(pos[s : s + counts[g]].tolist(), length))
        top = int(freq.max())
        if length == 2:
            max_pair = top
            firsts = pos[starts[freq >= 2]]
            pairs = (work[firsts], work[firsts + 1], freq[freq >= 2])
        elif top >= 2:
            gain = _gain(top, length)
            if gain > best:
                best, ties = gain, []
            if gain == best:
                ties.append((length, np.sort(pos[starts[freq == top]]), top))
        alive = pos[starts + counts - 1] - pos[starts] > length
        if not alive.any():
            break
        code = np.repeat(np.arange(int(alive.sum())), counts[alive])
        pos = pos[np.repeat(alive, counts)]
    rows = [np.column_stack((np.full(len(f), ln), f, np.full(len(f), c)))
            for ln, f, c in reversed(ties)]
    return (np.concatenate(rows) if rows else np.zeros((0, 3), dtype=np.int64)), max_pair, pairs


def _find(work: np.ndarray, word: np.ndarray) -> np.ndarray:
    """The left-to-right non-overlapping occurrences of word in work."""
    length = len(word)
    at = np.flatnonzero(work[: len(work) - length + 1] == word[0])
    for j in range(1, length):
        at = at[work[at + j] == word[j]]
    if (np.diff(at) < length).any():
        at = np.array(_greedy_occurrences(at.tolist(), length), dtype=np.int64)
    return at


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


def _count_pairs(seq: list[int], counts: dict, sign: int) -> None:
    """Add sign times the non-overlapping pair counts of seq, whose ends are
    ends of runs, to counts: a run of r copies of a holds r // 2 pairs
    (a, a), and a pair with a separator is never counted."""
    run = 1
    for x, y in zip(seq, seq[1:]):
        if x == y:
            run += 1
            continue
        if run > 1:
            counts[x, x] += sign * (run // 2)
            run = 1
        if x >= 0 and y >= 0:
            counts[x, y] += sign
    if run > 1:
        counts[seq[-1], seq[-1]] += sign * (run // 2)


def _pair_changes(old: np.ndarray, new: np.ndarray, positions: np.ndarray, word: list[int]) -> dict:
    """How one long-word round changes the count of each pair.

    Only the pairs at the replaced occurrences, the new (c, X) and (X, d)
    pairs, the pairs in the new rule's segment and the (a, a) runs the
    replacement touched change.  So the pairs of each occurrence with its
    neighbours, widened to whole runs at both ends and merged where they
    meet, are counted out of the old array and in from the new one, and the
    pairs of the word are counted in.
    """
    length = len(word)
    end = len(old) - 1  # a separator, so no occurrence reaches it
    item = old.item
    regions = []  # [lo, hi, occurrences up to this region's last] in old
    for i, p in enumerate(positions.tolist(), 1):
        lo, hi = max(p - 1, 0), p + length
        while lo > 0 and item(lo - 1) == item(lo):
            lo -= 1
        while hi < end and item(hi + 1) == item(hi):
            hi += 1
        if regions and lo <= regions[-1][1]:
            regions[-1][1:] = max(regions[-1][1], hi), i
        else:
            regions.append([lo, hi, i])
    changes = defaultdict(int)
    before = 0
    for lo, hi, upto in regions:
        _count_pairs(old[lo : hi + 1].tolist(), changes, -1)
        shift_lo, shift_hi = (length - 1) * before, (length - 1) * upto
        _count_pairs(new[lo - shift_lo : hi + 1 - shift_hi].tolist(), changes, 1)
        before = upto
    _count_pairs(word, changes, 1)
    return changes


class _TiedWords:
    """The long-word rounds that one scan's ties carry.

    ``ties`` are _scan's rows (length, first, count), all of gain ``gain``,
    and ``head`` is the next row to try.  ``firsts`` holds each row's
    scan-time first occurrence, mapped past the positions removed since.
    When a round may follow the first one, the pair counts are kept in
    ``pairs`` and ``counts`` (how many pairs have each count >= 2) and
    updated after each round by _pair_changes, so that ``max_pair`` stays
    exact without a scan.  ``pairs`` holds the pairs that occurred at least
    twice at the scan and those that hold a new symbol, while they occur: a
    pair with no new symbol never gains between scans, so one that occurred
    once never counts.
    """

    def __init__(self, work, ties, gain, max_pair, pairs):
        self.scanned = work  # the words are read from it
        self.ties = ties
        self.gain = gain
        self.max_pair = max_pair
        self.firsts = ties[:, 1].copy()
        self.head = 0
        if len(ties) > 1:
            a, b, c = (x.tolist() for x in pairs)
            self.pairs = dict(zip(zip(a, b), c))
            self.counts = Counter(c)

    def take(self, work: np.ndarray, new_symbol: int, separator: int):
        """The next round from the head of the ties: (working array after it,
        word, count, most frequent pair count before it), or None when the
        run must scan again."""
        if self.max_pair - 2 > self.gain:
            return None
        while self.head < len(self.ties):
            length, first, count = self.ties[self.head].tolist()
            word = self.scanned[first : first + length]
            positions = _find(work, word)
            if len(positions) < count:
                self.head += 1  # its count never rises again
                continue
            if len(positions) > count or positions[0] != self.firsts[self.head]:
                return None
            self.head += 1
            out = _apply(work, positions, word, new_symbol, separator)
            max_pair = self.max_pair
            if self.head < len(self.ties):
                self._update(work, out, positions, word.tolist())
            return out, tuple(word.tolist()), count, max_pair
        return None

    def _update(self, old, new, positions, word):
        pairs, counts, top = self.pairs, self.counts, self.max_pair
        for pair, change in _pair_changes(old, new, positions, word).items():
            if not change:
                continue
            was = pairs.get(pair, 0)
            now = was + change
            if now > 0:
                pairs[pair] = now
            else:
                pairs.pop(pair, None)
            counts[was] -= was >= 2
            counts[now] += now >= 2
            top = max(top, now)
        while top > 1 and not counts[top]:
            top -= 1
        self.max_pair = top
        # a first occurrence that the round removed maps to the new symbol or
        # before it, where its word no longer occurs
        rest = self.firsts[self.head :]
        rest -= (len(word) - 1) * np.searchsorted(positions, rest)


def greedy_run(
    text: Text,
    policy: GreedyPolicy | None = None,
    on_step=None,
) -> tuple[FullGrammar, GreedyTrace]:
    """Run Greedy under the given stopping policy.

    One test decides each round: a pair round when the most frequent pair's
    gain, count - 2, is strictly greater than ``bound``, the gain of the
    last scan's best word of length >= 3 (-1 if none); else a long-word
    round, or the end.

    Long-word rounds come from the head of the scan's ties (_TiedWords): the
    words of gain ``bound``, ranked longest first, then leftmost first, so
    the scan's best is the first of them.  A search of the working array
    finds the head's occurrences.  With its scan-time count and its
    scan-time first occurrence (mapped past the removed positions) still
    first, the head is replaced; with a smaller count it is dropped; in
    every other case (its first occurrence moved, no head left, or the most
    frequent pair gaining more than ``bound``) the run scans again.

    This is exact.  Between scans a word with no new symbol never gains
    occurrences, since its occurrences in new rule segments map one to one
    onto replaced ones.  A word that holds a new symbol expands to a longer
    word with at least as many disjoint occurrences at the scan, so it gains
    strictly less than that expansion, which gained at most ``bound``.  So
    the words of length >= 3 that gain ``bound`` are the ties whose count
    held, and the head ranks first among them while its first occurrence
    holds: another tie's occurrences only vanish or move into the new
    segments at the end.  Pairs obey the same argument, so none comes to
    gain more than ``bound`` between scans, and the last rescan case is a
    guard; the pair counts, updated only where a round changes them, keep
    each step's ``max_pair_freq`` exact.

    The first pair round after a scan builds a PairEngine, whose first
    select() is the scan's best pair (same count and leftmost tie-break);
    later rounds test its next select() and keep their rules and separators
    on a pending list, and a failed test there rebuilds the array for a new
    scan.  This is exact by the same argument: a pair's rule segment holds
    no word of length >= 3, so no such word gains more than ``bound``, and
    one that gains exactly ``bound`` beats an equal pair by length.
    Separators occur once, so the engine never counts a pair across one.
    ``on_step(grammar)`` is invoked with the full grammar after every round
    when given.
    """
    policy = policy or GreedyPolicy.run_to_end()
    n = len(text)
    if n < 2:
        raise ValueError("Greedy needs |text| >= 2")
    if policy.kind == FULL_THRESHOLD and text.sigma < 2:
        raise ValueError("threshold policy needs sigma >= 2")
    threshold = greedy_threshold(n, text.sigma) if policy.kind == FULL_THRESHOLD else None
    sigma = text.sigma

    work = _join([text.array])  # rule i is segment i + 1, separated by -(i + 2)
    engine = None  # the pair rounds since the last scan, over work as it was
    pending: list[int] = []  # their rules, each followed by its separator
    tied = None  # the long-word rounds since the last scan
    steps: list[GreedyStep] = []
    size = n
    scans = 0

    def working() -> np.ndarray:
        if engine is None:
            return work
        return np.concatenate((engine.symbols(), np.array(pending, dtype=np.int64)))

    def record(word, freq, gain, max_pair):
        steps.append(GreedyStep(len(steps) + 1, word, freq, gain, size, max_pair))
        if on_step is not None:
            on_step(grammar_from_segments(sigma, _split(working())))

    def policy_stop() -> str | None:
        # the zero-gain rounds keep the size, so they never cross the threshold
        if threshold is not None and size < threshold:
            return "threshold"
        if policy.kind == MAX_ITERATIONS and len(steps) >= policy.param:
            return "max_iterations"
        return None

    stop = policy_stop()
    while stop is None:
        if engine is None and tied is None:
            ties, max_pair, pairs = _scan(work)
            scans += 1
            bound = _gain(int(ties[0, 2]), int(ties[0, 0])) if len(ties) else -1
            if max_pair - 2 > bound:
                engine, pending = PairEngine(work), []
            elif not len(ties):
                break
            else:
                tied = _TiedWords(work, ties, bound, max_pair, pairs)
        if tied is not None:
            taken = tied.take(work, sigma + len(steps), -(len(steps) + 2))
            if taken is None:
                tied = None
                continue
            work, word, count, max_pair = taken
            size -= bound
            record(word, count, bound, max_pair)
            stop = policy_stop()
            continue
        best = engine.select()
        if best is None:
            break
        pair, count, _, positions = best
        if count - 2 <= bound:
            work, engine = working(), None
            continue
        engine.replace(pair, positions, sigma + len(steps))
        pending += (*pair, -(len(steps) + 2))
        size -= count - 2
        record(pair, count, count - 2, count)
        stop = policy_stop()

    grammar = grammar_from_segments(sigma, _split(working()))
    trace = GreedyTrace(steps, policy, n, sigma, threshold, stop or "exhausted", scans)
    return grammar, trace


def greedy_stop_report(trace: GreedyTrace, text: Text) -> CheckReport:
    """Full-grammar size and nonterminal count at the threshold stop."""
    if trace.policy.kind != FULL_THRESHOLD:
        raise ValueError("stop report needs a full-size-threshold trace")
    n = len(text)
    t = trace.threshold
    final_size = trace.steps[-1].full_size_after if trace.steps else trace.initial_size
    nonterminals = len(trace.steps)
    out = CheckReport()
    out.add(
        BoundRow(
            "greedy_stop_exists",
            float(final_size),
            float(t),
            final_size < t,
            0.0,
            "strict: ||S',G|| below threshold at stop",
        )
    )
    bound = math.sqrt(n) * log_sigma(n, text.sigma) + 3
    out.add(BoundRow.check("greedy_stop_nonterminals", nonterminals, bound))
    out.measurements.update(
        {
            "threshold": t,
            "full_size_at_stop": final_size,
            "nonterminals_at_stop": nonterminals,
            "iterations": len(trace.steps),
            "stopped_by": trace.stopped_by,
        }
    )
    return out
