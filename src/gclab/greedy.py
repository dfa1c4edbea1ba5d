"""Greedy grammar compression: each round replaces the repeated substring
that shrinks ||S', G|| the most.

The gain of replacing w with f_w disjoint occurrences is
(f_w - 1)(|w| - 1) - 1; rounds continue while any substring has f_w >= 2
and |w| >= 2 (zero-gain pair rounds included, which is what makes the final
grammar irreducible).  Ties: maximum gain, then longer substring, then
leftmost first occurrence; candidates live in S' and all rule right-hand
sides, matches never span two of them.

The working text is S' and then every rule's right-hand side in creation
order, segment i followed by its separator -(i+1), so no window that
matches another can contain a separator.  A scan (_scan) of it, as one
int64 array, finds ``bound``, the best gain of a word of length >= 3 (-1 if
none), and the words that reach it, ranked longest first, then leftmost
first.  A PairEngine built over the same array then makes every round up
to the next scan: a pair round while the engine's most frequent pair gains
more than ``bound``, else the round of the head of those words, found on
the engine's thread of its first pair and replaced as successive pair
replacements.  The engine keeps the most frequent pair exact after every
round, so no other pair count is kept.  See greedy_run.  The grammar, for
on_step and at the end, is built from the working array without its
separators, and the offsets where they were.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .grammar import FullGrammar, grammar_from_segments
from .pairs import PairEngine, _join
from .repair import log_sigma
from .reporting import CheckReport, stop_report
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


def _greedy_occurrences(positions, length: int) -> list[int]:
    """Left-to-right non-overlapping occurrences among ascending positions."""
    taken = []
    limit = -1
    for p in positions:
        if p >= limit:
            taken.append(p)
            limit = p + length
    return taken


def _scan(work: np.ndarray) -> np.ndarray:
    """Every word of length >= 3 that has the best gain, as rows (length,
    first occurrence, count), longest first, then leftmost first; none when
    no word of length >= 3 occurs twice.  Pairs are left to the PairEngine
    that greedy_run builds over the same array.

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
        if length > 2:
            short = np.zeros(len(pos), dtype=bool)
            np.less(pos[1:] - pos[:-1], length, out=short[1:])
            short[starts] = False
            overlapping = np.logical_or.reduceat(short, starts)
            freq = counts.copy()
            for g in np.flatnonzero(overlapping).tolist():
                s = starts[g]
                freq[g] = len(_greedy_occurrences(pos[s : s + counts[g]].tolist(), length))
            top = int(freq.max())
            if top >= 2:
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
    return np.concatenate(rows) if rows else np.zeros((0, 3), dtype=np.int64)


def _replace_word(engine: PairEngine, word: list[int], positions: list[int], new_symbol: int) -> list[int]:
    """Replace the word's occurrences at the ascending positions as
    successive pair replacements at the same left positions; returns the
    records of the word's pairs, read at the first occurrence before the
    replacement, for its rule segment."""
    records = []
    p = positions[0]
    for _ in word[1:]:
        records.append(engine.pid[p])
        p = engine.nxt[p]
    engine.replace(word[:2], positions, new_symbol)
    for s in word[2:]:
        engine.replace((new_symbol, s), positions, new_symbol)
    return records


def greedy_run(
    text: Text,
    policy: GreedyPolicy | None = None,
    on_step=None,
) -> tuple[FullGrammar, GreedyTrace]:
    """Run Greedy under the given stopping policy.

    A scan (_scan) of the working array finds ``bound``, the best gain of a
    word of length >= 3 (-1 if none), and the ties: the words of that gain,
    ranked longest first, then leftmost first.  A PairEngine built over the
    same array then makes every round until the next scan.  One test
    decides each round: a pair round when the engine's most frequent pair
    gains more than ``bound`` (count - 2 > bound), else a long-word round
    from the head of the ties; the run ends when no pair repeats, since
    then no longer word does either.

    The head tie's occurrences are found on the engine's thread of its first
    pair, whose record is read at the scan.  With its scan-time count and
    its scan-time first occurrence (engine positions are never renumbered)
    the head is replaced; with a smaller count it is dropped; with no head
    left, a larger count or a first occurrence that moved, the working
    string is read out, the engine freed and the string scanned again.

    This is exact.  Between scans a word with no new symbol never gains
    occurrences: its occurrences in new rule segments map one to one onto
    replaced ones.  A word that holds a new symbol, made by a pair round or
    a long-word round alike, expands to a longer word with at least as many
    disjoint occurrences, so it gains strictly less than that expansion,
    and, expanding again until no new symbol is left, less than a word that
    gained at most ``bound`` at the scan.  So the words of length >= 3 that
    gain ``bound`` are the ties whose count held, whatever rounds ran since
    the scan: ties outlive pair rounds, and a pair that gains exactly
    ``bound`` loses to the head by length.  The head ranks first among the
    ties while its first occurrence holds: another tie's occurrences only
    vanish or move into the new segments at the end.

    A word of length L is replaced as L - 1 pair replacements at its
    occurrences' left positions, and its rule segment is appended to the
    engine with its pairs threaded in their records.  The pair rounds'
    rules wait on a pending list, so a pair round appends nothing, and the
    list is appended just before the next word's segment, so the segments
    keep creation order.  The engine is freed before the next scan and
    before the final grammar is built, so neither of them holds its memory
    at the same time as the engine.  Separators occur once, so the engine
    never counts a pair across one.  ``on_step(grammar)`` is invoked with
    the full grammar after every round when given.
    """
    policy = policy or GreedyPolicy.run_to_end()
    n = len(text)
    if n < 2:
        raise ValueError("Greedy needs |text| >= 2")
    if policy.kind == FULL_THRESHOLD and text.sigma < 2:
        raise ValueError("threshold policy needs sigma >= 2")
    threshold = greedy_threshold(n, text.sigma) if policy.kind == FULL_THRESHOLD else None
    sigma = text.sigma

    work = _join(text.array, [n])  # at the last scan; rule i is segment i + 1, separated by -(i + 2)
    engine = None  # the rounds since the last scan
    pending: list[int] = []  # the pair rules not yet appended, each followed by its separator
    steps: list[GreedyStep] = []
    size = n
    scans = 0

    def working() -> np.ndarray:
        if engine is None:
            return work
        return np.concatenate((engine.symbols(), np.array(pending, dtype=np.int64)))

    def grammar() -> FullGrammar:
        out = working()
        cut = np.flatnonzero(out < 0)  # segment i ends at the i-th separator
        return grammar_from_segments(sigma, np.delete(out, cut), cut - np.arange(len(cut)))

    def record(word, freq, gain, max_pair):
        steps.append(GreedyStep(len(steps) + 1, word, freq, gain, size, max_pair))
        if on_step is not None:
            on_step(grammar())

    def policy_stop() -> str | None:
        # the zero-gain rounds keep the size, so they never cross the threshold
        if threshold is not None and size < threshold:
            return "threshold"
        if policy.kind == MAX_ITERATIONS and len(steps) >= policy.param:
            return "max_iterations"
        return None

    stop = policy_stop()
    while stop is None:
        if engine is None:
            ties = _scan(work)
            scans += 1
            bound = _gain(int(ties[0, 2]), int(ties[0, 0])) if len(ties) else -1
            engine, pending, head = PairEngine(work), [], 0
            tie_records = [engine.pid[first] for first in ties[:, 1].tolist()]
        best = engine.select()
        if best is None:
            break
        pair, max_pair, _, positions = best
        new_symbol, separator = sigma + len(steps), -(len(steps) + 2)
        if max_pair - 2 > bound:
            engine.replace(pair, positions, new_symbol)
            pending += (*pair, separator)
            size -= max_pair - 2
            record(pair, max_pair, max_pair - 2, max_pair)
            stop = policy_stop()
            continue
        while head < len(ties):
            length, first, count = ties[head].tolist()
            word = work[first : first + length].tolist()
            positions = engine.occurrences(tie_records[head], word)
            if len(positions) >= count:
                break
            head += 1  # its count never rises again
        if head == len(ties) or len(positions) > count or positions[0] != first:
            work, engine = working(), None
            continue
        word_records = _replace_word(engine, word, positions, new_symbol)
        engine.append(pending + word + [separator],
                      [-1] * len(pending) + word_records + [-1, -1])
        pending = []
        head += 1
        size -= bound
        record(tuple(word), count, bound, max_pair)
        stop = policy_stop()

    work, engine = working(), None
    trace = GreedyTrace(steps, policy, n, sigma, threshold, stop or "exhausted", scans)
    return grammar(), trace


def greedy_stop_report(trace: GreedyTrace, text: Text) -> CheckReport:
    """Full-grammar size and nonterminal count at the threshold stop."""
    if trace.policy.kind != FULL_THRESHOLD:
        raise ValueError("stop report needs a full-size-threshold trace")
    n = len(text)
    final_size = trace.steps[-1].full_size_after if trace.steps else trace.initial_size
    return stop_report(trace, "greedy", "||S',G||", "full_size_at_stop", final_size,
                       math.sqrt(n) * log_sigma(n, text.sigma) + 3)
