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
the best word of length >= 3, whose gain is ``bound`` (-1 if none), and the
exact count of the most frequent pair.  A long word that gains at least as
much as that pair replaces its occurrences with a keep-mask and appends the
new rule and its separator (_apply); the next round scans again.  Else a
PairEngine over the array makes the pair rounds without a scan for as long
as its best pair gains more than ``bound`` (zero-gain rounds included, once
``bound`` is -1): between scans no word of length >= 3 can gain more than
``bound`` (see greedy_run).  Lists are built only for on_step and the
final grammar.
"""

from __future__ import annotations

import math
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


class _Candidate:
    __slots__ = ("gain", "length", "first", "word", "count", "positions")

    def __init__(self, gain, length, first, word, count, positions):
        self.gain = gain
        self.length = length
        self.first = first
        self.word = word
        self.count = count
        self.positions = positions


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


def _scan(work: np.ndarray) -> tuple[_Candidate | None, int]:
    """The best word of length >= 3 over all segment substrings (None when
    none occurs twice) and the exact count of the most frequent pair (1 when
    none repeats).  Pairs are counted but not ranked: greedy_run weighs the
    pair count against the long word's gain.

    ``work`` is the working array: S' and every rule's right-hand side, each
    followed by its own negative separator.  Level l groups the length-l
    windows that start where a length-(l-1) window has occurrences at least
    l apart (so two disjoint length-l windows fit): one stable argsort of the
    (level l-1 group, next symbol) codes puts each group's positions in
    ascending order; windows that reach a separator are dropped.

    Gap test: a group whose consecutive positions are all >= l apart counts
    every occurrence; only a group with a gap < l runs the left-to-right
    count.  From length 3 on, the level's best (maximum count, then leftmost
    first occurrence) is compared with the running best by (gain, length,
    -first); the winner's taken positions and word are built once, at the end.
    """
    width = int(work.max()) + 1
    pos = np.flatnonzero(work[:-1] >= 0)
    code = work[pos]
    if width > 1 << 31:
        # symbol * width + symbol would overflow int64 (sigma may be 2^32);
        # group codes at later levels stay below len(work)
        code = np.unique(code, return_inverse=True)[1].reshape(-1)
    best = None  # ((gain, length, -first), count, group positions, has a gap < length)
    max_pair = 1
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
        elif top >= 2:
            gain = (top - 1) * (length - 1) - 1
            tied = np.flatnonzero(freq == top)
            g = tied[np.argmin(pos[starts[tied]])]
            first = int(pos[starts[g]])
            rank = (gain, length, -first)
            if best is None or rank > best[0]:
                s = starts[g]
                best = (rank, top, pos[s : s + counts[g]], bool(overlapping[g]))
        alive = pos[starts + counts - 1] - pos[starts] > length
        if not alive.any():
            break
        code = np.repeat(np.arange(int(alive.sum())), counts[alive])
        pos = pos[np.repeat(alive, counts)]
    if best is None:
        return None, max_pair
    (gain, length, negfirst), count, group, overlapping = best
    if overlapping:
        group = np.array(_greedy_occurrences(group.tolist(), length), dtype=np.int64)
    word = tuple(work[-negfirst : -negfirst + length].tolist())
    return _Candidate(gain, length, -negfirst, word, count, group), max_pair


def _apply(work: np.ndarray, cand: _Candidate, new_symbol: int, separator: int):
    """The working array with the candidate's occurrences replaced by
    new_symbol, then the new rule and its separator appended."""
    starts = cand.positions
    keep = np.ones(len(work), dtype=bool)
    keep[(starts[:, None] + np.arange(1, cand.length)).ravel()] = False
    out = work.copy()
    out[starts] = new_symbol
    return np.concatenate((out[keep], np.array([*cand.word, separator], dtype=np.int64)))


def greedy_run(
    text: Text,
    policy: GreedyPolicy | None = None,
    on_step=None,
) -> tuple[FullGrammar, GreedyTrace]:
    """Run Greedy under the given stopping policy.

    One test decides each round: a pair round when the best pair's gain,
    count - 2, is strictly greater than ``bound``, the gain of the last
    scan's best word of length >= 3 (-1 if none); else that word's round,
    or the end.  The first pair round after a scan builds a PairEngine,
    whose first select() is the scan's best pair (same count and leftmost
    tie-break); later rounds test its next select() and keep their rules
    and separators on a pending list, and a failed test there rebuilds the
    array for a new scan.  This is exact: between scans a word of length
    >= 3 without a new symbol only loses occurrences (a pair's rule segment
    holds none), and one that contains new symbols expands to a longer word,
    with at least as many disjoint occurrences at the scan, that gained
    more.  So no word of length >= 3 gains more than ``bound``, and one that
    gains exactly ``bound`` beats an equal pair by length.  Separators occur
    once, so the engine never counts a pair across one.  ``on_step(grammar)``
    is invoked with the full grammar after every round when given.
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
    steps: list[GreedyStep] = []
    size = n

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
        if engine is None:
            long, max_pair = _scan(work)
            bound = -1 if long is None else long.gain
            if max_pair - 2 <= bound:
                if long is None:
                    break
                work = _apply(work, long, sigma + len(steps), -(len(steps) + 2))
                size -= long.gain
                record(long.word, long.count, long.gain, max_pair)
                stop = policy_stop()
                continue
            engine, pending = PairEngine(work), []
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
    trace = GreedyTrace(steps, policy, n, sigma, threshold, stop or "exhausted")
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
