"""Parsings of a text and the phrase-probability cost calculus.

A parsing partitions a text into nonempty phrases.  Phrase probabilities
multiply per-letter empirical probabilities (the j-th letter conditioned on
the j-1 preceding ones, or on at most k of them in the k-bounded variant);
costs are negative base-2 logs of those products.  The module also ships
the optimal-offset fixed-length parsing, LZ78, a non-self-referencing LZ77
variant, the natural-parser predicate, and the bound verifier tying parsing
entropy to the k-order entropy of the source.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .reporting import BoundRow, CheckReport
from .textcore import LOG2E, Text, _h0_bits, _order, count_occurrences, empirical_entropy

VERIFY_SLACK = 1e-6


class InfiniteCostError(ValueError):
    """A phrase has probability zero, so its cost would be infinite."""


class Parsing:
    """A partition of a Text into nonempty phrases.

    Immutable: every per-phrase figure (lengths, phrases, their occurrence
    counts in the source, the phrase multiset, both entropies and C(Y)) is
    computed once, on first use.
    """

    __slots__ = ("source", "boundaries", "__dict__")

    def __init__(self, source: Text, boundaries):
        boundaries = tuple(boundaries)
        n = len(source)
        if n == 0:
            if boundaries not in ((0,), ()):
                raise ValueError("empty text admits only the empty parsing")
            boundaries = (0,)
        else:
            if boundaries[0] != 0 or boundaries[-1] != n:
                raise ValueError("boundaries must cover [0, |S|]")
            for a, b in zip(boundaries, boundaries[1:]):
                if b <= a:
                    raise ValueError("phrases must be nonempty")
        self.source = source
        self.boundaries = boundaries

    @classmethod
    def from_lengths(cls, source: Text, lengths) -> "Parsing":
        return cls(source, accumulate(lengths, initial=0))

    def __len__(self):
        return len(self.boundaries) - 1

    @cached_property
    def phrases(self) -> tuple:
        s = self.source.symbols
        return tuple(s[a:b] for a, b in zip(self.boundaries, self.boundaries[1:]))

    @cached_property
    def lengths(self) -> tuple:
        return tuple(b - a for a, b in zip(self.boundaries, self.boundaries[1:]))

    @cached_property
    def occurrences(self) -> tuple:
        """|S|_y of each phrase y in the source text, overlapping allowed."""
        cuts = np.asarray(self.boundaries, dtype=np.int64)
        return tuple(self.source._index.count_windows(cuts[:-1], np.diff(cuts)).tolist())

    @cached_property
    def multiset(self) -> Counter:
        """Each distinct phrase and its count in Y, in first-occurrence order."""
        return Counter(self.phrases)

    @cached_property
    def cost_bits(self) -> float:
        """C(Y)."""
        return _cost_bits(len(self.source), self.occurrences)

    @cached_property
    def _entropy_bits(self) -> float:
        return _h0_bits(self.multiset.values(), len(self))

    @cached_property
    def _lengths_entropy_bits(self) -> float:
        return _h0_bits(Counter(self.lengths).values(), len(self))

    def entropy_bits(self) -> float:
        """|Y| H_0(Y): the phrase sequence viewed as a word."""
        return self._entropy_bits

    def lengths_entropy_bits(self) -> float:
        """|L| H_0(L) for L the sequence of phrase lengths."""
        return self._lengths_entropy_bits

    def dumps(self) -> str:
        return f"n={len(self.source)}\n" + "\n".join(map(str, self.lengths)) + "\n"

    @classmethod
    def loads(cls, source: Text, payload: str) -> "Parsing":
        lines = [ln for ln in payload.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("n="):
            raise ValueError('parsing payload must start with "n=<int>"')
        n = int(lines[0][2:])
        if n != len(source):
            raise ValueError("parsing length header does not match the text")
        return cls.from_lengths(source, [int(ln) for ln in lines[1:]])


def _cost_bits(n: int, occurrences) -> float:
    """C(Y) = sum of log2|S| - log2|S|_y over the phrases y, in phrase order."""
    log2n = math.log2(n) if n else 0.0
    cost = 0.0
    for occ in occurrences:
        cost += log2n - math.log2(occ)
    return cost


@dataclass(frozen=True)
class CostReport:
    """Cost and entropy figures of one parsing."""

    parsing_entropy_bits: float   # |Y| H_0(Y)
    cost_bits: float              # C(Y)
    k_cost_bits: float | None     # C_k(Y), when an order was given
    lengths_entropy_bits: float   # |L| H_0(L)
    k: int | None


def phrase_probability(text: Text, phrase, k: int | None = None) -> float:
    """Empirical phrase probability; 0 when some window never occurs.

    Without k the per-letter conditional counts telescope to |S|_y / |S|;
    with k the first min(|y|, k) letters cost 1/sigma each and later letters
    are conditioned on exactly k predecessors.
    """
    phrase = tuple(phrase)
    n = len(text)
    if n == 0:
        raise ValueError("probabilities need a nonempty text")
    if len(phrase) == 0:
        return 1.0
    if k is None:
        return count_occurrences(text, phrase) / n
    if k < 0:
        raise ValueError("order must be >= 0")
    prob = text.sigma ** -float(min(len(phrase), k))
    for j in range(k, len(phrase)):
        num = count_occurrences(text, phrase[j - k : j + 1])
        if num == 0:
            return 0.0
        prob *= num / count_occurrences(text, phrase[j - k : j])
    return prob


def phrase_cost(text: Text, phrase, k: int | None = None) -> float:
    p = phrase_probability(text, phrase, k)
    if p == 0.0:
        raise InfiniteCostError(f"phrase {tuple(phrase)!r} has probability zero")
    return -math.log2(p)


def parsing_cost(parsing: Parsing, k: int | None = None) -> CostReport:
    """C(Y), optionally C_k(Y), plus the entropy figures of the parsing.

    C_k is int(sum min(L, k)) log2 sigma plus the order-k terms log2(d/c) of
    the windows [t, t+k] that lie in one phrase; at k = 0 that is every
    window, so C_0 is the very sum that gives |S|H_0."""
    k_cost = None
    if k is not None:
        if k < 0:
            raise ValueError("order must be >= 0")
        text = parsing.source
        _, terms = _order(text, k, False)
        lengths = np.asarray(parsing.lengths, dtype=np.int64)
        ids = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)
        inside = ids[: len(terms)] == ids[k : k + len(terms)]
        k_cost = (int(np.minimum(lengths, k).sum()) * math.log2(text.sigma)
                  + float(np.sum(terms[inside])))

    return CostReport(
        parsing_entropy_bits=parsing.entropy_bits(),
        cost_bits=parsing.cost_bits,
        k_cost_bits=k_cost,
        lengths_entropy_bits=parsing.lengths_entropy_bits(),
        k=k,
    )


def best_offset_parsing(text: Text, l: int) -> Parsing:
    """The offset-i fixed-length-l parsing minimizing C(Y); smallest offset wins ties.

    Offset i puts a first phrase of length i (dropped when i = 0), then
    length-l phrases, then a possibly short tail.  The winner satisfies
    C(Y) <= |S| * mean(H_0..H_{l-1}) + log |S| and |Y| <= ceil(|S|/l) + 1.
    """
    n = len(text)
    if not 1 <= l <= n:
        raise ValueError("phrase length out of range")
    candidates = []
    for off in range(l):
        bounds = list(range(off, n + 1, l))
        if off:
            bounds.insert(0, 0)
        if bounds[-1] != n:
            bounds.append(n)
        candidates.append(bounds)
    cuts = [np.asarray(bounds, dtype=np.int64) for bounds in candidates]
    occ = text._index.count_windows(
        np.concatenate([c[:-1] for c in cuts]), np.concatenate([np.diff(c) for c in cuts])
    ).tolist()

    best = None
    pos = 0
    for bounds in candidates:
        counts = occ[pos : pos + len(bounds) - 1]
        pos += len(counts)
        cost = _cost_bits(n, counts)
        if best is None or cost < best[0] - 1e-12:
            best = (cost, bounds, counts)
    winner = Parsing(text, best[1])
    # fill the winner's cached figures from its candidate's
    winner.__dict__.update(cost_bits=best[0], occurrences=tuple(best[2]))
    return winner


def lz78_parse(text: Text) -> Parsing:
    """Classic LZ78: each phrase extends a previously seen phrase by one letter.

    The trie is one dict keyed by node * sigma + letter, with every node id
    stored already multiplied by sigma (the root is 0), so a step is one add
    and one lookup; the key is injective since every letter is below sigma.
    """
    sigma = text.sigma
    children: dict[int, int] = {}
    get = children.get
    next_node = sigma
    boundaries = [0]
    node = 0
    for j, letter in enumerate(text.symbols, 1):
        key = node + letter
        child = get(key)
        if child is None:
            children[key] = next_node
            next_node += sigma
            boundaries.append(j)
            node = 0
        else:
            node = child
    if node:  # the text ends inside a known phrase
        boundaries.append(len(text))
    return Parsing(text, boundaries)


def _smaller_chains(sa, lcp) -> tuple[list, list, list, list]:
    """(prev, prev_lcp, nxt, next_lcp) per rank r of the suffix array sa: the
    nearest ranks below and above r whose suffix starts earlier in the text
    (-1 and n when none), and the least lcp between r and each (0 when none,
    which ends a walk).  One left-to-right scan with a stack of ranks whose
    text positions ascend, kept beside them so that sa is read once, in
    order (Goto & Bannai, DCC 2013; Kärkkäinen, Kempa & Puglisi, CPM 2013):
    at r the running minimum starts at lcp[r]; each rank popped gets nxt = r
    and the running minimum, which then takes the popped rank's prev_lcp;
    the rank left on top is r's prev."""
    n = len(sa)
    prev, prev_lcp, nxt, next_lcp = [-1] * n, [0] * n, [n] * n, [0] * n
    ranks, starts = [], []
    for r, (pos, low) in enumerate(zip(sa, lcp)):
        while starts and starts[-1] > pos:
            starts.pop()
            q = ranks.pop()
            nxt[q] = r
            next_lcp[q] = low
            if prev_lcp[q] < low:
                low = prev_lcp[q]
        if ranks:
            prev[r] = ranks[-1]
            prev_lcp[r] = low
        ranks.append(r)
        starts.append(pos)
    return prev, prev_lcp, nxt, next_lcp


def lz77_parse_nonself(text: Text) -> Parsing:
    """Greedy LZ77 factorization without self-references.

    Each phrase is the longest string occurring entirely inside the already
    parsed prefix, plus one fresh letter (the final phrase may lack it).
    The copy at i is s[j : j+L] with j + L <= i, so L is the maximum over
    j < i of min(lcp(i, j), i - j).  The best j lies on the chain of
    previous-smaller, or of next-smaller, text positions around rank[i] in
    the suffix array (Crochemore & Ilie, IPL 2008), from _smaller_chains:
    along a chain lcp only falls and i - j only grows, so each walk stops
    once i - j >= lcp, after at most one step more than the phrase is long.
    The walk reads rank[i] once per phrase and takes each chain step's
    maximum and minimum by comparison, with no builtin call.
    """
    n = len(text)
    index = text._index
    # memoryviews read numpy memory as Python ints, without a list per array
    sa, rank = memoryview(index.sa), memoryview(index.rank)
    prev, prev_lcp, nxt, next_lcp = _smaller_chains(sa, memoryview(index.lcp))
    walks = ((prev, prev_lcp), (nxt, next_lcp))
    boundaries = [0]
    i = 0
    while i < n:
        r = rank[i]
        best = 0
        for chain, chain_lcp in walks:
            p = chain[r]
            common = chain_lcp[r]
            while common > best:
                gap = i - sa[p]
                if gap >= common:
                    best = common
                    break
                if gap > best:
                    best = gap
                link = chain_lcp[p]
                if link < common:
                    common = link
                p = chain[p]
        i += best + 1 if best < n - i else n - i
        boundaries.append(i)
    return Parsing(text, boundaries)


def is_natural_parsing(parsing: Parsing) -> tuple[bool, list[int]]:
    """Check the natural-parser phrase condition.

    Every phrase y = wa must satisfy |S|_w > 1 or |y| <= log_sigma |S|.
    Returns the flag and the indices of offending phrases.
    """
    text = parsing.source
    if text.sigma < 2:
        raise ValueError("natural-parser predicate needs sigma >= 2")
    n = len(text)
    limit = math.log(n) / math.log(text.sigma) if n else 0.0
    lengths = np.asarray(parsing.lengths, dtype=np.int64)
    long = np.flatnonzero(lengths > limit + 1e-12)
    starts = np.asarray(parsing.boundaries, dtype=np.int64)[long]
    counts = text._index.count_windows(starts, lengths[long] - 1)
    violations = long[counts <= 1].tolist()
    return not violations, violations


def verify_parsing_bounds(parsing: Parsing, k: int) -> CheckReport:
    """The three core inequalities linking parsing entropy, costs and H_k.

    Rows: |Y|H0(Y) <= C(Y) + |L|H0(L); |Y|H0(Y) <= C_k(Y) + |L|H0(L);
    C_k(Y) <= |S|H_k(S) + |Y| k log sigma.  Slack 1e-6 absolute.
    """
    text = parsing.source
    rep = parsing_cost(parsing, k)
    hk_total, _ = empirical_entropy(text, k)
    y_h0 = rep.parsing_entropy_bits
    l_h0 = rep.lengths_entropy_bits
    out = CheckReport()
    out.add(BoundRow.check("parsing_entropy_le_cost", y_h0, rep.cost_bits + l_h0, VERIFY_SLACK))
    out.add(BoundRow.check("parsing_entropy_le_k_cost", y_h0, rep.k_cost_bits + l_h0, VERIFY_SLACK))
    hk_side = hk_total + len(parsing) * k * math.log2(text.sigma)
    out.add(BoundRow.check("k_cost_le_hk", rep.k_cost_bits, hk_side, VERIFY_SLACK))
    out.add(BoundRow.check("parsing_entropy_vs_hk", y_h0, hk_side + l_h0, VERIFY_SLACK))
    m = len(parsing)
    if m:
        lengths_rhs = m * math.log2(len(text) / m) + m * (1 + LOG2E)
        out.add(BoundRow.check("lengths_entropy", l_h0, lengths_rhs, VERIFY_SLACK))
    out.measurements.update(
        parsing_entropy_bits=y_h0, cost_bits=rep.cost_bits, k_cost_bits=rep.k_cost_bits,
        lengths_entropy_bits=l_h0, hk_total_bits=hk_total, k=k, phrases=m,
    )
    return out
