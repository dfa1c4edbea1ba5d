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

import numpy as np

from .reporting import BoundRow, CheckReport
from .textcore import (
    LOG2E,
    Text,
    _context_counts,
    _min_table,
    _range_min,
    _runs,
    empirical_entropy,
)

VERIFY_SLACK = 1e-6


class InfiniteCostError(ValueError):
    """A phrase has probability zero, so its cost would be infinite."""


class Parsing:
    """A partition of a Text into nonempty phrases.

    Immutable: the phrases, their occurrence counts in the source and both
    entropies are computed once, on first use.
    """

    __slots__ = ("source", "boundaries", "_phrases", "_counts", "_entropy_bits",
                 "_lengths_entropy_bits")

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
        self._phrases = None
        self._counts = None
        self._entropy_bits = None
        self._lengths_entropy_bits = None

    @classmethod
    def from_lengths(cls, source: Text, lengths) -> "Parsing":
        cuts = [0]
        for l in lengths:
            cuts.append(cuts[-1] + l)
        return cls(source, cuts)

    def __len__(self):
        return len(self.boundaries) - 1

    @property
    def phrases(self) -> tuple:
        if self._phrases is None:
            s = self.source.symbols
            self._phrases = tuple(
                s[a:b] for a, b in zip(self.boundaries, self.boundaries[1:])
            )
        return self._phrases

    @property
    def lengths(self) -> tuple:
        return tuple(b - a for a, b in zip(self.boundaries, self.boundaries[1:]))

    def _phrase_counts(self) -> tuple:
        """Occurrences of each phrase in the source text, overlapping allowed."""
        if self._counts is None:
            cuts = np.asarray(self.boundaries, dtype=np.int64)
            self._counts = tuple(self.source._index.count_windows(cuts[:-1], np.diff(cuts)).tolist())
        return self._counts

    def entropy_bits(self) -> float:
        """|Y| H_0(Y): the phrase sequence viewed as a word."""
        if self._entropy_bits is None:
            self._entropy_bits = _multiset_entropy_bits(Counter(self.phrases), len(self))
        return self._entropy_bits

    def lengths_entropy_bits(self) -> float:
        """|L| H_0(L) for L the sequence of phrase lengths."""
        if self._lengths_entropy_bits is None:
            self._lengths_entropy_bits = _multiset_entropy_bits(Counter(self.lengths), len(self))
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


def _multiset_entropy_bits(counter: Counter, total: int) -> float:
    if total == 0:
        return 0.0
    return sum(c * math.log2(total / c) for c in counter.values())


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
    index = text._index
    if k is None:
        return index.count(phrase) / n
    if k < 0:
        raise ValueError("order must be >= 0")
    prob = text.sigma ** -float(min(len(phrase), k))
    for j in range(k, len(phrase)):
        num = index.count(phrase[j - k : j + 1])
        if num == 0:
            return 0.0
        prob *= num / index.count(phrase[j - k : j])
    return prob


def _k_cost_prefix(text: Text, k: int) -> np.ndarray:
    """Prefix sums of log2(count of k-gram at p) - log2(count of (k+1)-gram at p)."""
    cache = text.__dict__.setdefault("_k_cost_cache", {})
    if k not in cache:
        terms = np.zeros(0)
        for d, c in _context_counts(text, k, k, cyclic=False):  # none when k >= |text|
            terms = np.log2(d[: len(c)].astype(np.float64)) - np.log2(c.astype(np.float64))
        pref = np.zeros(len(terms) + 1)
        np.cumsum(terms, out=pref[1:])
        cache[k] = pref
    return cache[k]


def phrase_cost(text: Text, phrase, k: int | None = None) -> float:
    p = phrase_probability(text, phrase, k)
    if p == 0.0:
        raise InfiniteCostError(f"phrase {tuple(phrase)!r} has probability zero")
    return -math.log2(p)


def parsing_cost(parsing: Parsing, k: int | None = None) -> CostReport:
    """C(Y), optionally C_k(Y), plus the entropy figures of the parsing."""
    text = parsing.source
    n = len(text)
    log2n = math.log2(n) if n else 0.0
    cost = 0.0
    for occ in parsing._phrase_counts():
        cost += log2n - math.log2(occ)

    k_cost = None
    if k is not None:
        if k < 0:
            raise ValueError("order must be >= 0")
        log2sigma = math.log2(text.sigma)
        pref = _k_cost_prefix(text, k)
        k_cost = 0.0
        for a, b in zip(parsing.boundaries, parsing.boundaries[1:]):
            length = b - a
            k_cost += min(length, k) * log2sigma
            if length > k:
                k_cost += float(pref[a + length - k] - pref[a])

    return CostReport(
        parsing_entropy_bits=parsing.entropy_bits(),
        cost_bits=cost,
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
    log2n = math.log2(n)
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
        cost = 0.0
        for o in occ[pos : pos + len(bounds) - 1]:
            cost += log2n - math.log2(o)
        pos += len(bounds) - 1
        if best is None or cost < best[0] - 1e-12:
            best = (cost, bounds)
    return Parsing(text, best[1])


def lz78_parse(text: Text) -> Parsing:
    """Classic LZ78: each phrase extends a previously seen phrase by one letter."""
    children: dict[tuple[int, int], int] = {}
    next_id = 1
    lengths = []
    s = text.symbols
    i = 0
    n = len(s)
    while i < n:
        node = 0
        j = i
        while j < n and (node, s[j]) in children:
            node = children[(node, s[j])]
            j += 1
        if j < n:
            children[(node, s[j])] = next_id
            next_id += 1
            j += 1
        lengths.append(j - i)
        i = j
    return Parsing.from_lengths(text, lengths)


def lz77_parse_nonself(text: Text) -> Parsing:
    """Greedy LZ77 factorization without self-references.

    Each phrase is the longest string occurring entirely inside the already
    parsed prefix, plus one fresh letter (the final phrase may lack it).
    The copy at i is s[j : j+L] with j + L <= i, so L is the maximum over
    j < i of min(lcp(i, j), i - j).  The best j lies on the chain of
    previous-smaller, or of next-smaller, text positions around rank[i] in
    the suffix array (Crochemore & Ilie, IPL 2008): along a chain lcp only
    falls and i - j only grows, so each walk stops once i - j >= lcp, after
    at most one step more than the phrase is long.
    """
    n = len(text)
    index = text._index
    ranks = np.arange(n)
    # the nearest rank on each side whose suffix starts earlier in the text,
    # and the lcp with it; lcp 0 past the end of a chain ends the walk
    left, right = _runs(_min_table(index.sa), ranks, ranks + 1, index.sa + 1)
    prev, nxt = ranks - 1 - left, ranks + 1 + right
    lcp_table = _min_table(index.lcp)
    prev_lcp = np.zeros(n, dtype=np.int64)
    linked = prev >= 0
    prev_lcp[linked] = _range_min(lcp_table, prev[linked] + 1, ranks[linked] + 1)
    next_lcp = np.zeros(n, dtype=np.int64)
    linked = nxt < n
    next_lcp[linked] = _range_min(lcp_table, ranks[linked] + 1, nxt[linked] + 1)
    # memoryviews read numpy memory as Python ints, without a list per array
    walks = ((memoryview(prev), memoryview(prev_lcp)), (memoryview(nxt), memoryview(next_lcp)))
    sa, rank = memoryview(index.sa), memoryview(index.rank)
    lengths = []
    i = 0
    while i < n:
        best = 0
        for chain, chain_lcp in walks:
            p = chain[rank[i]]
            common = chain_lcp[rank[i]]
            while common > best:
                gap = i - sa[p]
                if gap >= common:
                    best = common
                    break
                best = max(best, gap)
                common = min(common, chain_lcp[p])
                p = chain[p]
        take = min(best + 1, n - i)
        lengths.append(take)
        i += take
    return Parsing.from_lengths(text, lengths)


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
    cuts = np.asarray(parsing.boundaries, dtype=np.int64)
    lengths = np.diff(cuts)
    long = np.flatnonzero(lengths > limit + 1e-12)
    counts = text._index.count_windows(cuts[long], lengths[long] - 1)
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
    out.add(
        BoundRow.check(
            "k_cost_le_hk",
            rep.k_cost_bits,
            hk_total + len(parsing) * k * math.log2(text.sigma),
            VERIFY_SLACK,
        )
    )
    out.add(
        BoundRow.check(
            "parsing_entropy_vs_hk",
            y_h0,
            hk_total + len(parsing) * k * math.log2(text.sigma) + l_h0,
            VERIFY_SLACK,
        )
    )
    m = len(parsing)
    if m:
        n = len(text)
        out.add(
            BoundRow.check(
                "lengths_entropy",
                l_h0,
                m * math.log2(n / m) + m * (1 + LOG2E),
                VERIFY_SLACK,
            )
        )
    out.measurements.update(
        {
            "parsing_entropy_bits": y_h0,
            "cost_bits": rep.cost_bits,
            "k_cost_bits": rep.k_cost_bits,
            "lengths_entropy_bits": l_h0,
            "hk_total_bits": hk_total,
            "k": k,
            "phrases": m,
        }
    )
    return out
