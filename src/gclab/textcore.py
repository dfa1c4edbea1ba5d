"""Symbol sequences, substring counting (linear and cyclic) and k-order
empirical entropy.

A Text is an immutable sequence of integer symbol ids over a declared
alphabet of size sigma.  Counting has two backends.  One suffix index per
text, built lazily (suffix array, its inverse and LCP, by prefix doubling),
answers ad-hoc pattern counts by binary search, O(|pattern| log n), counts
many of the text's own windows at once as LCP-interval widths, and gives
the parsers their longest previous factors.  A ladder of cyclic window
ranks serves fixed-length counts: the length-g ranks come from the
length-(g-1) ranks plus the next symbol by one numpy sort, so one walk
counts every order, linear and cyclic, for the entropy and certificate
machinery.  All logarithms are base 2.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

LOG2E = math.log2(math.e)


class _SuffixIndex:
    """Suffix array, inverse suffix array and LCP array of one text.

    sa lists the suffix start positions in lexicographic order of the
    suffixes (a proper prefix sorts first), rank is its inverse and lcp[r]
    is the length of the longest common prefix of the suffixes at sa[r-1]
    and sa[r] (lcp[0] = 0).  The suffixes are sorted by prefix doubling
    (Manber & Myers, SIAM J. Comput. 1993) over the observed-alphabet codes,
    so any alphabet up to 2^32 works, and lcp comes from the doubling levels
    by binary lifting.  The symbols tuple is kept, not copied, for pattern
    search.
    """

    __slots__ = ("symbols", "sa", "rank", "lcp")

    def __init__(self, symbols: tuple, codes: np.ndarray):
        n = len(codes)
        dtype = np.int32 if n < 1 << 31 else np.int64
        # level t ranks every suffix by its first 2^t symbols (padded below
        # every symbol past the end); ranks stay below n, so keys stay below
        # (n + 1)^2 and never overflow
        rank = codes
        distinct = int(codes.max()) + 1 if n else 0
        levels = [rank.astype(dtype)]
        h = 1
        while distinct < n:
            key = rank * (n + 1)
            key[: n - h] += rank[h:] + 1
            uniq, rank = np.unique(key, return_inverse=True)
            distinct = len(uniq)
            levels.append(rank.astype(dtype))
            h *= 2
        self.symbols = symbols
        self.rank = levels[-1]
        self.sa = np.empty(n, dtype=dtype)
        self.sa[self.rank] = np.arange(n, dtype=dtype)
        # equal ranks at level t on two distinct positions mean equal windows
        # of 2^t symbols (a padded window is unique), and every pair differs
        # within the last level's length, so descending levels sum the LCP;
        # the suffix at b sorts first, so only it can run out
        a, b = self.sa[1:], self.sa[:-1]
        self.lcp = np.zeros(n, dtype=dtype)
        common = self.lcp[1:]
        for t in range(len(levels) - 2, -1, -1):
            ia, ib = a + common, b + common
            same = (ib < n) & (levels[t][ia] == levels[t][np.minimum(ib, n - 1)])
            common += same.astype(dtype) << t

    def count(self, pattern: tuple) -> int:
        """Occurrences of pattern (any symbols), by binary search of the
        suffix array: O(|pattern| log n)."""
        s, m = self.symbols, len(pattern)

        def window(p):
            return s[p : p + m]

        return bisect_right(self.sa, pattern, key=window) - bisect_left(self.sa, pattern, key=window)

    def count_windows(self, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Occurrences of text[a : a + m] for each (a, m) at once: the width of
        the LCP interval of depth m around rank[a]."""
        r = self.rank[starts].astype(np.int64)
        left, right = _runs(_min_table(self.lcp[1:]), r, r, lengths)
        return left + right + 1


def _min_table(values: np.ndarray) -> list[np.ndarray]:
    """Sparse table: level j holds the minimum of values[x : x + 2^j] at x."""
    table = [values]
    w = 1
    while 2 * w <= len(values):
        table.append(np.minimum(table[-1][:-w], table[-1][w:]))
        w *= 2
    return table


def _runs(table, left_from, right_from, floor):
    """Per query, how many consecutive values from values[left_from - 1]
    leftwards, and from values[right_from] rightwards, are >= floor; by
    binary lifting over the sparse table of values."""
    n = len(table[0])
    lo = np.array(left_from, dtype=np.int64)
    hi = np.array(right_from, dtype=np.int64)
    for j in range(len(table) - 1, -1, -1) if n else ():  # an empty table has nothing to read
        w, level = 1 << j, table[j]
        ok = (lo >= w) & (level[np.maximum(lo - w, 0)] >= floor)
        lo -= ok.astype(np.int64) << j
        ok = (hi + w <= n) & (level[np.minimum(hi, n - w)] >= floor)
        hi += ok.astype(np.int64) << j
    return left_from - lo, hi - right_from


def _range_min(table, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """min(values[a : b]) per query (a < b), from the sparse table of values."""
    length = b - a
    out = np.empty(len(a), dtype=np.int64)
    for j, level in enumerate(table):
        sel = (length >> j) == 1
        out[sel] = np.minimum(level[a[sel]], level[b[sel] - (1 << j)])
    return out


class Text:
    """Immutable symbol sequence over an integer alphabet of size sigma."""

    __slots__ = ("symbols", "sigma", "__dict__")

    def __init__(self, symbols, sigma: int):
        symbols = tuple(symbols)
        if sigma < 1:
            raise ValueError("sigma must be >= 1")
        if sigma > 1 << 32:
            raise ValueError("alphabets larger than 2^32 are unsupported")
        for s in symbols:
            if not 0 <= s < sigma:
                raise ValueError(f"symbol {s} out of range for sigma={sigma}")
        self.symbols = symbols
        self.sigma = sigma

    def __len__(self):
        return len(self.symbols)

    def __eq__(self, other):
        return (
            isinstance(other, Text)
            and self.sigma == other.sigma
            and self.symbols == other.symbols
        )

    def __hash__(self):
        return hash((self.sigma, self.symbols))

    def __repr__(self):
        head = ",".join(map(str, self.symbols[:8]))
        tail = ",..." if len(self.symbols) > 8 else ""
        return f"Text([{head}{tail}] n={len(self)} sigma={self.sigma})"

    @classmethod
    def from_bytes(cls, data: bytes) -> "Text":
        return cls(data, 256)

    @classmethod
    def from_string(cls, s: str, sigma: int | None = None) -> "Text":
        """Convenience for tests: letters a,b,c,... become ids 0,1,2,..."""
        ids = tuple(ord(c) - ord("a") for c in s)
        if sigma is None:
            sigma = max(ids, default=0) + 1
        return cls(ids, sigma)

    @classmethod
    def from_tokens(cls, payload: str) -> "Text":
        """Token format: first line ``sigma=<int>``, then whitespace-separated ids."""
        stripped = payload.lstrip()
        if not stripped.startswith("sigma="):
            raise ValueError('token input must start with a "sigma=<int>" header')
        header, _, rest = stripped.partition("\n")
        sigma = int(header[len("sigma="):])
        return cls((int(t) for t in rest.split()), sigma)

    def to_tokens(self) -> str:
        return f"sigma={self.sigma}\n" + " ".join(map(str, self.symbols)) + "\n"

    @cached_property
    def _array(self) -> np.ndarray:
        return np.asarray(self.symbols, dtype=np.int64)

    @cached_property
    def _index(self) -> _SuffixIndex:
        return _SuffixIndex(self.symbols, self._remap[0])

    # -- fixed-length window machinery -------------------------------------

    @cached_property
    def _remap(self) -> tuple[np.ndarray, int]:
        """Array re-coded over the observed alphabet, plus its size."""
        uniq, inv = np.unique(self._array, return_inverse=True)
        return inv.astype(np.int64), max(1, len(uniq))

    def _rank_ladder(self, g_max: int):
        """Yield (g, ranks) for g = 1..min(g_max, n).

        ranks[p] is the dense lexicographic rank of the cyclic window of
        length g starting at p, so equal windows have equal ranks, and the
        linear windows of length g are ranks[: n-g+1].  Level g ranks the
        keys (level g-1 rank, next symbol) by one sort, as Manber & Myers'
        suffix sorting (1993) refines ranks by prefix extension; ranks stay
        below n, so the keys stay below n * sigma_obs and never overflow.
        No level is cached.
        """
        arr, base = self._remap
        ranks = arr
        for g in range(1, min(g_max, len(self.symbols)) + 1):
            if g > 1:
                ranks = np.unique(ranks * base + np.roll(arr, 1 - g), return_inverse=True)[1]
            yield g, ranks

    def window_codes(self, g: int, cyclic: bool) -> np.ndarray:
        """Ranks of all length-g windows: equal windows, equal ranks.

        Linear mode yields n-g+1 windows (empty when g > n), cyclic mode
        n windows with wraparound.
        """
        if g < 0:
            raise ValueError("window length must be >= 0")
        n = len(self.symbols)
        if g == 0:
            return np.zeros(n if cyclic else n + 1, dtype=np.int64)
        if g > n:
            if cyclic:
                raise ValueError("cyclic windows require pattern length <= |text|")
            return np.zeros(0, dtype=np.int64)
        for _, ranks in self._rank_ladder(g):
            pass
        return ranks if cyclic else ranks[: n - g + 1]

    def window_count_histogram(self, g: int, cyclic: bool) -> dict[int, int]:
        """Map occurrence-count -> number of distinct length-g words with it."""
        return _count_histogram(self.window_codes(g, cyclic))

    def position_counts(self, g: int, cyclic: bool) -> np.ndarray:
        """counts[p] = occurrences of the length-g window starting at p."""
        return _position_counts(self.window_codes(g, cyclic))


def _position_counts(ranks: np.ndarray) -> np.ndarray:
    """Occurrences of each position's window among the windows ranked."""
    return np.bincount(ranks)[ranks]


def _count_histogram(ranks: np.ndarray) -> dict[int, int]:
    """Map occurrence-count -> number of distinct windows with it."""
    counts = np.bincount(ranks)
    vals, mult = np.unique(counts[counts > 0], return_counts=True)
    return {int(v): int(m) for v, m in zip(vals, mult)}


def _context_counts(text: Text, k_lo: int, k_hi: int, cyclic: bool):
    """Yield (d, c) for k = k_lo..k_hi from one walk of the rank ladder.

    c[p] counts the (k+1)-window at p, d[p] the k-window at p (n for k = 0,
    as |w|_eps = |w|); linear d has one more entry than c.  Orders whose
    (k+1)-windows exceed the text are not yielded.
    """
    n = len(text)
    d = np.full(n, n)
    for g, ranks in text._rank_ladder(k_hi + 1):
        if g < k_lo:
            continue
        c = _position_counts(ranks if cyclic else ranks[: n - g + 1])
        if g > k_lo:
            yield d, c
        d = c


def _hk_total(d: np.ndarray, c: np.ndarray) -> float:
    """|S|H_k from the per-position counts of _context_counts."""
    total = float(np.sum(np.log2(d[: len(c)].astype(np.float64) / c.astype(np.float64))))
    return max(total, 0.0)


def _hk_totals(text: Text, k_lo: int, k_hi: int, cyclic: bool) -> list[float]:
    """|S|H_k for k = k_lo..k_hi from one walk; linear orders k >= |S| give 0."""
    n = len(text)
    if cyclic and 0 < n <= k_hi:
        raise ValueError("cyclic entropy requires k < |text|")
    totals = [_hk_total(d, c) for d, c in _context_counts(text, k_lo, k_hi, cyclic)]
    return totals + [0.0] * (k_hi - k_lo + 1 - len(totals))


def count_occurrences(text: Text, pattern, cyclic: bool = False) -> int:
    """Occurrences of pattern in text, overlapping allowed.

    Linear mode counts ordinary substring occurrences; cyclic mode counts
    start positions 0..|text|-1 reading with wraparound.  An empty pattern
    counts |text| by convention.
    """
    pattern = tuple(pattern)
    n = len(text)
    if len(pattern) == 0:
        return n
    if not cyclic:
        return text._index.count(pattern)
    m = len(pattern)
    if m > n:
        raise ValueError("cyclic counting requires pattern length <= |text|")
    # the cyclic starts n-m+1..n-1 are the linear occurrences in the 2m-2
    # symbols around the wrap point
    wrap = Text(text.symbols[n - m + 1 :] + text.symbols[: m - 1], text.sigma)
    return text._index.count(pattern) + count_occurrences(wrap, pattern)


def empirical_entropy(text: Text, k: int, cyclic: bool = False) -> tuple[float, float]:
    """|S| H_k(S) in bits and the per-symbol value.

    Context counts are plain substring counts (the occurrence of a context
    at the very end of the string is included), zero-count terms contribute
    nothing.  Cyclic mode uses wraparound counts and requires k < |S|.
    """
    if k < 0:
        raise ValueError("entropy order must be >= 0")
    (total,) = _hk_totals(text, k, k, cyclic)
    return total, total / max(len(text), 1)


@dataclass(frozen=True)
class EntropyProfile:
    """Entropies H_0..H_kmax of one text plus running means."""

    per_order: tuple[tuple[int, float, float], ...]  # (k, total_bits, bits/symbol)
    cyclic: bool
    mean_up_to: dict[int, float] = field(default_factory=dict)  # l -> mean of H_0..H_{l-1}

    def bits_per_symbol(self, k: int) -> float:
        return self.per_order[k][2]

    def total_bits(self, k: int) -> float:
        return self.per_order[k][1]


def entropy_profile(text: Text, k_max: int, cyclic: bool = False) -> EntropyProfile:
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    n = max(len(text), 1)
    rows = [(k, total, total / n) for k, total in enumerate(_hk_totals(text, 0, k_max, cyclic))]
    means = {}
    acc = 0.0
    for l in range(1, k_max + 2):
        acc += rows[l - 1][2]
        means[l] = acc / l
    return EntropyProfile(tuple(rows), cyclic, means)


def load_text(path: str) -> Text:
    """Read a text file: token format when it starts with "sigma=", else bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.lstrip().startswith(b"sigma="):
        return Text.from_tokens(data.decode("ascii"))
    return Text.from_bytes(data)
