"""Symbol sequences, substring counting (linear and cyclic) and k-order
empirical entropy.

A Text is an immutable sequence of integer symbol ids over a declared
alphabet of size sigma, held as one read-only int64 array; its tuple of
Python ints is built only on request.  Counting has two backends.  One
suffix index per text, built lazily (suffix array, its inverse and LCP, by
prefix doubling), answers ad-hoc pattern counts by binary search,
O(|pattern| log n), counts many of the text's own windows at once as
LCP-interval widths (_runs: how far the LCP stays >= m around a rank), and
hands LZ77ns the arrays its smaller chains are scanned from.  A ladder of
sorted cyclic windows serves fixed-length counts: level g lists the
positions by their length-g window, so equal windows form runs, and comes
from level g-1 by prefix extension, one stable bucket pass by first symbol.
A level is counted from its runs: one int32 scatter of the run lengths gives
every position's cyclic count, and the linear counts differ only in the runs
that hold the windows that wrap.  So one walk counts every order, linear and
cyclic, for the entropy and certificate machinery.  All logarithms are
base 2.
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
    by binary lifting.
    """

    __slots__ = ("sa", "rank", "lcp")

    def __init__(self, codes: np.ndarray):
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

    def count_windows(self, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Occurrences of text[a : a + m] for each (a, m) at once: the width of
        the LCP interval of depth m around rank[a]."""
        r = self.rank[starts].astype(np.int64)
        left, right = _runs(_min_table(self.lcp[1:]), r, lengths)
        return left + right + 1


def _min_table(values: np.ndarray) -> list[np.ndarray]:
    """Sparse table: level j holds the minimum of values[x : x + 2^j] at x."""
    table = [values]
    w = 1
    while 2 * w <= len(values):
        table.append(np.minimum(table[-1][:-w], table[-1][w:]))
        w *= 2
    return table


def _runs(table, origin, floor):
    """How far the LCP stays >= floor on each side of rank origin, per query:
    how many consecutive entries from lcp[origin] leftwards, and from
    lcp[origin + 1] rightwards, are >= floor; by binary lifting over the
    sparse table of lcp[1:]."""
    n = len(table[0])
    lo = np.array(origin, dtype=np.int64)
    hi = lo.copy()
    for j in range(len(table) - 1, -1, -1) if n else ():  # an empty table has nothing to read
        w, level = 1 << j, table[j]
        ok = (lo >= w) & (level[np.maximum(lo - w, 0)] >= floor)
        lo -= ok.astype(np.int64) << j
        ok = (hi + w <= n) & (level[np.minimum(hi, n - w)] >= floor)
        hi += ok.astype(np.int64) << j
    return origin - lo, hi - origin


def _h0_bits(counts, total: int) -> float:
    """total * H_0 from the counts of the distinct symbols of a sequence of
    total symbols: the sum of c log2(total / c), in the order given."""
    return sum(c * math.log2(total / c) for c in counts) if total else 0.0


class Text:
    """Immutable symbol sequence over an integer alphabet of size sigma."""

    __slots__ = ("array", "sigma", "__dict__")

    def __init__(self, symbols, sigma: int):
        if sigma < 1:
            raise ValueError("sigma must be >= 1")
        if sigma > 1 << 32:
            raise ValueError("alphabets larger than 2^32 are unsupported")
        if not isinstance(symbols, (list, tuple, np.ndarray)):
            symbols = list(symbols)
        try:
            array = np.array(symbols, dtype=np.int64)
        except OverflowError as exc:
            raise ValueError(f"symbol out of range for sigma={sigma}") from exc
        if len(array) and not 0 <= array.min() <= array.max() < sigma:
            raise ValueError(f"symbols {array.min()}..{array.max()} out of range for sigma={sigma}")
        array.flags.writeable = False
        self.array = array
        self.sigma = sigma

    @cached_property
    def symbols(self) -> tuple:
        return tuple(self.array.tolist())

    def __len__(self):
        return len(self.array)

    def __eq__(self, other):
        return (
            isinstance(other, Text)
            and self.sigma == other.sigma
            and np.array_equal(self.array, other.array)
        )

    def __hash__(self):
        return hash((self.sigma, self.array.tobytes()))

    def __repr__(self):
        head = ",".join(map(str, self.array[:8].tolist()))
        tail = ",..." if len(self) > 8 else ""
        return f"Text([{head}{tail}] n={len(self)} sigma={self.sigma})"

    @classmethod
    def from_bytes(cls, data: bytes) -> "Text":
        return cls(np.frombuffer(data, dtype=np.uint8), 256)

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
    def _orders(self) -> dict:
        """(k, cyclic) -> (|S|H_k, per-position terms or None); _order alone fills it."""
        return {}

    @cached_property
    def _index(self) -> _SuffixIndex:
        return _SuffixIndex(self._remap[0])

    # -- fixed-length window machinery -------------------------------------

    @cached_property
    def _remap(self) -> tuple[np.ndarray, int]:
        """Array re-coded over the observed alphabet, plus its size: np.unique's
        int64 inverse and count.  While the largest symbol is below n, a
        bincount of the symbols and its cumulative presence give both
        without a sort, in O(n) time and one int64 table of at most n entries."""
        arr = self.array
        if len(arr) and arr.max() < len(arr):
            code = np.bincount(arr)
            np.cumsum(code > 0, out=code)  # 1 + the code of each present symbol
            code -= 1
            return code[arr], int(code[-1]) + 1
        uniq, inv = np.unique(arr, return_inverse=True)
        return inv, max(1, len(uniq))

    def _rank_ladder(self, g_max: int):
        """Yield (g, order, dense, bounds) for g = 1..min(g_max, n): the
        cyclic windows of length g in sorted form.

        order lists the positions by window and dense[i] is the dense
        lexicographic rank of the window at order[i], so equal windows fill
        one run of slots; bounds lists where each run begins, then n, so run
        j, the windows of rank j, fills slots bounds[j]..bounds[j+1]-1.  The
        linear windows of length g are those at positions below n-g+1.
        Level g refines level g-1 by prefix extension (Manber & Myers, SIAM
        J. Comput. 1993): the length-g window at p is (symbol at p,
        length-(g-1) window at p+1), so shifting every position of level
        g-1's order left by one (cyclically) and stable-sorting by first
        symbol sorts level g.  The symbol is held as uint8/uint16 while
        sigma_obs <= 2^16, so the sort is numpy's radix sort; one comparison
        with the neighbour marks where the runs begin, and one cumsum of the
        marks gives the dense ranks.  order and dense are int32 below 2^31
        positions.  No level is cached, and no array is written to once
        yielded.
        """
        arr, base = self._remap
        n = len(arr)
        top = min(g_max, n)
        if top < 1:
            return
        first = arr if base > 1 << 16 else arr.astype(np.uint8 if base <= 1 << 8 else np.uint16)
        pos = np.int32 if n < 1 << 31 else np.int64
        order = np.argsort(first, kind="stable").astype(pos)  # positions by window
        dense = arr[order].astype(pos)                         # their ranks, ascending
        edge = np.empty(n + 1, dtype=bool)                     # a run begins at the slot
        edge[0] = edge[n] = True
        np.not_equal(dense[1:], dense[:-1], out=edge[1:n])
        yield 1, order, dense, edge.nonzero()[0]
        for g in range(2, top + 1):
            key = first[order - 1]  # the symbol before each position, cyclically
            perm = np.argsort(key, kind="stable")
            order, key, dense = order[perm], key[perm], dense[perm]
            # only first and the level's order, dense, marks and bounds stay
            # alive while a level is consumed
            del perm
            order -= 1
            order[order < 0] = n - 1
            edge = np.empty(n + 1, dtype=bool)
            edge[0] = edge[n] = True
            np.not_equal(key[1:], key[:-1], out=edge[1:n])
            del key
            edge[1:n] |= dense[1:] != dense[:-1]
            dense[0] = 0
            np.cumsum(edge[1:n], out=dense[1:])
            yield g, order, dense, edge.nonzero()[0]

    def _window_level(self, g: int, cyclic: bool):
        """(order, dense, bounds, wrap): the length-g windows in the
        ladder's sorted form, and how many of them _level_counts leaves out
        of the linear mode.

        A cyclic level holds n windows.  A linear one is the cyclic level of
        the same length less its last wrap = g-1 windows, those that wrap.
        g = 0 gives n cyclic or n+1 linear empty windows, and a linear g > n
        none.
        """
        if g < 0:
            raise ValueError("window length must be >= 0")
        n = len(self)
        if g > n and cyclic:
            raise ValueError("cyclic windows require pattern length <= |text|")
        if g == 0 or g > n:
            m = 0 if g > n else n if cyclic else n + 1
            return np.arange(m), np.zeros(m, dtype=np.int64), np.array([0, m] if m else [0]), 0
        for _, order, dense, bounds in self._rank_ladder(g):
            pass
        return order, dense, bounds, 0 if cyclic else g - 1

    def window_codes(self, g: int, cyclic: bool) -> np.ndarray:
        """Ranks of all length-g windows: equal windows, equal ranks.

        Linear mode yields n-g+1 windows (empty when g > n), cyclic mode
        n windows with wraparound.  Only here are a level's ranks scattered
        back to position order.
        """
        order, dense, _, wrap = self._window_level(g, cyclic)
        ranks = np.empty(len(order), dtype=np.int64)
        ranks[order] = dense
        return ranks[: len(order) - wrap]

    def window_count_histogram(self, g: int, cyclic: bool) -> dict[int, int]:
        """Map occurrence-count -> number of distinct length-g words with it."""
        return _level_counts(*self._window_level(g, cyclic), (cyclic,), histogram=True)[1]

    def position_counts(self, g: int, cyclic: bool) -> np.ndarray:
        """counts[p] = occurrences of the length-g window starting at p."""
        return _level_counts(*self._window_level(g, cyclic), (cyclic,))[0][cyclic]


def _level_counts(order, dense, bounds, wrap: int, modes, histogram: bool = False):
    """({cyclic: counts}, hist) of one sorted level of n windows, in the
    ladder's form, for each mode of ``modes``: counts[p] counts window p,
    and hist, when asked, maps occurrence-count -> distinct windows with it,
    in the cyclic mode if asked for.

    Every figure comes from the run lengths, with no rank per position: the
    cyclic counts are one scatter of each run's length to its slots'
    positions, and the histogram is a bincount of the run lengths.  The
    linear counts leave out the last ``wrap`` windows, those that wrap (g-1
    on the level of length-g windows): they are the first n-wrap cyclic
    counts, less, at the slots of each run that holds wrapping windows, how
    many it holds.  With wrap = 0 both modes count exactly the windows given.
    """
    n = len(order)
    at = order.astype(np.intp)  # numpy indexes by intp without a cast per chunk
    runs = np.subtract(bounds[1:], bounds[:-1], dtype=order.dtype)
    cyc = np.empty(n, dtype=order.dtype)
    cyc[at] = np.repeat(runs, runs)
    counts = {}
    if True in modes:
        counts[True] = cyc
    if False in modes:
        lin = cyc.copy() if True in modes else cyc
        if wrap:
            # the runs that hold wrapping windows (ids ascend with the slots),
            # how many each holds, and the positions of those runs' windows
            ids = dense[order >= n - wrap]
            cut = np.empty(len(ids) + 1, dtype=bool)
            cut[0] = cut[-1] = True
            np.not_equal(ids[1:], ids[:-1], out=cut[1:-1])
            cut = cut.nonzero()[0]
            held, per_run = ids[cut[:-1]], np.subtract(cut[1:], cut[:-1], dtype=runs.dtype)
            lo = bounds[held]
            lens = bounds[held + 1] - lo
            ends = np.cumsum(lens)
            slots = np.arange(ends[-1]) + np.repeat(lo - (ends - lens), lens)
            lin[at[slots]] -= np.repeat(per_run, lens)
            if histogram and True not in modes:
                runs[held] -= per_run
        counts[False] = lin[: n - wrap]
    hist = None
    if histogram:
        mult = np.bincount(runs)
        mult[:1] = 0  # runs left empty by the wrapping windows
        vals = mult.nonzero()[0]
        hist = dict(zip(vals.tolist(), mult[vals].tolist()))
    return counts, hist


def _context_counts(text: Text, k_lo: int, k_hi: int, modes, histogram: bool = False):
    """Yield (k, hist, orders) for k = k_lo..k_hi from one walk of the
    sorted ladder, each level counted once by _level_counts in every mode:
    orders[cyclic] = _hk(d, c, cyclic) per mode, where c counts the
    (k+1)-window at each position and d the k-window (n for k = 0, as
    |w|_eps = |w|, in the counts' dtype), and hist is _level_counts'
    histogram of the (k+1)-windows.  Orders whose (k+1)-windows exceed the
    text are not yielded; cyclic ones need k < |S|.
    """
    n = len(text)
    if True in modes and 0 < n <= k_hi:
        raise ValueError("cyclic entropy requires k < |text|")
    d = dict.fromkeys(modes, np.full(n, n, dtype=np.int32 if n < 1 << 31 else np.int64))
    for g, *level in text._rank_ladder(k_hi + 1):
        if g >= k_lo:
            c, hist = _level_counts(*level, g - 1, modes, histogram)
            if g > k_lo:
                yield g - 1, hist, {cyclic: _hk(d[cyclic], c[cyclic], cyclic) for cyclic in modes}
            d = c


def _hk(d: np.ndarray, c: np.ndarray, cyclic: bool) -> tuple[float, np.ndarray | None]:
    """(|S|H_k, terms) from one order's counts: terms[p] = log2(d[p]/c[p]),
    and |S|H_k is their sum.  Every k-order figure is a sum of these terms;
    only the linear ones price a parsing, so a cyclic order keeps None."""
    terms = d[: len(c)] / c
    np.log2(terms, out=terms)
    return max(float(np.sum(terms)), 0.0), None if cyclic else terms


def _order(text: Text, k: int, cyclic: bool) -> tuple[float, np.ndarray | None]:
    """(|S|H_k, terms) of one order, from one walk per (Text, k, cyclic) kept
    in the Text's memo.  A linear entry keeps its terms, whose window sums
    price the k-bounded parsing cost (a linear k >= |S| keeps none); a
    cyclic entry keeps None."""
    memo = text._orders
    if (k, cyclic) not in memo:
        figures = 0.0, None if cyclic else np.zeros(0)
        for _, _, orders in _context_counts(text, k, k, (cyclic,)):  # none when a linear k >= |S|
            figures = orders[cyclic]
        memo[k, cyclic] = figures
    return memo[k, cyclic]


def release_caches(text: Text) -> None:
    """Drop every field the Text derived on request: the `symbols` tuple, the
    remapped array, the suffix index and the memo of orders with every
    linear order's terms.  A later use builds each again."""
    vars(text).clear()


def count_occurrences(text: Text, pattern, cyclic: bool = False) -> int:
    """Occurrences of pattern in text, overlapping allowed.

    Linear mode counts ordinary substring occurrences; cyclic mode counts
    start positions 0..|text|-1 reading with wraparound.  An empty pattern
    counts |text| by convention.
    """
    pattern = tuple(pattern)
    n, m = len(text), len(pattern)
    if m == 0:
        return n
    if cyclic and m > n:
        raise ValueError("cyclic counting requires pattern length <= |text|")
    s, sa = text.symbols, text._index.sa

    def window(p):
        return s[p : p + m]

    # binary search of the suffix array: O(m log n)
    count = bisect_right(sa, pattern, key=window) - bisect_left(sa, pattern, key=window)
    if not cyclic:
        return count
    # the cyclic starts n-m+1..n-1 are the linear occurrences in the 2m-2
    # symbols around the wrap point
    wrap = Text(np.concatenate((text.array[n - m + 1 :], text.array[: m - 1])), text.sigma)
    return count + count_occurrences(wrap, pattern)


def empirical_entropy(text: Text, k: int, cyclic: bool = False) -> tuple[float, float]:
    """|S| H_k(S) in bits and the per-symbol value.

    Context counts are plain substring counts (the occurrence of a context
    at the very end of the string is included), zero-count terms contribute
    nothing.  Cyclic mode uses wraparound counts and requires k < |S|.
    Each (k, cyclic) is computed once per Text, by _order.
    """
    if k < 0:
        raise ValueError("entropy order must be >= 0")
    total, _ = _order(text, k, cyclic)
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
    totals = [orders[cyclic][0] for _, _, orders in _context_counts(text, 0, k_max, (cyclic,))]
    totals += [0.0] * (k_max + 1 - len(totals))  # linear orders k >= |S|
    rows = [(k, total, total / n) for k, total in enumerate(totals)]
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
