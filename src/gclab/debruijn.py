"""Generalized de Bruijn words: construction, certificates, lower bounds.

A word with parameters (k, l, p) lives on the alphabet sigma = 4^p, has
length sigma^(k + (l+1)/2), and satisfies

  dB1: every word of length i < k occurs cyclically sigma^(k-i+(l+1)/2) times;
  dB2: words of length k <= i <= k+l+1 occur sigma^((k+l+1-i)/2) times or never;
  dB3: no word of length k+l+1 occurs cyclically more than once.

Consequently the cyclic entropies are exactly log sigma below order k and
exactly (log sigma)/2 for orders k..k+l.  The construction pairs up a base
de Bruijn word over sqrt(sigma) letters in its two phases (level 0), then
iterates the line-graph step: the level-(l+1) word reads off an Eulerian
cycle of the level-l overlap graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .parsing import Parsing
from .reporting import BoundRow, CheckReport
from .textcore import LOG2E, Text, _context_counts, empirical_entropy

ENTROPY_TOL = 1e-9


@dataclass(frozen=True)
class GdBParams:
    k: int
    l: int
    p: int

    def __post_init__(self):
        if self.k < 1 or self.l < 0 or self.p < 1:
            raise ValueError("need k >= 1, l >= 0, p >= 1")
        # both the word length sigma^(k+(l+1)/2) and the construction's
        # overlap-graph codes (base sigma, up to length k+l+1) must fit in 64 bits
        if self.p * (2 * self.k + self.l + 1) > 62:
            raise OverflowError("word length does not fit in 64 bits")
        if 2 * self.p * (self.k + self.l + 1) > 62:
            raise OverflowError("window codes would not fit in 64 bits")

    @property
    def sigma(self) -> int:
        return 4**self.p

    @property
    def length(self) -> int:
        # sigma^(k + (l+1)/2) = 2^(p (2k + l + 1)), always an integer
        return 1 << (self.p * (2 * self.k + self.l + 1))

    @property
    def z(self) -> int:
        """Distinctness length k + l + 1 (no longer word repeats cyclically)."""
        return self.k + self.l + 1

    def expected_count(self, i: int) -> int:
        """Cyclic count shared by all occurring words of length 1 <= i <= z."""
        if i < self.k:
            return 1 << (self.p * (2 * (self.k - i) + self.l + 1))
        return 1 << (self.p * (self.k + self.l + 1 - i))


def base_debruijn(q: int, m: int) -> Text:
    """Lexicographically least de Bruijn word: every length-m word over q
    letters occurs cyclically exactly once; starts with the all-zero run."""
    if q < 2 or m < 1:
        raise ValueError("need alphabet >= 2 and order >= 1")
    if m * math.log2(q) > 30:
        raise OverflowError("base de Bruijn word too large")
    a = [0] * (m + 1)
    seq: list[int] = []

    def db(t: int, p: int):
        if t > m:
            if m % p == 0:
                seq.extend(a[1 : p + 1])
            return
        a[t] = a[t - p]
        db(t + 1, p)
        for j in range(a[t - p] + 1, q):
            a[t] = j
            db(t + 1, t)

    db(1, 1)
    return Text(seq, q)


def build_s0(k: int, p: int) -> Text:
    """Level-0 word: the two pair-phases of a base de Bruijn word of order
    2k+1 over sqrt(sigma) letters, concatenated."""
    params = GdBParams(k, 0, p)
    q = 1 << p  # sqrt(sigma)
    b = base_debruijn(q, 2 * k + 1).array
    pairs = b * q + np.roll(b, -1)  # pair i is (b[i], b[i + 1]) cyclically
    word = np.concatenate((pairs[0::2], pairs[1::2]))
    assert len(word) == params.length
    return Text(word, params.sigma)


def generalized_word(params: GdBParams) -> Text:
    """The (k, l, p) word; for l > 0 built by l line-graph iterations."""
    s0 = build_s0(params.k, params.p)
    if params.l == 0:
        return s0
    sigma = params.sigma
    root = 1 << params.p  # sqrt(sigma), the regular degree
    codes = _cyclic_window_codes(s0, params.k + 1)
    nodes = np.unique(codes)
    word_len = params.k + 1
    for _level in range(params.l):
        # nodes: codes of all length-word_len vertices, ascending
        suffix_mod = sigma ** (word_len - 1)
        lo = np.searchsorted(nodes, (nodes % suffix_mod) * sigma)
        hi = np.searchsorted(nodes, (nodes % suffix_mod) * sigma + sigma)
        if not np.all(hi - lo == root):
            raise AssertionError("overlap graph is not sqrt(sigma)-regular")
        idx = (lo[:, None] + np.arange(root, dtype=np.int64)).ravel()
        # edges ascend (a node's successors ascend by last letter), and edge j of v ends at lo[v] + j
        edges = np.repeat(nodes * sigma, root) + nodes[idx] % sigma
        word_len += 1
        if _level + 1 < params.l:
            nodes = edges
            continue
        # Eulerian cycle over the last graph: vertices `nodes`, edges `edges`
        src_mod = sigma ** (word_len - 1)
        circuit = _hierholzer(idx, root)
        text = Text(edges[circuit] // src_mod, sigma)
        assert len(text) == params.length
        return text
    raise AssertionError("unreachable")


def _hierholzer(dst: np.ndarray, root: int) -> np.ndarray:
    """Edge ids of the smallest-edge-first Hierholzer circuit from vertex 0.

    Vertex v has out-edges v*root .. v*root + root-1 (root a power of two),
    edge e leads to dst[e].  The trail is pushed by a Python walk that takes
    each vertex's smallest unused edge until it is stuck; then the trail's
    suffix above the last vertex with an unused edge is popped in numpy, one
    backtrack per sub-walk, not one pop per edge.  A vertex is exhausted once
    its last out-edge (e | root-1 for any of its edges e) is used.  The
    popped suffixes, in reverse order of popping, are the circuit.
    """
    n_edges = len(dst)
    pos = np.int32 if n_edges < 1 << 31 else np.int64
    ptr = [0] * (n_edges // root)     # next unused out-edge of each vertex
    trail = np.empty(n_edges, dtype=pos)
    used = np.zeros(n_edges, dtype=bool)
    # memoryviews read and write numpy memory as Python ints, without a list
    dst, tr = memoryview(dst.astype(pos)), memoryview(trail)
    popped = []
    top = 0
    v = 0
    while True:
        end = top
        p = ptr[v]
        while p < root:
            ptr[v] = p + 1
            e = v * root + p
            tr[end] = e
            end += 1
            v = dst[e]
            p = ptr[v]
        used[trail[top:end]] = True
        # live: the last trail index whose edge's source still has an unused
        # edge, searched back from the end in doubling windows
        hi, width, live = end, 64, None
        while hi > 0 and live is None:
            lo = max(0, hi - width)
            alive = np.flatnonzero(~used[trail[lo:hi] | (root - 1)])
            if len(alive):
                live = lo + int(alive[-1])
            hi, width = lo, 2 * width
        top = 0 if live is None else live
        popped.append(trail[top:end].copy())
        if live is None:
            break
        v = int(trail[top]) // root
    circuit = np.concatenate(popped[::-1])
    if len(circuit) != n_edges:
        raise AssertionError("overlap graph is not Eulerian")
    return circuit


def _cyclic_window_codes(text: Text, g: int) -> np.ndarray:
    codes = text.array
    for j in range(1, g):
        codes = codes * text.sigma + np.roll(text.array, -j)
    return codes


@dataclass(frozen=True)
class GdBCertificate:
    params: GdBParams
    db1: bool
    db2: bool
    db3: bool
    count_tables: dict = field(default_factory=dict)      # i -> {count: #words}
    tables_consistent: bool = True
    entropy_cyclic: dict = field(default_factory=dict)    # i -> bits/symbol
    entropy_linear: dict = field(default_factory=dict)
    entropy_cyclic_ok: bool = True
    entropy_linear_ok: bool = True
    slack_constant: float = 0.0   # minimal c with H_i >= target - c i log n / n

    @property
    def all_ok(self) -> bool:
        return (
            self.db1
            and self.db2
            and self.db3
            and self.tables_consistent
            and self.entropy_cyclic_ok
            and self.entropy_linear_ok
        )


def verify_gdb(text: Text, params: GdBParams) -> GdBCertificate:
    """Exhaustive dB1-dB3 count checks plus the entropy window.

    Counts are exact integers with zero tolerance.  Cyclic entropies must hit
    log sigma (orders below k) and (log sigma)/2 (orders k..k+l) to 1e-9;
    linear entropies may fall short by c * i * log(n)/n, and the minimal such
    c is reported.
    """
    n = params.length
    if len(text) != n:
        raise ValueError(f"expected length {n}, got {len(text)}")
    if text.sigma != params.sigma:
        raise ValueError("alphabet size does not match the parameters")
    sigma = params.sigma
    z = params.z
    log_sigma2 = math.log2(sigma)
    logn = math.log2(n)

    tables = {}
    ok = {1: True, 2: True, 3: True}
    consistent = True
    ent_cyc = {}
    ent_lin = {}
    cyc_ok = True
    lin_ok = True
    slack = 0.0
    # one walk: order i-1 gives the count table of length i and the
    # order-(i-1) entropies in both modes
    for order, hist, orders in _context_counts(text, 0, z - 1, (True, False), histogram=True):
        i = order + 1
        tables[i] = hist
        consistent &= sum(c * m for c, m in hist.items()) == n
        expected = params.expected_count(i)
        if i < params.k:
            ok[1] &= hist == {expected: sigma**i}
        else:
            ok[2] &= set(hist) == {expected}
            if i == z:
                ok[3] &= set(hist) <= {1}

        target = log_sigma2 if order < params.k else log_sigma2 / 2
        ent_cyc[order] = per_cyc = orders[True][0] / n
        cyc_ok &= abs(per_cyc - target) <= ENTROPY_TOL
        ent_lin[order] = per_lin = orders[False][0] / n
        # the last window of the text is counted in context denominators but
        # has no successor, which can push the linear value above the cyclic
        # one by up to log2(e) bits in total; allow exactly that
        lin_ok &= per_lin <= target + LOG2E / n + ENTROPY_TOL
        if order == 0:
            lin_ok &= per_lin >= target - ENTROPY_TOL
        else:
            deficit = target - per_lin
            if deficit > 0:
                slack = max(slack, deficit * n / (order * logn))

    return GdBCertificate(
        params=params,
        db1=ok[1],
        db2=ok[2],
        db3=ok[3],
        count_tables=tables,
        tables_consistent=consistent,
        entropy_cyclic=ent_cyc,
        entropy_linear=ent_lin,
        entropy_cyclic_ok=cyc_ok,
        entropy_linear_ok=lin_ok,
        slack_constant=slack,
    )


def lower_bound_check(text: Text, parsing: Parsing, params: GdBParams) -> CheckReport:
    """Entropy lower bound for parsings of a generalized de Bruijn word.

    For parsings with phrases of length <= z = k+l+1:
      |Y|H0(Y) >= |S|(z+k)/(2z) log sigma - |Y| log(|S|/|Y|),
    which yields |Y|H0(Y)/(|S|H_k(S)) >= 1 + rho - eps with
    rho = k/(2 log_sigma |S| - k) and eps = lambda |S| / (|S|H_k(S)),
    lambda = (|Y|/|S|) log(|S|/|Y|) < 0.54.
    """
    n = len(text)
    z = params.z
    out = CheckReport()
    too_long = [i for i, L in enumerate(parsing.lengths) if L > z]
    max_len = max(parsing.lengths, default=0)
    out.add(
        BoundRow.check(
            "gdb_phrase_length",
            max_len,
            z,
            detail=f"{len(too_long)} phrases exceed z",
        )
    )
    out.measurements["phrase_length_violations"] = too_long[:16]
    if too_long:
        out.measurements["bound_applied"] = False
        return out
    out.measurements["bound_applied"] = True

    m = len(parsing)
    y_h0 = parsing.entropy_bits()
    log_sigma2 = math.log2(params.sigma)
    main_rhs = n * (z + params.k) / (2 * z) * log_sigma2 - m * math.log2(n / m)
    out.add(
        BoundRow.check(
            "debruijn_entropy_lower",
            main_rhs,
            y_h0,
            1e-6,
            "lower bound: lhs must not exceed achieved |Y|H0(Y)",
        )
    )

    hk_total, _ = empirical_entropy(text, params.k)
    rho = params.k / (2 * math.log(n) / math.log(params.sigma) - params.k)
    lam = (m / n) * math.log2(n / m)
    # |S|H_k may exceed n log(sigma)/2 by up to log2(e) bits (final window
    # counted in denominators without a successor); account that exactly
    boundary = (1 + rho) * max(0.0, hk_total - n * log_sigma2 / 2)
    eps = (lam * n + boundary) / hk_total if hk_total else math.inf
    ratio = y_h0 / hk_total if hk_total else math.inf
    out.add(
        BoundRow.check(
            "debruijn_ratio_lower",
            1 + rho - eps,
            ratio,
            1e-9,
            f"ratio |Y|H0 / |S|H_k vs 1 + rho - eps; rho={rho:.6f} lam={lam:.6f} "
            f"boundary={boundary:.6f}",
        )
    )
    out.add(
        BoundRow.check(
            "gdb_lambda",
            lam,
            LOG2E / math.e,
            1e-9,
            "lambda = (m/n) log(n/m) <= log2(e)/e < 0.54",
        )
    )
    out.measurements.update(
        {
            "phrases": m,
            "parsing_entropy_bits": y_h0,
            "hk_total_bits": hk_total,
            "rho": rho,
            "lambda": lam,
            "ratio": ratio,
        }
    )
    return out
