"""Bit-exact encoders and decoders for full grammars.

Four encodings:

* fully naive  - every rhs symbol in fixed ceil(log2(sigma + |G|)) bits,
                 rule lengths in unary;
* naive        - starting string Huffman-coded, rules as in fully naive;
* entropy      - Huffman over the concatenation S_G of S' and all rule
                 right-hand sides, rule lengths in unary;
* incremental  - CNF only: nonterminals permuted so first components are
                 non-decreasing, first components as Elias delta of the
                 successive differences (+1), second components fixed-width,
                 S' Huffman-coded over the renamed ids.

Huffman dictionaries are serialized as canonical code lengths: a varint
domain size, a presence bitmap, then one byte-aligned varint code length per
present symbol, in id order.  Container files: magic "GCB1", a tag byte,
varints sigma / |G| / |S'| / payload bit count, then the payload bits
MSB-first.

Each encoder collects its fields as arrays of (value, width) in a BitWriter,
which packs them in one pass; each decoder gathers whole sections of fields
at once from a BitReader and walks one by one only what fixes the next
field's position: rule lengths interleaved with symbols and Elias delta
codes, each in one loop over the reader's 64-bit words, and the chain of
Huffman code starts, whose steps come from a table indexed by each bit
position's leading 12 bits.  A codebook is three arrays (symbols ascending,
code lengths, codes), so building, serializing, parsing and applying it are
numpy passes.  The incremental encoder orders its rules in one
breadth-first walk and renames them with one gather.

Every SizeBreakdown carries formula_bound_bits: the corresponding upper
bound with all hidden constants instantiated explicitly (see _overhead_slack
and _delta_budget); totals are asserted against these bounds in the tests.
The naive, entropy and incremental ones also carry the Huffman sandwich
figures of the sequence they code.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .bits import (
    _ONES64,
    WINDOW_BITS,
    _bit_length,
    BitReader,
    BitStream,
    BitWriter,
    MalformedStreamError,
    read_uvarint,
    uvarint_bytes,
    uvarints,
)
from .grammar import FullGrammar, _id_array, prefixed_rules, renumber_segments
from .textcore import _h0_bits

MAGIC = b"GCB1"
ENCODINGS = ("fully_naive", "naive", "entropy", "incremental")
_TAGS = {name: i for i, name in enumerate(ENCODINGS)}
MAX_UNARY = 1 << 20  # rule-length cap for unary fields
# codebook domain cap in symbols (sigma + |G|): an encode's presence bitmap
# costs about 2.6 B of memory per domain value, 376 MB at 2^27 (README)
CODEBOOK_DOMAIN_CAP = 1 << 27
# the Huffman decoder's code-length table takes the top 12 bits of a window:
# 4096 entries, and a length fixed by its prefix for codes of at most 12 bits
_PREFIX_BITS = 12
_OPEN = 255  # a table entry whose prefix leaves the code length open


@dataclass(frozen=True)
class SizeBreakdown:
    payload_bits: int
    dictionary_bits: int
    lengths_side_bits: int
    total_bits: int
    formula_bound_bits: float
    # (|Y|H0(Y), Huffman code bits, |Y|) of the sequence Y the encoding
    # Huffman-codes, for the sandwich bounds; None when it codes none
    huffman: tuple[float, int, int] | None = None

    def as_dict(self) -> dict:
        return {
            "payload_bits": self.payload_bits,
            "dictionary_bits": self.dictionary_bits,
            "lengths_side_bits": self.lengths_side_bits,
            "total_bits": self.total_bits,
            "formula_bound_bits": self.formula_bound_bits,
        }


def _breakdown(payload, dictionary, lengths_side, bound, huffman=None) -> SizeBreakdown:
    return SizeBreakdown(
        payload, dictionary, lengths_side, payload + dictionary + lengths_side, bound, huffman
    )


# -- Huffman -------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Codebook:
    """Canonical prefix code: symbols[i] (ascending, int64) has the code
    code_words[i] (uint64) of code_lengths[i] bits (int64)."""

    symbols: np.ndarray
    code_lengths: np.ndarray
    code_words: np.ndarray
    domain: int

    @cached_property
    def lengths(self) -> dict[int, int]:
        """symbol -> code length."""
        return dict(zip(self.symbols.tolist(), self.code_lengths.tolist()))

    @cached_property
    def codes(self) -> dict[int, int]:
        """symbol -> code."""
        return dict(zip(self.symbols.tolist(), self.code_words.tolist()))

    @cached_property
    def serialized(self) -> bytes:
        """Varint domain size, presence bitmap, then the code lengths in id
        order; only an encoder needs it."""
        bitmap = np.zeros((self.domain + 7) // 8, dtype=np.uint8)
        byte = self.symbols >> 3
        first = np.flatnonzero(np.diff(byte, prepend=-1))  # each byte's first symbol
        bits = np.right_shift(0x80, self.symbols & 7).astype(np.uint8)
        bitmap[byte[first]] = np.bitwise_or.reduceat(bits, first)
        return uvarint_bytes(self.domain) + bitmap.tobytes() + uvarints(self.code_lengths)

    @property
    def serialized_bits(self) -> int:
        return 8 * len(self.serialized)

    def kraft_sum(self) -> float:
        return sum(2.0 ** -l for l in self.code_lengths.tolist())


def _code_lengths(counts: np.ndarray) -> np.ndarray:
    """Huffman code lengths of the symbols with these counts, in symbol
    order: merge the two lightest nodes until one is left, ties to the node
    made first (leaves in symbol order, then merges).

    Two queues (van Leeuwen 1976): the leaves sorted by (count, symbol), and
    the merged nodes in the order they are made, whose weights never
    decrease.  The lightest node heads one of them, and on a tie it is the
    leaf, which was made first.
    """
    m = len(counts)
    if m == 1:
        return np.ones(1, dtype=np.int64)
    order = np.argsort(counts, kind="stable")
    leaf, leaf_id = counts[order].tolist(), order.tolist()
    merged: list[int] = []  # weight of node m + j
    parent = [0] * (2 * m - 1)
    i = j = 0
    for node in range(m, 2 * m - 1):
        if j < node - m and (i == m or merged[j] < leaf[i]):
            a, fa, j = m + j, merged[j], j + 1
        else:
            a, fa, i = leaf_id[i], leaf[i], i + 1
        if j < node - m and (i == m or merged[j] < leaf[i]):
            b, fb, j = m + j, merged[j], j + 1
        else:
            b, fb, i = leaf_id[i], leaf[i], i + 1
        parent[a] = parent[b] = node
        merged.append(fa + fb)
    depth = [0] * (2 * m - 1)
    for k in range(2 * m - 3, -1, -1):  # parents are made after their children
        depth[k] = depth[parent[k]] + 1
    return np.array(depth[:m], dtype=np.int64)


def _canonical(symbols: np.ndarray, lengths: np.ndarray, domain: int) -> Codebook:
    """The canonical code of the given lengths: the codes of one length are
    consecutive integers in symbol order.  In (length, symbol) order, code k
    is sum_{j<k} 2^(L_k - L_j), one exclusive prefix sum scaled to the
    longest length L (at most 57 bits parsed, far below 64 built)."""
    order = np.argsort(lengths, kind="stable")
    drop = (lengths[order][-1] - lengths[order]).astype(np.uint64)
    steps = np.left_shift(np.uint64(1), drop)
    words = np.empty(len(symbols), dtype=np.uint64)
    words[order] = (np.cumsum(steps) - steps) >> drop
    return Codebook(symbols, lengths, words, domain)


def build_codebook(seq, domain: int) -> Codebook:
    if domain > CODEBOOK_DOMAIN_CAP:
        raise ValueError(f"codebook domain of {domain} symbols is over the cap of {CODEBOOK_DOMAIN_CAP}")
    try:
        seq = np.asarray(seq, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"a symbol is outside codebook domain {domain}") from None
    symbols, counts = np.unique(seq, return_counts=True)
    if not len(symbols):
        raise ValueError("cannot build a code for an empty sequence")
    for sym in (symbols[0], symbols[-1]):
        if not 0 <= sym < domain:
            raise ValueError(f"symbol {sym} outside codebook domain {domain}")
    return _canonical(symbols, _code_lengths(counts), domain)


def parse_codebook(reader: BitReader) -> Codebook:
    """Read a codebook serialization (see Codebook.serialized) at the
    reader's position.

    Code lengths must lie in 1..min(57, m - 1) for m present symbols, so
    that one 64-bit window holds any code, and satisfy the Kraft inequality.
    """
    domain = int(reader.read_uvarints(1)[0])
    nbytes = (domain + 7) // 8
    if 8 * nbytes > reader.remaining():
        raise MalformedStreamError("truncated codebook bitmap")
    present = np.flatnonzero(np.unpackbits(reader.read_bytes(nbytes))[:domain])
    if not len(present):
        raise MalformedStreamError("empty codebook")
    # a Huffman code over m >= 2 symbols is at most m - 1 bits deep
    max_len = min(WINDOW_BITS, max(1, len(present) - 1))
    lengths = reader.read_uvarints(len(present))
    bad = np.flatnonzero((lengths < 1) | (lengths > max_len))
    if len(bad):
        raise MalformedStreamError(f"code length {lengths[bad[0]]} outside 1..{max_len}")
    lengths = lengths.astype(np.int64)
    per_length = np.bincount(lengths).tolist()
    if sum(c << (max_len - l) for l, c in enumerate(per_length)) > 1 << max_len:
        raise MalformedStreamError("code lengths violate the Kraft inequality")
    return _canonical(present.astype(np.int64), lengths, domain)


def _huffman_fields(seq, codebook: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """(code, code length) of each symbol of ``seq``."""
    at = np.searchsorted(codebook.symbols, np.asarray(seq, dtype=np.int64))
    return codebook.code_words[at], codebook.code_lengths[at]


def _read_huffman(reader: BitReader, codebook: Codebook, count: int) -> np.ndarray:
    """``count`` Huffman-coded symbols from the reader's position, as int64.

    Canonical decoding (Moffat & Turpin 1997): the codes of one length are
    consecutive integers assigned in symbol order, so, left-justified to the
    longest length L, each length owns one interval of L-bit windows, the
    intervals ascending with the length.  The code length a code starting at
    a bit position would have is looked up in a table indexed by the top
    t = min(L, 12) bits of the position's window; only a window whose prefix
    does not fix the length (a code longer than t bits, or the end of the
    code space) is searched over the interval limits.  The symbols'
    positions are then a chain of code lengths from the first, and their
    windows give the symbols.
    """
    if count > reader.remaining():
        raise MalformedStreamError(f"{count} symbols cannot fit in {reader.remaining()} bits")
    if not count:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(codebook.code_lengths, kind="stable")
    syms = codebook.symbols[order]
    # one row per code length: its first code and symbol index, its symbol count
    length, base, n = np.unique(codebook.code_lengths[order], return_index=True, return_counts=True)
    first = codebook.code_words[order][base].astype(np.int64)
    top = int(length[-1])
    if top > WINDOW_BITS:
        raise MalformedStreamError(f"code length {top} over {WINDOW_BITS}")
    limits = ((first + n) << (top - length)).astype(np.uint64)
    step = np.append(length, 0).astype(np.uint8)  # past the last limit: no code
    # prefix v covers the windows lo..hi; it fixes the length when both lie
    # in one interval, and the table holds _OPEN where it does not
    t = min(top, _PREFIX_BITS)
    lo = np.arange(1 << t, dtype=np.uint64) << np.uint64(top - t)
    row = np.searchsorted(limits, lo, "right")
    fixed = row == np.searchsorted(limits, lo | np.uint64((1 << (top - t)) - 1), "right")
    table = np.where(fixed, step[row], _OPEN).astype(np.uint8)
    start, end = reader.pos, min(reader.length_bits, reader.pos + count * top)
    blocks, a = [], start  # a: the bit position of the block's first window
    for prefix in reader.scan(start, end, t):
        block = table[prefix.view(np.int64)]  # an intp index gathers fastest
        unfixed = np.flatnonzero(block == _OPEN)
        block[unfixed] = step[np.searchsorted(limits, reader.windows(unfixed + a, top), "right")]
        blocks.append(block.tobytes())
        a += len(prefix)
    steps = b"".join(blocks)
    at = [0] * count
    p = 0
    try:
        for i in range(count):
            at[i] = p
            p += steps[p]
    except IndexError:
        raise MalformedStreamError("bit stream exhausted") from None
    reader.require(start + p)
    window = reader.windows(np.fromiter(at, np.int64, count) + start, top)
    row = np.searchsorted(limits, window, "right")
    if (row == len(length)).any():
        raise MalformedStreamError("invalid Huffman code")
    reader.pos = start + p
    code = (window >> (top - length[row]).astype(np.uint64)).astype(np.int64)
    return syms[base[row] + code - first[row]]


def sequence_entropy_bits(seq) -> float:
    """|seq| H_0(seq), summed over the symbols in first-occurrence order."""
    return _h0_bits(Counter(seq).values(), len(seq))


def huffman_encode(seq, domain: int | None = None):
    """Optimal prefix coding of a symbol sequence.

    Returns (BitStream of the payload codes, Codebook, SizeBreakdown); the
    payload satisfies |Y|H0(Y) <= payload_bits <= |Y|H0(Y) + |Y|.
    """
    seq = list(seq)
    if not seq:
        raise ValueError("cannot Huffman-encode an empty sequence")
    if domain is None:
        domain = max(seq) + 1
    cb = build_codebook(seq, domain)
    w = BitWriter()
    w.write_fields(*_huffman_fields(seq, cb))
    stream = w.freeze()
    bound = sequence_entropy_bits(seq) + len(seq) + cb.serialized_bits
    br = _breakdown(stream.length_bits, cb.serialized_bits, 0, bound)
    return stream, cb, br


def huffman_decode(stream: BitStream, codebook: Codebook, count: int) -> list[int]:
    reader = BitReader(stream)
    out = _read_huffman(reader, codebook, count)
    if reader.remaining() >= 8:
        raise MalformedStreamError("trailing data after Huffman payload")
    return out.tolist()


# -- Elias delta ----------------------------------------------------------------


def _delta_fields(n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(values, widths) of the two fields of delta(n): the bit length N of n
    in 2 floor(log2 N) + 1 bits (its leading zeros, then N), then n without
    its top bit."""
    if n < 1:
        raise ValueError("Elias delta is defined for n >= 1")
    nbits = n.bit_length()
    return (nbits, n - (1 << (nbits - 1))), (2 * nbits.bit_length() - 1, nbits - 1)


def _read_deltas(r: BitReader, count: int, gap: int) -> tuple[list[int], list[int]]:
    """``count`` Elias delta codes from the reader's position, each followed
    by ``gap`` bits left unread: their values and the position where each
    code ends.  The reader moves past the last gap.

    The word at a code's byte holds the code's first 57 to 64 bits; a code
    whose prefix and bit length lie in it is read from it alone, and a code
    whose low bits run past it takes them from the windows.
    """
    words, end = r.words, r.length_bits
    values, stops = [0] * count, [0] * count
    p = r.pos
    for i in range(count):
        if p >= end:
            raise MalformedStreamError("bit stream exhausted")
        q = p - (p & 7) + 64  # one past the word's last bit
        x = words[p >> 3] & (_ONES64 >> (p & 7))
        one = q - x.bit_length()
        mid = 2 * one - p + 1  # past the bit length N, one + zeros + 1
        if x and mid <= q:
            nbits = x >> (q - mid)
        else:
            while not x:  # the first one bit: no code, or a bad prefix
                if q >= end:
                    break
                x, q = words[q >> 3], q + 64
            one = q - x.bit_length()
            if one >= end:
                raise MalformedStreamError("bit stream exhausted")
            if one - p >= WINDOW_BITS:  # a bit length of 2^57 bits or more
                raise MalformedStreamError("bad Elias delta prefix")
            mid = 2 * one - p + 1
            nbits = int(r.fields((one,), one - p + 1)[0])
        stop = mid + nbits - 1
        if stop > end:
            raise MalformedStreamError("bit stream exhausted")
        if stop <= q:
            values[i] = (x >> (q - stop)) - ((nbits - 1) << (nbits - 1))
        else:
            values[i] = (1 << (nbits - 1)) | int(r.fields((mid,), nbits - 1)[0])
        stops[i] = stop
        p = stop + gap
    r.pos = p
    return values, stops


def elias_delta_encode(n: int) -> BitStream:
    w = BitWriter()
    w.write_fields(*_delta_fields(n))
    return w.freeze()


def elias_delta_decode(stream: BitStream) -> int:
    reader = BitReader(stream)
    (value,), _ = _read_deltas(reader, 1, 0)
    if reader.remaining():
        raise MalformedStreamError("trailing bits after Elias delta code")
    return value


def elias_delta_length(n: int) -> int:
    """Exact |delta(n)| = N + 2 floor(log2 N), N = bit length of n."""
    if n < 1:
        raise ValueError("Elias delta is defined for n >= 1")
    nbits = n.bit_length()
    return nbits + 2 * (nbits.bit_length() - 1)


# -- shared encoding helpers ------------------------------------------------------


def symbol_width(sigma: int, n_rules: int) -> int:
    """Bits of the largest symbol id, sigma + n_rules - 1; at least 1."""
    return max(1, (sigma + n_rules - 1).bit_length())


def _overhead_slack(rhs_full: int, domain: int, distinct: int) -> float:
    """Instantiation of the O(||S',G||) terms: fixed-width rounding, unary
    length fields, and the codebook serialization."""
    return 2.0 * rhs_full + float(domain) + 16.0 * distinct + 96.0


def _delta_budget(sigma: int, n_rules: int) -> float:
    """Upper bound on the total Elias-delta bits of the incremental encoding:
    the deltas sum to at most sigma + 2|G|, so concavity bounds the sum."""
    if n_rules == 0:
        return 0.0
    top = sigma + 2 * n_rules + 2
    per = 3 + 2 * math.log2(1 + math.log2(top))
    return n_rules * per + n_rules * math.log2(top / n_rules + 1)


def _check_unary(length: int):
    if length > MAX_UNARY:
        raise ValueError(f"rule length {length} exceeds the unary cap {MAX_UNARY}")


def _fit(r: BitReader, count: int, bits: int, what: str):
    """Refuse a declared count of items of at least ``bits`` bits each that
    the rest of the stream cannot hold, before anything is allocated."""
    if count * bits > r.remaining():
        raise MalformedStreamError(f"{count} {what} cannot fit in {r.remaining()} bits")


def _write_rules(w: BitWriter, grammar: FullGrammar, width: int) -> int:
    """Each rule as its unary length, then its symbols in ``width`` bits;
    returns the bits spent on lengths."""
    lengths = np.diff(grammar.ends)
    _check_unary(int(lengths.max(initial=0)))
    values = prefixed_rules(grammar, [(1 << m) - 2 for m in lengths.tolist()])
    widths = np.full(len(values), width, dtype=np.int64)
    widths[grammar.ends[:-1] - grammar.ends[0] + np.arange(len(lengths))] = lengths
    w.write_fields(values, widths)
    return int(lengths.sum())


def _read_rules(r: BitReader, n_rules: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The rules' ids, laid out as one array, and their lengths.

    One loop over the reader's words finds where each rule ends: the first
    zero bit from the rule's start ends its unary length n, and its n
    symbols follow.  The symbols are then gathered at once.
    """
    _fit(r, n_rules, 1 + width, "rules")
    words, end = r.words, r.length_bits
    bounds = [r.pos] * (n_rules + 1)
    p = r.pos
    for i in range(1, n_rules + 1):
        # the word at p's byte holds bit p and the 56 to 63 bits after it
        q = p - (p & 7) + 64  # one past the word's last bit
        x = ~words[p >> 3] & (_ONES64 >> (p & 7))  # its zero bits from p on
        while not x and q < end:
            x, q = ~words[q >> 3] & _ONES64, q + 64
        zero = q - x.bit_length()  # past the stream when no zero was found
        p = zero + 1 + (zero + 1 - p) * width
        if p > end:
            raise MalformedStreamError("bit stream exhausted")
        bounds[i] = p
    r.pos = p
    bounds = np.array(bounds, dtype=np.int64)
    lengths = np.diff(bounds) // (1 + width)
    # symbol k of the rule starting at bounds[i] sits at bounds[i] + lengths[i] + k * width
    lead = bounds[:-1] + lengths - width * (np.cumsum(lengths) - lengths)
    at = np.repeat(lead, lengths) + width * np.arange(int(lengths.sum()))
    return r.fields(at, width), lengths


def _write_coded(w: BitWriter, seq, domain: int) -> tuple[Codebook, int]:
    """The codebook of ``seq``, then ``seq`` Huffman-coded; returns the
    codebook and the bits of the codes."""
    cb = build_codebook(seq, domain)
    w.write_bytes(cb.serialized)
    codes, lengths = _huffman_fields(seq, cb)
    w.write_fields(codes, lengths)
    return cb, int(lengths.sum())


def _read_coded(r: BitReader, count: int) -> np.ndarray:
    return _read_huffman(r, parse_codebook(r), count)


# -- fully naive -------------------------------------------------------------------


def encode_fully_naive(grammar: FullGrammar):
    w = BitWriter()
    domain = grammar.sigma + grammar.n_rules
    width = symbol_width(grammar.sigma, grammar.n_rules)
    lengths_side = _write_rules(w, grammar, width)
    w.write_fields(grammar.ids[:grammar.ends[0]], width)
    stream = w.freeze()
    rhs_full = len(grammar.ids)
    payload = stream.length_bits - lengths_side
    bound = rhs_full * math.log2(max(2, domain)) + _overhead_slack(rhs_full, domain, 0)
    return stream, _breakdown(payload, 0, lengths_side, bound)


def _read_fully_naive(r: BitReader, sigma, n_rules, start_len):
    width = symbol_width(sigma, n_rules)
    body, lengths = _read_rules(r, n_rules, width)
    return np.concatenate((r.read_fields(start_len, width), body)), np.cumsum(np.append(start_len, lengths))


# -- naive -------------------------------------------------------------------------


def encode_naive(grammar: FullGrammar):
    if not grammar.start:
        raise ValueError("naive encoding needs a nonempty starting string")
    w = BitWriter()
    lengths_side = _write_rules(w, grammar, symbol_width(grammar.sigma, grammar.n_rules))
    domain = grammar.sigma + grammar.n_rules
    cb, coded = _write_coded(w, grammar.start, domain)
    stream = w.freeze()
    payload = stream.length_bits - lengths_side - cb.serialized_bits
    rhs_full = len(grammar.ids)
    rhs_g = rhs_full - len(grammar.start)
    h0 = sequence_entropy_bits(grammar.start)
    bound = (
        h0
        + rhs_g * math.log2(max(2, domain))
        + _overhead_slack(rhs_full, domain, len(cb.symbols))
    )
    return stream, _breakdown(payload, cb.serialized_bits, lengths_side, bound, (h0, coded, len(grammar.start)))


def _read_naive(r: BitReader, sigma, n_rules, start_len):
    body, lengths = _read_rules(r, n_rules, symbol_width(sigma, n_rules))
    start = _read_coded(r, start_len)
    return np.concatenate((start, _id_array(body, sigma, n_rules))), np.cumsum(np.append(start_len, lengths))


# -- entropy coding of the concatenation --------------------------------------------


def encode_entropy(grammar: FullGrammar):
    s_g = grammar.ids.tolist()
    if not s_g:
        raise ValueError("entropy encoding needs a nonempty grammar")
    w = BitWriter()
    lengths = np.diff(grammar.ends).tolist()
    _check_unary(max(lengths, default=0))
    w.write_unaries(lengths)
    lengths_side = sum(lengths)
    domain = grammar.sigma + grammar.n_rules
    cb, coded = _write_coded(w, s_g, domain)
    stream = w.freeze()
    payload = stream.length_bits - lengths_side - cb.serialized_bits
    h0 = sequence_entropy_bits(s_g)
    bound = h0 + len(s_g) + _overhead_slack(len(s_g), domain, len(cb.symbols))
    return stream, _breakdown(payload, cb.serialized_bits, lengths_side, bound, (h0, coded, len(s_g)))


def _read_entropy(r: BitReader, sigma, n_rules, start_len):
    _fit(r, n_rules, 2, "rules")  # a unary length and a code each
    rule_lens = r.read_unaries(n_rules)
    return _read_coded(r, start_len + int(rule_lens.sum())), np.cumsum(np.append(start_len, rule_lens))


# -- incremental (CNF) ----------------------------------------------------------------


def incremental_order(grammar: FullGrammar) -> list[int]:
    """Permutation of rule indices making first components non-decreasing.

    Rules are placed breadth first: those whose first component is a
    terminal, by (terminal, index), then, as each rule is placed, the rules
    whose first component it is, by index.  This is the greedy order that
    always appends the pending rule whose first component comes first in the
    combined order (terminals, then appended rules), ties by index: a rule
    placed later comes after every terminal and every rule placed before it.
    """
    sigma, n_rules = grammar.sigma, grammar.n_rules
    if not n_rules:
        return []
    firsts = grammar.ids[grammar.ends[:-1]]
    nonterminal = firsts >= sigma
    terminal = np.flatnonzero(~nonterminal)
    order = terminal[np.argsort(firsts[terminal], kind="stable")].tolist()
    # users[at[j]:at[j + 1]]: the rules whose first component is rule j, by index
    users = np.flatnonzero(nonterminal)
    child = (firsts[users] - sigma).astype(np.int64)
    by_child = np.argsort(child, kind="stable")
    at = np.searchsorted(child[by_child], np.arange(n_rules + 1)).tolist()
    users = users[by_child].tolist()
    for j in order:  # the list grows while it is walked
        order += users[at[j]:at[j + 1]]
    if len(order) != n_rules:
        raise AssertionError("pending rules with no placeable first component")
    return order


def encode_incremental(grammar: FullGrammar):
    if not grammar.is_cnf:
        raise ValueError("incremental encoding requires a CNF grammar")
    if not grammar.start:
        raise ValueError("incremental encoding needs a nonempty starting string")
    sigma = grammar.sigma
    n_rules = grammar.n_rules
    order = np.array(incremental_order(grammar), dtype=np.int64)
    ids = grammar.ids
    if n_rules:  # rule order[k] becomes rule k: one gather renames every id
        rank = np.empty(n_rules, dtype=np.int64)
        rank[order] = np.arange(n_rules)
        ids = ids.copy()
        nonterminal = ids >= sigma
        ids[nonterminal] = rank[(ids[nonterminal] - sigma).astype(np.int64)].astype(ids.dtype) + sigma
    head = int(grammar.ends[0])
    pairs = ids[head:].reshape(-1, 2)[order]
    if (np.diff(pairs[:, 0]) < 0).any():
        raise AssertionError("first components not sorted")
    # each rule: delta(first - previous first + 1) as the bit length N of the
    # gap and its N - 1 low bits, then the second component
    dtype = object if ids.dtype == object else np.uint64
    pairs = pairs.astype(dtype)
    gaps = np.diff(pairs[:, 0], prepend=np.zeros(1, dtype)) + 1
    nbits = _bit_length(gaps)
    low = gaps - (np.ones(1, dtype) << (nbits - 1).astype(dtype))  # the gap without its top bit
    width = symbol_width(sigma, n_rules)
    values = np.column_stack((nbits.astype(dtype), low, pairs[:, 1]))
    widths = np.column_stack((2 * _bit_length(nbits.astype(np.uint64)) - 1, nbits - 1,
                              np.full(n_rules, width)))
    w = BitWriter()
    w.write_fields(values.ravel(), widths.ravel())
    delta_bits = int(widths[:, :2].sum())
    start = ids[:head]
    cb, coded = _write_coded(w, start, sigma + n_rules)
    stream = w.freeze()
    payload = stream.length_bits - delta_bits - cb.serialized_bits
    rhs_full = len(grammar.start) + 2 * n_rules
    # S' renamed has the frequencies of S', so the same H0 and optimal code total
    h0 = sequence_entropy_bits(grammar.start)
    bound = (
        h0
        + n_rules * math.log2(max(2, sigma + n_rules))
        + _delta_budget(sigma, n_rules)
        + _overhead_slack(rhs_full, sigma + n_rules, len(cb.symbols))
    )
    return stream, _breakdown(payload, cb.serialized_bits, delta_bits, bound, (h0, coded, len(start)))


def _read_incremental(r: BitReader, sigma, n_rules, start_len):
    width = symbol_width(sigma, n_rules)
    _fit(r, n_rules, 1 + width, "rules")
    gaps, at = _read_deltas(r, n_rules, width)
    seconds = _id_array(r.fields(at, width), sigma, n_rules)
    # first component i is the sum of gaps[:i + 1], less i + 1, exactly
    firsts = _id_array(list(accumulate(gaps)), sigma, n_rules) - np.arange(1, n_rules + 1)
    start = _read_coded(r, start_len)
    # the first components ascend: the last is the largest
    limit = sigma + n_rules
    if (n_rules and firsts[-1] >= limit) or (seconds >= limit).any() or (start >= limit).any():
        raise MalformedStreamError("symbol id out of range")
    pairs = np.column_stack((firsts, seconds))
    # rules arrive in permuted order; rebuild a topologically ordered grammar
    try:
        return renumber_segments(sigma, np.concatenate((start, pairs.ravel())),
                                 start_len + 2 * np.arange(n_rules + 1))
    except ValueError as e:
        raise MalformedStreamError("decoded grammar is not acyclic") from e


# -- container -------------------------------------------------------------------------


_ENCODE = {
    "fully_naive": encode_fully_naive,
    "naive": encode_naive,
    "entropy": encode_entropy,
    "incremental": encode_incremental,
}
# the rule section of each encoding: reader, sigma, |G|, |S'| -> the ids of
# S' and the rules in one sequence, and the offset where each segment ends
_READ = {
    "fully_naive": _read_fully_naive,
    "naive": _read_naive,
    "entropy": _read_entropy,
    "incremental": _read_incremental,
}


def encode(grammar: FullGrammar, encoding: str):
    try:
        fn = _ENCODE[encoding]
    except KeyError:
        raise ValueError(f"unknown encoding {encoding!r}") from None
    return fn(grammar)


def decode(encoding: str, stream: BitStream, sigma, n_rules, start_len) -> FullGrammar:
    try:
        read = _READ[encoding]
    except KeyError:
        raise ValueError(f"unknown encoding {encoding!r}") from None
    r = BitReader(stream)
    ids, ends = read(r, sigma, n_rules, start_len)
    if r.remaining() >= 8:
        raise MalformedStreamError("trailing data after grammar payload")
    try:
        return FullGrammar.from_ids(sigma, ids, ends)
    except ValueError as e:
        raise MalformedStreamError(f"decoded grammar is invalid: {e}") from e


def frame_container(grammar: FullGrammar, encoding: str, stream: BitStream) -> bytes:
    """The GCB1 container of ``stream``, an ``encoding`` of ``grammar``."""
    out = bytearray(MAGIC)
    out.append(_TAGS[encoding])
    out += uvarint_bytes(grammar.sigma)
    out += uvarint_bytes(grammar.n_rules)
    out += uvarint_bytes(len(grammar.start))
    out += uvarint_bytes(stream.length_bits)
    out += stream.data
    return bytes(out)


def to_container(grammar: FullGrammar, encoding: str) -> bytes:
    stream, _ = encode(grammar, encoding)
    return frame_container(grammar, encoding, stream)


def from_container(data: bytes) -> tuple[FullGrammar, str]:
    if data[:4] != MAGIC:
        raise MalformedStreamError("bad container magic")
    if len(data) < 5:
        raise MalformedStreamError("truncated container")
    tag = data[4]
    if tag >= len(ENCODINGS):
        raise MalformedStreamError("unknown encoding tag")
    encoding = ENCODINGS[tag]
    pos = 5
    sigma, pos = read_uvarint(data, pos)
    n_rules, pos = read_uvarint(data, pos)
    start_len, pos = read_uvarint(data, pos)
    nbits, pos = read_uvarint(data, pos)
    nbytes = (nbits + 7) // 8
    if len(data) - pos != nbytes:
        raise MalformedStreamError("container payload size mismatch")
    stream = BitStream(data[pos:], nbits)
    return decode(encoding, stream, sigma, n_rules, start_len), encoding
