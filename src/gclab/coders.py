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
field's position: rule lengths interleaved with symbols, Elias delta codes
and the chain of Huffman code starts.

Every SizeBreakdown carries formula_bound_bits: the corresponding upper
bound with all hidden constants instantiated explicitly (see _overhead_slack
and _delta_budget); totals are asserted against these bounds in the tests.
The naive, entropy and incremental ones also carry the Huffman sandwich
figures of the sequence they code.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bits import (
    WINDOW_BITS,
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


@dataclass(frozen=True)
class Codebook:
    """Canonical prefix code: symbol -> (length, code)."""

    lengths: dict[int, int]
    codes: dict[int, int]
    domain: int

    @cached_property
    def serialized(self) -> bytes:
        """Varint domain size, presence bitmap, then the code lengths in id
        order; only an encoder needs it."""
        out = bytearray(uvarint_bytes(self.domain))
        bitmap = bytearray((self.domain + 7) // 8)
        for sym in self.lengths:
            bitmap[sym >> 3] |= 1 << (7 - (sym & 7))
        out += bitmap
        out += uvarints([self.lengths[sym] for sym in sorted(self.lengths)])
        return bytes(out)

    @property
    def serialized_bits(self) -> int:
        return 8 * len(self.serialized)

    def kraft_sum(self) -> float:
        return sum(2.0 ** -l for l in self.lengths.values())


def _code_lengths(freqs: dict[int, int]) -> dict[int, int]:
    """Huffman code lengths: merge the two lightest nodes until one is left,
    ties to the node made first (leaves in symbol order, then merges)."""
    if not freqs:
        raise ValueError("cannot build a code for an empty sequence")
    syms = sorted(freqs)
    if len(syms) == 1:
        return {syms[0]: 1}
    heap = [(freqs[s], i) for i, s in enumerate(syms)]
    heapq.heapify(heap)
    parent = [0] * (2 * len(syms) - 1)
    node = len(syms)
    while len(heap) > 1:
        fa, a = heapq.heappop(heap)
        fb, b = heapq.heappop(heap)
        parent[a] = parent[b] = node
        heapq.heappush(heap, (fa + fb, node))
        node += 1
    depth = [0] * node
    for i in range(node - 2, -1, -1):  # parents are made after their children
        depth[i] = depth[parent[i]] + 1
    return {s: depth[i] for i, s in enumerate(syms)}


def _canonical(lengths: dict[int, int], domain: int) -> Codebook:
    """The canonical code of the given lengths: the codes of one length are
    consecutive integers in symbol order."""
    codes = {}
    code = 0
    prev_len = 0
    for length, sym in sorted((l, s) for s, l in lengths.items()):
        code <<= length - prev_len
        codes[sym] = code
        code += 1
        prev_len = length
    return Codebook(lengths, codes, domain)


def build_codebook(seq, domain: int) -> Codebook:
    if domain > CODEBOOK_DOMAIN_CAP:
        raise ValueError(f"codebook domain of {domain} symbols is over the cap of {CODEBOOK_DOMAIN_CAP}")
    freqs = Counter(seq)
    for sym in freqs:
        if not 0 <= sym < domain:
            raise ValueError(f"symbol {sym} outside codebook domain {domain}")
    return _canonical(_code_lengths(freqs), domain)


def parse_codebook(reader: BitReader) -> Codebook:
    """Read a codebook serialization (see Codebook.serialized) at the
    reader's position.

    Code lengths must lie in 1..min(57, m - 1) for m present symbols, so
    that one 64-bit window holds any code, and satisfy the Kraft inequality.
    """
    (domain,) = reader.read_uvarints(1)
    nbytes = (domain + 7) // 8
    if 8 * nbytes > reader.remaining():
        raise MalformedStreamError("truncated codebook bitmap")
    present = np.flatnonzero(np.unpackbits(reader.read_bytes(nbytes))[:domain]).tolist()
    if not present:
        raise MalformedStreamError("empty codebook")
    # a Huffman code over m >= 2 symbols is at most m - 1 bits deep
    max_len = min(WINDOW_BITS, max(1, len(present) - 1))
    lengths = reader.read_uvarints(len(present))
    for l in lengths:
        if not 1 <= l <= max_len:
            raise MalformedStreamError(f"code length {l} outside 1..{max_len}")
    if sum(1 << (max_len - l) for l in lengths) > 1 << max_len:
        raise MalformedStreamError("code lengths violate the Kraft inequality")
    return _canonical(dict(zip(present, lengths)), domain)


def _huffman_fields(seq, codebook: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """(code, code length) of each symbol of ``seq``."""
    syms = sorted(codebook.lengths)
    at = np.searchsorted(np.array(syms, dtype=np.int64), np.asarray(seq, dtype=np.int64))
    codes = np.array([codebook.codes[s] for s in syms], dtype=np.uint64)
    lengths = np.array([codebook.lengths[s] for s in syms], dtype=np.int64)
    return codes[at], lengths[at]


def _read_huffman(reader: BitReader, codebook: Codebook, count: int) -> np.ndarray:
    """``count`` Huffman-coded symbols from the reader's position, as int64.

    Canonical decoding (Moffat & Turpin 1997): the codes of one length are
    consecutive integers assigned in symbol order, so, left-justified to the
    longest length L, each length owns one interval of L-bit windows, the
    intervals ascending with the length.  One ``searchsorted`` of every bit
    position's window over the interval limits gives the code length a code
    starting there would have; the symbols' positions are then a chain of
    code lengths from the first, and their windows give the symbols.
    """
    if count > reader.remaining():
        raise MalformedStreamError(f"{count} symbols cannot fit in {reader.remaining()} bits")
    if not count:
        return np.zeros(0, dtype=np.int64)
    syms = np.fromiter(codebook.lengths, dtype=np.int64, count=len(codebook.lengths))
    lens = np.fromiter(codebook.lengths.values(), dtype=np.int64, count=len(syms))
    order = np.lexsort((syms, lens))
    syms = syms[order]
    # one row per code length: its first code and symbol index, its symbol count
    length, base, n = np.unique(lens[order], return_index=True, return_counts=True)
    first = np.array([codebook.codes[s] for s in syms[base].tolist()], dtype=np.int64)
    top = int(length[-1])
    if top > WINDOW_BITS:
        raise MalformedStreamError(f"code length {top} over {WINDOW_BITS}")
    limits = ((first + n) << (top - length)).astype(np.uint64)
    step = np.append(length, 0).astype(np.uint8)  # past the last limit: no code
    start, end = reader.pos, min(reader.length_bits, reader.pos + count * top)
    steps = b"".join(step[np.searchsorted(limits, w, "right")].tobytes() for w in reader.scan(start, end, top))
    at = [0] * count
    p = 0
    try:
        for i in range(count):
            at[i] = p
            p += steps[p]
    except IndexError:
        raise MalformedStreamError("bit stream exhausted") from None
    reader.require(start + p)
    window = reader.windows(np.array(at) + start, top)
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


def _read_delta(reader: BitReader) -> int:
    p = reader.pos
    one = reader.next_bit(p, 1)
    zeros = one - p
    reader.require(one + 1)
    if zeros >= WINDOW_BITS:  # a bit length of 2^57 bits or more
        raise MalformedStreamError("bad Elias delta prefix")
    nbits = reader.peek(one, zeros + 1)
    reader.pos = one + zeros + 1
    return (1 << (nbits - 1)) | reader.read_bits(nbits - 1)


def elias_delta_encode(n: int) -> BitStream:
    w = BitWriter()
    w.write_fields(*_delta_fields(n))
    return w.freeze()


def elias_delta_decode(stream: BitStream) -> int:
    reader = BitReader(stream)
    value = _read_delta(reader)
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


def _read_rules(r: BitReader, n_rules: int, width: int) -> tuple[list[int], list[int]]:
    """The rules' ids, laid out as one list, and their lengths."""
    _fit(r, n_rules, 1 + width, "rules")
    starts, lengths = [], []
    p = r.pos
    for _ in range(n_rules):
        zero = r.next_bit(p, 0)
        n = zero + 1 - p
        p = zero + 1 + n * width
        r.require(p)
        starts.append(zero + 1)
        lengths.append(n)
    r.pos = p
    lengths = np.array(lengths, dtype=np.int64)
    offsets = np.arange(int(lengths.sum())) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    symbols = r.fields(np.repeat(np.array(starts, dtype=np.int64), lengths) + width * offsets, width)
    return symbols, lengths.tolist()


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
    return r.read_fields(start_len, width) + body, np.cumsum([start_len, *lengths])


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
        + _overhead_slack(rhs_full, domain, len(cb.lengths))
    )
    return stream, _breakdown(payload, cb.serialized_bits, lengths_side, bound, (h0, coded, len(grammar.start)))


def _read_naive(r: BitReader, sigma, n_rules, start_len):
    body, lengths = _read_rules(r, n_rules, symbol_width(sigma, n_rules))
    start = _read_coded(r, start_len)
    return np.concatenate((start, _id_array(body, sigma, n_rules))), np.cumsum([start_len, *lengths])


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
    bound = h0 + len(s_g) + _overhead_slack(len(s_g), domain, len(cb.lengths))
    return stream, _breakdown(payload, cb.serialized_bits, lengths_side, bound, (h0, coded, len(s_g)))


def _read_entropy(r: BitReader, sigma, n_rules, start_len):
    _fit(r, n_rules, 2, "rules")  # a unary length and a code each
    rule_lens = r.read_unaries(n_rules)
    return _read_coded(r, start_len + sum(rule_lens)), np.cumsum([start_len, *rule_lens])


# -- incremental (CNF) ----------------------------------------------------------------


def incremental_order(grammar: FullGrammar) -> list[int]:
    """Permutation of rule indices making first components non-decreasing.

    Greedy: repeatedly append the pending rule whose first component has the
    smallest position in the combined order (terminals, then appended rules);
    ties by original rule index.
    """
    sigma = grammar.sigma
    waiting: dict[int, list[int]] = {}
    heap = []
    for j, first in enumerate(grammar.ids[grammar.ends[:-1]].tolist()):
        if first < sigma:
            heap.append((first, j))
        else:
            waiting.setdefault(first, []).append(j)
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        _, j = heapq.heappop(heap)
        order.append(j)
        new_pos = sigma + len(order) - 1
        for u in waiting.pop(sigma + j, ()):
            heapq.heappush(heap, (new_pos, u))
    if len(order) != grammar.n_rules:
        raise AssertionError("pending rules with no placeable first component")
    return order


def encode_incremental(grammar: FullGrammar):
    if not grammar.is_cnf:
        raise ValueError("incremental encoding requires a CNF grammar")
    if not grammar.start:
        raise ValueError("incremental encoding needs a nonempty starting string")
    sigma = grammar.sigma
    n_rules = grammar.n_rules
    order = incremental_order(grammar)
    rename = {sigma + old: sigma + new for new, old in enumerate(order)}

    def new_id(s: int) -> int:
        return s if s < sigma else rename[s]

    w = BitWriter()
    width = symbol_width(sigma, n_rules)
    values, widths = [], []
    prev = 0
    for old in order:
        first, second = (new_id(s) for s in grammar.rules[old])
        if first < prev:
            raise AssertionError("first components not sorted")
        v, wd = _delta_fields(first - prev + 1)
        values += (*v, second)
        widths += (*wd, width)
        prev = first
    w.write_fields(values, widths)
    delta_bits = sum(widths) - n_rules * width
    start = [new_id(s) for s in grammar.start]
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
        + _overhead_slack(rhs_full, sigma + n_rules, len(cb.lengths))
    )
    return stream, _breakdown(payload, cb.serialized_bits, delta_bits, bound, (h0, coded, len(start)))


def _read_incremental(r: BitReader, sigma, n_rules, start_len):
    width = symbol_width(sigma, n_rules)
    _fit(r, n_rules, 1 + width, "rules")
    firsts, at = [], []
    prev = 0
    for _ in range(n_rules):
        prev += _read_delta(r) - 1
        firsts.append(prev)
        at.append(r.pos)
        r.pos += width
    r.require(r.pos)
    seconds = _id_array(r.fields(at, width), sigma, n_rules)
    start = _read_coded(r, start_len)
    # the first components ascend: prev is the largest
    limit = sigma + n_rules
    if (firsts and prev >= limit) or (seconds >= limit).any() or (start >= limit).any():
        raise MalformedStreamError("symbol id out of range")
    pairs = np.column_stack((np.array(firsts, dtype=seconds.dtype), seconds))
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
