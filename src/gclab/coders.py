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

Every SizeBreakdown carries formula_bound_bits: the corresponding upper
bound with all hidden constants instantiated explicitly (see _overhead_slack
and _delta_budget); totals are asserted against these bounds in the tests.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass

from .bits import (
    BitReader,
    BitStream,
    BitWriter,
    MalformedStreamError,
    read_uvarint,
    uvarint_bytes,
)
from .grammar import FullGrammar, renumber_segments

MAGIC = b"GCB1"
ENCODINGS = ("fully_naive", "naive", "entropy", "incremental")
_TAGS = {name: i for i, name in enumerate(ENCODINGS)}
MAX_UNARY = 1 << 20  # rule-length cap for unary fields


@dataclass(frozen=True)
class SizeBreakdown:
    payload_bits: int
    dictionary_bits: int
    lengths_side_bits: int
    total_bits: int
    formula_bound_bits: float

    def as_dict(self) -> dict:
        return {
            "payload_bits": self.payload_bits,
            "dictionary_bits": self.dictionary_bits,
            "lengths_side_bits": self.lengths_side_bits,
            "total_bits": self.total_bits,
            "formula_bound_bits": self.formula_bound_bits,
        }


def _breakdown(payload, dictionary, lengths_side, bound) -> SizeBreakdown:
    return SizeBreakdown(
        payload, dictionary, lengths_side, payload + dictionary + lengths_side, bound
    )


# -- Huffman -------------------------------------------------------------------


@dataclass(frozen=True)
class Codebook:
    """Canonical prefix code: symbol -> (length, code)."""

    lengths: dict[int, int]
    codes: dict[int, int]
    domain: int
    serialized: bytes

    @property
    def serialized_bits(self) -> int:
        return 8 * len(self.serialized)

    def kraft_sum(self) -> float:
        return sum(2.0 ** -l for l in self.lengths.values())


def _code_lengths(freqs: dict[int, int]) -> dict[int, int]:
    if not freqs:
        raise ValueError("cannot build a code for an empty sequence")
    if len(freqs) == 1:
        return {next(iter(freqs)): 1}
    heap = []
    for order, (sym, f) in enumerate(sorted(freqs.items())):
        heap.append((f, order, (sym,)))
    heapq.heapify(heap)
    tick = len(heap)
    merged: dict[tuple, list] = {}
    while len(heap) > 1:
        fa, _, a = heapq.heappop(heap)
        fb, _, b = heapq.heappop(heap)
        node = a + b
        heapq.heappush(heap, (fa + fb, tick, node))
        tick += 1
        merged[node] = [a, b]
    lengths = {}
    stack = [(heap[0][2], 0)]
    while stack:
        node, d = stack.pop()
        kids = merged.get(node)
        if kids is None or len(node) == 1:
            lengths[node[0]] = max(d, 1)
        else:
            stack.append((kids[0], d + 1))
            stack.append((kids[1], d + 1))
    return lengths


def _canonical(lengths: dict[int, int], domain: int) -> Codebook:
    codes = {}
    code = 0
    prev_len = 0
    for length, sym in sorted((l, s) for s, l in lengths.items()):
        code <<= length - prev_len
        codes[sym] = code
        code += 1
        prev_len = length
    out = bytearray(uvarint_bytes(domain))
    bitmap = bytearray((domain + 7) // 8)
    for sym in lengths:
        bitmap[sym >> 3] |= 1 << (7 - (sym & 7))
    out += bitmap
    for sym in sorted(lengths):
        out += uvarint_bytes(lengths[sym])
    return Codebook(dict(lengths), codes, domain, bytes(out))


def build_codebook(seq, domain: int) -> Codebook:
    freqs = Counter(seq)
    for sym in freqs:
        if not 0 <= sym < domain:
            raise ValueError(f"symbol {sym} outside codebook domain {domain}")
    return _canonical(_code_lengths(freqs), domain)


def parse_codebook(reader: BitReader) -> Codebook:
    """Read a codebook serialization (see _canonical) at the reader's position."""
    domain = reader.read_uvarint()
    nbytes = (domain + 7) // 8
    if 8 * nbytes > reader.remaining():
        raise MalformedStreamError("truncated codebook bitmap")
    bitmap = reader.read_bits(8 * nbytes).to_bytes(nbytes, "big")
    present = [sym for sym in range(domain) if bitmap[sym >> 3] & (1 << (7 - (sym & 7)))]
    if not present:
        raise MalformedStreamError("empty codebook")
    # a Huffman code over m >= 2 symbols is at most m - 1 bits deep
    max_len = max(1, len(present) - 1)
    lengths = {}
    for sym in present:
        l = reader.read_uvarint()
        if not 1 <= l <= max_len:
            raise MalformedStreamError(f"code length {l} outside 1..{max_len}")
        lengths[sym] = l
    return _canonical(lengths, domain)


def _write_huffman(writer: BitWriter, seq, codebook: Codebook):
    for s in seq:
        writer.write_bits(codebook.codes[s], codebook.lengths[s])


def _read_huffman(reader: BitReader, codebook: Codebook, count: int) -> list[int]:
    # canonical decoding: the codes of one length are consecutive integers,
    # assigned in symbol order, so each length needs only its first code
    order = sorted(codebook.lengths, key=lambda s: (codebook.lengths[s], s))
    table = []  # [length, first code, symbols of that length, index in order]
    for i, sym in enumerate(order):
        length = codebook.lengths[sym]
        if table and table[-1][0] == length:
            table[-1][2] += 1
        else:
            table.append([length, codebook.codes[sym], 1, i])
    max_len = table[-1][0]
    out = []
    for _ in range(count):
        window = reader.peek_bits(max_len)
        for length, first, n, base in table:
            offset = (window >> (max_len - length)) - first
            if 0 <= offset < n:
                reader.skip(length)
                out.append(order[base + offset])
                break
        else:
            raise MalformedStreamError("invalid Huffman code")
    return out


def sequence_entropy_bits(seq) -> float:
    freqs = Counter(seq)
    n = len(seq)
    return sum(c * math.log2(n / c) for c in freqs.values()) if n else 0.0


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
    _write_huffman(w, seq, cb)
    stream = w.freeze()
    bound = sequence_entropy_bits(seq) + len(seq) + cb.serialized_bits
    br = _breakdown(stream.length_bits, cb.serialized_bits, 0, bound)
    return stream, cb, br


def huffman_decode(stream: BitStream, codebook: Codebook, count: int) -> list[int]:
    reader = BitReader(stream)
    out = _read_huffman(reader, codebook, count)
    if reader.remaining() >= 8:
        raise MalformedStreamError("trailing data after Huffman payload")
    return out


# -- Elias delta ----------------------------------------------------------------


def _write_delta(writer: BitWriter, n: int):
    if n < 1:
        raise ValueError("Elias delta is defined for n >= 1")
    nbits = n.bit_length()
    lbits = nbits.bit_length()
    # lbits - 1 zeros, then nbits in lbits bits
    writer.write_bits(nbits, 2 * lbits - 1)
    writer.write_bits(n - (1 << (nbits - 1)), nbits - 1)


def _read_delta(reader: BitReader) -> int:
    window = reader.peek_bits(64)
    if not window:
        raise MalformedStreamError("bad Elias delta prefix")
    zeros = 64 - window.bit_length()
    nbits = reader.read_bits(2 * zeros + 1)
    rest = reader.read_bits(nbits - 1)
    return (1 << (nbits - 1)) | rest


def elias_delta_encode(n: int) -> BitStream:
    w = BitWriter()
    _write_delta(w, n)
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


def _write_rules(w: BitWriter, grammar: FullGrammar, width: int) -> int:
    """Each rule as its unary length, then its symbols in ``width`` bits;
    returns the bits spent on lengths."""
    lengths_side = 0
    for rhs in grammar.rules:
        _check_unary(len(rhs))
        w.write_unary(len(rhs))
        lengths_side += len(rhs)
        for s in rhs:
            w.write_bits(s, width)
    return lengths_side


def _read_rules(r: BitReader, n_rules: int, width: int) -> list[tuple]:
    rules = []
    for _ in range(n_rules):
        ln = r.read_unary()
        rules.append(tuple(r.read_bits(width) for _ in range(ln)))
    return rules


def _write_coded(w: BitWriter, seq, domain: int) -> Codebook:
    """The codebook of ``seq``, then ``seq`` Huffman-coded."""
    cb = build_codebook(seq, domain)
    w.write_bytes(cb.serialized)
    _write_huffman(w, seq, cb)
    return cb


def _read_coded(r: BitReader, count: int) -> list[int]:
    return _read_huffman(r, parse_codebook(r), count)


# -- fully naive -------------------------------------------------------------------


def encode_fully_naive(grammar: FullGrammar):
    w = BitWriter()
    width = symbol_width(grammar.sigma, len(grammar.rules))
    lengths_side = _write_rules(w, grammar, width)
    for s in grammar.start:
        w.write_bits(s, width)
    stream = w.freeze()
    rhs_full = len(grammar.start) + sum(len(r) for r in grammar.rules)
    payload = stream.length_bits - lengths_side
    bound = rhs_full * math.log2(max(2, grammar.sigma + len(grammar.rules))) \
        + _overhead_slack(rhs_full, grammar.sigma + len(grammar.rules), 0)
    return stream, _breakdown(payload, 0, lengths_side, bound)


def _read_fully_naive(r: BitReader, sigma, n_rules, start_len):
    width = symbol_width(sigma, n_rules)
    rules = _read_rules(r, n_rules, width)
    return [r.read_bits(width) for _ in range(start_len)], rules


# -- naive -------------------------------------------------------------------------


def encode_naive(grammar: FullGrammar):
    if not grammar.start:
        raise ValueError("naive encoding needs a nonempty starting string")
    w = BitWriter()
    lengths_side = _write_rules(w, grammar, symbol_width(grammar.sigma, len(grammar.rules)))
    domain = grammar.sigma + len(grammar.rules)
    cb = _write_coded(w, grammar.start, domain)
    stream = w.freeze()
    payload = stream.length_bits - lengths_side - cb.serialized_bits
    rhs_g = sum(len(r) for r in grammar.rules)
    rhs_full = len(grammar.start) + rhs_g
    bound = (
        sequence_entropy_bits(grammar.start)
        + rhs_g * math.log2(max(2, domain))
        + _overhead_slack(rhs_full, domain, len(set(grammar.start)))
    )
    return stream, _breakdown(payload, cb.serialized_bits, lengths_side, bound)


def _read_naive(r: BitReader, sigma, n_rules, start_len):
    rules = _read_rules(r, n_rules, symbol_width(sigma, n_rules))
    return _read_coded(r, start_len), rules


# -- entropy coding of the concatenation --------------------------------------------


def encode_entropy(grammar: FullGrammar):
    s_g = grammar.rhs_concat()
    if not s_g:
        raise ValueError("entropy encoding needs a nonempty grammar")
    w = BitWriter()
    lengths_side = 0
    for rhs in grammar.rules:
        _check_unary(len(rhs))
        w.write_unary(len(rhs))
        lengths_side += len(rhs)
    domain = grammar.sigma + len(grammar.rules)
    cb = _write_coded(w, s_g, domain)
    stream = w.freeze()
    payload = stream.length_bits - lengths_side - cb.serialized_bits
    bound = (
        sequence_entropy_bits(s_g)
        + len(s_g)
        + _overhead_slack(len(s_g), domain, len(set(s_g)))
    )
    return stream, _breakdown(payload, cb.serialized_bits, lengths_side, bound)


def _read_entropy(r: BitReader, sigma, n_rules, start_len):
    rule_lens = [r.read_unary() for _ in range(n_rules)]
    symbols = _read_coded(r, start_len + sum(rule_lens))
    rules = []
    at = start_len
    for ln in rule_lens:
        rules.append(tuple(symbols[at : at + ln]))
        at += ln
    return symbols[:start_len], rules


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
    for j, rhs in enumerate(grammar.rules):
        first = rhs[0]
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
    if len(order) != len(grammar.rules):
        raise AssertionError("pending rules with no placeable first component")
    return order


def encode_incremental(grammar: FullGrammar):
    if not grammar.is_cnf:
        raise ValueError("incremental encoding requires a CNF grammar")
    if not grammar.start:
        raise ValueError("incremental encoding needs a nonempty starting string")
    sigma = grammar.sigma
    n_rules = len(grammar.rules)
    order = incremental_order(grammar)
    rename = {sigma + old: sigma + new for new, old in enumerate(order)}

    def new_id(s: int) -> int:
        return s if s < sigma else rename[s]

    w = BitWriter()
    width = symbol_width(sigma, n_rules)
    prev = 0
    delta_bits = 0
    for old in order:
        first, second = (new_id(s) for s in grammar.rules[old])
        if first < prev:
            raise AssertionError("first components not sorted")
        before = len(w)
        _write_delta(w, first - prev + 1)
        delta_bits += len(w) - before
        w.write_bits(second, width)
        prev = first
    start = [new_id(s) for s in grammar.start]
    cb = _write_coded(w, start, sigma + n_rules)
    stream = w.freeze()
    payload = stream.length_bits - delta_bits - cb.serialized_bits
    rhs_full = len(grammar.start) + 2 * n_rules
    bound = (
        sequence_entropy_bits(grammar.start)
        + n_rules * math.log2(max(2, sigma + n_rules))
        + _delta_budget(sigma, n_rules)
        + _overhead_slack(rhs_full, sigma + n_rules, len(set(start)))
    )
    return stream, _breakdown(payload, cb.serialized_bits, delta_bits, bound)


def _read_incremental(r: BitReader, sigma, n_rules, start_len):
    width = symbol_width(sigma, n_rules)
    pairs = []
    prev = 0
    for _ in range(n_rules):
        prev = prev + _read_delta(r) - 1
        second = r.read_bits(width)
        pairs.append((prev, second))
    start = _read_coded(r, start_len)
    # rules arrive in permuted order; rebuild a topologically ordered grammar
    limit = sigma + n_rules
    if any(s >= limit for s in start) or any(s >= limit for pr in pairs for s in pr):
        raise MalformedStreamError("symbol id out of range")
    try:
        return renumber_segments(sigma, [start, *pairs])
    except ValueError as e:
        raise MalformedStreamError("decoded grammar is not acyclic") from e


# -- container -------------------------------------------------------------------------


_ENCODE = {
    "fully_naive": encode_fully_naive,
    "naive": encode_naive,
    "entropy": encode_entropy,
    "incremental": encode_incremental,
}
# the rule section of each encoding: reader, sigma, |G|, |S'| -> (start, rules)
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
    start, rules = read(r, sigma, n_rules, start_len)
    if r.remaining() >= 8:
        raise MalformedStreamError("trailing data after grammar payload")
    try:
        return FullGrammar(sigma, start, rules)
    except ValueError as e:
        raise MalformedStreamError(f"decoded grammar is invalid: {e}") from e


def frame_container(grammar: FullGrammar, encoding: str, stream: BitStream) -> bytes:
    """The GCB1 container of ``stream``, an ``encoding`` of ``grammar``."""
    out = bytearray(MAGIC)
    out.append(_TAGS[encoding])
    out += uvarint_bytes(grammar.sigma)
    out += uvarint_bytes(len(grammar.rules))
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
