import heapq
import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from gclab.bits import (
    WINDOW_BITS,
    BitReader,
    BitStream,
    BitWriter,
    MalformedStreamError,
    read_uvarint,
    uvarint_bytes,
    uvarints,
)
from gclab import coders
from gclab.coders import (
    CODEBOOK_DOMAIN_CAP,
    ENCODINGS,
    MAGIC,
    MAX_UNARY,
    Codebook,
    _delta_fields,
    _read_deltas,
    _read_incremental,
    _read_rules,
    build_codebook,
    decode,
    elias_delta_decode,
    elias_delta_encode,
    elias_delta_length,
    encode,
    encode_incremental,
    from_container,
    huffman_decode,
    huffman_encode,
    incremental_order,
    parse_codebook,
    sequence_entropy_bits,
    symbol_width,
    to_container,
)
from gclab.grammar import FullGrammar, canonicalized, renumber_segments


# -- oracles --------------------------------------------------------------------


def optimal_payload_oracle(freqs):
    """Exhaustive optimal prefix code: minimize sum c_i l_i under Kraft."""
    syms = sorted(freqs)
    best = None
    max_len = max(2 * len(syms), 2)
    for lengths in itertools.product(range(1, max_len + 1), repeat=len(syms)):
        if sum(2.0**-l for l in lengths) <= 1.0 + 1e-12:
            cost = sum(freqs[s] * l for s, l in zip(syms, lengths))
            best = cost if best is None else min(best, cost)
    return best


def delta_oracle(n):
    """Elias delta from the definition, as a 0/1 string."""
    nbits = n.bit_length()
    gamma = "0" * (nbits.bit_length() - 1) + format(nbits, "b")
    return gamma + format(n, "b")[1:]


def random_grammar(rng, cnf, max_rules=10):
    sigma = rng.randrange(1, 8)
    n_rules = rng.randrange(0, max_rules)
    rules = []
    for i in range(n_rules):
        ln = 2 if cnf else rng.randrange(1, 6)
        rules.append(tuple(rng.randrange(sigma + i) for _ in range(ln)))
    start = tuple(rng.randrange(sigma + n_rules) for _ in range(rng.randrange(1, 15)))
    return FullGrammar(sigma, start, rules)


# -- bit plumbing ------------------------------------------------------------------


def test_bitwriter_round_trip():
    w = BitWriter()
    w.write_bits(0b1011, 4)
    w.write_unaries((3,))
    w.write_bits(1, 1)
    s = w.freeze()
    assert s.to01() == "1011" + "110" + "1"
    r = BitReader(s)
    assert r.read_bits(4) == 0b1011
    assert r.read_unaries(1).tolist() == [3]
    assert r.read_bit() == 1
    with pytest.raises(MalformedStreamError):
        r.read_bit()


def leb128_oracle(v):
    out = bytearray()
    while True:
        b, v = v & 0x7F, v >> 7
        out.append(b | (0x80 if v else 0))
        if not v:
            return bytes(out)


def random_field_groups(rng):
    """Seeded groups of fields: (kind, payload) with kinds fixed, mixed,
    unary, delta, bytes and varint; the first group shifts the rest to a
    random bit offset."""
    shift = rng.randrange(1, 12)
    groups = [("fixed", ([rng.getrandbits(shift)], shift))]
    for _ in range(rng.randrange(4, 12)):
        kind = rng.choice(("fixed", "mixed", "unary", "delta", "bytes", "varint"))
        n = rng.randrange(1, 8)
        if kind == "fixed":
            w = rng.randrange(1, 71)
            # widths over 64 carry values of 2^64 and more
            payload = ([rng.getrandbits(w) | (rng.random() < 0.5) << (w - 1) for _ in range(n)], w)
        elif kind == "mixed":
            widths = [rng.randrange(1, 71) for _ in range(n)]
            payload = ([rng.getrandbits(w) for w in widths], widths)
        elif kind == "unary":
            payload = [rng.choice((1, 2, 3, rng.randrange(1, 64), rng.randrange(1, 5001))) for _ in range(n)]
        elif kind == "delta":
            payload = [rng.randrange(1, 1 << rng.randrange(1, 71)) for _ in range(n)]
        elif kind == "bytes":
            payload = bytes(rng.getrandbits(8) for _ in range(n))
        else:  # up to 2^70, 10-byte varints included
            payload = [rng.choice((rng.getrandbits(rng.randrange(1, 64)), rng.randrange(1 << 63, 1 << 70)))
                       for _ in range(n)]
        groups.append((kind, payload))
    return groups


def reference_bits(groups) -> str:
    """The groups as a 0/1 string, written field by field from the formats'
    definitions."""
    out = []
    for kind, payload in groups:
        if kind == "fixed":
            values, w = payload
            out += [format(v, f"0{w}b") for v in values]
        elif kind == "mixed":
            out += [format(v, f"0{w}b") for v, w in zip(*payload)]
        elif kind == "unary":
            out += ["1" * (m - 1) + "0" for m in payload]
        elif kind == "delta":
            out += [delta_oracle(n) for n in payload]
        else:
            data = payload if kind == "bytes" else b"".join(leb128_oracle(v) for v in payload)
            out += [format(b, "08b") for b in data]
    return "".join(out)


def test_packer_and_readers_match_reference(rng=random.Random(2026)):
    for trial in range(60):
        groups = random_field_groups(rng)
        w = BitWriter()
        for kind, payload in groups:
            if kind in ("fixed", "mixed"):
                w.write_fields(*payload)
            elif kind == "unary":
                w.write_unaries(payload)
            elif kind == "delta":
                for n in payload:
                    w.write_fields(*_delta_fields(n))
            elif kind == "bytes":
                w.write_bytes(payload)
            else:
                w.write_bytes(uvarints(payload))
        stream = w.freeze()
        bits = reference_bits(groups)
        padded = bits + "0" * (-len(bits) % 8)
        want = bytes(int(padded[i:i + 8], 2) for i in range(0, len(padded), 8))
        assert (stream.data, stream.length_bits) == (want, len(bits)), trial
        assert stream.to01() == bits

        r = BitReader(stream)
        for kind, payload in groups:
            at = r.pos
            if kind == "fixed":
                values, width = payload
                assert r.fields(at + width * np.arange(len(values)), width).tolist() == values
                got = r.read_fields(len(values), width).tolist() if trial % 2 else [r.read_bits(width) for _ in values]
                assert got == values
            elif kind == "mixed":
                assert [r.read_bits(w_) for w_ in payload[1]] == payload[0]
            elif kind == "unary":
                assert r.read_unaries(len(payload)).tolist() == payload
            elif kind == "delta":
                assert _read_deltas(r, len(payload), 0)[0] == payload
            elif kind == "bytes":
                assert r.read_bytes(len(payload)).tobytes() == payload
            else:
                assert r.read_uvarints(len(payload)).tolist() == payload
        assert r.remaining() == 0
        with pytest.raises(MalformedStreamError):
            r.read_bit()


def test_varint_of_eleven_bytes_is_too_long():
    eleven = bytes([0x80] * 10 + [0x01])
    assert read_uvarint(bytes([0xFF] * 9 + [0x7F]), 0) == ((1 << 70) - 1, 10)
    with pytest.raises(MalformedStreamError, match="too long"):
        read_uvarint(eleven, 0)
    w = BitWriter()
    w.write_bits(5, 3)
    w.write_bytes(eleven)
    r = BitReader(w.freeze())
    r.read_bits(3)
    with pytest.raises(MalformedStreamError, match="too long"):
        r.read_uvarints(1)



def test_write_bytes_splices_bytes_at_every_bit_offset():
    # write_bytes packs 7 bytes per field; the bits must read as the bytes
    # spliced one by one, after any number of leading bits
    rng = random.Random(7)
    for lead in range(8):
        for size in (0, 1, 6, 7, 8, 13, 14, 15, 50):
            data = bytes(rng.randrange(256) for _ in range(size))
            w = BitWriter()
            w.write_bits((1 << lead) - 1, lead)
            w.write_bytes(data)
            w.write_bits(5, 3)
            spliced = "1" * lead + "".join(format(b, "08b") for b in data) + "101"
            assert w.freeze().to01() == spliced, (lead, size)


def test_write_bytes_memory_per_byte():
    # one 8-bit field per byte peaked at 121 B per byte written
    data = bytes(range(256)) * 4096
    tracemalloc.start()
    try:
        w = BitWriter()
        w.write_bytes(data)
        stream = w.freeze()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stream.data == data
    assert peak < 40 * len(data), peak / len(data)

# -- Huffman -----------------------------------------------------------------------


def test_huffman_degenerate_single_symbol():
    stream, cb, br = huffman_encode([7] * 4, domain=8)
    assert br.payload_bits == 4
    assert huffman_decode(stream, cb, 4) == [7] * 4


def test_huffman_optimal_small():
    stream, cb, br = huffman_encode([0, 0, 1, 2])
    assert br.payload_bits == 6
    assert optimal_payload_oracle({0: 2, 1: 1, 2: 1}) == 6


def test_huffman_matches_exhaustive_oracle(rng=random.Random(5)):
    for _ in range(25):
        n_sym = rng.randrange(1, 5)
        seq = [rng.randrange(n_sym) for _ in range(rng.randrange(1, 14))]
        freqs = {}
        for s in seq:
            freqs[s] = freqs.get(s, 0) + 1
        _, cb, br = huffman_encode(seq)
        want = optimal_payload_oracle(freqs)
        if len(freqs) == 1:
            want = len(seq)  # degenerate code still spends one bit per symbol
        assert br.payload_bits == want


def test_huffman_sandwich(rng=random.Random(6)):
    for _ in range(40):
        sigma = rng.choice([2, 4, 30])
        seq = [rng.randrange(sigma) for _ in range(rng.randrange(1, 300))]
        _, cb, br = huffman_encode(seq)
        h0 = sequence_entropy_bits(seq)
        assert h0 - 1e-9 <= br.payload_bits <= h0 + len(seq) + 1e-9
        assert cb.kraft_sum() <= 1.0 + 1e-12


def test_huffman_canonical_codes_are_prefix_free():
    _, cb, _ = huffman_encode([0, 1, 1, 2, 2, 2, 3, 3, 3, 3])
    codes = {format(cb.codes[s], f"0{cb.lengths[s]}b") for s in cb.lengths}
    for a in codes:
        for b in codes:
            if a != b:
                assert not b.startswith(a)


def test_huffman_decode_round_trip(rng=random.Random(7)):
    for _ in range(20):
        seq = [rng.randrange(6) for _ in range(rng.randrange(1, 120))]
        stream, cb, _ = huffman_encode(seq)
        assert huffman_decode(stream, cb, len(seq)) == seq


def heap_code_lengths(freqs):
    """Huffman code lengths from a heap of (frequency, node id) keys: leaves
    take ids in symbol order, merged nodes the next ids as they are made."""
    syms = sorted(freqs)
    if len(syms) == 1:
        return {syms[0]: 1}
    heap = [(freqs[s], i) for i, s in enumerate(syms)]
    heapq.heapify(heap)
    parent = {}
    node = len(syms)
    while len(heap) > 1:
        fa, a = heapq.heappop(heap)
        fb, b = heapq.heappop(heap)
        parent[a] = parent[b] = node
        heapq.heappush(heap, (fa + fb, node))
        node += 1

    def depth(i):
        return 0 if i == node - 1 else 1 + depth(parent[i])

    return {s: depth(i) for i, s in enumerate(syms)}


def test_code_lengths_match_heap_construction(rng=random.Random(15)):
    # tables full of ties, where the order of merging decides the lengths
    fib = [1, 1]
    while len(fib) < 24:
        fib.append(fib[-1] + fib[-2])
    tables = [
        [1] * 1000,
        [5] * 7,
        [1 << i for i in range(15)],
        [1 << (i // 3) for i in range(30)],
        fib,
        fib[::-1],
        [f for f in fib for _ in range(2)],
        [1, 1, 2, 2, 4, 4, 8, 8, 3, 3, 6],
    ]
    tables += [[rng.choice((1, 2, 3, 4, 8)) for _ in range(rng.randrange(2, 60))] for _ in range(40)]
    for counts in tables:
        syms = rng.sample(range(3 * len(counts)), len(counts))
        seq = [s for s, c in zip(syms, counts) for _ in range(c)]
        rng.shuffle(seq)
        want = heap_code_lengths(dict(zip(syms, counts)))
        assert build_codebook(seq, 3 * len(counts)).lengths == want, counts


def crafted_codebook(lengths) -> BitReader:
    """A reader over a codebook serialization giving symbol i length lengths[i]."""
    domain = len(lengths)
    bitmap = bytes([0xFF] * (domain // 8) + ([(0xFF00 >> (domain % 8)) & 0xFF] if domain % 8 else []))
    w = BitWriter()
    w.write_bytes(uvarint_bytes(domain) + bitmap + uvarints(lengths))
    return BitReader(w.freeze())


def test_codebook_rejects_kraft_sum_over_one():
    with pytest.raises(MalformedStreamError, match="Kraft"):
        parse_codebook(crafted_codebook([1, 1, 2]))


def test_codebook_depth_capped_at_57():
    # depths 1..56 and two of 57 make a complete code over 58 symbols
    cb = parse_codebook(crafted_codebook(list(range(1, 57)) + [57, 57]))
    w = BitWriter()
    for sym in (57, 0, 56, 57):
        w.write_bits(cb.codes[sym], cb.lengths[sym])
    assert huffman_decode(w.freeze(), cb, 4) == [57, 0, 56, 57]
    # one level deeper: 59 symbols allow depth 58 by the m - 1 rule
    with pytest.raises(MalformedStreamError, match="outside 1..57"):
        parse_codebook(crafted_codebook(list(range(1, 58)) + [58, 58]))


def searchsorted_huffman(reader, codebook, count):
    """The Huffman decoder with one ``searchsorted`` of the L-bit window at
    every bit position over the code-length limits, L the longest length."""
    if count > reader.remaining():
        raise MalformedStreamError(f"{count} symbols cannot fit in {reader.remaining()} bits")
    if not count:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(codebook.code_lengths, kind="stable")
    syms = codebook.symbols[order]
    length, base, n = np.unique(codebook.code_lengths[order], return_index=True, return_counts=True)
    first = codebook.code_words[order][base].astype(np.int64)
    top = int(length[-1])
    if top > WINDOW_BITS:
        raise MalformedStreamError(f"code length {top} over {WINDOW_BITS}")
    limits = ((first + n) << (top - length)).astype(np.uint64)
    step = np.append(length, 0).astype(np.uint8)
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
    window = reader.windows(np.fromiter(at, np.int64, count) + start, top)
    row = np.searchsorted(limits, window, "right")
    if (row == len(length)).any():
        raise MalformedStreamError("invalid Huffman code")
    reader.pos = start + p
    code = (window >> (top - length[row]).astype(np.uint64)).astype(np.int64)
    return syms[base[row] + code - first[row]]


def huffman_outcome(decoder, stream, codebook, count, lead):
    """The symbols a decoder reads from bit ``lead`` on and the reader's
    position after them, or the message of the MalformedStreamError."""
    reader = BitReader(stream)
    reader.pos = lead
    try:
        out = decoder(reader, codebook, count)
    except MalformedStreamError as e:
        return "error", str(e)
    return out.tolist(), reader.pos


def test_huffman_decoder_matches_per_position_reference(rng=random.Random(19)):
    fib = [1, 1]
    while len(fib) < 60:
        fib.append(fib[-1] + fib[-2])
    codebooks = [
        # longest code past the prefix table: Fibonacci counts
        build_codebook(np.repeat(np.arange(16), fib[:16]), 16),
        build_codebook(np.repeat(np.arange(24), fib[:24]), 30),
        parse_codebook(crafted_codebook(list(range(1, 57)) + [57, 57])),
        parse_codebook(crafted_codebook(list(range(1, 40)) + [40, 40])),
        # one code length
        build_codebook([0, 1, 2, 3], 4),
        parse_codebook(crafted_codebook([3] * 8)),
        build_codebook([5], 7),
        # windows past the last limit: the codes do not fill the code space
        parse_codebook(crafted_codebook([2, 2, 2])),
        parse_codebook(crafted_codebook([1] + [13] * 9 + [16] * 7)),
        # the benchmark's kind: a byte file's symbols and rules, lengths 4 to 16
        build_codebook([rng.randrange(1 << rng.randrange(1, 13)) for _ in range(5000)], 4096),
    ]
    for cb in codebooks:
        assert cb.symbols.tolist() == sorted(cb.lengths)
        syms = cb.symbols.tolist()
        # coded streams, read from a few offsets, with counts short and long
        seq = [rng.choice(syms) for _ in range(400)]
        w = BitWriter()
        w.write_bits(rng.getrandbits(7), 7)
        w.write_fields(*coders._huffman_fields(seq, cb))
        w.write_bits(rng.getrandbits(9), 9)
        coded = w.freeze()
        # random bits: past-the-limit windows wherever the code is incomplete
        noise = BitStream(rng.randbytes(300), 2400)
        for stream, lead, count in ((coded, 7, 400), (coded, 7, 401), (coded, 7, 399), (coded, 0, 400),
                                    (coded, 3, 50), (noise, 0, 200), (noise, 5, 2395), (noise, 1, 0)):
            want = huffman_outcome(searchsorted_huffman, stream, cb, count, lead)
            assert huffman_outcome(coders._read_huffman, stream, cb, count, lead) == want, (cb.lengths, lead, count)
        assert huffman_outcome(coders._read_huffman, coded, cb, 400, 7) == (seq, coded.length_bits - 9)
    # every truncation of a short stream, deep codes crossing byte and window bounds
    cb = codebooks[2]
    seq = [57, 0, 56, 3, 57, 12, 1, 55, 0]
    w = BitWriter()
    w.write_bits(5, 3)
    w.write_fields(*coders._huffman_fields(seq, cb))
    stream = w.freeze()
    for cut in list(truncations(stream))[3:]:
        for count in (len(seq) - 1, len(seq)):
            want = huffman_outcome(searchsorted_huffman, cut, cb, count, 3)
            assert huffman_outcome(coders._read_huffman, cut, cb, count, 3) == want, (len(cut), count)


# -- Elias delta --------------------------------------------------------------------


def test_delta_examples():
    assert elias_delta_encode(1).to01() == "1"
    assert elias_delta_encode(2).to01() == "0100"
    assert elias_delta_encode(17).to01() == "001010001"
    with pytest.raises(ValueError):
        elias_delta_encode(0)


def test_delta_matches_definition_oracle():
    for n in list(range(1, 2049)) + [2**15, 2**16 + 1, 2**20]:
        s = elias_delta_encode(n)
        assert s.to01() == delta_oracle(n)
        assert elias_delta_decode(s) == n
        assert elias_delta_length(n) == len(s)


def test_delta_corrected_length_bound_exhaustive():
    # |delta(n)| <= log n + 2 log(1 + log n) + 1, tight at n = 2, 8, 128, ...
    for n in range(1, 1 << 20):
        nbits = n.bit_length()
        ln = nbits + 2 * (nbits.bit_length() - 1)
        bound = math.log2(n) + 2 * math.log2(1 + math.log2(n)) + 1 if n > 1 else 1
        assert ln <= bound + 1e-9, n


@pytest.mark.xfail(
    strict=True,
    reason="the often-quoted form log n + 2 log log(1+n) + 1 is falsified by "
    "the standard delta code at n = 2 (4 > 3.33), 8, 9, 10, 128, ...; the "
    "tight form log n + 2 log(1+log n) + 1 is asserted above",
)
def test_delta_often_quoted_bound():
    for n in range(1, 1 << 12):
        assert elias_delta_length(n) <= math.log2(n) + 2 * math.log2(
            math.log2(1 + n)
        ) + 1 + 1e-9, n


def test_delta_truncated_stream():
    s = elias_delta_encode(17)
    cut = BitStream(s.data[:1], 5)
    with pytest.raises(MalformedStreamError):
        elias_delta_decode(cut)


def test_delta_bit_length_past_the_stream_is_refused_before_allocating():
    # 40 zeros and a one announce a code of about 2^40 bits in a 13-byte
    # stream: building its top bit alone would take 128 GB
    bits = "0" * 40 + "1" + "0" * 59
    stream = BitStream(int(bits, 2).to_bytes(13, "big"), 100)
    t0 = time.perf_counter()
    with pytest.raises(MalformedStreamError, match="exhausted"):
        elias_delta_decode(stream)
    with pytest.raises(MalformedStreamError, match="exhausted"):
        decode("incremental", stream, 2, 1, 1)
    assert time.perf_counter() - t0 < 1.0


# -- section readers against per-record references -----------------------------------


def rules_oracle(bits, pos, n_rules, width):
    """Rule by rule on the stream's 0/1 string: each rule's unary length, its
    symbols in ``width`` bits; returns (symbols, lengths, end position)."""
    if n_rules * (1 + width) > len(bits) - pos:
        raise MalformedStreamError(f"{n_rules} rules cannot fit in {len(bits) - pos} bits")
    symbols, lengths = [], []
    for _ in range(n_rules):
        zero = bits.find("0", pos)
        if zero < 0:
            raise MalformedStreamError("bit stream exhausted")
        n = zero + 1 - pos
        pos = zero + 1 + n * width
        if pos > len(bits):
            raise MalformedStreamError("bit stream exhausted")
        symbols += [int(bits[a:a + width], 2) for a in range(zero + 1, pos, width)]
        lengths.append(n)
    return symbols, lengths, pos


def delta_code_oracle(bits, pos):
    """One Elias delta code at ``pos`` of the 0/1 string: (value, end)."""
    one = bits.find("1", pos)
    if one < 0:
        raise MalformedStreamError("bit stream exhausted")
    zeros = one - pos
    if zeros >= WINDOW_BITS:
        raise MalformedStreamError("bad Elias delta prefix")
    mid = one + zeros + 1
    if mid > len(bits):
        raise MalformedStreamError("bit stream exhausted")
    end = mid + int(bits[one:mid], 2) - 1
    if end > len(bits):
        raise MalformedStreamError("bit stream exhausted")
    return int("1" + bits[mid:end], 2), end


def incremental_oracle(stream, sigma, n_rules, start_len):
    """The incremental decoder with its delta section read code by code on
    the stream's 0/1 string; the rest as the library reads it."""
    bits = stream.to01()
    width = symbol_width(sigma, n_rules)
    if n_rules * (1 + width) > len(bits):
        raise MalformedStreamError(f"{n_rules} rules cannot fit in {len(bits)} bits")
    firsts, seconds, pos, prev = [], [], 0, 0
    for _ in range(n_rules):
        if pos >= len(bits):
            raise MalformedStreamError("bit stream exhausted")
        value, pos = delta_code_oracle(bits, pos)
        prev += value - 1
        firsts.append(prev)
        seconds.append(int(bits[pos:pos + width] or "0", 2))
        pos += width
    if pos > len(bits):
        raise MalformedStreamError("bit stream exhausted")
    r = BitReader(stream)
    r.pos = pos
    start = [int(s) for s in coders._read_coded(r, start_len)]
    limit = sigma + n_rules
    if any(s >= limit for s in firsts + seconds + start):
        raise MalformedStreamError("symbol id out of range")
    flat = start + [s for pair in zip(firsts, seconds) for s in pair]
    try:
        ids, ends = renumber_segments(sigma, flat, start_len + 2 * np.arange(n_rules + 1))
    except ValueError as e:
        raise MalformedStreamError("decoded grammar is not acyclic") from e
    return ids.tolist(), ends.tolist(), r.pos


def outcome(fn, *args):
    """fn's result, or the type and message of the MalformedStreamError it raises."""
    try:
        return fn(*args)
    except MalformedStreamError as e:
        return "error", str(e)


def library_rules(stream, lead, n_rules, width):
    r = BitReader(stream)
    r.pos = lead
    symbols, lengths = _read_rules(r, n_rules, width)
    return [int(s) for s in symbols], [int(n) for n in lengths], r.pos


def library_incremental(stream, sigma, n_rules, start_len):
    r = BitReader(stream)
    ids, ends = _read_incremental(r, sigma, n_rules, start_len)
    return [int(s) for s in ids], [int(e) for e in ends], r.pos


def truncations(stream):
    """Every prefix of the stream, the bits past its end left as they were
    in the byte that holds them."""
    for n in range(stream.length_bits + 1):
        yield BitStream(stream.data[:(n + 7) // 8], n)


def rules_stream(lead, lengths, width, rng):
    w = BitWriter()
    w.write_bits(rng.getrandbits(lead), lead)
    for m in lengths:
        w.write_unaries([m])
        w.write_fields([rng.getrandbits(width) for _ in range(m)], width)
    w.write_bits(5, 3)
    return w.freeze()


def test_rule_lengths_match_per_rule_reference(rng=random.Random(16)):
    # unary runs ending inside, at and past one 57-bit window
    cases = [(lead, [1, 56, 57, 58, 2, 1], width) for lead in range(8) for width in (1, 3, 11)]
    cases += [(5, [3, 1, 2], 65), (3, [MAX_UNARY, 1], 1), (0, [2, MAX_UNARY], 2)]
    for lead, lengths, width in cases:
        stream = rules_stream(lead, lengths, width, rng)
        bits = stream.to01()
        want = rules_oracle(bits, lead, len(lengths), width)
        assert want[1] == lengths
        assert library_rules(stream, lead, len(lengths), width) == want, (lead, lengths, width)
    # every truncation of a short stream: the same values or the same error
    stream = rules_stream(3, [1, 56, 57, 58, 2], 2, rng)
    for cut in truncations(stream):
        for n_rules in (4, 5):
            want = outcome(rules_oracle, cut.to01(), 3, n_rules, 2)
            assert outcome(library_rules, cut, 3, n_rules, 2) == want, (len(cut), n_rules)


def incremental_stream(sigma, gaps, seconds, start):
    """An incremental payload: each rule's first component as the delta code
    of its gap + 1, its second in fixed width, then S' Huffman-coded."""
    n_rules = len(gaps)
    width = symbol_width(sigma, n_rules)
    w = BitWriter()
    for gap, second in zip(gaps, seconds):
        values, widths = _delta_fields(gap + 1)
        w.write_fields([*values, second], [*widths, width])
    w.write_bytes(build_codebook(start, max(start) + 1).serialized)
    w.write_fields(*coders._huffman_fields(start, build_codebook(start, max(start) + 1)))
    return w.freeze()


def test_delta_section_matches_per_code_reference(rng=random.Random(17)):
    big = 2**64 + 3
    # gaps + 1 of every bit length from 1 to 64, then past 2^64; the ids run
    # past int64 and the second components take 65 bits
    streams = []
    for _ in range(3):
        gaps = [rng.randrange(1 << (k - 1), 1 << k) - 1 for k in range(1, 65)]
        rng.shuffle(gaps)
        streams.append((big, gaps))
    streams.append((big, [2**64, 0, 1, 1]))
    streams.append((big, [2**64 + 2, 5]))  # the second first component is out of range
    for sigma, gaps in streams:
        seconds = [rng.randrange(sigma) for _ in gaps]
        stream = incremental_stream(sigma, gaps, seconds, [0, 1, 1])
        want = outcome(incremental_oracle, stream, sigma, len(gaps), 3)
        assert (want[0] == "error") == (sum(gaps) >= sigma + len(gaps)), gaps
        assert outcome(library_incremental, stream, sigma, len(gaps), 3) == want
    # every truncation of a short stream, codes crossing window boundaries
    sigma, gaps = 1 << 45, [0, 6, (1 << 40) + 5, 1 << 20, 2, 0]
    stream = incremental_stream(sigma, gaps, [0, 3, 2, sigma - 1, 7, 1], [0, 2, 1, 1])
    for cut in truncations(stream):
        want = outcome(incremental_oracle, cut, sigma, len(gaps), 4)
        assert outcome(library_incremental, cut, sigma, len(gaps), 4) == want, len(cut)
    # a delta prefix of 57 or more zeros, inside the stream or not
    for zeros, tail in ((57, "1" + "0" * 200), (60, "1" * 120), (70, "")):
        bits = "0" * zeros + tail
        padded = bits + "0" * (-len(bits) % 8)
        stream = BitStream(bytes(int(padded[i:i + 8], 2) for i in range(0, len(padded), 8)), len(bits))
        want = outcome(incremental_oracle, stream, 3, 1, 1)
        assert want[0] == "error"
        assert outcome(library_incremental, stream, 3, 1, 1) == want, zeros


# -- the four encodings ----------------------------------------------------------------


def test_fully_naive_example():
    g = FullGrammar(2, (2, 2), [(0, 1)])
    stream, br = encode(g, "fully_naive")
    assert br.payload_bits == 8  # 4 symbols x width 2
    assert br.lengths_side_bits == 2  # unary(2)
    g2 = decode("fully_naive", stream, 2, 1, 2)
    assert g2 == g


@pytest.mark.parametrize("sigma", [2**53 + 1, 2**64 + 3])
def test_fully_naive_round_trip_beyond_float_precision(sigma):
    # the top id, sigma, needs one bit more than float log2(sigma + 1) says
    g = FullGrammar(sigma, (sigma, sigma - 1, 0, sigma), [(sigma - 1, 0)])
    assert symbol_width(sigma, 1) == sigma.bit_length()
    assert from_container(to_container(g, "fully_naive")) == (g, "fully_naive")


def test_symbol_width_small():
    widths = [symbol_width(sigma, n_rules) for sigma, n_rules in
              ((1, 0), (2, 0), (2, 1), (3, 1), (4, 1), (255, 1), (256, 1))]
    assert widths == [1, 1, 2, 2, 3, 8, 9]


def test_rule_free_grammar():
    g = FullGrammar(4, (0, 1, 2, 3), [])
    stream, br = encode(g, "fully_naive")
    assert br.payload_bits == 4 * 2
    stream, br = encode(g, "entropy")
    assert br.total_bits >= sequence_entropy_bits(g.start)


def test_all_encodings_round_trip_random(rng=random.Random(11)):
    for _ in range(120):
        cnf = rng.random() < 0.5
        g = random_grammar(rng, cnf)
        for enc in ENCODINGS:
            if enc == "incremental" and not g.is_cnf:
                with pytest.raises(ValueError):
                    encode(g, enc)
                continue
            data = to_container(g, enc)
            g2, enc2 = from_container(data)
            assert enc2 == enc
            if enc == "incremental":
                assert canonicalized(g2) == canonicalized(g)
            else:
                assert g2 == g
            assert g2.expand_start() == g.expand_start()


def test_encoding_totals_within_bounds(rng=random.Random(12)):
    for _ in range(100):
        cnf = rng.random() < 0.5
        g = random_grammar(rng, cnf)
        for enc in ENCODINGS:
            if enc == "incremental" and not cnf:
                continue
            _, br = encode(g, enc)
            assert br.total_bits == (
                br.payload_bits + br.dictionary_bits + br.lengths_side_bits
            )
            assert br.total_bits <= br.formula_bound_bits, (enc, br)


def test_incremental_order_non_decreasing(rng=random.Random(13)):
    for _ in range(60):
        g = random_grammar(rng, cnf=True)
        if not g.rules:
            continue
        order = incremental_order(g)
        rename = {g.sigma + old: g.sigma + new for new, old in enumerate(order)}
        firsts = [
            r[0] if r[0] < g.sigma else rename[r[0]]
            for r in (g.rules[o] for o in order)
        ]
        assert firsts == sorted(firsts)


def heap_incremental_order(g):
    """The incremental order from a heap of (key, rule index): a rule whose
    first component is a terminal waits under that terminal, any other rule
    under the position its first component is placed at, sigma onwards."""
    sigma = g.sigma
    waiting, heap = {}, []
    for j, rhs in enumerate(g.rules):
        if rhs[0] < sigma:
            heap.append((rhs[0], j))
        else:
            waiting.setdefault(rhs[0], []).append(j)
    heapq.heapify(heap)
    order = []
    while heap:
        _, j = heapq.heappop(heap)
        order.append(j)
        for u in waiting.pop(sigma + j, ()):
            heapq.heappush(heap, (sigma + len(order) - 1, u))
    assert len(order) == len(g.rules)
    return order


def test_incremental_order_matches_heap_reference(rng=random.Random(18)):
    from conftest import block_copies
    from gclab.repair import repair_run

    cases = []
    for _ in range(80):
        # few terminals and many rules: first components tie often
        sigma, n_rules = rng.randrange(1, 4), rng.randrange(1, 40)
        rules = [(rng.randrange(sigma + i), rng.randrange(sigma + i)) for i in range(n_rules)]
        cases.append(FullGrammar(sigma, (sigma + n_rules - 1,), rules))
    # every first component a terminal; a left comb, each rule after the last
    cases.append(FullGrammar(5, (6, 7), [(4, 0), (4, 1), (0, 5), (0, 0)]))
    cases.append(FullGrammar(2, (2 + 299,), [(0, 1)] + [(2 + i, i % 2) for i in range(299)]))
    # Re-Pair on block copies: long left combs over the copied block
    cases += [repair_run(block_copies(seed, 8, 256, 2))[0] for seed in (1, 2)]
    # ids past int64 (an object array) and just below 2^63
    huge = [FullGrammar(s, (s + 2,), [(s - 1, 0), (s, s - 1), (s + 1, s)]) for s in (2**64 + 3, 2**63 - 5)]
    for g in cases + huge:
        assert g.is_cnf
        assert incremental_order(g) == heap_incremental_order(g), g
    # their S' codebook domain is over the cap: the encoder refuses them
    for g in huge:
        with pytest.raises(ValueError, match=f"^codebook domain of {g.sigma + 3} symbols is over the cap"):
            encode_incremental(g)


def test_incremental_already_sorted_unchanged():
    # first components 0, 1 already non-decreasing: permutation is identity
    g = FullGrammar(2, (2, 3), [(0, 0), (1, 2)])
    assert incremental_order(g) == [0, 1]
    data = to_container(g, "incremental")
    g2, _ = from_container(data)
    assert g2 == g


def test_incremental_hand_trace():
    # {X -> ab}, S' = XX, sigma 2: delta(0+1) for first comp a, 2-bit id for b,
    # then the S' codebook and two 1-bit codes
    g = FullGrammar(2, (2, 2), [(0, 1)])
    stream, br = encode_incremental(g)
    assert br.lengths_side_bits == 1      # delta(1) = "1"
    assert br.payload_bits == 2 + 2       # one 2-bit second component + 2 Huffman bits
    g2 = decode("incremental", stream, 2, 1, 2)
    assert canonicalized(g2) == canonicalized(g)


def test_container_rejects_garbage():
    g = FullGrammar(2, (2, 2), [(0, 1)])
    data = to_container(g, "entropy")
    with pytest.raises(MalformedStreamError):
        from_container(b"XXXX" + data[4:])
    with pytest.raises(MalformedStreamError):
        from_container(data[:-1])
    with pytest.raises(MalformedStreamError):
        from_container(data[:4] + bytes([250]) + data[5:])


def test_decoded_grammar_errors_are_malformed():
    # sigma 3, no rules, one 2-bit start id 3: a well-formed payload whose
    # grammar is invalid
    with pytest.raises(MalformedStreamError, match="start references undefined id 3"):
        decode("fully_naive", BitStream(b"\xc0", 2), 3, 0, 1)


def test_unending_unary_rule_lengths_are_malformed():
    # entropy container, sigma 2, two rules, |S'| 1: eight payload bits, all
    # ones, so the first unary rule length never ends
    data = MAGIC + bytes([ENCODINGS.index("entropy")]) + uvarints([2, 2, 1, 8]) + b"\xff"
    with pytest.raises(MalformedStreamError, match="bit stream exhausted"):
        from_container(data)


def test_incremental_rule_cycle_is_malformed():
    # incremental container, sigma 2: rule 2 -> (2, 3) and rule 3 -> (3, 2),
    # a well-formed payload whose rules reference each other
    width = symbol_width(2, 2)
    w = BitWriter()
    prev = 0
    for first, second in ((2, 3), (3, 2)):
        values, widths = _delta_fields(first - prev + 1)
        w.write_fields([*values, second], [*widths, width])
        prev = first
    w.write_bytes(build_codebook([2], 4).serialized)
    w.write_fields([0], [1])
    stream = w.freeze()
    data = MAGIC + bytes([ENCODINGS.index("incremental")]) \
        + uvarints([2, 2, 1, stream.length_bits]) + stream.data
    with pytest.raises(MalformedStreamError, match="decoded grammar is not acyclic"):
        from_container(data)


def test_incremental_symbol_id_out_of_range_is_malformed():
    # sigma 2, one rule whose delta-coded first component is 5 (the id 4,
    # past sigma + |G| = 3), then a valid codebook and S'
    width = symbol_width(2, 1)
    w = BitWriter()
    values, widths = _delta_fields(5)
    w.write_fields([*values, 0], [*widths, width])
    w.write_bytes(build_codebook([0], 3).serialized)
    w.write_fields([0], [1])
    with pytest.raises(MalformedStreamError, match="^symbol id out of range$"):
        decode("incremental", w.freeze(), 2, 1, 1)


def test_incremental_without_rules_or_start_checks_sigma():
    # sigma 0, no rules and an empty S' after a valid codebook: no id is out
    # of range, and the grammar is refused for its sigma
    w = BitWriter()
    w.write_bytes(build_codebook([0], 1).serialized)
    with pytest.raises(MalformedStreamError, match="^decoded grammar is invalid: sigma must be >= 1$"):
        decode("incremental", w.freeze(), 0, 0, 0)


def test_truncated_payload_is_malformed():
    g = FullGrammar(3, tuple(range(3)) * 4, [(0, 1), (3, 2)])
    stream, _ = encode(g, "entropy")
    nbits = len(stream) // 2
    cut = BitStream(stream.data[: (nbits + 7) // 8], nbits)
    with pytest.raises((MalformedStreamError, ValueError)):
        decode("entropy", cut, 3, 2, 12)


@pytest.mark.parametrize("enc", ENCODINGS)
def test_declared_start_length_checked_before_allocating(enc):
    # sigma 2, no rules, |S'| = 2^40 over a 16-byte payload that opens with a
    # valid codebook
    payload = build_codebook([0, 1], 2).serialized.ljust(16, b"\0")
    header = MAGIC + bytes([ENCODINGS.index(enc)]) + uvarints([2, 0, 1 << 40, 8 * len(payload)])
    t0 = time.perf_counter()
    with pytest.raises(MalformedStreamError, match="cannot fit"):
        from_container(header + payload)
    assert time.perf_counter() - t0 < 1.0


def test_unary_length_cap():
    g = FullGrammar(2, (2,), [tuple([0] * ((1 << 20) + 1))])
    with pytest.raises(ValueError):
        encode(g, "fully_naive")


def test_codebook_domain_cap():
    # the presence bitmap grows with the domain, so a domain over the cap is
    # refused before anything is serialized (the CLI case is in test_fuzz)
    assert build_codebook([0, 1], CODEBOOK_DOMAIN_CAP).domain == CODEBOOK_DOMAIN_CAP
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="over the cap"):
        build_codebook([0, 1], CODEBOOK_DOMAIN_CAP + 1)
    assert time.perf_counter() - t0 < 1.0


def test_huffman_figures_match_a_standalone_code(golden_grammars):
    # each encoder reports (|Y|H0(Y), code bits, |Y|) of the sequence it
    # Huffman-codes; incremental codes S' renamed, which has the frequencies
    # and so the H0 and optimal code total of S' itself
    for g in golden_grammars.values():
        domain = g.sigma + len(g.rules)
        for enc, seq in (("naive", g.start), ("entropy", g.rhs_concat()), ("incremental", g.start)):
            if enc == "incremental" and not g.is_cnf:
                continue
            _, br = encode(g, enc)
            _, _, alone = huffman_encode(seq, domain)
            assert br.huffman == (sequence_entropy_bits(seq), alone.payload_bits, len(seq)), enc
        _, br = encode(g, "fully_naive")
        assert br.huffman is None


def test_compressor_outputs_round_trip(rng=random.Random(14)):
    from gclab.greedy import greedy_run
    from gclab.repair import repair_run
    from gclab.textcore import Text

    for _ in range(6):
        t = Text([rng.randrange(3) for _ in range(rng.randrange(16, 160))], 3)
        for g in (repair_run(t)[0], greedy_run(t)[0]):
            for enc in ENCODINGS:
                if enc == "incremental" and not g.is_cnf:
                    continue
                g2, _ = from_container(to_container(g, enc))
                assert g2.expand_start() == t.symbols
