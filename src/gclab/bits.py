"""Bit-exact streams, the one field packer, array field readers and varints.

Bit order is most-significant-first within each byte.  Varints are
little-endian LEB128: 7 payload bits per byte, high bit set on every byte
except the last, at most 10 bytes.

Writers collect fields as arrays of (value, width); ``BitWriter.freeze``
packs all of them with one numpy pass (``_pack``).  A field wider than 63
bits is first split into 32-bit limbs, so the packer only sees fields that
fit a 64-bit word.  Readers gather fixed-width fields at arrays of bit
positions from one array of 64-bit windows, one window per byte offset, and
return arrays: uint64, or Python ints (object) for fields or varints past
64 bits.  The same windows, as a memoryview of ints (``BitReader.words``),
serve the coders' loops over records whose positions depend on the record
before (unary rule lengths among symbols, Elias delta codes): one index, a
mask and ``int.bit_length`` find the next zero or one bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

# widest field one 64-bit window yields at any bit offset (64 - 7)
WINDOW_BITS = 57
_POW2 = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
_SHIFTS8 = np.arange(8, dtype=np.uint64)
_SCAN_BITS = 1 << 18  # positions per block when a reader scans every bit position
_ONES64 = (1 << 64) - 1


class MalformedStreamError(ValueError):
    """Raised when a decoder runs off the end of a stream or sees junk."""


@dataclass(frozen=True)
class BitStream:
    """A packed bit sequence with an exact bit count."""

    data: bytes
    length_bits: int

    def __post_init__(self):
        if self.length_bits < 0 or len(self.data) != (self.length_bits + 7) // 8:
            raise ValueError("inconsistent bit stream")

    def __len__(self):
        return self.length_bits

    def to01(self) -> str:
        n = self.length_bits
        return format(int.from_bytes(self.data, "big"), f"0{8 * len(self.data)}b")[:n]


def _bit_length(values: np.ndarray) -> np.ndarray:
    """Exact bit lengths (0 for 0), as int64, of uint64 values or of the
    Python ints of an object array."""
    if values.dtype == object:
        return np.array([int(v).bit_length() for v in values.tolist()], dtype=np.int64)
    return np.searchsorted(_POW2, values, side="right")


def _fields(values, widths) -> tuple[np.ndarray, np.ndarray]:
    """Fields as (uint64 values, int64 widths), every width at most 63.

    ``widths`` is one width for all values or one per value.  A wider field
    becomes ceil(width / 32) limbs, most significant first: the first limb
    holds the width's remainder, the others 32 bits each.
    """
    n = len(values)
    widths = np.broadcast_to(np.asarray(widths, dtype=np.int64), (n,))
    if n and widths.min() < 0:
        raise ValueError("negative field width")
    if not n or widths.max() <= 63:
        try:
            v = np.asarray(values, dtype=np.uint64)
        except OverflowError:
            raise ValueError("field value is negative or wider than 64 bits") from None
        if (v >> widths.astype(np.uint64)).any():
            raise ValueError("field value does not fit its width")
        return v, widths
    vals: list[int] = []
    wids: list[int] = []
    for value, width in zip(values, widths.tolist()):
        value = int(value)
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        if width <= 63:
            vals.append(value)
            wids.append(width)
            continue
        k = (width + 31) // 32
        vals.extend(struct.unpack(f">{k}I", value.to_bytes(4 * k, "big")))
        wids.append(width - 32 * (k - 1))
        wids.extend([32] * (k - 1))
    return np.array(vals, dtype=np.uint64), np.array(wids, dtype=np.int64)


def _pack(values: np.ndarray, widths: np.ndarray) -> tuple[bytes, int]:
    """Pack fields of at most 63 bits MSB-first; returns (bytes, bit count).

    Each field lands in the 64-bit word holding its first bit and, when it
    crosses a word boundary, spills its low bits into the next word.  The
    fields are in stream order, so the parts of one word are adjacent and
    one OR-reduction per word assembles it.
    """
    if not len(widths):
        return b"", 0
    ends = np.cumsum(widths)
    nbits = int(ends[-1])
    starts = ends - widths
    word = starts >> 6
    lshift = 64 - (starts & 63) - widths          # < 0: the field crosses into word + 1
    cross = lshift < 0
    parts = np.empty(2 * len(widths), dtype=np.uint64)
    parts[0::2] = np.where(cross, values >> np.maximum(-lshift, 0).astype(np.uint64),
                           values << np.clip(lshift, 0, 63).astype(np.uint64))
    parts[1::2] = np.where(cross, values << np.clip(64 + lshift, 0, 63).astype(np.uint64), 0)
    words = np.empty(2 * len(widths), dtype=np.int64)
    words[0::2] = word
    words[1::2] = word + cross
    firsts = np.flatnonzero(np.diff(words, prepend=-1))
    packed = np.bitwise_or.reduceat(parts, firsts)
    return packed.astype(">u8").tobytes()[: (nbits + 7) >> 3], nbits


class BitWriter:
    """Collects fields in stream order; ``freeze`` packs them all at once."""

    def __init__(self):
        self._values: list[np.ndarray] = []
        self._widths: list[np.ndarray] = []

    def write_fields(self, values, widths):
        """Append one field per value, in ``widths`` bits (one or per value)."""
        v, w = _fields(values, widths)
        self._values.append(v)
        self._widths.append(w)

    def write_bits(self, value: int, width: int):
        """Write ``value`` in ``width`` bits, most significant bit first."""
        self.write_fields((value,), width)

    def write_unaries(self, lengths):
        """One unary field per length m >= 1: (m - 1) one-bits then a zero."""
        lengths = [int(m) for m in lengths]
        if any(m < 1 for m in lengths):
            raise ValueError("unary code defined for m >= 1")
        self.write_fields([(1 << m) - 2 for m in lengths], lengths)

    def write_bytes(self, data: bytes):
        """Splice whole bytes into the stream (no alignment padding), as
        56-bit fields of 7 bytes each and a shorter last field."""
        pad = -len(data) % 7
        rows = np.zeros(((len(data) + pad) // 7, 8), dtype=np.uint8)
        rows[:, 1:] = np.frombuffer(data + bytes(pad), dtype=np.uint8).reshape(-1, 7)
        values = rows.view(">u8").ravel().astype(np.uint64)
        widths = np.full(len(values), 56, dtype=np.int64)
        if pad:
            values[-1] >>= np.uint64(8 * pad)
            widths[-1] -= 8 * pad
        self.write_fields(values, widths)

    def freeze(self) -> BitStream:
        if not self._values:
            return BitStream(b"", 0)
        data, nbits = _pack(np.concatenate(self._values), np.concatenate(self._widths))
        return BitStream(data, nbits)


class BitReader:
    """Reads fields of a BitStream at absolute bit positions, many at once.

    ``pos`` is a cursor that the ``read_*`` methods advance.  Every checked
    read raises MalformedStreamError for a field that would end past the
    stream.
    """

    def __init__(self, stream: BitStream):
        self.length_bits = stream.length_bits
        self.pos = 0
        self._bytes = np.frombuffer(stream.data + bytes(8), dtype=np.uint8)
        # _win[i]: the 64 bits from byte i on, bits past the data reading 0
        self._win = np.ndarray((len(stream.data) + 1,), ">u8", self._bytes, 0, (1,)).astype(np.uint64)
        # words[i]: _win[i] as an int; the word at byte p >> 3 holds bit p and
        # the 56 to 63 bits after it
        self.words = memoryview(self._win)

    def remaining(self) -> int:
        return self.length_bits - self.pos

    def require(self, end: int):
        """Raise unless bit position ``end`` is within the stream."""
        if end > self.length_bits:
            raise MalformedStreamError("bit stream exhausted")

    def peek(self, p: int, width: int) -> int:
        """``width`` <= WINDOW_BITS bits at position ``p``, unchecked."""
        return ((self.words[p >> 3] << (p & 7)) & _ONES64) >> (64 - width)

    def windows(self, pos: np.ndarray, width: int) -> np.ndarray:
        """``width`` <= WINDOW_BITS bits at each position, unchecked."""
        pos = np.asarray(pos, dtype=np.int64)
        win = self._win[pos >> 3] << (pos & 7).astype(np.uint64)
        return win >> np.uint64(64 - width) if width else np.zeros(len(pos), np.uint64)

    def scan(self, start: int, end: int, width: int):
        """``width`` <= WINDOW_BITS bits at every position start..end-1,
        unchecked, as arrays of at most _SCAN_BITS consecutive positions."""
        for a in range(start, end, _SCAN_BITS):
            b = min(a + _SCAN_BITS, end)
            first = a >> 3
            rows = self._win[first:(b + 7) >> 3, None] << _SHIFTS8
            yield (rows >> np.uint64(64 - width)).ravel()[a - 8 * first:b - 8 * first]

    def fields(self, pos, width: int) -> np.ndarray:
        """Fields of ``width`` bits at each position: uint64, or Python ints
        (object) past 64 bits."""
        pos = np.asarray(pos, dtype=np.int64)
        dtype = np.uint64 if width <= 64 else object
        if not len(pos):
            return np.zeros(0, dtype=dtype)
        self.require(int(pos.max()) + width)
        if width <= WINDOW_BITS:
            return self.windows(pos, width)
        k = (width + 31) // 32
        top = width - 32 * (k - 1)
        out = self.windows(pos, top).astype(dtype)
        for i in range(k - 1):
            out = (out << 32) | self.windows(pos + top + 32 * i, 32).astype(dtype)
        return out

    def read_bits(self, width: int) -> int:
        self.require(self.pos + width)
        value = self.peek(self.pos, width) if width <= WINDOW_BITS else int(self.fields((self.pos,), width)[0])
        self.pos += width
        return value

    def read_fields(self, count: int, width: int) -> np.ndarray:
        """The next ``count`` fields of ``width`` >= 1 bits."""
        if count * width > self.remaining():
            raise MalformedStreamError(f"{count} fields of {width} bits cannot fit in {self.remaining()} bits")
        out = self.fields(self.pos + width * np.arange(count), width)
        self.pos += count * width
        return out

    def read_bit(self) -> int:
        return self.read_bits(1)

    def read_unaries(self, count: int) -> np.ndarray:
        """Lengths of ``count`` unary fields written back to back."""
        if count > self.remaining():
            raise MalformedStreamError(f"{count} unary fields cannot fit in {self.remaining()} bits")
        ends = [np.array([self.pos - 1])]
        found, start = 0, self.pos
        while found < count:
            if start >= self.length_bits:
                raise MalformedStreamError("bit stream exhausted")
            # about 8 bits per field still to find, at most one block
            stop = min(self.length_bits, start + min(_SCAN_BITS, 8 * (count - found) + 64))
            bits = np.unpackbits(self._bytes[start >> 3:(stop + 7) >> 3])[start & 7:stop - (start & ~7)]
            zeros = np.flatnonzero(bits == 0)[:count - found]
            ends.append(zeros + start)
            found += len(zeros)
            start = stop
        ends = np.concatenate(ends)
        self.pos = int(ends[-1]) + 1
        return np.diff(ends)

    def read_bytes(self, n: int) -> np.ndarray:
        """The next ``n`` whole bytes, at any bit offset, as uint8."""
        self.require(self.pos + 8 * n)
        out = self.windows(self.pos + 8 * np.arange(n), 8).astype(np.uint8)
        self.pos += 8 * n
        return out

    def read_uvarints(self, count: int) -> np.ndarray:
        """The next ``count`` varints, spliced in at any bit offset."""
        if count > self.remaining() >> 3:
            raise MalformedStreamError(f"{count} varints cannot fit in {self.remaining()} bits")
        n = min(10 * count, self.remaining() >> 3)
        values, used = uvarint_values(self.windows(self.pos + 8 * np.arange(n), 8).astype(np.uint8), count)
        self.pos += 8 * used
        return values


# -- varints -------------------------------------------------------------------


def uvarints(values) -> bytes:
    """LEB128 of each value, concatenated; ``values`` is an iterable of ints
    or an integer array.

    A value of 2^64 or more is first split into 56-bit limbs, least
    significant first; every limb but the last then takes exactly 8 bytes,
    all with the continuation bit.
    """
    more = None
    if isinstance(values, np.ndarray) and values.dtype != object:
        if values.dtype.kind == "i" and len(values) and values.min() < 0:
            raise ValueError("varint is unsigned")
        v = values.astype(np.uint64, copy=False)
    else:
        values = values.tolist() if isinstance(values, np.ndarray) else list(values)
        if values and min(values) < 0:
            raise ValueError("varint is unsigned")
        if values and max(values) >> 64:
            limbs, flags = [], []
            for v in values:
                while v >> 56:
                    limbs.append(v & ((1 << 56) - 1))
                    flags.append(True)
                    v >>= 56
                limbs.append(v)
                flags.append(False)
            values, more = limbs, np.array(flags)
        v = np.array(values, dtype=np.uint64)
    nbytes = np.maximum(1, (_bit_length(v) + 6) // 7)
    if more is not None:
        nbytes[more] = 8
    owner = np.repeat(np.arange(len(v)), nbytes)
    j = np.arange(len(owner)) - np.repeat(np.cumsum(nbytes) - nbytes, nbytes)
    out = (v[owner] >> (7 * j).astype(np.uint64)) & np.uint64(0x7F)
    cont = j < nbytes[owner] - 1
    if more is not None:
        cont |= more[owner]
    return (out | (cont.astype(np.uint64) << np.uint64(7))).astype(np.uint8).tobytes()


def uvarint_values(buf: np.ndarray, count: int | None = None) -> tuple[np.ndarray, int]:
    """The first ``count`` varints of a uint8 array (all of them if None).

    Returns (values, bytes consumed): uint64, or Python ints (object) once a
    value passes 64 bits; with ``count`` None the varints must fill ``buf``
    exactly.
    """
    ends = np.flatnonzero(buf < 0x80)
    if count is not None:
        ends = ends[:count]
    firsts = np.concatenate(([0], ends[:-1] + 1)) if len(ends) else ends
    sizes = ends - firsts + 1
    used = int(ends[-1]) + 1 if len(ends) else 0
    if (len(ends) and sizes.max() > 10) or (
        (count is None or len(ends) < count) and len(buf) - used >= 10
    ):
        raise MalformedStreamError("varint too long")
    if (count is None and used < len(buf)) or (count is not None and len(ends) < count):
        raise MalformedStreamError("truncated varint")
    if not len(ends):
        return np.zeros(0, dtype=np.uint64), 0
    body = buf[:used]
    shift = 7 * (np.arange(used) - np.repeat(firsts, sizes))
    groups = (body & 0x7F).astype(np.uint64) << shift.astype(np.uint64)
    values = np.bitwise_or.reduceat(groups, firsts)
    long = np.flatnonzero(sizes == 10)
    if len(long):  # up to 70 bits: exact in ints
        exact = [sum((b & 0x7F) << (7 * j) for j, b in enumerate(buf[firsts[i]:ends[i] + 1].tolist()))
                 for i in long.tolist()]
        if max(exact) >> 64:
            values = values.astype(object)
        values[long] = exact
    return values, used


def read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """Decode a varint at ``pos``; returns (value, next position)."""
    values, used = uvarint_values(np.frombuffer(data[pos:pos + 10], dtype=np.uint8), 1)
    return int(values[0]), pos + used


def uvarint_bytes(value: int) -> bytes:
    return uvarints((value,))
