"""Bit-exact streams, readers/writers and byte-aligned varints.

Bit order is most-significant-first within each byte.  Varints are
little-endian LEB128: 7 payload bits per byte, high bit set on every byte
except the last.
"""

from __future__ import annotations

from dataclasses import dataclass


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
        return format(BitReader(self).read_bits(n), f"0{n}b") if n else ""


class BitWriter:
    """Accumulates bits MSB-first; single owner until frozen.

    Pending bits collect in an int and move to the byte buffer once 64 or
    more are pending; write_bits is the only packing path.
    """

    def __init__(self):
        self._buf = bytearray()
        self._acc = 0       # pending bits, the oldest most significant
        self._pending = 0   # number of pending bits
        self._nbits = 0

    def __len__(self):
        return self._nbits

    def write_bits(self, value: int, width: int):
        """Write ``value`` in ``width`` bits, most significant bit first."""
        if width < 0 or value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._acc = (self._acc << width) | value
        self._pending += width
        self._nbits += width
        if self._pending >= 64:
            keep = self._pending & 7
            self._buf += (self._acc >> keep).to_bytes(self._pending >> 3, "big")
            self._acc &= (1 << keep) - 1
            self._pending = keep

    def write_bit(self, b: int):
        self.write_bits(1 if b else 0, 1)

    def write_unary(self, m: int):
        """Unary code for m >= 1: (m - 1) one-bits then a zero; m bits total."""
        if m < 1:
            raise ValueError("unary code defined for m >= 1")
        self.write_bits((1 << m) - 2, m)

    def write_bytes(self, data: bytes):
        """Splice whole bytes into the stream (no alignment padding)."""
        self.write_bits(int.from_bytes(data, "big"), 8 * len(data))

    def freeze(self) -> BitStream:
        pad = -self._pending % 8
        tail = (self._acc << pad).to_bytes((self._pending + pad) >> 3, "big")
        return BitStream(bytes(self._buf) + tail, self._nbits)


_ONES64 = (1 << 64) - 1


class BitReader:
    """Sequential reader over a BitStream; raises on overrun.

    Each read converts only the bytes it covers, never the whole stream.
    """

    def __init__(self, stream: BitStream):
        self._data = stream.data
        self._nbits = stream.length_bits
        self.pos = 0

    def remaining(self) -> int:
        return self._nbits - self.pos

    def peek_bits(self, width: int) -> int:
        """The next ``width`` bits, not consumed; bits past the data read as 0."""
        first = self.pos >> 3
        last = (self.pos + width + 7) >> 3
        chunk = int.from_bytes(self._data[first:last].ljust(last - first, b"\0"), "big")
        return (chunk >> (8 * last - self.pos - width)) & ((1 << width) - 1)

    def skip(self, width: int):
        """Consume ``width`` bits, as after peek_bits."""
        if self.pos + width > self._nbits:
            raise MalformedStreamError("bit stream exhausted")
        self.pos += width

    def read_bits(self, width: int) -> int:
        if self.pos + width > self._nbits:
            raise MalformedStreamError("bit stream exhausted")
        value = self.peek_bits(width)
        self.pos += width
        return value

    def read_bit(self) -> int:
        return self.read_bits(1)

    def read_unary(self) -> int:
        m = 1
        while True:
            window = self.peek_bits(64)
            if window != _ONES64:
                ones = 64 - (window ^ _ONES64).bit_length()
                self.skip(ones + 1)
                return m + ones
            self.skip(64)
            m += 64

    def read_uvarint(self) -> int:
        """A varint written with write_bytes, at any bit offset."""
        # a varint has at most 10 bytes; zero padding past the end ends it,
        # and consuming it then overruns
        value, size = read_uvarint(self.peek_bits(80).to_bytes(10, "big"), 0)
        self.skip(8 * size)
        return value


def write_uvarint(out: bytearray, value: int):
    if value < 0:
        raise ValueError("varint is unsigned")
    while True:
        b = value & 0x7F
        value >>= 7
        if value:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """Decode a varint at ``pos``; returns (value, next position)."""
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise MalformedStreamError("truncated varint")
        b = data[pos]
        pos += 1
        value |= (b & 0x7F) << shift
        if not b & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise MalformedStreamError("varint too long")


def uvarint_bytes(value: int) -> bytes:
    out = bytearray()
    write_uvarint(out, value)
    return bytes(out)
