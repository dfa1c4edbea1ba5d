"""Seeded mutation fuzzing of GCL1 files and GCB1 containers.

Every mutated file of the golden corpus must decode or raise
MalformedStreamError; any other exception, or a slow run, fails.
"""

import random
import time

from gclab import coders
from gclab.bits import MalformedStreamError, read_uvarint, uvarint_bytes
from gclab.grammar import from_binary, to_binary

MUTATIONS_PER_FILE = 30
TIME_LIMIT_S = 30.0


def header_varints(data: bytes) -> list[tuple[int, int]]:
    """(start, end) of each header varint: sigma and |G| of a GCL1 file;
    sigma, |G|, |S'| and the payload bit count of a GCB1 container."""
    pos, count = (4, 2) if data[:4] == b"GCL1" else (5, 4)
    spans = []
    for _ in range(count):
        _, end = read_uvarint(data, pos)
        spans.append((pos, end))
        pos = end
    return spans


def mutate(rng: random.Random, data: bytes) -> bytes:
    kind = rng.randrange(4)
    if kind == 0:  # flip one bit
        i = rng.randrange(len(data))
        return data[:i] + bytes([data[i] ^ (1 << rng.randrange(8))]) + data[i + 1 :]
    if kind == 1:  # cut the tail
        return data[: rng.randrange(len(data))]
    if kind == 2:  # insert one byte
        i = rng.randrange(len(data) + 1)
        return data[:i] + bytes([rng.randrange(256)]) + data[i:]
    # rewrite a header varint: off by one, or any value up to 64 bits
    start, end = rng.choice(header_varints(data))
    old, _ = read_uvarint(data, start)
    new = rng.choice([old + 1, max(0, old - 1), rng.getrandbits(rng.randrange(1, 65))])
    return data[:start] + uvarint_bytes(new) + data[end:]


def test_mutated_files_decode_or_raise_malformed(golden_grammars):
    rng = random.Random(2024)
    files = []
    for grammar in golden_grammars.values():
        files.append((from_binary, to_binary(grammar)))
        for enc in coders.ENCODINGS:
            if enc != "incremental" or grammar.is_cnf:
                files.append((coders.from_container, coders.to_container(grammar, enc)))
    outcomes = {"decoded": 0, "malformed": 0}
    t0 = time.perf_counter()
    for read, data in files:
        for _ in range(MUTATIONS_PER_FILE):
            try:
                read(mutate(rng, data))
                outcomes["decoded"] += 1
            except MalformedStreamError:
                outcomes["malformed"] += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < TIME_LIMIT_S, (elapsed, outcomes)
    assert outcomes["malformed"] > 0
