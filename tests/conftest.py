import math
import random

import pytest

from gclab.debruijn import GdBParams
from gclab.textcore import Text


def random_text(rng: random.Random, sigma: int, n: int) -> Text:
    return Text([rng.randrange(sigma) for _ in range(n)], sigma)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def gdb_grid(max_len):
    """Every generalized de Bruijn (k, l, p) with sigma <= 2^20 and word length
    <= max_len, the grid that criterion 7 certifies at 2^20."""
    grid = []
    for p in range(1, 11):
        if 4**p > 1 << 20:
            break
        for k in range(1, 11):
            for l in range(0, 40):
                if p * (2 * k + l + 1) > 62:
                    break
                params = GdBParams(k, l, p)
                if params.length > max_len:
                    break
                grid.append(params)
            if p * (2 * k + 1) > math.log2(max_len):
                break
    return grid


def block_copies(seed: int, copies: int, block: int, substitutions: int) -> Text:
    """Copies of one random byte block, each with a few random byte
    substitutions: the repetitive input of the benchmark's compress workload,
    in small."""
    rng = random.Random(seed)
    base = rng.randbytes(block)
    out = bytearray()
    for _ in range(copies):
        copy = bytearray(base)
        for _ in range(substitutions):
            copy[rng.randrange(block)] = rng.randrange(256)
        out += copy
    return Text.from_bytes(bytes(out))


def golden_corpus():
    """The pinned inputs of the golden digests and the container fuzz test."""
    from gclab.labcli import fixture_text

    for selector in ("example32", "example16", "worst:64", "random:4,2000,1"):
        yield selector, fixture_text(selector)
    yield "bytes:4096", Text.from_bytes(random.Random(256).randbytes(4096))
    yield "badgrammar:5", fixture_text("badgrammar:5")
    yield "blocks:8x512", block_copies(512, 8, 512, 2)


def large_corpus():
    """Inputs of the benchmark's compress sizes, pinned for Re-Pair alone: 2^15
    random bytes, whose entropy payload passes one scan block of the bit
    reader (2^18 bits), and 32 copies of a 4,096-byte block."""
    yield "bytes:32768", Text.from_bytes(random.Random(32768).randbytes(1 << 15))
    yield "blocks:32x4096", block_copies(4096, 32, 4096, 4)


@pytest.fixture(scope="session")
def large_repair_grammars():
    """{input: (text, Re-Pair grammar)} for large_corpus()."""
    from gclab.repair import repair_run

    return {name: (text, repair_run(text)[0]) for name, text in large_corpus()}


@pytest.fixture(scope="session")
def golden_grammars():
    """{(input, algorithm): grammar} for Re-Pair and Greedy on golden_corpus()."""
    from gclab.greedy import greedy_run
    from gclab.repair import repair_run

    return {
        (name, alg): run(text)[0]
        for name, text in golden_corpus()
        for alg, run in (("repair", repair_run), ("greedy", greedy_run))
    }
