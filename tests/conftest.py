import random

import pytest

from gclab.textcore import Text


def random_text(rng: random.Random, sigma: int, n: int) -> Text:
    return Text([rng.randrange(sigma) for _ in range(n)], sigma)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def golden_corpus():
    """The pinned inputs of the golden digests and the container fuzz test."""
    from gclab.labcli import fixture_text

    for selector in ("example32", "example16", "worst:64", "random:4,2000,1"):
        yield selector, fixture_text(selector)
    yield "bytes:4096", Text.from_bytes(random.Random(256).randbytes(4096))
    yield "badgrammar:5", fixture_text("badgrammar:5")


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
