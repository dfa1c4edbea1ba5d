"""PairEngine against a brute-force model of its working string: after
every replacement, select() must return what a greedy left-to-right
non-overlapping count over the live string picks (maximum count, ties to
the leftmost first occurrence), with the same positions."""

import random
import tracemalloc

import pytest

from gclab.pairs import PairEngine


def brute_select(model):
    """model: the live string, a list of (position, symbol)."""
    taken = {}  # pair -> positions counted greedily, ascending
    last = {}  # pair -> index of its last counted occurrence
    for i in range(len(model) - 1):
        pair = (model[i][1], model[i + 1][1])
        if last.get(pair, -2) == i - 1:
            continue  # overlaps the occurrence just counted
        last[pair] = i
        taken.setdefault(pair, []).append(model[i][0])
    best = min(taken.items(), key=lambda kv: (-len(kv[1]), kv[1][0]), default=None)
    if best is None or len(best[1]) < 2:
        return None
    pair, positions = best
    return pair, len(positions), positions[0], positions


def brute_replace(model, positions, x):
    starts = set(positions)
    out, i = [], 0
    while i < len(model):
        if model[i][0] in starts:
            out.append((model[i][0], x))
            i += 2
        else:
            out.append(model[i])
            i += 1
    return out


def drive(symbols, first_symbol):
    """Replace the selected pair until none is left, checking every step."""
    engine = PairEngine(symbols)
    model = list(enumerate(symbols))
    x = first_symbol
    while True:
        want = brute_select(model)
        assert engine.select() == want
        assert engine.symbols() == [s for _, s in model]
        assert engine.alive == len(model)
        if want is None:
            return x - first_symbol
        pair, _, _, positions = want
        engine.replace(pair, positions, x)
        model = brute_replace(model, positions, x)
        x += 1


def oracle_inputs(rng):
    """Strings of runs (a^k, (ab)^k, aab mixes) and random pieces, and the
    same over the top of a 2^32 alphabet."""
    # a^8 -> X^4: the new pair (X, X) overlaps itself, and the pair (X, a)
    # made at one occurrence is gone again at the next
    yield [0] * 8 + [1, 0, 0, 0, 0, 1], 2
    yield [0, 1] * 9 + [1, 0, 1, 0, 1], 2
    for trial in range(400):
        symbols = []
        for _ in range(rng.randrange(1, 4)):
            kind = rng.randrange(4)
            k = rng.randrange(1, 24)
            if kind == 0:
                piece = [0] * k
            elif kind == 1:
                piece = [0, 1] * k
            elif kind == 2:
                piece = []
                while len(piece) < k:
                    piece += rng.choice(([0, 0, 1], [0], [1, 1], [0, 1]))
            else:
                piece = [rng.randrange(3) for _ in range(k)]
            symbols += piece
        sigma = 1 << 32 if trial % 3 == 0 else 3
        offset = sigma - 3
        yield [offset + s for s in symbols], sigma


def test_select_matches_brute_force_after_every_replace():
    rng = random.Random(0x9A125)
    replaced = 0
    for symbols, sigma in oracle_inputs(rng):
        replaced += drive(symbols, sigma)
    assert replaced > 1500, replaced


def test_stale_positions_are_rejected():
    engine = PairEngine([0, 0, 0, 0, 1])
    pair, count, _, positions = engine.select()
    assert (pair, count, positions) == ((0, 0), 2, [0, 2])
    with pytest.raises(AssertionError):
        engine.replace(pair, [0, 1], 2)


# Peak traced bytes per input symbol, building the engine over 2^16 random
# bytes and running it to the end, was 87 (the build's numpy temporaries;
# 68 when built) on CPython 3.11 / numpy 2.4, against 419 for the engine
# that kept a dict of positions per pair.  The bound leaves about 50% headroom.
ENGINE_BYTES_PER_SYMBOL = 128


def test_engine_bytes_per_symbol():
    n = 1 << 16
    seg = list(random.Random(16).randbytes(n))
    tracemalloc.start()
    try:
        engine = PairEngine(seg)
        x = 256
        while (sel := engine.select()) is not None:
            engine.replace(sel[0], sel[3], x)
            x += 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x - 256 > 5000
    assert peak / n <= ENGINE_BYTES_PER_SYMBOL, peak / n
