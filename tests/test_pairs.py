"""PairEngine against a brute-force model of its segments: after every
replacement, select() must return what a greedy left-to-right
non-overlapping count over the live segments picks (maximum count, ties to
the leftmost first occurrence), with the same positions."""

import random
import tracemalloc

import pytest

from gclab.pairs import PairEngine


def brute_select(model):
    """model: segments in creation order, each a list of (position, symbol)."""
    taken = {}  # pair -> positions counted greedily, ascending
    for seg in model:
        last = {}  # pair -> index of its last counted occurrence in seg
        for i in range(len(seg) - 1):
            pair = (seg[i][1], seg[i + 1][1])
            if last.get(pair, -2) == i - 1:
                continue  # overlaps the occurrence just counted
            last[pair] = i
            taken.setdefault(pair, []).append(seg[i][0])
    best = min(taken.items(), key=lambda kv: (-len(kv[1]), kv[1][0]), default=None)
    if best is None or len(best[1]) < 2:
        return None
    pair, positions = best
    return pair, len(positions), positions[0], positions


def brute_replace(model, positions, x):
    starts = set(positions)
    out = []
    for seg in model:
        new, i = [], 0
        while i < len(seg):
            if seg[i][0] in starts:
                new.append((seg[i][0], x))
                i += 2
            else:
                new.append(seg[i])
                i += 1
        out.append(new)
    return out


def drive(segments, first_symbol, add_rules):
    """Replace the selected pair until none is left, checking every step.

    With add_rules, each replaced pair is appended as a segment of its own,
    the way Greedy's endgame keeps its rules."""
    engine = PairEngine(segments)
    model, base = [], 0
    for seg in segments:
        model.append([(base + i, s) for i, s in enumerate(seg)])
        base += len(seg)
    x = first_symbol
    while True:
        want = brute_select(model)
        assert engine.select() == want
        assert engine.segment_symbols() == [[s for _, s in seg] for seg in model]
        assert engine.alive == sum(map(len, model))
        if want is None:
            return x - first_symbol
        pair, _, _, positions = want
        engine.replace(pair, positions, x)
        model = brute_replace(model, positions, x)
        if add_rules:
            engine.add_rule_segment(pair)
            model.append([(base, pair[0]), (base + 1, pair[1])])
            base += 2
        x += 1


def oracle_inputs(rng):
    """Multi-segment inputs with runs (a^k, (ab)^k, aab mixes), random
    texts, and the same over the top of a 2^32 alphabet."""
    # a^8 -> X^4: the new pair (X, X) overlaps itself, and the pair (X, a)
    # made at one occurrence is gone again at the next
    yield [[0] * 8, [0] * 7, [1, 0, 0, 0, 0, 1]], 2
    yield [[0, 1] * 9, [1, 0, 1, 0, 1]], 2
    for trial in range(400):
        segments = []
        for _ in range(rng.randrange(1, 4)):
            kind = rng.randrange(4)
            k = rng.randrange(1, 24)
            if kind == 0:
                seg = [0] * k
            elif kind == 1:
                seg = [0, 1] * k
            elif kind == 2:
                seg = []
                while len(seg) < k:
                    seg += rng.choice(([0, 0, 1], [0], [1, 1], [0, 1]))
            else:
                seg = [rng.randrange(3) for _ in range(k)]
            segments.append(seg)
        sigma = 1 << 32 if trial % 3 == 0 else 3
        offset = sigma - 3
        yield [[offset + s for s in seg] for seg in segments], sigma


@pytest.mark.parametrize("add_rules", [False, True], ids=["repair", "greedy_endgame"])
def test_select_matches_brute_force_after_every_replace(add_rules):
    rng = random.Random(0x9A125)
    replaced = 0
    for segments, sigma in oracle_inputs(rng):
        replaced += drive(segments, sigma, add_rules)
    assert replaced > 1500


def test_only_the_pair_just_replaced_becomes_a_segment():
    engine = PairEngine([[0, 1, 0, 1, 2]])
    pair, _, _, positions = engine.select()
    assert pair == (0, 1)
    with pytest.raises(ValueError):
        engine.add_rule_segment((1, 0))
    engine.replace(pair, positions, 3)
    engine.add_rule_segment(pair)
    assert engine.segment_symbols() == [[3, 3, 2], [0, 1]]
    with pytest.raises(ValueError):
        engine.add_rule_segment(pair)


def test_stale_positions_are_rejected():
    engine = PairEngine([[0, 0, 0, 0, 1]])
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
        engine = PairEngine([seg])
        x = 256
        while (sel := engine.select()) is not None:
            engine.replace(sel[0], sel[3], x)
            x += 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x - 256 > 5000
    assert peak / n <= ENGINE_BYTES_PER_SYMBOL, peak / n
