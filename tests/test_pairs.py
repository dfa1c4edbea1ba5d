"""PairEngine against a brute-force model of its working string: after
every replacement and append, select() must return what a greedy
left-to-right non-overlapping count over the live string picks (maximum
count, ties to the leftmost first occurrence), with the same positions, and
occurrences() what the same count of a word finds."""

import random
import tracemalloc
from collections import Counter

import pytest

from conftest import block_copies
from gclab import greedy, repair
from gclab.labcli import fixture_text
from gclab.pairs import PairEngine
from gclab.textcore import Text


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


def brute_occurrences(model, word):
    """Positions of the greedy left-to-right non-overlapping occurrences of
    word in the model."""
    symbols = [s for _, s in model]
    taken, end = [], -1
    for i in range(len(model) - len(word) + 1):
        if i > end and symbols[i : i + len(word)] == word:
            taken.append(model[i][0])
            end = i + len(word) - 1
    return taken


def brute_replace(model, positions, x, length=2):
    starts = set(positions)
    out, i = [], 0
    while i < len(model):
        if model[i][0] in starts:
            out.append((model[i][0], x))
            i += length
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
        assert engine.symbols().tolist() == [s for _, s in model]
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


def drive_mixed(symbols, first_symbol, rng, done, kinds=("pair", "word", "run", "append")):
    """Random full pair replacements, word replacements (occurrences and
    then one pair step per further symbol, at the same left positions, and
    the rule segment appended with its pairs threaded), (a, a) replacements
    at some of the pair's occurrences, and appends of a pair rule and a copy
    of a piece of the string, each segment closed by a negative separator;
    every step is checked.  Each step's kind is drawn from kinds; done
    counts the steps of each kind."""
    symbols = symbols + [-1]  # append joins after a separator
    engine = PairEngine(symbols)
    model = list(enumerate(symbols))
    x = first_symbol
    separator = -2
    while True:
        want = brute_select(model)
        assert engine.select() == want
        assert engine.symbols().tolist() == [s for _, s in model]
        assert engine.alive == len(model)
        if want is None:
            return
        live = [s for _, s in model]
        kind = rng.choice(kinds)
        if kind == "word":  # a word that starts with the selected pair repeats more often
            i = [p for p, _ in model].index(rng.choice(want[3]))
        else:
            i = rng.randrange(len(model))
        length = rng.randrange(3 if kind == "word" else 2, 6)
        piece = live[i : i + length]
        at = [p for p, _ in model[i : i + length]]
        threaded = (len(piece) == length and min(piece) >= 0
                    and all(engine.pid[p] != -1 for p in at[:-1]))
        if kind == "word" and threaded and length >= 3:
            positions = engine.occurrences(engine.pid[at[0]], piece)
            assert positions == brute_occurrences(model, piece)
            if len(positions) >= 2:
                start = positions[0]
                first = [p for p, _ in model].index(start)
                records = [engine.pid[p] for p, _ in model[first : first + length - 1]]
                assert -1 not in records
                engine.replace(piece[:2], positions, x)
                for s in piece[2:]:
                    engine.replace((x, s), positions, x)
                model = brute_replace(model, positions, x, length)
                engine.append(piece + [separator], records + [-1, -1])
                base = len(engine.sym) - length - 1
                model += enumerate(piece + [separator], base)
                done[kind] += 1
                separator -= 1
                x += 1
                continue
        if kind == "run":
            runs = [s for s, t in zip(live, live[1:]) if s == t and s >= 0]
            if runs:
                a = rng.choice(runs)
                positions = brute_occurrences(model, [a, a])
                some = [p for p in positions if rng.random() < 0.5] or positions[-1:]
                if engine.pid[some[0]] != -1:
                    engine.replace((a, a), some, x)
                    model = brute_replace(model, some, x)
                    done[kind] += 1
                    x += 1
                    continue
        if kind == "append" and threaded:
            segment = [x, x + 1, separator, *piece, separator - 1]
            records = [-1, -1, -1] + [engine.pid[p] for p in at[:-1]] + [-1, -1]
            base = len(engine.sym)
            engine.append(segment, records)
            model += enumerate(segment, base)
            done[kind] += 1
            separator -= 2
            x += 2
            continue
        pair, _, _, positions = want
        engine.replace(pair, positions, x)
        model = brute_replace(model, positions, x)
        done["pair"] += 1
        x += 1


def test_mixed_steps_match_brute_force():
    rng = random.Random(0x51DE)
    done = Counter()
    for symbols, sigma in oracle_inputs(rng):
        drive_mixed(symbols, sigma, rng, done)
    assert min(done.values()) > 150, done


def test_stale_heavy_steps_match_brute_force():
    """Long strings over two or three letters, mostly word rounds and
    appends: the few records are joined again and again, and most of their
    old occurrences are replaced, so their threads hold many stale entries."""
    rng = random.Random(0x57A1E)
    done = Counter()
    for _ in range(40):
        sigma = rng.choice((2, 3))
        symbols = [rng.randrange(sigma) for _ in range(rng.randrange(200, 601))]
        drive_mixed(symbols, sigma, rng, done, kinds=("word", "word", "word", "append", "append", "run"))
    assert done["word"] > 150 and done["append"] > 150, done


def test_stale_positions_are_rejected():
    engine = PairEngine([0, 0, 0, 0, 1])
    pair, count, _, positions = engine.select()
    assert (pair, count, positions) == ((0, 0), 2, [0, 2])
    with pytest.raises(AssertionError):
        engine.replace(pair, [0, 1], 2)


# Peak traced bytes per input symbol, building the engine over 2^16 random
# bytes and running it to the end, is 56 (the build's numpy temporaries; 40
# when built, 27 held at the end) on CPython 3.11 / numpy 2.4.  It was 88
# (69 built, 35 at the end) with doubly linked occurrence threads and a
# tuple per heap entry, and 419 for the engine that kept a dict of positions
# per pair.  The bound is unchanged.
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


class Watched(PairEngine):
    """A PairEngine that records, after every replacement and append, how
    many occurrence entries it holds per position."""

    fills: list = []

    def replace(self, *args):
        super().replace(*args)
        self.fills.append(len(self._occ) / len(self.nxt))

    def append(self, *args):
        super().append(*args)
        self.fills.append(len(self._occ) / len(self.nxt))


@pytest.mark.parametrize("algorithm,text", [
    ("repair", Text.from_bytes(random.Random(17).randbytes(1 << 14))),
    ("greedy", fixture_text("worst:4096")),
    ("greedy", block_copies(512, 8, 512, 2)),
], ids=["repair-random", "greedy-worst", "greedy-blocks"])
def test_occurrence_store_stays_bounded(monkeypatch, algorithm, text):
    """Stale thread entries never make occ outgrow twice the positions."""
    module = repair if algorithm == "repair" else greedy
    monkeypatch.setattr(module, "PairEngine", Watched)
    monkeypatch.setattr(Watched, "fills", [])
    run = repair.repair_run if algorithm == "repair" else greedy.greedy_run
    grammar, _ = run(text)
    assert grammar.expand_start() == text.symbols
    assert Watched.fills and max(Watched.fills) <= 2, max(Watched.fills)
