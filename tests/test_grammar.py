import dataclasses
import hashlib
import json
import re
import time

import numpy as np
import pytest

from conftest import random_text
from gclab.coders import ENCODINGS, from_container, to_container
from gclab.grammar import (
    MAX_EXPANSION,
    MAX_FILL,
    ExpansionTooLargeError,
    FullGrammar,
    bad_grammar_fixture,
    canonicalized,
    check_irreducible,
    check_weakly_nonredundant,
    expansion_sum_check,
    from_binary,
    induced_parsing,
    metrics,
    prefixed_rules,
    renumber_segments,
    start_parsing,
    to_binary,
    to_text_dump,
)


def digram_oracle(segments):
    """Exhaustive max non-overlapping occurrence count per ordered pair."""
    from collections import defaultdict

    per_pair = defaultdict(list)
    base = 0
    for seg in segments:
        for i in range(len(seg) - 1):
            per_pair[(seg[i], seg[i + 1])].append(base + i)
        base += len(seg) + 2
    out = {}
    for pair, positions in per_pair.items():
        best = 0
        # brute force: all subsets are tiny in the tests
        import itertools

        for r in range(len(positions), 0, -1):
            for sub in itertools.combinations(positions, r):
                if all(b - a >= 2 for a, b in zip(sub, sub[1:])):
                    best = r
                    break
            if best:
                break
        out[pair] = best
    return out


def random_grammar(rng, cnf=False, max_rules=8):
    sigma = rng.randrange(2, 6)
    n_rules = rng.randrange(0, max_rules)
    rules = []
    for i in range(n_rules):
        ln = 2 if cnf else rng.randrange(1, 5)
        rules.append(tuple(rng.randrange(sigma + i) for _ in range(ln)))
    start = tuple(rng.randrange(sigma + n_rules) for _ in range(rng.randrange(1, 12)))
    return FullGrammar(sigma, start, rules)


# -- construction / expansion --------------------------------------------------


def test_validation():
    with pytest.raises(ValueError):
        FullGrammar(2, (0,), [()])  # empty rhs
    with pytest.raises(ValueError):
        FullGrammar(2, (0,), [(3,)])  # forward reference
    with pytest.raises(ValueError):
        FullGrammar(2, (5,), [(0, 1)])  # undefined id in start


@pytest.mark.parametrize("sigma, start, rules, message", [
    (2, (0,), [()], "rule 0 has an empty right-hand side"),
    (2, (0,), [(3,)], "rule 0 references id 3, not previously defined"),
    (2, (0,), [(2,)], "rule 0 references id 2, not previously defined"),
    (2, (0,), [(0, -1)], "rule 0 references id -1, not previously defined"),
    (2, (5,), [(0, 1)], "start references undefined id 5"),
    (2, (0, -3), [], "start references undefined id -3"),
    (2, (1 << 70,), [(0, 1)], f"start references undefined id {1 << 70}"),
    (2, (0,), [(0, 1), (1, 1 << 64, 2)], f"rule 1 references id {1 << 64}, not previously defined"),
    (0, (0,), [], "sigma must be >= 1"),
    # several bad rules: the lowest rule is reported, and inside it the
    # first offending id; the start is checked after every rule
    (2, (9,), [(0, 1), (0, 4, 7), ()], "rule 1 references id 4, not previously defined"),
    (2, (9,), [(0, 1), (), (0, 9)], "rule 1 has an empty right-hand side"),
    (2, (9, 7), [(0, 1), (2, 0)], "start references undefined id 9"),
    (2**64 + 3, (0,), [(0, 2**64 + 3)], f"rule 0 references id {2**64 + 3}, not previously defined"),
    (2**64 + 3, (2**64 + 4,), [(1, 2)], f"start references undefined id {2**64 + 4}"),
])
def test_validation_messages(sigma, start, rules, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FullGrammar(sigma, start, rules)


def test_from_ids_keeps_copies():
    ids, ends = np.array([2, 2, 0, 1]), np.array([2, 4])
    g = FullGrammar.from_ids(2, ids, ends)
    assert ids.flags.writeable and ends.flags.writeable
    ids[:] = 0
    ends[0] = 4
    assert g == FullGrammar(2, (2, 2), [(0, 1)])
    base = np.array([9, 2, 2, 0, 1])
    g = FullGrammar.from_ids(2, base[1:], [2, 4])
    base[1:] = 0
    assert g.start == (2, 2) and not g.ids.flags.writeable


def test_prefixed_rules_lays_out_prefix_then_ids():
    g = FullGrammar(2, (3,), [(0, 1), (2, 0, 1)])
    assert prefixed_rules(g, [2, 3]).tolist() == [2, 0, 1, 3, 2, 0, 1]
    big = 1 << 70  # past int64: the layout turns to objects
    assert prefixed_rules(g, [big, 1]).tolist() == [big, 0, 1, 1, 2, 0, 1]
    assert prefixed_rules(FullGrammar(2, (0,), []), []).tolist() == []


def view_cases(golden_grammars):
    yield from expansion_cases(golden_grammars)
    big = 2**64 + 3  # ids past int64
    yield ("big", "sigma"), FullGrammar(big, (big + 1, 0, big + 1, big), [(0, big - 1), (big, 1)])


def grammar_views(g):
    """Every public view of a grammar, in a form json can digest."""
    x = range(g.sigma, g.sigma + len(g.rules))
    return {
        "sigma": g.sigma,
        "start": g.start,
        "rules": g.rules,
        "rhs": [g.rhs(s) for s in x],
        "segments": g.rhs_segments(),
        "concat": g.rhs_concat(),
        "cnf": g.is_cnf,
        "lengths": g.expansion_lengths(),
        "metrics": dataclasses.astuple(metrics(g)),
        "gcl1": to_binary(g).hex(),
        "dump": to_text_dump(g),
    }


def grammar_routes(g):
    """The grammar through the constructor, GCL1 and each GCB1 encoding
    that can code it.  The incremental decoder renames the rules, so its
    grammar may differ from g by a renaming."""
    yield "constructor", FullGrammar(g.sigma, g.start, g.rules)
    yield "gcl1", from_binary(to_binary(g))
    for enc in ENCODINGS:
        try:
            data = to_container(g, enc)
        except ValueError:  # not CNF, or a codebook domain over the cap
            continue
        yield enc, from_container(data)[0]


def check_view_types(g, key):
    assert type(g.start) is tuple and type(g.rules) is tuple, key
    assert all(type(r) is tuple for r in g.rules), key
    assert type(g.rhs_segments()) is list and type(g.rhs_concat()) is tuple, key
    assert all(type(s) is int for s in g.rhs_concat()), key
    assert all(type(n) is int for n in g.expansion_lengths()), key


# sha256 of the json of grammar_views of the grammar and of its incremental
# decoding (None when it is not CNF), per view_cases key
VIEW_DIGESTS = {
    'example32/repair': '8c3b2f8605e8fb91f693763b5454df3186185aca3d25da718ef267dbcfddbd3c',
    'example32/greedy': '8c3b2f8605e8fb91f693763b5454df3186185aca3d25da718ef267dbcfddbd3c',
    'example16/repair': '185e9ba136bc735b920336d1484ba116e3e3dfdaa5a49dfd651dbcf7b8de122a',
    'example16/greedy': '185e9ba136bc735b920336d1484ba116e3e3dfdaa5a49dfd651dbcf7b8de122a',
    'worst:64/repair': '126c6f5ac7070240a2bcde59840c63c7986504f2eb611b027fd63a2359b3ed82',
    'worst:64/greedy': '189438010f92270defccc299a699addb6e28b567bcee5a95fe99fee1d9d7e9d2',
    'random:4,2000,1/repair': '923c1d0e5ba84076d46d1489fb0f25b7362e925ef7c374d9fa4c16a1284f6dab',
    'random:4,2000,1/greedy': '74f5b34876b6fa05788c059d9e4b56d1074cf3720df0fc821fe95d66457e838e',
    'bytes:4096/repair': 'ef7ab1f71074e198dbe259c64503c5404b651d3779639b699611574f15c43cec',
    'bytes:4096/greedy': 'ef7ab1f71074e198dbe259c64503c5404b651d3779639b699611574f15c43cec',
    'badgrammar:5/repair': 'fb9292cb994b8d5e82f5b274de4559731d0b161fcc43caf9535eaffd309ff3ca',
    'badgrammar:5/greedy': '87b7f334cc6ab9f9c15c0a188689a48bdf126b197609412cb611b6847ff85834',
    'blocks:8x512/repair': 'f801221cbbe54ee9d9f7b7df4301f9f2677b233f8a9497c60454a544313c0324',
    'blocks:8x512/greedy': '1c3a192986cc069192ff68fb9b1c05f4d3c7beddeecea9651c6231c57319538f',
    'badgrammar/fixture': '8fa0211667435a0480582ab5e29a3064bb7c433d404d0769e670fe1ad4e85e7e',
    'big/sigma': '679dce1ebb8c8c36d0a96a62fc4c59cbef3ef92fe7fdc2e6d156d41044965f18',
}


def test_public_views_pinned(golden_grammars):
    for key, g in view_cases(golden_grammars):
        views = grammar_views(g)
        check_view_types(g, key)
        renamed = None
        for route, h in grammar_routes(g):
            check_view_types(h, (key, route))
            if route == "incremental":
                assert canonicalized(h) == canonicalized(g), key
                assert FullGrammar(h.sigma, h.start, h.rules) == h, key
                renamed = grammar_views(h)
                continue
            assert h == g and g == h and hash(h) == hash(g), (key, route)
            assert grammar_views(h) == views, (key, route)
        digest = hashlib.sha256(json.dumps([views, renamed]).encode()).hexdigest()
        assert digest == VIEW_DIGESTS["/".join(key)], key
        assert g != FullGrammar(g.sigma, (*g.start, 0), g.rules), key


def test_expand_terminal():
    g = FullGrammar(2, (0,), [])
    assert g.expand(0) == (0,)


def test_expand_two_levels():
    # X -> ab, Y -> XX: expand(Y) = abab
    g = FullGrammar(2, (3,), [(0, 1), (2, 2)])
    assert g.expand(3) == (0, 1, 0, 1)
    assert g.expand_start() == (0, 1, 0, 1)
    with pytest.raises(KeyError):
        g.expand(4)


def test_expansion_lengths_without_materializing():
    g = FullGrammar(2, (3,), [(0, 1), (2, 2)])
    assert g.expansion_lengths() == [2, 4]


def stack_expand(g: FullGrammar, seq) -> tuple:
    """Reference expander: depth-first with an explicit stack, no caching."""
    out = []
    stack = list(reversed(seq))
    while stack:
        s = stack.pop()
        if s < g.sigma:
            out.append(s)
        else:
            stack.extend(reversed(g.rhs(s)))
    return tuple(out)


def expansion_cases(golden_grammars):
    yield from golden_grammars.items()
    yield ("badgrammar", "fixture"), bad_grammar_fixture(6)


def test_expansions_match_stack_expander(golden_grammars):
    cases = dict(expansion_cases(golden_grammars))
    assert any(not g.is_cnf for (_, alg), g in cases.items() if alg == "greedy")
    # ids past 2^64: an object id array
    big = 2**64 + 3
    cases["sigma", "2^64+3"] = FullGrammar(big, (big + 2, 0, big + 1, big - 1),
                                           [(0, big - 1), (big, 1, big), (big + 1, big, 7)])
    cases["sigma", "1000"] = FullGrammar(1000, (1001, 5, 1000), [(5, 7), (1000, 999, 1000)])
    with_unused = 0
    for key, g in cases.items():
        nonterminals = range(g.sigma, g.sigma + len(g.rules))
        for x in nonterminals:
            assert g.expand(x) == stack_expand(g, (x,)), (key, x)
        assert g.expand_start() == stack_expand(g, g.start), key
        mixed = (*reversed(nonterminals), 0, *g.start[:5])
        assert g.expand_sequence(mixed) == stack_expand(g, mixed), key
        # terminals that occur nowhere in the grammar, alone and among rules
        used = set(g.ids.tolist())
        unused = [t for t in (g.sigma - 1, g.sigma - 2, 1) if 0 <= t < g.sigma and t not in used]
        with_unused += bool(unused)
        for seq in (unused, [*unused, *nonterminals[-2:], *unused]):
            assert g.expand_sequence(seq) == stack_expand(g, seq), (key, seq)
    assert with_unused >= 2


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_expansion_order_does_not_matter(golden_grammars, order):
    import random

    for key, g in expansion_cases(golden_grammars):
        fresh = FullGrammar(g.sigma, g.start, g.rules)
        ids = list(range(g.sigma, g.sigma + len(g.rules)))
        if order == "descending":
            ids.reverse()
        elif order == "shuffled":
            random.Random(len(ids)).shuffle(ids)
        for x in ids:
            assert fresh.expand(x) == stack_expand(g, (x,)), (key, order, x)
        assert fresh.expand_start() == g.expand_start(), (key, order)


def test_expansion_builds_no_rule_tuples(golden_grammars):
    # the expansion reads the id array and its segment ends: decoding a
    # grammar and expanding it leaves the tuple views unbuilt
    for key, g in golden_grammars.items():
        h = from_binary(to_binary(g))
        assert h.expand_start() == g.expand_start(), key
        assert h.expansion_lengths() == g.expansion_lengths(), key
        assert "rules" not in h.__dict__ and "start" not in h.__dict__, key


def test_repeated_expand_returns_the_same_object():
    g = bad_grammar_fixture(4)
    top = g.sigma + len(g.rules) - 1
    first = g.expand(top)
    g.expand_start()
    assert g.expand(top) is first
    assert g.expand(g.sigma) is g.expand(g.sigma)
    # one Text, hence one suffix index, per grammar
    assert g.text() is g.text()
    assert g.text().symbols == g.expand_start()


@pytest.mark.parametrize("terminal", [254, 255])
def test_expanding_terminals_fills_no_rule(terminal):
    # sigma 256 and 100 rules: a sequence of terminals only, up to sigma - 2
    # or sigma - 1, builds no rule expansion
    g = FullGrammar(256, (355,), [(0, 1)] + [(256 + i, 2) for i in range(99)])
    assert g.expand_sequence((terminal,)) == (terminal,)
    assert g._expansions == []


def test_deep_chain_expansion():
    # rule i -> (rule i-1, letter): linear depth must not recurse
    rules = [(0, 1)]
    for i in range(3000):
        rules.append((2 + i, 0))
    g = FullGrammar(2, (2 + 3000,), rules)
    assert g.expansion_lengths()[-1] == 3002


# -- predicates -------------------------------------------------------------------


def test_irreducible_xx_ab():
    g = FullGrammar(2, (2, 2), [(0, 1)])
    res = check_irreducible(g)
    assert (res.ig1, res.ig2, res.ig3) == (True, True, True)


def test_irreducible_xyxy_fails_ig3():
    # S' -> XYXY, X -> ab, Y -> cd: digram XY occurs twice
    g = FullGrammar(4, (4, 5, 4, 5), [(0, 1), (2, 3)])
    res = check_irreducible(g)
    assert res.ig1 and res.ig2 and not res.ig3
    assert res.ig3_witness == (4, 5)


def test_ig1_witness():
    g = FullGrammar(2, (2, 3, 2, 3), [(0, 1), (0, 1)])
    res = check_irreducible(g)
    assert not res.ig1 and res.ig1_witness == (2, 3)


def test_ig2_witness():
    g = FullGrammar(2, (2, 0), [(0, 1)])
    res = check_irreducible(g)
    assert not res.ig2 and res.ig2_witness == 2
    big = 1 << 70  # ids past int64
    g = FullGrammar(big, (big + 1, big + 1, 0), [(0, 1), (big, 1)])
    res = check_irreducible(g)
    assert not res.ig2 and res.ig2_witness == big
    assert not expansion_sum_check(g).applicable


def ig3_inputs(rng, letters):
    """(start, rules) over three letters: random segments, an empty S',
    one-symbol segments and runs such as aaaa."""
    a, b, c = letters
    cases = [((), ()), ((), ((a,),)), ((a,), ((b,), (c,))), ((a, a, a, a), ()),
             ((a, a, a), ((a, a),)), ((), ((a, b), (a, b))), ((a, b, a, b), ()),
             ((a, b, a), ((b, a, b),)), ((c, a, a, a, c), ((a, a, a, a, a),))]
    for _ in range(200):
        segs = [tuple(rng.choice(letters) for _ in range(rng.randrange(0 if i == 0 else 1, 8)))
                for i in range(rng.randrange(1, 5))]
        cases.append((segs[0], tuple(segs[1:])))
    return cases


@pytest.mark.parametrize("sigma", [3, (1 << 64) + 3])
def test_ig3_matches_oracle(rng, sigma):
    letters = (0, sigma - 2, sigma - 1)
    for start, rules in ig3_inputs(rng, letters):
        res = check_irreducible(FullGrammar(sigma, start, rules))
        counts = digram_oracle([start, *rules])
        top = max(counts.values(), default=0)
        assert res.ig3 == (top < 2), (start, rules)
        # the witness has the maximum count, then the leftmost first
        # occurrence: the oracle's pairs come in first-occurrence order
        want = None if top < 2 else next(pair for pair, c in counts.items() if c == top)
        assert res.ig3_witness == want, (start, rules)


def test_weakly_nonredundant_reference_examples():
    # S -> AA, A -> Ba, B -> aa is weakly non-redundant
    # terminals: a=0; rules: B(id 1) -> aa, A(id 2) -> B a, start AA
    g = FullGrammar(1, (2, 2), [(0, 0), (1, 0)])
    assert check_weakly_nonredundant(g).ok
    # S -> AB, A -> cc, B -> aa is not (A and B occur once in the tree)
    g2 = FullGrammar(3, (3, 4), [(2, 2), (0, 0)])
    res = check_weakly_nonredundant(g2)
    assert not res.ok and len(res.underused) == 2


@pytest.mark.parametrize("rules, short", [
    ([(0,), (0, 1)], (2,)),
    ([(0, 1), (0,)], (3,)),
    ([(0,), (2,)], (2, 3)),
])
def test_weakly_nonredundant_short_rules(rules, short):
    # the rule with id sigma + i is short when its right-hand side has one symbol
    res = check_weakly_nonredundant(FullGrammar(2, (2, 2, 3, 3), rules))
    assert res.short_rules == short and not res.ok


def test_weak_tree_counts_via_nesting():
    # X used once in rhs but reused through the tree: S' -> YY, Y -> Xa, X -> ab
    g = FullGrammar(2, (3, 3), [(0, 1), (2, 0)])
    res = check_weakly_nonredundant(g)
    assert res.ok
    assert res.tree_occurrences[2] == 2  # X appears twice in the derivation tree
    # while its rhs occurrence count is 1 (IG2 false)
    assert not check_irreducible(g).ig2


def test_expansion_sum():
    g = FullGrammar(2, (2, 2), [(0, 1)])
    res = expansion_sum_check(g)
    assert res.applicable and res.expansion_sum == 2 and res.bound_holds
    g2 = FullGrammar(2, (2, 0), [(0, 1)])  # IG2 fails
    assert not expansion_sum_check(g2).applicable


# -- induced parsing -----------------------------------------------------------------


def test_induced_parsing_example():
    g = FullGrammar(2, (2, 2), [(0, 1)])
    s2, parsing = induced_parsing(g, g.text())
    assert s2 == (0, 1, 2)  # leftmost occurrence expanded
    assert parsing.phrases == ((0,), (1,), (0, 1))
    assert len(s2) == len(g.start) + 2 - 1


def test_induced_parsing_rule_free():
    g = FullGrammar(2, (0, 1, 0), [])
    s2, parsing = induced_parsing(g, g.text())
    assert parsing.lengths == (1, 1, 1)


def test_induced_parsing_size_formula(rng):
    for _ in range(20):
        g = random_grammar(rng)
        reachable = set()
        stack = [s for s in g.start if s >= g.sigma]
        while stack:
            x = stack.pop()
            if x in reachable:
                continue
            reachable.add(x)
            stack.extend(s for s in g.rhs(x) if s >= g.sigma)
        s2, parsing = induced_parsing(g, g.text())
        expect = len(g.start) + sum(
            len(g.rhs(x)) - 1 for x in reachable
        )
        assert len(s2) == expect
        assert parsing.source.symbols == g.expand_start()


def test_start_parsing():
    g = FullGrammar(2, (2, 2), [(0, 1)])
    assert start_parsing(g, g.text()).phrases == ((0, 1), (0, 1))


# -- fixture ------------------------------------------------------------------------


def test_bad_grammar_small():
    g = bad_grammar_fixture(3)
    # rules for all binary words of length 2 and 3: 4 + 8 = 12 rules
    assert len(g.rules) == 12
    res = check_irreducible(g)
    assert res.all_ok
    # start-string expansion = every 3-bit word doubled, in order
    exp = g.expand_start()
    want = []
    for v in range(8):
        bits = [(v >> 2) & 1, (v >> 1) & 1, v & 1]
        want.extend(bits + bits)
    assert exp == tuple(want)


def test_bad_grammar_structure_matches_example():
    g = bad_grammar_fixture(3)
    # X_00 -> 00 is a rule, and X_000 -> X_00 0, X_001 -> X_00 1
    id_00 = 2  # first rule in (length, lex) order
    assert g.rules[0] == (0, 0)
    x000 = g.rules[4]
    x001 = g.rules[5]
    assert x000 == (id_00, 0) and x001 == (id_00, 1)
    assert len(g.start) == 16 and g.start[0] == g.start[1]


def test_bad_grammar_rejects_small():
    with pytest.raises(ValueError):
        bad_grammar_fixture(2)


def test_bad_grammar_is_small_bound():
    import math

    for d in (3, 4, 6):
        g = bad_grammar_fixture(d)
        m = metrics(g)
        n = len(g.expand_start())
        assert m.rhs_size_full <= 64 * n / (math.log(n) / math.log(2))


# -- serialization ----------------------------------------------------------------------


def test_binary_round_trip(rng):
    for _ in range(25):
        g = random_grammar(rng)
        assert from_binary(to_binary(g)) == g


def test_binary_rejects_garbage():
    from gclab.bits import MalformedStreamError

    with pytest.raises(MalformedStreamError):
        from_binary(b"NOPE")
    g = FullGrammar(2, (0, 1), [(0, 1)])
    with pytest.raises(MalformedStreamError):
        from_binary(to_binary(g) + b"\x00")
    with pytest.raises(MalformedStreamError, match="too long"):
        from_binary(to_binary(g) + bytes([0x80] * 10 + [0x01]))


def test_binary_counts_checked_before_allocating():
    import time

    from gclab.bits import MalformedStreamError, uvarints

    # 2^60 rules, then |S'| = 2^40, each declared in a 20-byte file; then a
    # rule count, a rule length and |S'| past int64 (2^63, 2^64 - 1, and a
    # 10-byte varint past 2^64), which a cast to int64 would wrap negative
    heads = [[2, 1 << 60], [2, 0, 1 << 40]]
    for big in (1 << 63, (1 << 64) - 1, (1 << 69) + 5):
        heads += [[2, big], [2, 1, big], [2, 2, 1, 0, big], [2, 0, big]]
    for head in heads:
        data = (b"GCL1" + uvarints(head)).ljust(32, b"\0")
        assert len(data) == 32
        t0 = time.perf_counter()
        with pytest.raises(MalformedStreamError, match="cannot fit"):
            from_binary(data)
        assert time.perf_counter() - t0 < 1.0
    # a sigma past 2^64 is no count: it round-trips
    big = 2**64 + 3
    g = FullGrammar(big, (big + 1, 0, big), [(0, big - 1), (big, 1)])
    assert from_binary(to_binary(g)) == g


def doubling_grammar(n_rules: int, copies: int = 1) -> FullGrammar:
    """Rule i is X_{i-1} X_{i-1}: the last rule expands to 2^n_rules symbols;
    the start holds ``copies`` of it."""
    rules = [(0, 0)] + [(2 + i, 2 + i) for i in range(n_rules - 1)]
    return FullGrammar(2, (1 + n_rules,) * copies, rules)


@pytest.mark.parametrize("fmt", ["gcl1", "gcb1-incremental"])
def test_small_files_cannot_start_huge_expansions(fmt):
    g = doubling_grammar(60)
    if fmt == "gcl1":
        data = to_binary(g)
        decoded = from_binary(data)
    else:
        data = to_container(g, "incremental")
        decoded, _ = from_container(data)
    assert len(data) == {"gcl1": 188, "gcb1-incremental": 95}[fmt]
    assert decoded.expansion_lengths()[-1] == 2**60
    t0 = time.perf_counter()
    for call in (
        decoded.expand_start,
        decoded.text,
        lambda: decoded.expand(decoded.sigma + 59),
        lambda: decoded.expand_sequence([0, 1]),
        lambda: check_irreducible(decoded),
    ):
        with pytest.raises(ExpansionTooLargeError, match=f"^expansion of {2**60} symbols exceeds the cap"):
            call()
    assert time.perf_counter() - t0 < 1.0
    assert decoded._expansions == []  # refused before any rule was built
    # totals past 2^64, from rules past 2^63: the error names the exact total
    if fmt == "gcl1":
        huge = from_binary(to_binary(doubling_grammar(63, copies=3)))
    else:
        huge, _ = from_container(to_container(doubling_grammar(63, copies=3), "incremental"))
    top = huge.sigma + 62
    for call, total in ((huge.expand_start, 3 << 63),
                        (lambda: huge.expand_sequence([top, 1, top, top]), (3 << 63) + 1),
                        (lambda: huge.expand_sequence([0]), 1 << 63)):
        with pytest.raises(ExpansionTooLargeError, match=f"^expansion of {total} symbols exceeds the cap"):
            call()
    assert huge._expansions == []


def test_expansion_total_over_cap_is_refused():
    # every rule is within the cap; the start's 65 copies of 2^20 are not
    g = doubling_grammar(20, copies=MAX_EXPANSION // (1 << 20) + 1)
    assert max(g.expansion_lengths()) == 1 << 20
    message = f"^expansion of {65 << 20} symbols exceeds the cap of {MAX_EXPANSION}$"
    with pytest.raises(ExpansionTooLargeError, match=message):
        g.expand_start()
    assert g._expansions == []
    # totals at the cap and one past it.  Rule 25 expands to 2^26 symbols,
    # and three more rules like it put the rules over the fill budget, so a
    # total at the cap passes its check and no expansion is built
    rules = list(doubling_grammar(26).rules)
    rules += rules[-1:] * 3
    x = 2 + 25
    fill = sum(FullGrammar(2, (x,), rules).expansion_lengths())
    assert fill == (1 << 27) - 2 + 3 * MAX_EXPANSION > MAX_FILL
    for seq, message in (
        ((x,), f"^rule expansions of {fill} symbols in all exceed the budget of {MAX_FILL}$"),
        ((x, 0), f"^expansion of {MAX_EXPANSION + 1} symbols exceeds the cap of {MAX_EXPANSION}$"),
        ((1, x, x + 3, 0), f"^expansion of {2 * MAX_EXPANSION + 2} symbols exceeds the cap"),
    ):
        g = FullGrammar(2, seq, rules)
        for call in (g.expand_start, g.text, lambda: g.expand_sequence(seq)):
            with pytest.raises(ExpansionTooLargeError, match=message):
                call()
        assert g._expansions == []


def test_expansion_fill_over_budget_is_refused():
    # a chain (rule i = rule i-1 and a letter): the largest rule is 65 537
    # symbols, within the cap, but the rules' expansions sum to about 2^31
    n_rules = 1 << 16
    rules = [(0, 1)] + [(2 + i, i % 2) for i in range(n_rules - 1)]
    data = to_binary(FullGrammar(2, (1 + n_rules,), rules))
    assert 300_000 < len(data) < 330_000
    g = from_binary(data)
    lens = g.expansion_lengths()
    assert max(lens) == n_rules + 1 <= MAX_EXPANSION
    assert sum(lens) > MAX_FILL
    t0 = time.perf_counter()
    for call in (g.expand_start, g.text, lambda: check_irreducible(g),
                 lambda: g.expand(1 + n_rules)):
        with pytest.raises(ExpansionTooLargeError, match="budget"):
            call()
    assert time.perf_counter() - t0 < 1.0
    assert g._expansions == []  # refused before any rule was built


def test_binary_invalid_grammar_is_malformed():
    from gclab.bits import MalformedStreamError

    data = to_binary(FullGrammar(2, (2,), [(0, 1)]))
    with pytest.raises(MalformedStreamError, match="start references undefined id 3"):
        from_binary(data[:-1] + b"\x03")


@pytest.mark.parametrize("sigma", [3, 2**64 + 3])
def test_renumber_segments_children_first(sigma):
    # rule 0 uses rule 1, so rule 1 takes the first id; a GCB1 header may
    # declare any sigma, ids past int64 included
    # the segments [sigma + 1, 0, sigma], [sigma + 1, 1] and [2, 2], laid out
    # as one array with their ends
    ids, ends = renumber_segments(sigma, [sigma + 1, 0, sigma, sigma + 1, 1, 2, 2], [3, 5, 7])
    assert (ids.tolist(), ends.tolist()) == ([sigma, 0, sigma + 1, 2, 2, sigma, 1], [3, 5, 7])
    with pytest.raises(ValueError):
        renumber_segments(sigma, [sigma, sigma + 1, sigma], [1, 2, 3])


def test_text_dump():
    g = FullGrammar(2, (2, 2), [(0, 1)])
    dump = to_text_dump(g)
    assert "S' -> R0 R0" in dump and "R0 -> 0 1" in dump


def test_canonicalized_idempotent_and_preserves_expansion(rng):
    for _ in range(20):
        g = random_grammar(rng)
        c = canonicalized(g)
        assert c.expand_start() == g.expand_start()
        assert canonicalized(c) == c


def test_metrics():
    g = FullGrammar(2, (2, 2), [(0, 1)])
    m = metrics(g)
    assert m.rhs_size_full == 4 and m.rhs_size_grammar == 2
    assert m.expansion_sum == 2 and m.is_cnf
