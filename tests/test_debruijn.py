import math
import random
from collections import Counter

import pytest

from gclab.debruijn import (
    GdBParams,
    base_debruijn,
    build_s0,
    generalized_word,
    lower_bound_check,
    verify_gdb,
)
from gclab.parsing import Parsing, lz77_parse_nonself, lz78_parse
from gclab.textcore import Text, count_occurrences

EXAMPLE_32 = "aababcbbadccdbddaacadaccbdbbcddc"
EXAMPLE_16 = "abbbdacdcacabdcd"


def cyclic_windows(symbols, m):
    ext = symbols + symbols[: m - 1]
    return [ext[i : i + m] for i in range(len(symbols))]


# -- base de Bruijn -----------------------------------------------------------


def test_base_2_2():
    b = base_debruijn(2, 2)
    assert b.symbols == (0, 0, 1, 1)


def test_base_starts_with_zero_run_and_is_de_bruijn():
    for q, m in [(2, 3), (2, 5), (4, 3), (3, 4)]:
        b = base_debruijn(q, m)
        assert len(b) == q**m
        assert b.symbols[:m] == (0,) * m
        wins = cyclic_windows(b.symbols, m)
        assert len(set(wins)) == q**m  # every word exactly once


def test_base_1024_windows_distinct():
    b = base_debruijn(4, 5)
    assert len(b) == 1024
    assert len(set(cyclic_windows(b.symbols, 5))) == 1024


def test_base_rejects_degenerate():
    with pytest.raises(ValueError):
        base_debruijn(1, 3)
    with pytest.raises(ValueError):
        base_debruijn(2, 0)


# -- level 0 -----------------------------------------------------------------------


def test_s0_k2_p1():
    s0 = build_s0(2, 1)
    assert len(s0) == 32 and s0.sigma == 4
    cert = verify_gdb(s0, GdBParams(2, 0, 1))
    assert cert.all_ok
    # each letter occurs sigma^(k-1+1/2) = 8 times
    counts = Counter(s0.symbols)
    assert all(c == 8 for c in counts.values())
    # every 3-letter word occurs cyclically at most once
    assert max(Counter(cyclic_windows(s0.symbols, 3)).values()) == 1


def test_params_validation():
    with pytest.raises(ValueError):
        GdBParams(0, 0, 1)
    with pytest.raises(OverflowError):
        GdBParams(40, 0, 2)
    p = GdBParams(2, 1, 1)
    assert p.length == 4 ** 3  # sigma^(k + (l+1)/2) with the exponent integral here
    assert p.z == 4


# -- generalized construction ---------------------------------------------------------


def test_word_1_1_1_certificate_and_entropy():
    params = GdBParams(1, 1, 1)
    w = generalized_word(params)
    assert len(w) == 16
    cert = verify_gdb(w, params)
    assert cert.all_ok
    assert cert.entropy_cyclic[0] == pytest.approx(2.0, abs=1e-9)
    assert cert.entropy_cyclic[1] == pytest.approx(1.0, abs=1e-9)


def test_word_2_0_1_length():
    assert len(generalized_word(GdBParams(2, 0, 1))) == 32


def test_word_1_2_1():
    params = GdBParams(1, 2, 1)
    cert = verify_gdb(generalized_word(params), params)
    assert cert.db1 and cert.db2 and cert.db3


def test_certificate_rejects_wrong_length():
    with pytest.raises(ValueError):
        verify_gdb(Text([0] * 8, 4), GdBParams(1, 1, 1))


def test_reference_example_words_pass():
    w32 = Text.from_string(EXAMPLE_32, 4)
    cert = verify_gdb(w32, GdBParams(2, 0, 1))
    assert cert.all_ok
    assert cert.entropy_cyclic[0] == pytest.approx(2.0, abs=1e-9)
    assert cert.entropy_cyclic[1] == pytest.approx(2.0, abs=1e-9)
    assert cert.entropy_cyclic[2] == pytest.approx(1.0, abs=1e-9)

    w16 = Text.from_string(EXAMPLE_16, 4)
    cert = verify_gdb(w16, GdBParams(1, 1, 1))
    assert cert.all_ok
    assert cert.entropy_cyclic == {0: pytest.approx(2.0), 1: pytest.approx(1.0),
                                   2: pytest.approx(1.0)}


def test_random_word_fails_db3():
    rng = random.Random(99)
    params = GdBParams(2, 1, 1)
    w = Text([rng.randrange(4) for _ in range(params.length)], 4)
    cert = verify_gdb(w, params)
    assert not cert.db3 or not cert.db1  # overwhelming probability of failure


def test_counts_match_cyclic_counter():
    params = GdBParams(2, 1, 1)
    w = generalized_word(params)
    # dB1 for i < k, dB2 otherwise, via the honest cyclic counter
    for i in range(1, params.z + 1):
        expected = params.expected_count(i)
        seen = Counter(cyclic_windows(w.symbols, i))
        if i < params.k:
            assert set(seen.values()) == {expected}
            assert len(seen) == params.sigma**i
        else:
            assert set(seen.values()) == {expected}
        # spot-check the suffix-array cyclic counter agrees
        some = list(seen)[:5]
        for pat in some:
            assert count_occurrences(w, pat, cyclic=True) == seen[pat]


def test_certificate_rejects_wrong_alphabet():
    w = generalized_word(GdBParams(1, 1, 1))
    widened = Text(w.symbols, 8)
    with pytest.raises(ValueError):
        verify_gdb(widened, GdBParams(1, 1, 1))


# -- lower bound -----------------------------------------------------------------------


def test_lower_bound_single_letter_parsing():
    params = GdBParams(2, 0, 1)
    w = generalized_word(params)
    parsing = Parsing.from_lengths(w, [1] * len(w))
    rep = lower_bound_check(w, parsing, params)
    assert rep.all_pass
    assert rep.measurements["bound_applied"]


def test_lower_bound_lz78():
    params = GdBParams(2, 1, 1)
    w = generalized_word(params)
    for parser in (lz78_parse, lz77_parse_nonself):
        parsing = parser(w)
        assert max(parsing.lengths) <= params.z
        rep = lower_bound_check(w, parsing, params)
        assert rep.all_pass, [r for r in rep.rows if not r.passed]


def test_lower_bound_repair_induced():
    from gclab.grammar import start_parsing
    from gclab.repair import repair_run

    params = GdBParams(2, 1, 1)
    w = generalized_word(params)
    g, _ = repair_run(w)
    parsing = start_parsing(g, w)
    assert max(parsing.lengths) <= params.z
    rep = lower_bound_check(w, parsing, params)
    assert rep.all_pass


def test_cyclic_entropy_nonincreasing_on_fixtures():
    # monotonicity in k is checked on the generated words only (not universal)
    for params in (GdBParams(2, 1, 1), GdBParams(1, 2, 1), GdBParams(2, 0, 2)):
        w = generalized_word(params)
        from gclab.textcore import empirical_entropy

        values = [
            empirical_entropy(w, k, cyclic=True)[1]
            for k in range(0, params.z + 2)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:])), values


def test_lower_bound_reports_precondition_breach():
    params = GdBParams(1, 1, 1)
    w = generalized_word(params)
    parsing = Parsing.from_lengths(w, [8, 8])  # phrases longer than z = 3
    rep = lower_bound_check(w, parsing, params)
    assert not rep.row("gdb_phrase_length").passed
    assert not rep.measurements["bound_applied"]
