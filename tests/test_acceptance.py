"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Corpus (fixed seeds):
  * 200 random texts, sigma cycling {2, 4, 16, 256}, n log-uniform in [24, 1500];
  * sigma=2 texts with n in {70000, 100000} for the non-vacuous Re-Pair
    threshold case (16n/log_sigma n < n needs n > sigma^16);
  * the Re-Pair worst-case family at n in {64, 256, 1024};
  * the full generalized de Bruijn grid with word length <= 2^20
    (criterion 7), sub-capped per parser for the lower-bound suite
    (criterion 8: <= 2^12 for Greedy, <= 2^16 for LZ78/LZ77ns/Re-Pair);
  * both reference example words.

Two literal statements are strict-xfail with the analysis inline: the
often-quoted Elias-delta length form (falsified at n = 2, 8, ...) and the
lower cyclic-entropy sandwich (falsified by the boundary term of the
substring-count convention, e.g. "abab" at k = 1).  The corrected forms are
asserted green here.
"""

import math
import random
import time

import pytest

from gclab.coders import (
    ENCODINGS,
    elias_delta_decode,
    elias_delta_encode,
    elias_delta_length,
    encode,
    from_container,
    huffman_encode,
    sequence_entropy_bits,
    to_container,
)
from gclab.debruijn import GdBParams, generalized_word, lower_bound_check, verify_gdb
from gclab.grammar import (
    FullGrammar,
    canonicalized,
    check_irreducible,
    metrics,
    start_parsing,
)
from gclab.greedy import GreedyPolicy, greedy_run, greedy_stop_report
from gclab.parsing import (
    Parsing,
    best_offset_parsing,
    is_natural_parsing,
    lz77_parse_nonself,
    lz78_parse,
    parsing_cost,
)
from gclab.repair import (
    StopPolicy,
    log_sigma,
    repair_run,
    repair_threshold,
    stop_point_report,
    worst_case_family,
)
from gclab.textcore import Text, empirical_entropy

LOG2E = math.log2(math.e)
SEED = 20240811
TOL = 1e-6
K_RANGE = range(0, 5)

EXAMPLE_32 = "aababcbbadccdbddaacadaccbdbbcddc"
EXAMPLE_16 = "abbbdacdcacabdcd"


def say(criterion, message):
    print(f"\nACCEPTANCE {criterion}: {message}")


def _random_corpus():
    rng = random.Random(SEED)
    sigmas = (2, 4, 16, 256)
    out = []
    for i in range(200):
        sigma = sigmas[i % 4]
        n = int(24 * (1500 / 24) ** rng.random())
        out.append((f"rnd{i:03d}/s{sigma}/n{n}", Text(
            [rng.randrange(sigma) for _ in range(n)], sigma)))
    return out


def _gdb_grid(max_len):
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


@pytest.fixture(scope="module")
def corpus():
    return _random_corpus()


@pytest.fixture(scope="module")
def compressed(corpus):
    """Run-to-end Re-Pair and Greedy over the whole corpus, timed."""
    t0 = time.monotonic()
    out = {}
    for name, text in corpus:
        out[name] = (text, repair_run(text), greedy_run(text))
    return out, time.monotonic() - t0


@pytest.fixture(scope="module")
def gdb_words():
    words = {}
    for params in _gdb_grid(1 << 16):
        words[(params.k, params.l, params.p)] = (params, generalized_word(params))
    return words


# -- criterion 1: parsing bound suite --------------------------------------------------


def test_criterion_01_parsing_bound_suite(corpus, compressed):
    runs, build_seconds = compressed
    t0 = time.monotonic()
    checked = 0
    for name, text in corpus:
        _, (g_r, _), (g_g, _) = runs[name]
        parsings = [lz78_parse(text), lz77_parse_nonself(text),
                    start_parsing(g_r, text), start_parsing(g_g, text)]
        parsings += [best_offset_parsing(text, l) for l in (2, 4, 8) if l <= len(text)]
        n = len(text)
        logsig = math.log2(text.sigma)
        hk = {k: empirical_entropy(text, k)[0] for k in K_RANGE}
        for parsing in parsings:
            y_h0 = parsing.entropy_bits()
            l_h0 = parsing.lengths_entropy_bits()
            for k in K_RANGE:
                rep = parsing_cost(parsing, k)
                assert y_h0 <= rep.k_cost_bits + l_h0 + TOL, (name, k)
                assert rep.k_cost_bits <= hk[k] + len(parsing) * k * logsig + TOL, (
                    name,
                    k,
                )
                checked += 1
    elapsed = time.monotonic() - t0 + build_seconds
    assert elapsed < 300, f"criterion 1 took {elapsed:.1f}s"
    say(1, f"PASS parsing bounds: {checked} (text,parser,k) cells in {elapsed:.1f}s")


# -- criterion 2: mean-of-entropies offset parsing ---------------------------------------


def test_criterion_02_mean_entropy(corpus):
    checked = 0
    for name, text in corpus:
        n = len(text)
        h = [empirical_entropy(text, i)[0] for i in range(8)]
        for l in (2, 4, 8):
            if l > n:
                continue
            parsing = best_offset_parsing(text, l)
            cost = parsing_cost(parsing).cost_bits
            assert cost <= sum(h[:l]) / l + math.log2(n) + TOL, (name, l)
            assert len(parsing) <= math.ceil(n / l) + 1
            checked += 1
    say(2, f"PASS mean-entropy bound on {checked} (text,l) cells")


# -- criterion 3: Huffman sandwich + Elias delta ------------------------------------------


def test_criterion_03_huffman_sandwich(corpus):
    rng = random.Random(SEED + 3)
    checked = 0
    for _ in range(300):
        sigma = rng.choice([2, 4, 16, 300])
        seq = [rng.randrange(sigma) for _ in range(rng.randrange(1, 400))]
        _, _, br = huffman_encode(seq)
        h0 = sequence_entropy_bits(seq)
        assert h0 - 1e-9 <= br.payload_bits <= h0 + len(seq) + 1e-9
        checked += 1
    for name, text in corpus[:40]:
        g, _ = repair_run(text)
        _, _, br = huffman_encode(g.start, g.sigma + len(g.rules))
        h0 = sequence_entropy_bits(g.start)
        assert h0 - 1e-9 <= br.payload_bits <= h0 + len(g.start) + 1e-9
        checked += 1
    say(3, f"PASS Huffman sandwich on {checked} encoding invocations")


def test_criterion_03_elias_delta_corrected_exhaustive():
    bad_literal = []
    for n in range(1, (1 << 20) + 1):
        nbits = n.bit_length()
        ln = nbits + 2 * (nbits.bit_length() - 1)
        corrected = (math.log2(n) + 2 * math.log2(1 + math.log2(n)) + 1) if n > 1 else 1
        assert ln <= corrected + 1e-9, n
        if n < 4096:
            literal = math.log2(n) + 2 * math.log2(math.log2(1 + n)) + 1
            if ln > literal + 1e-9:
                bad_literal.append(n)
    # spot-check the length formula against real encodings
    for n in [1, 2, 3, 17, 255, 256, 65535, 1 << 19, (1 << 20) - 1]:
        s = elias_delta_encode(n)
        assert len(s) == elias_delta_length(n) and elias_delta_decode(s) == n
    say(
        3,
        "PASS Elias delta <= log n + 2 log(1+log n) + 1 for all n <= 2^20 "
        f"(the log log(1+n) variant fails at {bad_literal[:6]}...)",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the often-quoted form log n + 2 log log(1+n) + 1 fails for "
    "standard Elias delta at n = 2, 8, 9, 10, 128, ...; the tight form is "
    "asserted in the companion test",
)
def test_criterion_03_elias_delta_literal_bound():
    for n in range(1, 1 << 12):
        assert elias_delta_length(n) <= math.log2(n) + 2 * math.log2(
            math.log2(1 + n)
        ) + 1 + 1e-9


# -- criterion 4: Re-Pair stop point ----------------------------------------------------


def test_criterion_04_repair_stop_point(corpus, compressed):
    runs, _ = compressed
    rng = random.Random(SEED + 4)
    big = [
        ("big/s2/n70000", Text([rng.randrange(2) for _ in range(70000)], 2)),
        ("big/s2/n100000", Text([rng.randrange(2) for _ in range(100000)], 2)),
    ]
    nontrivial = 0
    for name, text in list(corpus) + big:
        n = len(text)
        thr = repair_threshold(n, text.sigma)
        _, trace = repair_run(text, StopPolicy.working_threshold())
        rep = stop_point_report(trace, text)
        assert rep.all_pass, (name, rep.rows)
        if n > thr:
            nontrivial += 1
            assert trace.stopped_by == "threshold"
            lens = [trace.initial_length] + [s.working_len for s in trace.steps]
            assert lens[-1] < thr and all(x >= thr for x in lens[:-1])
            assert len(trace.steps) <= math.sqrt(n) * log_sigma(n, text.sigma)
        freqs = [s.frequency for s in trace.steps]
        assert all(a >= b for a, b in zip(freqs, freqs[1:]))
    # monotonicity also on every run-to-end trace
    for name, text in corpus:
        freqs = [s.frequency for s in runs[name][1][1].steps]
        assert all(a >= b for a, b in zip(freqs, freqs[1:])), name
    assert nontrivial >= 2
    say(4, f"PASS stop point on {len(corpus) + 2} texts "
           f"({nontrivial} with initial length above the threshold)")


# -- criterion 5: Re-Pair worst case ------------------------------------------------------


def test_criterion_05_repair_worst_case():
    ratios = []
    for n in (64, 256, 1024):
        text = worst_case_family(n)
        size = len(text)  # 4n
        g, trace = repair_run(text)
        assert len(g.rules) == size // 4
        sigma = text.sigma
        expected = tuple(range(sigma, sigma + n)) + tuple(
            range(sigma + n - 1, sigma - 1, -1)
        )
        assert g.start == expected
        assert g.rules == tuple((i, n) for i in range(n))
        _, br = encode(g, "incremental")
        floor = 0.75 * size * math.log2(size) - 6.0 * size
        assert br.total_bits >= floor, (n, br.total_bits, floor)
        h0, _ = empirical_entropy(text, 0)
        assert h0 == pytest.approx(size / 2 * math.log2(size), abs=1e-6)
        ratios.append(br.total_bits / h0)
    assert all(r >= 1.2 for r in ratios)  # 1.5 - o(1), measured below
    say(5, "PASS worst-case family: |S|/4 rules, palindromic start, "
           f"incremental >= 0.75 n log n - 6n; ratios vs |S|H0: "
           + ", ".join(f"{r:.3f}" for r in ratios))


# -- criterion 6: Greedy stop point --------------------------------------------------------


def test_criterion_06_greedy_stop_point(corpus, compressed):
    runs, _ = compressed
    for name, text in corpus[:60]:
        _, trace = greedy_run(text, GreedyPolicy.full_threshold())
        rep = greedy_stop_report(trace, text)
        assert rep.all_pass, (name, rep.rows)
        n = len(text)
        assert len(trace.steps) <= math.sqrt(n) * log_sigma(n, text.sigma) + 3
    ig_checked = 0
    for name, text in corpus:
        _, _, (g, trace) = runs[name]
        size = trace.initial_size
        for step in trace.steps:
            assert step.gain == (step.frequency - 1) * (len(step.substring) - 1) - 1
            size -= step.gain
            assert step.full_size_after == size, name
        res = check_irreducible(g)
        assert res.all_ok, (name, res)
        n = len(text)
        assert metrics(g).rhs_size_full <= 64.0 * n / log_sigma(n, text.sigma)
        ig_checked += 1
    say(6, f"PASS greedy stop + IG1-IG3 + exact gain accounting on {ig_checked} texts")


# -- criterion 7: de Bruijn certificates ------------------------------------------------------


def test_criterion_07_debruijn_certificates():
    grid = _gdb_grid(1 << 20)
    assert len(grid) > 80
    worst_slack = 0.0
    total_len = 0
    for params in grid:
        word = generalized_word(params)
        total_len += len(word)
        cert = verify_gdb(word, params)
        assert cert.db1 and cert.db2 and cert.db3, (params,)
        assert cert.tables_consistent
        assert cert.entropy_cyclic_ok and cert.entropy_linear_ok, (params,)
        assert cert.slack_constant <= 4.0, (params, cert.slack_constant)
        worst_slack = max(worst_slack, cert.slack_constant)

    for word_str, (k, l) in ((EXAMPLE_32, (2, 0)), (EXAMPLE_16, (1, 1))):
        params = GdBParams(k, l, 1)
        cert = verify_gdb(Text.from_string(word_str, 4), params)
        assert cert.all_ok
        for i, per in cert.entropy_cyclic.items():
            target = 2.0 if i < k else 1.0
            assert per == pytest.approx(target, abs=1e-9)
    say(7, f"PASS {len(grid)} grid words (total {total_len} symbols) + both "
           f"reference words; measured entropy slack <= {worst_slack:.3f} (pinned 4)")


# -- criterion 8: lower-bound suite ------------------------------------------------------------


def test_criterion_08_lower_bound_suite(gdb_words):
    checked = 0
    worst_lambda = 0.0
    for (k, l, p), (params, word) in sorted(gdb_words.items()):
        parser_runs = []
        if len(word) <= 1 << 16:
            parser_runs.append(("lz78", lz78_parse(word)))
            parser_runs.append(("lz77ns", lz77_parse_nonself(word)))
            parser_runs.append(("repair", start_parsing(repair_run(word)[0], word)))
        if len(word) <= 1 << 12:
            parser_runs.append(("greedy", start_parsing(greedy_run(word)[0], word)))
        for pname, parsing in parser_runs:
            assert max(parsing.lengths) <= params.z, (k, l, p, pname)
            ok, violations = is_natural_parsing(parsing)
            assert ok, (k, l, p, pname, violations[:5])
            rep = lower_bound_check(word, parsing, params)
            assert rep.measurements["bound_applied"]
            assert rep.all_pass, (k, l, p, pname,
                                  [r for r in rep.rows if not r.passed])
            worst_lambda = max(worst_lambda, rep.measurements["lambda"])
            checked += 1
    assert worst_lambda < 0.54
    assert worst_lambda <= LOG2E / math.e + 1e-9
    say(8, f"PASS lower bounds for {checked} (word,parser) pairs; "
           f"max lambda {worst_lambda:.4f} < 0.54")


# -- criterion 9: round trips --------------------------------------------------------------------


def test_criterion_09_round_trips(corpus, compressed):
    rng = random.Random(SEED + 9)
    for i in range(500):
        sigma = rng.randrange(1, 10)
        n_rules = rng.randrange(0, 12)
        rules = [
            (rng.randrange(sigma + j), rng.randrange(sigma + j))
            for j in range(n_rules)
        ]
        start = [rng.randrange(sigma + n_rules) for _ in range(rng.randrange(1, 16))]
        g = FullGrammar(sigma, start, rules)
        for enc in ENCODINGS:
            g2, _ = from_container(to_container(g, enc))
            if enc == "incremental":
                assert canonicalized(g2) == canonicalized(g), (i, enc)
            else:
                assert g2 == g, (i, enc)
            assert g2.expand_start() == g.expand_start()

    runs, _ = compressed
    enc_checked = 0
    for name, text in corpus[:30]:
        _, (g_r, _), (g_g, _) = runs[name]
        for g in (g_r, g_g):
            for enc in ENCODINGS:
                if enc == "incremental" and not g.is_cnf:
                    continue
                g2, _ = from_container(to_container(g, enc))
                assert g2.expand_start() == text.symbols
                enc_checked += 1

    # expand(start) == input after every compressor iteration
    iter_checked = 0
    for name, text in corpus[:10]:
        def check(g, _text=text):
            assert g.expand_start() == _text.symbols

        repair_run(text, on_step=check)
        greedy_run(text, on_step=check)
        iter_checked += 1
    say(9, f"PASS 500 random grammars x 4 encodings, {enc_checked} compressor-output "
           f"containers, per-iteration identity on {iter_checked} texts")


# -- criterion 10: cyclic entropy sandwich ----------------------------------------------------------


def _sandwich_corpus(corpus, gdb_words):
    texts = list(corpus)
    texts += [("example32", Text.from_string(EXAMPLE_32, 4)),
              ("example16", Text.from_string(EXAMPLE_16, 4)),
              ("worst64", worst_case_family(64))]
    for (k, l, p), (_, word) in sorted(gdb_words.items()):
        if len(word) <= 4096:
            texts.append((f"gdb:{k},{l},{p}", word))
    return texts


def test_criterion_10_cyclic_sandwich_upper(corpus, gdb_words):
    checked = 0
    for name, text in _sandwich_corpus(corpus, gdb_words):
        n = len(text)
        for k in range(0, min(9, n)):
            lin, _ = empirical_entropy(text, k)
            cyc, _ = empirical_entropy(text, k, cyclic=True)
            assert cyc <= lin + k * math.log2(n) + 8.0 * k + 1e-9, (name, k)
            checked += 1
    say(10, f"PASS upper sandwich |S|Hk_cyc <= |S|Hk + k log n + 8k on {checked} cells")


def test_criterion_10_cyclic_sandwich_lower_corrected(corpus, gdb_words):
    checked = 0
    for name, text in _sandwich_corpus(corpus, gdb_words):
        for k in range(0, min(9, len(text))):
            lin, _ = empirical_entropy(text, k)
            cyc, _ = empirical_entropy(text, k, cyclic=True)
            assert lin <= cyc + LOG2E + 1e-9, (name, k)
            checked += 1
    say(10, f"PASS corrected lower sandwich |S|Hk <= |S|Hk_cyc + log2(e) "
            f"on {checked} cells (the bare form fails by at most log2(e))")


@pytest.mark.xfail(
    strict=True,
    reason="|S|Hk <= |S|Hk_cyclic fails under the substring-count "
    "convention the exact cost identities require (counterexample abab at "
    "k=1; generalized de Bruijn words violate it too); the corrected form "
    "with the log2(e) boundary term is asserted in the companion test",
)
def test_criterion_10_cyclic_sandwich_lower_literal(corpus, gdb_words):
    for name, text in _sandwich_corpus(corpus, gdb_words):
        for k in range(0, min(9, len(text))):
            lin, _ = empirical_entropy(text, k)
            cyc, _ = empirical_entropy(text, k, cyclic=True)
            assert lin <= cyc + 1e-9, (name, k)
