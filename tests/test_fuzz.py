"""Seeded mutation fuzzing of GCL1 files, GCB1 containers, token text and
parsing files.

Every mutated file of the golden corpus must decode or raise
MalformedStreamError; any other exception, or a slow run, fails.  Through
the CLI, every command on a mutated file must exit 0, 1 or 2, raise nothing
and finish within a per-case time bound.
"""

import random
import time

from gclab import coders
from gclab.bits import MalformedStreamError, read_uvarint, uvarint_bytes
from gclab.grammar import FullGrammar, from_binary, to_binary
from gclab.labcli import fixture_text, main
from gclab.parsing import lz78_parse
from gclab.repair import repair_run

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


def mutate_bytes(rng: random.Random, data: bytes, kind: int) -> bytes:
    if kind == 0:  # flip one bit
        i = rng.randrange(len(data))
        return data[:i] + bytes([data[i] ^ (1 << rng.randrange(8))]) + data[i + 1 :]
    if kind == 1:  # cut the tail
        return data[: rng.randrange(len(data))]
    # insert one byte
    i = rng.randrange(len(data) + 1)
    return data[:i] + bytes([rng.randrange(256)]) + data[i:]


def mutate(rng: random.Random, data: bytes) -> bytes:
    kind = rng.randrange(4)
    if kind < 3:
        return mutate_bytes(rng, data, kind)
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


CLI_CASES = 240
CASE_LIMIT_S = 2.0


def mutate_tokens(rng: random.Random, data: bytes) -> bytes:
    """A byte mutation, or one whitespace-separated token replaced: a header
    value by an edge of its range, a number by junk, a negative, zero or a
    long number."""
    if rng.randrange(2):
        return mutate_bytes(rng, data, rng.randrange(3))
    tokens = data.split()
    i = rng.randrange(len(tokens))
    if tokens[i].startswith((b"sigma=", b"n=")):
        head = tokens[i].split(b"=")[0]
        value = rng.choice([0, 1, 2, 1 << 32, (1 << 32) + 1, 1 << 64, -3])
        tokens[i] = head + b"=" + str(value).encode()
    else:
        tokens[i] = rng.choice([b"-1", b"0", b"x", b"1.5", b"9" * rng.randrange(1, 30)])
    return b"\n".join(tokens) + b"\n"


def cli_cases(rng: random.Random, tmp_path):
    """(argv) of each case: a mutated file and the command that reads it."""
    text = fixture_text("random:3,60,5")
    tokens = text.to_tokens().encode()
    parsing = lz78_parse(text).dumps().encode()
    grammar = repair_run(text)[0]
    gcl1 = to_binary(grammar)
    containers = [coders.to_container(grammar, enc) for enc in coders.ENCODINGS]
    good_text = tmp_path / "text.tok"
    good_text.write_bytes(tokens)
    out = str(tmp_path / "out")
    for i in range(CLI_CASES):
        path = tmp_path / f"case{i}"
        kind = i % 6
        k = str(rng.randrange(4))
        if kind == 0:
            path.write_bytes(mutate_tokens(rng, tokens))
            yield ["entropy", str(path), "--k", k, "--out", out] + ["--cyclic"] * rng.randrange(2)
        elif kind == 1:
            path.write_bytes(mutate_tokens(rng, tokens))
            algorithm = rng.choice(["lz78", "lz77ns", "offset"])
            yield ["parse", str(path), "--algorithm", algorithm, "--l", str(rng.randrange(-1, 9)),
                   "--k", k, "--out", out]
        elif kind == 2:
            path.write_bytes(mutate_tokens(rng, parsing))
            yield ["verify", "--text", str(good_text), "--parsing", str(path), "--k", k, "--out", out]
        elif kind == 3:
            path.write_bytes(mutate(rng, gcl1))
            yield ["encode", str(path), "--encoding", rng.choice(coders.ENCODINGS), "--out", out]
        elif kind == 4:
            path.write_bytes(mutate(rng, rng.choice(containers)))
            yield ["decode", str(path), "--out", out]
        else:
            path.write_bytes(mutate_tokens(rng, tokens))
            yield ["report", str(path), "--algorithms", "repair,greedy,lz78,offset-parse",
                   "--encodings", ",".join(coders.ENCODINGS), "--k", "0,1", "--offsets", "2",
                   "--out", out]


def huge_alphabet_case(tmp_path):
    # a 40-byte GCL1 file whose codebook domain, sigma + |G| > 2^60, no
    # encoder may allocate
    sigma = 1 << 60
    path = tmp_path / "huge.gcl"
    path.write_bytes(to_binary(FullGrammar(sigma, (sigma, sigma - 1, 0, sigma), [(sigma - 1, 0)])))
    for enc in coders.ENCODINGS:
        yield ["encode", str(path), "--encoding", enc, "--out", str(tmp_path / "huge.gcb")]


def test_cli_on_mutated_files_exits_cleanly(tmp_path, capsys):
    rng = random.Random(4242)
    codes = {0: 0, 1: 0, 2: 0}
    for argv in [*huge_alphabet_case(tmp_path), *cli_cases(rng, tmp_path)]:
        t0 = time.perf_counter()
        rc = main(argv)
        elapsed = time.perf_counter() - t0
        assert rc in codes, argv
        assert elapsed < CASE_LIMIT_S, (argv, elapsed)
        codes[rc] += 1
    capsys.readouterr()
    assert codes[0] and codes[2], codes


def test_cli_refuses_a_huge_codebook_domain(tmp_path, capsys):
    for argv in huge_alphabet_case(tmp_path):
        t0 = time.perf_counter()
        rc = main(argv)
        assert time.perf_counter() - t0 < 1.0
        if argv[3] == "fully_naive":
            assert rc == 0
        else:
            assert rc == 2, argv
            assert "codebook domain" in capsys.readouterr().err
