"""Self-test of the benchmark's checks: each passes a correct output made by
gclab and rejects a deliberately corrupted copy of it.

    python3 bench/selftest.py        # exit 0 iff every case behaves
"""

from __future__ import annotations

import copy
import random
import sys
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gclab import coders, debruijn, grammar, parsing, repair  # noqa: E402
from gclab.textcore import Text  # noqa: E402


def _uv(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        out.append(byte | (0x80 if value else 0))
        if not value:
            return bytes(out)


def gcl1(sigma: int, rules, start) -> bytes:
    out = bytearray(b"GCL1") + _uv(sigma) + _uv(len(rules))
    for rhs in rules:
        out += _uv(len(rhs)) + b"".join(map(_uv, rhs))
    return bytes(out + _uv(len(start)) + b"".join(map(_uv, start)))


def cases():
    """(name, check result on the valid output, check result on the corrupted one)."""
    rng = random.Random(7)
    data = bytes(rng.randrange(4) + 97 for _ in range(600))
    g, _ = repair.repair_run(Text.from_bytes(data))
    gcl = grammar.to_binary(g)
    sigma, rules, start = checks.parse_gcl1(gcl)
    longer = [rules[0] + (97,)] + rules[1:]
    yield ("repair: rule of length 3", checks.check_repair_grammar(gcl, data),
           checks.check_repair_grammar(gcl1(sigma, longer, start), data))
    # "aaa" holds (a,a) twice but overlapping; "aaaa" twice without overlap
    yield ("repair: repeated digram in S'", checks.check_repair_grammar(gcl1(256, [], b"aaabc"), b"aaabc"),
           checks.check_repair_grammar(gcl1(256, [], b"aaaabc"), b"aaaabc"))
    bad_start = (start[0] ^ 1,) + start[1:]
    yield ("repair: wrong expansion", checks.check_repair_grammar(gcl, data),
           checks.check_repair_grammar(gcl1(sigma, rules, bad_start), data))

    expanded = bytes(g.expand_start())
    yield ("decode: decoded grammar altered", checks.check_decoded(gcl, expanded, data, "t"),
           checks.check_decoded(gcl1(sigma, rules, bad_start), expanded, data, "t"))
    yield ("decode: expansion altered", checks.check_decoded(gcl, expanded, data, "t"),
           checks.check_decoded(gcl, expanded[:-1] + b"z", data, "t"))

    gcb = coders.to_container(g, "entropy")
    short = gcb[:5] + _uv(sigma) + _uv(len(rules)) + _uv(len(start)) + _uv(8)
    yield ("entropy container: payload below |S_G|H0", checks.check_entropy_container(gcb, gcl),
           checks.check_entropy_container(short, gcl))

    text = [rng.randrange(4) for _ in range(300)]
    report = {"entries": []}
    texts = {"t.tok": text, "gdb:2,1,1": debruijn.generalized_word(debruijn.GdBParams(2, 1, 1)).symbols}
    for name, seq in texts.items():
        for algo in ("lz78", "repair"):
            m = {f"hk_total[k={k}]": checks.hk_total(seq, k) for k in (0, 1, 2)}
            report["entries"].append({"input": name, "algorithm": algo, "measurements": m, "bound_rows": []})
    ok = checks.check_report(0, report, texts, ("lz78", "repair"), (0, 1, 2))
    yield ("report: nonzero exit", ok, checks.check_report(1, report, texts, ("lz78", "repair"), (0, 1, 2)))
    broken = copy.deepcopy(report)
    broken["entries"][1] = {"input": "t.tok", "algorithm": "repair", "error": "ValueError: x"}
    yield ("report: error entry", ok, checks.check_report(0, broken, texts, ("lz78", "repair"), (0, 1, 2)))
    broken = copy.deepcopy(report)
    del broken["entries"][0]
    yield ("report: missing entry", ok, checks.check_report(0, broken, texts, ("lz78", "repair"), (0, 1, 2)))
    broken = copy.deepcopy(report)
    broken["entries"][2]["measurements"]["hk_total[k=1]"] *= 1 + 1e-7
    yield ("report: H_k off by 1e-7", ok, checks.check_report(0, broken, texts, ("lz78", "repair"), (0, 1, 2)))

    for params in ((2, 0, 1), (1, 3, 1), (2, 1, 2)):
        word = list(debruijn.generalized_word(debruijn.GdBParams(*params)).symbols)
        ok = checks.check_gdb_word(word, *params)
        altered = word.copy()
        altered[3] = (altered[3] + 1) % (4 ** params[2])
        yield (f"gdb{params}: one letter changed", ok, checks.check_gdb_word(altered, *params))
        swapped = word.copy()
        i = next(j for j in range(1, len(word)) if word[j] != word[0])
        swapped[0], swapped[i] = swapped[i], swapped[0]
        yield (f"gdb{params}: two letters swapped", ok, checks.check_gdb_word(swapped, *params))
        yield (f"gdb{params}: truncated", ok, checks.check_gdb_word(word[:-1], *params))
        yield (f"gdb{params}: letter outside the alphabet", ok,
               checks.check_gdb_word(word[:-1] + [4 ** params[2]], *params))

    word = debruijn.generalized_word(debruijn.GdBParams(1, 5, 1))
    lz78 = [list(p) for p in parsing.lz78_parse(word).phrases]
    ok = checks.check_concatenation(word.symbols, lz78, "t")
    yield ("parsing: phrase dropped", ok, checks.check_concatenation(word.symbols, lz78[:5] + lz78[6:], "t"))
    merged = lz78[:10] + [lz78[10] + lz78[11]] + lz78[12:]
    yield ("lz78: two phrases merged", checks.check_lz78(lz78, "t"), checks.check_lz78(merged, "t"))
    repeated = lz78[:10] + [lz78[9]] + lz78[10:]
    yield ("lz78: phrase repeated", checks.check_lz78(lz78, "t"), checks.check_lz78(repeated, "t"))
    lz77 = [list(p) for p in parsing.lz77_parse_nonself(word).phrases]
    merged = lz77[:20] + [lz77[20] + lz77[21]] + lz77[22:]
    yield ("lz77ns: two phrases merged", checks.check_lz77ns(word.symbols, lz77, 1, 10**6, "t"),
           checks.check_lz77ns(word.symbols, merged, 1, 10**6, "t"))


def main() -> int:
    bad = 0
    total = 0
    for name, valid, corrupted in cases():
        total += 1
        if valid or not corrupted:
            bad += 1
            print(f"FAIL {name}: valid={valid} corrupted={corrupted}")
        else:
            print(f"ok   {name}: {corrupted[0]}")
    print(f"selftest: {total - bad}/{total} cases behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
