"""Output checks made apart from gclab.

Each check takes plain bytes, tuples and numbers (never a gclab object),
recomputes what it needs with its own code, and returns a list of failure
messages: empty means the output passed.  The file formats are read here
from their published layout (README "File formats"), not with gclab's
readers.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np

GCL1 = b"GCL1"
GCB1 = b"GCB1"
# GCB1 encoding tags, in tag order
ENCODINGS = ("fully_naive", "naive", "entropy", "incremental")
ENTROPY_TAG = ENCODINGS.index("entropy")


def _varint(data: bytes, pos: int) -> tuple[int, int]:
    value = shift = 0
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
        shift += 7


def parse_gcl1(data: bytes) -> tuple[int, list[tuple], tuple]:
    """(sigma, rules, start) of a GCL1 file."""
    if data[:4] != GCL1:
        raise ValueError("not a GCL1 file")
    pos = 4
    sigma, pos = _varint(data, pos)
    n_rules, pos = _varint(data, pos)
    rules = []
    for _ in range(n_rules):
        length, pos = _varint(data, pos)
        rhs = []
        for _ in range(length):
            sym, pos = _varint(data, pos)
            rhs.append(sym)
        rules.append(tuple(rhs))
    length, pos = _varint(data, pos)
    start = []
    for _ in range(length):
        sym, pos = _varint(data, pos)
        start.append(sym)
    if pos != len(data):
        raise ValueError("trailing bytes")
    return sigma, rules, tuple(start)


def gcb1_header(data: bytes) -> tuple[int, int, int, int, int]:
    """(tag, sigma, n_rules, start_len, payload_bits) of a GCB1 container."""
    if data[:4] != GCB1:
        raise ValueError("not a GCB1 container")
    pos = 5
    fields = []
    for _ in range(4):
        value, pos = _varint(data, pos)
        fields.append(value)
    return (data[4], *fields)


def expand_bytes(sigma: int, rules, start) -> bytes:
    """Expansion of a byte grammar (sigma <= 256), one rule at a time."""
    exp: list[bytes] = []
    for i, rhs in enumerate(rules):
        if any(s >= sigma + i for s in rhs):
            raise ValueError(f"rule {i} references an undefined id")
        exp.append(b"".join(bytes((s,)) if s < sigma else exp[s - sigma] for s in rhs))
    return b"".join(bytes((s,)) if s < sigma else exp[s - sigma] for s in start)


def repeated_digram(seq) -> tuple | None:
    """A digram with two non-overlapping occurrences in seq, else None."""
    next_free: dict[tuple, int] = {}
    seen: set = set()
    for i in range(len(seq) - 1):
        pair = (seq[i], seq[i + 1])
        if pair in seen:
            if next_free[pair] <= i:
                return pair
            continue
        seen.add(pair)
        next_free[pair] = i + 2
    return None


def h0_bits(seq) -> float:
    """|seq| H_0(seq) in bits, from a plain Counter."""
    n = len(seq)
    return sum(c * math.log2(n / c) for c in Counter(seq).values())


# -- compress ---------------------------------------------------------------


def check_repair_grammar(gcl: bytes, original: bytes) -> list[str]:
    """Re-Pair output: binary rules, no repeated digram left in S'."""
    try:
        sigma, rules, start = parse_gcl1(gcl)
    except (ValueError, IndexError) as exc:
        return [f"repair output unreadable: {exc}"]
    out = []
    long_rules = [i for i, rhs in enumerate(rules) if len(rhs) != 2]
    if long_rules:
        out.append(f"{len(long_rules)} Re-Pair rules do not have length 2, e.g. rule {long_rules[0]}")
    pair = repeated_digram(start)
    if pair is not None:
        out.append(f"digram {pair} occurs twice without overlap in the final S'")
    try:
        if expand_bytes(sigma, rules, start) != original:
            out.append("Re-Pair grammar does not expand to the input")
    except ValueError as exc:
        out.append(f"Re-Pair grammar invalid: {exc}")
    return out


def check_decoded(decoded_gcl: bytes, expanded: bytes, original: bytes, label: str) -> list[str]:
    """A decoded grammar, and gclab's expansion of it, give back the input."""
    out = []
    try:
        if expand_bytes(*parse_gcl1(decoded_gcl)) != original:
            out.append(f"{label}: decoded grammar does not expand to the input")
    except (ValueError, IndexError) as exc:
        out.append(f"{label}: decoded grammar unreadable: {exc}")
    if expanded != original:
        out.append(f"{label}: expand_start differs from the input")
    return out


def check_entropy_container(gcb: bytes, gcl: bytes) -> list[str]:
    """The entropy container holds at least |S_G| H_0(S_G) payload bits."""
    try:
        tag, _sigma, _n_rules, _start_len, payload_bits = gcb1_header(gcb)
        _, rules, start = parse_gcl1(gcl)
    except (ValueError, IndexError) as exc:
        return [f"entropy container unreadable: {exc}"]
    if tag != ENTROPY_TAG:
        return [f"entropy container has tag {tag}"]
    s_g = list(start)
    for rhs in rules:
        s_g.extend(rhs)
    bound = h0_bits(s_g)
    if payload_bits < bound - 1e-6:
        return [f"entropy container has {payload_bits} bits < |S_G|H0(S_G) = {bound:.3f}"]
    return []


# -- report -----------------------------------------------------------------


def hk_total(seq, k: int) -> float:
    """|S| H_k(S): context counts include the context's final occurrence,
    and the empty context counts |S|."""
    n = len(seq)
    if n == 0 or k + 1 > n:
        return 0.0
    ctx = Counter(tuple(seq[i : i + k]) for i in range(n - k + 1)) if k else {(): n}
    ext = Counter(tuple(seq[i : i + k + 1]) for i in range(n - k))
    total = sum(c * math.log2(ctx[w[:k]] / c) for w, c in ext.items())
    return max(total, 0.0)


def check_report(exit_code: int, report: dict, texts: dict, algorithms, k_list) -> list[str]:
    """Exit 0, one error-free entry per input x algorithm, exact H_k totals."""
    out = []
    if exit_code != 0:
        out.append(f"report exited {exit_code}")
    entries = report.get("entries", [])
    errors = [e for e in entries if "error" in e]
    if errors:
        out.append(f"{len(errors)} error entries, e.g. {errors[0]['error']}")
    if len(entries) != len(texts) * len(algorithms):
        out.append(f"{len(entries)} entries, expected {len(texts) * len(algorithms)}")
    expected = {(name, k): hk_total(seq, k) for name, seq in texts.items() for k in k_list}
    for e in entries:
        if "error" in e:
            continue
        for k in k_list:
            got = e["measurements"].get(f"hk_total[k={k}]")
            want = expected.get((e["input"], k))
            if got is None or want is None or not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9):
                out.append(f"{e['input']}/{e['algorithm']}: hk_total[k={k}] = {got}, expected {want}")
    return out


# -- adversary --------------------------------------------------------------


def cyclic_count_tables(word: np.ndarray, sigma: int, z: int) -> dict[int, Counter]:
    """For i = 1..z: {occurrence count: number of distinct words}, cyclically."""
    if z * math.log2(sigma) > 62:
        raise ValueError("window codes would overflow int64")
    n = len(word)
    ext = np.concatenate([word, word[: z - 1]]).astype(np.int64)
    codes = np.zeros(n, dtype=np.int64)
    tables = {}
    for i in range(1, z + 1):
        codes = codes * sigma + ext[i - 1 : i - 1 + n]
        _, counts = np.unique(codes, return_counts=True)
        tables[i] = Counter(counts.tolist())
    return tables


def check_gdb_word(word, k: int, l: int, p: int) -> list[str]:
    """Length sigma^(k+(l+1)/2) over sigma = 4^p, and dB1-dB3 exactly."""
    sigma = 4**p
    z = k + l + 1
    n = 2 ** (p * (2 * k + l + 1))
    label = f"gdb({k},{l},{p})"
    if len(word) != n:
        return [f"{label}: length {len(word)}, expected {n}"]
    arr = np.asarray(word, dtype=np.int64)
    if arr.min() < 0 or arr.max() >= sigma:
        return [f"{label}: symbol outside the alphabet of size {sigma}"]
    out = []
    for i, table in cyclic_count_tables(arr, sigma, z).items():
        if i < k:
            # dB1: every one of the sigma^i words occurs sigma^(k-i+(l+1)/2) times
            want = {2 ** (p * (2 * (k - i) + l + 1)): sigma**i}
            if table != want:
                out.append(f"{label}: dB1 fails at length {i}: {dict(table)} != {want}")
        elif set(table) != {2 ** (p * (z - i))}:
            # dB2 (dB3 at i = z): every occurring word occurs sigma^((z-i)/2) times
            out.append(f"{label}: dB2/dB3 fails at length {i}: counts {sorted(table)}")
    return out


def check_concatenation(word, phrases, label: str) -> list[str]:
    flat = [s for ph in phrases for s in ph]
    if flat != list(word):
        return [f"{label}: phrases do not concatenate to the word"]
    if any(len(ph) == 0 for ph in phrases):
        return [f"{label}: empty phrase"]
    return []


def check_lz78(phrases, label: str) -> list[str]:
    """Every phrase is an earlier phrase (or empty) plus one letter; the last
    phrase may repeat an earlier one when the word ends inside the trie."""
    seen = {()}
    for i, ph in enumerate(phrases):
        ph = tuple(ph)
        last = i == len(phrases) - 1
        if ph[:-1] not in seen and not (last and ph in seen):
            return [f"{label}: phrase {i} does not extend an earlier phrase"]
        if ph in seen and not last:
            return [f"{label}: phrase {i} repeats an earlier phrase"]
        seen.add(ph)
    return []


def check_lz77ns(word, phrases, seed: int, sample: int, label: str) -> list[str]:
    """For a seeded sample of phrases (all of them when there are few), the
    phrase minus its last letter occurs inside the preceding prefix."""
    if max(word, default=0) >= 256:
        raise ValueError("byte search needs symbols below 256")
    data = bytes(word)
    starts = [0]
    for ph in phrases:
        starts.append(starts[-1] + len(ph))
    idx = range(len(phrases))
    if len(phrases) > sample:
        idx = sorted(random.Random(seed).sample(idx, sample))
    for i in idx:
        body = bytes(phrases[i][:-1])
        if body and data.find(body, 0, starts[i]) < 0:
            return [f"{label}: phrase {i} minus its last letter is not in the prefix"]
    return []
