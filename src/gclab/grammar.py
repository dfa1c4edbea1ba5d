"""Full grammars (starting string + rules), expansion, size metrics, and the
structural predicates: IG1-IG3 irreducibility and weak non-redundancy.

Symbol ids are sigma-offset integers: ids below sigma are terminals, rule i
defines nonterminal sigma + i, and a rule may reference only terminals and
previously defined nonterminals (the grammar is acyclic by construction).
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import bits
from .parsing import Parsing
from .textcore import Text

_MAGIC = b"GCL1"
MAX_EXPANSION = 1 << 26  # symbols one expansion may build
MAX_FILL = 1 << 28  # tuple slots the cached rule expansions may hold in all


class ExpansionTooLargeError(ValueError):
    """An expansion would build more than MAX_EXPANSION symbols, or fill the
    rule cache with more than MAX_FILL."""


class FullGrammar:
    """Starting string S' plus ordered rules; immutable after construction."""

    __slots__ = ("sigma", "start", "rules", "_expansions", "_len_cache", "_rule_bounds", "_text")

    def __init__(self, sigma: int, start, rules):
        if sigma < 1:
            raise ValueError("sigma must be >= 1")
        start = tuple(start)
        rules = tuple(tuple(r) for r in rules)
        for i, rhs in enumerate(rules):
            if not rhs:
                raise ValueError(f"rule {i} has an empty right-hand side")
            for s in rhs:
                if not 0 <= s < sigma + i:
                    raise ValueError(
                        f"rule {i} references id {s}, not previously defined"
                    )
        limit = sigma + len(rules)
        for s in start:
            if not 0 <= s < limit:
                raise ValueError(f"start references undefined id {s}")
        self.sigma = sigma
        self.start = start
        self.rules = rules
        self._expansions: list[tuple] = []  # exp(rule i) for i < len, built in id order
        self._len_cache: list[int] | None = None
        self._rule_bounds: tuple[int, int] | None = None  # max and sum of |exp(X)|
        self._text: Text | None = None

    # -- basic views --------------------------------------------------------

    def n_nonterminals(self) -> int:
        return len(self.rules)

    def rhs(self, sym: int) -> tuple:
        return self.rules[sym - self.sigma]

    def rhs_segments(self) -> list[tuple]:
        """S' first, then rule right-hand sides in id order."""
        return [self.start, *self.rules]

    def rhs_concat(self) -> tuple:
        out = []
        for seg in self.rhs_segments():
            out.extend(seg)
        return tuple(out)

    @property
    def is_cnf(self) -> bool:
        return all(len(r) == 2 for r in self.rules)

    def __eq__(self, other):
        return (
            isinstance(other, FullGrammar)
            and self.sigma == other.sigma
            and self.start == other.start
            and self.rules == other.rules
        )

    def __hash__(self):
        return hash((self.sigma, self.start, self.rules))

    def __repr__(self):
        return f"FullGrammar(sigma={self.sigma}, |S'|={len(self.start)}, |G|={len(self.rules)})"

    # -- expansion -----------------------------------------------------------

    def expansion_lengths(self) -> list[int]:
        """|exp(X)| per rule, exact integers, no materialization."""
        if self._len_cache is None:
            lens: list[int] = []
            for rhs in self.rules:
                total = 0
                for s in rhs:
                    total += 1 if s < self.sigma else lens[s - self.sigma]
                lens.append(total)
            self._len_cache = lens
        return self._len_cache

    def _check_expansion(self, total: int):
        """Refuse an expansion of ``total`` symbols before building any of it.

        expand() caches every rule up to the one asked for, and
        check_irreducible() every rule, so any expansion is refused while some
        rule is over the cap or the rules' expansions together are over
        MAX_FILL.
        """
        if self._rule_bounds is None:
            lens = self.expansion_lengths()
            self._rule_bounds = (max(lens, default=0), sum(lens))
        largest_rule, fill = self._rule_bounds
        largest = max(total, largest_rule)
        if largest > MAX_EXPANSION:
            raise ExpansionTooLargeError(
                f"expansion of {largest} symbols exceeds the cap of {MAX_EXPANSION}"
            )
        if fill > MAX_FILL:
            raise ExpansionTooLargeError(
                f"rule expansions of {fill} symbols in all exceed the budget of {MAX_FILL}"
            )

    def _fill(self, top: int):
        """Build the expansions of rules up to index ``top`` not built yet.

        Rules are built bottom-up in id order, each once, from its children's
        tuples, so the total cost is the sum of the expansion lengths.
        """
        sigma, built = self.sigma, self._expansions
        for rhs in self.rules[len(built):top + 1]:
            out: list[int] = []
            for s in rhs:
                if s < sigma:
                    out.append(s)
                else:
                    out.extend(built[s - sigma])
            built.append(tuple(out))

    def expand(self, sym: int):
        """Fully derived terminal string of one symbol."""
        if sym < 0 or sym >= self.sigma + len(self.rules):
            raise KeyError(f"undefined symbol id {sym}")
        if sym < self.sigma:
            return (sym,)
        top = sym - self.sigma
        if top >= len(self._expansions):
            self._check_expansion(self.expansion_lengths()[top])
            self._fill(top)
        return self._expansions[top]

    def expand_sequence(self, seq) -> tuple:
        lens = self.expansion_lengths()
        sigma, limit = self.sigma, self.sigma + len(lens)
        self._check_expansion(sum(lens[s - sigma] if sigma <= s < limit else 1 for s in seq))
        for s in seq:
            if not 0 <= s < limit:
                raise KeyError(f"undefined symbol id {s}")
        self._fill(max(seq, default=0) - sigma)
        built = self._expansions
        out: list[int] = []
        for s in seq:
            if s < sigma:
                out.append(s)
            else:
                out.extend(built[s - sigma])
        return tuple(out)

    def expand_start(self) -> tuple:
        return self.expand_sequence(self.start)

    def text(self) -> Text:
        """The generated text as a Text, built once."""
        if self._text is None:
            self._text = Text(self.expand_start(), self.sigma)
        return self._text


@dataclass(frozen=True)
class GrammarMetrics:
    n_nonterminals: int
    rhs_size_grammar: int    # ||G||
    rhs_size_full: int       # ||S', G||
    expansion_sum: int       # sum over rules of |exp(X)|
    is_cnf: bool


def metrics(grammar: FullGrammar) -> GrammarMetrics:
    rhs_size = sum(len(r) for r in grammar.rules)
    return GrammarMetrics(
        n_nonterminals=len(grammar.rules),
        rhs_size_grammar=rhs_size,
        rhs_size_full=len(grammar.start) + rhs_size,
        expansion_sum=sum(grammar.expansion_lengths()),
        is_cnf=grammar.is_cnf,
    )


# -- structural predicates ----------------------------------------------------


@dataclass(frozen=True)
class IrreducibilityResult:
    ig1: bool
    ig2: bool
    ig3: bool
    ig1_witness: tuple[int, int] | None = None   # two nonterminals, same expansion
    ig2_witness: int | None = None               # nonterminal occurring < 2 times
    ig3_witness: tuple[int, int] | None = None   # digram occurring twice

    @property
    def all_ok(self) -> bool:
        return self.ig1 and self.ig2 and self.ig3


def nonoverlapping_digram_counts(segments) -> Counter:
    """Greedy left-to-right non-overlapping digram counts, per segment.

    Digrams never span two segments; within a run like "aaa" the pair (a,a)
    is counted once.
    """
    counts: Counter = Counter()
    last_end: dict[tuple[int, int], int] = {}
    base = 0
    for seg in segments:
        for i in range(len(seg) - 1):
            p = (seg[i], seg[i + 1])
            pos = base + i
            if last_end.get(p, -1) <= pos:
                counts[p] += 1
                last_end[p] = pos + 2
        base += len(seg) + 1
    return counts


def _ig2_witness(grammar: FullGrammar) -> int | None:
    """First nonterminal occurring fewer than twice across S' and the rules."""
    occ = Counter()
    for seg in grammar.rhs_segments():
        occ.update(s for s in seg if s >= grammar.sigma)
    for i in range(len(grammar.rules)):
        if occ[grammar.sigma + i] < 2:
            return grammar.sigma + i
    return None


def check_irreducible(grammar: FullGrammar) -> IrreducibilityResult:
    """IG1: distinct expansions; IG2: every nonterminal used twice;
    IG3: no digram repeats (without overlap) across S' and rule rhs strings."""
    seen: dict[tuple, int] = {}
    ig1_w = None
    for i in range(len(grammar.rules)):
        exp = grammar.expand(grammar.sigma + i)
        if exp in seen:
            ig1_w = (grammar.sigma + seen[exp], grammar.sigma + i)
            break
        seen[exp] = i

    ig2_w = _ig2_witness(grammar)

    digrams = nonoverlapping_digram_counts(grammar.rhs_segments())
    ig3_w = None
    for pair, c in digrams.items():
        if c >= 2:
            ig3_w = pair
            break

    return IrreducibilityResult(
        ig1=ig1_w is None,
        ig2=ig2_w is None,
        ig3=ig3_w is None,
        ig1_witness=ig1_w,
        ig2_witness=ig2_w,
        ig3_witness=ig3_w,
    )


@dataclass(frozen=True)
class WeakNonRedundancyResult:
    ok: bool
    underused: tuple[int, ...]    # nonterminals with < 2 derivation-tree nodes
    short_rules: tuple[int, ...]  # nonterminals with |rhs| < 2
    tree_occurrences: dict


def derivation_tree_occurrences(grammar: FullGrammar) -> dict[int, int]:
    """Number of nodes labelled with each nonterminal in the derivation tree."""
    occ = Counter()
    for s in grammar.start:
        if s >= grammar.sigma:
            occ[s] += 1
    for j in range(len(grammar.rules) - 1, -1, -1):
        w = occ[grammar.sigma + j]
        if w:
            for s in grammar.rules[j]:
                if s >= grammar.sigma:
                    occ[s] += w
    return {grammar.sigma + j: occ[grammar.sigma + j] for j in range(len(grammar.rules))}


def check_weakly_nonredundant(grammar: FullGrammar) -> WeakNonRedundancyResult:
    """Every non-start nonterminal appears >= 2 times in the derivation tree
    and every rule right-hand side has length >= 2."""
    tree = derivation_tree_occurrences(grammar)
    underused = tuple(x for x, c in tree.items() if c < 2)
    short = tuple(
        grammar.sigma + j for j, rhs in enumerate(grammar.rules) if len(rhs) < 2
    )
    return WeakNonRedundancyResult(
        ok=not underused and not short,
        underused=underused,
        short_rules=short,
        tree_occurrences=tree,
    )


@dataclass(frozen=True)
class ExpansionSumResult:
    applicable: bool          # False when IG2 fails
    expansion_sum: int | None
    text_length: int | None
    bound_holds: bool | None  # expansion_sum <= 2 |S|


def expansion_sum_check(grammar: FullGrammar) -> ExpansionSumResult:
    """Under IG2, the expansions of all rule right-hand sides sum to <= 2|S|."""
    if _ig2_witness(grammar) is not None:
        return ExpansionSumResult(False, None, None, None)
    total = sum(grammar.expansion_lengths())
    n = len(grammar.expand_start())
    return ExpansionSumResult(True, total, n, total <= 2 * n)


# -- induced parsing -----------------------------------------------------------


def induced_parsing(grammar: FullGrammar, text: Text) -> tuple[tuple, Parsing]:
    """Expand each reachable nonterminal exactly once, leftmost-first.

    Returns the intermediate string S'' (over terminals and nonterminals)
    and the parsing it induces of ``text``, the text the grammar generates;
    |S''| equals |S'| + ||G|| - |G| when every nonterminal is reachable.
    """
    sigma = grammar.sigma
    processed = set()
    out: list[int] = []
    stack = list(reversed(grammar.start))
    while stack:
        s = stack.pop()
        if s >= sigma and s not in processed:
            processed.add(s)
            stack.extend(reversed(grammar.rhs(s)))
        else:
            out.append(s)
    lengths = grammar.expansion_lengths()
    phrase_lengths = [1 if s < sigma else lengths[s - sigma] for s in out]
    return tuple(out), Parsing.from_lengths(text, phrase_lengths)


def start_parsing(grammar: FullGrammar, text: Text) -> Parsing:
    """Parsing of ``text``, the text the grammar generates, induced by the
    starting string alone: one phrase per S' symbol, each the symbol's
    expansion."""
    lengths = grammar.expansion_lengths()
    phrase_lengths = [
        1 if s < grammar.sigma else lengths[s - grammar.sigma] for s in grammar.start
    ]
    return Parsing.from_lengths(text, phrase_lengths)


# -- fixtures -------------------------------------------------------------------


def bad_grammar_fixture(bits_len: int) -> FullGrammar:
    """Binary prefix-tree grammar: irreducible yet with Theta(n / log n) rules.

    One nonterminal per binary word of length 2..bits_len; the start string
    lists every length-bits_len word twice, in lexicographic order.
    """
    if bits_len < 3:
        raise ValueError("fixture needs bits_len >= 3")
    order: list[tuple[int, ...]] = []
    for length in range(2, bits_len + 1):
        for v in range(1 << length):
            order.append(tuple((v >> (length - 1 - j)) & 1 for j in range(length)))
    ids = {w: 2 + i for i, w in enumerate(order)}
    rules = []
    for w in order:
        if len(w) == 2:
            rules.append(w)
        else:
            rules.append((ids[w[:-1]], w[-1]))
    start = []
    for v in range(1 << bits_len):
        w = tuple((v >> (bits_len - 1 - j)) & 1 for j in range(bits_len))
        start.extend([ids[w], ids[w]])
    return FullGrammar(2, start, rules)


# -- canonical form and serialization -------------------------------------------


def grammar_from_segments(sigma: int, segments) -> FullGrammar:
    """Build a FullGrammar from working segments that may reference rules in
    any order (segment 0 is S', segment 1+i defines working id sigma+i).

    Compressors that rewrite earlier rules (Greedy) leave later working ids
    inside earlier right-hand sides; here rules are renumbered into a
    deterministic topological order (children first, stable by working id).
    """
    return FullGrammar(sigma, *renumber_segments(sigma, segments))


def renumber_segments(sigma: int, segments) -> tuple[tuple, tuple]:
    """(start, rules) of grammar_from_segments, before validation; every id
    must be below sigma + the number of rules."""
    n_rules = len(segments) - 1
    # references counted with multiplicity: rule i is ready once every
    # reference in its right-hand side is placed
    remaining = [0] * n_rules
    users: list[list[int]] = [[] for _ in range(n_rules)]
    for i in range(n_rules):
        for s in segments[1 + i]:
            if s >= sigma:
                users[s - sigma].append(i)
                remaining[i] += 1
    ready = [i for i in range(n_rules) if not remaining[i]]  # ascending: a heap
    topo: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        topo.append(i)
        for u in users[i]:
            remaining[u] -= 1
            if remaining[u] == 0:
                heapq.heappush(ready, u)
    if len(topo) != n_rules:
        raise ValueError("segments contain a reference cycle")
    # one lookup table renames the nonterminals of S' and of the rules in
    # their new order; ids past int64 (sigma may be any int) stay objects
    placed = [segments[0], *(segments[1 + old] for old in topo)]
    ends = np.cumsum([len(seq) for seq in placed]).tolist()
    dtype = np.int64 if sigma + n_rules <= 1 << 63 else object
    flat = np.fromiter(chain.from_iterable(placed), dtype=dtype, count=ends[-1])
    rename = np.empty(n_rules, dtype=np.int64)
    rename[topo] = np.arange(n_rules)
    nonterminal = flat >= sigma
    flat[nonterminal] = rename[(flat[nonterminal] - sigma).astype(np.int64)].astype(dtype) + sigma
    values = flat.tolist()
    out = tuple(tuple(values[a:b]) for a, b in zip([0, *ends], ends))
    return out[0], out[1:]


def canonicalized(grammar: FullGrammar) -> FullGrammar:
    """Reachable rules renamed in a deterministic children-first order.

    Two grammars equal after canonicalization are identical up to
    nonterminal renaming and unreachable-rule removal.
    """
    sigma = grammar.sigma
    order: list[int] = []
    seen = set()

    def visit(root: int):
        stack = [(root, 0)]
        while stack:
            sym, idx = stack.pop()
            rhs = grammar.rhs(sym)
            advanced = False
            for j in range(idx, len(rhs)):
                child = rhs[j]
                if child >= sigma and child not in seen:
                    seen.add(child)
                    stack.append((sym, j + 1))
                    stack.append((child, 0))
                    advanced = True
                    break
            if not advanced:
                order.append(sym)

    for s in grammar.start:
        if s >= sigma and s not in seen:
            seen.add(s)
            visit(s)
    rename = {old: sigma + i for i, old in enumerate(order)}

    def mapped(seq):
        return tuple(s if s < sigma else rename[s] for s in seq)

    rules = tuple(mapped(grammar.rhs(old)) for old in order)
    return FullGrammar(sigma, mapped(grammar.start), rules)


def to_binary(grammar: FullGrammar) -> bytes:
    """GCL1 format: magic, varint sigma, varint rule count, rules, start."""
    values = [grammar.sigma, len(grammar.rules)]
    for rhs in grammar.rules:
        values.append(len(rhs))
        values.extend(rhs)
    values.append(len(grammar.start))
    values.extend(grammar.start)
    return _MAGIC + bits.uvarints(values)


def from_binary(data: bytes) -> FullGrammar:
    """Parse a GCL1 file: every varint is decoded at once, then each count is
    checked against the varints left before its symbols are taken."""
    if data[:4] != _MAGIC:
        raise bits.MalformedStreamError("bad magic for grammar file")
    values, _ = bits.uvarint_values(np.frombuffer(data, dtype=np.uint8, offset=4))
    if len(values) < 3:
        raise bits.MalformedStreamError("truncated grammar")
    sigma, n_rules = values[0], values[1]
    # each rule takes at least its length varint, S' at least its length
    if n_rules > len(values) - 3:
        raise bits.MalformedStreamError(f"{n_rules} rules cannot fit in {len(data)} bytes")
    rules = []
    at = 2
    for _ in range(n_rules):
        n = values[at]
        if n > len(values) - at - 2:
            raise bits.MalformedStreamError(f"rule of {n} symbols cannot fit in {len(data)} bytes")
        rules.append(tuple(values[at + 1:at + 1 + n]))
        at += 1 + n
    n = values[at]
    if n > len(values) - at - 1:
        raise bits.MalformedStreamError(f"|S'| = {n} cannot fit in {len(data)} bytes")
    if n < len(values) - at - 1:
        raise bits.MalformedStreamError("trailing bytes after grammar")
    try:
        return FullGrammar(sigma, values[at + 1:], rules)
    except ValueError as e:
        raise bits.MalformedStreamError(f"decoded grammar is invalid: {e}") from e


def to_text_dump(grammar: FullGrammar) -> str:
    def name(s: int) -> str:
        return str(s) if s < grammar.sigma else f"R{s - grammar.sigma}"

    lines = [f"sigma={grammar.sigma}"]
    lines.append("S' -> " + " ".join(name(s) for s in grammar.start))
    for i, rhs in enumerate(grammar.rules):
        lines.append(f"R{i} -> " + " ".join(name(s) for s in rhs))
    return "\n".join(lines) + "\n"
