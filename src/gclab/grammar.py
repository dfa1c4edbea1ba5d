"""Full grammars (starting string + rules), expansion, size metrics, and the
structural predicates: IG1-IG3 irreducibility and weak non-redundancy.

Symbol ids are sigma-offset integers: ids below sigma are terminals, rule i
defines nonterminal sigma + i, and a rule may reference only terminals and
previously defined nonterminals (the grammar is acyclic by construction).

A grammar is stored as ||S', G|| reads it: one read-only id array, S' and
then every rule's right-hand side in id order, and the ascending offset
where each of these segments ends.  The array is int64, or object once
sigma + |G| passes 2^63 (sigma may be any int).  Compressors, GCL1, the
coders and the expansion hand over and read that array; the tuples of
``start`` and ``rules`` are built on request, once.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from . import bits
from .pairs import PairEngine, _join
from .parsing import Parsing
from .textcore import Text

_MAGIC = b"GCL1"
MAX_EXPANSION = 1 << 26  # symbols one expansion may build
MAX_FILL = 1 << 28  # tuple slots the cached rule expansions may hold in all


class ExpansionTooLargeError(ValueError):
    """An expansion would build more than MAX_EXPANSION symbols, or fill the
    rule cache with more than MAX_FILL."""


def _id_array(values, sigma: int, n_rules: int) -> np.ndarray:
    """``values`` as the id array of a grammar of sigma and n_rules rules:
    int64, or object once sigma + n_rules passes 2^63.  A value outside
    int64 under an int64 grammar is an undefined id: it is kept as an object
    for the validation to name."""
    dtype = np.int64 if sigma + n_rules <= 1 << 63 else object
    if isinstance(values, np.ndarray) and values.dtype == np.uint64 and len(values) and values.max() >> 63:
        return values.astype(object)
    try:
        return np.asarray(values, dtype=dtype)
    except OverflowError:
        return np.asarray(values, dtype=object)


class FullGrammar:
    """Starting string S' plus ordered rules; immutable after construction.

    ``ids`` holds S' and then the rules' right-hand sides, segment i ending
    at ``ends[i]`` (see the module docstring); both are read-only.
    """

    __slots__ = ("sigma", "ids", "ends", "_expansions", "_len_cache", "_rule_bounds", "_text", "__dict__")

    def __init__(self, sigma: int, start, rules):
        start = start if isinstance(start, (list, tuple, np.ndarray)) else tuple(start)
        rules = [tuple(r) for r in rules]
        ids = np.concatenate((_id_array(start, sigma, len(rules)),
                              _id_array(list(chain.from_iterable(rules)), sigma, len(rules))))
        self._store(sigma, ids, np.cumsum([len(start), *map(len, rules)]))

    @classmethod
    def from_ids(cls, sigma: int, ids, ends) -> FullGrammar:
        """The grammar whose S' and rules are laid out in ``ids``, segment i
        ending at the ascending offset ends[i]; validated as the constructor
        validates.  The grammar keeps copies of both, so the caller's arrays
        stay writable and later writes to them do not reach the grammar."""
        ids = _id_array(ids, sigma, len(ends) - 1)
        return cls._keeping(sigma, ids.copy(), np.array(ends, dtype=np.int64))

    @classmethod
    def _keeping(cls, sigma: int, ids: np.ndarray, ends: np.ndarray) -> FullGrammar:
        """from_ids without the copies: for an id array of the grammar's
        dtype and int64 ends that were made for the grammar alone."""
        grammar = cls.__new__(cls)
        grammar._store(sigma, ids, ends)
        return grammar

    def _store(self, sigma: int, ids: np.ndarray, ends: np.ndarray):
        """Validate and keep the id array and its segment ends.  The ids of
        rule i lie below sigma + i and those of S' below sigma + |G|; the
        error names the lowest bad rule, or else S', as a walk in id order
        would."""
        if sigma < 1:
            raise ValueError("sigma must be >= 1")
        lengths = np.diff(ends, prepend=0)
        rank = np.repeat(np.roll(np.arange(len(ends)), 1), lengths)  # i in rule i, |G| in S'
        wrong = np.flatnonzero((ids < 0) | (ids - rank >= sigma))
        in_rules = wrong[wrong >= ends[0]]
        # the rule of the first bad id in the rules, else one past the last
        bad = np.searchsorted(ends, in_rules[0], "right") - 1 if len(in_rules) else len(ends)
        empty = np.flatnonzero(lengths[1:bad + 1] == 0)
        if len(empty):
            raise ValueError(f"rule {empty[0]} has an empty right-hand side")
        if len(in_rules):
            raise ValueError(f"rule {bad} references id {ids[in_rules[0]]}, not previously defined")
        if len(wrong):
            raise ValueError(f"start references undefined id {ids[wrong[0]]}")
        ids.flags.writeable = ends.flags.writeable = False
        self.sigma, self.ids, self.ends = sigma, ids, ends
        self._expansions: list[tuple] = []  # exp(rule i) for i < len, built in id order
        self._len_cache: list[int] | None = None
        self._rule_bounds: tuple[int, int] | None = None  # max and sum of |exp(X)|
        self._text: Text | None = None

    # -- basic views --------------------------------------------------------

    @property
    def n_rules(self) -> int:
        return len(self.ends) - 1

    @cached_property
    def start(self) -> tuple:
        return tuple(self.ids[:self.ends[0]].tolist())

    @cached_property
    def rules(self) -> tuple:
        values = self.ids[self.ends[0]:].tolist()
        bounds = (self.ends - self.ends[0]).tolist()
        return tuple(tuple(values[a:b]) for a, b in zip(bounds, bounds[1:]))

    def rhs(self, sym: int) -> tuple:
        return self.rules[sym - self.sigma]

    def rhs_segments(self) -> list[tuple]:
        """S' first, then rule right-hand sides in id order."""
        return [self.start, *self.rules]

    def rhs_concat(self) -> tuple:
        return tuple(self.ids.tolist())

    @property
    def is_cnf(self) -> bool:
        return bool((np.diff(self.ends) == 2).all())

    def __eq__(self, other):
        return (
            isinstance(other, FullGrammar)
            and self.sigma == other.sigma
            and np.array_equal(self.ends, other.ends)
            and np.array_equal(self.ids, other.ids)
        )

    def __hash__(self):
        return hash((self.sigma, self.ends.tobytes(), tuple(self.ids.tolist())))

    def __repr__(self):
        return f"FullGrammar(sigma={self.sigma}, |S'|={self.ends[0]}, |G|={self.n_rules})"

    # -- expansion -----------------------------------------------------------

    def expansion_lengths(self) -> list[int]:
        """|exp(X)| per rule, exact integers, no materialization: each rule's
        terminal count, then its nonterminals' lengths added in id order, so
        that a rule's children are complete before it is read."""
        if self._len_cache is None:
            sigma, head = self.sigma, self.ends[0]
            at = np.flatnonzero(self.ids[head:] >= sigma) + head
            owner = np.searchsorted(self.ends, at, "right") - 1  # rule i is segment i + 1
            lens = (np.diff(self.ends) - np.bincount(owner, minlength=self.n_rules)).tolist()
            for rule, child in zip(owner.tolist(), (self.ids[at] - sigma).tolist()):
                lens[rule] += lens[child]
            self._len_cache = lens
        return self._len_cache

    def _check_expansion(self, total: int):
        """Refuse an expansion of ``total`` symbols before building any of it.

        expand() caches every rule up to the one asked for, and
        check_irreducible() every rule, so any expansion is refused while some
        rule is over the cap or the rules' expansions together are over
        MAX_FILL.
        """
        largest_rule, fill = self._bounds()
        largest = max(total, largest_rule)
        if largest > MAX_EXPANSION:
            raise ExpansionTooLargeError(
                f"expansion of {largest} symbols exceeds the cap of {MAX_EXPANSION}"
            )
        if fill > MAX_FILL:
            raise ExpansionTooLargeError(
                f"rule expansions of {fill} symbols in all exceed the budget of {MAX_FILL}"
            )

    def _bounds(self) -> tuple[int, int]:
        """The largest rule expansion and the sum of all of them."""
        if self._rule_bounds is None:
            lens = self.expansion_lengths()
            self._rule_bounds = (max(lens, default=0), sum(lens))
        return self._rule_bounds

    @cached_property
    def _length_array(self) -> np.ndarray | None:
        """expansion_lengths() as int64 while every rule is within
        MAX_EXPANSION; None otherwise, when every expansion is refused."""
        if self._bounds()[0] > MAX_EXPANSION:
            return None
        return np.array(self.expansion_lengths(), dtype=np.int64)

    def _total(self, seq, ids: np.ndarray) -> int:
        """|exp(seq)| of the defined ids ``seq``, given also as an id array.

        While every rule is within the cap, one numpy pass over ``ids`` sums
        in int64 (at most 2^26 per id, so it cannot overflow); otherwise the
        expansion is refused, and the exact sum in Python ints names the
        total in the error.
        """
        lens = self._length_array
        if lens is None:
            return sum(self._symbol_lengths(seq))
        children = (ids[ids >= self.sigma] - self.sigma).astype(np.int64)
        return len(ids) + int(lens[children].sum()) - len(children)

    def _fill(self, top: int):
        """Build the expansions of rules up to index ``top`` not built yet;
        none when ``top`` is negative.

        Rules are built bottom-up in id order, each once, from its children's
        tuples, so the total cost is the sum of the expansion lengths.  A rule
        of two ids is the sum of their tuples.
        """
        sigma, built = self.sigma, self._expansions
        bounds = self.ends[len(built):max(top + 1, len(built)) + 1].tolist()
        head = bounds[0]
        values = self.ids[head:bounds[-1]].tolist()
        for a, b in zip(bounds, bounds[1:]):
            if b - a == 2:
                x, y = values[a - head], values[a - head + 1]
                left = built[x - sigma] if x >= sigma else (x,)
                built.append(left + (built[y - sigma] if y >= sigma else (y,)))
            else:
                built.append(self._splice(values[a - head:b - head]))

    def _splice(self, seq) -> tuple:
        """seq with each nonterminal replaced by its built expansion."""
        sigma, built = self.sigma, self._expansions
        out: list[int] = []
        for s in seq:
            if s < sigma:
                out.append(s)
            else:
                out.extend(built[s - sigma])
        return tuple(out)

    def _symbol_lengths(self, seq):
        """|exp(s)| for each defined symbol s of seq, lazily."""
        sigma, lens = self.sigma, self.expansion_lengths()
        return (1 if s < sigma else lens[s - sigma] for s in seq)

    def expand(self, sym: int):
        """Fully derived terminal string of one symbol."""
        if sym < 0 or sym >= self.sigma + self.n_rules:
            raise KeyError(f"undefined symbol id {sym}")
        if sym < self.sigma:
            return (sym,)
        top = sym - self.sigma
        if top >= len(self._expansions):
            self._check_expansion(self.expansion_lengths()[top])
            self._fill(top)
        return self._expansions[top]

    def expand_sequence(self, seq) -> tuple:
        limit = self.sigma + self.n_rules
        for s in seq:
            if not 0 <= s < limit:
                raise KeyError(f"undefined symbol id {s}")
        return self._expand_defined(seq, _id_array(seq, self.sigma, self.n_rules))

    def expand_start(self) -> tuple:
        start = self.ids[:self.ends[0]]
        return self._expand_defined(start.tolist(), start)

    def _expand_defined(self, seq, ids: np.ndarray) -> tuple:
        """expand_sequence of a sequence of defined ids, given also as an id
        array."""
        self._check_expansion(self._total(seq, ids))
        self._fill((int(ids.max()) if len(ids) else 0) - self.sigma)
        return self._splice(seq)

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
    rhs_size_full = len(grammar.ids)
    return GrammarMetrics(
        n_nonterminals=grammar.n_rules,
        rhs_size_grammar=rhs_size_full - int(grammar.ends[0]),
        rhs_size_full=rhs_size_full,
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
    ig3_witness: tuple[int, int] | None = None   # most frequent digram, then leftmost, if it occurs twice

    @property
    def all_ok(self) -> bool:
        return self.ig1 and self.ig2 and self.ig3


def _ig2_witness(grammar: FullGrammar) -> int | None:
    """First nonterminal occurring fewer than twice across S' and the rules."""
    sigma, ids = grammar.sigma, grammar.ids
    uses = (ids[ids >= sigma] - sigma).astype(np.int64)  # below |G|
    under = np.flatnonzero(np.bincount(uses, minlength=grammar.n_rules) < 2)
    return sigma + int(under[0]) if len(under) else None


def check_irreducible(grammar: FullGrammar) -> IrreducibilityResult:
    """IG1: distinct expansions; IG2: every nonterminal used twice;
    IG3: no digram repeats (without overlap) across S' and rule rhs strings.

    IG3 is decided by one PairEngine over the working array of S' and the
    rules, their ids ranked, each segment followed by its own separator so
    that no digram spans two: it holds iff select() finds no pair occurring
    twice.  The IG3 witness is select()'s pair: the most frequent digram,
    then the one whose first occurrence is leftmost.
    """
    seen: dict[tuple, int] = {}
    ig1_w = None
    for i in range(grammar.n_rules):
        exp = grammar.expand(grammar.sigma + i)
        if exp in seen:
            ig1_w = (grammar.sigma + seen[exp], grammar.sigma + i)
            break
        seen[exp] = i

    ig2_w = _ig2_witness(grammar)
    ids, work = np.unique(grammar.ids, return_inverse=True)
    work = _join(work, grammar.ends)
    best = PairEngine(work).select()
    ig3_w = None if best is None else tuple(ids[list(best[0])].tolist())

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
    n = sum(grammar._symbol_lengths(grammar.start))
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
    return tuple(out), Parsing.from_lengths(text, grammar._symbol_lengths(out))


def start_parsing(grammar: FullGrammar, text: Text) -> Parsing:
    """Parsing of ``text``, the text the grammar generates, induced by the
    starting string alone: one phrase per S' symbol, each the symbol's
    expansion."""
    return Parsing.from_lengths(text, grammar._symbol_lengths(grammar.start))


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


def grammar_from_segments(sigma: int, flat, ends) -> FullGrammar:
    """Build a FullGrammar from working segments that may reference rules in
    any order: ``flat`` lays them out as one id array, segment i ending at
    the ascending offset ends[i] (segment 0 is S', segment 1+i defines
    working id sigma+i).

    Compressors that rewrite earlier rules (Greedy) leave later working ids
    inside earlier right-hand sides; here rules are renumbered into a
    deterministic topological order (children first, stable by working id).
    """
    return FullGrammar._keeping(sigma, *renumber_segments(sigma, flat, ends))


def renumber_segments(sigma: int, flat, ends) -> tuple[np.ndarray, np.ndarray]:
    """(ids, ends) of grammar_from_segments, before validation; every id
    must be below sigma + the number of rules."""
    n_rules = len(ends) - 1
    flat = _id_array(flat, sigma, n_rules)
    ends = np.asarray(ends, dtype=np.int64)
    lengths = np.diff(ends, prepend=0)
    # references counted with multiplicity: rule i is ready once every
    # reference in its right-hand side is placed; users[at[j]:at[j + 1]]
    # are the rules that reference rule j, once per reference
    body = flat[ends[0]:]
    nonterminal = body >= sigma
    owner = np.repeat(np.arange(n_rules), lengths[1:])[nonterminal]
    child = (body[nonterminal] - sigma).astype(np.int64)
    order = np.argsort(child, kind="stable")
    users = owner[order].tolist()
    at = np.searchsorted(child[order], np.arange(n_rules + 1)).tolist()
    remaining = np.bincount(owner, minlength=n_rules).tolist()
    ready = [i for i in range(n_rules) if not remaining[i]]  # ascending: a heap
    topo: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        topo.append(i)
        for u in users[at[i]:at[i + 1]]:
            remaining[u] -= 1
            if remaining[u] == 0:
                heapq.heappush(ready, u)
    if len(topo) != n_rules:
        raise ValueError("segments contain a reference cycle")
    # the segments in their new order, S' (segment 0) and then rule topo[k]
    # (segment 1 + topo[k]), gathered in one pass; one lookup table then
    # renames the nonterminals
    placed = np.array([-1, *topo], dtype=np.int64) + 1
    new_ends = np.cumsum(lengths[placed])
    out = flat[np.arange(len(flat)) + np.repeat(ends[placed] - new_ends, lengths[placed])]
    rename = np.empty(n_rules, dtype=np.int64)
    rename[topo] = np.arange(n_rules)
    nonterminal = out >= sigma
    out[nonterminal] = rename[(out[nonterminal] - sigma).astype(np.int64)].astype(out.dtype) + sigma
    return out, new_ends


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


def prefixed_rules(grammar: FullGrammar, prefixes) -> np.ndarray:
    """The rules' ids laid end to end, each rule after its value in
    ``prefixes``: the rule section of GCL1 and of the coders' streams.
    Object once a prefix or an id passes int64."""
    head = int(grammar.ends[0])
    body = grammar.ids[head:]
    try:
        prefixes = np.asarray(prefixes, dtype=body.dtype)
    except OverflowError:
        prefixes, body = np.asarray(prefixes, dtype=object), body.astype(object)
    return np.insert(body, grammar.ends[:-1] - head, prefixes)


def to_binary(grammar: FullGrammar) -> bytes:
    """GCL1 format: magic, varint sigma, varint rule count, rules (each its
    length, then its ids), start (its length, then its ids); all the values
    go to one array, encoded at once."""
    head = int(grammar.ends[0])
    body = prefixed_rules(grammar, np.diff(grammar.ends))
    dtype = object if body.dtype == object or grammar.sigma >> 63 else np.int64
    values = np.concatenate((np.array([grammar.sigma, grammar.n_rules], dtype=dtype), body,
                             np.array([head], dtype=dtype), grammar.ids[:head]), dtype=dtype)
    return _MAGIC + bits.uvarints(values)


def from_binary(data: bytes) -> FullGrammar:
    """Parse a GCL1 file: every varint is decoded at once into one array,
    then one walk over the rule lengths checks each count against the
    varints left before its symbols are taken, and one mask takes S' and
    the rules' ids."""
    if data[:4] != _MAGIC:
        raise bits.MalformedStreamError("bad magic for grammar file")
    values, _ = bits.uvarint_values(np.frombuffer(data, dtype=np.uint8, offset=4))
    total = len(values)
    if total < 3:
        raise bits.MalformedStreamError("truncated grammar")
    # the walk reads ints; a memoryview cannot hold the ints past 64 bits
    walk = values.tolist() if values.dtype == object else memoryview(values)
    sigma, n_rules = walk[0], walk[1]
    # each rule takes at least its length varint, S' at least its length
    if n_rules > total - 3:
        raise bits.MalformedStreamError(f"{n_rules} rules cannot fit in {len(data)} bytes")
    heads = [0] * n_rules  # where each rule's length sits
    at = 2
    for i in range(n_rules):
        n = walk[at]
        if n > total - at - 2:
            raise bits.MalformedStreamError(f"rule of {n} symbols cannot fit in {len(data)} bytes")
        heads[i] = at
        at += 1 + n
    n = walk[at]
    if n > total - at - 1:
        raise bits.MalformedStreamError(f"|S'| = {n} cannot fit in {len(data)} bytes")
    if n < total - at - 1:
        raise bits.MalformedStreamError("trailing bytes after grammar")
    in_rules = np.ones(at, dtype=bool)
    in_rules[:2] = in_rules[heads] = False
    ids = _id_array(np.concatenate((values[at + 1:], values[:at][in_rules])), sigma, n_rules)
    ends = np.cumsum(values[[at, *heads]].astype(np.int64))
    try:
        return FullGrammar._keeping(sigma, ids, ends)
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
