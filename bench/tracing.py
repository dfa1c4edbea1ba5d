"""In-memory span tracer that wraps gclab's public functions from outside.

Nothing under ``src/`` changes: ``Tracer.install`` replaces each public
function of a gclab module, and the few methods listed in ``METHODS``, with
a wrapper that records a span, and puts the same wrapper in every gclab
namespace that imported the original (``labcli.empirical_entropy``,
``debruijn.empirical_entropy``, the ``gclab`` package itself, ...).
``uninstall`` puts the originals back.

A span is ``(name, start, end, parent, op, round)``: ``parent`` is the index
of the enclosing span (-1 at the top), ``op`` the operation the benchmark was
running (one input x step, one report cell batch, or one word).  Spans stay
in memory; ``dump`` writes them when the run ends.

Layers are modules.  ``pairs`` belongs to ``repair`` and ``bits`` to
``coders``; neither has a wrapped function: ``PairEngine`` and the bit and
varint helpers are called once per symbol, so their time shows as self time
of the calling span instead.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

from checks import ENCODINGS

LAYERS = ("textcore", "parsing", "grammar", "repair", "greedy", "coders", "debruijn", "labcli")

# (module, class, method) wrapped besides module-level public functions
METHODS = (
    ("textcore", "Text", "window_codes"),
    ("textcore", "Text", "window_count_histogram"),
    ("textcore", "Text", "position_counts"),
    ("grammar", "FullGrammar", "expand_start"),
    ("grammar", "FullGrammar", "expand_sequence"),
    ("grammar", "FullGrammar", "text"),
)


def _container_encoding(args):
    data = args[0] if args else b""
    tag = data[4] if len(data) > 4 else -1
    return ENCODINGS[tag] if 0 <= tag < len(ENCODINGS) else "malformed"


# span name -> bucket metric whose time it counts toward.  A bucket's time is
# inclusive: the outermost span of that bucket on each call path counts.
_BUCKETS = {
    "repair.repair_run": "repair.run_s",
    "greedy.greedy_run": "greedy.run_s",
    "grammar.FullGrammar.expand_start": "grammar.expand_s",
    "grammar.FullGrammar.expand_sequence": "grammar.expand_s",
    "grammar.FullGrammar.text": "grammar.expand_s",
    "grammar.to_binary": "grammar.gcl1_s",
    "grammar.from_binary": "grammar.gcl1_s",
    "grammar.check_irreducible": "grammar.predicates_s",
    "grammar.check_weakly_nonredundant": "grammar.predicates_s",
    "grammar.expansion_sum_check": "grammar.predicates_s",
    "grammar.induced_parsing": "grammar.predicates_s",
    "grammar.start_parsing": "grammar.predicates_s",
    "textcore.empirical_entropy": "textcore.entropy_s",
    "textcore.entropy_profile": "textcore.entropy_s",
    "textcore.Text.window_codes": "textcore.windows_s",
    "textcore.Text.window_count_histogram": "textcore.windows_s",
    "textcore.Text.position_counts": "textcore.windows_s",
    "parsing.lz78_parse": "parsing.lz78_s",
    "parsing.lz77_parse_nonself": "parsing.lz77ns_s",
    "parsing.best_offset_parsing": "parsing.offset_s",
    "parsing.verify_parsing_bounds": "parsing.verify_s",
    "parsing.parsing_cost": "parsing.verify_s",
    "parsing.is_natural_parsing": "parsing.verify_s",
    "parsing.phrase_probability": "parsing.verify_s",
    "parsing.phrase_cost": "parsing.verify_s",
    "debruijn.generalized_word": "debruijn.build_s",
    "debruijn.build_s0": "debruijn.build_s",
    "debruijn.base_debruijn": "debruijn.build_s",
    "debruijn.verify_gdb": "debruijn.certify_s",
    "debruijn.lower_bound_check": "debruijn.lower_bound_s",
    "labcli.main[report]": "labcli.report_s",
}
for _enc in ENCODINGS:
    for _fn in ("encode", "to_container"):
        _BUCKETS[f"coders.{_fn}[{_enc}]"] = f"coders.encode_s.{_enc}"
    for _fn in ("decode", "from_container"):
        _BUCKETS[f"coders.{_fn}[{_enc}]"] = f"coders.decode_s.{_enc}"

# span name suffix from the call's arguments, for calls that do per-argument work
_LABELS = {
    "coders.encode": lambda a, kw: a[1] if len(a) > 1 else kw.get("encoding"),
    "coders.to_container": lambda a, kw: a[1] if len(a) > 1 else kw.get("encoding"),
    "coders.decode": lambda a, kw: a[0] if a else kw.get("encoding"),
    "coders.from_container": lambda a, kw: _container_encoding(a),
    "labcli.main": lambda a, kw: (a[0][0] if a and a[0] else "none"),
}


def _length_bits(result):
    return result[0].length_bits


# span name -> list of (counter, f(result)) applied on every call
_COUNTS = {
    "repair.repair_run": [("repair.iterations", lambda r: len(r[1].steps))],
    "greedy.greedy_run": [("greedy.rounds", lambda r: len(r[1].steps))],
    "grammar.FullGrammar.expand_start": [("grammar.expand_calls", lambda r: 1),
                                         ("grammar.expanded_sym", len)],
    "grammar.FullGrammar.expand_sequence": [("grammar.expand_calls", lambda r: 1),
                                            ("grammar.expanded_sym", len)],
    "grammar.FullGrammar.text": [("grammar.expand_calls", lambda r: 1),
                                 ("grammar.expanded_sym", len)],
    "grammar.check_irreducible": [("grammar.irreducible_calls", lambda r: 1)],
    "coders.encode": [("coders.encode_calls", lambda r: 1), ("coders.bits_written", _length_bits)],
    "coders.to_container": [("coders.encode_calls", lambda r: 1)],
    "textcore.empirical_entropy": [("textcore.entropy_calls", lambda r: 1)],
    "parsing.lz78_parse": [("parsing.phrases", len)],
    "parsing.lz77_parse_nonself": [("parsing.phrases", len)],
    "parsing.best_offset_parsing": [("parsing.phrases", len)],
    "debruijn.generalized_word": [("debruijn.words", lambda r: 1)],
    "labcli.run": [("labcli.cells", lambda r: len(r.entries))],
}
# expansions nest (text -> expand_start -> expand_sequence): count a request once
_OUTERMOST_COUNTS = {"grammar.FullGrammar.expand_start", "grammar.FullGrammar.expand_sequence",
                     "grammar.FullGrammar.text"}

TIME_METRICS = (
    "repair.run_s", "greedy.run_s",
    "grammar.expand_s", "grammar.gcl1_s", "grammar.predicates_s",
    *(f"coders.encode_s.{e}" for e in ENCODINGS),
    *(f"coders.decode_s.{e}" for e in ENCODINGS),
    "textcore.entropy_s", "textcore.windows_s",
    "parsing.lz77ns_s", "parsing.lz78_s", "parsing.offset_s", "parsing.verify_s",
    "debruijn.build_s", "debruijn.certify_s", "debruijn.lower_bound_s",
    "labcli.report_s",
    *(f"{layer}.self_s" for layer in LAYERS),
)
COUNT_METRICS = {
    "repair.iterations": "count", "greedy.rounds": "count",
    "grammar.expand_calls": "count", "grammar.expanded_sym": "symbols",
    "grammar.irreducible_calls": "count",
    "coders.encode_calls": "count", "coders.bits_written": "bits",
    "textcore.entropy_calls": "count",
    "parsing.phrases": "count", "debruijn.words": "count", "labcli.cells": "count",
}


class Tracer:
    """Collects spans and counters for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.op = ""
        self.round = 0
        self.paused = False
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- installation ------------------------------------------------------

    def _wrap(self, name: str, fn):
        label = _LABELS.get(name)
        counts = _COUNTS.get(name, ())
        outermost = name in _OUTERMOST_COUNTS
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span_name = f"{name}[{label(args, kwargs)}]" if label else name
            idx = len(spans)
            spans.append((span_name,))
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (span_name, t0, t1, parent, self.op, self.round)
            if outermost and parent >= 0 and spans[parent][0] in _OUTERMOST_COUNTS:
                return result
            for counter, f in counts:
                self.counts[self.round, counter] += f(result)
            return result

        return wrapper

    def install(self, package) -> "Tracer":
        """Wrap every public function of each layer module, and METHODS."""
        prefix = package.__name__ + "."
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(prefix)]
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[prefix + layer]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                replace[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[prefix + layer], cls_name)
            fn = cls.__dict__[meth]
            self._patched.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapped = replace.get(id(value))
                if wrapped is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapped)
        return self

    def span_cost(self, calls: int = 20000, trials: int = 7) -> float:
        """Seconds the wrapper adds to one call: a wrapped no-op against the
        bare one, median of several trials, on a scratch tracer."""
        scratch = Tracer()

        def noop():
            return None

        wrapped = scratch._wrap("calibrate.noop", noop)
        clock = time.perf_counter
        costs = []
        for _ in range(trials):
            scratch.spans.clear()
            t0 = clock()
            for _ in range(calls):
                noop()
            t1 = clock()
            for _ in range(calls):
                wrapped()
            t2 = clock()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
        return statistics.median(costs)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------

    def _self_times(self, rnd: int):
        """(index, span, self time) of each span of one round."""
        child_time = defaultdict(float)
        for _name, t0, t1, parent, _op, r in self.spans:
            if r == rnd and parent >= 0:
                child_time[parent] += t1 - t0
        return [(i, s, s[2] - s[1] - child_time[i]) for i, s in enumerate(self.spans) if s[5] == rnd]

    def round_metrics(self, rnd: int) -> dict[str, float]:
        """Per-layer figures of one round: counters, bucket times (inclusive)
        and self time per layer."""
        out = {m: 0.0 for m in TIME_METRICS}
        out.update({m: self.counts.get((rnd, m), 0) for m in COUNT_METRICS})
        spans = self.spans
        for _idx, (name, t0, t1, parent, _op, _r), self_time in self._self_times(rnd):
            out[name.split(".", 1)[0] + ".self_s"] += self_time
            bucket = _BUCKETS.get(name)
            if bucket is None:
                continue
            # count only the outermost span of a bucket on each call path
            p = parent
            while p >= 0 and _BUCKETS.get(spans[p][0]) != bucket:
                p = spans[p][3]
            if p < 0:
                out[bucket] += t1 - t0
        return out

    def split_by_input(self, rnd: int) -> dict[str, dict[str, float]]:
        """Self time per layer for each input (the op id before '/')."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for _idx, (name, _t0, _t1, _parent, op, _r), self_time in self._self_times(rnd):
            out[op.split("/", 1)[0]][name.split(".", 1)[0]] += self_time
        return {k: dict(v) for k, v in out.items()}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op", "round"],
                 "spans": self.spans},
                fh,
            )
