"""Command-line laboratory: corpus ingestion, experiment matrix, and the
bound-verification report.

Every report entry covers one (input, algorithm) cell and carries named
bound rows {name, lhs_bits, rhs_bits, pass, slack_used}; the process exits 0
iff every row passes.  Asymptotic bounds appear with their hidden constants
instantiated explicitly and the raw numbers printed, so reviewers can tighten
the constants without re-deriving them.

Inputs: file paths (raw bytes, or the token format with a "sigma=" header)
and fixture selectors:

  worst:<n>        the Re-Pair adversarial family over n+1 letters
  gdb:<k>,<l>,<p>  a generalized de Bruijn word
  badgrammar:<d>   expansion of the binary prefix-tree grammar fixture
  example32 example16  the reference 32- and 16-symbol fixture words
  random:<sigma>,<n>,<seed>  seeded uniform text
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import random
import sys
from collections import namedtuple
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

from . import coders, debruijn
from . import grammar as gmod
from . import greedy as gr
from . import parsing as pmod
from . import repair as rp
from .reporting import BoundRow
from .textcore import Text, empirical_entropy, entropy_profile, load_text, release_caches

SCHEMA_VERSION = "1"
# input caps in symbols: the largest power of two that runs to the end
# within 10 minutes and 4 GB, with a margin, by extrapolation from measured
# runs at 2^20-2^22 symbols (README; Greedy's on random text: its worst:n
# family, measured at 2^18-2^21 symbols, extrapolates to about 2.7 GB at 2^24)
GREEDY_CAP = 1 << 24
REPAIR_CAP = 1 << 25
# fixture lengths in symbols, checked before anything is built (README):
# a de Bruijn word took 26 s and 2.2 GB at 2^24 symbols, 3.6x the memory of
# 2^22, so 2^25 would not fit 4 GB; random, worst and badgrammar texts took
# under 2.4 s and 190 MB per 2^22 symbols, so they go up to the Re-Pair cap
GDB_LENGTH_CAP = 1 << 24
FIXTURE_LENGTH_CAP = REPAIR_CAP
ALGORITHMS = ("repair", "greedy", "lz78", "lz77ns", "offset-parse")
GREEDY_MAXITER_EXPONENT = 0.5  # Greedy's bare "maxiter" policy runs ceil(n^0.5) rounds

EXAMPLE_WORD_32 = "aababcbbadccdbddaacadaccbdbbcddc"  # (k=2, l=0, p=1)
EXAMPLE_WORD_16 = "abbbdacdcacabdcd"                  # (k=1, l=1, p=1)

# measured slack constants, asserted by the acceptance suite
CYCLIC_SLACK_PER_K = 8.0          # |S|Hk_cyc <= |S|Hk + k log n + 8 k
ENTROPY_CONCAT_ADD = 2.0          # entropy growth per appended symbol: log m + 2
GDB_ENTROPY_SLACK_C = 4.0         # linear H_i >= target - c i log n / n
WORST_CASE_LINEAR_SLACK = 6.0     # incremental >= 0.75 n log n - 6 n


def _random_text(sigma: int, n: int, seed: int) -> Text:
    rng = random.Random(seed)
    return Text([rng.randrange(sigma) for _ in range(n)], sigma)


# a fixture kind: the number of integer arguments after "kind:" and, from
# them, its length in symbols, its builder and its de Bruijn parameters
_Fixture = namedtuple("_Fixture", "arity length build gdb", defaults=(None,))

# lengths are computed before building (README "Size caps"), de Bruijn words
# against GDB_LENGTH_CAP; d 2^(d+1) grows with d and 64 is over any cap.
# Builders look their function up on its module at call time, so a function
# replaced there (by a tracer, say) is the one called
_FIXTURES = {
    "worst": _Fixture(1, lambda n: 4 * n, lambda n: rp.worst_case_family(n)),
    "gdb": _Fixture(3, lambda *a: debruijn.GdBParams(*a).length,
                    lambda *a: debruijn.generalized_word(debruijn.GdBParams(*a)), debruijn.GdBParams),
    "badgrammar": _Fixture(1, lambda d: min(max(d, 0), 64) << (min(max(d, 0), 64) + 1),
                           lambda d: gmod.bad_grammar_fixture(d).text()),
    "example32": _Fixture(0, lambda: len(EXAMPLE_WORD_32), lambda: Text.from_string(EXAMPLE_WORD_32, 4),
                          lambda: debruijn.GdBParams(2, 0, 1)),
    "example16": _Fixture(0, lambda: len(EXAMPLE_WORD_16), lambda: Text.from_string(EXAMPLE_WORD_16, 4),
                          lambda: debruijn.GdBParams(1, 1, 1)),
    "random": _Fixture(3, lambda sigma, n, seed: n, _random_text),
}


def _fixture(selector: str) -> tuple[_Fixture, tuple[int, ...]]:
    """The kind of a fixture selector and its integer arguments."""
    kind, _, arg = selector.partition(":")
    if kind not in _FIXTURES:
        raise ValueError(f"unknown fixture {selector!r}")
    fx = _FIXTURES[kind]
    args = tuple(int(x) for x in arg.split(",")) if arg else ()
    if len(args) != fx.arity:
        raise ValueError(f"fixture {kind} takes {fx.arity} integer argument(s)")
    return fx, args


def fixture_text(selector: str) -> Text:
    """The text of a fixture selector; its length is checked before it is built."""
    fx, args = _fixture(selector)
    cap = GDB_LENGTH_CAP if fx.gdb else FIXTURE_LENGTH_CAP
    if fx.length(*args) > cap:
        raise ValueError(f"fixture {selector} is over the cap of {cap} symbols")
    return fx.build(*args)


def _gdb_params_of(name: str) -> debruijn.GdBParams | None:
    fx = _FIXTURES.get(name.partition(":")[0])
    if fx is None or fx.gdb is None:
        return None
    return fx.gdb(*_fixture(name)[1])


# `gclab parse --algorithm`: (text, phrase length l of an offset parsing) -> parsing
_PARSERS = {
    "lz78": lambda text, l: pmod.lz78_parse(text),
    "lz77ns": lambda text, l: pmod.lz77_parse_nonself(text),
    "offset": lambda text, l: pmod.best_offset_parsing(text, l),
}


@dataclass(frozen=True)
class RunSpec:
    inputs: tuple[tuple[str, Text], ...]    # (name, text), names unique
    algorithms: tuple[str, ...] = ("repair",)
    policy: str = "end"                     # end | threshold | maxnt:N | maxiter:N | custom:T
    encodings: tuple[str, ...] = ()
    k_list: tuple[int, ...] = (0, 1, 2)
    offsets: tuple[int, ...] = (2, 4, 8)
    seed: int = 0

    def __post_init__(self):
        names = [n for n, _ in self.inputs]
        if len(set(names)) != len(names):
            raise ValueError("input names must be unique")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}")
        for e in self.encodings:
            if e not in coders.ENCODINGS:
                raise ValueError(f"unknown encoding {e!r}")
        if any(k < 0 for k in self.k_list):
            raise ValueError("k must be >= 0")


@dataclass
class Report:
    spec_summary: dict
    entries: list[dict] = field(default_factory=list)
    generated_at: str = ""

    @property
    def all_pass(self) -> bool:
        if any("error" in e for e in self.entries):
            return False
        return all(
            row["pass"] for e in self.entries for row in e.get("bound_rows", ())
        )

    def as_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "generated_at": self.generated_at,
            "spec": self.spec_summary,
            "all_pass": self.all_pass,
            "entries": self.entries,
        }


def _repair_policy(policy: str) -> rp.StopPolicy:
    if policy == "end":
        return rp.StopPolicy.run_to_end()
    if policy == "threshold":
        return rp.StopPolicy.working_threshold()
    # one rule per iteration, so a nonterminal budget and an iteration
    # budget coincide; accept both spellings
    if policy.startswith(("maxnt:", "maxiter:")):
        return rp.StopPolicy.max_nonterminals(int(policy.split(":", 1)[1]))
    if policy.startswith("custom:"):
        return rp.StopPolicy.custom_threshold(int(policy[7:]))
    raise ValueError(f"unknown policy {policy!r} for repair")


def _greedy_policy(policy: str, n: int) -> gr.GreedyPolicy:
    if policy == "end":
        return gr.GreedyPolicy.run_to_end()
    if policy == "threshold":
        return gr.GreedyPolicy.full_threshold()
    if policy.startswith(("maxiter:", "maxnt:")):
        return gr.GreedyPolicy.max_iterations(int(policy.split(":", 1)[1]))
    if policy == "maxiter":
        return gr.GreedyPolicy.max_iterations(max(1, math.ceil(n**GREEDY_MAXITER_EXPONENT)))
    raise ValueError(f"unknown policy {policy!r} for greedy")


def _gibbs_row(parsing: pmod.Parsing, rng: random.Random) -> BoundRow:
    counts = parsing.multiset
    weights = {ph: rng.random() + 1e-9 for ph in counts}
    scale = sum(weights.values()) / 0.9999  # keep the valuation strictly sub-unit
    lhs = parsing.entropy_bits()
    rhs = -sum(c * math.log2(weights[ph] / scale) for ph, c in counts.items())
    return BoundRow.check(
        "gibbs_valuation", lhs, rhs, 1e-6, "random sub-probability valuation"
    )


def _prefixed(row: BoundRow, prefix: str, suffix: str = "") -> BoundRow:
    """``row`` renamed to prefix + name + suffix, all else unchanged."""
    return replace(row, name=f"{prefix}{row.name}{suffix}")


def _parsing_rows(rows, parsing, k_list, rng, prefix=""):
    for k in k_list:
        rep = pmod.verify_parsing_bounds(parsing, k)
        rows.extend(_prefixed(row, prefix, f"[k={k}]") for row in rep.rows)
    if len(parsing):
        rows.append(_prefixed(_gibbs_row(parsing, rng), prefix))


def _natural_row(rows, parsing, prefix=""):
    if parsing.source.sigma < 2:
        return
    _, violations = pmod.is_natural_parsing(parsing)
    rows.append(
        BoundRow.check(prefix + "natural_parsing", len(violations), 0,
                       detail="phrase-condition violations must be zero")
    )


def _cyclic_rows(rows, text, k_list):
    n = len(text)
    for k in k_list:
        lin, _ = empirical_entropy(text, k)
        cyc, _ = empirical_entropy(text, k, cyclic=True)
        rows.append(
            BoundRow.check(
                f"cyclic_vs_normal_entropy_lower[k={k}]", lin, cyc,
                math.log2(math.e) + 1e-9,
                "|S|Hk <= |S|Hk_cyclic + log2(e); the boundary term covers the "
                "final window counted without a successor",
            )
        )
        rows.append(
            BoundRow.check(
                f"cyclic_vs_normal_entropy_upper[k={k}]",
                cyc,
                lin + k * math.log2(n) + CYCLIC_SLACK_PER_K * k,
                1e-9,
                f"|S|Hk_cyclic <= |S|Hk + k log n + {CYCLIC_SLACK_PER_K} k",
            )
        )


def _encoding_rows(rows, grammar, expanded, encodings, text, k_list):
    """Size, roundtrip and Huffman sandwich rows per encoding, with each
    encoding's ratio to |S|H_k(S) of the cell's text for k in ``k_list``;
    ``expanded`` is the grammar's expansion."""
    measurements = {}
    for enc in encodings:
        if enc == "incremental" and not grammar.is_cnf:
            measurements[enc] = {"skipped": "grammar not in CNF"}
            continue
        stream, br = coders.encode(grammar, enc)
        decoded, _ = coders.from_container(coders.frame_container(grammar, enc, stream))
        rows.append(
            BoundRow.check(
                f"encoding_size_bound[{enc}]",
                br.total_bits,
                br.formula_bound_bits,
                0.0,
                "total within the instantiated encoding bound",
            )
        )
        rows.append(
            BoundRow.flag(f"roundtrip[{enc}]", decoded.expand_start() == expanded,
                          "decode(encode(g)) expands to the same text")
        )
        entry = br.as_dict()
        for k in k_list:
            hk, _ = empirical_entropy(text, k)
            entry[f"ratio_vs_hk[k={k}]"] = (br.total_bits / hk) if hk > 0 else None
        measurements[enc] = entry
        if br.huffman is not None:
            # the Huffman component alone: the payload of naive and
            # incremental also carries fixed-width rule symbols
            h0, coded, n_seq = br.huffman
            rows.append(BoundRow.check(f"huffman_sandwich_lower[{enc}]", h0, coded, 1e-9))
            rows.append(BoundRow.check(f"huffman_sandwich_upper[{enc}]", coded, h0 + n_seq, 1e-9))
    return measurements


def _grammar_rows(rows, grammar, expanded, text, check_irreducible: bool):
    ok_expand = expanded == text.symbols
    rows.append(
        BoundRow.flag("decompression_identity", ok_expand, "expand(start) equals the input text")
    )
    ig = gmod.check_irreducible(grammar)
    weak = gmod.check_weakly_nonredundant(grammar)
    n = len(text)
    if check_irreducible:
        rows.append(
            BoundRow.flag("irreducible_predicates", ig.all_ok,
                          f"IG1={ig.ig1} IG2={ig.ig2} IG3={ig.ig3}")
        )
        if n >= 16 and text.sigma >= 2:
            m = gmod.metrics(grammar)
            rows.append(
                BoundRow.check(
                    "irreducible_is_small",
                    m.rhs_size_full,
                    64.0 * n / rp.log_sigma(n, text.sigma),
                )
            )
    rows.append(
        BoundRow.flag("weakly_nonredundant", weak.ok,
                      f"underused={len(weak.underused)} short={len(weak.short_rules)}")
    )
    es = gmod.expansion_sum_check(grammar)
    if es.applicable:
        rows.append(
            BoundRow.check(
                "expansion_sum_2n", es.expansion_sum, 2.0 * n, 0.0,
                "sum of rule expansions at most 2|S|",
            )
        )
    return ig


def _entropy_concat_rows(rows, grammar, text, k):
    """Exact chain bounding the entropy coding of ||S',G||."""
    s_double, ind = gmod.induced_parsing(grammar, text)
    s_g = grammar.rhs_concat()
    lhs = coders.sequence_entropy_bits(s_g)
    hk, _ = empirical_entropy(text, k)
    l_h0 = ind.lengths_entropy_bits()
    g_count = grammar.n_rules
    rhs = (
        hk
        + len(ind) * k * math.log2(text.sigma)
        + l_h0
        + g_count * (math.log2(len(s_g)) + ENTROPY_CONCAT_ADD)
    )
    rows.append(
        BoundRow.check(
            f"entropy_coding_concatenation[k={k}]",
            lhs,
            rhs,
            1e-6,
            "|S_G|H0(S_G) <= |S|Hk + |Y''|k log sigma + |L''|H0(L'') + |G|(log|S_G|+c)",
        )
    )
    size = len(s_g) - g_count  # s_g is S' followed by every right-hand side
    rows.append(
        BoundRow("induced_parsing_size", float(len(s_double)), float(size),
                 len(s_double) == size, 0.0, "|S''| = |S'| + ||G|| - |G|")
    )


def _compress(algorithm: str, text: Text, policy: str):
    """Re-Pair or Greedy on ``text`` under the named policy: (grammar, trace).

    An input over the algorithm's size cap is refused before any work.
    """
    label, cap = ("Re-Pair", REPAIR_CAP) if algorithm == "repair" else ("Greedy", GREEDY_CAP)
    if len(text) > cap:
        raise ValueError(f"input of {len(text)} symbols exceeds the {label} cap of {cap} symbols")
    if algorithm == "repair":
        return rp.repair_run(text, _repair_policy(policy))
    return gr.greedy_run(text, _greedy_policy(policy, len(text)))


def _repair_rows(rows, grammar, expanded, trace, text):
    """Re-Pair's own rows around the grammar rows; returns its stop-point
    report under a threshold policy, else None."""
    freqs = [s.frequency for s in trace.steps]
    rows.append(
        BoundRow.flag("repair_pair_monotonicity", all(a >= b for a, b in zip(freqs, freqs[1:])),
                      "selected frequencies never increase")
    )
    n = len(text)
    ok_mf = all(
        (step.nonterminals - 1) < n / step.frequency for step in trace.steps
    )
    rows.append(
        BoundRow.flag("repair_pair_freq_nonterminals", ok_mf,
                      "|G| < n/z whenever the most frequent pair occurs z times")
    )
    ig = _grammar_rows(rows, grammar, expanded, text, check_irreducible=False)
    rows.append(
        BoundRow.flag("repair_expansions_distinct", ig.ig1,
                      "no two nonterminals share an expansion")
    )
    if trace.policy.kind in (rp.WORKING_THRESHOLD, rp.CUSTOM_THRESHOLD):
        return rp.stop_point_report(trace, text)
    return None


def _greedy_rows(rows, grammar, expanded, trace, text):
    """Greedy's own rows, then the grammar rows with the IG predicates when
    it ran to the end; returns its stop-point report under the threshold
    policy, else None."""
    n = len(text)
    sizes = [s.full_size_after for s in trace.steps]
    ok_gain = all(
        before - step.gain == after
        for before, step, after in zip([trace.initial_size] + sizes, trace.steps, sizes)
    )
    rows.append(
        BoundRow.flag("greedy_gain_accounting", ok_gain,
                      "||S',G|| drops by exactly the gain each round")
    )
    pf = [s.max_pair_freq for s in trace.steps]
    rows.append(
        BoundRow.flag("greedy_pair_monotonicity", all(a >= b for a, b in zip(pf, pf[1:])),
                      "most frequent pair count never increases")
    )
    ok_size = all(
        (step.iteration - 1) <= n / (step.max_pair_freq - 2)
        for step in trace.steps
        if step.max_pair_freq >= 3
    )
    rows.append(
        BoundRow.flag("greedy_pair_freq_size", ok_size,
                      "|G| <= n/(z-2) when the top pair occurs z >= 3 times")
    )
    _grammar_rows(rows, grammar, expanded, text, check_irreducible=trace.policy.kind == gr.RUN_TO_END)
    if trace.policy.kind == gr.FULL_THRESHOLD:
        return gr.greedy_stop_report(trace, text)
    return None


def _compressor_parsing(name, text, algorithm, spec, rows, measurements) -> pmod.Parsing:
    """A Re-Pair or Greedy cell: the algorithm's own rows, then the stop-point,
    entropy-chain and encoding rows every grammar gets; returns the parsing
    induced by the starting string."""
    grammar, trace = _compress(algorithm, text, spec.policy)
    expanded = grammar.expand_start()
    own_rows = _repair_rows if algorithm == "repair" else _greedy_rows
    stop = own_rows(rows, grammar, expanded, trace, text)
    if stop is not None:
        rows.extend(stop.rows)
        measurements["stop_point"] = stop.measurements
    k_mid = spec.k_list[len(spec.k_list) // 2] if spec.k_list else 0
    _entropy_concat_rows(rows, grammar, text, k_mid)
    m = gmod.metrics(grammar)
    compressor = {
        "iterations": len(trace.steps),
        "nonterminals": m.n_nonterminals,
        "rhs_size_full": m.rhs_size_full,
    }
    if algorithm == "repair":
        compressor["working_len"] = len(grammar.start)
    compressor["stopped_by"] = trace.stopped_by
    measurements["compressor"] = compressor
    measurements["encodings"] = _encoding_rows(rows, grammar, expanded, spec.encodings, text, spec.k_list)
    if algorithm == "repair" and name.startswith("worst:") and "incremental" in spec.encodings:
        n = len(text)
        total_bits = measurements["encodings"]["incremental"]["total_bits"]
        bound = 0.75 * n * math.log2(n) - WORST_CASE_LINEAR_SLACK * n
        rows.append(
            BoundRow.check(
                "repair_worst_case_incremental",
                bound,
                total_bits,
                0.0,
                "incremental total >= (3/4)|S| log|S| - 6|S|",
            )
        )
        h0, _ = empirical_entropy(text, 0)
        measurements["worst_case_ratio"] = total_bits / h0 if h0 else None
    return gmod.start_parsing(grammar, text)


def _entry(name: str, text: Text, algorithm: str, spec: RunSpec) -> dict:
    rng = random.Random((spec.seed, name, algorithm).__repr__())
    rows: list[BoundRow] = []
    measurements: dict = {"n": len(text), "sigma": text.sigma}
    for k in spec.k_list:
        total, per = empirical_entropy(text, k)
        measurements[f"hk_total[k={k}]"] = total
        measurements[f"hk_bits_per_symbol[k={k}]"] = per
    _cyclic_rows(rows, text, [k for k in spec.k_list if k < len(text)])

    # (row prefix, parsing, phrase length l of an offset parsing or None)
    if algorithm == "offset-parse":
        offsets = [l for l in spec.offsets if 1 <= l <= len(text)]
        parsings = [(f"l={l}:", _PARSERS["offset"](text, l), l) for l in offsets]
        # one walk gives every offset row's mean of H_0..H_{l-1}
        profile = entropy_profile(text, max(offsets, default=1) - 1)
    elif algorithm in _PARSERS:
        parsings = [("", _PARSERS[algorithm](text, None), None)]
    else:
        parsings = [("", _compressor_parsing(name, text, algorithm, spec, rows, measurements), None)]

    gdb = _gdb_params_of(name)
    for prefix, parsing, l in parsings:
        _parsing_rows(rows, parsing, spec.k_list, rng, prefix)
        if l is not None:
            rep = pmod.parsing_cost(parsing)
            n = len(text)
            rows.append(
                BoundRow.check(
                    f"offset_mean_entropy[l={l}]",
                    rep.cost_bits,
                    n * profile.mean_up_to[l] + math.log2(n),
                    1e-6,
                    "C(Y) <= |S| mean_{i<l} H_i + log |S|",
                )
            )
            rows.append(
                BoundRow.check(
                    f"offset_parsing_size[l={l}]",
                    len(parsing),
                    math.ceil(n / l) + 1,
                )
            )
        else:
            _natural_row(rows, parsing, prefix)
            if gdb is not None:
                # offset parsings may exceed z = k+l+1 legitimately; the
                # lower bound applies to natural parsers only
                sub = debruijn.lower_bound_check(text, parsing, gdb)
                rows.extend(_prefixed(row, prefix) for row in sub.rows)
        measurements[f"parsing{prefix or ':'}phrases"] = len(parsing)

    if gdb is not None and algorithm == spec.algorithms[0]:
        cert = debruijn.verify_gdb(text, gdb)
        rows.append(
            BoundRow.flag(
                "debruijn_counts",
                cert.db1 and cert.db2 and cert.db3 and cert.tables_consistent,
                f"dB1={cert.db1} dB2={cert.db2} dB3={cert.db3}",
            )
        )
        rows.append(
            BoundRow.check(
                "gdb_entropy_window_slack",
                cert.slack_constant,
                GDB_ENTROPY_SLACK_C,
                0.0,
                "measured linear-entropy slack constant",
            )
        )
        rows.append(
            BoundRow.flag("gdb_entropy_cyclic_exact", cert.entropy_cyclic_ok,
                          "cyclic entropies hit log sigma / (log sigma)/2 exactly")
        )

    return {
        "input": name,
        "algorithm": algorithm,
        "policy": spec.policy,
        "measurements": measurements,
        "bound_rows": [r.as_dict() for r in rows],
    }


def run(spec: RunSpec) -> Report:
    """Execute the matrix; per-input failures are isolated into error entries."""
    report = Report(
        spec_summary={
            "algorithms": list(spec.algorithms),
            "policy": spec.policy,
            "encodings": list(spec.encodings),
            "k_list": list(spec.k_list),
            "offsets": list(spec.offsets),
            "seed": spec.seed,
            "inputs": [n for n, _ in spec.inputs],
        },
        generated_at=datetime.now(timezone.utc).isoformat(),
    )
    for name, text in sorted(spec.inputs, key=lambda it: it[0]):
        for algorithm in spec.algorithms:
            try:
                entry = _entry(name, text, algorithm, spec)
            except Exception as exc:  # isolate per-input failures
                entry = {
                    "input": name,
                    "algorithm": algorithm,
                    "policy": spec.policy,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            report.entries.append(entry)
        release_caches(text)  # only this input's cells read what it derived
    return report


def emit(report: Report, fmt: str = "json") -> bytes:
    """Serialize a report; stable field order, schema version stamped."""
    if fmt == "json":
        return (json.dumps(report.as_dict(), indent=2) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["input", "algorithm", "policy", "n", "sigma", "bound_rows",
             "bounds_failed", "all_pass", "failed_names", "error"]
        )
        for e in report.entries:
            if "error" in e:
                writer.writerow(
                    [e["input"], e["algorithm"], e["policy"], "", "", 0, 0,
                     False, "", e["error"]]
                )
                continue
            rows = e["bound_rows"]
            failed = [r["name"] for r in rows if not r["pass"]]
            writer.writerow(
                [
                    e["input"],
                    e["algorithm"],
                    e["policy"],
                    e["measurements"]["n"],
                    e["measurements"]["sigma"],
                    len(rows),
                    len(failed),
                    not failed,
                    ";".join(failed),
                    "",
                ]
            )
        return buf.getvalue().encode()
    raise ValueError(f"unknown format {fmt!r}")


# -- CLI ---------------------------------------------------------------------------


def _load_input(spec: str) -> tuple[str, Text]:
    """A fixture selector, or else a file: "kind:args" of a known kind, or the
    bare name of a kind without arguments, is a selector."""
    kind, colon, _ = spec.partition(":")
    if kind in _FIXTURES and (colon or not _FIXTURES[kind].arity):
        return spec, fixture_text(spec)
    return spec, load_text(spec)


def _add_common(p):
    p.add_argument("--out", help="output file (default: stdout)")


def _write_out(args, data: bytes):
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    1 to 2 ms, more than decoding a small container.  Parsing keeps no
    state in it, so every main() call may use it."""
    ap = argparse.ArgumentParser(prog="gclab", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("entropy", help="k-order empirical entropies of an input")
    p.add_argument("input")
    p.add_argument("--k", type=int, default=2, help="maximum order")
    p.add_argument("--cyclic", action="store_true")
    _add_common(p)

    p = sub.add_parser("parse", help="produce a parsing and its cost figures")
    p.add_argument("input")
    p.add_argument("--algorithm", choices=tuple(_PARSERS), default="lz78")
    p.add_argument("--l", type=int, default=4, help="phrase length for offset parsing")
    p.add_argument("--k", type=int, default=2, help="order for the cost report")
    _add_common(p)

    p = sub.add_parser("repair", help="run Re-Pair")
    p.add_argument("input")
    p.add_argument("--policy", default="end",
                   help="end | threshold | maxnt:N | maxiter:N | custom:T")
    p.add_argument("--trace-out", help="JSON-lines trace output")
    _add_common(p)

    p = sub.add_parser("greedy", help="run Greedy")
    p.add_argument("input")
    p.add_argument("--policy", default="end",
                   help="end | threshold | maxiter:N | maxiter (ceil(n^0.5) rounds)")
    p.add_argument("--trace-out", help="JSON-lines trace output")
    _add_common(p)

    p = sub.add_parser("encode", help="encode a grammar file (GCL1) into a container")
    p.add_argument("grammar")
    p.add_argument("--encoding", choices=coders.ENCODINGS, default="entropy")
    _add_common(p)

    p = sub.add_parser("decode", help="decode a container (GCB1) back to a grammar")
    p.add_argument("container")
    _add_common(p)

    p = sub.add_parser("debruijn", help="emit a generalized de Bruijn word")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--certificate", action="store_true",
                   help="emit the dB1-dB3 certificate as JSON instead")
    _add_common(p)

    p = sub.add_parser("verify", help="verify parsing bounds for a stored parsing")
    p.add_argument("--text", required=True)
    p.add_argument("--parsing", required=True)
    p.add_argument("--k", type=int, default=2)
    _add_common(p)

    p = sub.add_parser("report", help="run the experiment matrix")
    p.add_argument("inputs", nargs="+", help="files or fixture selectors")
    p.add_argument("--algorithms", default="repair",
                   help="comma list from: " + ",".join(ALGORITHMS))
    p.add_argument("--policy", default="end")
    p.add_argument("--encodings", default="", help="comma list of encodings")
    p.add_argument("--k", default="0,1,2", help="comma list of entropy orders")
    p.add_argument("--offsets", default="2,4,8")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"gclab: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.cmd == "entropy":
        _, text = _load_input(args.input)
        profile = entropy_profile(text, args.k, args.cyclic)
        out = {
            "n": len(text),
            "sigma": text.sigma,
            "cyclic": args.cyclic,
            "per_order": [
                {"k": k, "total_bits": t, "bits_per_symbol": b}
                for k, t, b in profile.per_order
            ],
            "mean_up_to": profile.mean_up_to,
        }
        _write_out(args, (json.dumps(out, indent=2) + "\n").encode())
        return 0

    if args.cmd == "parse":
        _, text = _load_input(args.input)
        parsing = _PARSERS[args.algorithm](text, args.l)
        _write_out(args, parsing.dumps().encode())
        rep = pmod.parsing_cost(parsing, args.k)
        print(
            json.dumps(
                {
                    "phrases": len(parsing),
                    "parsing_entropy_bits": rep.parsing_entropy_bits,
                    "cost_bits": rep.cost_bits,
                    "k_cost_bits": rep.k_cost_bits,
                    "lengths_entropy_bits": rep.lengths_entropy_bits,
                },
                indent=2,
            ),
            file=sys.stderr,
        )
        return 0

    if args.cmd in ("repair", "greedy"):
        _, text = _load_input(args.input)
        grammar, trace = _compress(args.cmd, text, args.policy)
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                for step in trace.steps:
                    fh.write(json.dumps(step.as_dict()) + "\n")
        _write_out(args, gmod.to_binary(grammar))
        return 0

    if args.cmd == "encode":
        with open(args.grammar, "rb") as fh:
            grammar = gmod.from_binary(fh.read())
        stream, br = coders.encode(grammar, args.encoding)
        _write_out(args, coders.frame_container(grammar, args.encoding, stream))
        print(json.dumps(br.as_dict(), indent=2), file=sys.stderr)
        return 0

    if args.cmd == "decode":
        with open(args.container, "rb") as fh:
            grammar, encoding = coders.from_container(fh.read())
        _write_out(args, gmod.to_binary(grammar))
        print(f"encoding: {encoding}", file=sys.stderr)
        return 0

    if args.cmd == "debruijn":
        selector = f"gdb:{args.k},{args.l},{args.p}"
        params, word = _gdb_params_of(selector), fixture_text(selector)
        if args.certificate:
            cert = debruijn.verify_gdb(word, params)
            payload = {
                "params": {"k": params.k, "l": params.l, "p": params.p},
                "length": len(word),
                "db1": cert.db1,
                "db2": cert.db2,
                "db3": cert.db3,
                "entropy_cyclic": cert.entropy_cyclic,
                "entropy_linear": cert.entropy_linear,
                "slack_constant": cert.slack_constant,
                "all_ok": cert.all_ok,
            }
            _write_out(args, (json.dumps(payload, indent=2) + "\n").encode())
            return 0 if cert.all_ok else 1
        _write_out(args, word.to_tokens().encode())
        return 0

    if args.cmd == "verify":
        _, text = _load_input(args.text)
        with open(args.parsing) as fh:
            parsing = pmod.Parsing.loads(text, fh.read())
        rep = pmod.verify_parsing_bounds(parsing, args.k)
        payload = {
            "rows": [r.as_dict() for r in rep.rows],
            "measurements": rep.measurements,
        }
        _write_out(args, (json.dumps(payload, indent=2) + "\n").encode())
        return 0 if rep.all_pass else 1

    if args.cmd == "report":
        inputs = tuple(_load_input(s) for s in args.inputs)
        spec = RunSpec(
            inputs=inputs,
            algorithms=tuple(args.algorithms.split(",")),
            policy=args.policy,
            encodings=tuple(e for e in args.encodings.split(",") if e),
            k_list=tuple(int(x) for x in args.k.split(",")),
            offsets=tuple(int(x) for x in args.offsets.split(",")),
            seed=args.seed,
        )
        report = run(spec)
        _write_out(args, emit(report, args.format))
        return 0 if report.all_pass else 1

    raise AssertionError("unhandled command")


if __name__ == "__main__":
    sys.exit(main())
