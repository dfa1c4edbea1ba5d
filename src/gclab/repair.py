"""Re-Pair: repeatedly replace the most frequent pair of the working string.

Frequency is the maximal greedy left-to-right non-overlapping occurrence
count; ties go to the pair whose first occurrence is leftmost.  Stopping
policies: run to exhaustion (max frequency <= 1), stop once the working
string first drops below ceil(16 n / log_sigma n), a caller-given length
threshold, or a nonterminal budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grammar import FullGrammar
from .pairs import PairEngine
from .reporting import BoundRow, CheckReport
from .textcore import Text

RUN_TO_END = "run_to_end"
WORKING_THRESHOLD = "working_threshold"
MAX_NONTERMINALS = "max_nonterminals"
CUSTOM_THRESHOLD = "custom_threshold"


@dataclass(frozen=True)
class StopPolicy:
    kind: str
    param: int | None = None

    @classmethod
    def run_to_end(cls) -> "StopPolicy":
        return cls(RUN_TO_END)

    @classmethod
    def working_threshold(cls) -> "StopPolicy":
        """Stop when the working string is first below ceil(16 n / log_sigma n)."""
        return cls(WORKING_THRESHOLD)

    @classmethod
    def max_nonterminals(cls, m: int) -> "StopPolicy":
        if m < 1:
            raise ValueError("nonterminal budget must be positive")
        return cls(MAX_NONTERMINALS, m)

    @classmethod
    def custom_threshold(cls, t: int) -> "StopPolicy":
        if t < 1:
            raise ValueError("threshold must be positive")
        return cls(CUSTOM_THRESHOLD, t)


def log_sigma(n: int, sigma: int) -> float:
    """log_sigma(n) via the natural-log ratio."""
    return math.log(n) / math.log(sigma)


def repair_threshold(n: int, sigma: int) -> int:
    return math.ceil(16.0 * n / log_sigma(n, sigma))


@dataclass(frozen=True)
class RepairStep:
    iteration: int          # 1-based
    pair: tuple[int, int]
    frequency: int          # greedy non-overlapping count at selection
    working_len: int        # after the replacement
    nonterminals: int       # after the replacement

    def as_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "pair": list(self.pair),
            "frequency": self.frequency,
            "working_len": self.working_len,
            "nonterminals": self.nonterminals,
        }


@dataclass
class RepairTrace:
    steps: list[RepairStep]
    policy: StopPolicy
    initial_length: int
    sigma: int
    threshold: int | None
    stopped_by: str  # "exhausted" | "threshold" | "max_nonterminals"


def _resolve_threshold(text: Text, policy: StopPolicy) -> int | None:
    if policy.kind == WORKING_THRESHOLD:
        if text.sigma < 2:
            raise ValueError("threshold policy needs sigma >= 2")
        return repair_threshold(len(text), text.sigma)
    if policy.kind == CUSTOM_THRESHOLD:
        if text.sigma < 2:
            raise ValueError("threshold policy needs sigma >= 2")
        return policy.param
    return None


def repair_run(
    text: Text,
    policy: StopPolicy | None = None,
    on_step=None,
) -> tuple[FullGrammar, RepairTrace]:
    """Run Re-Pair under the given stopping policy.

    ``on_step(grammar)`` is invoked with the full grammar after every
    iteration when given (tests use it to check the decompression identity
    iteration by iteration).
    """
    policy = policy or StopPolicy.run_to_end()
    n = len(text)
    if n < 2:
        raise ValueError("Re-Pair needs |text| >= 2")
    threshold = _resolve_threshold(text, policy)
    sigma = text.sigma

    engine = PairEngine(text.symbols)
    rules: list[tuple[int, int]] = []
    steps: list[RepairStep] = []
    stopped_by = "exhausted"

    if threshold is not None and engine.alive < threshold:
        stopped_by = "threshold"
    else:
        while True:
            if policy.kind == MAX_NONTERMINALS and len(rules) >= policy.param:
                stopped_by = "max_nonterminals"
                break
            sel = engine.select()
            if sel is None:
                stopped_by = "exhausted"
                break
            pair, count, _first, positions = sel
            new_sym = sigma + len(rules)
            rules.append(pair)
            engine.replace(pair, positions, new_sym)
            steps.append(
                RepairStep(len(rules), pair, count, engine.alive, len(rules))
            )
            if on_step is not None:
                working = engine.symbols()
                on_step(FullGrammar(sigma, working, rules))
            if threshold is not None and engine.alive < threshold:
                stopped_by = "threshold"
                break

    working = engine.symbols()
    grammar = FullGrammar(sigma, working, rules)
    trace = RepairTrace(steps, policy, n, sigma, threshold, stopped_by)
    return grammar, trace


def stop_point_report(trace: RepairTrace, text: Text) -> CheckReport:
    """Working-string length and nonterminal count at the threshold stop."""
    if trace.policy.kind not in (WORKING_THRESHOLD, CUSTOM_THRESHOLD):
        raise ValueError("stop-point report needs a threshold-policy trace")
    n = len(text)
    t = trace.threshold
    final_len = trace.steps[-1].working_len if trace.steps else trace.initial_length
    nonterminals = len(trace.steps)
    out = CheckReport()
    out.add(
        BoundRow(
            "repair_stop_exists",
            float(final_len),
            float(t),
            final_len < t,
            0.0,
            "strict: working string below threshold at stop",
        )
    )
    bound = math.sqrt(n) * log_sigma(n, text.sigma)
    out.add(BoundRow.check("repair_stop_nonterminals", nonterminals, bound))
    out.measurements.update(
        {
            "threshold": t,
            "working_len_at_stop": final_len,
            "nonterminals_at_stop": nonterminals,
            "iterations": len(trace.steps),
            "stopped_by": trace.stopped_by,
        }
    )
    return out


def worst_case_family(n: int) -> Text:
    """a_1 # a_2 # ... a_n # a_n # ... a_1 # over n+1 letters; |S| = 4n.

    Every pair occurs exactly twice, |S| H_0(S) = (|S|/2) log |S|, and
    Re-Pair run to the end yields exactly |S|/4 rules.
    """
    if n < 1:
        raise ValueError("family parameter must be >= 1")
    hash_sym = n
    seq = []
    for i in range(n):
        seq.extend((i, hash_sym))
    for i in range(n - 1, -1, -1):
        seq.extend((i, hash_sym))
    return Text(seq, n + 1)
