"""The three workloads: inputs made from the seed, timed rounds, and checks.

A round is one pass over a workload's operations.  Every run makes whole
rounds, so the share of failed operations does not depend on run length.

Each workload has a focus, whose time is ``wall_s``, and reports all eight
end-to-end metrics.  A phase outside the focus (for example certification on
``compress``) runs on a tiny side input between the focus's steps, outside
``wall_s`` and untraced, so the layer isolation of each workload holds for ``wall_s``
and for the per-layer figures, and the side phases' memory stays far below
the focus's peak.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
from checks import ENCODINGS

# compress: sigma=256 byte files
RANDOM_N = 1 << 15
REPETITIVE_N = 1 << 17
REPETITIVE_BLOCK = 4096
REPETITIVE_MUTATIONS = 4  # byte substitutions per copy of the block

# report: the ROADMAP baseline matrix
REPORT_TEXT = "random-s4-n20000.tok"
REPORT_SIGMA, REPORT_N = 4, 20000
REPORT_FIXTURES = ("worst:1024", "gdb:2,3,1")
REPORT_ALGORITHMS = ("repair", "greedy", "lz78", "lz77ns", "offset-parse")
REPORT_K = (0, 1, 2)

# adversary: (k, l, p) triples; words of length 2^(p(2k+l+1))
CERTIFY_GRID = ((1, 15, 1), (2, 4, 2), (3, 3, 2))   # 2^18, 2^18, 2^20 symbols
PARSE_WORDS = ((1, 15, 1), (2, 4, 2))               # 2^18 symbols each
LZ77_SAMPLE = 2000                                   # phrases checked per parsing
# Certification and parsing lean on numpy window arrays and a suffix automaton
# of the whole word, and a slow stretch of the host slows them less than it
# slows the probe, the more so the longer the word: regressed over 5-6 second
# windows, their log time rose 0.42-0.53 times as fast as the probe's on the
# adversary's words of 2^18 symbols and more, and 0.71-0.95 times on side
# words of 2^12 and 2^14 symbols, against 0.90-1.12 for Re-Pair, Greedy and
# expansion.
# Their times are scaled with these exponents (the rest with 1).
LARGE_WORD_ELASTICITY = 0.5
SIDE_WORD_ELASTICITY = 0.8

# tiny side inputs for phases outside a workload's focus
SIDE_FILE = ("side", 1 << 12)
SIDE_WORD = (1, 9, 1)                                # 2^12 symbols

def random_bytes(rng: random.Random, n: int) -> bytes:
    return rng.getrandbits(8 * n).to_bytes(n, "little")


def repetitive_bytes(rng: random.Random, n: int) -> bytes:
    """Copies of one random block, each with a few random substitutions."""
    block = random_bytes(rng, REPETITIVE_BLOCK)
    out = bytearray()
    while len(out) < n:
        copy = bytearray(block)
        for _ in range(REPETITIVE_MUTATIONS):
            copy[rng.randrange(len(copy))] = rng.randrange(256)
        out += copy
    return bytes(out[:n])


def rotation(seed: int, params, word):
    """A seeded cyclic rotation; dB1-dB3 are cyclic, so it is again a gdb word."""
    r = random.Random(f"{seed}/{params}").randrange(len(word))
    return word[r:] + word[:r]


@dataclass
class RoundResult:
    # timed units: (key, phase, symbols, seconds, focus); a unit is one phase
    # applied to one input, and recurs with the same key in every round
    units: list = field(default_factory=list)
    focus_seconds: float = 0.0
    container_bytes: dict = field(default_factory=dict)  # stem -> bytes of its containers
    outputs: dict = field(default_factory=dict)
    digest: str = ""

    def add(self, key: str, phase: str, symbols: int, seconds: float, focus: bool):
        self.units.append((key, phase, symbols, seconds, focus))
        if focus:
            self.focus_seconds += seconds


class Lab:
    """Drives gclab for one run and tallies attempted and failed operations."""

    def __init__(self, gclab, workdir: Path, seed: int, tracer=None, probe=None):
        self.gclab = gclab
        self.workdir = workdir
        self.seed = seed
        self.tracer = tracer
        self.probe = probe  # a SpeedProbe scales each time to the reference speed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def seconds(self, t0: float, t1: float, elasticity: float) -> float:
        return self.probe.scaled(t0, t1, elasticity) if self.probe is not None else t1 - t0

    def attempt(self, op: str, fn, *args, elasticity: float = 1.0):
        """Run one operation; returns (result or None, seconds)."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = op
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # a failed operation is counted, the run goes on
            seconds = self.seconds(t0, time.perf_counter(), elasticity)
            self.failed += 1
            self.errors.append(f"{op}: {traceback.format_exc(limit=3)}")
            return None, seconds
        return result, self.seconds(t0, time.perf_counter(), elasticity)

    def cli(self, *argv) -> int:
        with contextlib.redirect_stderr(io.StringIO()):
            return self.gclab.labcli.main(list(map(str, argv)))

    def cli_ok(self, *argv):
        code = self.cli(*argv)
        if code != 0:
            raise RuntimeError(f"gclab {argv[0]} exited {code}")

    @contextlib.contextmanager
    def side(self):
        """Side phases are not traced."""
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False

    # -- phases ---------------------------------------------------------------

    def compress_file(self, res: RoundResult, stem: str, n: int, focus: bool):
        """gclab repair, then gclab encode with each encoding."""
        src, gcl = self.workdir / f"{stem}.bin", self.workdir / f"{stem}.gcl"
        for stale in self.workdir.glob(f"{stem}.*"):
            if stale != src:
                stale.unlink()
        _, seconds = self.attempt(f"{stem}/repair", self.cli_ok, "repair", src, "--out", gcl)
        for enc in ENCODINGS:
            _, s = self.attempt(f"{stem}/encode[{enc}]", self.cli_ok,
                                "encode", gcl, "--encoding", enc, "--out", self.workdir / f"{stem}.{enc}.gcb")
            seconds += s
        res.add(f"compress:{stem}", "compress", n, seconds, focus)
        res.container_bytes[stem] = 0
        for enc in ENCODINGS:
            path = self.workdir / f"{stem}.{enc}.gcb"
            if path.exists():
                res.container_bytes[stem] += path.stat().st_size
                res.outputs[f"{stem}.{enc}.gcb"] = path.read_bytes()
        if gcl.exists():
            res.outputs[f"{stem}.gcl"] = gcl.read_bytes()

    def _expand(self, path: Path):
        grammar = self.gclab.grammar.from_binary(path.read_bytes())
        return grammar.expand_start()

    def decompress_file(self, res: RoundResult, stem: str, n: int, focus: bool):
        """gclab decode of each container, then expand_start of the grammar."""
        seconds = 0.0
        for enc in ENCODINGS:
            dec = self.workdir / f"{stem}.{enc}.dec.gcl"
            _, s = self.attempt(f"{stem}/decode[{enc}]", self.cli_ok,
                                "decode", self.workdir / f"{stem}.{enc}.gcb", "--out", dec)
            seconds += s
            symbols, s = self.attempt(f"{stem}/expand[{enc}]", self._expand, dec)
            seconds += s
            if symbols is not None:
                res.outputs[f"{stem}.{enc}.expanded"] = bytes(symbols)
                res.outputs[f"{stem}.{enc}.dec.gcl"] = dec.read_bytes()
        res.add(f"decompress:{stem}", "decompress", n * len(ENCODINGS), seconds, focus)

    def _certify(self, params):
        db = self.gclab.debruijn
        p = db.GdBParams(*params)
        word = db.generalized_word(p)
        if not db.verify_gdb(word, p).all_ok:
            raise RuntimeError(f"verify_gdb rejects gdb{params}")
        return word

    def certify_word(self, res: RoundResult, params, focus: bool):
        word, seconds = self.attempt(f"gdb{params}/certify", self._certify, params,
                                     elasticity=LARGE_WORD_ELASTICITY if focus else SIDE_WORD_ELASTICITY)
        res.add(f"certify:{params}", "certify", 2 ** (params[2] * (2 * params[0] + params[1] + 1)), seconds, focus)
        if word is not None:
            res.outputs[f"gdb{params}.word"] = word.symbols
        return word

    def _parse(self, parser: str, text, params):
        g = self.gclab
        p = g.debruijn.GdBParams(*params)
        fn = g.parsing.lz78_parse if parser == "lz78" else g.parsing.lz77_parse_nonself
        parsing = fn(text)
        lower = g.debruijn.lower_bound_check(text, parsing, p)
        bounds = g.parsing.verify_parsing_bounds(parsing, p.k)
        if not (lower.all_pass and bounds.all_pass):
            raise RuntimeError(f"{parser} parsing of gdb{params} fails a bound row")
        return parsing.phrases

    def parse_word(self, res: RoundResult, params, word, focus: bool):
        """A seeded rotation of a certified word (again a gdb word, since
        dB1-dB3 count cyclically) through LZ78 and LZ77ns, lower_bound_check
        and verify_parsing_bounds."""
        if word is None:  # certification failed; so do both parsings
            self.attempted += 2
            self.failed += 2
            return
        symbols = rotation(self.seed, params, word.symbols)
        res.outputs[f"gdb{params}.rotated"] = symbols
        text = self.gclab.Text(symbols, word.sigma)
        for parser in ("lz78", "lz77ns"):
            phrases, seconds = self.attempt(f"gdb{params}/{parser}", self._parse, parser, text, params,
                                            elasticity=LARGE_WORD_ELASTICITY if focus else SIDE_WORD_ELASTICITY)
            res.add(f"parse:{params}:{parser}", "parse", len(symbols), seconds, focus)
            if phrases is not None:
                res.outputs[f"gdb{params}.{parser}"] = phrases

    def run_report(self, res: RoundResult, argv):
        """One gclab report; each cell (input x algorithm) is an operation."""
        cells = (len(REPORT_FIXTURES) + 1) * len(REPORT_ALGORITHMS)
        out = self.workdir / "report.json"
        out.unlink(missing_ok=True)
        self.attempted += cells - 1
        code, seconds = self.attempt("report", self.cli, *argv, "--out", out)
        res.add("report", "report", 0, seconds, True)
        report = json.loads(out.read_text()) if code is not None and out.exists() else {}
        entries = report.get("entries", [])
        bad = sum(1 for e in entries if "error" in e or not all(r["pass"] for r in e["bound_rows"]))
        # a crashed command fails every cell; attempt() counted one of them
        self.failed += bad + cells - len(entries) - (code is None)
        report.pop("generated_at", None)  # the one field that differs between rounds
        res.outputs["report.exit"] = code
        res.outputs["report"] = report


def _digest(outputs: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(outputs):
        h.update(key.encode())
        h.update(repr(outputs[key]).encode())
    return h.hexdigest()


def side_inputs(rng: random.Random, workdir: Path) -> dict:
    stem, n = SIDE_FILE
    data = random_bytes(rng, n)
    (workdir / f"{stem}.bin").write_bytes(data)
    return {"side_file": data}


def side_file_phases(lab: Lab, res: RoundResult, inputs: dict):
    stem, n = SIDE_FILE
    lab.compress_file(res, stem, n, focus=False)
    lab.decompress_file(res, stem, n, focus=False)


def side_word_phases(lab: Lab, res: RoundResult, inputs: dict):
    word = lab.certify_word(res, SIDE_WORD, focus=False)
    lab.parse_word(res, SIDE_WORD, word, focus=False)


class Workload:
    """A round runs the side phases before the focus and after each of its
    steps.  A shared machine's speed drifts over seconds, so side samples
    spread over the whole round give steadier medians than a block of them."""

    name = ""
    side_phases: tuple = ()
    side_passes = 1  # passes over the side phases at each place

    def round(self, lab: Lab, inputs: dict) -> RoundResult:
        res = RoundResult()
        self._side(lab, res, inputs)
        for _ in self.focus(lab, res, inputs):
            self._side(lab, res, inputs)
        res.digest = _digest(res.outputs)
        return res

    def _side(self, lab: Lab, res: RoundResult, inputs: dict):
        with lab.side():
            for _ in range(self.side_passes):
                for phase in self.side_phases:
                    phase(lab, res, inputs)

    def focus(self, lab: Lab, res: RoundResult, inputs: dict):
        """Runs the focus, yielding after each step."""
        raise NotImplementedError


class Compress(Workload):
    name = "compress"
    side_phases = (side_word_phases,)
    side_passes = 3  # the side word takes milliseconds: more samples for its medians

    def setup(self, rng: random.Random, workdir: Path) -> dict:
        inputs = {
            "random": random_bytes(rng, RANDOM_N),
            "repetitive": repetitive_bytes(rng, REPETITIVE_N),
        }
        for stem, data in inputs.items():
            (workdir / f"{stem}.bin").write_bytes(data)
        side = side_inputs(rng, workdir)
        return {"files": inputs, **side}

    def focus(self, lab: Lab, res: RoundResult, inputs: dict):
        for stem, data in inputs["files"].items():
            lab.compress_file(res, stem, len(data), focus=True)
            yield
        for stem, data in inputs["files"].items():
            lab.decompress_file(res, stem, len(data), focus=True)
            yield

    def check(self, lab: Lab, inputs: dict, res: RoundResult, seed: int) -> list[str]:
        out = []
        for stem, data in inputs["files"].items():
            out += check_compressed(res.outputs, stem, data)
        return out + check_side_word(inputs, res, seed)


class Report(Workload):
    name = "report"
    side_phases = (side_file_phases, side_word_phases)
    # the focus is one step, so a round has two places for side phases and a
    # run one or two rounds: more passes give each side median enough samples
    side_passes = 5

    def setup(self, rng: random.Random, workdir: Path) -> dict:
        symbols = [rng.randrange(REPORT_SIGMA) for _ in range(REPORT_N)]
        path = workdir / REPORT_TEXT
        path.write_text(f"sigma={REPORT_SIGMA}\n" + " ".join(map(str, symbols)) + "\n")
        side = side_inputs(rng, workdir)
        # the report names an input by the path it was given; keep it stable
        return {"text": symbols, "path": path.relative_to(Path.cwd()).as_posix(), **side}

    def focus(self, lab: Lab, res: RoundResult, inputs: dict):
        lab.run_report(res, ("report", inputs["path"], *REPORT_FIXTURES,
                             "--algorithms", ",".join(REPORT_ALGORITHMS),
                             "--encodings", ",".join(ENCODINGS),
                             "--k", ",".join(map(str, REPORT_K))))
        yield

    def check(self, lab: Lab, inputs: dict, res: RoundResult, seed: int) -> list[str]:
        # fixture texts come from gclab; their entropies are recomputed here
        fixtures = {f: lab.gclab.labcli.fixture_text(f).symbols for f in REPORT_FIXTURES}
        texts = {inputs["path"]: inputs["text"], **fixtures}
        out = checks.check_report(res.outputs["report.exit"], res.outputs["report"], texts,
                                  REPORT_ALGORITHMS, REPORT_K)
        return out + check_side_file(inputs, res) + check_side_word(inputs, res, seed)


class Adversary(Workload):
    name = "adversary"
    side_phases = (side_file_phases,)

    def setup(self, rng: random.Random, workdir: Path) -> dict:
        return side_inputs(rng, workdir)

    def focus(self, lab: Lab, res: RoundResult, inputs: dict):
        words = {}
        for params in CERTIFY_GRID:
            words[params] = lab.certify_word(res, params, focus=True)
            yield
        for params in PARSE_WORDS:
            lab.parse_word(res, params, words[params], focus=True)
            yield

    def check(self, lab: Lab, inputs: dict, res: RoundResult, seed: int) -> list[str]:
        out = []
        for params in CERTIFY_GRID:
            word = res.outputs.get(f"gdb{params}.word")
            if word is not None:
                out += checks.check_gdb_word(word, *params)
        for params in PARSE_WORDS:
            out += check_parsed(res.outputs, params, seed)
        return out + check_side_file(inputs, res)


WORKLOADS = {w.name: w for w in (Compress(), Report(), Adversary())}


# -- side phases and shared checks -------------------------------------------


def check_compressed(outputs: dict, stem: str, data: bytes) -> list[str]:
    gcl = outputs.get(f"{stem}.gcl")
    if gcl is None:
        return []  # the failed operation is already counted
    out = checks.check_repair_grammar(gcl, data)
    for enc in ENCODINGS:
        dec = outputs.get(f"{stem}.{enc}.dec.gcl")
        if dec is not None:
            out += checks.check_decoded(dec, outputs[f"{stem}.{enc}.expanded"], data, f"{stem}/{enc}")
    gcb = outputs.get(f"{stem}.entropy.gcb")
    if gcb is not None:
        out += checks.check_entropy_container(gcb, gcl)
    return out


def check_parsed(outputs: dict, params, seed: int) -> list[str]:
    word = outputs.get(f"gdb{params}.rotated")
    out = []
    for parser in ("lz78", "lz77ns"):
        phrases = outputs.get(f"gdb{params}.{parser}")
        if word is None or phrases is None:
            continue
        label = f"gdb{params}/{parser}"
        out += checks.check_concatenation(word, phrases, label)
        if parser == "lz78":
            out += checks.check_lz78(phrases, label)
        else:
            out += checks.check_lz77ns(word, phrases, seed, LZ77_SAMPLE, label)
    return out


def check_side_file(inputs: dict, res: RoundResult) -> list[str]:
    return check_compressed(res.outputs, SIDE_FILE[0], inputs["side_file"])


def check_side_word(inputs: dict, res: RoundResult, seed: int) -> list[str]:
    out = []
    word = res.outputs.get(f"gdb{SIDE_WORD}.word")
    if word is not None:
        out += checks.check_gdb_word(word, *SIDE_WORD)
    return out + check_parsed(res.outputs, SIDE_WORD, seed)
