"""gclab benchmark: one workload in this process, on one thread.

    python3 bench/run.py --workload {compress,report,adversary} \
        --seed N --seconds S --trace {0,1}

Run from a source checkout: gclab is imported from ``src/``.  The run sets
up its inputs from the seed (several times; ``setup_s`` is the median), then
makes whole rounds of the workload's operations until the next round would
end after ``--seconds``, then checks the outputs of the first round and that
every later round reproduced them.  The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``; the line before it
is the per-run record.  ``--trace 0`` reports the end-to-end metrics, with
every time scaled to a reference speed of the machine (see speed.py),
``--trace 1`` the per-layer metrics of a traced run (see tracing.py) and the
tracing overhead.  Records and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import os

# numpy's thread pools read these when numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from speed import SpeedProbe
from tracing import COUNT_METRICS, TIME_METRICS, Tracer
from workloads import WORKLOADS, Lab

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 25

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "compress_sym_per_s": "symbols/s",
    "decompress_sym_per_s": "symbols/s",
    "container_bytes": "bytes",
    "certify_sym_per_s": "symbols/s",
    "parse_sym_per_s": "symbols/s",
}
TRACE_EXTRA = {"trace.overhead_s": "s", "trace.overhead_share": "ratio", "trace.spans": "count"}


def import_gclab():
    """Fresh import of gclab from src/, as a user's process would pay it."""
    for name in [m for m in sys.modules if m == "gclab" or m.startswith("gclab.")]:
        del sys.modules[name]
    gclab = importlib.import_module("gclab")
    importlib.import_module("gclab.labcli")
    if Path(gclab.__file__).resolve().parent != SRC / "gclab":
        raise ImportError(f"gclab imported from {gclab.__file__}, not from src/")
    return gclab


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30, check=False)
    return proc.stdout.strip() or None


def unit_medians(rounds) -> dict:
    """key -> (phase, symbols, focus, median seconds over all its runs).

    Summing per-unit medians keeps a burst of machine noise in one round
    from moving the result."""
    samples: dict = {}
    for r in rounds:
        for key, phase, symbols, seconds, focus in r.units:
            samples.setdefault(key, (phase, symbols, focus, []))[3].append(seconds)
    return {k: (p, n, f, statistics.median(xs)) for k, (p, n, f, xs) in samples.items()}


def rate(units: dict, phase: str) -> float:
    symbols = sum(n for p, n, _, _ in units.values() if p == phase)
    seconds = sum(t for p, _, _, t in units.values() if p == phase)
    return symbols / seconds if seconds else 0.0  # 0 only when every unit failed


def end_to_end(rounds, setup_times, peak_mb) -> dict:
    units = unit_medians(rounds)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(t for _, _, focus, t in units.values() if focus),
        "peak_rss_mb": peak_mb,
        "compress_sym_per_s": rate(units, "compress"),
        "decompress_sym_per_s": rate(units, "decompress"),
        "container_bytes": statistics.median(sum(r.container_bytes.values()) for r in rounds),
        "certify_sym_per_s": rate(units, "certify"),
        "parse_sym_per_s": rate(units, "parse"),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(tracer: Tracer, rounds) -> dict:
    per_round = [tracer.round_metrics(i) for i in range(len(rounds))]
    units = {**{m: "s" for m in TIME_METRICS}, **COUNT_METRICS}
    out = {m: {"value": statistics.median(r[m] for r in per_round), "unit": u} for m, u in units.items()}
    spans = len(tracer.spans) / len(rounds)
    overhead = tracer.span_cost() * spans
    traced_wall = sum(t for _, _, focus, t in unit_medians(rounds).values() if focus)
    extra = {
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / (traced_wall - overhead),
        "trace.spans": spans,
    }
    out.update({k: {"value": v, "unit": TRACE_EXTRA[k]} for k, v in extra.items()})
    return out


def run(args, workdir: Path) -> int:
    workload = WORKLOADS[args.workload]
    # the traced run reports unscaled span times; the probe would sit inside them
    probe = None if args.trace else SpeedProbe().start()
    tracer = Tracer() if args.trace else None
    try:
        setup_times = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            gclab = import_gclab()
            inputs = workload.setup(random.Random(args.seed), workdir)
            t1 = time.perf_counter()
            setup_times.append(probe.scaled(t0, t1) if probe is not None else t1 - t0)

        lab = Lab(gclab, workdir, args.seed, tracer, probe)
        if tracer is not None:
            tracer.install(gclab)
        rounds = []
        start = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.round = len(rounds)
            t0 = time.perf_counter()
            res = workload.round(lab, inputs)
            if rounds:
                res.outputs = {}  # later rounds are compared by digest only
            rounds.append(res)
            now = time.perf_counter()
            if now - start + (now - t0) > args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        if probe is not None:
            probe.stop()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = workload.check(lab, inputs, rounds[0], args.seed)
    for i, res in enumerate(rounds):
        if res.digest != rounds[0].digest:
            failures.append(f"round {i} did not reproduce the outputs of the first round")
    for msg in lab.errors[:5] + failures[:20]:
        print(msg, file=sys.stderr)

    if tracer is None:
        metrics = end_to_end(rounds, setup_times, peak_mb)
    else:
        metrics = per_layer(tracer, rounds)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "attempted": lab.attempted,
        "failed": lab.failed,
        "check_failures": len(failures),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "setup_s_each": setup_times,
        "wall_s_each": [r.focus_seconds for r in rounds],
        "unit_s": {k: t for k, (_, _, _, t) in unit_medians(rounds).items()},
    }
    if probe is not None:
        record["speed_probe"] = probe.summary()
    if tracer is not None:
        record["self_s_by_input"] = tracer.split_by_input(0)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"record": record, "metrics": metrics}, fh, indent=1)
    if tracer is not None:
        tracer.dump(OUT / f"{stem}-spans.json")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": lab.attempted,
        "failed": lab.failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gclab" / "__init__.py").is_file():
        print(f"bench: no gclab source under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    # a stable path: the report names its input by the path it was given
    workdir = OUT / f"work-{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
