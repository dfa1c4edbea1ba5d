"""The benchmark's tracer wraps gclab from outside (bench/tracing.py): every
method it names must exist, or a traced run fails before its first round."""

import importlib.util
import inspect
import sys
from pathlib import Path

import gclab
import gclab.labcli  # noqa: F401  (the tracer wraps every layer module, as bench/run.py imports them)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracing():
    """Import bench/tracing.py (and the checks module it imports) without
    writing bytecode next to them or leaving bench/ on sys.path."""
    saved_path, saved_flag, saved_modules = list(sys.path), sys.dont_write_bytecode, set(sys.modules)
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        for name in set(sys.modules) - saved_modules:
            if Path(getattr(sys.modules[name], "__file__", None) or "/").parent == BENCH:
                del sys.modules[name]


def test_traced_methods_exist():
    tracing = _load_tracing()
    for layer, cls_name, meth in tracing.METHODS:
        cls = getattr(sys.modules[f"gclab.{layer}"], cls_name)
        assert meth in cls.__dict__, f"{layer}.{cls_name}.{meth}"


def test_tracer_installs_and_uninstalls():
    tracing = _load_tracing()
    originals = {(layer, cls_name, meth): getattr(sys.modules[f"gclab.{layer}"], cls_name).__dict__[meth]
                 for layer, cls_name, meth in tracing.METHODS}
    entropy = gclab.empirical_entropy
    tracer = tracing.Tracer()
    try:
        tracer.install(gclab)
        assert gclab.empirical_entropy is not entropy
        gclab.empirical_entropy(gclab.Text.from_string("abab"), 1)
        assert [s[0] for s in tracer.spans] == ["textcore.empirical_entropy"]
    finally:
        tracer.uninstall()
    assert gclab.empirical_entropy is entropy
    for (layer, cls_name, meth), fn in originals.items():
        assert getattr(sys.modules[f"gclab.{layer}"], cls_name).__dict__[meth] is fn


def test_traced_counters_read_engine_results():
    """The tracer's counters read Re-Pair's and Greedy's traces as
    ``result[1].steps``: a change of the result shape fails here."""
    tracing = _load_tracing()
    text = gclab.Text.from_string("abracadabra" * 4)
    for name, run in (("repair.repair_run", gclab.repair.repair_run),
                      ("greedy.greedy_run", gclab.greedy.greedy_run)):
        result = run(text)
        grammar, trace = result
        assert grammar.expand_start() == text.symbols
        assert len(trace.steps) > 0
        for counter, count in tracing._COUNTS[name]:
            assert count(result) == len(trace.steps), counter


def test_bit_and_coder_public_functions():
    """The tracer wraps every public function of a layer module, ``coders``
    and ``greedy`` among them, and makes one span per call: a per-field
    helper made public would add a span per field, and Greedy's zero-gain
    rounds a span per round.  ``bits`` is no layer and stays unwrapped; the
    three public surfaces are pinned here."""
    tracing = _load_tracing()
    assert {"coders", "greedy"} <= set(tracing.LAYERS) and "bits" not in tracing.LAYERS
    want = {
        "bits": {"read_uvarint", "uvarint_bytes", "uvarint_values", "uvarints"},
        "coders": {
            "build_codebook", "parse_codebook", "sequence_entropy_bits",
            "huffman_encode", "huffman_decode",
            "elias_delta_encode", "elias_delta_decode", "elias_delta_length",
            "symbol_width", "incremental_order",
            "encode_fully_naive", "encode_naive", "encode_entropy", "encode_incremental",
            "encode", "decode", "frame_container", "to_container", "from_container",
        },
        "greedy": {"greedy_threshold", "greedy_run", "greedy_stop_report"},
    }
    for name, expected in want.items():
        module = sys.modules[f"gclab.{name}"]
        public = {attr for attr, fn in vars(module).items()
                  if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__}
        assert public == expected, name
