import json

import pytest

from gclab import labcli, textcore
from gclab.greedy import GreedyPolicy, greedy_run
from gclab.grammar import from_binary, to_binary
from gclab.labcli import Report, RunSpec, emit, fixture_text, main, run
from gclab.repair import StopPolicy, repair_run
from gclab.textcore import Text


def small_spec(**kw):
    inputs = kw.pop(
        "inputs",
        (
            ("random:4,120,1", fixture_text("random:4,120,1")),
            ("worst:8", fixture_text("worst:8")),
        ),
    )
    defaults = dict(
        inputs=inputs,
        algorithms=("repair", "lz78"),
        policy="end",
        encodings=("fully_naive", "entropy", "incremental"),
        k_list=(0, 1, 2),
    )
    defaults.update(kw)
    return RunSpec(**defaults)


def test_fixture_selectors():
    assert len(fixture_text("worst:4")) == 16
    assert len(fixture_text("gdb:1,1,1")) == 16
    assert fixture_text("example32").sigma == 4
    assert len(fixture_text("random:3,50,7")) == 50
    with pytest.raises(ValueError):
        fixture_text("nope:1")


def test_run_produces_passing_rows():
    report = run(small_spec())
    assert report.entries, "no entries"
    assert all("error" not in e for e in report.entries)
    failed = [
        (e["input"], e["algorithm"], r["name"])
        for e in report.entries
        for r in e["bound_rows"]
        if not r["pass"]
    ]
    assert not failed, failed
    assert report.all_pass


def test_required_bound_rows_present():
    spec = RunSpec(
        inputs=(
            ("gdb:2,1,1", fixture_text("gdb:2,1,1")),
            ("worst:16", fixture_text("worst:16")),
            ("random:2,200,3", fixture_text("random:2,200,3")),
        ),
        algorithms=("repair", "greedy", "lz78", "lz77ns", "offset-parse"),
        policy="end",
        encodings=("fully_naive", "naive", "entropy", "incremental"),
        k_list=(0, 1, 2),
        offsets=(2, 4),
    )
    report = run(spec)
    names = {
        r["name"].split("[")[0].split(":")[-1]
        for e in report.entries
        if "error" not in e
        for r in e["bound_rows"]
    }
    # strip per-parsing prefixes like "l=2:"
    names |= {
        r["name"].split("]")[-1].lstrip(":")
        for e in report.entries
        if "error" not in e
        for r in e["bound_rows"]
    }
    flat = set()
    for e in report.entries:
        for r in e.get("bound_rows", ()):
            n = r["name"]
            if ":" in n and not n.startswith("l="):
                n = n.split(":", 1)[1]
            elif n.startswith("l="):
                n = n.split(":", 1)[1]
            flat.add(n.split("[")[0])
    required = {
        "parsing_entropy_vs_hk",
        "k_cost_le_hk",
        "parsing_entropy_le_cost",
        "parsing_entropy_le_k_cost",
        "lengths_entropy",
        "gibbs_valuation",
        "offset_mean_entropy",
        "cyclic_vs_normal_entropy_lower",
        "cyclic_vs_normal_entropy_upper",
        "entropy_coding_concatenation",
        "encoding_size_bound",
        "huffman_sandwich_lower",
        "repair_pair_monotonicity",
        "repair_pair_freq_nonterminals",
        "repair_expansions_distinct",
        "repair_worst_case_incremental",
        "weakly_nonredundant",
        "expansion_sum_2n",
        "irreducible_predicates",
        "irreducible_is_small",
        "greedy_pair_monotonicity",
        "greedy_pair_freq_size",
        "greedy_gain_accounting",
        "natural_parsing",
        "debruijn_counts",
        "debruijn_entropy_lower",
        "debruijn_ratio_lower",
        "decompression_identity",
        "roundtrip",
        "induced_parsing_size",
    }
    missing = required - flat
    assert not missing, missing


def test_each_entropy_computed_once_per_input(monkeypatch):
    # the report cells, the parsing verifier and the de Bruijn lower bound all
    # read empirical_entropy's memo on each Text: one computation per
    # (Text, k, cyclic) across the whole run
    computed = []
    hk_totals = textcore._hk_totals

    def counting(text, k_lo, k_hi, cyclic):
        computed.append((text, k_lo, k_hi, cyclic))
        return hk_totals(text, k_lo, k_hi, cyclic)

    monkeypatch.setattr(textcore, "_hk_totals", counting)
    spec = small_spec(
        inputs=(("worst:16", fixture_text("worst:16")), ("gdb:2,1,1", fixture_text("gdb:2,1,1"))),
        algorithms=("repair", "greedy", "lz78", "lz77ns", "offset-parse"),
        offsets=(2, 4, 8),
    )
    report = run(spec)
    assert all("error" not in e for e in report.entries)
    assert all(k_lo == k_hi for _, k_lo, k_hi, _ in computed)
    # computed keeps every text alive, so no two of them share an id
    keys = [(id(text), k, cyclic) for text, k, _, cyclic in computed]
    assert len(keys) == len(set(keys))
    # per input: k = 0..7 linear for the offset rows (l = 8) plus k = 0..2
    # cyclic, all on the input itself, which the Re-Pair and Greedy start
    # parsings parse too
    assert len(computed) == 2 * (8 + 3)


def test_row_names_unique_per_entry():
    report = run(small_spec())
    for e in report.entries:
        names = [r["name"] for r in e["bound_rows"]]
        assert len(names) == len(set(names)), e["input"]


def test_report_deterministic_modulo_timestamp():
    a = run(small_spec()).as_dict()
    b = run(small_spec()).as_dict()
    a.pop("generated_at")
    b.pop("generated_at")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_emit_json_round_trips():
    report = run(small_spec(algorithms=("lz78",), encodings=()))
    data = emit(report, "json").decode()
    parsed = json.loads(data)
    assert parsed["schema_version"] == "1"
    # parse and re-serialize identically (field order is stable)
    assert json.dumps(parsed, indent=2) + "\n" == data


def test_emit_csv_row_count():
    spec = small_spec(algorithms=("lz78", "repair"), encodings=())
    report = run(spec)
    lines = emit(report, "csv").decode().strip().splitlines()
    assert len(lines) == 1 + len(report.entries)
    assert len(report.entries) == len(spec.inputs) * len(spec.algorithms)


def test_empty_corpus():
    report = run(RunSpec(inputs=(), algorithms=("lz78",)))
    assert report.entries == [] and report.all_pass


def test_per_input_failures_isolated():
    big = Text([0, 1] * 10, 2)
    spec = RunSpec(
        inputs=(("tiny", Text([0], 2)), ("fine", big)),
        algorithms=("repair",),  # repair rejects |text| < 2
    )
    report = run(spec)
    errors = [e for e in report.entries if "error" in e]
    assert len(errors) == 1 and errors[0]["input"] == "tiny"
    assert not report.all_pass
    fine = [e for e in report.entries if e["input"] == "fine"][0]
    assert all(r["pass"] for r in fine["bound_rows"])


# -- CLI -------------------------------------------------------------------------------


def test_cli_debruijn_and_entropy(tmp_path, capsys):
    out = tmp_path / "word.txt"
    rc = main(["debruijn", "--k", "1", "--l", "1", "--p", "1", "--out", str(out)])
    assert rc == 0
    text = Text.from_tokens(out.read_text())
    assert len(text) == 16

    rc = main(["entropy", str(out), "--k", "2", "--cyclic"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["per_order"][0]["bits_per_symbol"] == pytest.approx(2.0)


def test_cli_debruijn_certificate(capsys):
    rc = main(["debruijn", "--k", "2", "--l", "0", "--p", "1", "--certificate"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["db1"] and payload["db2"] and payload["db3"]


def test_cli_repair_encode_decode_round_trip(tmp_path, capsys):
    word = tmp_path / "in.tokens"
    word.write_text(Text([0, 1, 0, 1, 0, 1, 2, 2], 3).to_tokens())
    gfile = tmp_path / "g.gcl"
    rc = main(["repair", str(word), "--out", str(gfile),
               "--trace-out", str(tmp_path / "trace.jsonl")])
    assert rc == 0
    trace_lines = (tmp_path / "trace.jsonl").read_text().strip().splitlines()
    assert all("pair" in json.loads(ln) for ln in trace_lines)

    enc = tmp_path / "g.gcb"
    rc = main(["encode", str(gfile), "--encoding", "incremental", "--out", str(enc)])
    assert rc == 0
    dec = tmp_path / "g2.gcl"
    rc = main(["decode", str(enc), "--out", str(dec)])
    assert rc == 0
    g1 = from_binary(gfile.read_bytes())
    g2 = from_binary(dec.read_bytes())
    assert g1.expand_start() == g2.expand_start()


def test_cli_parse_and_verify(tmp_path, capsys):
    word = tmp_path / "in.tokens"
    word.write_text(Text([0, 1] * 20, 2).to_tokens())
    pfile = tmp_path / "p.txt"
    rc = main(["parse", str(word), "--algorithm", "lz78", "--out", str(pfile)])
    assert rc == 0
    rc = main(["verify", "--text", str(word), "--parsing", str(pfile), "--k", "1"])
    assert rc == 0


def test_cli_report_exit_codes(tmp_path, capsys):
    rc = main(["report", "random:4,60,5", "--algorithms", "lz78,offset-parse",
               "--format", "csv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("input,")

    rc = main(["report", "worst:8", "--algorithms", "repair",
               "--encodings", "incremental,entropy", "--format", "json"])
    assert rc == 0


def test_cli_byte_file_and_offset_parse(tmp_path, capsys):
    raw = tmp_path / "input.bin"
    raw.write_bytes(b"abracadabra" * 6)
    rc = main(["entropy", str(raw), "--k", "1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sigma"] == 256 and payload["n"] == 66

    pfile = tmp_path / "p.txt"
    rc = main(["parse", str(raw), "--algorithm", "offset", "--l", "3",
               "--out", str(pfile)])
    assert rc == 0
    from gclab.textcore import load_text

    text = load_text(str(raw))
    parsing = __import__("gclab.parsing", fromlist=["Parsing"]).Parsing.loads(
        text, pfile.read_text()
    )
    assert sum(parsing.lengths) == 66


def test_cli_greedy(tmp_path):
    word = tmp_path / "in.tokens"
    word.write_text(Text([0, 1, 2, 0, 1, 2, 0, 1, 2], 3).to_tokens())
    gfile = tmp_path / "g.gcl"
    rc = main(["greedy", str(word), "--out", str(gfile), "--policy", "end"])
    assert rc == 0
    g = from_binary(gfile.read_bytes())
    assert g.expand_start() == (0, 1, 2) * 3


def test_cli_size_caps(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(labcli, "REPAIR_CAP", 16)
    monkeypatch.setattr(labcli, "GREEDY_CAP", 16)
    out = str(tmp_path / "g.gcl")
    for cmd, name in (("repair", "Re-Pair"), ("greedy", "Greedy")):
        assert main([cmd, "random:4,17,1", "--out", out]) == 2
        assert f"exceeds the {name} cap of 16 symbols" in capsys.readouterr().err
        assert main([cmd, "random:4,16,1", "--out", out]) == 0
    report = run(RunSpec(inputs=(("r", fixture_text("random:4,17,1")),),
                         algorithms=("repair", "greedy")))
    assert [e["error"] for e in report.entries] == [
        "ValueError: input of 17 symbols exceeds the Re-Pair cap of 16 symbols",
        "ValueError: input of 17 symbols exceeds the Greedy cap of 16 symbols",
    ]


def test_cli_binary_stdout_matches_out_file(tmp_path, capsysbinary):
    # GCL1 and GCB1 bytes >= 0x80 go to stdout unchanged
    gfile, cfile = tmp_path / "g.gcl", tmp_path / "g.gcb"
    assert main(["repair", "random:256,3000,1", "--out", str(gfile)]) == 0
    assert main(["repair", "random:256,3000,1"]) == 0
    assert capsysbinary.readouterr().out == gfile.read_bytes()
    assert max(gfile.read_bytes()) >= 0x80
    assert main(["encode", str(gfile), "--encoding", "naive", "--out", str(cfile)]) == 0
    capsysbinary.readouterr()
    assert main(["encode", str(gfile), "--encoding", "naive"]) == 0
    assert capsysbinary.readouterr().out == cfile.read_bytes()


def test_cli_overflow_is_a_usage_error(capsys):
    # exit 1 would mean a failed bound
    for argv in (["debruijn", "--k", "40"], ["report", "gdb:40,0,1"]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("gclab: error: ")


def test_cli_greedy_trace_out(tmp_path):
    text = fixture_text("random:3,400,2")
    trace_file = tmp_path / "trace.jsonl"
    assert main(["greedy", "random:3,400,2", "--out", str(tmp_path / "g.gcl"),
                 "--trace-out", str(trace_file)]) == 0
    _, trace = greedy_run(text, GreedyPolicy.run_to_end())
    assert trace.steps
    lines = trace_file.read_text().splitlines()
    assert [json.loads(ln) for ln in lines] == [
        json.loads(json.dumps(step.as_dict())) for step in trace.steps
    ]


@pytest.mark.parametrize("policy,repair_policy,greedy_policy", [
    ("threshold", StopPolicy.working_threshold(), GreedyPolicy.full_threshold()),
    ("maxiter:3", StopPolicy.max_nonterminals(3), GreedyPolicy.max_iterations(3)),
])
def test_cli_compressors_write_their_grammar(tmp_path, policy, repair_policy, greedy_policy):
    text = fixture_text("random:3,400,2")
    for cmd, grammar in (("repair", repair_run(text, repair_policy)[0]),
                         ("greedy", greedy_run(text, greedy_policy)[0])):
        out = tmp_path / f"{cmd}.gcl"
        assert main([cmd, "random:3,400,2", "--policy", policy, "--out", str(out)]) == 0
        assert out.read_bytes() == to_binary(grammar), cmd
