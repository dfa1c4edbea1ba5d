"""Golden digests: the exact GCL1 and GCB1 bytes and SizeBreakdown fields of
Re-Pair and Greedy grammars of a small pinned corpus (see conftest.py),
Re-Pair's and Greedy's full traces (every RepairStep or GreedyStep, the stop
reason and the GCL1 bytes) under each stopping policy, de Bruijn
certificates, entropy profiles, the parsings of LZ78, LZ77ns and the
best-offset parser with every cost figure, natural-parser verdict and de
Bruijn lower-bound row computed from them, and every entry of the lab's
report (all five algorithms, all four encodings, three policies).

A refactor of the grammar serialization, the coders, Re-Pair's pair engine,
Greedy, the window counting, the substring counting behind the parsers or
the report must leave every value here unchanged; formula_bound_bits is a
float and is compared to 1e-9.  Certificates, profiles and parsing costs are
pinned exactly: their digests cover the floats' shortest round-trip reprs.
Report entries are pinned with their floats rounded to 1e-9.
"""

import hashlib
import json
import random

import pytest

from conftest import golden_corpus
from gclab import coders
from gclab.debruijn import GdBParams, generalized_word, lower_bound_check, verify_gdb
from gclab.greedy import GreedyPolicy, greedy_run
from gclab.grammar import to_binary
from gclab.labcli import ALGORITHMS, RunSpec, fixture_text, run
from gclab.parsing import (
    best_offset_parsing,
    is_natural_parsing,
    lz77_parse_nonself,
    lz78_parse,
    parsing_cost,
)
from gclab.repair import StopPolicy, repair_run
from gclab.textcore import Text, entropy_profile

# {(input, algorithm): {"gcl1": sha256, encoding: (sha256 of the GCB1 container,
#   (payload_bits, dictionary_bits, lengths_side_bits, total_bits, formula_bound_bits))}}
GOLDEN = {
    ('example32', 'repair'): {
        'gcl1': 'f433d4c04070c2660ed9e0f969c16fa7501aec930804caceb7f883d1c35c4f20',
        'fully_naive': ('6faf65263ddb1b1714733aa64828920ff73e1becf1b4f1d8017d38b85dae196c',
            (128, 0, 10, 138, 270.437600046154)),
        'naive': ('91c3cb4fe24f6bba4c75b2ce76564d218ac8c98424088c6f3d5407214912fda6',
            (110, 96, 10, 216, 412.8067456244437)),
        'entropy': ('7d33dac3cc95fd30146f917c1588bd35e4bdd18f35652ddfbc4ca5f0e48cb567',
            (98, 96, 10, 204, 440.7611690424725)),
        'incremental': ('0be413c3e0d7168ce3169714cf7bd9280ebf841c0a373f6c42a6838e0ed27d40',
            (90, 96, 11, 197, 445.5283482055627)),
    },
    ('example32', 'greedy'): {
        'gcl1': 'f433d4c04070c2660ed9e0f969c16fa7501aec930804caceb7f883d1c35c4f20',
        'fully_naive': ('6faf65263ddb1b1714733aa64828920ff73e1becf1b4f1d8017d38b85dae196c',
            (128, 0, 10, 138, 270.437600046154)),
        'naive': ('91c3cb4fe24f6bba4c75b2ce76564d218ac8c98424088c6f3d5407214912fda6',
            (110, 96, 10, 216, 412.8067456244437)),
        'entropy': ('7d33dac3cc95fd30146f917c1588bd35e4bdd18f35652ddfbc4ca5f0e48cb567',
            (98, 96, 10, 204, 440.7611690424725)),
        'incremental': ('0be413c3e0d7168ce3169714cf7bd9280ebf841c0a373f6c42a6838e0ed27d40',
            (90, 96, 11, 197, 445.5283482055627)),
    },
    ('example16', 'repair'): {
        'gcl1': '681b2a53945c918b15f24ed8bbd844acc1b2328bde35d72557c04a60776f0ce6',
        'fully_naive': ('d87d71557c5150eef59a5b636ef263949fa7e8cc6d0cff75208d3efe68f2919d',
            (48, 0, 6, 54, 179.91767875292166)),
        'naive': ('56925a4a7a9709da9e7d023331b18fa61a1134ea0df28e526450638df828dc29',
            (42, 56, 6, 104, 255.06341048121925)),
        'entropy': ('618de07b5a8965a9c3c7ce08c8f7d68cae4eacd5be0ade7e92ca42785cc38006',
            (45, 72, 6, 123, 307.4902249956731)),
        'incremental': ('ba13bc2d24de3d81f6628dab7d8f70d9b4b2dbfb17157c83968beddc4bf96ebc',
            (33, 56, 7, 96, 275.7885896062359)),
    },
    ('example16', 'greedy'): {
        'gcl1': '681b2a53945c918b15f24ed8bbd844acc1b2328bde35d72557c04a60776f0ce6',
        'fully_naive': ('d87d71557c5150eef59a5b636ef263949fa7e8cc6d0cff75208d3efe68f2919d',
            (48, 0, 6, 54, 179.91767875292166)),
        'naive': ('56925a4a7a9709da9e7d023331b18fa61a1134ea0df28e526450638df828dc29',
            (42, 56, 6, 104, 255.06341048121925)),
        'entropy': ('618de07b5a8965a9c3c7ce08c8f7d68cae4eacd5be0ade7e92ca42785cc38006',
            (45, 72, 6, 123, 307.4902249956731)),
        'incremental': ('ba13bc2d24de3d81f6628dab7d8f70d9b4b2dbfb17157c83968beddc4bf96ebc',
            (33, 56, 7, 96, 275.7885896062359)),
    },
    ('worst:64', 'repair'): {
        'gcl1': 'c7bc2b2e0d9edea0cee83bcfc0643e5f6b11dc41889f1f5c071a701c51e10dde',
        'fully_naive': ('72b67cdf4fa957a8181a79bee99ff99550b815e5a45915ad53f3b15c7836ae77',
            (2048, 0, 128, 2176, 2531.874177388353)),
        'naive': ('2eb722b6efffd63eae2c012b33f5e5645efb8e9c027afd4bac37a9bd614bbbeb',
            (1792, 664, 128, 2584, 3426.4370886941765)),
        'entropy': ('f26f317715c7347de1a178102c86a50cd3e4b1a5fb858ed0b193b25cf189f743',
            (1536, 1184, 128, 2848, 4593.0)),
        'incremental': ('a31a5fdeadb0941b33ae265ab0b5339a65c7293c0617c1f60b8430ba76dc4cfd',
            (1280, 664, 253, 2197, 3696.3067015828105)),
    },
    ('worst:64', 'greedy'): {
        'gcl1': '5b62e5d635cfe1bb49152de2951c74a5857d90348fda05c956999c22390cd1ef',
        'fully_naive': ('a81b2ced5f3d47cf60232e5f892b6c5e6c70da4d9625159620c9b36f74325da2',
            (1575, 0, 95, 1670, 2127.9803894921038)),
        'naive': ('041c60a587d0b56e3f2803a9bee1496d70d6371e08681e482563b2e47f96fb15',
            (1449, 632, 95, 2176, 3092.899535701476)),
        'entropy': ('1bedc5b63f61a7b6c071e869d53ca19474ac34af50dd6c1b96cc2dd8375171c5',
            (1250, 888, 95, 2233, 3658.646860176984)),
    },
    ('random:4,2000,1', 'repair'): {
        'gcl1': '81dd4ac05fa957a2bdb4120564cf0a764b64c34cfe3f9609748a08557ae042ea',
        'fully_naive': ('96e39e5c077377a8c2bf227c0f7061988e36b8975f9b36fa8fd9b770888aaaa9',
            (6712, 0, 264, 6976, 7856.381323809034)),
        'naive': ('8a4c2c200210e3b7ecc7d2970e500aeca8f12fe55206c2422b4e66908427959a',
            (6001, 1240, 264, 7505, 9829.615646848373)),
        'entropy': ('63f93623af5e62ec48e2f3d4337845686447ed0c2bdf433146bd7430e5bfa2e4',
            (5411, 1240, 264, 6915, 10315.654761635156)),
        'incremental': ('b013559a4b493de44233344da01d17df45fbe75fe6dedac8dadbd5c3d49687fe',
            (4945, 1240, 273, 6458, 10342.246520798792)),
    },
    ('random:4,2000,1', 'greedy'): {
        'gcl1': '57d5aa80819779ed5b9b285a6448eb6a6288380af4dc002b73820a767513731d',
        'fully_naive': ('5bf14540b082f3d4456de52fd5baba7f2b64758eea43cb249c0f4cd9ac504268',
            (6720, 0, 267, 6987, 7875.346949686842)),
        'naive': ('8d4b9caa939cceee835bca0c3fe9f83efe271cebce9de1f3aa40e514529991c1',
            (6016, 1256, 267, 7539, 9864.179272640908)),
        'entropy': ('a654cdf8ea7b68f49e253c3453e9d4914be1178c33f38131dc1d1cd20fca887f',
            (5422, 1256, 267, 6945, 10345.892586847396)),
    },
    ('bytes:4096', 'repair'): {
        'gcl1': 'ae6c0133fcbe6be132afd356dfb674cfc70b5aecda1d6548ee07225e1f0135fd',
        'fully_naive': ('c0e528208ea5d8972b1d5c06f242dee32b9af2e019b037b4688f96b0d8222125',
            (36837, 0, 200, 37037, 43329.17693294547)),
        'naive': ('85b4a4bbfdbef800b838fbe7e41cddd4ca560328b78ed882d6c3ce804e4957b1',
            (33766, 3224, 200, 37190, 47910.354138329814)),
        'entropy': ('827b561af7b9778d4574de9d4acd0a2033e15409cc8901a265f71792b42a5bd4',
            (33586, 3224, 200, 37010, 51928.25145822209)),
        'incremental': ('a5d34096b8ca71aa12cb65ea5650885c19e4bc7329018bf429bcd2553b4811df',
            (32866, 3224, 408, 36498, 48270.51562222956)),
    },
    ('bytes:4096', 'greedy'): {
        'gcl1': 'ae6c0133fcbe6be132afd356dfb674cfc70b5aecda1d6548ee07225e1f0135fd',
        'fully_naive': ('c0e528208ea5d8972b1d5c06f242dee32b9af2e019b037b4688f96b0d8222125',
            (36837, 0, 200, 37037, 43329.17693294547)),
        'naive': ('85b4a4bbfdbef800b838fbe7e41cddd4ca560328b78ed882d6c3ce804e4957b1',
            (33766, 3224, 200, 37190, 47910.354138329814)),
        'entropy': ('827b561af7b9778d4574de9d4acd0a2033e15409cc8901a265f71792b42a5bd4',
            (33586, 3224, 200, 37010, 51928.25145822209)),
        'incremental': ('a5d34096b8ca71aa12cb65ea5650885c19e4bc7329018bf429bcd2553b4811df',
            (32866, 3224, 408, 36498, 48270.51562222956)),
    },
    ('badgrammar:5', 'repair'): {
        'gcl1': '5a8e719331a66adbc2097b5fc1e29acb958639c4aa4cd3f13f0bcdaedaa5b2fb',
        'fully_naive': ('b9dd82b1c37da1bfb716f7c8393bb311a2617a54f19e1f30edb79da7dbb263fe',
            (475, 0, 54, 529, 776.5081945371194)),
        'naive': ('c8e3ea2ef26ce90623d5971cabfddb1447181d945f13b49642a53f701795d4e1',
            (452, 224, 54, 730, 1124.72594341974)),
        'entropy': ('6fe13f783fc1eee895c40a280cbfece9ad8d9dacd855f101fbac570611261d25',
            (451, 272, 54, 777, 1321.0616203344748)),
        'incremental': ('1834e97497c01c417326fff0e5c8f8f3a39c4d4c1087215d59cba150f9a0a1db',
            (317, 224, 70, 611, 1269.2323802074563)),
    },
    ('badgrammar:5', 'greedy'): {
        'gcl1': 'a5b77be376267fff77e3c822000560f16af3506d28f0fd4f41ff0eb6669c9e5e',
        'fully_naive': ('c85155d6fcae52c234bb7fd795e5b518c9c226c7c60213e29c942f7aa1a434d8',
            (455, 0, 50, 505, 719.2315875656252)),
        'naive': ('31a0c986323825d59a7359c32fe02a57e369b2165dda2e8d56c043e6bf2ad548',
            (421, 192, 50, 663, 1020.2785667423086)),
        'entropy': ('ca3d99dd1af73d6611f468da8d4e2d1a1c51e3b8e736e6bbf0247ac019d70601',
            (401, 224, 50, 675, 1173.7121003343725)),
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_covers_corpus(golden_grammars):
    assert set(golden_grammars) == set(GOLDEN)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_digests(golden_grammars, key):
    grammar = golden_grammars[key]
    want = GOLDEN[key]
    assert _sha256(to_binary(grammar)) == want["gcl1"]
    applicable = [e for e in coders.ENCODINGS if e != "incremental" or grammar.is_cnf]
    assert sorted(applicable) == sorted(e for e in want if e != "gcl1")
    for enc in applicable:
        digest, fields = want[enc]
        _, br = coders.encode(grammar, enc)
        assert _sha256(coders.to_container(grammar, enc)) == digest, enc
        assert (br.payload_bits, br.dictionary_bits, br.lengths_side_bits, br.total_bits) \
            == fields[:4], enc
        assert br.formula_bound_bits == pytest.approx(fields[4], abs=1e-9), enc


# -- Greedy traces ------------------------------------------------------------

GREEDY_POLICIES = {
    "run_to_end": GreedyPolicy.run_to_end(),
    "full_threshold": GreedyPolicy.full_threshold(),
    "maxiter:50": GreedyPolicy.max_iterations(50),
}


def greedy_trace_corpus():
    """Report inputs plus periodic words, whose windows overlap themselves."""
    for selector in ("random:4,20000,1", "worst:1024", "gdb:2,3,1"):
        yield selector, fixture_text(selector)
    for name, word, reps in (("a^512", "a", 512), ("(ab)^300", "ab", 300),
                             ("(aab)^200", "aab", 200)):
        yield name, Text.from_string(word * reps, 2)


def _trace_digests(text, policy_name):
    """(sha256 of the GreedyStep dicts, stopped_by, sha256 of the GCL1 bytes)."""
    grammar, trace = greedy_run(text, GREEDY_POLICIES[policy_name])
    steps = json.dumps([s.as_dict() for s in trace.steps]).encode()
    return _sha256(steps), trace.stopped_by, _sha256(to_binary(grammar))


# {(input, policy): (steps sha256, stopped_by, GCL1 sha256)}
GREEDY_TRACES = {
    ('random:4,20000,1', 'run_to_end'): (
        '5d00774c9abd310cdd6b416caca836877be6ad512bf39f6c661ab6500b1ae67c', 'exhausted',
        '44ca08a8d1fe5753b399a3fbda2dfe15a8dbf537924d05e08fa90206c749bc48'),
    ('random:4,20000,1', 'full_threshold'): (
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 'threshold',
        'e5b461ea1e25f068c96b8e342d235cd2416239fd42781d3f806de9a4d24203e2'),
    ('random:4,20000,1', 'maxiter:50'): (
        '3d5a15c427cae16588dc326a023369de1541cd0ce41d390a13ac535a6d53e1b1', 'max_iterations',
        '3a23a3353c9e15258fa30db7c34251ca2a597674207ea9553c45ca2101825bef'),
    ('worst:1024', 'run_to_end'): (
        '8203e76875287e0ae429e05c14e3011775c425e03ada4dc9dd69c36f9b4eb663', 'exhausted',
        '2d45e8daa5b372827d6b5383a6912b9a9ec1e4f637a4e45780bf172ff241c61a'),
    ('worst:1024', 'full_threshold'): (
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 'threshold',
        'bebe52f3e414b7adc4d5a97256d834e099bf86f3abfc12d17a7be0c769a3996e'),
    ('worst:1024', 'maxiter:50'): (
        '093bbb0ff0912c714e6466fb1991428a9c1d789f50e9e4e66d6b50876efc2280', 'max_iterations',
        'f1134d8ef84e29b5bf3a8586fa7935a86765a4643eb699241cd877be0131992d'),
    ('gdb:2,3,1', 'run_to_end'): (
        'bc11760c9fde283d2dd49eaa660998d19538a27fa4475d23a04bd6efadef4c32', 'exhausted',
        'c9428878681db882e8ed70f638eef6eeaef98da3ecca6ccc25ef669d47bba691'),
    ('gdb:2,3,1', 'full_threshold'): (
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 'threshold',
        '946754ef2934225797dddf59a239e6d848ccc1a2284bae9aa9cde6bf706ad85d'),
    ('gdb:2,3,1', 'maxiter:50'): (
        'bc11760c9fde283d2dd49eaa660998d19538a27fa4475d23a04bd6efadef4c32', 'exhausted',
        'c9428878681db882e8ed70f638eef6eeaef98da3ecca6ccc25ef669d47bba691'),
    ('a^512', 'run_to_end'): (
        'b8b074c90e5d9f58aa5eceb79bfc22cae90cc19940f505eb9d6d077da21e9c6b', 'exhausted',
        '619655f8e6ea056ae852d0dacc2227b9f25f581666c4c3f071a0b6a037376405'),
    ('a^512', 'full_threshold'): (
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 'threshold',
        '371d4e2eb31e17fb1acac11551b58b2b670c5aed11c60884cccc9aba3b7ffbde'),
    ('a^512', 'maxiter:50'): (
        'b8b074c90e5d9f58aa5eceb79bfc22cae90cc19940f505eb9d6d077da21e9c6b', 'exhausted',
        '619655f8e6ea056ae852d0dacc2227b9f25f581666c4c3f071a0b6a037376405'),
    ('(ab)^300', 'run_to_end'): (
        '4a770d94a4ec268102037bb2863c8a50528791d5e9471358672696a3f96ca2a0', 'exhausted',
        '51196093a372bfe3cd806e11b3e6b62b785e6cfdbbafc601ab79b2d2fea13b30'),
    ('(ab)^300', 'full_threshold'): (
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 'threshold',
        '37270f5ee3c971cdaf19a4f97d92d395837d40bf2c914f544961e0d242581078'),
    ('(ab)^300', 'maxiter:50'): (
        '4a770d94a4ec268102037bb2863c8a50528791d5e9471358672696a3f96ca2a0', 'exhausted',
        '51196093a372bfe3cd806e11b3e6b62b785e6cfdbbafc601ab79b2d2fea13b30'),
    ('(aab)^200', 'run_to_end'): (
        '9a50d209eed1b00bf3092354c40ccd34465b0918dbb0c9c9b7580c7426e080f5', 'exhausted',
        '40e71eda3718c3ce68fcb7d05cae208c7a660045aaaf6770e671e79c12fb7b48'),
    ('(aab)^200', 'full_threshold'): (
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 'threshold',
        '1f75e04b5161f1d2984e7bb92acc3d5f49dd2c133d65e88feaa4dba32695e39b'),
    ('(aab)^200', 'maxiter:50'): (
        '9a50d209eed1b00bf3092354c40ccd34465b0918dbb0c9c9b7580c7426e080f5', 'exhausted',
        '40e71eda3718c3ce68fcb7d05cae208c7a660045aaaf6770e671e79c12fb7b48'),
}


def test_greedy_traces_cover_corpus():
    names = [name for name, _ in greedy_trace_corpus()]
    assert set(GREEDY_TRACES) == {(n, p) for n in names for p in GREEDY_POLICIES}


@pytest.mark.parametrize("name,text", list(greedy_trace_corpus()),
                         ids=[name for name, _ in greedy_trace_corpus()])
def test_greedy_trace_digests(name, text):
    for policy_name in GREEDY_POLICIES:
        assert _trace_digests(text, policy_name) == GREEDY_TRACES[name, policy_name], policy_name


# -- Re-Pair traces -----------------------------------------------------------

REPAIR_POLICIES = {
    "run_to_end": lambda n: StopPolicy.run_to_end(),
    "working_threshold": lambda n: StopPolicy.working_threshold(),
    "maxnt:8": lambda n: StopPolicy.max_nonterminals(8),
    "custom:n/3": lambda n: StopPolicy.custom_threshold(max(1, n // 3)),
}


def repair_trace_corpus():
    """The golden corpus, Re-Pair's worst case, one sigma=2 text of the
    stop-point criterion and two runs, where a pair overlaps itself."""
    yield from golden_corpus()
    yield "worst:1024", fixture_text("worst:1024")
    rng = random.Random(20240811 + 4)  # test_acceptance's SEED + 4
    yield "s2/n70000", Text([rng.randrange(2) for _ in range(70000)], 2)
    yield "a^511", Text.from_string("a" * 511, 2)
    yield "(aab)^200", Text.from_string("aab" * 200, 2)


def _repair_trace_digests(text, policy_name):
    """(sha256 of the RepairStep dicts, stopped_by, sha256 of the GCL1 bytes)."""
    grammar, trace = repair_run(text, REPAIR_POLICIES[policy_name](len(text)))
    steps = json.dumps([s.as_dict() for s in trace.steps]).encode()
    return _sha256(steps), trace.stopped_by, _sha256(to_binary(grammar))


# {(input, policy): (steps sha256, stopped_by, GCL1 sha256)}
REPAIR_TRACES = {
    ('example32', 'run_to_end'): (
        '5a1f8f3bb6b6d983f9ec4ca082f0a5ee4b7aba80fcbdd413899daf8d7d7c6791', 'exhausted',
        'f433d4c04070c2660ed9e0f969c16fa7501aec930804caceb7f883d1c35c4f20'),
    ('example32', 'working_threshold'): (
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 'threshold',
        'e0ccc14ae82456ef710119911ae836d88370dc359959bc17d16ad88ff3df49af'),
    ('example32', 'maxnt:8'): (
        '5a1f8f3bb6b6d983f9ec4ca082f0a5ee4b7aba80fcbdd413899daf8d7d7c6791', 'exhausted',
        'f433d4c04070c2660ed9e0f969c16fa7501aec930804caceb7f883d1c35c4f20'),
    ('example32', 'custom:n/3'): (
        '5a1f8f3bb6b6d983f9ec4ca082f0a5ee4b7aba80fcbdd413899daf8d7d7c6791', 'exhausted',
        'f433d4c04070c2660ed9e0f969c16fa7501aec930804caceb7f883d1c35c4f20'),
    ('example16', 'run_to_end'): (
        '11a81db649a6ba5359e0daea8dc6b4bc5afc308cd4659c8cf2aa06eb99a0c431', 'exhausted',
        '681b2a53945c918b15f24ed8bbd844acc1b2328bde35d72557c04a60776f0ce6'),
    ('example16', 'working_threshold'): (
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 'threshold',
        '3d7f6e37fd075870529b3728e456d3d21b0bae8bbf1ee8530d6d15f249de4eb0'),
    ('example16', 'maxnt:8'): (
        '11a81db649a6ba5359e0daea8dc6b4bc5afc308cd4659c8cf2aa06eb99a0c431', 'exhausted',
        '681b2a53945c918b15f24ed8bbd844acc1b2328bde35d72557c04a60776f0ce6'),
    ('example16', 'custom:n/3'): (
        '11a81db649a6ba5359e0daea8dc6b4bc5afc308cd4659c8cf2aa06eb99a0c431', 'exhausted',
        '681b2a53945c918b15f24ed8bbd844acc1b2328bde35d72557c04a60776f0ce6'),
    ('worst:64', 'run_to_end'): (
        '9c5fe3c5dccc5754a0d734bab5a57829361449860b1af47beeaca7ca03c88947', 'exhausted',
        'c7bc2b2e0d9edea0cee83bcfc0643e5f6b11dc41889f1f5c071a701c51e10dde'),
    ('worst:64', 'working_threshold'): (
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 'threshold',
        '4029bcf595e96d779f918e14a4408c4554fdf00dad080d4dbed563ed024cd465'),
    ('worst:64', 'maxnt:8'): (
        'af1eb62287136ae9b30de51bb3a98fc53617d7ed6bdf5ec3eac93fe0f8746339', 'max_nonterminals',
        'd9c7c8cfa70a632eb472930b78b2a13e46a4821e5d87f5c5db4a440d41fdb76b'),
    ('worst:64', 'custom:n/3'): (
        '9c5fe3c5dccc5754a0d734bab5a57829361449860b1af47beeaca7ca03c88947', 'exhausted',
        'c7bc2b2e0d9edea0cee83bcfc0643e5f6b11dc41889f1f5c071a701c51e10dde'),
    ('random:4,2000,1', 'run_to_end'): (
        'e044dbc8390284081bf5ddd338866280ed78669f876737c05e2d6f40e01b3d2a', 'exhausted',
        '81dd4ac05fa957a2bdb4120564cf0a764b64c34cfe3f9609748a08557ae042ea'),
    ('random:4,2000,1', 'working_threshold'): (
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 'threshold',
        'f1172d14e2365adb356616480bee8e0ce0df3a67578f48781e14eb092d355e2b'),
    ('random:4,2000,1', 'maxnt:8'): (
        '2e156f11db3527c5b00417bc4baa2edaf787e1fe53c0a7f82ac68c7d1a8eafcd', 'max_nonterminals',
        '8bcfb733bc4a1e0cda917a6cbd4019dcf10c076add78489273ca56f957564601'),
    ('random:4,2000,1', 'custom:n/3'): (
        '0833660a6309d119b04634783a5eebaf7e6f884f5309f51b7ad8c382c09ba3ed', 'threshold',
        'af1e80c93d5effdfb977d3115a29dcbbd687acd72037d391eed1f5d37baac7b6'),
    ('bytes:4096', 'run_to_end'): (
        'f18be71434918e8916a8b5e33b2cfd537289ca8b18da84196eb4a1ec2cabc386', 'exhausted',
        'ae6c0133fcbe6be132afd356dfb674cfc70b5aecda1d6548ee07225e1f0135fd'),
    ('bytes:4096', 'working_threshold'): (
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 'threshold',
        'd70b4e16289131adf680efb67a41bb67346021c4e3daf073f01926d3baf61cea'),
    ('bytes:4096', 'maxnt:8'): (
        'cf5938891e684337959159e36cdefc3d3260004fd5bbd6d84931ce1d08b57689', 'max_nonterminals',
        'eb0cf980e085b20f82599479bd3bdfbf2392faa22e78cd57315512e77348ee25'),
    ('bytes:4096', 'custom:n/3'): (
        'f18be71434918e8916a8b5e33b2cfd537289ca8b18da84196eb4a1ec2cabc386', 'exhausted',
        'ae6c0133fcbe6be132afd356dfb674cfc70b5aecda1d6548ee07225e1f0135fd'),
    ('badgrammar:5', 'run_to_end'): (
        '921ce3672545b260e414814c03b7ff4f41f5be710064e142b4ba46f148d63441', 'exhausted',
        '5a8e719331a66adbc2097b5fc1e29acb958639c4aa4cd3f13f0bcdaedaa5b2fb'),
    ('badgrammar:5', 'working_threshold'): (
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 'threshold',
        '327ab76ada829b165187eff2f82d8c3d704cd2e7e737945268c8987d56989fa6'),
    ('badgrammar:5', 'maxnt:8'): (
        '2f381770e362b25f74e4d4fae990edf4ce0926ed5bcac9dd1e10708312fcca7f', 'max_nonterminals',
        '352fb5b2548edd1b20267c3a4c467263d7a02d45ee139e2433f676cd7bf777d2'),
    ('badgrammar:5', 'custom:n/3'): (
        'e2638f8fd1961b138c9e85501f7773cae3bae85972f01ce048aa42756631f16c', 'threshold',
        'f6b191b9b5be0611ea623753a83dd668c6abf5dc598680984b64af73120f8cd1'),
    ('worst:1024', 'run_to_end'): (
        '9b053f620fb0c61f97a1a06e43a1f5ac433d897403d1a7af5532857fe1f4785c', 'exhausted',
        'be9972ee5503d23829a112dd6a691b2b60ec2e5ac756c130d5c3c6c01e1ff2eb'),
    ('worst:1024', 'working_threshold'): (
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 'threshold',
        'bebe52f3e414b7adc4d5a97256d834e099bf86f3abfc12d17a7be0c769a3996e'),
    ('worst:1024', 'maxnt:8'): (
        '9cd0eadcec1126a4f4fd0d73573356dbd7692d84d5b12325882053058a4fe1dc', 'max_nonterminals',
        'a57c50f8a5b9a4cf47f9bc6628607cf7a377bff60a1d750fafc197d0be4c22f6'),
    ('worst:1024', 'custom:n/3'): (
        '9b053f620fb0c61f97a1a06e43a1f5ac433d897403d1a7af5532857fe1f4785c', 'exhausted',
        'be9972ee5503d23829a112dd6a691b2b60ec2e5ac756c130d5c3c6c01e1ff2eb'),
    ('s2/n70000', 'run_to_end'): (
        'c22023d4a8644902a2dca683f51c85d473988fd805c5f9847d53f799faf8b86b', 'exhausted',
        'f3ed9753370ce679e4d9e680226705dcdd8f41201327011e571a24f67563aae2'),
    ('s2/n70000', 'working_threshold'): (
        'ed8fcbd06e524ce4405ef5ad63579343a4ec49a8913d7e30b9de1ed4c0ffa013', 'threshold',
        '359cb4707c1ecd88d3988a494df554f33da9c7008c3d3ab5b0626b577ce88bce'),
    ('s2/n70000', 'maxnt:8'): (
        'd5f1206c2682ef9c5d60aa71b10d552bccefaf36563ae88e1efaff3e16a29fb4', 'max_nonterminals',
        'ecdd1e45e41e9dc6a9c24648e40546e83399c23563cb0949e59d0a3b175352a1'),
    ('s2/n70000', 'custom:n/3'): (
        'e7a8026fcfbc7a9d1ab7126e6dd80f7e8cb1d0246c00e4b2adc231998ee587c9', 'threshold',
        '3719709a21e835e6fca7a71596f64853a3ca3ed1d782a013659c80a000f48fb5'),
    ('a^511', 'run_to_end'): (
        'bfffda0d22335f898a695c47c25a6c2b865e335dff4da4fd3b88414abaf37695', 'exhausted',
        'a37364274e2530f32ce2ccc9d39a5a1139c7a45f371543b626acd6861514c298'),
    ('a^511', 'working_threshold'): (
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 'threshold',
        '9f3b7d5fab2b1a5fc6607c2c07553d80d623689d3b65d5547da064c462746130'),
    ('a^511', 'maxnt:8'): (
        'bfffda0d22335f898a695c47c25a6c2b865e335dff4da4fd3b88414abaf37695', 'exhausted',
        'a37364274e2530f32ce2ccc9d39a5a1139c7a45f371543b626acd6861514c298'),
    ('a^511', 'custom:n/3'): (
        '2e5f2067c6a187d4d809abe226d95e4afec5a627bbfddc988626d78f6527fd42', 'threshold',
        '616ea98ca47ed8bee05640560d69a3201dcd604ff92e971beb09c23cb8b3ee15'),
    ('(aab)^200', 'run_to_end'): (
        'b8c149bfbe6c03e2a5754fd52f25812ce4077db9c7bb1349073075bb49f8f325', 'exhausted',
        '2ada7ff60c9a6d19181844166d5947b8f644b7b93a6273d46ce7d516c084b031'),
    ('(aab)^200', 'working_threshold'): (
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 'threshold',
        '1f75e04b5161f1d2984e7bb92acc3d5f49dd2c133d65e88feaa4dba32695e39b'),
    ('(aab)^200', 'maxnt:8'): (
        'b8c149bfbe6c03e2a5754fd52f25812ce4077db9c7bb1349073075bb49f8f325', 'max_nonterminals',
        '2ada7ff60c9a6d19181844166d5947b8f644b7b93a6273d46ce7d516c084b031'),
    ('(aab)^200', 'custom:n/3'): (
        '673a6610ea6ebadb0ffd7911099694c01898501b2dbfec799480642acd4a1fa2', 'threshold',
        '3c30dca1fbec4f0e244ef2654e1a3315536b0f4b12171f0e299452ac3156c4a6'),
}


def test_repair_traces_cover_corpus():
    names = [name for name, _ in repair_trace_corpus()]
    assert set(REPAIR_TRACES) == {(n, p) for n in names for p in REPAIR_POLICIES}


@pytest.mark.parametrize("name,text", list(repair_trace_corpus()),
                         ids=[name for name, _ in repair_trace_corpus()])
def test_repair_trace_digests(name, text):
    for policy_name in REPAIR_POLICIES:
        assert _repair_trace_digests(text, policy_name) == REPAIR_TRACES[name, policy_name], \
            policy_name


# -- de Bruijn certificates and entropy profiles -----------------------------


def certificate_corpus():
    """(name, word, params): three generated words and both reference words."""
    for k, l, p in ((1, 9, 1), (2, 3, 1), (1, 5, 2)):
        params = GdBParams(k, l, p)
        yield f"gdb:{k},{l},{p}", generalized_word(params), params
    yield "example32", fixture_text("example32"), GdBParams(2, 0, 1)
    yield "example16", fixture_text("example16"), GdBParams(1, 1, 1)


def _certificate_digest(cert):
    """sha256 of every certificate field: flags, count tables, both entropy
    windows and the slack constant."""
    fields = {
        "params": [cert.params.k, cert.params.l, cert.params.p],
        "flags": [cert.db1, cert.db2, cert.db3, cert.tables_consistent,
                  cert.entropy_cyclic_ok, cert.entropy_linear_ok, cert.all_ok],
        "count_tables": [[i, sorted(hist.items())] for i, hist in sorted(cert.count_tables.items())],
        "entropy_cyclic": sorted(cert.entropy_cyclic.items()),
        "entropy_linear": sorted(cert.entropy_linear.items()),
        "slack_constant": cert.slack_constant,
    }
    return _sha256(json.dumps(fields).encode())


# {word: sha256 of its certificate}
CERTIFICATES = {
    'gdb:1,9,1': '98c35932a56ca86f5870e14b442b1f070478a3b8a8d468c3721e843859060ed8',
    'gdb:2,3,1': 'b850f084136f37bc9deb7ef741f2be9ff304099f69295bea35afb75c49782d36',
    'gdb:1,5,2': 'b472ad9f729f14af958aecf471385c90e5b19b380494b50496ca89547a1b3208',
    'example32': 'f2e3d86c399b941d0709e58ac24dd3b9e789fb9f7c93e4de01787e30835971e9',
    'example16': 'fc299d0a4a6428d3fa88d54340b16be7091a01a3fefc1a3dd5c5bd6f2f695f0c',
}


def test_certificates_cover_corpus():
    assert set(CERTIFICATES) == {name for name, _, _ in certificate_corpus()}


@pytest.mark.parametrize("name,word,params", list(certificate_corpus()),
                         ids=[name for name, _, _ in certificate_corpus()])
def test_certificate_digests(name, word, params):
    assert _certificate_digest(verify_gdb(word, params)) == CERTIFICATES[name]


PROFILE_K_MAX = 9


def _profile_digest(text, cyclic):
    """sha256 of entropy_profile's per-order rows and running means."""
    prof = entropy_profile(text, min(PROFILE_K_MAX, len(text) - 1) if cyclic else PROFILE_K_MAX,
                           cyclic)
    return _sha256(json.dumps([prof.per_order, sorted(prof.mean_up_to.items())]).encode())


# {(input, cyclic): sha256 of its entropy profile to order 9}
PROFILES = {
    ('example32', False): 'b19c53fc066dcedfc346a5993299cc3c80c3875ad9d2dc0f5b0422f90ac8dad1',
    ('example32', True): '9f28b384e811c970eb69ad9207451bc19468996a27335cc01317b9b4941b4704',
    ('example16', False): '652d1911d6ad48cc188d1fc0418ea5023f39658767c6e975500fb0564fa26fe3',
    ('example16', True): '622331718976a04b31cf81220ecda28e16e27b144727c039ffb7a44123cec435',
    ('worst:64', False): '65e1b39c8ddb4b1fec1ce6847d2c32ac1d3b118e2f1b5cf955c9352e8a5ad8f5',
    ('worst:64', True): 'e6c6e8f121373b4f37e9abaa40f7c4801a8cfc4bbd6a39e9d139d24977513522',
    ('random:4,2000,1', False): 'f58156bf4311b0993f6bca2267abac2f37bce72352abeb3e3478eaffdbdeb583',
    ('random:4,2000,1', True): 'da7eaab8939f66ec1b8ac5c580fd11424231e7263bbb155f0a95226302b740a7',
    ('bytes:4096', False): 'd9a686783333a017dea8824737e1b64ad2de23b8f127c246228143e2390f38e1',
    ('bytes:4096', True): '6697076ce70b4b395bfd60bc35e2d85cebc5462f27c38db6fe6258276dae3fbb',
    ('badgrammar:5', False): '5fc0d1673bade6e7637e5971710da4c0f121d98ce1456a899ea533bc236d7ea1',
    ('badgrammar:5', True): '857ff679c95ba197733b8b8e96ba158da4db9f042177b29d6f39dfbd86441f59',
}


def test_profiles_cover_corpus():
    assert set(PROFILES) == {(name, c) for name, _ in golden_corpus() for c in (False, True)}


@pytest.mark.parametrize("name,text", list(golden_corpus()),
                         ids=[name for name, _ in golden_corpus()])
def test_profile_digests(name, text):
    for cyclic in (False, True):
        assert _profile_digest(text, cyclic) == PROFILES[name, cyclic], cyclic


# -- parsings and their costs ------------------------------------------------

PARSERS = {
    "lz78": lz78_parse,
    "lz77ns": lz77_parse_nonself,
    **{f"offset:{l}": (lambda text, l=l: best_offset_parsing(text, l)) for l in (2, 4, 8)},
}


def parsing_corpus():
    """(name, text, gdb params or None): the golden corpus, three generated
    words and two periodic words."""
    for name, text in golden_corpus():
        yield name, text, None
    for name, word, params in certificate_corpus():
        if name.startswith("gdb:"):
            yield name, word, params
    yield "a^512", Text.from_string("a" * 512, 2), None
    yield "(ab)^300", Text.from_string("ab" * 300, 2), None


def _parsing_digest(text, parser, params):
    """sha256 of the phrase lengths, every parsing_cost field for k in
    {None, 0, 1, 2}, the natural-parser verdict and, on gdb words, the
    lower-bound rows and measurements."""
    parsing = PARSERS[parser](text)
    costs = []
    for k in (None, 0, 1, 2):
        rep = parsing_cost(parsing, k)
        costs.append([rep.parsing_entropy_bits, rep.cost_bits, rep.k_cost_bits,
                      rep.lengths_entropy_bits, rep.k])
    fields = {
        "lengths": parsing.lengths,
        "costs": costs,
        "natural": is_natural_parsing(parsing) if text.sigma >= 2 else None,
    }
    if params is not None:
        check = lower_bound_check(text, parsing, params)
        fields["lower_bound"] = [[r.as_dict() for r in check.rows],
                                 sorted(check.measurements.items())]
    return _sha256(json.dumps(fields).encode())


# {(input, parser): sha256 of its parsing, costs, natural verdict and bound rows}
PARSINGS = {
    ('example32', 'lz78'): 'a51dfbd2fab78d1bc6d5e3c534501ec78e31a313434cad0e4e078af30602a4a4',
    ('example32', 'lz77ns'): 'ed32d2016826b00609c3944ef2d3d8baa7bd776375c607fdc96f79f910ff6be2',
    ('example32', 'offset:2'): '6bd20a9c1c4019e29e0a72c7382caf6de69213345499556286db6f1ed6216990',
    ('example32', 'offset:4'): 'c6357b9c73d36deddce0fa17d6d387328fcb4c3029065dcf94f1b295958cf0be',
    ('example32', 'offset:8'): '4bee83e2c191f8b1b0bb497d5945d42b0e13b0e99b3a5511e3497b0fbba2a5f0',
    ('example16', 'lz78'): '43397c852fc83674f10fda745d68e675f1447e6c0196598d0f0b2f537a204239',
    ('example16', 'lz77ns'): 'bb6edadf4964b96c1cea0bc5cb634a4521a545abd8a849c9bac900a04190558d',
    ('example16', 'offset:2'): '6f1b94c22983a965cdd92868174d0c8224dbee022f81193aa9c5de460e1d809e',
    ('example16', 'offset:4'): '00f7065d56a21e3363ccfa896ee0c935532c70a037e4e19461a48b26714b65df',
    ('example16', 'offset:8'): 'eaa56711565342acfcf308b62cacef4dd87aaa77d7d8a8ab2d73bf4ec5731d52',
    ('worst:64', 'lz78'): 'c1b0fd1de0f65bfc343232832b6c80ebccbcf09a4d682fd70bb30415e8819d17',
    ('worst:64', 'lz77ns'): '6dc9ea50abb6b4ae3fa17f0d11f9293e0a1097774a7360d3bbd7382f0913e4ac',
    ('worst:64', 'offset:2'): '144d54c13531551136c45afb78f6c7b4c1dc935860a1c1bbe47826210d55c597',
    ('worst:64', 'offset:4'): 'f0a3a28377865cdd4c0571a2bc1e7f68a16f97a965e6036b89b7b0960190c91b',
    ('worst:64', 'offset:8'): 'd8f59b193b4e4af116fdfffe8be94bed0c5bbaff78ba0eaeefd6916fe0d26694',
    ('random:4,2000,1', 'lz78'): 'a51836222e02690b4651a959187f70f171c0cf7f222f0411064ec008700bc65c',
    ('random:4,2000,1', 'lz77ns'): '6e60b3f69d8df0ffce078111ae1f5431b65e839968a6c90a726ed0cb64de7257',
    ('random:4,2000,1', 'offset:2'): '2b8f96bfe1d46975ed200b5355cfe8bfc2746e0c00d4d2a3bd2f2625b236c487',
    ('random:4,2000,1', 'offset:4'): 'ba724e7e61a79c135bd9ed41e6d1b0837711c1be3a3802ba6270f7d769ee9009',
    ('random:4,2000,1', 'offset:8'): 'cd768b668fbb46cbb47390c117f60c3dd65976cec8fb83b2dd765524d56b1a46',
    ('bytes:4096', 'lz78'): 'e2409f6b3e12ebadf0ddb41f34e117efae6f0a15e8b6ba89d6a190559d8aa238',
    ('bytes:4096', 'lz77ns'): '02ac0cc90e44ecfa136f6215cd122c6d6f9eefcf8935b47f0718dd54c80874be',
    ('bytes:4096', 'offset:2'): 'bae05edc0750e78b9329e1345f00031c1797708f54c742c8b90f91b11d4025a4',
    ('bytes:4096', 'offset:4'): '252a677a6f49c583f91367c22cfa55ae538ba2423cd50a95f945e34cfabb978f',
    ('bytes:4096', 'offset:8'): 'ba047d42ebaca321fe257104e1d5e19c1dd1b179e48969152016ecdc4637f54a',
    ('badgrammar:5', 'lz78'): '78ccc684838ea2ea688405f50be045b767085ee4388d1b40155ba8f989bbf780',
    ('badgrammar:5', 'lz77ns'): '92c0dc3760caab9c33caad145ff709ff327205b03b6af475fb655a8538c50991',
    ('badgrammar:5', 'offset:2'): 'a3cffcb5f534be7009d06d74281d5196ae6a3fae0d4433350ca2e337f8cd87a1',
    ('badgrammar:5', 'offset:4'): '286a2250f2d5c5eaf28475eaf66903e873227ca46e76477c35f6a99f1ec0b2f0',
    ('badgrammar:5', 'offset:8'): '0df9f9d053938164c71b03094375b248770e68d01dd3042cee88ca41a10d422c',
    ('gdb:1,9,1', 'lz78'): 'db5b676420dd60565e634a35e1346cac13bd1647c57ead8ef244698dc1db1c16',
    ('gdb:1,9,1', 'lz77ns'): '96184ff3de7f097003cc81010c9e66f5bab5c07d8cc058fcd4f04ee127ee0147',
    ('gdb:1,9,1', 'offset:2'): 'cab6f76bc7f19b58043fdf3753e175c28aa48bec4bee64a920fb9953b3bdae4c',
    ('gdb:1,9,1', 'offset:4'): '1586d68d550e41ef230ba1a281de141da583bd15adaba8999728e8af8aed1c83',
    ('gdb:1,9,1', 'offset:8'): 'b0cca4a78c0a1149c9224a310ec8fcb9337215353eeaa668aa6fcd6b6d55493c',
    ('gdb:2,3,1', 'lz78'): 'd73dfe093086bcc78786b8ce32b879fd7b9048b7e87a862410fc9d75e01d218c',
    ('gdb:2,3,1', 'lz77ns'): '03caa17d45ed5f4771970f9c5bbe78cd122b874a1481bf9d586c97f299a72a7e',
    ('gdb:2,3,1', 'offset:2'): '278242a9f63b82f8eac348874c34d837dc976ec1731eb803ec65b351c589ebc4',
    ('gdb:2,3,1', 'offset:4'): '9592858db47b693ecf2242765b25919d679bf0c01cf24a7f3e72e120a83d6635',
    ('gdb:2,3,1', 'offset:8'): '0c1623f67c7c5fdcca0534316fcb1cfb9c3a81394678a2725689d81626cd517f',
    ('gdb:1,5,2', 'lz78'): 'b624f3a07ab261f290cf0e43ffd82f3a7aae7bebeb92ece0c7f0750bfc3688aa',
    ('gdb:1,5,2', 'lz77ns'): '4798cf09b6f1875252e94a863ce4b9d5c2fa33a2d1bdb3eabc4c3a07279bcf7a',
    ('gdb:1,5,2', 'offset:2'): '7fb800f06d0c82fcf1c6493b2b3d171b8ad7267a722b977e0c8a6bea098f4a76',
    ('gdb:1,5,2', 'offset:4'): '241c90b013b1447e9ce33017d3e833865f8287a20e873cd35720bed745bfe95d',
    ('gdb:1,5,2', 'offset:8'): 'cd046b8c644f205bd1697f96edfab443a724e6199b043c50ce5745edc8af9b48',
    ('a^512', 'lz78'): '40ccbd1d778b974fb3a1c9b3409a9f517ba6e8aa3da3efa5e3d1668834c6b436',
    ('a^512', 'lz77ns'): 'f9e7d05646ce4b97bc47cdf885c71c3dd5f08e5a706e16f7c48d00b3c6519492',
    ('a^512', 'offset:2'): 'fd77dac2caf18125103617d61568e5ba3c133b7da109d790f6589072ee138b56',
    ('a^512', 'offset:4'): '7eeeb77c340cbf2539e00befaea5edab75b50760800ae0cad7a73db8749336d8',
    ('a^512', 'offset:8'): 'e8a34519aa0f6a9e35e72489d9b1ddc359d9fe1869d03f57f29ccc352daa8627',
    ('(ab)^300', 'lz78'): '73c0134cd86c88fe9b3d319896312e47314521b2ee8b812f61e63e1197e0a917',
    ('(ab)^300', 'lz77ns'): '698fc1366c758ffe70ba211d98263c97e346e3e5632f76cabdb6f36b75a0fb7a',
    ('(ab)^300', 'offset:2'): '5866cd75321ac9e8a4b5d5996b54690dfe360918ea3008a76ac111e5e96539cb',
    ('(ab)^300', 'offset:4'): '843ede6ef289ab42bd094450f5eb3791680c29db8e4714a2d2a6ab3ef50ce5e9',
    ('(ab)^300', 'offset:8'): '5d5cddda9bf42b6856f8626d4362f1c65fdb4fcb538797cc3f44a78e34fc6af6',
}


def test_parsings_cover_corpus():
    assert set(PARSINGS) == {(name, p) for name, _, _ in parsing_corpus() for p in PARSERS}


@pytest.mark.parametrize("name,text,params", list(parsing_corpus()),
                         ids=[name for name, _, _ in parsing_corpus()])
def test_parsing_digests(name, text, params):
    for parser in PARSERS:
        assert _parsing_digest(text, parser, params) == PARSINGS[name, parser], parser


# -- report entries -----------------------------------------------------------

REPORT_POLICIES = ("end", "threshold", "maxiter:5")


def report_corpus():
    """The golden corpus plus a de Bruijn word, whose cells also carry the
    certificate and lower-bound rows."""
    yield from golden_corpus()
    yield "gdb:2,1,1", fixture_text("gdb:2,1,1")


def _rounded(value):
    """value with every float rounded to 1e-9, containers walked in order."""
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, dict):
        return {key: _rounded(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


def _entry_digest(entry):
    """sha256 of one report entry: each row's name, pass flag, lhs and rhs in
    row order, the measurements in key order, floats to 1e-9, and the error
    string of a failed cell."""
    fields = {
        "rows": [_rounded([r["name"], r["pass"], r["lhs_bits"], r["rhs_bits"]])
                 for r in entry.get("bound_rows", ())],
        "measurements": _rounded(entry.get("measurements")),
        "error": entry.get("error"),
    }
    return _sha256(json.dumps(fields).encode())


def _report_digests(policy):
    spec = RunSpec(inputs=tuple(report_corpus()), algorithms=ALGORITHMS, policy=policy,
                   encodings=tuple(coders.ENCODINGS))
    return {(policy, e["input"], e["algorithm"]): _entry_digest(e) for e in run(spec).entries}


# {(policy, input, algorithm): sha256 of its report entry}
REPORT = {
    ('end', 'badgrammar:5', 'repair'): 'c0ed0e7b3ed5f0786c1f23403adabfc2fc6874fc38c535a7bb4e8e275dc108f4',
    ('end', 'badgrammar:5', 'greedy'): 'de555f38ffe5ac27c5c3ec0e62cbe90bac6f2988bfc7344e0f48251b276a846c',
    ('end', 'badgrammar:5', 'lz78'): '6f59ea16137eb21ba2a5b9ca827db11697f21bb6a6d31021fb831a0252fab108',
    ('end', 'badgrammar:5', 'lz77ns'): '4397bb907f1a9ceec57b3daf6bde15ea36bf795ce9f37653c4c7cd9e8b25a756',
    ('end', 'badgrammar:5', 'offset-parse'): '4b50074a2dfe575450b9f42f32b19f0bdce7b3587f31433bfd53073a3b9f00ea',
    ('end', 'bytes:4096', 'repair'): '3d697373519bbb65c56ec57c88c4fbf2c8451c043464d19e0b2f50e1bc205504',
    ('end', 'bytes:4096', 'greedy'): '0c2549c36e00e6c16ccaa7d00f90d84287294b8c44003ef2f8a324d26320a819',
    ('end', 'bytes:4096', 'lz78'): '0a57c07d60148d36dfc5f58939c9113b72209ee4732f1d54305a58874de860fb',
    ('end', 'bytes:4096', 'lz77ns'): 'a5eb780efcadb516a0b317dfae688bcf50fcee72cc1bdc2924405a2c2c068462',
    ('end', 'bytes:4096', 'offset-parse'): 'baae4ebc148d03173bc900410db25929f044a2aeb9b04e39f10899910fb9601b',
    ('end', 'example16', 'repair'): '29aa1c421b105c9a2491ed03487cf69f73801886dd35c8e47d98b040707eae31',
    ('end', 'example16', 'greedy'): '726ac9e3aa3fbf8a00019c8676769e30592d7e5b2181b6bde1399dd1201b4d23',
    ('end', 'example16', 'lz78'): '827704e5303e0a5c304f50a44aea66a435933fe67797ae5fb8566d62814dff26',
    ('end', 'example16', 'lz77ns'): '9db138130cb1c88c0d2e6c4d4cbbfaa6dbfb6c9e6d6549c7aff0302302bbce9f',
    ('end', 'example16', 'offset-parse'): '497c4719c82f7a57417fe1d5722364660982c02e0a66c9bd87b67e798dfb5e6e',
    ('end', 'example32', 'repair'): '30a0149acd7464f7fe8ccdce6e625ccf07c96537ec0f18c5073449cd6d0ae1dd',
    ('end', 'example32', 'greedy'): 'e0fcb11d53207bba8e893c88a2259c0cb306099172b7256ea7e7476224c13d13',
    ('end', 'example32', 'lz78'): 'd4f13c6b35fde5aa64500f21df801a96610192a10ab82d6e1b307c970e745d4e',
    ('end', 'example32', 'lz77ns'): '5b1be8e9714d6a530de54670f58215b2c9d0631b71b9fee3102858179aba14ad',
    ('end', 'example32', 'offset-parse'): '38308344ee6a2f0e90dd1ebc577aa99d030c563727ee94fa3e60b7d7fad787dd',
    ('end', 'gdb:2,1,1', 'repair'): '795cf4287e352d1c1dd3cd6de8065eec87461211ff804e7da02acc8b5e8d8c2d',
    ('end', 'gdb:2,1,1', 'greedy'): '1a30525e0f3bc508f495528dc746f66a5c46e3725cce87d58bd956308fec3f74',
    ('end', 'gdb:2,1,1', 'lz78'): '9f919f82d6b2034df8c01c974242dfc2397bceff52eceba36da551c7ae57b790',
    ('end', 'gdb:2,1,1', 'lz77ns'): 'fc442051e2192adfd2c8df91438f008ac46a82d2159c32f3593a97a4685491ad',
    ('end', 'gdb:2,1,1', 'offset-parse'): '2d862e6b5cbf8a8ecd95f9bbdfaea7aa79f2753ae6d91c85218d2e7a269a310c',
    ('end', 'random:4,2000,1', 'repair'): 'aeea8a110441a1c42e65cfb64d8028d0ce014d597c43fb210ce5caa909f2a40f',
    ('end', 'random:4,2000,1', 'greedy'): '9727e2b3ed654212d45334b33be145f7b67ddaa7c41d9f8568d898c5617d21ef',
    ('end', 'random:4,2000,1', 'lz78'): 'e7327cd2df7a89f2c8b58602ab2c5276a54167ae46b8f200358e37f81bf7e3f2',
    ('end', 'random:4,2000,1', 'lz77ns'): '8262daa500ca9fb30a2ed48fbf4bce8c70801c667376c42319499ba04d06999e',
    ('end', 'random:4,2000,1', 'offset-parse'): 'edc6db4c0668cec64b80317a19bda8929cb115e488a2419ecacc00cc9c0032b0',
    ('end', 'worst:64', 'repair'): '2bacfb7d66fbe9c59c60a60cb5cbdb580b32f1cd71a58cab39940c7b39904bfd',
    ('end', 'worst:64', 'greedy'): '4968d6e6bad5e851122609d8790437a2f59adc598f37e3240cb98fa6da5c12ec',
    ('end', 'worst:64', 'lz78'): '58a04a4dc65a7337da2242baee847961604c21c1b8bea50953e8a85e741e6198',
    ('end', 'worst:64', 'lz77ns'): '861401cae0926623f187feffa2a58b2145f96d00564e8b5eee612e7f0845ede2',
    ('end', 'worst:64', 'offset-parse'): '393bc51c3bd8800c39af5b213421ac54eff12c6ca69a9c80de1830f4adf5e037',
    ('threshold', 'badgrammar:5', 'repair'): 'fca119b798255a09afa042e4af7b9f999ac48cb935d06e56924eea6353f897eb',
    ('threshold', 'badgrammar:5', 'greedy'): '1a8c593c4f77425c88b914f5c769cd0875331f3a319ee33af70ceec80539e440',
    ('threshold', 'badgrammar:5', 'lz78'): '6f59ea16137eb21ba2a5b9ca827db11697f21bb6a6d31021fb831a0252fab108',
    ('threshold', 'badgrammar:5', 'lz77ns'): '4397bb907f1a9ceec57b3daf6bde15ea36bf795ce9f37653c4c7cd9e8b25a756',
    ('threshold', 'badgrammar:5', 'offset-parse'): '4b50074a2dfe575450b9f42f32b19f0bdce7b3587f31433bfd53073a3b9f00ea',
    ('threshold', 'bytes:4096', 'repair'): 'e2a74bd1f40d73daccf1e597018cfa1bdec6f4a89107db8adf2c88e5d6d45ecc',
    ('threshold', 'bytes:4096', 'greedy'): 'a8c71e5a6b0507b8ade6b555bd68f3b27a03747e6260bf0594c4731515c1936a',
    ('threshold', 'bytes:4096', 'lz78'): '0a57c07d60148d36dfc5f58939c9113b72209ee4732f1d54305a58874de860fb',
    ('threshold', 'bytes:4096', 'lz77ns'): 'a5eb780efcadb516a0b317dfae688bcf50fcee72cc1bdc2924405a2c2c068462',
    ('threshold', 'bytes:4096', 'offset-parse'): 'baae4ebc148d03173bc900410db25929f044a2aeb9b04e39f10899910fb9601b',
    ('threshold', 'example16', 'repair'): '20dbbdb991c23841f4ccbef2eb5bc6636fd24cd5af5a443bdd606e163fb4e604',
    ('threshold', 'example16', 'greedy'): 'a7dd43b373fca642024637679886dc9b16a99fe8957ff4343f3c9d092f65591a',
    ('threshold', 'example16', 'lz78'): '827704e5303e0a5c304f50a44aea66a435933fe67797ae5fb8566d62814dff26',
    ('threshold', 'example16', 'lz77ns'): '9db138130cb1c88c0d2e6c4d4cbbfaa6dbfb6c9e6d6549c7aff0302302bbce9f',
    ('threshold', 'example16', 'offset-parse'): '497c4719c82f7a57417fe1d5722364660982c02e0a66c9bd87b67e798dfb5e6e',
    ('threshold', 'example32', 'repair'): '3fddae24ddfcac1798e76409d0b6f1c70c6c7358969a5b4bc901b9b7387efaa4',
    ('threshold', 'example32', 'greedy'): '3df0f9261667416bf12f67d35b677ba23064df46d5fbf0bece3847440a82c1a0',
    ('threshold', 'example32', 'lz78'): 'd4f13c6b35fde5aa64500f21df801a96610192a10ab82d6e1b307c970e745d4e',
    ('threshold', 'example32', 'lz77ns'): '5b1be8e9714d6a530de54670f58215b2c9d0631b71b9fee3102858179aba14ad',
    ('threshold', 'example32', 'offset-parse'): '38308344ee6a2f0e90dd1ebc577aa99d030c563727ee94fa3e60b7d7fad787dd',
    ('threshold', 'gdb:2,1,1', 'repair'): 'b0d4c4244ffedcab213388986084b182ddaf8a9c9535c9625edee67b4d91fc10',
    ('threshold', 'gdb:2,1,1', 'greedy'): 'cd2c2acf0b3cc4ba1bcaf415e0e542f33158da80db550347d65234d2cb0299d5',
    ('threshold', 'gdb:2,1,1', 'lz78'): '9f919f82d6b2034df8c01c974242dfc2397bceff52eceba36da551c7ae57b790',
    ('threshold', 'gdb:2,1,1', 'lz77ns'): 'fc442051e2192adfd2c8df91438f008ac46a82d2159c32f3593a97a4685491ad',
    ('threshold', 'gdb:2,1,1', 'offset-parse'): '2d862e6b5cbf8a8ecd95f9bbdfaea7aa79f2753ae6d91c85218d2e7a269a310c',
    ('threshold', 'random:4,2000,1', 'repair'): '8a1689ca4aef27cf3f710bde510725199a85017b834c0332caa7bce96caaebd4',
    ('threshold', 'random:4,2000,1', 'greedy'): 'a3fdb260fbe9f926c303d266e3f99ca7f836f9c455bd5fdb43471924b6965099',
    ('threshold', 'random:4,2000,1', 'lz78'): 'e7327cd2df7a89f2c8b58602ab2c5276a54167ae46b8f200358e37f81bf7e3f2',
    ('threshold', 'random:4,2000,1', 'lz77ns'): '8262daa500ca9fb30a2ed48fbf4bce8c70801c667376c42319499ba04d06999e',
    ('threshold', 'random:4,2000,1', 'offset-parse'): 'edc6db4c0668cec64b80317a19bda8929cb115e488a2419ecacc00cc9c0032b0',
    ('threshold', 'worst:64', 'repair'): '5066ae20c2103aaeb6a9056bdf9df4abe7d5ac70e5d9aabbdbc6760098b36238',
    ('threshold', 'worst:64', 'greedy'): 'a6469081582524c578470bd25d57aaed33742d71bf00e76a84b690fb7e502a2c',
    ('threshold', 'worst:64', 'lz78'): '58a04a4dc65a7337da2242baee847961604c21c1b8bea50953e8a85e741e6198',
    ('threshold', 'worst:64', 'lz77ns'): '861401cae0926623f187feffa2a58b2145f96d00564e8b5eee612e7f0845ede2',
    ('threshold', 'worst:64', 'offset-parse'): '393bc51c3bd8800c39af5b213421ac54eff12c6ca69a9c80de1830f4adf5e037',
    ('maxiter:5', 'badgrammar:5', 'repair'): '7a323557be6c3879fa7fc151790140a80fa25ba190d31fce0a1da7cd68ed0665',
    ('maxiter:5', 'badgrammar:5', 'greedy'): 'b5b70de51f26f915bac83ed38df8b8c7c7c97ce3c0e8dd50a31b51b13040ee85',
    ('maxiter:5', 'badgrammar:5', 'lz78'): '6f59ea16137eb21ba2a5b9ca827db11697f21bb6a6d31021fb831a0252fab108',
    ('maxiter:5', 'badgrammar:5', 'lz77ns'): '4397bb907f1a9ceec57b3daf6bde15ea36bf795ce9f37653c4c7cd9e8b25a756',
    ('maxiter:5', 'badgrammar:5', 'offset-parse'): '4b50074a2dfe575450b9f42f32b19f0bdce7b3587f31433bfd53073a3b9f00ea',
    ('maxiter:5', 'bytes:4096', 'repair'): 'f7237e0f7b42e5fd67a95486fb89a54546743bfeef0d17ecf27d1b8ab9597eaf',
    ('maxiter:5', 'bytes:4096', 'greedy'): 'b402037a6addf224a11f7e57760d6d1f282f15ff566be47f99d0efd7c3ac03e6',
    ('maxiter:5', 'bytes:4096', 'lz78'): '0a57c07d60148d36dfc5f58939c9113b72209ee4732f1d54305a58874de860fb',
    ('maxiter:5', 'bytes:4096', 'lz77ns'): 'a5eb780efcadb516a0b317dfae688bcf50fcee72cc1bdc2924405a2c2c068462',
    ('maxiter:5', 'bytes:4096', 'offset-parse'): 'baae4ebc148d03173bc900410db25929f044a2aeb9b04e39f10899910fb9601b',
    ('maxiter:5', 'example16', 'repair'): '29aa1c421b105c9a2491ed03487cf69f73801886dd35c8e47d98b040707eae31',
    ('maxiter:5', 'example16', 'greedy'): '93574880e6e1f4d98890bb71391a0c1c4555f65d44d9aee5174b598010a1c3dc',
    ('maxiter:5', 'example16', 'lz78'): '827704e5303e0a5c304f50a44aea66a435933fe67797ae5fb8566d62814dff26',
    ('maxiter:5', 'example16', 'lz77ns'): '9db138130cb1c88c0d2e6c4d4cbbfaa6dbfb6c9e6d6549c7aff0302302bbce9f',
    ('maxiter:5', 'example16', 'offset-parse'): '497c4719c82f7a57417fe1d5722364660982c02e0a66c9bd87b67e798dfb5e6e',
    ('maxiter:5', 'example32', 'repair'): 'e2307068d2b53677e3fa30fbb893704f5ae1101a7318e06f403f9fe78da5c6ef',
    ('maxiter:5', 'example32', 'greedy'): 'd2d2e3aa4c0c629bbe171aa1615d5b46f3a1a65cfad10eeed63a06a827895cfc',
    ('maxiter:5', 'example32', 'lz78'): 'd4f13c6b35fde5aa64500f21df801a96610192a10ab82d6e1b307c970e745d4e',
    ('maxiter:5', 'example32', 'lz77ns'): '5b1be8e9714d6a530de54670f58215b2c9d0631b71b9fee3102858179aba14ad',
    ('maxiter:5', 'example32', 'offset-parse'): '38308344ee6a2f0e90dd1ebc577aa99d030c563727ee94fa3e60b7d7fad787dd',
    ('maxiter:5', 'gdb:2,1,1', 'repair'): '6c7785e75ecf060cae0df06802037de0cc62173698516255305280fff9e4db1c',
    ('maxiter:5', 'gdb:2,1,1', 'greedy'): 'f247270fbc7a1dd581e21158ac596731ec4a042eac5eb3523a13146eda785c12',
    ('maxiter:5', 'gdb:2,1,1', 'lz78'): '9f919f82d6b2034df8c01c974242dfc2397bceff52eceba36da551c7ae57b790',
    ('maxiter:5', 'gdb:2,1,1', 'lz77ns'): 'fc442051e2192adfd2c8df91438f008ac46a82d2159c32f3593a97a4685491ad',
    ('maxiter:5', 'gdb:2,1,1', 'offset-parse'): '2d862e6b5cbf8a8ecd95f9bbdfaea7aa79f2753ae6d91c85218d2e7a269a310c',
    ('maxiter:5', 'random:4,2000,1', 'repair'): '34b3937d5ec6f345bf87be8636158eceabe3bf7c90830f94b5d7fe55b15964d2',
    ('maxiter:5', 'random:4,2000,1', 'greedy'): 'ba57036f10f721672a542c0ddbc1ca359a8f31df0b5ed8a4638719c5f329c3eb',
    ('maxiter:5', 'random:4,2000,1', 'lz78'): 'e7327cd2df7a89f2c8b58602ab2c5276a54167ae46b8f200358e37f81bf7e3f2',
    ('maxiter:5', 'random:4,2000,1', 'lz77ns'): '8262daa500ca9fb30a2ed48fbf4bce8c70801c667376c42319499ba04d06999e',
    ('maxiter:5', 'random:4,2000,1', 'offset-parse'): 'edc6db4c0668cec64b80317a19bda8929cb115e488a2419ecacc00cc9c0032b0',
    ('maxiter:5', 'worst:64', 'repair'): '2a5de6f1d0c7296e79ba05bda1fb0b6f431e57a7160364844966ddee4cfd8c21',
    ('maxiter:5', 'worst:64', 'greedy'): 'abbddb318906fc8b710faff19ecbd6a98158ef794599325b0aa82b4b7c9ae309',
    ('maxiter:5', 'worst:64', 'lz78'): '58a04a4dc65a7337da2242baee847961604c21c1b8bea50953e8a85e741e6198',
    ('maxiter:5', 'worst:64', 'lz77ns'): '861401cae0926623f187feffa2a58b2145f96d00564e8b5eee612e7f0845ede2',
    ('maxiter:5', 'worst:64', 'offset-parse'): '393bc51c3bd8800c39af5b213421ac54eff12c6ca69a9c80de1830f4adf5e037',
}


def test_report_covers_corpus():
    assert set(REPORT) == {(policy, name, alg) for policy in REPORT_POLICIES
                           for name, _ in report_corpus() for alg in ALGORITHMS}


@pytest.mark.parametrize("policy", REPORT_POLICIES)
def test_report_digests(policy):
    got = _report_digests(policy)
    assert got == {key: want for key, want in REPORT.items() if key[0] == policy}
