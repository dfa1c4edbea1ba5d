"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Corpus (fixed seeds):
  * 200 random texts, sigma cycling {2, 4, 16, 256}, n log-uniform in [24, 1500];
  * sigma=2 texts with n in {70000, 100000} for the non-vacuous Re-Pair
    threshold case (16n/log_sigma n < n needs n > sigma^16);
  * the Re-Pair worst-case family at n in {64, 256, 1024};
  * the full generalized de Bruijn grid with word length <= 2^20
    (criterion 7, each word pinned by its sha256), sub-capped per parser for the lower-bound suite
    (criterion 8: <= 2^12 for Greedy, <= 2^16 for LZ78/LZ77ns/Re-Pair);
  * both reference example words.

Two literal statements are strict-xfail with the analysis inline: the
often-quoted Elias-delta length form (falsified at n = 2, 8, ...) and the
lower cyclic-entropy sandwich (falsified by the boundary term of the
substring-count convention, e.g. "abab" at k = 1).  The corrected forms are
asserted green here.
"""

import hashlib
import math
import random
import time

import numpy as np
import pytest

from gclab.coders import (
    ENCODINGS,
    elias_delta_decode,
    elias_delta_encode,
    elias_delta_length,
    encode,
    from_container,
    huffman_encode,
    sequence_entropy_bits,
    to_container,
)
from gclab.debruijn import GdBParams, generalized_word, lower_bound_check, verify_gdb
from gclab.grammar import (
    FullGrammar,
    canonicalized,
    check_irreducible,
    metrics,
    start_parsing,
)
from gclab.greedy import GreedyPolicy, greedy_run, greedy_stop_report
from gclab.parsing import (
    Parsing,
    best_offset_parsing,
    is_natural_parsing,
    lz77_parse_nonself,
    lz78_parse,
    parsing_cost,
)
from gclab.repair import (
    StopPolicy,
    log_sigma,
    repair_run,
    repair_threshold,
    stop_point_report,
    worst_case_family,
)
from gclab.textcore import Text, empirical_entropy

LOG2E = math.log2(math.e)
SEED = 20240811
TOL = 1e-6
K_RANGE = range(0, 5)

EXAMPLE_32 = "aababcbbadccdbddaacadaccbdbbcddc"
EXAMPLE_16 = "abbbdacdcacabdcd"


def say(criterion, message):
    print(f"\nACCEPTANCE {criterion}: {message}")


def _random_corpus():
    rng = random.Random(SEED)
    sigmas = (2, 4, 16, 256)
    out = []
    for i in range(200):
        sigma = sigmas[i % 4]
        n = int(24 * (1500 / 24) ** rng.random())
        out.append((f"rnd{i:03d}/s{sigma}/n{n}", Text(
            [rng.randrange(sigma) for _ in range(n)], sigma)))
    return out


# sha256 of every criterion-7 grid word, symbols as little-endian uint32:
# {(k, l, p): digest}
GDB_GRID_WORD_SHA256 = {
    (1, 0, 1): '97d421770243efad12d3ea45e95e073174b3502a63757ead66c0fb4674b90168',
    (1, 1, 1): 'f229961dac5318399198580fed1aa9bc813b66beac1c6be8719b4dbd2aafe3e0',
    (1, 2, 1): 'e88e809f84608d624f4f4a96e806ae9b72fb653941e94e26312891bff5244c29',
    (1, 3, 1): 'fd2748388e18eee9d296dc7f2e5201f3bd192c44909d995a5e6bf17a6ace1b2d',
    (1, 4, 1): 'ca02cbd55dd21b2296450dd195dcd322010640e4acfff7b49d6c73087373dc70',
    (1, 5, 1): 'a7aa4aaf1640277888a566a2f6e3db6909b1bb421d0786bb8d5825178d4da025',
    (1, 6, 1): 'ee9af79ec203363e10b5751d6cec3d430fe35f82264536a36dd92e5e71cc07de',
    (1, 7, 1): '6ee10490d501eae38d19986e73636186dace9e111a60739bae38c969afa9e0f3',
    (1, 8, 1): '06e9e26d358218326a3b43de19b9ddb7b5c9a08aedcebe5cde9f16c87e84e1f4',
    (1, 9, 1): '982fcececb3548b4145640da1e46913dcf3c0dc1be352362f3a2ea354d8a2df8',
    (1, 10, 1): '0e550986e5f754abfa98a12c8e055ceeb38b57197abca4f94bb47bb094797fa1',
    (1, 11, 1): '6c2c3c2e7d06e967280f3bc13f0658d0b637c54bc4e94346b248002ec8b2dec2',
    (1, 12, 1): '16d8b34d34f45a6e83ef5429d49172a79de757c7d228b5d03b3d73e2a89c9f03',
    (1, 13, 1): '39263f3058c297a7fe4d55b3afed1ccd7c8640899115d255b2b1ae3630d77620',
    (1, 14, 1): 'c01600c7d82c52dda4bf436214661da4b234ac7ea27371cdf1ce72f1d3398771',
    (1, 15, 1): '3e57ec4bb5a8445c7880f9d8b4acb4594dc3be5874a3c5780392fee4314d4c79',
    (1, 16, 1): 'dd12e4c31a2917925eda31d967bcfd91e0472feac8e0eb0909a3cc7a569c6ed7',
    (1, 17, 1): '8a3e29bb439e0df4fa2da4fd78499c65fbfd8cacf5a85534f57ee658799a6b56',
    (2, 0, 1): 'a95c77387d30cc10dd018249860019c08b47bc9583e71497c2e483bb97ea4425',
    (2, 1, 1): '92bba0a4818b130d728a6253097adab7cd95244c8ea614a9806347bdf233c25a',
    (2, 2, 1): '0c97ae0f74b84206cc74ad37d73cf12ce7279632af8bfcf141d3c534f679f3c2',
    (2, 3, 1): '755480c642a565f90d0010e49e8465949b77c4a3fde712114f323010f1b8dd67',
    (2, 4, 1): '3fd6d3b4f88fb2cc701ca22ddc00c89531fa12b09f80b5cfe65a22664bd45f12',
    (2, 5, 1): '176681ba108a9319a80faf3832d42d6ba725c04849fcdc23cda08c6aa1d20f23',
    (2, 6, 1): '41ab36be5299366c1554f3bdd6d193dbbc526e2aeb2236df1c55748da1066c2b',
    (2, 7, 1): '19628d0b593e272be5076f664d1e2f247cfce64b6bd79ac83e41c1677dba758f',
    (2, 8, 1): '88701640451f1df1b9644e43d1c268ca2cafec50e25f18a0a035fb052fac3298',
    (2, 9, 1): '8af9ecf70c0d6fe82f34832964f598590d59cc1cfea01a7bf2460cbe69eb5bf2',
    (2, 10, 1): '71e8d988614a35b2f7b667f15c7855234f64e2a32e41d9c78ea0a58cb27ea89c',
    (2, 11, 1): '7dcd8deb9be450d03f685692ae20d573edae729787383da46bf367aad4e21d4d',
    (2, 12, 1): 'abcc56f2d566a5c0487850c0c7ed50a3b2fbeb6fc7b56af9188ae0f4a85ed58a',
    (2, 13, 1): '4f5890cf64f76d4d75a9f86e42131f99456f45e82240f9ef084ef850ec891f9d',
    (2, 14, 1): '2800b1d4e41516daa32cfd946efde322bed9a7c94d6d0c6fc4bc9000d5ae3b8a',
    (2, 15, 1): '6bf0abd25295a600ca44aee5a8594c95fe6a99dabba77e805de45a59e10b5ac9',
    (3, 0, 1): '2a08209bc50eaabe75268c52db9afd4f89bff995f14ad81f23e873723b5a90bd',
    (3, 1, 1): 'c265d0dadb38f7ef9da0292403d0d12669f2db19ba9408ceff519da6e5df30b4',
    (3, 2, 1): '156806f25113c6acd2c24143f93a0ed50cbfc29eb7bd1eb1599c3162aac915f2',
    (3, 3, 1): 'e83f524e1b5e24246aaeafaff118ccd8159381b377ca0a171872934b52cdb7a5',
    (3, 4, 1): 'de069f2a77ddbb8262045459af3d986f0019549e312226bdcd1135c488a48853',
    (3, 5, 1): 'ce7683870236242835a73c4aa0b4ea4598fb9d07eaba1e99d9561131ada3e00e',
    (3, 6, 1): '12621c6ae3215ed137b938f1cf829abbc08755cfcb11104b52c222977b2c1180',
    (3, 7, 1): 'c1a3d487e8f0e6ed5905e71e83d8b2e75a95368c176afeced517f9ae95e33799',
    (3, 8, 1): '60c1faf74f80b1209e610d28a638405b5ecb2307b303ce889471c85481cf7d9e',
    (3, 9, 1): '56e0af4a71c7e3854716f50a0d4e1b92153f5b2cd49cd233f8b660eea15650fe',
    (3, 10, 1): 'ec148261f0c3e10bb69c60738441ffec533c7b23238d937c29350d8c4ca39e87',
    (3, 11, 1): '80bf3ba2747fd433b0d11ea565ee638ca638d54baf17e81c899d6b83e0b669b2',
    (3, 12, 1): 'b04f922f3d48c017a1d2ce7928244e6a879382ca223ba8641ff3e5d39707e5f8',
    (3, 13, 1): 'a0dc605413785e6b3261fcb54276785e6cf0174e32728a7ad665386052d54444',
    (4, 0, 1): 'eb9c5c0159141e722d7ed18bed993e946d6304e1af3d423f39677df96fa1da94',
    (4, 1, 1): 'f2bff93a8b466e132c8b22c635ad56be60b9d1ae8098c66a687ddc0f31bae6f9',
    (4, 2, 1): '2e6ef943af0089a97766393356dec37f6e554bf580c34c850cde63d9896caa12',
    (4, 3, 1): 'ce6ac7cb818933275be38ef1344f0813c13f9d59f4e248dd91b914f38a1d5036',
    (4, 4, 1): '9a7f21a943137646bbe03e38217b90491b395be001174ed70f17e0f5d000875f',
    (4, 5, 1): '6a459fc75828dd8778beb3ef278ddd693c74e49ab7862d3155192ab9ed805f9e',
    (4, 6, 1): '4dd1127e360ea3d0d9844518968fe4518dce797ee416915db7b5d8264159571f',
    (4, 7, 1): 'af4b3b5cd1c4826e1eb85bc6521a029fc5f9baf24e03a924052d912f3b13bd93',
    (4, 8, 1): '76adcd5c8f1b7e76f9f71b63bac1acdc574e54a27fb8e130d46960e1a6a78fb0',
    (4, 9, 1): 'e85ccb4a46e3cf2c49275255d9fd486d7d7e507fd5b906f4d6997820d2ca09d6',
    (4, 10, 1): '31f451268db87d65be279e8bde379729af10c32bc8c240e0a4f15bfccfbd2f5c',
    (4, 11, 1): '4ad4f9764cc6ea2a46a58b93e8761a07b203d56e900db1fa3050cd2e2f1a92c6',
    (5, 0, 1): 'dd1eb441218b954a992d4b9f2d99b70b0c51c18c1ef4f8030b11b011659ef452',
    (5, 1, 1): '4914cae5b6148b65989a8f4ad8e442b31f2930d89e1fac00b01d1a2c899285d6',
    (5, 2, 1): '7051a0f0035ed3ee29ed22725b8ec105c8e64d207eedf221babf87f674c05656',
    (5, 3, 1): '3c04f98c0695937ceb43b9efa031a6de7e6a6ae289c06096a4692afeb3343e3c',
    (5, 4, 1): '99a076a8a3934409f71cea8fc76cbd3816dd526912654506a83aa3f7a0d9322a',
    (5, 5, 1): '9fad9beb6f555f1a8bb08a0f5fff80755e28b518587052bb449699f1b0489b4c',
    (5, 6, 1): '7a74063c82b6ba4ba007ffe5099f6bcf2295517c1d8c948bccfb00a6acb47a0a',
    (5, 7, 1): '1bb480be5b6023b5dc6738cafec6a7f87ab9a0dfb92284bd3046a9a31c1c3c3f',
    (5, 8, 1): '94b1027f2a7f694fee498586042a53cb25302dd10e66d62693acc91386a860de',
    (5, 9, 1): '7fc3d864e322a17d920e23ecc3cf10885db4a172fd56be5e719e44e272e1ade2',
    (6, 0, 1): '097509bcb45a422721e6906854d6794dced5ac755ea8d0438e49fc71dc1dec86',
    (6, 1, 1): 'af9925130e5acae7800a661ebde09ba6249e01120f9d7be701ea9ed2db938184',
    (6, 2, 1): 'b81c1de5647201c17d237c9a03989d28bfc3fcb740577394ef69ef8744c1bc09',
    (6, 3, 1): 'bcc5c2a97793500e23922c31fb76fcd71106b99b0bfad0bb6023bfd51c3271bd',
    (6, 4, 1): '9c3253171d899d8958d4ac9a47c086eb8c9dd212e05796f61cc23cac12c1ab2d',
    (6, 5, 1): 'cf5f85699d34a741c6533492e38659f138f5dd449f81a3b53e7e7529f94cc332',
    (6, 6, 1): 'da50eb8a907e98ced5d00a90c0676bb8abfd4ca216e749a5f538af71eefa02f4',
    (6, 7, 1): 'a2a22e3388627528ebcf6dbb2028a6c4e9e7d3107c3ddbd4dd997239ab0a159d',
    (7, 0, 1): 'e0a3cb498de18b66d2ceb0f3be53175f191f37a504425a6afca0683426f34169',
    (7, 1, 1): 'cafe5796b1e108173b692a4a7fbe04c22055a7c90fd05992057be4ca046b3f95',
    (7, 2, 1): 'e5e0580091543fae94c907444271e554c87f4b92e61f6a0d3974c2e88f8d601d',
    (7, 3, 1): 'bbdd2da809bc68571a4c4717ed198b757193c6315f38d4d768813f537c61f37a',
    (7, 4, 1): '458a0747a748765f1e7b09d12b7525b7322f0bfe999f98bf9a739f393e43840a',
    (7, 5, 1): '2bf819bea4cb13068c96670f597f9c45b5ecc39ae4675526620d5f19594dfb88',
    (8, 0, 1): 'c0594b13bf2ae3be6829daed1b5d43e00eb6528574175fb0db1617a7e1e6c377',
    (8, 1, 1): 'ea182921f8579a0a21a575361d790bdd1ce886348be2a7583724b118f7a5b2e6',
    (8, 2, 1): '4d3a820db728a1c41f0b67deac946cb868cf9d47e1f8ab9241a89fa976b881ca',
    (8, 3, 1): '52a2e932e7504a75bdadc2b9155a6f44acb6747482c81d1c4361b664af1c7702',
    (9, 0, 1): '93f63af60cd9eb45d530efeaa4ba8982c48d4cf54d9689477eed865123cd681f',
    (9, 1, 1): 'c306eac97e0dad9d8d56ebe0a13d70b0d31f73f15a2ff066b0d0eb87903fd6c8',
    (1, 0, 2): 'd5697c8dc6f0b3f183daab6c6a53d997c23b87a80886be9442e16874be28d1fb',
    (1, 1, 2): '6703618019ebde6a0f778cc7fbac21f5a58d54eb4e2d9eb01cfb3fed0f661fe3',
    (1, 2, 2): '0519f6f826a16147b626d86b5e47c56d55fdcc806d9db9bd03228e3f5431f102',
    (1, 3, 2): '7cd3597b5ae3161c55c05fd427729af60b9e0c09b8b86e6dadba7917bc530cf3',
    (1, 4, 2): 'ee7425e872c7e49522fe05984c774037ad28afef1208a30f7f9aacb0d4106a2c',
    (1, 5, 2): '5b31086267a3a4e440c34c7add3d6e4cb2c9d80460041c7bc7fb46b5ebb3527c',
    (1, 6, 2): 'ba5ce599fda2dfc8c938f92c430a6b5fecccbdee6fa7d9eadaaa89e1487054cb',
    (1, 7, 2): '2ca0001f2a7af8e58f15cdc3278dcee6804353ebe2abd25ec458a1903e04f11b',
    (2, 0, 2): '66095fa0a1e656a0804d02278165de2bfe668eb53f0f5648a53889f25e25e38c',
    (2, 1, 2): '853e4739afe9f7492c087a518863f59aff23cfab454cd4498fe97e4fc4fb53b8',
    (2, 2, 2): '19450952ba3c8f2de849df9e2f6973951f6b88e22a95a2f36b62a6bbb56e18bb',
    (2, 3, 2): 'a3964a103f9fb7cf5ea46f14720f6043965930068c2aae45a9e28e8e28307c40',
    (2, 4, 2): 'ccfa6812dba46cd694acb7d97f68f18202e0cacfe87e6d3e32cda37296be6f4f',
    (2, 5, 2): 'e1c1cbd52c15627cbbee34987834085fda48cf4202a0a1321b355891bd8a2586',
    (3, 0, 2): 'dfdc15259a93c2e9fca3ed18541348d3ad2a1a7dd7ffc91e555087805f8b21a4',
    (3, 1, 2): 'b77d2fe838144baa445010b44f98f25116e67c5385f9be1abe8d75819d17de68',
    (3, 2, 2): '8d5944e5d26b805988c9a3081ea689c8cec08a22defc74cf1fe2dcc767ea3271',
    (3, 3, 2): '42276b984e20ef7cc79b0bd708f99a590f8ac3988dc4e63657a93c39927c4dd9',
    (4, 0, 2): 'e23921d0a0246c0d54878110b854febf8897be61c3f8e4a4f4aaf6c13e4e1323',
    (4, 1, 2): '507b3ce345c823d63f7e623c6c192ba3df1913fa5c55b8517f2a0f6db9348f64',
    (1, 0, 3): '0454937d48afac069816c5f8dedd14810e8203cf74be1ef3c09dcd73752c5852',
    (1, 1, 3): '31cd0fd358e8cca09a5ebd2702940f421b00bce1e2e01706b642f80085790e77',
    (1, 2, 3): '8d159113038d36ce018f7f6b3224e4f270437df58995cce265433cfd996264d0',
    (1, 3, 3): 'ddc4f57a5af64c46e6c683eba05c5e2f1245eb10240a7e244614f5720fb2ad78',
    (2, 0, 3): '205a0a3991bd59efca44d1b1f280a9f6986f9eeeb8df142c21f2395b5e85e29a',
    (2, 1, 3): '1d8a7d4d5308f49005b435e78a43dc8068c79ff53e8161698608054693649edc',
    (1, 0, 4): '950891dfad5ab6cfd294a7c04d91e1da17796d137934855131c27384f8254318',
    (1, 1, 4): 'f6ba0b58e21513045370c4e357f5fc334298ea0bf483714e4107339f2b1d0246',
    (1, 2, 4): '199b52ed3a8e9b48cf2f3fd313920732b747fb60f6d378f378894b031a4c0373',
    (2, 0, 4): '1e14cafa3338f6f98cb0f7ebb5777ce0a989913d6d1f816f57f5b91568fd37af',
    (1, 0, 5): '0a34fc5bfd542c5a05a57cf4385a87ffc8a0ef515c71fe989ece534b8f26b23a',
    (1, 1, 5): '213dfb3a57653f1d7f0d7f0c3cc0fe32f67feaa11e05666e97628a8998b0cc71',
    (1, 0, 6): '5c0fb5e3e16d1c7f1d06088b2fce1fa26d44a0771aa4cd001e8c953ef1a81f64',
}


def _gdb_grid(max_len):
    grid = []
    for p in range(1, 11):
        if 4**p > 1 << 20:
            break
        for k in range(1, 11):
            for l in range(0, 40):
                if p * (2 * k + l + 1) > 62:
                    break
                params = GdBParams(k, l, p)
                if params.length > max_len:
                    break
                grid.append(params)
            if p * (2 * k + 1) > math.log2(max_len):
                break
    return grid


@pytest.fixture(scope="module")
def corpus():
    return _random_corpus()


@pytest.fixture(scope="module")
def compressed(corpus):
    """Run-to-end Re-Pair and Greedy over the whole corpus, timed."""
    t0 = time.monotonic()
    out = {}
    for name, text in corpus:
        out[name] = (text, repair_run(text), greedy_run(text))
    return out, time.monotonic() - t0


@pytest.fixture(scope="module")
def gdb_words():
    words = {}
    for params in _gdb_grid(1 << 16):
        words[(params.k, params.l, params.p)] = (params, generalized_word(params))
    return words


# -- criterion 1: parsing bound suite --------------------------------------------------


def test_criterion_01_parsing_bound_suite(corpus, compressed):
    runs, build_seconds = compressed
    t0 = time.monotonic()
    checked = 0
    for name, text in corpus:
        _, (g_r, _), (g_g, _) = runs[name]
        parsings = [lz78_parse(text), lz77_parse_nonself(text),
                    start_parsing(g_r, text), start_parsing(g_g, text)]
        parsings += [best_offset_parsing(text, l) for l in (2, 4, 8) if l <= len(text)]
        n = len(text)
        logsig = math.log2(text.sigma)
        hk = {k: empirical_entropy(text, k)[0] for k in K_RANGE}
        for parsing in parsings:
            y_h0 = parsing.entropy_bits()
            l_h0 = parsing.lengths_entropy_bits()
            for k in K_RANGE:
                rep = parsing_cost(parsing, k)
                assert y_h0 <= rep.k_cost_bits + l_h0 + TOL, (name, k)
                assert rep.k_cost_bits <= hk[k] + len(parsing) * k * logsig + TOL, (
                    name,
                    k,
                )
                checked += 1
    elapsed = time.monotonic() - t0 + build_seconds
    assert elapsed < 300, f"criterion 1 took {elapsed:.1f}s"
    say(1, f"PASS parsing bounds: {checked} (text,parser,k) cells in {elapsed:.1f}s")


# -- criterion 2: mean-of-entropies offset parsing ---------------------------------------


def test_criterion_02_mean_entropy(corpus):
    checked = 0
    for name, text in corpus:
        n = len(text)
        h = [empirical_entropy(text, i)[0] for i in range(8)]
        for l in (2, 4, 8):
            if l > n:
                continue
            parsing = best_offset_parsing(text, l)
            cost = parsing_cost(parsing).cost_bits
            assert cost <= sum(h[:l]) / l + math.log2(n) + TOL, (name, l)
            assert len(parsing) <= math.ceil(n / l) + 1
            checked += 1
    say(2, f"PASS mean-entropy bound on {checked} (text,l) cells")


# -- criterion 3: Huffman sandwich + Elias delta ------------------------------------------


def test_criterion_03_huffman_sandwich(corpus):
    rng = random.Random(SEED + 3)
    checked = 0
    for _ in range(300):
        sigma = rng.choice([2, 4, 16, 300])
        seq = [rng.randrange(sigma) for _ in range(rng.randrange(1, 400))]
        _, _, br = huffman_encode(seq)
        h0 = sequence_entropy_bits(seq)
        assert h0 - 1e-9 <= br.payload_bits <= h0 + len(seq) + 1e-9
        checked += 1
    for name, text in corpus[:40]:
        g, _ = repair_run(text)
        _, _, br = huffman_encode(g.start, g.sigma + len(g.rules))
        h0 = sequence_entropy_bits(g.start)
        assert h0 - 1e-9 <= br.payload_bits <= h0 + len(g.start) + 1e-9
        checked += 1
    say(3, f"PASS Huffman sandwich on {checked} encoding invocations")


def test_criterion_03_elias_delta_corrected_exhaustive():
    bad_literal = []
    for n in range(1, (1 << 20) + 1):
        nbits = n.bit_length()
        ln = nbits + 2 * (nbits.bit_length() - 1)
        corrected = (math.log2(n) + 2 * math.log2(1 + math.log2(n)) + 1) if n > 1 else 1
        assert ln <= corrected + 1e-9, n
        if n < 4096:
            literal = math.log2(n) + 2 * math.log2(math.log2(1 + n)) + 1
            if ln > literal + 1e-9:
                bad_literal.append(n)
    # spot-check the length formula against real encodings
    for n in [1, 2, 3, 17, 255, 256, 65535, 1 << 19, (1 << 20) - 1]:
        s = elias_delta_encode(n)
        assert len(s) == elias_delta_length(n) and elias_delta_decode(s) == n
    say(
        3,
        "PASS Elias delta <= log n + 2 log(1+log n) + 1 for all n <= 2^20 "
        f"(the log log(1+n) variant fails at {bad_literal[:6]}...)",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the often-quoted form log n + 2 log log(1+n) + 1 fails for "
    "standard Elias delta at n = 2, 8, 9, 10, 128, ...; the tight form is "
    "asserted in the companion test",
)
def test_criterion_03_elias_delta_literal_bound():
    for n in range(1, 1 << 12):
        assert elias_delta_length(n) <= math.log2(n) + 2 * math.log2(
            math.log2(1 + n)
        ) + 1 + 1e-9


# -- criterion 4: Re-Pair stop point ----------------------------------------------------


def test_criterion_04_repair_stop_point(corpus, compressed):
    runs, _ = compressed
    rng = random.Random(SEED + 4)
    big = [
        ("big/s2/n70000", Text([rng.randrange(2) for _ in range(70000)], 2)),
        ("big/s2/n100000", Text([rng.randrange(2) for _ in range(100000)], 2)),
    ]
    nontrivial = 0
    for name, text in list(corpus) + big:
        n = len(text)
        thr = repair_threshold(n, text.sigma)
        _, trace = repair_run(text, StopPolicy.working_threshold())
        rep = stop_point_report(trace, text)
        assert rep.all_pass, (name, rep.rows)
        if n > thr:
            nontrivial += 1
            assert trace.stopped_by == "threshold"
            lens = [trace.initial_length] + [s.working_len for s in trace.steps]
            assert lens[-1] < thr and all(x >= thr for x in lens[:-1])
            assert len(trace.steps) <= math.sqrt(n) * log_sigma(n, text.sigma)
        freqs = [s.frequency for s in trace.steps]
        assert all(a >= b for a, b in zip(freqs, freqs[1:]))
    # monotonicity also on every run-to-end trace
    for name, text in corpus:
        freqs = [s.frequency for s in runs[name][1][1].steps]
        assert all(a >= b for a, b in zip(freqs, freqs[1:])), name
    assert nontrivial >= 2
    say(4, f"PASS stop point on {len(corpus) + 2} texts "
           f"({nontrivial} with initial length above the threshold)")


# -- criterion 5: Re-Pair worst case ------------------------------------------------------


def test_criterion_05_repair_worst_case():
    ratios = []
    for n in (64, 256, 1024):
        text = worst_case_family(n)
        size = len(text)  # 4n
        g, trace = repair_run(text)
        assert len(g.rules) == size // 4
        sigma = text.sigma
        expected = tuple(range(sigma, sigma + n)) + tuple(
            range(sigma + n - 1, sigma - 1, -1)
        )
        assert g.start == expected
        assert g.rules == tuple((i, n) for i in range(n))
        _, br = encode(g, "incremental")
        floor = 0.75 * size * math.log2(size) - 6.0 * size
        assert br.total_bits >= floor, (n, br.total_bits, floor)
        h0, _ = empirical_entropy(text, 0)
        assert h0 == pytest.approx(size / 2 * math.log2(size), abs=1e-6)
        ratios.append(br.total_bits / h0)
    assert all(r >= 1.2 for r in ratios)  # 1.5 - o(1), measured below
    say(5, "PASS worst-case family: |S|/4 rules, palindromic start, "
           f"incremental >= 0.75 n log n - 6n; ratios vs |S|H0: "
           + ", ".join(f"{r:.3f}" for r in ratios))


# -- criterion 6: Greedy stop point --------------------------------------------------------


def test_criterion_06_greedy_stop_point(corpus, compressed):
    runs, _ = compressed
    for name, text in corpus[:60]:
        _, trace = greedy_run(text, GreedyPolicy.full_threshold())
        rep = greedy_stop_report(trace, text)
        assert rep.all_pass, (name, rep.rows)
        n = len(text)
        assert len(trace.steps) <= math.sqrt(n) * log_sigma(n, text.sigma) + 3
    ig_checked = 0
    for name, text in corpus:
        _, _, (g, trace) = runs[name]
        size = trace.initial_size
        for step in trace.steps:
            assert step.gain == (step.frequency - 1) * (len(step.substring) - 1) - 1
            size -= step.gain
            assert step.full_size_after == size, name
        res = check_irreducible(g)
        assert res.all_ok, (name, res)
        n = len(text)
        assert metrics(g).rhs_size_full <= 64.0 * n / log_sigma(n, text.sigma)
        ig_checked += 1
    say(6, f"PASS greedy stop + IG1-IG3 + exact gain accounting on {ig_checked} texts")


# -- criterion 7: de Bruijn certificates ------------------------------------------------------


def test_criterion_07_debruijn_certificates():
    grid = _gdb_grid(1 << 20)
    assert len(grid) > 80
    worst_slack = 0.0
    total_len = 0
    assert {(p.k, p.l, p.p) for p in grid} == set(GDB_GRID_WORD_SHA256)
    for params in grid:
        word = generalized_word(params)
        total_len += len(word)
        digest = hashlib.sha256(np.asarray(word.symbols, dtype="<u4").tobytes()).hexdigest()
        assert digest == GDB_GRID_WORD_SHA256[(params.k, params.l, params.p)], (params,)
        cert = verify_gdb(word, params)
        assert cert.db1 and cert.db2 and cert.db3, (params,)
        assert cert.tables_consistent
        assert cert.entropy_cyclic_ok and cert.entropy_linear_ok, (params,)
        assert cert.slack_constant <= 4.0, (params, cert.slack_constant)
        worst_slack = max(worst_slack, cert.slack_constant)

    for word_str, (k, l) in ((EXAMPLE_32, (2, 0)), (EXAMPLE_16, (1, 1))):
        params = GdBParams(k, l, 1)
        cert = verify_gdb(Text.from_string(word_str, 4), params)
        assert cert.all_ok
        for i, per in cert.entropy_cyclic.items():
            target = 2.0 if i < k else 1.0
            assert per == pytest.approx(target, abs=1e-9)
    say(7, f"PASS {len(grid)} grid words (total {total_len} symbols) + both "
           f"reference words; measured entropy slack <= {worst_slack:.3f} (pinned 4)")


# -- criterion 8: lower-bound suite ------------------------------------------------------------


def test_criterion_08_lower_bound_suite(gdb_words):
    checked = 0
    worst_lambda = 0.0
    for (k, l, p), (params, word) in sorted(gdb_words.items()):
        parser_runs = []
        if len(word) <= 1 << 16:
            parser_runs.append(("lz78", lz78_parse(word)))
            parser_runs.append(("lz77ns", lz77_parse_nonself(word)))
            parser_runs.append(("repair", start_parsing(repair_run(word)[0], word)))
        if len(word) <= 1 << 12:
            parser_runs.append(("greedy", start_parsing(greedy_run(word)[0], word)))
        for pname, parsing in parser_runs:
            assert max(parsing.lengths) <= params.z, (k, l, p, pname)
            ok, violations = is_natural_parsing(parsing)
            assert ok, (k, l, p, pname, violations[:5])
            rep = lower_bound_check(word, parsing, params)
            assert rep.measurements["bound_applied"]
            assert rep.all_pass, (k, l, p, pname,
                                  [r for r in rep.rows if not r.passed])
            worst_lambda = max(worst_lambda, rep.measurements["lambda"])
            checked += 1
    assert worst_lambda < 0.54
    assert worst_lambda <= LOG2E / math.e + 1e-9
    say(8, f"PASS lower bounds for {checked} (word,parser) pairs; "
           f"max lambda {worst_lambda:.4f} < 0.54")


# -- criterion 9: round trips --------------------------------------------------------------------


def test_criterion_09_round_trips(corpus, compressed):
    rng = random.Random(SEED + 9)
    for i in range(500):
        sigma = rng.randrange(1, 10)
        n_rules = rng.randrange(0, 12)
        rules = [
            (rng.randrange(sigma + j), rng.randrange(sigma + j))
            for j in range(n_rules)
        ]
        start = [rng.randrange(sigma + n_rules) for _ in range(rng.randrange(1, 16))]
        g = FullGrammar(sigma, start, rules)
        for enc in ENCODINGS:
            g2, _ = from_container(to_container(g, enc))
            if enc == "incremental":
                assert canonicalized(g2) == canonicalized(g), (i, enc)
            else:
                assert g2 == g, (i, enc)
            assert g2.expand_start() == g.expand_start()

    runs, _ = compressed
    enc_checked = 0
    for name, text in corpus[:30]:
        _, (g_r, _), (g_g, _) = runs[name]
        for g in (g_r, g_g):
            for enc in ENCODINGS:
                if enc == "incremental" and not g.is_cnf:
                    continue
                g2, _ = from_container(to_container(g, enc))
                assert g2.expand_start() == text.symbols
                enc_checked += 1

    # expand(start) == input after every compressor iteration
    iter_checked = 0
    for name, text in corpus[:10]:
        def check(g, _text=text):
            assert g.expand_start() == _text.symbols

        repair_run(text, on_step=check)
        greedy_run(text, on_step=check)
        iter_checked += 1
    say(9, f"PASS 500 random grammars x 4 encodings, {enc_checked} compressor-output "
           f"containers, per-iteration identity on {iter_checked} texts")


# -- criterion 10: cyclic entropy sandwich ----------------------------------------------------------


def _sandwich_corpus(corpus, gdb_words):
    texts = list(corpus)
    texts += [("example32", Text.from_string(EXAMPLE_32, 4)),
              ("example16", Text.from_string(EXAMPLE_16, 4)),
              ("worst64", worst_case_family(64))]
    for (k, l, p), (_, word) in sorted(gdb_words.items()):
        if len(word) <= 4096:
            texts.append((f"gdb:{k},{l},{p}", word))
    return texts


def test_criterion_10_cyclic_sandwich_upper(corpus, gdb_words):
    checked = 0
    for name, text in _sandwich_corpus(corpus, gdb_words):
        n = len(text)
        for k in range(0, min(9, n)):
            lin, _ = empirical_entropy(text, k)
            cyc, _ = empirical_entropy(text, k, cyclic=True)
            assert cyc <= lin + k * math.log2(n) + 8.0 * k + 1e-9, (name, k)
            checked += 1
    say(10, f"PASS upper sandwich |S|Hk_cyc <= |S|Hk + k log n + 8k on {checked} cells")


def test_criterion_10_cyclic_sandwich_lower_corrected(corpus, gdb_words):
    checked = 0
    for name, text in _sandwich_corpus(corpus, gdb_words):
        for k in range(0, min(9, len(text))):
            lin, _ = empirical_entropy(text, k)
            cyc, _ = empirical_entropy(text, k, cyclic=True)
            assert lin <= cyc + LOG2E + 1e-9, (name, k)
            checked += 1
    say(10, f"PASS corrected lower sandwich |S|Hk <= |S|Hk_cyc + log2(e) "
            f"on {checked} cells (the bare form fails by at most log2(e))")


@pytest.mark.xfail(
    strict=True,
    reason="|S|Hk <= |S|Hk_cyclic fails under the substring-count "
    "convention the exact cost identities require (counterexample abab at "
    "k=1; generalized de Bruijn words violate it too); the corrected form "
    "with the log2(e) boundary term is asserted in the companion test",
)
def test_criterion_10_cyclic_sandwich_lower_literal(corpus, gdb_words):
    for name, text in _sandwich_corpus(corpus, gdb_words):
        for k in range(0, min(9, len(text))):
            lin, _ = empirical_entropy(text, k)
            cyc, _ = empirical_entropy(text, k, cyclic=True)
            assert lin <= cyc + 1e-9, (name, k)
