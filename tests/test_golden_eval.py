"""Golden digests of the evaluation commands on fixed corpus terms.

For each (program, term) case, the bytes that ``polytrs --seed 0 [--format
dot] [--policy P] --out F CMD X.trs TERM`` writes, and its exit code, are
pinned for ``eval``, ``memo``, ``tree`` and ``dag``.  The cases cover Split
and Constructor nesting in the input term, memo Read links, a non-confluent
program whose memo run is refused, stuck terms, and the exhaustive policy on
maxw and on the blind image of running.trs.  That policy prints the
worst-cost derivation rebuilt from the outcome table; on these four terms it
is also the first derivation in rule-choice order, so their digests predate
the rebuild.  Any change to the proof shape, the JSON
layout, the call-structure node order or the edge labels shows up here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from polytrs.base import Budget
from polytrs.callgraph import call_tree
from polytrs.cli import main
from polytrs.parser import parse_term
from polytrs.semantics import eval_cbv, validate_proof

from .conftest import CORPUS, load, symbols_of
from .reference import proof_from_json

TERMS = {
    "running-1": ("running", "f(s0 s1 nil)"),
    "running-2": ("running", "f(s0 s0 s1 s0 nil)"),
    "running-stuck": ("running", "f(s0 nil)"),
    "running-split": ("running", "append(f(s0 s1 nil), s0 f(s1 nil))"),
    "append-1": ("append", "append(s0 s1 s0 nil, s1 nil)"),
    "append-nested": ("append", "s1 append(append(s0 nil, s1 nil), nil)"),
    "doublerec": ("doublerec", "dup(s s s 0)"),
    "fib": ("fib", "f(s s s s 0)"),
    "grid2": ("grid2", "g(s s 0, s s 0)"),
    "grid3": ("grid3", "g3(s s 0, s 0, s s 0)"),
    "twoclass": ("twoclass", "u(s s 0, s 0)"),
    "mult": ("mult", "mult(s s 0, add(s 0, s 0))"),
    "maxw": ("maxw", "maxw(s s 0, s 0)"),
    "even_odd": ("even_odd", "even(s s s 0)"),
    "grow": ("grow", "g(s s s 0)"),
    "reverse": ("reverse", "rev(s0 s1 nil, nil)"),
    "norm2rule_nil": ("norm2rule_nil", "f(s1 s1 s1 s1 nil)"),
}

COMMANDS = {
    "eval": [],
    "memo": [],
    "tree": [],
    "dag": [],
    "tree-dot": ["--format", "dot"],
    "dag-dot": ["--format", "dot"],
}

# case id -> (flags, command, program stem, term); the stem None stands for
# the blind image of running.trs
EXTRA = {
    "maxw:memo-override": (["--allow-nonconfluent-memo"], "memo", "maxw", "maxw(s s 0, s 0)"),
    "maxw:seeded-eval": (["--policy", "seeded"], "eval", "maxw", "maxw(s s 0, s 0)"),
    "maxw:exhaustive-eval": (["--policy", "exhaustive"], "eval", "maxw", "maxw(s s 0, s 0)"),
    "blind-f:exhaustive-eval": (["--policy", "exhaustive"], "eval", None, "bl_f(s s s s 0)"),
    "blind-f-short:exhaustive-eval": (["--policy", "exhaustive"], "eval", None, "bl_f(s 0)"),
    "blind-append:exhaustive-eval": (
        ["--policy", "exhaustive"], "eval", None, "bl_append(s s 0, s 0)"
    ),
}

# case id -> (SHA-256 of the output bytes, exit code)
GOLDEN = {
    "append-1:dag": ("33cad38270a2dab0ac69c4af4bad8ffc05a004410f4ca1c6bd661d6eb9ca8a48", 0),
    "append-1:dag-dot": ("0570d57c40233687b9bd07a6b5949e4596a600d8eb785f0cb6d759783fd6788e", 0),
    "append-1:eval": ("f2660ef4413433856dfafaca930703046e3b3ddccac8446ec08df661c3c1a850", 0),
    "append-1:memo": ("bd24daec212252765241f780c311e9308c59f3337b5740bf117d25a09066d66e", 0),
    "append-1:tree": ("52f0627a386ba41155e68ebc7730f13dd0d77f6d32979f872587494bb3121209", 0),
    "append-1:tree-dot": ("0570d57c40233687b9bd07a6b5949e4596a600d8eb785f0cb6d759783fd6788e", 0),
    "append-nested:dag": ("9986fce761ef347601008f6ad88c8cbe2ea9dd4a7faf1c7c2ae6c4eaec8a4321", 0),
    "append-nested:dag-dot": ("062516b103785211a5204ef8ef18a0261aca98716b12c99119a574f92deb9e8f", 0),
    "append-nested:eval": ("43f6e84337cf78e1f7e587a6c825c5cc2f5a682e22e33d096b4b78bb96105e68", 0),
    "append-nested:memo": ("f0f598c83c555e1aba112ab86168912d1adc50306d355607692970690cad6a32", 0),
    "append-nested:tree": ("a777b128d508904e51c2e2d4d602f929b7cede265173bf11dcd73b9a5135b19c", 0),
    "append-nested:tree-dot": ("062516b103785211a5204ef8ef18a0261aca98716b12c99119a574f92deb9e8f", 0),
    "blind-append:exhaustive-eval": ("60a2fe3407e1a0c714ca7161b3fd4b3e26af9d71d1e0f7bbd3778fd432fdb80f", 0),
    "blind-f-short:exhaustive-eval": ("9c0468d8cb028fae8487a06cf515c81a14e4c4362060cdd9a793dac520d975e2", 0),
    "blind-f:exhaustive-eval": ("912e495138280833e65389dfe5d1731580ffbde79db5fa16e90128c30add2f66", 0),
    "doublerec:dag": ("ce8604841f1dce4868bf2a6ad13a98c1348260e15164eb002e308f8649b299d5", 0),
    "doublerec:dag-dot": ("acfeb3da6f8dbbacfecc8e3b9248fc7f98dbe51f73d36edb4dbe27e2bf72ac61", 0),
    "doublerec:eval": ("666e5074b91ea280576502acf4e7f4d518331c120171dfd7cba3da4b049e363f", 0),
    "doublerec:memo": ("deddd4804da00d357e49fc776e35f37aa8996714ba247a5602ecf2f27e498b86", 0),
    "doublerec:tree": ("d5a5f7b8f0dbaa815a6a8b499f87ac943133d9940840b92f5b32ca3b25355d07", 0),
    "doublerec:tree-dot": ("83437b61de57f0d8beb704011172f07f2f2e41f85472dff34c5194d698e9f6c5", 0),
    "even_odd:dag": ("2193c7f6841ba7ee944815f6b34230140b3e1d9e3e45dbed250cf7ac4a880a74", 0),
    "even_odd:dag-dot": ("bec7c9da2be1a29bef201a0e2f39ccc178c70e964e8b3268ec21be920753a2bb", 0),
    "even_odd:eval": ("eab60b24702c420e00fceefe682a621d722cade693e840b3f799536a18bbf4d3", 0),
    "even_odd:memo": ("38b65ebc898c53411ad936257ee10202a79169c8780384af917cc75b1ae85839", 0),
    "even_odd:tree": ("42875897690cc714649e831bcf44ac866d0e863a0a4d2b7fb53337998352dcc9", 0),
    "even_odd:tree-dot": ("bec7c9da2be1a29bef201a0e2f39ccc178c70e964e8b3268ec21be920753a2bb", 0),
    "fib:dag": ("7b3933a5824a9ad1dd0ce4110d4f7222f15a28ee1c6983f85dd16af69cf788b7", 0),
    "fib:dag-dot": ("899d71a6006b13970452d65ae79cca1965e89b46f7447a6a81520b6dcd014849", 0),
    "fib:eval": ("a28174d1ba89037a655f2d3859bf070a5a2b10370aeef4517acfc636f5ac509a", 0),
    "fib:memo": ("261cb9bc91d080cfc77dc1dca6a1a964acf40da2da5d803f4f46ff5d4b69b4f8", 0),
    "fib:tree": ("a30623c76e8a63876a1b57a34a3f1fa5e9d62caef4a2356fdb5c573403ebe41d", 0),
    "fib:tree-dot": ("234960386d98d403737e68686a91613a01547d9b31302aab24828764225053e3", 0),
    "grid2:dag": ("e19704c2bdcf26c47bb480928ece377eed5920105945fd6cc9c4d04054ecc2a6", 0),
    "grid2:dag-dot": ("6b14a9880b238d6bb0e0f405d446807f93ff8c8e29e7d8c68f2989b61d1c36d0", 0),
    "grid2:eval": ("2555e3fc0779344120a09dbc9d321fc8831cb70b29d2e2250ddd435f9b573c80", 0),
    "grid2:memo": ("18004f89b4a9319be94cad8a93b174fad46733b8ecc1c80dc0265001db96a0e1", 0),
    "grid2:tree": ("33b10e66c21cd527d55c2ae2094c7c929898381ac79f613597017c830d91113c", 0),
    "grid2:tree-dot": ("a238c2d5a31184ebc0425a5fb0b54d74b15c5fa71b989e14edcf0be6e72d5a32", 0),
    "grid3:dag": ("aba75fca9fe5c919dcb6d52905d8de296be3a6f206b810a23b9fef6b314aa186", 0),
    "grid3:dag-dot": ("5f6b645f4d0799b486ffece651fbce301165df858c9281afd8c92f46edd5b6d7", 0),
    "grid3:eval": ("caab0ae47e254a653f8a787489961d27bb104899eb0e7a5ba6ac3b48b437e736", 0),
    "grid3:memo": ("f4be07f709194d877f81dbcbce096768399502532b4897682ddfbb943431cb5f", 0),
    "grid3:tree": ("c75643aa8ff556c7d210639644bec99ea2fe1be912004e7a6661255715408d08", 0),
    "grid3:tree-dot": ("edc701f41c67b91f17d093a7f8cb0cdf009adb4c4aa487a41a72fc107808f916", 0),
    "grow:dag": ("e7c4743a59035ff5adb83cafd687148afc6ea9f34f0ed410a0c033dd23f95b5c", 0),
    "grow:dag-dot": ("b0baaf6071a523761187339d83c00c30d01ce84d841bb289420f74227e0e1394", 0),
    "grow:eval": ("dcb96ae9a6f64c0f2ba6dc6b59533ab80ce5239524dea2879a72eec23e259a8f", 0),
    "grow:memo": ("b89731e05cc34f88c967ff043ad4a9adc825f1f184b5f99f0719882564018ee4", 0),
    "grow:tree": ("7b878b83cf2bc8fcde9e435baaf1162f2990cd37e2f9b611b57e5ea434987a76", 0),
    "grow:tree-dot": ("d1737e70d7067ecb5f14ca5234f2c906638b77ebf16a5e1b9cce7ef2de3f8e98", 0),
    "maxw:dag": ("7291ff4eb8769d3654cc49f4bc36f79a1b6c66dc1a22ef1833eaf42f62c8a3c1", 3),
    "maxw:dag-dot": ("7291ff4eb8769d3654cc49f4bc36f79a1b6c66dc1a22ef1833eaf42f62c8a3c1", 3),
    "maxw:eval": ("3aaa9cdf8948c1b8074cfee7497d344eb3f6dd257e18120d6bb72ef7075171bd", 0),
    "maxw:exhaustive-eval": ("3aaa9cdf8948c1b8074cfee7497d344eb3f6dd257e18120d6bb72ef7075171bd", 0),
    "maxw:memo": ("7291ff4eb8769d3654cc49f4bc36f79a1b6c66dc1a22ef1833eaf42f62c8a3c1", 3),
    "maxw:memo-override": ("58c8c4bc6f4ddbe0b1d0b581ae986c9dd465dfef30ab89cb0412c945474d84f4", 0),
    "maxw:seeded-eval": ("3aaa9cdf8948c1b8074cfee7497d344eb3f6dd257e18120d6bb72ef7075171bd", 0),
    "maxw:tree": ("22b8ebd91836cd4dfd56f20c3a1a5b6b71db8a70f0434faf59cb8dfc0edcfe00", 0),
    "maxw:tree-dot": ("60fae8181eb8f4831007029da5d2199c75f8d18fbac24af1455b4b8cfe2fa112", 0),
    "mult:dag": ("b67fe0166ed7efee64dc9d42f7b70903f74cee4335977373c4cbcb793306e893", 0),
    "mult:dag-dot": ("5c433c655aa60c6e7730a0157693882aef2cd190db222f1c78529d6e1d098174", 0),
    "mult:eval": ("2c1ac216e50eb4195898bfb25b7db20d0f6bd5684e86761d2a84c762aa215035", 0),
    "mult:memo": ("3e79c8f60c97953af34ea704bf4bb4f7242dce9481ff679c1a00eceaeb5f2f4a", 0),
    "mult:tree": ("2959c97caae351a930df02ce3c7537d2d93dc3ad2eecb88521dc2e578a731669", 0),
    "mult:tree-dot": ("5c433c655aa60c6e7730a0157693882aef2cd190db222f1c78529d6e1d098174", 0),
    "norm2rule_nil:dag": ("7291ff4eb8769d3654cc49f4bc36f79a1b6c66dc1a22ef1833eaf42f62c8a3c1", 3),
    "norm2rule_nil:dag-dot": ("7291ff4eb8769d3654cc49f4bc36f79a1b6c66dc1a22ef1833eaf42f62c8a3c1", 3),
    "norm2rule_nil:eval": ("76489f39da8880233a785f7754c82a15170c5dc4a92d4e24a38e486eadd06923", 0),
    "norm2rule_nil:memo": ("7291ff4eb8769d3654cc49f4bc36f79a1b6c66dc1a22ef1833eaf42f62c8a3c1", 3),
    "norm2rule_nil:tree": ("75bb9395aaf1b5214917a2a64fbc7bd8bd032e3310ff8ba2523af2fa01bdf31d", 0),
    "norm2rule_nil:tree-dot": ("a74204ffbe2ca1ffa151fed3b2db5ef4bcdb162bf80be5137856b8301be3c53a", 0),
    "reverse:dag": ("d4c74e72fcdfa0adfac5f7f25a58fbb19feb180861dfe0396605c3a9d3cb3a36", 0),
    "reverse:dag-dot": ("4d4a611afa83dc7548277ea814114e12279fc0e52eb86c7b087ff8e1a362d5ab", 0),
    "reverse:eval": ("4a79e3f4d5b0acc97f97d20de6238b5297b3c64a49e61c91f586afd2ba49a2b5", 0),
    "reverse:memo": ("5ea9fa6b8ce836d74e101b2cbe323b8be9fccdd61f6b93e63e977f66590af142", 0),
    "reverse:tree": ("be6f6a28bae72d24a78fac4b0c5f52ddd194fb8a6869ff257ecb58fe6b3f63a7", 0),
    "reverse:tree-dot": ("4d4a611afa83dc7548277ea814114e12279fc0e52eb86c7b087ff8e1a362d5ab", 0),
    "running-1:dag": ("1b247a07350f64392ddc7c6b9f7a77096186ab88d9580b690977759eef92c322", 0),
    "running-1:dag-dot": ("e469ee29d5755b60ec6f42e63368d8ba359670eafd2fd9a4282584d7cf024e87", 0),
    "running-1:eval": ("7701d066bee2b5967151cac622e005c2b56fc3df50c7fdbed13a70d923d7a48d", 0),
    "running-1:memo": ("f2e1199b81719bb24cc4f87157767ffbb784a4f1810b46f2f03738e6f436b76a", 0),
    "running-1:tree": ("7b51e69f5fdf187181afc915a0c8d64e01577c7c88f9566e9d655879af084c39", 0),
    "running-1:tree-dot": ("b1064e5063bad3f05d4fd6ebb0b0308e4616010bf478bffb7784acc03b134083", 0),
    "running-2:dag": ("e64405addd5ad0e17e2f51b5a02adacdafc7e993dbc7c15937f68e875686a30f", 0),
    "running-2:dag-dot": ("ed73bcba14382fb86b07cbb62c4456844d67d4516a20c9ff0b0cb125dfad5ad9", 0),
    "running-2:eval": ("8602f92e385679b203a53eb4083c166afb2354e2ea21411543148950f13b1c98", 0),
    "running-2:memo": ("6d6231ef96788c91523e736c141ad4a0ab5b4c1cb9635cc6f8ff69db83132f24", 0),
    "running-2:tree": ("a68cca50cee7da79d51cd413a210d4119c07f0b04dd5801440cd5983855797dc", 0),
    "running-2:tree-dot": ("977e35c6f22e37627e42807317ae88c1ae0b8b42a2b267db1d660df68cfbfbac", 0),
    "running-split:dag": ("a9442d9c3ca55d1f976e16e48b382929f78b2375406c558dc712fc3c06962f98", 0),
    "running-split:dag-dot": ("194cf920083d8a774f3bc3e36469b324b69e5b03d8085faeb0134d1dd3f066cb", 0),
    "running-split:eval": ("33d49f6673207475b1e927cd6f5dae38ac83e78889274d9e59b9b02476f0a2e3", 0),
    "running-split:memo": ("28bc1fa0079dc930a685509d96aea34222d8b9d50c760c0082839963fe7f337b", 0),
    "running-split:tree": ("1d2214427366a0c43856bae2388d4e91421796a862b5e234be3ec990322cb5c4", 0),
    "running-split:tree-dot": ("4a8c80b8605d37d446efc41059bd1480693d3efb49ed78d17c57a56e641a28f1", 0),
    "running-stuck:dag": ("ff2e5369f1e0b62e9fc5c6227f1e280596e64e41941d8fb24473683197ac69ef", 3),
    "running-stuck:dag-dot": ("ff2e5369f1e0b62e9fc5c6227f1e280596e64e41941d8fb24473683197ac69ef", 3),
    "running-stuck:eval": ("ff2e5369f1e0b62e9fc5c6227f1e280596e64e41941d8fb24473683197ac69ef", 3),
    "running-stuck:memo": ("ff2e5369f1e0b62e9fc5c6227f1e280596e64e41941d8fb24473683197ac69ef", 3),
    "running-stuck:tree": ("ff2e5369f1e0b62e9fc5c6227f1e280596e64e41941d8fb24473683197ac69ef", 3),
    "running-stuck:tree-dot": ("ff2e5369f1e0b62e9fc5c6227f1e280596e64e41941d8fb24473683197ac69ef", 3),
    "twoclass:dag": ("60ad26585f95f6ed219ea842c5691747c85f18118703352fdf13227fbf358950", 0),
    "twoclass:dag-dot": ("a18f3227247c3385b2ec71858462b9a0a58328e152cd54b2cc060362145ea466", 0),
    "twoclass:eval": ("b935d5e5741e0152cea6771ed754872c8255c5e30d511a42e51f7e7b865cc593", 0),
    "twoclass:memo": ("6c895fe2aff9fc92fe2cce2046a7a6652c41ed9ffc8d8bbdc1a522de9e9f5ee4", 0),
    "twoclass:tree": ("03bb806f587a543d569edba36c691e88789e14c605841676ffcd008dcaf0a4a7", 0),
    "twoclass:tree-dot": ("a18f3227247c3385b2ec71858462b9a0a58328e152cd54b2cc060362145ea466", 0),
}


def run(tmp_path, *argv) -> tuple[str, int]:
    out = tmp_path / "out"
    code = main(["--seed", "0", "--out", str(out), *argv])
    return hashlib.sha256(out.read_bytes()).hexdigest(), code


def blind_running(tmp_path):
    _, code = run(tmp_path, "blind", str(CORPUS / "running.trs"))
    assert code == 0
    path = tmp_path / "blind_running.trs"
    path.write_text(json.loads((tmp_path / "out").read_text())["program"])
    return path


CASES = {
    f"{name}:{label}": (flags, label.split("-")[0], stem, term)
    for name, (stem, term) in TERMS.items()
    for label, flags in COMMANDS.items()
}
CASES.update(EXTRA)


def output_of(case_id, tmp_path):
    flags, cmd, stem, term = CASES[case_id]
    trs = blind_running(tmp_path) if stem is None else CORPUS / f"{stem}.trs"
    return run(tmp_path, *flags, cmd, str(trs), term)


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_eval_output_bytes(case_id, tmp_path):
    assert output_of(case_id, tmp_path) == GOLDEN[case_id]


# dup(s^20 0) has 7 * 2^20 - 4 judgement occurrences in 47 judgement
# objects, and 3 * 2^20 - 2 call occurrences in 23 call nodes; the proof
# and the call tree are written once per object and node
LONG_TERM = "dup(" + "s " * 20 + "0)"


@pytest.mark.parametrize("command", ["eval", "tree"])
def test_a_shared_proof_is_written_once_per_node(command, tmp_path):
    out = tmp_path / "out"
    argv = ["--budget-rules", "10000000", "--out", str(out), command]
    assert main([*argv, str(CORPUS / "doublerec.trs"), LONG_TERM]) == 0
    assert out.stat().st_size < 1_000_000
    data = json.loads(out.read_text())
    program = load("doublerec.trs")
    term = parse_term(LONG_TERM, symbols_of(program))
    proof = next(iter(eval_cbv(program, term, budget=Budget(max_rules=10**7))))
    if command == "tree":
        assert data == call_tree(proof).to_json()
        assert len(data["nodes"]) == 23
        return
    rebuilt = proof_from_json(program, data["proof"])
    validate_proof(program, rebuilt)
    assert len(data["proof"]["nodes"]) == 47
    assert rebuilt.stats == proof.stats
    assert data["stats"] == proof.stats._asdict()
    assert proof.stats.rule_count == 7 * 2**20 - 4
