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

from polytrs.cli import main

from .conftest import CORPUS

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
    "append-1:eval": ("92aac37e4ff057bed9f22e38b6775890522cfc615d6fb73a714a0ad2cca2245f", 0),
    "append-1:memo": ("4fde39669eb9cbff18ee7388dba65cbfa94b4ea0684bff13552ff6f9c6412ecf", 0),
    "append-1:tree": ("52f0627a386ba41155e68ebc7730f13dd0d77f6d32979f872587494bb3121209", 0),
    "append-1:tree-dot": ("0570d57c40233687b9bd07a6b5949e4596a600d8eb785f0cb6d759783fd6788e", 0),
    "append-nested:dag": ("2198254b9ead1968dedfe3af9b3689bb4d1d972f8f6fd4a059ccdd97d1b5f276", 0),
    "append-nested:dag-dot": ("73d92f4823bd43485adccfc327a9518fb03ddf695c4f22f2533255e43df9bd87", 0),
    "append-nested:eval": ("ebfb7aa1d06465484b7d218e7bbcd8dd732226cff22c852cac1b257d2da47e26", 0),
    "append-nested:memo": ("b2cde3dc91d51155e7e80544fd72686338c9e19c1bda6a88c4b629c3262004ee", 0),
    "append-nested:tree": ("a777b128d508904e51c2e2d4d602f929b7cede265173bf11dcd73b9a5135b19c", 0),
    "append-nested:tree-dot": ("062516b103785211a5204ef8ef18a0261aca98716b12c99119a574f92deb9e8f", 0),
    "blind-append:exhaustive-eval": ("4dc142cd05f4d64795e875c5a3c312685f32ceb0dda348c3a6f7e09cfcae66f9", 0),
    "blind-f-short:exhaustive-eval": ("519dfd648a58f9a53431ab022482c15238b5829de5e566cc9d0bf42a4fcbf0be", 0),
    "blind-f:exhaustive-eval": ("ed30afe7d1c54a62d6063fd30a00c3a2266d43e3dbf272ef8315760009be5af7", 0),
    "doublerec:dag": ("530d570130897044acd1c599ce95ce770d32978759c0ea3103ab646b215e04fb", 0),
    "doublerec:dag-dot": ("5c3183e229383884466d0a9d4d9ac10972beeed1a21f310b013540eb5adc2953", 0),
    "doublerec:eval": ("6431d01b57532e8c193c0293458762eb913ec4ba0fb10f71deb64baa553c5d10", 0),
    "doublerec:memo": ("59e82d747b2ff86c3ef990d59627eff84bfce7329a8b5f432f96d594b4d4f4e8", 0),
    "doublerec:tree": ("05d6649ef3ddb02988b9ebb8bcf17d9bfbc9eb473974096078089266967a60cc", 0),
    "doublerec:tree-dot": ("9c36c8c6e3176841a7316cc587196dab40598a9b0880e26d4c9545d2360c31a8", 0),
    "even_odd:dag": ("2193c7f6841ba7ee944815f6b34230140b3e1d9e3e45dbed250cf7ac4a880a74", 0),
    "even_odd:dag-dot": ("bec7c9da2be1a29bef201a0e2f39ccc178c70e964e8b3268ec21be920753a2bb", 0),
    "even_odd:eval": ("f70765c1e300527b41f713b06fbe52f384812dcdf17dc1364f7ce5d53b01aea4", 0),
    "even_odd:memo": ("c00ff3c0f07d2d538bf56f670165cb2adb95aadd3f0a236f1e1178aa7c2ad1fa", 0),
    "even_odd:tree": ("42875897690cc714649e831bcf44ac866d0e863a0a4d2b7fb53337998352dcc9", 0),
    "even_odd:tree-dot": ("bec7c9da2be1a29bef201a0e2f39ccc178c70e964e8b3268ec21be920753a2bb", 0),
    "fib:dag": ("93cf85d2939649aa78ba4a32b6e9aae7f0e01dfc83c2b3cdf2d2118046d7d05b", 0),
    "fib:dag-dot": ("04b17e3145fca7485f5567e07bc61201aea6830140745509c982693d2e09924e", 0),
    "fib:eval": ("23891328c7872cb2b162e36317fea5a69df845d07227bbf6676a615a80566aab", 0),
    "fib:memo": ("d61f09f8b027c1a36c9caaa3f9b42d845eb6d0f58f7a3b3449ca0c6736be47f7", 0),
    "fib:tree": ("dfa25350713c9b03ea7223bcc3c7efe11616fc9a219cbe33cb72db44c9f0ba6a", 0),
    "fib:tree-dot": ("2a85659b955fa69ce4f4056604f5c89ffa7b2f16bc09170214e1eb32c15cd9b0", 0),
    "grid2:dag": ("d07674c1adec950b0508c2a124c79ccdb0cb5fbc4d9e7c84de40f24eaa484743", 0),
    "grid2:dag-dot": ("54f1472f55d19239b86ae73319ccded85a47bca9f6239106f4155a19742019fe", 0),
    "grid2:eval": ("2b2e985b522f19314fd53efc584936cab4f3f708f1929c9da3b1d2f12ff0661b", 0),
    "grid2:memo": ("99bbc3e5184ae11f913ea5106470ad8b092f293db7f861882c92a1668826646f", 0),
    "grid2:tree": ("ec07c2db8aeef3e962107b781e477e04bffd0537583ea6f7d1ef093e25776d17", 0),
    "grid2:tree-dot": ("9d820e713d523a84da04667794c971b31994bc9bd85aaf0ed5bea98a4c9fca71", 0),
    "grid3:dag": ("59d4d92610155a78ce946148dddc7929060e1408e56c5756fe6dd4d448f48c36", 0),
    "grid3:dag-dot": ("a5719011cff88a1d76a04c0dff291b0d8d27fbc575832629c2e9bd504736ead8", 0),
    "grid3:eval": ("2a368cf6e6800a8d401c491dbe108fb1682caa19a0a0cbcfa59a854d532832ca", 0),
    "grid3:memo": ("1878f9bbf9bdb160cd47aba01620dd44843825bb787283ea12376e3ee08d0a44", 0),
    "grid3:tree": ("65fb51f29f64571de3ef2a2753da9294efbb32b0cff040d642e5b0aabf39e0f4", 0),
    "grid3:tree-dot": ("4767c36fc4242c844a15653352af5be978f059d1b45f6d6972cc6578b53dddcf", 0),
    "grow:dag": ("eb09e4018c413efaa0ca823a19eea27691132224f5fcb9d421354db9b168748b", 0),
    "grow:dag-dot": ("5c28d791f9baad95a19fdb7883f810093a33bf72e897550c418f79b5f72a9201", 0),
    "grow:eval": ("654454bc3dcddbf9da95fe527d2b8340e1a65c8e2afa67b84196924865714489", 0),
    "grow:memo": ("6b1cf0872121d2d2b8436cb10634babca2c6dd065d1348d0863f3fbd346151f6", 0),
    "grow:tree": ("87b918a7a7fca20c5ee77e9700228b49a16bb88b4957b05e802b9042a108e16c", 0),
    "grow:tree-dot": ("1c31a0d0ba44b9d11300e3a7e4069370fbe5c3e5240bad92be8892340ce3d011", 0),
    "maxw:dag": ("7291ff4eb8769d3654cc49f4bc36f79a1b6c66dc1a22ef1833eaf42f62c8a3c1", 3),
    "maxw:dag-dot": ("7291ff4eb8769d3654cc49f4bc36f79a1b6c66dc1a22ef1833eaf42f62c8a3c1", 3),
    "maxw:eval": ("8cf748c84c20dd3e4bb7aa7a706cd620ea30c64162a94a27bcf51a2ac61c837e", 0),
    "maxw:exhaustive-eval": ("8cf748c84c20dd3e4bb7aa7a706cd620ea30c64162a94a27bcf51a2ac61c837e", 0),
    "maxw:memo": ("7291ff4eb8769d3654cc49f4bc36f79a1b6c66dc1a22ef1833eaf42f62c8a3c1", 3),
    "maxw:memo-override": ("6f9995bf8cbe641ed87a321812534ab1f11c9317e950016fbbce2382c428bcb7", 0),
    "maxw:seeded-eval": ("8cf748c84c20dd3e4bb7aa7a706cd620ea30c64162a94a27bcf51a2ac61c837e", 0),
    "maxw:tree": ("22b8ebd91836cd4dfd56f20c3a1a5b6b71db8a70f0434faf59cb8dfc0edcfe00", 0),
    "maxw:tree-dot": ("60fae8181eb8f4831007029da5d2199c75f8d18fbac24af1455b4b8cfe2fa112", 0),
    "mult:dag": ("e627c4ab1aac406ff26460ffe31a585d019223ae5e88749763985e6acfa5126e", 0),
    "mult:dag-dot": ("2cd67aa65a45e3f58048938f5dfd406813c16182479972374b7d670afbd65986", 0),
    "mult:eval": ("d2111f458825c4aa8cafe51b3a2a80ce36d34f368ee75e48e176af1ab32f1200", 0),
    "mult:memo": ("09886d4cd942d755f8c5a99eb0f9c8e03838d03665a7564f95979808e93c1db1", 0),
    "mult:tree": ("2959c97caae351a930df02ce3c7537d2d93dc3ad2eecb88521dc2e578a731669", 0),
    "mult:tree-dot": ("5c433c655aa60c6e7730a0157693882aef2cd190db222f1c78529d6e1d098174", 0),
    "norm2rule_nil:dag": ("7291ff4eb8769d3654cc49f4bc36f79a1b6c66dc1a22ef1833eaf42f62c8a3c1", 3),
    "norm2rule_nil:dag-dot": ("7291ff4eb8769d3654cc49f4bc36f79a1b6c66dc1a22ef1833eaf42f62c8a3c1", 3),
    "norm2rule_nil:eval": ("423c679a44a2b79d138c33c304608fffe5cfbe0145de01280e134200f2b2c0c5", 0),
    "norm2rule_nil:memo": ("7291ff4eb8769d3654cc49f4bc36f79a1b6c66dc1a22ef1833eaf42f62c8a3c1", 3),
    "norm2rule_nil:tree": ("75bb9395aaf1b5214917a2a64fbc7bd8bd032e3310ff8ba2523af2fa01bdf31d", 0),
    "norm2rule_nil:tree-dot": ("a74204ffbe2ca1ffa151fed3b2db5ef4bcdb162bf80be5137856b8301be3c53a", 0),
    "reverse:dag": ("d4c74e72fcdfa0adfac5f7f25a58fbb19feb180861dfe0396605c3a9d3cb3a36", 0),
    "reverse:dag-dot": ("4d4a611afa83dc7548277ea814114e12279fc0e52eb86c7b087ff8e1a362d5ab", 0),
    "reverse:eval": ("b0eaad779e16077cdbfe842549a321d610d2a5a181a352c8aa7952b6c60ed5b9", 0),
    "reverse:memo": ("fa2aa4d60c1761534772bdadf8544c8edc25ad69c01e17559adf5d54dccaa218", 0),
    "reverse:tree": ("be6f6a28bae72d24a78fac4b0c5f52ddd194fb8a6869ff257ecb58fe6b3f63a7", 0),
    "reverse:tree-dot": ("4d4a611afa83dc7548277ea814114e12279fc0e52eb86c7b087ff8e1a362d5ab", 0),
    "running-1:dag": ("1b247a07350f64392ddc7c6b9f7a77096186ab88d9580b690977759eef92c322", 0),
    "running-1:dag-dot": ("e469ee29d5755b60ec6f42e63368d8ba359670eafd2fd9a4282584d7cf024e87", 0),
    "running-1:eval": ("666a5e27a1a3eaa2e241e2e12fc59c93a3526fbcae8169b34288e6d2a93cb86e", 0),
    "running-1:memo": ("e48cad2547dcd0675742a0f5cb7bcc71b3b1752243ea51e40a5e068b25cbfa00", 0),
    "running-1:tree": ("785f7a96d895d8670302b60393e4f4f3219beba8869898ac4f459e77458e26e7", 0),
    "running-1:tree-dot": ("215709daac004e15fb9c78f25b3a56a0d73f2725142a77487d30bba3f6f6f592", 0),
    "running-2:dag": ("e64405addd5ad0e17e2f51b5a02adacdafc7e993dbc7c15937f68e875686a30f", 0),
    "running-2:dag-dot": ("ed73bcba14382fb86b07cbb62c4456844d67d4516a20c9ff0b0cb125dfad5ad9", 0),
    "running-2:eval": ("836b513855a9dd37b61554ec0e2b3f61c97f58eb23ff856ff3c2030b6a8e4d52", 0),
    "running-2:memo": ("c83f579bf850208f3b8f108752e5f347eec74460d06fa4a90dce5be34e4d4f1a", 0),
    "running-2:tree": ("d624f4b948eaee72d1e774be7c720e011b11176b2c18aca76a0938c5d2a10743", 0),
    "running-2:tree-dot": ("1d4f2f3578b2618e703f8cfcdb04cf50c0986eed860e22192f30e345576a843d", 0),
    "running-split:dag": ("95463f38ddc48f35e71b4a64a53c92c0f426ed6e8350cb1c864d9e714a2d40af", 0),
    "running-split:dag-dot": ("9bc2a2dbe66cba7dc25e94ab13e83c5a45b4f3c2c0e08eaa4e8e777575a87d78", 0),
    "running-split:eval": ("3cba6002013eef94e91362aa50dd81353944190d8efe453abdd09b0fc8397d68", 0),
    "running-split:memo": ("dc12ed43bad7336239e94e375c37c5143ead490adab93adc71e7c9bb57cd461a", 0),
    "running-split:tree": ("68f63628db6c05cd196553acf6c7834813b11b6da3497e6755231da32d352620", 0),
    "running-split:tree-dot": ("6b2473efaab8838c1567ba761b52fce0e325ace1aa814acf89cee3b3ac526d81", 0),
    "running-stuck:dag": ("ff2e5369f1e0b62e9fc5c6227f1e280596e64e41941d8fb24473683197ac69ef", 3),
    "running-stuck:dag-dot": ("ff2e5369f1e0b62e9fc5c6227f1e280596e64e41941d8fb24473683197ac69ef", 3),
    "running-stuck:eval": ("ff2e5369f1e0b62e9fc5c6227f1e280596e64e41941d8fb24473683197ac69ef", 3),
    "running-stuck:memo": ("ff2e5369f1e0b62e9fc5c6227f1e280596e64e41941d8fb24473683197ac69ef", 3),
    "running-stuck:tree": ("ff2e5369f1e0b62e9fc5c6227f1e280596e64e41941d8fb24473683197ac69ef", 3),
    "running-stuck:tree-dot": ("ff2e5369f1e0b62e9fc5c6227f1e280596e64e41941d8fb24473683197ac69ef", 3),
    "twoclass:dag": ("c673812d7311ce7a54651b6b0f720e8132ff6a8ead774cd0d7859868144f317b", 0),
    "twoclass:dag-dot": ("67612be1ed304fd76b09996254d81d511bbb0743f95e327f4a7ffe01082f9bf7", 0),
    "twoclass:eval": ("5521dc2a74d6ceedca5d633143c0f03c167d181b64d1d292e6450d52f5cefa39", 0),
    "twoclass:memo": ("ccf92d293ea343acec57bb7863b4e481f02ada808621a0f6e25d859de1ffa8e4", 0),
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


# dup(s^12 0) derives each of its 2^12 - 1 repeated calls once and shares
# the subproof; these are the bytes of the unshared tree's encoding
SHARED_TERM = "dup(" + "s " * 12 + "0)"
SHARED_GOLDEN = {
    "eval": ("3648510b294e36da4062284421c99949ba1ace9349848f0c2a741e8b1333e6b4", 0),
    "tree": ("dff8c82dff03b9b4ff70e510e16347c5d4729036976cd015f8c02a27af645a74", 0),
}


@pytest.mark.parametrize("command", sorted(SHARED_GOLDEN))
def test_a_shared_proof_writes_the_bytes_of_its_tree(command, tmp_path):
    out = run(tmp_path, command, str(CORPUS / "doublerec.trs"), SHARED_TERM)
    assert out == SHARED_GOLDEN[command]
