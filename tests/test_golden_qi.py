"""Golden digests of quasi-interpretation verdicts.

For every corpus program with a ``.qi`` file, and for ``compile_bc(random_bc(s,
4))`` with s in 0..39 (the compiled program under its own assignment, and its
blind image under the transferred one), the SHA-256 of
``json.dumps(check_qi(...).as_dict(), sort_keys=True)`` is pinned.  Obligation
strings, statuses, witnesses and notes all enter the digest, so a change to
normalization, memoisation or sampling that alters any verdict shows up here.

The compiled assignments themselves, ``compile_bc``'s entries, are pinned for all
200 terms of the safe-recursion sweep by one digest of their text.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from polytrs.bc import compile_bc, random_bc
from polytrs.blind import blind_program, transfer_uniform_qi
from polytrs.qi import check_qi, format_assignment, parse_assignment

from .conftest import CORPUS, load

# corpus program stem -> digest of its check_qi verdict under X.qi
CORPUS_GOLDEN = {
    "add": "30a03a6059ec293a796f556605542846a14063e3890f9da59014a04577db3c71",
    "append": "1c78feb304c98e2dcd18ab7d478840fa8292db64ae2f06974489eb4cc9928ae8",
    "fib": "1abe3c68d6d9321131c30361a3cb307c9267ad0cdb64591d9d23332d9eba0f4d",
    "mult": "fa2c5d3f53a594544f74daa76101c79654a9be4d38dcb5ec075ded05323eea5c",
    "running": "cf420c561399bbbd85abcee786ae679d343cd1acc17329d3c32cf50c67b9b6ab",
}

# random_bc(s, 4) -> (compiled program, blind image) verdict digests
BC_GOLDEN = [
    ("baf4c64ad35a360830dae0d3cf56de787fca2c5e3890e43a32aa03985e050085", "2d6b9dc1e9ee6533a053ef7a3a260445c98a88996c6c8eb6ff71f8415a5341f4"),
    ("6b0f401eeb362f6aa26cc4512bc3191246ad67601f35bc3983f44dda01851437", "46634c440fa7047874d004ce9dd4e6ae5172a2caa3ea06c601a1ce43bfbc9d4e"),
    ("0265c843ede031f4a949320b38e0c7ef9a2e429ffa0a19564a96221c55394a20", "0a0a193ebe140c75a26be7a44608367dc43c6421e3e546a4173f947d7e0607b2"),
    ("5ee71a324b65b18c678887650061af488f76f77923ed749edee08c49146c9565", "178867602f3e37d2d042cd092f4bb72d0520ddb42950755d77abc1ad10f537c5"),
    ("224a0c263e43e423be4133af006f49ea3150610a960d7832b5564ffe7fcb3936", "b83f354a8702ae4a8a3e0bcfe0580dc3b8d6db662a7a614ad47b067aab89c3ee"),
    ("1cd3ea49ef3ddb46905146fefe5d0dc4e5a46613dc12cda193edb921d4dafb9e", "8e35afacbde0ee2785d284d4496dff94d810d850f80a46fd4d9e903b2c99e993"),
    ("dacdf008a0f07e4489c63439a2e58bbd2457b10302a5e655ae1a1e8b8cd81a1b", "ffae272b370d2d2e62895d3404da83ab12743e6be450479ad60ae3e8e1823517"),
    ("0196e1461705da4c384a5e75a8aa5e11e91e7dffa516085b92effeb3b1ec95ed", "44032d8d4cb8d776d0cde8ccc69421c556e862c9f98679dd03fff4895b1ff497"),
    ("4663252f90fd10278641b3614f1ac2df42b8374cd28dd6ae9a27e73926f57b1b", "c57716276873e3fadfa314ed0606c4d9d6188c43a478a297094366c296688347"),
    ("65bd9d218789f9a4d91f89694d54a8a48738b8437d51b1e42d89759282065c24", "c15efec92875cba1e9975a52702a0f37d79f7bb3505e14cced0af5d0ce79bd49"),
    ("041e8fa5aa8dbbe3a52fd8a6b0e35310b33de3588537c59f268b32d1391cee4c", "95cb917b3491080a1d4832e7dea8dfb58a72069d6c1555c61f850eccea227a21"),
    ("fd35e6b0d2c89b788711c80df7a3c175457284f7956e347b13a2ee37ae0184e9", "e5fd478f0d8ed66b217f7f3a573b9b06e77e838d83f3a55ef31ee57ae4b9d710"),
    ("aaf07a210484fdae2a412b819d4b7ca032b8dabec9ccb5195de7ce3e863f006a", "5e4b5f0989201a6216ee5f3a2b87f001e2a88772e8d5ea265f78efc91df3e72d"),
    ("10b29f3079bff8e0bf5b0b8121851e52655692c29be542a1f0a2697b97022bdd", "2ef429d11c334ea63cd5d8a97422723edef0b3a1cb43f24600565d078424bc83"),
    ("809dec4a7d81c50a48ae593a4009b7b1e8d325a272ba2e8f8ed0f95fa5643425", "f52ca505a4a2830c53c545230f4b14aa34375434955be8d628ae9dd77df26f20"),
    ("1fb0303eea0cf99a13396fafefb12075836381701cfc748aaa4d97d4ab698624", "16026bf688e23c6bab6c92fb07ba8ac9f3a8cc0d295882486039f901d8d95792"),
    ("7ec2548e20c6c9310f0e94dded68a0c45e81391f76b040debe7dc04acc0ff556", "080556b7a63d61e99c4c3dfc58cd879f0a5900b838216f06dfe563ff20c6e451"),
    ("3e37348130ba22df47e08324955f04f9f7f6af11da73bf398c2c457100bb19de", "cb7112730d7565fe0a38e2a82adfe096cfa2fa93a9395bc8b04ff19f75043c2d"),
    ("145208cae5948f61291cf120a7ecd95a6f16fbbd384cb0ffbe0a0ac54d4e66f8", "b72633467376ac43923be72c36de7d5fdc2c7eeb7c4a6ad22a491eafd500ab98"),
    ("bf6ac9454e0692f1f25b6962395f4582f6288c5b37dc13da10eb1c31b68b37b4", "2f34e8de712974d6df8ce365fa134a8bb23c041c3fc4bc401ed565995117df2a"),
    ("9d98eb0d54558864a1070ae96b6582de5bc290574302343e1451090e71071847", "5158f0d5fb698d91a986e380e0b6b1dd8ef01d019923480d1d586803b3148386"),
    ("626ba7bffb4d7a36adadf95da6da9455dd40f971e380311c53f25d56dc6fde0e", "5c60a99543534c8a7a1eb4497dfaa7a36ebd672ab9a612270fc6d497680b8275"),
    ("35c26c9c4345ea95718604217ca715f2c82ee48c0fe5885524844afaa7335c1f", "984d87221ca11be2e0111b708367d0c2a46d4659623e0d431358c125bf816c02"),
    ("099c59b171b19b54ed0106ba6a2682f6eb7c8efe423ebe26729ce1a32381f54a", "8e3347b7fa48a049bc69457612ea0bc131bbcdea0893024bd1c10350a65e6957"),
    ("6bf837477d0ad8fce02b66c851fb0f6399b5458e58f93148d2758b8e2a3fec49", "02d5e48e6aa71e066245a771e35ae0f3414fd957d81f5378846697d60450327e"),
    ("c9b4941fe332564fa5a301518377de6e6f19f3a36aa02f8b103ea3a77ed0cdb2", "bf093d4551808db32f6d7e0fad5b612a3ff43ecb56b5019d17d5bf694ed4eee9"),
    ("56e3806d0d603851225adad8dae416e61f9fd8141d0ef69f0a984c541910f833", "7b3f33285d9e4118fc089d8f33faeb376f06c7b2cce062f6f48c0bace2e586fc"),
    ("3e37348130ba22df47e08324955f04f9f7f6af11da73bf398c2c457100bb19de", "cb7112730d7565fe0a38e2a82adfe096cfa2fa93a9395bc8b04ff19f75043c2d"),
    ("8ab42c7eb69d050427533eeac391737923ae058d215473c3819fc6200c9e2c12", "9d02544aa9feb12545c4cc02afce7161b4b0660b0de6f29775da4d2c6af4e0bc"),
    ("97a7b4917b12e04c54446dbcbd0b59dfdd7f4038522edd11300cdf9eb694beb5", "b7c8baf5a076f04719276d82a1d7ff3ff32902a12b78f029e5e57caaa11e038c"),
    ("1cd3ea49ef3ddb46905146fefe5d0dc4e5a46613dc12cda193edb921d4dafb9e", "8e35afacbde0ee2785d284d4496dff94d810d850f80a46fd4d9e903b2c99e993"),
    ("0f91b6ed77dc1bfaddebe8f088edd9c02442ec066babc8d852d2566c590fa54e", "a781472cfb1613487cd3ea4b03725e2afbede57fd901ecc5d3673ee97b635283"),
    ("d25b57ec58bb6c45e9111ad99444d66261d2fac70e514d51c4a1eacc76d77b23", "cc059e2cb7df9ea13900909a69c4bf2b0748b06b4034a7bf6c67143dc3b80b6f"),
    ("56e3806d0d603851225adad8dae416e61f9fd8141d0ef69f0a984c541910f833", "7b3f33285d9e4118fc089d8f33faeb376f06c7b2cce062f6f48c0bace2e586fc"),
    ("83c3de8b04992a7c640fd9a3318977d438d01bd36cc77d803494ea52c217b1bf", "67b47444665c9b5537d459da870165ce53112951a158cc48744b5c8c4328230e"),
    ("1cd3ea49ef3ddb46905146fefe5d0dc4e5a46613dc12cda193edb921d4dafb9e", "8e35afacbde0ee2785d284d4496dff94d810d850f80a46fd4d9e903b2c99e993"),
    ("6f6fb2622e8eea497f51687285ef419104d2b951c6bbb3e333e384aa7455ee1e", "d2167c227e45fe1d6401f5c0eec5db01a21182c7be981ceeb134326c00a5ddb0"),
    ("bc94c759e2d1dd4a83d6743e026f18b48e95f2cfba974dfac0346807218738be", "191bb38db4e73d9a595539410bc792fdbfb3075460afa8b6d33f08f31295b913"),
    ("04a6eff2e80b35651d25be155b41bcb6de8ab8627cb4c38cb417f2fe7ee6b710", "2335aa26e6e8605167fe6a47c36b6daa993e723e4b53d79d4652bd89a1fd7287"),
    ("1977067ed2b612630c1494f9caebd548ff26206fc6e5b3cd3809fb0eb6aed9f6", "a2c8a2735948383c91dce77b24aa6523f49c578a36f01f868ce488bad83563bb"),
]

# SHA-256 of format_assignment(compile_bc(random_bc(s, 4)).qi, program) over
# s in 0..199, the texts joined in order of s
ASSIGNMENTS_GOLDEN = "f9ed52bcec4f071e1b484e95eacff7951691e07d2d5da5a441082141bbc37c71"


def _digest(verdict) -> str:
    text = json.dumps(verdict.as_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_corpus_golden_covers_every_qi_file():
    assert sorted(CORPUS_GOLDEN) == sorted(p.stem for p in CORPUS.glob("*.qi"))


@pytest.mark.parametrize("stem", sorted(CORPUS_GOLDEN))
def test_corpus_qi_verdict(stem):
    program = load(f"{stem}.trs")
    assignment = parse_assignment((CORPUS / f"{stem}.qi").read_text(), program)
    assert _digest(check_qi(program, assignment)) == CORPUS_GOLDEN[stem]


@pytest.mark.parametrize("seed", range(len(BC_GOLDEN)))
def test_compiled_bc_qi_verdicts(seed):
    comp = compile_bc(random_bc(seed, 4))
    image = blind_program(comp.program)
    moved = transfer_uniform_qi(comp.qi, comp.program, image)
    got = (_digest(check_qi(comp.program, comp.qi)), _digest(check_qi(image.program, moved)))
    assert got == BC_GOLDEN[seed]


def test_compiled_bc_assignments():
    digest = hashlib.sha256()
    for seed in range(200):
        comp = compile_bc(random_bc(seed, 4))
        digest.update(format_assignment(comp.qi, comp.program).encode())
    assert digest.hexdigest() == ASSIGNMENTS_GOLDEN
