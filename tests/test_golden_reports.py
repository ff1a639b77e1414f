"""Golden digests of the certify reports on the corpus.

For each corpus program, the bytes that ``polytrs --seed 0 [--qi X.qi] --out F
certify X.trs`` writes, and its exit code, are pinned.  Reports hold no file
paths, so the digests do not depend on where the repository is checked out.
A change to evaluation order, memoisation or set iteration that leaks into a
report shows up here.
"""

from __future__ import annotations

import hashlib

import pytest

from polytrs.cli import main

from .conftest import CORPUS, CORPUS_PROGRAMS

# program stem -> (SHA-256 of the report bytes, exit code)
GOLDEN = {
    "add": ("a7e856f2c6f7620f41961675889e9bb5574292e376000193c61cd04021736fd6", 0),
    "append": ("6b7d4bafceb7a02173f6099efb15b2b8c2ea043d347ff3b948031cd9a67b4226", 0),
    "doublerec": ("70d874acc1d3b1521dfb29b00e2808a69666e75f351c9c25123b7b7789fce71f", 2),
    "even_odd": ("9c9f4ad9b421af5ba864f66ba5dfef489bd179d268b90b39a18f463d56bd3f3f", 2),
    "fib": ("c7781da0c5325031acada0a42c8822e66835a15fc663a12224a997a5b1df7b56", 1),
    "flip": ("df90d06b0004645f51338628793cf0c4fbbbf4a428e7344d52c106d099042561", 2),
    "grid2": ("5052ba7e950bd29bfc29cb8d118a3b55dab169c9a841cdcb946243e7fbe902a3", 2),
    "grid3": ("70916f18cf6bc6bb118bb57060c941217c8b21715e95ed88b33039ac98136566", 2),
    "grow": ("7ff4f61788b39b64caed44f76a01c476d4afbd653a83a4abf667fab4a2aa90ed", 2),
    "identity": ("d4990b2bda712d7854bf3f7075a724bfadaccf6966c9975eb82be50519e54122", 2),
    "maxw": ("a4ad78c7394e7bd6d8123035769cdcfe847b03af019b78f1a16ff0100736dbbc", 2),
    "mult": ("85d125cadf752d0a75ac3ce9d79447e78dca68c47fd28296111d2bd77d8d519d", 0),
    "norm2rule": ("a4d99960e24d102361a72fb27e1aa34f66a732fc060bbc719c5e613457d2cb8c", 2),
    "norm2rule_nil": ("70af7922d8de87daa926f626c92e58602080e759bcdc8d3dedad6b573cde26e3", 2),
    "reverse": ("3ebe5178bb554c43a64db9d57a6ba365c87e7a9f325c2c72da213f9b51325232", 1),
    "running": ("cfd4d307d4e75b0ae563b8ee152ffa08df3e65aaf5f56de88ac50f4e09f0a540", 2),
    "trip": ("db16ae0f67021e78e65a1afb7961936c317a2e8565b637da52fe20f6878365b5", 2),
    "twoclass": ("18561c78299e68dae225a15f45602ffeb80485a3a46bed5a5cb439f743d2c5f5", 2),
}


def test_golden_covers_the_corpus():
    assert sorted(GOLDEN) == [name[: -len(".trs")] for name in CORPUS_PROGRAMS]


@pytest.mark.parametrize("stem", sorted(GOLDEN))
def test_certify_report_bytes(stem, tmp_path):
    trs = CORPUS / f"{stem}.trs"
    qi = trs.with_suffix(".qi")
    out = tmp_path / "report.json"
    argv = ["--seed", "0"]
    if qi.exists():
        argv += ["--qi", str(qi)]
    argv += ["--out", str(out), "certify", str(trs)]
    code = main(argv)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert (digest, code) == GOLDEN[stem]
