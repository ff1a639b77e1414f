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
    "add": ("db2cb78e0ffac581d85b86331e2bed9f4433797b3bdac2851887101d9894c764", 0),
    "append": ("ca5cb0827142f362fd2f8f0f437645f2ee694b9c4427ba67f79a7ccf543c3e14", 0),
    "doublerec": ("a1145cd34397c53e6431d75250f6bb6bf91c4dff8025db9346626fd31817f3c7", 2),
    "even_odd": ("43156cd19d8ee296a23257e3e115d9e181f1baa21a9950866faf10d894550baa", 2),
    "fib": ("e8b1a5efed83fd2ac5dbf3d8880dc0a42d4ac98373bb4523850154b67d10c798", 1),
    "flip": ("f2b497f8aeb1087ebd3d070d41654fdd9b5fd88cb8989cb6fa449b35d8ce3433", 2),
    "grid2": ("e7c485401d1348dc02a7ebc49ad9a45503e66900e03d321539fb9c18a2b6140e", 2),
    "grid3": ("7696898b1206f8f3c570948e4667f7f0e88ccd7ca46bd6e10d34964e6e384fe4", 2),
    "grow": ("73f69ea7585f55647d43084af3f6d9f70975cd170111ab41af036c9e80adfdfe", 2),
    "identity": ("0e3f561dd2e5fc2118cb75877758ed487cc3c8d8f90fcf8ac7c8949dcb2696ed", 2),
    "maxw": ("59a94314b8b7f92507e60b174f079dc5a73396426890c2c7c2157e6d78a28e8b", 2),
    "mult": ("df33cd8d57aa07994d480dd64f508e32f5853fb153574a9034399e7a28ff1ced", 0),
    "norm2rule": ("65acf19e47ed1cd8403e1d7aedc361836b3253532569eb1fc1f228abd5e7c930", 2),
    "norm2rule_nil": ("cb552d9e37c2003a4574f3ee7ef0dab557502ffab7153a0fde0d6d80843ca584", 2),
    "reverse": ("a830b73f3dd89a13b12256a664d3c2727c1f5de9dd86f1f2e6d1c17da5ef443a", 1),
    "running": ("3039247ec687d696129d2a704c45153e277a211d0eca710ce2434a036c17dc64", 2),
    "trip": ("712a459268757d69c0cd481a2c14d761c145679a9db1b552cc199e3abbccb066", 2),
    "twoclass": ("730c2bcef8bb2cbbb88fe3b505343cbb3aa03de0a149bd0d6971ff76792ea7d9", 2),
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
