"""Golden-output guard: the exact bytes every CLI subcommand prints on
the committed fixtures, and the golden-examples selftest report.

Refactors of the exact layers must leave these outputs byte-identical;
a digest that changes here is a change of behaviour, to be made on
purpose.
"""

import hashlib
import json
from pathlib import Path

import pytest

from meroconn.cli import main
from meroconn.selftest import criterion_golden_examples

DATA = Path(__file__).parent / "data"

CLI_DIGESTS = [
    ("canonical-form --input conn_gl2.json --trunc 12",
     "07cc1cd5020099cca58df5526be0024143cc4f1533c3b80e3bf2dbf8059a6d9d"),
    ("canonical-form --input conn_wall.json --weight weight_wall.json --trunc 8",
     "86d6f05d984117cd00e30556fe53d75ed1a52e77a8b9ec3bb7a59bb6bcc83920"),
    ("antistokes --irregular-type q_gl2.json",
     "511eaa30bef06bf47b9824e41f57cb5c803179fb6309e5b646f1cdbc065b9987"),
    ("antistokes --irregular-type q_gl3.json",
     "43c2cb291a9fcfb9d2ed926c0fe40e867a455793078739c8903ceea7e63c8977"),
    ("stokes-dim --irregular-type q_gl2.json",
     "6e1dd4a093cbfe1d1721d79acbe1f54c8dbfc6e1072933bc7224916ddf8f7fa7"),
    ("stokes-dim --irregular-type q_gl3.json",
     "bb746739e276bb4468ef781c8b486d7c6bcd0d21d9ca05dc8cc245baa42bf9d2"),
    ("translate --to dol --input local_nilpotent.json",
     "ca57f1a24649d567f76249b4a6f145221e4456af514687d53e4f6e9ccdeaec62"),
    ("translate --to dol --input local_semisimple.json",
     "bdc80e6dd8cfa32c1368276e63c6c5228eab1d33ecfa46ec626d5a83b520f9db"),
    ("translate --to betti --input local_nilpotent.json",
     "b2871dd9819d584cc85dd8ab9edf26a4b3745b74cb85b411ce988907eaebaf7f"),
    ("translate --to betti --input local_semisimple.json",
     "98c931c8b319631f6f37ffdd3f337f602e6a394d03e27edc560760a697659014"),
    ("translate --to betti --input local_complex.json",
     "62f5e565c1e3a046b19cc7ee78ecc1fc697331efd8d89ee0f61939713177824e"),
    ("check-relation --rep rep_gl2.json",
     "5ddc65fa9977905b1510a2e2d0dccc6dbf29e9f9383aa8330b10545aefcff15c"),
    ("stability --rep rep_gl2.json --weights weights_zero.json",
     "c61814b968a91d767649fa4dfb59d025322bb34433a833eb121cdc5428628986"),
    ("stability --rep rep_gl2.json --weights weights_traceless.json",
     "c61814b968a91d767649fa4dfb59d025322bb34433a833eb121cdc5428628986"),
    ("stability --rep rep_gl3_diag.json --weights weights_gl3_zero.json",
     "1a15f5378db7f572737a8fee2a2f76ad9632553e094dd63402d44afe85b28a5f"),
    ("stability --rep rep_gl3_diag.json --weights weights_gl3_one.json",
     "ad87bf8558da532addb77c9edede968e9561a0514a483a2112df6846b2e20de0"),
    ("verify-metric --input local_nilpotent.json",
     "b694209145a302a2be7c46034ae0a07f45efa948c5b7286d7dd6960c7a70884b"),
    ("verify-metric --input local_semisimple.json",
     "b694209145a302a2be7c46034ae0a07f45efa948c5b7286d7dd6960c7a70884b"),
    ("verify-metric --input local_nilpotent.json --numeric",
     "fe2785c0f1a8d7c8727132174262fd280d82fe3345860e8e523e2213508be91a"),
    ("verify-metric --input local_semisimple.json --numeric",
     "2c41983a38bb02fe20d89b7d30220351e83393082fde7d63e1dbff978407bc26"),
    ("oracle-monodromy --b 1/3 --steps 512 --precision 64",
     "3643fd1cba37cd5141eed383840ed38189dbd0d54a924cb37baff86e057c7a07"),
    ("oracle-monodromy --b 1/3 --irregular-type q_gl1.json --steps 512 --precision 64",
     "3643fd1cba37cd5141eed383840ed38189dbd0d54a924cb37baff86e057c7a07"),
    ("oracle-monodromy --b=-5/6 --irregular-type q_gl1_two_terms.json --steps 1024 --precision 64",
     "c100b21232bee89a798dde148002a073032f877622fb1adf62231b3b67f55300"),
]

# rows whose command reports a violation: a verdict other than "stable"
EXIT_VIOLATION_ROWS = {
    "stability --rep rep_gl3_diag.json --weights weights_gl3_zero.json",
    "stability --rep rep_gl3_diag.json --weights weights_gl3_one.json",
}

GOLDEN_EXAMPLES_DIGEST = "fb5e8bdce8979a697c52fbf8dd64e1fc616e5e88147284d482c06781e9ccf3e7"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command, digest", CLI_DIGESTS)
def test_cli_fixture_output_is_pinned(capsys, command, digest):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in command.split()]
    assert main(argv) == (1 if command in EXIT_VIOLATION_ROWS else 0)
    assert _sha256(capsys.readouterr().out) == digest


def test_golden_examples_report_is_pinned():
    report = criterion_golden_examples(42)
    assert report["cases"] == 45 and report["passed"], report
    assert _sha256(json.dumps(report, sort_keys=True)) == GOLDEN_EXAMPLES_DIGEST
