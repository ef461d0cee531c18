"""The report bytes of ``zhangforge verify`` on the default corpus are pinned.

Criterion 9 checks that reruns and ``--jobs`` values agree with each other; this
test checks them against recorded SHA-256 digests, so a kernel change that moved
the bytes the same way in every run would still be caught.  A change that
alters the report on purpose records the new digests in
``tests/data/report_digest.json`` and says which rows changed.
"""

import hashlib
import json
from pathlib import Path

from zhangforge.cli import main

DIGESTS = Path(__file__).resolve().parent / "data" / "report_digest.json"


def test_default_corpus_report_bytes(tmp_path, capsys):
    main(["verify", "--out", str(tmp_path)])
    capsys.readouterr()
    expected = json.loads(DIGESTS.read_text())
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in expected
    }
    assert got == expected
