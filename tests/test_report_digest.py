"""The report bytes of ``zhangforge verify`` on the default corpus are pinned.

Criterion 9 checks that reruns and ``--jobs`` values agree with each other; this
test checks them against recorded SHA-256 digests, so a kernel change that moved
the bytes the same way in every run would still be caught.  A change that
alters the report on purpose records the new digests in
``tests/data/report_digest.json`` with

    PYTHONPATH=src python tests/test_report_digest.py

and says which rows changed.
"""

import hashlib
import json
import tempfile
from pathlib import Path

from zhangforge.cli import main

DIGESTS = Path(__file__).resolve().parent / "data" / "report_digest.json"


def digests(out_dir: Path) -> dict:
    """SHA-256 of each report file that ``zhangforge verify --out out_dir`` writes."""
    main(["verify", "--out", str(out_dir)])
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ("report.csv", "report.json")}


def test_default_corpus_report_bytes(tmp_path, capsys):
    got = digests(tmp_path)
    capsys.readouterr()
    assert got == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        DIGESTS.write_text(json.dumps(digests(Path(out)), indent=2, sort_keys=True) + "\n")
