"""``bench_record.py`` marks a change ``+dirty`` only when a file the runs
measure (``src/``, ``perfbench/``, ``BENCHMARK.json``) differs from HEAD."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "bench_record.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_only_measured_files_mark_a_change_dirty(tmp_path, monkeypatch):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org",
                        *args], cwd=tmp_path, check=True, capture_output=True)

    files = {"src/pkg/mod.py": "x = 1\n", "perfbench/run.py": "pass\n",
             "BENCHMARK.json": "{}\n", "README.md": "notes\n", "BENCH_corpus.json": "{}\n"}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    bench_record = _load()
    monkeypatch.setattr(bench_record, "ROOT", str(tmp_path))
    assert not bench_record.dirty()
    # notes, records and untracked files outside the measured paths
    (tmp_path / "README.md").write_text("edited\n")
    (tmp_path / "BENCH_corpus.json").write_text('{"pairs": 10}\n')
    (tmp_path / "NOTES.md").write_text("untracked\n")
    assert not bench_record.dirty()
    for name in ("src/pkg/mod.py", "perfbench/run.py", "BENCHMARK.json"):
        (tmp_path / name).write_text("edited\n")
        assert bench_record.dirty(), name
        git("checkout", "--", name)
        assert not bench_record.dirty(), name
    (tmp_path / "src/pkg/new.py").write_text("y = 2\n")
    assert bench_record.dirty()
    git("add", "src/pkg/new.py")
    assert bench_record.dirty()
