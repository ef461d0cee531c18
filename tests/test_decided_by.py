"""The exactness ledger: how each checker's rows are decided is pinned.

``tests/data/decided_by.json`` records, per checker, how many rows the
default corpus and criterion 8's 200 random hulls decide by each rule of
``verdict.decide`` (``exact``, ``enclosure``, ``tolerance``), and how many
skip the rule as ``inconclusive``; it also records the corpus rows decided
``exact`` with slack exactly 0, the ties.  The report digest says only that
bytes moved; this test says which checker moved between rules.  A change
that moves rows on purpose records the new ledger with

    PYTHONPATH=src python tests/test_decided_by.py

and says in CHANGES.md which rows moved, naming and justifying any move
towards ``tolerance``.
"""

import json
from pathlib import Path

import pytest

from zhangforge.harness import BodySpec, SuiteConfig, default_corpus, run_suite

LEDGER = Path(__file__).resolve().parent / "data" / "decided_by.json"
RULES = ("exact", "enclosure", "tolerance", "inconclusive")


def criterion_8_bodies() -> list[BodySpec]:
    """The 200 random hulls of ``test_acceptance.test_criterion_8_differential_fuzz``."""
    return [
        BodySpec("random_hull", 2, {"count": 8, "radius": 2, "seed": s}, name=f"f2_{s}")
        for s in range(100)
    ] + [
        BodySpec("random_hull", 3, {"count": 6, "radius": 2, "seed": 100 + s}, name=f"f3_{s}")
        for s in range(100)
    ]


def _rule(row: dict) -> str:
    """The rule that decided the row; a row that skipped it is ``inconclusive``,
    and a hard failure, which no ledger admits, is named as such."""
    context = row["context"]
    if "hard_failure" in context:
        return "hard_failure"
    return context.get("decided_by", "inconclusive")


def ledger(rows: list[dict]) -> dict:
    """Per checker, in id order, the number of rows decided by each rule."""
    out: dict[str, dict[str, int]] = {}
    for row in rows:
        counts = out.setdefault(row["id"], dict.fromkeys(RULES, 0))
        rule = _rule(row)
        counts[rule] = counts.get(rule, 0) + 1
    return dict(sorted(out.items()))


def exact_ties(rows: list[dict]) -> list[list[str]]:
    """The (body, checker) rows decided ``exact`` with slack exactly 0."""
    return sorted([row["body"], row["id"]] for row in rows
                  if _rule(row) == "exact" and row["slack"] == 0)


def measure() -> dict:
    corpus = run_suite(SuiteConfig(bodies=default_corpus(), sweeps=[]))["reports"]
    fuzz = run_suite(SuiteConfig(bodies=criterion_8_bodies(), sweeps=[]), jobs=2)["reports"]
    return {"corpus": ledger(corpus), "criterion_8": ledger(fuzz),
            "corpus_exact_ties": exact_ties(corpus)}


def _diff(want: dict, got: dict) -> list[str]:
    """One line per checker whose counts differ, recorded -> measured."""
    return [f"  {cid}: {want.get(cid)} -> {got.get(cid)}"
            for cid in sorted({*want, *got}) if want.get(cid) != got.get(cid)]


@pytest.fixture(scope="module")
def measured():
    return measure()


@pytest.mark.parametrize("run", ["corpus", "criterion_8"])
def test_each_checker_decides_as_the_ledger_records(run, measured):
    want = json.loads(LEDGER.read_text())[run]
    lines = _diff(want, measured[run])
    assert not lines, f"{run} rows moved between rules (recorded -> measured):\n" + \
        "\n".join(lines)


def test_the_corpus_ties_are_the_recorded_ones(measured):
    want = {tuple(row) for row in json.loads(LEDGER.read_text())["corpus_exact_ties"]}
    got = {tuple(row) for row in measured["corpus_exact_ties"]}
    assert got == want, f"new ties: {sorted(got - want)}; lost ties: {sorted(want - got)}"


def test_the_diff_names_each_moved_checker():
    want = {"a": {"exact": 2, "tolerance": 0}, "b": {"exact": 1, "tolerance": 0}}
    got = {"a": {"exact": 1, "tolerance": 1}, "b": {"exact": 1, "tolerance": 0}}
    assert _diff(want, got) == ["  a: {'exact': 2, 'tolerance': 0} -> "
                                "{'exact': 1, 'tolerance': 1}"]


if __name__ == "__main__":
    LEDGER.write_text(json.dumps(measure(), indent=1, sort_keys=True) + "\n")
