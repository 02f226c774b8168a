"""``tools/ab.py --bytes``: the byte comparison of canonical reports.

The comparison runs here on two configs with the working tree on both
sides, where nothing may differ; the line-by-line report of differences
is checked on hand-made outcomes; the corpus is checked for its parts.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_ab():
    spec = importlib.util.spec_from_file_location("liminfdim_ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = load_ab()


def test_the_working_tree_matches_itself(tmp_path):
    jobs = [ab.job("enumerate_3_81.csv", ROOT / "demos" / "configs" / "enumerate_3_81.cfg",
                    "csv"),
            ab.job("deep_terms.json", ROOT / "tests" / "golden" / "deep_terms.cfg", "json")]
    files, diffs = ab.compare(ROOT / "src", ROOT / "src", jobs, tmp_path)
    assert diffs == []
    assert files == 3  # a report.json each, and enumerate_3_81's levels.csv
    assert (tmp_path / "head" / "enumerate_3_81.csv" / "levels.csv").is_file()


def test_every_kind_of_difference_is_listed(tmp_path):
    outcome = {"code": 0, "stdout": "", "stderr": ""}
    base, head = tmp_path / "base", tmp_path / "head"
    for side, text in ((base, "1"), (head, "2")):
        (side / "job").mkdir(parents=True)
        (side / "job" / "report.json").write_text(text)
        (side / "job" / "same.csv").write_text("x")
    (base / "job" / "levels.csv").write_text("")
    lines = ab.differences(
        (base, {"job": outcome, "gone": outcome}),
        (head, {"job": dict(outcome, code=3, stderr="internal error")}))
    assert lines == [
        "gone: run on one side only",
        "job: code differs: 0 -> 3",
        "job: stderr differs: '' -> 'internal error'",
        "job/levels.csv: written by base only",
        "job/report.json: bytes differ",
    ]


def test_the_corpus_holds_every_part(tmp_path):
    names = [name for name, _ in ab.corpus(tmp_path)]
    configs = [p.stem for p in sorted((ROOT / "demos" / "configs").glob("*.cfg"))
               + sorted((ROOT / "tests" / "golden").glob("*.cfg"))]
    assert names[:2 * len(configs)] == [f"{c}.{fmt}" for c in configs for fmt in ("json", "csv")]
    assert "power13_highprec.prec4096.csv" in names and "power13_highprec.prec8192.csv" in names
    cli = [n for n in names if n.startswith("cli-reports-")]
    assert len(cli) == 800 and len(set(names)) == len(names)
    assert (tmp_path / "cli-reports-s2-000-deep.cfg").read_text().startswith("# seeded deep")
