"""``tools/ab.py``: the byte comparison of canonical reports and the
paired benchmark runs.

The byte comparison runs here on two configs with the working tree on both
sides, where nothing may differ; the line-by-line report of differences
is checked on hand-made outcomes; the corpus is checked for its parts.  One
tiny pair of benchmark runs goes through the working tree on both sides,
and the table of medians, wins and verdicts is checked on hand-made results.
So does one tiny pair of traced runs, whose counters may not differ, and
the marking of differing counters is checked on hand-made results."""

import importlib.util
import json
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
    covers = [f"multiplicative_2^-{k}.{fmt}" for k in (17, 18) for fmt in ("json", "csv")]
    assert [n for n in names if n.startswith("multiplicative_2^-")] == covers
    assert "gamma = 1*2^-17\n" in (tmp_path / "multiplicative_2^-17.cfg").read_text()
    cli = [n for n in names if n.startswith("cli-reports-")]
    assert len(cli) == 800 and len(set(names)) == len(names)
    assert (tmp_path / "cli-reports-s2-000-deep.cfg").read_text().startswith("# seeded deep")


def test_a_tiny_pair_of_the_working_tree(tmp_path, capsys):
    pairs = ab.run_pairs(ROOT / "src", ROOT / "src", "cli-reports", [1], 1, True, tmp_path)
    assert ab.failures(pairs) == []
    for result in pairs[0]:
        assert result["correct"] and result["failed"] == 0
        assert result["metrics"]["ok_frac"]["value"] == 1
    assert (tmp_path / "base" / "perfbench" / "run.py").is_file()
    assert "pair 1/1, seed 1, base then head" in capsys.readouterr().out


def test_the_counts_of_the_working_tree(tmp_path):
    base, head = ab.run_counts(ROOT / "src", ROOT / "src", "bracket-highprec", 1, True,
                               tmp_path)
    assert ab.failures([(base, head)]) == []
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    lines = ab.count_lines(base, head, per_layer)
    calls = [m["name"] for m in per_layer if m["name"].endswith(".calls")]
    assert len(lines) == len(calls) + len(ab.EXACT_COUNTERS) + 2
    assert lines[-1] == f"0 of {len(lines) - 2} counters differ"
    assert not any(line.startswith("*") for line in lines)
    assert any(line.split()[:2] == ["numerics.dir_pow.calls", "0"] for line in lines)
    assert (tmp_path / "head" / ".perfbench" / "trace-bracket-highprec.csv.gz").is_file()


def test_differing_counts_are_marked():
    def traced(**values):
        return {"correct": True, "failed": 0,
                "metrics": {name: {"value": v, "unit": "calls/op"} for name, v in values.items()}}

    metrics = [{"name": n} for n in ("numerics.dir_pow.calls", "numerics.dir_pow.self_s",
                                     "multiplicative.squares", "cli.run.calls")]
    base = traced(**{"numerics.dir_pow.calls": 3.55, "numerics.dir_pow.self_s": 0.1,
                     "multiplicative.squares": 0.0, "cli.run.calls": 1.0})
    head = traced(**{"numerics.dir_pow.calls": 0.55, "numerics.dir_pow.self_s": 0.2,
                     "multiplicative.squares": 0.0})
    lines = ab.count_lines(base, head, metrics)
    assert [line.split() for line in lines[1:]] == [
        ["*", "numerics.dir_pow.calls", "3.55", "0.55"],
        ["multiplicative.squares", "0", "0"],
        ["*", "cli.run.calls", "1", "-"],
        ["2", "of", "3", "counters", "differ"]]
    assert ab.count_lines(base, {"correct": False}, metrics) == []


def result(throughput: float, rss: float, correct: bool = True, failed: int = 0) -> dict:
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"throughput_ops_s": {"value": throughput, "unit": "ops/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


METRICS = [{"name": "throughput_ops_s", "better": "higher", "bound": 0.25},
           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def test_the_summary_of_hand_made_results():
    # throughput: 9 of 10 pairs won, medians 100 -> 120 apart by more than the
    # base's quartile range; RSS: 12 % worse in the median, past its 10 % bound
    base = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
    head = [120.0] * 9 + [90.0]
    pairs = [(result(b, 50.0), result(h, 56.0)) for b, h in zip(base, head)]
    lines = ab.summary(pairs, METRICS)
    assert lines[0].startswith("10 pairs;")
    assert lines[1].split()[:5] == ["throughput_ops_s", "100", "->", "120", "+20.0%"]
    assert "won 9/10  better" in lines[1] and "base 98-102" in lines[1]
    assert "head 90-120" in lines[1]
    assert "won 0/10  worse" in lines[2] and "+12.0%" in lines[2]


def test_a_gain_inside_the_base_spread_is_not_better():
    # every pair won, but the median moves by less than the base's quartile range
    pairs = [(result(b, 50.0), result(b + 1, 50.0)) for b in (90.0, 100.0, 110.0, 120.0)]
    assert ab.verdict([90.0, 100.0, 110.0, 120.0], [91.0, 101.0, 111.0, 121.0],
                      "higher", 0.25) == (4, "same")
    assert "won 4/4  same" in ab.summary(pairs, METRICS)[1]
    # 8 of 10 pairs won is too few, however large the gain, and so are 5 pairs
    assert ab.verdict([100.0] * 10, [200.0] * 8 + [50.0] * 2, "higher", 0.25) == (8, "same")
    assert ab.verdict([100.0] * 5, [200.0] * 5, "higher", 0.25) == (5, "same")
    # lower is better: 10 of 10 pairs won by a clear margin
    assert ab.verdict([10.0, 11.0] * 5, [8.0] * 10, "lower", 0.25) == (10, "better")


def test_failed_runs_are_listed():
    pairs = [(result(1, 1), result(1, 1, correct=False)),
             (result(1, 1, failed=2), {"correct": False, "error": "exit 2: no source"})]
    assert ab.failures(pairs) == ["pair 1 head: correct False, failed 0",
                                  "pair 2 base: correct True, failed 2",
                                  "pair 2 head: correct False, failed None (exit 2: no source)"]
    assert ab.summary(pairs[1:], METRICS) == [
        "0 pairs; medians base -> head, base Q1-Q3, each side's min-max, pairs won by head, "
        "verdict"]
