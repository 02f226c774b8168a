"""Byte and speed comparison of the package at two revisions.

    python3 tools/ab.py --base REV --bytes
    python3 tools/ab.py --base REV --workload W --pairs N --seconds S [--first-seed F] [--tiny]
    python3 tools/ab.py --base REV --workload W --counts [--first-seed F] [--tiny]

Both modes export the package source of REV with ``git archive`` (a local
read of the repository: no network, no worktree) into a temporary directory
and compare it with the working tree's.

``--bytes`` runs one fixed corpus of configs through ``liminfdim run
--canonical`` with each side, one Python subprocess per side.  The corpus:

* ``demos/configs/*.cfg`` and ``tests/golden/*.cfg``, each in json and csv;
* ``tests/golden/power13_highprec.cfg`` at ``--prec`` 4096 and 8192;
* multiplicative configs at gamma = 2^-17 and 2^-18, an odd and an even K
  past cli-reports' largest cover (2^-16), in json and csv;
* cli-reports' configs for seeds 1 and 2, built by the benchmark's own
  ``perfbench/cli_reports.config_text`` as its set-up builds them, in csv.

Both sides read the same copies of the configs, from the working tree, and
write under the same relative paths, so a message that names a path reads
the same on both.  Every written file that differs or exists on one side
only is listed, and so is every exit code, stdout and stderr that differs.
The exit status is 0 when nothing differs, 1 when something does, and 2
when REV cannot be exported.  The whole corpus (830 runs) takes about
20 seconds for both sides on a 2-vCPU host.

``--workload`` runs the benchmark's workload W (``perfbench/run.py
--trace 0``) in N pairs of S-second runs, one run per side on seeds F..F+N-1
(F is 1 unless given); the side that runs first alternates from pair to
pair.  Each side runs from its own temporary tree: its ``src`` next to
copies of the working tree's ``perfbench/`` and ``BENCHMARK.json``, so both
run the same benchmark code.  For each end-to-end metric of
``BENCHMARK.json`` it prints both medians, the base's quartiles, each side's
range, the pairs the working tree won, and a verdict: "worse" when the
working tree's median is worse than the base's by more than the metric's
bound, "better" when it is better, won at least nine pairs in ten over ten
or more pairs and the medians differ by more than the base's interquartile
range, and "same" otherwise.  The exit status is 1 when a run is not
``correct`` or has a failed operation, 2 when REV cannot be exported, and 0
otherwise.

``--workload W --counts`` runs W traced instead (``perfbench/run.py --trace
1``), once per side on seed F, from the same temporary trees, the base
first.  A traced run counts over a fixed window of operations, so its
counters repeat exactly for a seed and a package.  It prints, side by side,
every ``.calls`` counter of ``BENCHMARK.json``'s per-layer metrics and the
exact counters ``log_distinct_frac``, ``arcs_built``,
``child_ranges_per_ball`` and ``squares``, each per operation of the
window, with a ``*`` before each one that differs.  The exit status is as
for the paired runs.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
HIGHPREC = ("power13_highprec", (4096, 8192))
# gamma = 2^-K past cli-reports' largest, 2^-16: an odd and an even K
LARGE_COVERS = (17, 18)
CLI_REPORTS_SEEDS = (1, 2)
# a gain needs nine wins in ten over at least this many pairs: two or three
# pairs won by chance are no gain
MIN_PAIRS_FOR_GAIN = 10
# the per-layer metrics of a traced run, besides the ``.calls`` counters,
# that count and so repeat exactly
EXACT_COUNTERS = ("numerics.log_distinct_frac", "level_sets.arcs_built",
                  "cantor.child_ranges_per_ball", "multiplicative.squares")

# Run in each side's subprocess, with that side's ``src`` first on the path:
# reads [name, argv] jobs from stdin, runs each through ``cli.main`` in the
# process, and writes {name: {code, stdout, stderr}} to stdout.
SIDE = """
import contextlib, io, json, sys
from liminfdim.cli import main

results = {}
for name, argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:  # compared like any other outcome
            code = f"{type(exc).__name__}: {exc}"
    results[name] = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
json.dump(results, sys.stdout)
"""


def _cli_reports_configs(seed: int) -> list[tuple[str, str]]:
    """(name, text) of the configs cli-reports' set-up draws for ``seed``."""
    sys.path.insert(0, str(PERFBENCH))  # the workload imports ``common`` by its bare name
    try:
        spec = importlib.util.spec_from_file_location("perfbench_cli_reports",
                                                      PERFBENCH / "cli_reports.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    rng = random.Random(f"cli-reports:{seed}")
    mix = module.MIX
    return [(f"cli-reports-s{seed}-{i:03d}-{mix[i % len(mix)]}",
             module.config_text(mix[i % len(mix)], rng, False, i))
            for i in range(len(mix) * 25)]


def _cover_config(k: int) -> str:
    """A multiplicative config whose cover is that of x*y <= 2**-k, d = 2."""
    return (f"# the dyadic cover of x*y <= 2^-{k}\nsequence = power\nq1 = 4\ngrowth = 4\n"
            f"tau = 1\nd = 2\ndepth = 4\ntasks = analyze,multiplicative\n"
            f"gamma = 1*2^-{k}\nmult_s = 8/5\n")


def corpus(corpus_dir: Path) -> list[tuple[str, list[str]]]:
    """The whole corpus as (job name, ``cli.main`` argv) pairs, its configs
    copied into ``corpus_dir``.  Each job writes to the directory named by
    its job name, relative to the side's working directory."""
    corpus_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    configs = sorted((ROOT / "demos" / "configs").glob("*.cfg"))
    configs += sorted((ROOT / "tests" / "golden").glob("*.cfg"))
    for path in configs:
        shutil.copyfile(path, corpus_dir / path.name)
        for fmt in ("json", "csv"):
            jobs.append(job(f"{path.stem}.{fmt}", corpus_dir / path.name, fmt))
    stem, precs = HIGHPREC
    for prec in precs:
        jobs.append(job(f"{stem}.prec{prec}.csv", corpus_dir / f"{stem}.cfg", "csv",
                         "--prec", str(prec)))
    for k in LARGE_COVERS:
        config = corpus_dir / f"multiplicative_2^-{k}.cfg"
        config.write_text(_cover_config(k), encoding="ascii")
        for fmt in ("json", "csv"):
            jobs.append(job(f"{config.stem}.{fmt}", config, fmt))
    for seed in CLI_REPORTS_SEEDS:
        for name, text in _cli_reports_configs(seed):
            (corpus_dir / f"{name}.cfg").write_text(text, encoding="ascii")
            jobs.append(job(f"{name}.csv", corpus_dir / f"{name}.cfg", "csv"))
    return jobs


def job(name: str, config: Path, fmt: str, *extra: str) -> tuple[str, list[str]]:
    """A corpus entry: the canonical run of ``config`` in ``fmt``, writing
    to the directory ``name``."""
    return name, ["run", str(config), "--canonical", "--format", fmt, "--out", name, *extra]


def export(rev: str, dest: Path) -> Path:
    """Extract the ``src`` tree of ``rev`` under ``dest``; returns its ``src``.
    Raises ValueError when git cannot archive it."""
    proc = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                          capture_output=True)
    if proc.returncode != 0:
        raise ValueError(proc.stderr.decode(errors="replace").strip() or f"cannot export {rev}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def run_side(src: Path, jobs: list[tuple[str, list[str]]], workdir: Path) -> dict:
    """Every job's outcome with the package under ``src``, its files written
    under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", SIDE], input=json.dumps(jobs), cwd=workdir,
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def differences(base: tuple[Path, dict], head: tuple[Path, dict]) -> list[str]:
    """One line per differing file, exit code, stdout and stderr."""
    (base_dir, base_out), (head_dir, head_out) = base, head
    lines = []
    for name in sorted(base_out.keys() | head_out.keys()):
        if name not in base_out or name not in head_out:
            lines.append(f"{name}: run on one side only")
            continue
        for key in ("code", "stdout", "stderr"):
            if base_out[name][key] != head_out[name][key]:
                lines.append(f"{name}: {key} differs: {base_out[name][key]!r} -> "
                             f"{head_out[name][key]!r}")
        files = {p.relative_to(side / name).as_posix()
                 for side in (base_dir, head_dir) if (side / name).is_dir()
                 for p in (side / name).rglob("*") if p.is_file()}
        for rel in sorted(files):
            b, h = base_dir / name / rel, head_dir / name / rel
            if not (b.is_file() and h.is_file()):
                lines.append(f"{name}/{rel}: written by {'base' if b.is_file() else 'head'} only")
            elif b.read_bytes() != h.read_bytes():
                lines.append(f"{name}/{rel}: bytes differ")
    return lines


def compare(base_src: Path, head_src: Path, jobs: list[tuple[str, list[str]]],
            workdir: Path) -> tuple[int, list[str]]:
    """(files compared, differences) of the jobs run with each package."""
    sides = [(workdir / side, run_side(src, jobs, workdir / side))
             for side, src in (("base", base_src), ("head", head_src))]
    files = sum(1 for p in sides[0][0].rglob("*") if p.is_file())
    return files, differences(*sides)


def bench_tree(src: Path, dest: Path) -> Path:
    """``dest`` holding a copy of ``src`` next to copies of the working
    tree's ``perfbench/`` and ``BENCHMARK.json``: a checkout the benchmark
    runs from."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(src, dest / "src", ignore=ignore)
    shutil.copytree(PERFBENCH, dest / "perfbench", ignore=ignore)
    shutil.copyfile(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


def bench_trees(base_src: Path, head_src: Path, workdir: Path) -> dict[str, Path]:
    """The base's and the head's benchmark trees under ``workdir``."""
    return {side: bench_tree(src, workdir / side)
            for side, src in (("base", base_src), ("head", head_src))}


def bench_run(tree: Path, workload: str, seed: int, seconds: int, tiny: bool,
              traced: bool = False) -> dict:
    """One benchmark run from ``tree``, untraced unless ``traced``: the JSON
    object of its last line of output, or ``{"correct": False, "error":
    ...}`` when it printed none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if traced else "0",
            *(["--tiny"] if tiny else [])]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False,
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}


def run_pairs(base_src: Path, head_src: Path, workload: str, seeds: list[int],
              seconds: int, tiny: bool, workdir: Path) -> list[tuple[dict, dict]]:
    """(base, head) results of one pair of runs per seed; the base runs
    first in the first pair, and the first side alternates after that."""
    trees = bench_trees(base_src, head_src, workdir)
    pairs = []
    for i, seed in enumerate(seeds):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        out = {side: bench_run(trees[side], workload, seed, seconds, tiny) for side in order}
        pairs.append((out["base"], out["head"]))
        print(f"# pair {i + 1}/{len(seeds)}, seed {seed}, {' then '.join(order)}: "
              + ", ".join(f"{side} {_headline(out[side])}" for side in ("base", "head")),
              flush=True)
    return pairs


def run_counts(base_src: Path, head_src: Path, workload: str, seed: int, tiny: bool,
               workdir: Path) -> tuple[dict, dict]:
    """(base, head) results of one traced run per side, the base first."""
    trees = bench_trees(base_src, head_src, workdir)
    base, head = (bench_run(trees[side], workload, seed, 1, tiny, traced=True)
                  for side in ("base", "head"))
    return base, head


def count_lines(base: dict, head: dict, metrics: list[dict]) -> list[str]:
    """One line per ``.calls`` counter and exact counter among ``metrics``,
    in their order: both values, a ``*`` first where they differ; then the
    number that differ.  Nothing when a run printed no metrics."""
    if not ("metrics" in base and "metrics" in head):
        return []
    names = [m["name"] for m in metrics
             if m["name"].endswith(".calls") or m["name"] in EXACT_COUNTERS]
    lines = [f"  {'counter, per operation':<45} {'base':>14} {'head':>14}"]
    differ = 0
    for name in names:
        b, h = (r["metrics"].get(name, {}).get("value") for r in (base, head))
        differ += b != h
        lines.append(f"{'*' if b != h else ' '} {name:<45} {_count(b):>14} {_count(h):>14}")
    lines.append(f"{differ} of {len(names)} counters differ")
    return lines


def _count(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.10g}"


def _headline(result: dict) -> str:
    if "metrics" not in result:
        return result.get("error", "no result")
    return f"{result['metrics']['throughput_ops_s']['value']:.4g} ops/s"


def failures(pairs: list[tuple[dict, dict]]) -> list[str]:
    """One line per run that is not correct or has a failed operation."""
    return [f"pair {i + 1} {side}: correct {r.get('correct')}, failed {r.get('failed')}"
            + (f" ({r['error']})" if "error" in r else "")
            for i, pair in enumerate(pairs) for side, r in zip(("base", "head"), pair)
            if not r.get("correct") or r.get("failed", 1) != 0]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(base: list[float], head: list[float], better: str, bound: float) -> tuple[int, str]:
    """(pairs the head won, verdict) for one metric's values per pair."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    b_med, h_med = statistics.median(base), statistics.median(head)
    gain = sign * (h_med - b_med)          # > 0: the head is better
    if gain < 0 and -gain > bound * abs(b_med):
        return wins, "worse"
    q1, q3 = quartiles(base)
    if gain > 0 and len(base) >= MIN_PAIRS_FOR_GAIN and 10 * wins >= 9 * len(base) \
            and gain > q3 - q1:
        return wins, "better"
    return wins, "same"


def summary(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    """The table of medians, spreads, wins and verdicts, one line per metric;
    pairs with a run that printed no metrics are left out."""
    usable = [p for p in pairs if all("metrics" in r for r in p)]
    lines = [f"{len(usable)} pairs; medians base -> head, base Q1-Q3, each side's min-max, "
             "pairs won by head, verdict"]
    for m in metrics if usable else []:
        name = m["name"]
        base = [b["metrics"][name]["value"] for b, _ in usable]
        head = [h["metrics"][name]["value"] for _, h in usable]
        b_med, h_med = statistics.median(base), statistics.median(head)
        change = f"{(h_med - b_med) / b_med:+.1%}" if b_med else "n/a"
        wins, word = verdict(base, head, m["better"], m["bound"])
        q1, q3 = quartiles(base)
        lines.append(f"{name:<17} {b_med:>9.4g} -> {h_med:<9.4g} {change:>7}  "
                     f"base Q {q1:.4g}-{q3:.4g}  base {min(base):.4g}-{max(base):.4g}  "
                     f"head {min(head):.4g}-{max(head):.4g}  won {wins}/{len(usable)}  "
                     f"{word} ({m['better']} is better, bound {m['bound']:.1%})")
    return lines


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, metavar="REV",
                        help="the revision to compare the working tree against")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--bytes", action="store_true",
                      help="compare the canonical reports of the fixed corpus")
    mode.add_argument("--workload", metavar="W",
                      help="compare the benchmark's end-to-end metrics on workload W")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs (default 10)")
    parser.add_argument("--seconds", type=int, default=30, help="seconds per run (default 30)")
    parser.add_argument("--first-seed", type=int, default=1,
                        help="the seed of the first pair; each next pair takes the next seed")
    parser.add_argument("--tiny", action="store_true", help="the workload's tiny inputs")
    parser.add_argument("--counts", action="store_true",
                        help="with --workload: compare the counters of one traced run per side")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be at least 1")
    if args.counts and not args.workload:
        parser.error("--counts needs --workload")
    with tempfile.TemporaryDirectory(prefix="liminfdim-ab-") as tmp:
        work = Path(tmp)
        try:
            base_src = export(args.base, work / "export")
        except ValueError as exc:
            print(f"ab: {exc}", file=sys.stderr)
            return 2
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.counts:
            print(f"{args.workload}: {args.base} (base) against the working tree (head), "
                  f"one traced run each, seed {args.first_seed}"
                  + (", tiny" if args.tiny else ""), flush=True)
            pair = run_counts(base_src, ROOT / "src", args.workload, args.first_seed,
                              args.tiny, work)
            bad = failures([pair])
            for line in count_lines(*pair, spec["per_layer"]) + bad:
                print(line)
            return 1 if bad else 0
        if args.workload:
            seeds = list(range(args.first_seed, args.first_seed + args.pairs))
            print(f"{args.workload}: {args.base} (base) against the working tree (head), "
                  f"{args.pairs} pairs of {args.seconds} s runs, seeds {seeds[0]}-{seeds[-1]}"
                  + (", tiny" if args.tiny else ""), flush=True)
            pairs = run_pairs(base_src, ROOT / "src", args.workload, seeds, args.seconds,
                              args.tiny, work)
            bad = failures(pairs)
            for line in summary(pairs, spec["end_to_end"]) + bad:
                print(line)
            return 1 if bad else 0
        jobs = corpus(work / "corpus")
        files, diffs = compare(base_src, ROOT / "src", jobs, work)
    for line in diffs:
        print(line)
    print(f"{len(jobs)} runs, {files} files: "
          + (f"{len(diffs)} differences" if diffs else "no difference"))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
