"""Byte comparison of the package's canonical reports at two revisions.

    python3 tools/ab.py --base REV --bytes

exports the package source of REV with ``git archive`` (a local read of the
repository: no network, no worktree) into a temporary directory, and runs
one fixed corpus of configs through ``liminfdim run --canonical`` with it
and with the working tree, one Python subprocess per side.  The corpus:

* ``demos/configs/*.cfg`` and ``tests/golden/*.cfg``, each in json and csv;
* ``tests/golden/power13_highprec.cfg`` at ``--prec`` 4096 and 8192;
* cli-reports' configs for seeds 1 and 2, built by the benchmark's own
  ``perfbench/cli_reports.config_text`` as its set-up builds them, in csv.

Both sides read the same copies of the configs, from the working tree, and
write under the same relative paths, so a message that names a path reads
the same on both.  Every written file that differs or exists on one side
only is listed, and so is every exit code, stdout and stderr that differs.
The exit status is 0 when nothing differs, 1 when something does, and 2
when REV cannot be exported.  The whole corpus (826 runs) takes about
15 seconds for both sides on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
HIGHPREC = ("power13_highprec", (4096, 8192))
CLI_REPORTS_SEEDS = (1, 2)

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


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, metavar="REV",
                        help="the revision to compare the working tree against")
    parser.add_argument("--bytes", action="store_true",
                        help="compare the canonical reports of the fixed corpus")
    args = parser.parse_args(argv)
    if not args.bytes:
        parser.error("nothing to compare: give --bytes")
    with tempfile.TemporaryDirectory(prefix="liminfdim-ab-") as tmp:
        work = Path(tmp)
        try:
            base_src = export(args.base, work / "export")
        except ValueError as exc:
            print(f"ab: {exc}", file=sys.stderr)
            return 2
        jobs = corpus(work / "corpus")
        files, diffs = compare(base_src, ROOT / "src", jobs, work)
    for line in diffs:
        print(line)
    print(f"{len(jobs)} runs, {files} files: "
          + (f"{len(diffs)} differences" if diffs else "no difference"))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
