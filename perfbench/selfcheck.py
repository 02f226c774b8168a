"""Self-check of the benchmark; run from the checkout root:

    python3 perfbench/selfcheck.py

1. Runs every workload at a tiny size on two seeds, untraced and traced, and
   asserts that every metric in BENCHMARK.json is printed with its unit.
2. Runs each traced workload twice on one seed and asserts that every count
   (calls, arcs, squares and the ratios built from them) repeats exactly.
3. Feeds one deliberately corrupted result through each oracle and asserts
   that the oracle rejects it (and accepts the uncorrupted result).
4. Runs the benchmark in a directory that holds only BENCHMARK.json and the
   benchmark's files, and asserts that it fails without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction

from common import BENCH_DIR, ROOT, WORK_DIR, Mismatch, import_library, load_spec

SEEDS = (11, 12)


def run_bench(workload: str, seed: int, trace: int, cwd=ROOT, script=None):
    script = script or BENCH_DIR / "run.py"
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def expect_metrics(proc, specs, label: str) -> dict:
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: an oracle rejected an output\n{proc.stdout}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    metrics = result["metrics"]
    assert list(metrics) == [s["name"] for s in specs], f"{label}: metric names differ"
    for spec in specs:
        m = metrics[spec["name"]]
        assert m["unit"] == spec["unit"], f"{label}: unit of {spec['name']}"
        assert isinstance(m["value"], (int, float)), f"{label}: value of {spec['name']}"
        assert f"{spec['name']} = {m['value']!r} {spec['unit']}" in lines, \
            f"{label}: {spec['name']} is not printed with its unit"
    return result


def check_outputs(bench: dict) -> None:
    # figures that must repeat exactly between two traced runs of one seed
    counts = [m["name"] for m in bench["per_layer"]
              if m["unit"] != "s/op" and m["name"] != "trace.overhead_frac"]
    for wl in bench["workloads"]:
        name = wl["name"]
        for seed in SEEDS:
            res = expect_metrics(run_bench(name, seed, 0), bench["end_to_end"],
                                 f"{name} seed {seed} untraced")
            if name == "cli-reports":
                assert res["failed"] > 0, "the deep-term config should fail (known defect)"
            else:
                assert res["failed"] == 0, f"{name}: {res['failed']} failed operations"
            first = expect_metrics(run_bench(name, seed, 1), bench["per_layer"],
                                   f"{name} seed {seed} traced")
        again = expect_metrics(run_bench(name, SEEDS[-1], 1), bench["per_layer"],
                               f"{name} traced again")
        for metric in counts:
            assert first["metrics"][metric] == again["metrics"][metric], \
                f"{name}: {metric} differs between two traced runs of one seed"
        print(f"ok   {name}: metrics and units on seeds {SEEDS}; traced counts repeat")


def expect_rejected(wl, lib, state, i, out, label: str) -> None:
    try:
        wl.check(lib, state, i, out)
    except (Mismatch, AssertionError):
        print(f"ok   {wl.name}: oracle rejects {label}")
        return
    raise AssertionError(f"{wl.name}: oracle accepted {label}")


def check_oracles() -> None:
    from bracket_highprec import BracketHighprec
    from cantor_certificate import CantorCertificate
    from cli_reports import CliReports
    from enumerate_d2 import EnumerateD2

    lib = import_library()
    workdir = WORK_DIR / "selfcheck"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        # enumerate-d2: drop every other final arc of one coordinate, keeping
        # the reported counts consistent so that only the recount can notice
        wl = EnumerateD2()
        state = wl.prepare(lib, 5, True, workdir)
        res = wl.run_op(lib, state, 0)
        wl.check(lib, state, 0, res)
        s0 = res.sets[0]
        thinned = dataclasses.replace(
            s0, inner=dataclasses.replace(s0.inner, arcs=s0.inner.arcs[::2]),
            outer=dataclasses.replace(s0.outer, arcs=s0.outer.arcs[::2]))
        sets = (thinned,) + res.sets[1:]
        per_coord = tuple(s.count for s in sets)
        last = dataclasses.replace(res.levels[-1], per_coord=per_coord,
                                   count=per_coord[0] * per_coord[1])
        bad = dataclasses.replace(res, sets=sets, levels=res.levels[:-1] + (last,))
        expect_rejected(wl, lib, state, 0, bad, "a result with half of its arcs dropped")

        # bracket-highprec: shift one h enclosure by a hundred widths
        wl = BracketHighprec()
        state = wl.prepare(lib, 5, True, workdir)
        stats = wl.run_op(lib, state, 0)
        wl.check(lib, state, 0, stats)
        h = stats.h_list[0]
        shift = (h.width() or Fraction(1, 1 << 100)) * 100
        moved = lib.numerics.Enclosure.from_endpoints(
            h.lo.as_fraction() + shift, h.hi.as_fraction() + shift, state["prec"])
        bad = dataclasses.replace(stats, h_list=(moved,) + stats.h_list[1:])
        expect_rejected(wl, lib, state, 0, bad, "a shifted h enclosure")

        # cantor-certificate: a certified ratio of zero, and one twice too large
        wl = CantorCertificate()
        state = wl.prepare(lib, 5, True, workdir)
        wl.oracle_setup(state)
        cert = wl.run_op(lib, state, 0)
        wl.check(lib, state, 0, cert)
        bad = dataclasses.replace(cert, max_ratio=Fraction(0))
        expect_rejected(wl, lib, state, 0, bad, "a zero Holder ratio")
        bad = dataclasses.replace(cert, max_ratio=cert.max_ratio * 2)
        expect_rejected(wl, lib, state, 0, bad, "a doubled Holder ratio")

        # cli-reports: an in-memory report that disagrees with the files
        wl = CliReports()
        wl.attach(lib)
        state = wl.prepare(lib, 5, True, workdir)
        i = next(k for k, (kind, _) in enumerate(state["configs"]) if kind == "dim")
        wl.before_op(state, i)
        code = wl.run_op(lib, state, i)
        wl.check(lib, state, i, code)
        good = state["captured"].report
        state["captured"].report = copy.deepcopy(good)
        state["captured"].report["results"]["dimension"]["series"][0]["depth"] = 99
        expect_rejected(wl, lib, state, i, code, "a report that differs from its files")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_no_source() -> None:
    bare = WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("enumerate-d2", 1, 0, cwd=bare, script=bare / BENCH_DIR.name / "run.py")
        assert proc.returncode != 0, "the benchmark ran without the package source"
        assert not proc.stdout.strip().startswith("{") and '"metrics"' not in proc.stdout, \
            "a result was printed without the package source"
        print(f"ok   without package source: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = load_spec()
    check_oracles()
    check_no_source()
    check_outputs(bench)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
