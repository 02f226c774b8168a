"""Workload ``cli-reports``: whole ``liminfdim run ... --format csv`` invocations.

Set-up draws the seeded configs.  Before each operation one of them is
written to a file in the benchmark's work directory (untimed); the
operation calls ``cli.main`` in-process on it, writing
``report.json`` and the CSV files into an emptied output directory.  The
mix repeats every 16 operations: five small ``enumerate`` configs, four
``dimension`` configs, six ``multiplicative`` configs with gamma = 2**-K
for K = 8, 10, 12, 14, 14, 16, and the deep-term ``analyze`` config
``power q1=4 growth=4 depth=8``.

Known defect: the deep-term config raises ``ValueError`` in ``cli.run``
(``str(q)`` on a term of more than 4300 decimal digits) and the error
escapes ``cli.main``.  Those operations count as failed, and a timed run
attempts whole rounds of the mix, so ``ok_frac`` is 15/16 on this workload
until the package is fixed.

Oracle: the written ``report.json`` must parse back to exactly the report
``cli.run`` returned in memory, and every CSV row must match it; the cover
size must match its closed form.
"""

from __future__ import annotations

import csv
import json
import random
import shutil
from fractions import Fraction
from types import SimpleNamespace

from common import Workload, cert_bits, require

PREC = 128
# mult14 twice: nearest-rank p90 falls inside its group, so the group's
# size sets how steady p90 is
MIX = ("deep", "enum", "dim", "mult8", "enum", "dim", "mult16", "mult14",
       "mult10", "enum", "dim", "mult12", "enum", "dim", "enum", "mult14")
TINY_K = {"mult8": 6, "mult10": 7, "mult12": 8, "mult14": 9, "mult16": 10}
SHIFT_DENOMINATOR = 97


def _theta(rng, d):
    return ", ".join(f"{rng.randrange(1, SHIFT_DENOMINATOR)}/{SHIFT_DENOMINATOR}"
                     for _ in range(d))


def config_text(kind: str, rng: random.Random, tiny: bool, i: int) -> str:
    """The i-th config.  Choices that change its cost (q1, d, growth, depth,
    tau, mult_s) are fixed or cycle with i, so every seed runs the same mix
    of costs; the later terms of enumerate configs and the shifts are
    seeded."""
    head = f"# seeded {kind} config\nprecision = {PREC}\n"
    r = i // len(MIX)
    if kind == "deep":
        return head + ("sequence = power\nq1 = 4\ngrowth = 4\ntau = 1\nd = 1\n"
                       "depth = 8\ntasks = analyze\n")
    if kind == "enum":
        d = 1 + i % 2
        q1 = 10   # one size: p50 falls among these configs, so their costs stay close together
        q2 = q1 * q1 + rng.randrange(1, q1)
        q3 = 3 * q2 * q2 + rng.randrange(1, q2)
        return head + (f"sequence = explicit\nterms = {q1}, {q2}, {q3}\ntau = 1/2\nd = {d}\n"
                       f"theta = {_theta(rng, d)}\ndepth = 3\ntasks = analyze,enumerate\n")
    if kind == "dim":
        growth = ("5/2", "7/3", "9/4")[i % 3]
        return head + (f"sequence = power\nq1 = {(3, 5, 6, 7, 10, 11)[i % 6]}\n"
                       f"growth = {growth}\ntau = 1/2\nd = {1 + i % 2}\n"
                       f"depth = {5 + r % 2}\ntasks = analyze,dimension\n")
    k = TINY_K[kind] if tiny else int(kind[4:])
    return head + (f"sequence = power\nq1 = 4\ngrowth = 4\ntau = {('1', '1/2')[r % 2]}\n"
                   f"d = 2\ndepth = 4\ntasks = analyze,multiplicative\ngamma = 1*2^-{k}\n"
                   f"mult_s = {('3/2', '8/5', '7/4')[r % 3]}\n")


def cover_size(k: int) -> int:
    """Squares in the hyperbolic cover of x*y <= 2**-k, from its construction."""
    if k == 0:
        return 1
    return 1 + 2 * sum(max(1, 1 << max(0, k - 2 * j - 2)) for j in range(-(-k // 2)))


def _read_csv(path) -> list[list[str]]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.reader(fh))


def _dyadic(text: str) -> Fraction:
    m, e = text.split("*2^")
    return Fraction(int(m)) * Fraction(2) ** int(e)


def enclosure_bits_json(node, prec: int, out: list[float]) -> None:
    """Certificate bits of every serialised enclosure in a report."""
    if isinstance(node, dict):
        if {"lo", "hi", "exact"} <= node.keys():
            out.append(cert_bits(_dyadic(node["lo"]), _dyadic(node["hi"]), prec))
            return
        if "exact_value" in node:
            out.append(float(prec))
            return
        for value in node.values():
            enclosure_bits_json(value, prec, out)
    elif isinstance(node, list):
        for value in node:
            enclosure_bits_json(value, prec, out)


class CliReports(Workload):
    name = "cli-reports"
    round_ops = len(MIX)

    def attach(self, lib):
        """Keep the report ``cli.run`` returns, so the oracle can compare files
        against it; a pass-through wrapper, installed before any tracing."""
        captured = SimpleNamespace(report=None, code=None)
        run = lib.cli.run

        def capture(cfg, canonical=False):
            report, code = run(cfg, canonical)
            captured.report, captured.code = report, code
            return report, code

        lib.cli.run = capture
        lib.captured = captured

    def prepare(self, lib, seed: int, tiny: bool, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        configs = []
        for i in range(len(MIX) * (2 if tiny else 25)):
            kind = MIX[i % len(MIX)]
            configs.append((kind, config_text(kind, rng, tiny, i)))
        return {"configs": configs, "cfg": workdir / "op.cfg", "out": workdir / "out",
                "captured": lib.captured, "window": len(MIX) if tiny else 2 * len(MIX)}

    def before_op(self, state, i):
        # the config file is written here, untimed, so that set-up time is
        # the package's and not the file system's
        _, text = state["configs"][i % len(state["configs"])]
        state["cfg"].write_text(text, encoding="ascii")
        shutil.rmtree(state["out"], ignore_errors=True)
        state["captured"].report = state["captured"].code = None

    def run_op(self, lib, state, i):
        return lib.cli.main(["run", str(state["cfg"]), "--format", "csv",
                             "--out", str(state["out"])])

    def check(self, lib, state, i, code) -> list[float]:
        kind, _ = state["configs"][i % len(state["configs"])]
        report = state["captured"].report
        out = state["out"]
        require(code == 0 and state["captured"].code == 0, f"exit status {code}")
        with open(out / "report.json", encoding="ascii") as fh:
            written = json.load(fh)
        require(written == report, "report.json differs from the in-memory report")
        res = report["results"]
        cfg = report["config"]
        expected = {"report.json"}
        if "enumerate" in res:
            expected.add("levels.csv")
            levels = res["enumerate"]["levels"]
            require(len(levels) == cfg["depth"], "enumerate levels")
            rows = _read_csv(out / "levels.csv")
            require(rows[0] == ["level", "count_min", "count_max", "max_len", "min_gap",
                                "total_len"] and len(rows) == len(levels) + 1, "levels.csv shape")
            for row, st in zip(rows[1:], levels):
                gap = float(Fraction(st["min_gap"])) if st["min_gap"] is not None else None
                require([int(row[0]), int(row[1]), int(row[2]), float(row[3])]
                        == [st["level"], st["count"]["min"], st["count"]["max"],
                            st["max_len_float"]]
                        and (row[4] == "" if gap is None else float(row[4]) == gap)
                        and float(row[5]) == st["total_len_float"],
                        f"levels.csv row {row[0]}")
        if "dimension" in res:
            expected.add("dimension.csv")
            series = res["dimension"]["series"]
            require(len(series) == cfg["depth"], "dimension series")
            kept = [r for r in series if r["lower"]]
            rows = _read_csv(out / "dimension.csv")
            require(len(rows) == len(kept) + 1, "dimension.csv shape")
            for row, r in zip(rows[1:], kept):
                require([int(row[0])] + [float(v) for v in row[1:]]
                        == [r["depth"], r["lower"]["lo_float"], r["lower"]["hi_float"],
                            r["upper"]["lo_float"], r["upper"]["hi_float"]],
                        f"dimension.csv row {row[0]}")
        if "multiplicative" in res:
            expected.add("cover.csv")
            cover = res["multiplicative"]["cover"]
            k = Fraction(cover["gamma"]).denominator.bit_length() - 1
            require(cover["squares"] == len(cover["rects"]) == cover_size(k),
                    f"cover of gamma 2^-{k} has {cover['squares']} squares")
            rows = _read_csv(out / "cover.csv")
            require(rows[0] == ["x", "y", "side"] and rows[1:] == cover["rects"],
                    "cover.csv differs from the report's squares")
        require({p.name for p in out.iterdir()} == expected, "unexpected set of output files")
        require(len(res["analyze"]["terms"]) == cfg["depth"], "analyze terms")
        bits: list[float] = []
        enclosure_bits_json(res, PREC, bits)
        return bits
