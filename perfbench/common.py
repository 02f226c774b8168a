"""Pieces shared by the benchmark driver, the workloads and the self-check."""

from __future__ import annotations

import importlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / "perfbench"
WORK_DIR = ROOT / ".perfbench"

LIB_MODULES = ("numerics", "sequences", "level_sets", "dimension", "cantor",
               "multiplicative", "config", "report", "cli")


def load_spec() -> dict:
    """BENCHMARK.json: the workloads and the metrics, with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def as_metrics(values: dict, specs: list) -> dict:
    """The result's ``metrics`` object: every listed metric, in listed order."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


class Workload:
    """Hooks the driver calls; a workload overrides prepare, run_op and check.

    ``prepare`` (timed as set-up) returns the workload's state, a dict that
    holds at least ``window``, the number of operations a traced run covers.
    ``run_op`` is the timed operation; ``check`` is its oracle, run untimed,
    which raises ``Mismatch`` and returns the certificate bits of the output.
    A timed run stops only after a whole multiple of ``round_ops``
    operations, so a workload that cycles through a fixed mix attempts every
    entry of it equally often.
    """

    name = ""
    round_ops = 1

    def attach(self, lib) -> None:
        """Called right after each import of the package, before any tracing."""

    def prepare(self, lib, seed: int, tiny: bool, workdir) -> dict:
        raise NotImplementedError

    def oracle_setup(self, state: dict) -> None:
        """Untimed preparation of the oracle, after the first set-up."""

    def before_op(self, state: dict, i: int) -> None:
        """Untimed housekeeping before operation i."""

    def run_op(self, lib, state: dict, i: int):
        raise NotImplementedError

    def check(self, lib, state: dict, i: int, out) -> list[float]:
        raise NotImplementedError


class Mismatch(Exception):
    """An operation's output disagrees with the benchmark's own oracle."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def import_library() -> SimpleNamespace:
    """Import the package from this checkout's ``src``, dropping earlier copies.

    Each call re-executes the package's modules, so timing it measures the
    import cost a fresh process pays.  Raises ``ImportError`` when the
    checkout has no package source.
    """
    if not (SRC / "liminfdim" / "__init__.py").is_file():
        raise ImportError(f"no package source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "liminfdim" or n.startswith("liminfdim.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"liminfdim.{m}") for m in LIB_MODULES})
    origin = Path(lib.numerics.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"liminfdim was imported from {origin}, not from {SRC}")
    return lib


def log2_fraction(x: Fraction) -> float:
    return math.log2(x.numerator) - math.log2(x.denominator)


def cert_bits(lo: Fraction, hi: Fraction, prec: int) -> float:
    """-log2(width / |midpoint|) of a certified range; exact values score `prec`."""
    if lo == hi:
        return float(prec)
    mid = abs(lo + hi) / 2
    if mid == 0:
        return 0.0
    return log2_fraction(mid / (hi - lo))


def enclosure_bits(enc, prec: int) -> float:
    return cert_bits(enc.lo.as_fraction(), enc.hi.as_fraction(), prec)


def iroot(x: int, b: int) -> int:
    """Floor of the b-th root of x >= 0 (the oracles' own integer root)."""
    if x < 2 or b == 1:
        return x
    if b == 2:
        return math.isqrt(x)
    r = 1 << -(-x.bit_length() // b)
    while True:
        nxt = ((b - 1) * r + x // r ** (b - 1)) // b
        if nxt >= r:
            break
        r = nxt
    while r ** b > x:
        r -= 1
    while (r + 1) ** b <= x:
        r += 1
    return r


def ceil_int(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def floor_int(x: Fraction) -> int:
    return x.numerator // x.denominator
