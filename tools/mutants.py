"""Mutation runner for the Cantor tree, the level builder, the numeric kernels,
the fast log2's Ziv test and the log2 cache, the sequence families and the
regime check, the dimension estimators and the walk cache they share, the
multiplicative cover, its report strings and the rows ``render_json`` writes.

Applies a fixed table of small code changes, one at a time, to a copy of
the repository under a temporary directory.  Each entry of ``MUTANTS``
names the source file it edits, the test files that must catch it, the
code ``old`` it changes and the code ``new`` that replaces it, and runs

    python -m pytest -x --hypothesis-profile=mutants <its test files>

there in one subprocess per mutant.  The ``mutants`` profile of
``tests/conftest.py`` skips Hypothesis's shrink phase: a failing example
counts as found, unshrunk, since only pass or fail is read.  A mutant is killed when the tests fail
and survives when they pass; a surviving mutant is a gap in the tests,
unless the table marks it equivalent, with the reason: no input can tell
it from the source, so it always survives.  A test run that takes longer
than ``TIMEOUT`` seconds counts as killed.  ``old`` must match exactly
once in the file, any run of whitespace in it matching any run of
whitespace; an entry whose ``old`` matches no place or several is
reported as "n/a".

Usage, from the root of a checkout (the whole table takes about nine
minutes on a 2-vCPU host):

    python3 tools/mutants.py [SOURCE ...]

Named source files, such as ``src/liminfdim/numerics.py``, limit the run to
the mutants that edit them, and the unmutated run to those mutants' test
files; with none, the whole table runs.  The exit status is 0 when every
applicable mutant not marked equivalent was killed, 1 when one survived,
and 2 when the tests fail without a mutant or a named file has no mutants.
It is a report, not a gate: no CI step runs it.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600  # seconds per test run, against a mutant that hangs


class Mutant(NamedTuple):
    target: str                # source file, relative to the checkout
    tests: tuple[str, ...]     # test files that must catch the edit
    old: str                   # the code changed; it must match once
    new: str                   # the code that replaces it
    equivalent: bool = False   # no input tells it from the source: it survives


def apply(source: str, old: str, new: str) -> Optional[str]:
    """``source`` with the one match of ``old`` replaced by ``new``, or None
    when ``old`` matches no place or several.  Any run of whitespace in
    ``old`` matches any run of whitespace."""
    matches = list(re.finditer(r"\s+".join(map(re.escape, old.split())), source))
    if len(matches) != 1:
        return None
    start, end = matches[0].span()
    return source[:start] + new + source[end:]


def _group(target: str, *tests: str) -> Callable[..., Mutant]:
    return lambda old, new, equivalent=False: Mutant(target, tests, old, new, equivalent)


cantor = _group("src/liminfdim/cantor.py", "tests/test_cantor.py", "tests/test_residue_window.py")
numerics = _group("src/liminfdim/numerics.py", "tests/test_numerics.py",
                  "tests/test_enclosure_properties.py", "tests/test_power_kernel.py",
                  "tests/test_log_table.py", "tests/test_sequences.py", "tests/test_golden.py",
                  "tests/test_log2_kernel.py")
level_sets = _group("src/liminfdim/level_sets.py", "tests/test_level_sets.py",
                    "tests/test_level_stats.py", "tests/test_residue_window.py",
                    "tests/test_golden.py")
multiplicative = _group("src/liminfdim/multiplicative.py", "tests/test_multiplicative.py",
                        "tests/test_cli.py")
dimension = _group("src/liminfdim/dimension.py", "tests/test_dimension.py",
                   "tests/test_log_table.py", "tests/test_golden.py", "tests/test_acceptance.py")
report = _group("src/liminfdim/report.py", "tests/test_report.py", "tests/test_cli.py",
                "tests/test_golden.py")
sequences = _group("src/liminfdim/sequences.py", "tests/test_sequences.py",
                   "tests/test_log_table.py", "tests/test_dimension.py", "tests/test_golden.py")

# Code that several mutants change.  A span mutant moves the (first, last)
# result of one residue_span call by wrapping the call in a lambda: the
# Cantor walk's meeting and inside windows, and build_level's window of the
# set it refines.
MEET = "residue_span( c - ball_hi - r_hi, c + ball_hi + r_hi, den, q, theta)"
INSIDE = "residue_span( c - ball_lo + r_hi, c + ball_lo - r_hi, den, q, theta)"
BUILD = "residue_span(wlo - r, whi + r, size, q, theta)"
FIRST_CHILD = "lo = p * b + max(0, first - st)"
LAST_CHILD = "hi = p * b + min(b - 1, last - st)"
FIRST_PARENT = "key=lambda p: start(k, p) + b - 1 >= first)"
LAST_PARENT = "key=lambda p: start(k, p) > last)"
SHIFT_FLOOR = "else m >> -k"
SHIFT_CEIL = "else -((-m) >> -k)"

MUTANTS: dict[str, Mutant] = {
    "meet span first +1": cantor(MEET, f"(lambda s: (s[0] + 1, s[1]))({MEET})"),
    "meet span first -1": cantor(MEET, f"(lambda s: (s[0] - 1, s[1]))({MEET})"),
    "meet span last +1": cantor(MEET, f"(lambda s: (s[0], s[1] + 1))({MEET})"),
    "meet span last -1": cantor(MEET, f"(lambda s: (s[0], s[1] - 1))({MEET})"),
    "inside span first +1": cantor(INSIDE, f"(lambda s: (s[0] + 1, s[1]))({INSIDE})"),
    "inside span first -1": cantor(INSIDE, f"(lambda s: (s[0] - 1, s[1]))({INSIDE})"),
    "inside span last +1": cantor(INSIDE, f"(lambda s: (s[0], s[1] + 1))({INSIDE})"),
    "inside span last -1": cantor(INSIDE, f"(lambda s: (s[0], s[1] - 1))({INSIDE})"),
    "drop the -q copy": cantor("for s in (-q, 0, q):", "for s in (0, q):"),
    "drop the +q copy": cantor("for s in (-q, 0, q):", "for s in (-q, 0):"),
    "long-window rule >= -> >": cantor("2 * (ball_hi + r_hi) >= den", "2 * (ball_hi + r_hi) > den"),
    "fan-out cap > -> >=": cantor("n_meet > _QUERY_FANOUT_CAP", "n_meet >= _QUERY_FANOUT_CAP"),
    "no zero-fill": cantor("counts.extend([(0, 0)] * (level_limit - k - 1))", "pass"),
    "first child +1": cantor(FIRST_CHILD, FIRST_CHILD + " + 1"),
    "first child -1": cantor(FIRST_CHILD, FIRST_CHILD + " - 1"),
    "last child +1": cantor(LAST_CHILD, LAST_CHILD + " + 1"),
    "last child -1": cantor(LAST_CHILD, LAST_CHILD + " - 1"),
    "first-child parent +1": cantor(FIRST_PARENT, FIRST_PARENT + " + 1"),
    "first-child parent -1": cantor(FIRST_PARENT, FIRST_PARENT + " - 1"),
    "last-child parent +1": cantor(LAST_PARENT, LAST_PARENT + " + 1"),
    "last-child parent -1": cantor(LAST_PARENT, LAST_PARENT + " - 1"),
    "child_range_1d: slack from the parent's outer radius": cantor(
        "slack = (self._r_lo[k - 1]", "slack = (self._r_hi[k - 1]"),
    "child_range_1d: first child's ceiling made a floor": cantor(
        "first = -((slack - x) // step)", "first = (x - slack) // step"),
    "sample: perturbation drawn before the path": cantor(
        "path = [rng.randrange(b) for b in self.branching_1d] "
        "draws.append((path, rng.getrandbits(24) if perturb else None))",
        "t = rng.getrandbits(24) if perturb else None\n"
        "            path = [rng.randrange(b) for b in self.branching_1d]\n"
        "            draws.append((path, t))"),
    # the certificate is the same; the placement count test sees the extra work
    "holder: every sample placed": cantor(
        "draws = self._draw_point(rng, perturb=rng.random() < 0.5)",
        "draws = self._draw_point(rng, perturb=rng.random() < 0.5)\n"
        "            self._place_point(draws)"),
    "place: adds the draw of the level above": cantor(
        "m = self.child_range_1d(i, k, m)[0] + path[k]",
        "m = self.child_range_1d(i, k, m)[0] + path[k - 1]"),
    "log_ratio: no guard bits": numerics(
        "log2_int(a, p + LOG_GUARD_BITS).div(log2_int(b, p + LOG_GUARD_BITS), p)",
        "log2_int(a, p).div(log2_int(b, p), p)"),
    "log_ratio: no a = b**k check": numerics("k = _power_exponent_of(a, b)", "k = None"),
    "log_ratio: no b = a**k check": numerics("k = _power_exponent_of(b, a)", "k = None"),
    "_radius_grid: floor <-> ceil": level_sets(
        "return (_shift_floor(lo.mantissa, lo.exponent + scale), _shift_ceil(",
        "return (_shift_ceil(lo.mantissa, lo.exponent + scale), _shift_floor("),
    "radius_enclosure: exponent -tau": level_sets("dir_pow(q, -(1 + self.tau), prec)",
                                                  "dir_pow(q, -self.tau, prec)"),
    "grid: scale from the first radius only": level_sets("scale = _scale_for(radii, prec)",
                                                         "scale = _scale_for(radii[:1], prec)"),
    "_resolve_prec: no integer check": numerics("if not isinstance(prec, int):", "if False:"),
    "pow_frac: every base exact": numerics("if self.is_exact:", "if True:"),
    "_log2_bracket: lower end +1": numerics("acc - 1, -steps, DOWN", "acc - 1 + 1, -steps, DOWN"),
    "_log2_bracket: lower end -1": numerics("acc - 1, -steps, DOWN", "acc - 1 - 1, -steps, DOWN"),
    "_log2_bracket: upper end +1": numerics("acc + 1, -steps, UP", "acc + 1 + 1, -steps, UP"),
    "_log2_bracket: upper end -1": numerics("acc + 1, -steps, UP", "acc + 1 - 1, -steps, UP"),
    # the drift inputs need the fallback, and without the drift margin the
    # fast path takes them and returns the floor
    "Ziv test: no fallback": numerics(
        "if _ZIV_ERROR <= r < (1 << _ZIV_GUARD) - _ZIV_ERROR - _ZIV_DRIFT:", "if True:"),
    "Ziv test: drift margin 0": numerics("_ZIV_DRIFT = 9 << (_ZIV_GUARD - 11)", "_ZIV_DRIFT = 0"),
    # no input was found whose bracket this window changes (the fast value
    # mostly errs low, and the squaring kernel drifts by far less than its
    # bound); the error bound test, which holds the fast value to E, kills it
    "Ziv test: error margin 0": numerics("_ZIV_ERROR = 2", "_ZIV_ERROR = 0"),
    # the guard bits absorb a missing term except for x near 2 at a width
    # where the term count has little slack, as in the bound test's
    # example (2**64 - 1, 2032)
    "atanh series one term short": numerics(
        "terms = -(-(2 * w - 2 * k - 3) // (4 * k + 6))",
        "terms = -(-(2 * w - 2 * k - 3) // (4 * k + 6)) - 1"),
    # both move the bracket on about 1 in 1,500 and 1 in 4,600 random inputs;
    # the kernel tests pin inputs on which they do
    "_log2_bracket: no rounding bump on the square": numerics(
        "hi = ((hi * hi) + (1 << g) - 1) >> g", "hi = (hi * hi) >> g"),
    "_log2_bracket: halve hi downward": numerics("hi = (hi + 1) >> 1", "hi >>= 1"),
    "_div_directed: DOWN <-> UP": numerics(
        "if direction is UP: q += 1 elif direction is not DOWN:",
        "if direction is DOWN:\n        q += 1\n    elif direction is not UP:"),
    # exact quotients of bounds: the tag test divides [3, 5] by 1 and takes 2/3 of it
    "_div_directed: every exact quotient EXACT": numerics(
        "if num.direction is EXACT and den.direction is EXACT:", "if True:"),
    "Enclosure product: upper end hi * lo'": numerics(
        "self.hi * other.hi)", "self.hi * other.lo)"),
    # the directed factors' own check still refuses most negative products;
    # two exact-tagged lower ends pass it
    "Enclosure product: no nonnegative check": numerics(
        "if self.lo.mantissa < 0 or other.lo.mantissa < 0:", "if False:"),
    "DirectedReal product: sign checked only for two directed factors": numerics(
        "if d is not EXACT and (self.mantissa < 0 or other.mantissa < 0):",
        "if (self.direction is not EXACT and other.direction is not EXACT\n"
        "                and (self.mantissa < 0 or other.mantissa < 0)):"),
    "_shift_floor rounds up": numerics(SHIFT_FLOOR, SHIFT_CEIL),
    "_shift_ceil rounds down": numerics(SHIFT_CEIL, SHIFT_FLOOR),
    "_iroot: start from y << k": numerics("g = (_iroot(x >> b * k, b) + 1) << k",
                                          "g = _iroot(x >> b * k, b) << k"),
    "_iroot: base case < 64 -> < 1": numerics("if n // b < 64:", "if n // b < 1:"),
    # a start below the root ends Newton's iteration at once, on a wrong root
    "_iroot: unchecked start below the root": numerics(
        "* (1 + 2 ** -40)) + 2 if y < g and y ** b > x:", "* (1 - 2 ** -40))\n        if y < g:"),
    "pow_exponent_below: no -1": numerics("// s.denominator - 1", "// s.denominator"),
    "log2 cache bypassed": numerics("lru_cache(maxsize=LOG2_CACHE_SIZE)", "lru_cache(maxsize=0)"),
    "log2 cache unbounded": numerics("lru_cache(maxsize=LOG2_CACHE_SIZE)",
                                     "lru_cache(maxsize=None)"),
    "LOG2_CACHE_SIZE 128 -> 64": numerics("LOG2_CACHE_SIZE = 128", "LOG2_CACHE_SIZE = 64"),
    # the cache keyed by n alone: the first precision's bracket serves every
    # later one
    "log2 cache drops prec": numerics(
        "@functools.lru_cache(maxsize=LOG2_CACHE_SIZE) def _log2_cached(n: int, prec: int)",
        "def _log2_cached(n: int, prec: int) -> Enclosure:\n"
        "    _log2_cached.prec = prec\n"
        "    return _log2_of(n)\n\n\n"
        "@functools.lru_cache(maxsize=LOG2_CACHE_SIZE)\n"
        "def _log2_of(n: int) -> Enclosure:\n"
        "    return _log2_bracket(n, _log2_cached.prec)\n\n\n"
        "_log2_cached.cache_clear = _log2_of.cache_clear\n"
        "_log2_cached.cache_info = _log2_of.cache_info\n\n\n"
        "def _log2_unkeyed(n: int, prec: int)"),
    "holder: no walk skip": cantor("if not _exceeds(self._measure_bound(radius.hi),",
                                   "if _exceeds(self._measure_bound(radius.hi),"),
    "measure bound: no +1": cantor("(w * self.qs.terms[k] >> shift) + 1",
                                   "(w * self.qs.terms[k] >> shift)"),
    # equivalent: past a level where more than 2**14 nodes meet, the window
    # spans more than 2**13 spacings of that level, while the admissible
    # children of a node fill at most half of the next level's lattice
    # between its neighbours (separation >= 1/(2 q) and nesting), so the
    # next lattice count exceeds M_k * b_{k+1}: every later level repeats
    # M_k**d / N_k and none lowers the minimum
    "measure bound: no fan-out cap": cantor("if meet > _QUERY_FANOUT_CAP: break", "pass",
                                            equivalent=True),
    # 1,000 more bits stand in for the exact bound
    "measure bound: compared before rounding": cantor(
        "t = max(self.prec + 1 -", "t = max(self.prec + 1000 -"),
    "measure bound: rounded down": cantor(
        "DirectedReal(-((-num << t) // den), -t, UP)", "DirectedReal((num << t) // den, -t, UP)"),
    "holder: no power skip": cantor("and not _exceeds(mu, below,", "and _exceeds(mu, below,"),
    "holder: ratio > -> >=": cantor("x << (ex - e) > y", "x << (ex - e) >= y"),
    # equivalent: a tie swaps in an equal pair, and each end's Fraction is
    # the same number
    "ball_measure: min < -> <=": cantor("if meet * hi_den < hi_num * n:",
                                        "if meet * hi_den <= hi_num * n:", equivalent=True),
    "build_level span first +1": level_sets(BUILD, f"(lambda s: (s[0] + 1, s[1]))({BUILD})"),
    # the next two and the cover check below leave every arc as it is (an
    # extra residue's arc lies outside its window and the clip drops it; a
    # miss builds the same arcs), but they make the kernel build more
    # residues, which the kernel count test sees
    "build_level span first -1": level_sets(BUILD, f"(lambda s: (s[0] - 1, s[1]))({BUILD})"),
    "build_level span last +1": level_sets(BUILD, f"(lambda s: (s[0], s[1] + 1))({BUILD})"),
    "build_level span last -1": level_sets(BUILD, f"(lambda s: (s[0], s[1] - 1))({BUILD})"),
    "overlap test gap < 0 -> <= 0": level_sets("gap is not None and gap < 0",
                                               "gap is not None and gap <= 0"),
    "build_level: no join gap": level_sets("gaps.append(run[0][0] - out[-1][1])", "pass"),
    "build_level: no wrap gap": level_sets("gaps.append(out[0][0] + size - out[-1][1])", "pass"),
    "on-grid centres +1": level_sets("on_grid = len(_on_grid(rem, b, den, n))",
                                     "on_grid = len(_on_grid(rem, b, den, n)) + 1"),
    "on-grid centres -1": level_sets("on_grid = len(_on_grid(rem, b, den, n))",
                                     "on_grid = len(_on_grid(rem, b, den, n)) - 1"),
    "_on_grid: first centre +1": level_sets("% period, n, period)", "% period + 1, n, period)"),
    "_outer_arcs: no on-grid -1": level_sets("his[k] -= 1", "his[k] -= 0"),
    "inner arcs: r_sum - 1": level_sets("r_sum = r_lo + r_hi for wlo,",
                                       "r_sum = r_lo + r_hi - 1\n        for wlo,"),
    "inner arcs: cached slice start +1": level_sets("runs[k][first - firsts[k]:",
                                                    "runs[k][first - firsts[k] + 1:"),
    "inner arcs: cover check <= -> <": level_sets("last <= outer_spans[k][3]",
                                                  "last < outer_spans[k][3]"),
    "arc width 2r + 1 -> 2r": level_sets("n * (2 * r + 1)", "n * (2 * r)"),
    "short gap 0 < rem -> <=": level_sets("(0 < x and", "(0 <= x and"),
    "short gap k < n - 1 -> <=": level_sets("k < n - 1)", "k <= n - 1)"),
    "_clip: lo < hi -> <=": level_sets("if lo < hi]", "if lo <= hi]"),
    "residue_span: first +1": level_sets("return -((tn * den - lo * q * td) // step),",
                                         "return -((tn * den - lo * q * td) // step) + 1,"),
    "cover: no clamp of x0": multiplicative("x0 = min(one >> (k + 1), one - side)",
                                            "x0 = one >> (k + 1)"),
    "cover: corner side halved": multiplicative("tuple(columns), one >> half_cols)",
                                                "tuple(columns), one >> half_cols + 1)"),
    "cover factor + 2 -> + 1": dimension("scale_int(4 * self.q).add_int(2)",
                                         "scale_int(4 * self.q).add_int(1)"),
    "_log_scale: (1 + tau) -> tau": dimension("mul_frac(1 + self.tau, self.prec)",
                                              "mul_frac(self.tau, self.prec)"),
    "branching: floor of lo -> of hi": dimension("parent.shrink.scale_int(q).lo.floor()",
                                                 "parent.shrink.scale_int(q).hi.floor()"),
    "theoretical_dimension: no clamp": dimension("if raw < 0:", "if False:"),
    "raw_count: one factor too many": dimension("for _ in range(self.d - 1):",
                                                "for _ in range(self.d):"),
    "_records: no integer check on d": dimension("if not isinstance(d, int):", "if False:"),
    "walk key drops d": dimension("records = _walk(qs, tau, d, p)",
                                  "records = _walk(qs, tau, 1, p)"),
    "walk key drops prec": dimension("records = _walk(qs, tau, d, p)",
                                     "records = _walk(qs, tau, d, None)"),
    "walk key drops tau": dimension("records = _walk(qs, tau, d, p)",
                                    "records = _walk(qs, None, d, p)"),
    "walk key drops the types": dimension("lru_cache(maxsize=_WALK_CACHE_SIZE, typed=True)",
                                          "lru_cache(maxsize=_WALK_CACHE_SIZE, typed=False)"),
    "walk past the depth asked": dimension("for q in qs.terms[len(records):depth]:",
                                           "for q in qs.terms[len(records):depth + 1]:"),
    "walk cache unbounded": dimension("lru_cache(maxsize=_WALK_CACHE_SIZE, typed=True)",
                                      "lru_cache(maxsize=None, typed=True)"),
    "step extends the first record": dimension("parent = records[-1] if records else None",
                                               "parent = records[0] if records else None"),
    "alpha: one term off": sequences(
        "alpha_list.append(log_ratio(prefix_product, terms[j], prec)) prefix_product *= terms[j]",
        "prefix_product *= terms[j]\n"
        "        alpha_list.append(log_ratio(prefix_product, terms[j], prec))"),
    "regime threshold tau + 1 -> tau": sequences("threshold = tau + 1", "threshold = tau"),
    "regime_from_steps: no tau check": sequences(
        'if tau <= 0: raise ValueError("tau must be positive") threshold = tau + 1',
        "threshold = tau + 1"),
    "reindex_even: no tau check": sequences(
        'if tau <= 0: raise ValueError("tau must be positive") sub = qs.terms[1::2]',
        "sub = qs.terms[1::2]"),
    "regime: INDETERMINATE -> PASS": sequences("RegimeResult(RegimeStatus.INDETERMINATE, j)",
                                               "RegimeResult(RegimeStatus.PASS, j)"),
    "_ceil_root: >= -> >": sequences("r if r ** b >= x else", "r if r ** b > x else"),
    "contractive window 4 -> 8": sequences("if (4 * nxt) ** b > p:", "if (8 * nxt) ** b > p:"),
    "_grid_run: even run from j0": report("a = j0 + (j0 & 1)", "a = j0"),
    "_grid_run: even run end j1 >> 1": report("(j1 + 1) >> 1", "j1 >> 1"),
    "_columns: a column's two separators swapped": report(
        "[None, sep_a.format(s), None, sep_b.format(s)]",
        "[None, sep_b.format(s), None, sep_a.format(s)]"),
    "cover_csv: corner row dropped": report('("0,0,", rects.corner, "\\n")', "()"),
    "render_json: side cells from the first column": report(
        """sep_b = '",' + cell + '"{}"'""",
        """sep_b = '",' + cell + '"' + rows.columns[0][1] + '"'"""),
    "render_json: any list taken for a CoverRows": report(
        "if not isinstance(rows, CoverRows):", "if not isinstance(rows, list):"),
    "render_json: rows at the key's indent": report('inner = pad + "  "', "inner = pad"),
    "render_json: marker taken without the uniqueness check": report(
        "if _EMPTY_RECTS in tail:", "if False:"),
}


def run_tests(workdir: Path, tests: tuple[str, ...]) -> tuple[bool, float]:
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", "--hypothesis-profile=mutants", *tests],
            cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT)
        passed = proc.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.monotonic() - t0


def select(paths: list[str]) -> dict[str, Mutant]:
    """The entries of ``MUTANTS`` that edit the named source files, or the
    whole table when none is named.  A path is read from the working
    directory, and one that leads out of the checkout from its root; a
    file that no entry edits raises ValueError."""
    if not paths:
        return dict(MUTANTS)
    targets = {m.target for m in MUTANTS.values()}
    named = set()
    for path in paths:
        full = Path(path).resolve()
        target = full.relative_to(ROOT).as_posix() if full.is_relative_to(ROOT) else path
        if target not in targets:
            raise ValueError(f"no mutant edits {path}")
        named.add(target)
    return {name: m for name, m in MUTANTS.items() if m.target in named}


def tests_of(mutants: dict[str, Mutant]) -> tuple[str, ...]:
    """Every test file the mutants list, each once, in the table's order."""
    return tuple(dict.fromkeys(t for m in mutants.values() for t in m.tests))


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sources", nargs="*", metavar="SOURCE",
                        help="run only the mutants of these source files")
    args = parser.parse_args(argv)
    try:
        mutants = select(args.sources)
    except ValueError as exc:
        parser.error(str(exc))
    sources = {m.target: (ROOT / m.target).read_text() for m in mutants.values()}
    survived = 0
    with tempfile.TemporaryDirectory(prefix="liminfdim-mutants-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src")
        shutil.copytree(ROOT / "tests", work / "tests",
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copytree(ROOT / "demos", work / "demos",
                        ignore=shutil.ignore_patterns("__pycache__"))
        ok, secs = run_tests(work, tests_of(mutants))
        print(f"{'unmutated':32} {'passes' if ok else 'FAILS'}  ({secs:.0f} s)", flush=True)
        if not ok:
            print("the tests fail without a mutant; nothing to measure", file=sys.stderr)
            return 2
        for name, mutant in mutants.items():
            text = apply(sources[mutant.target], mutant.old, mutant.new)
            if text is None:
                print(f"{name:32} n/a", flush=True)
                continue
            target = work / mutant.target
            target.write_text(text)
            passed, secs = run_tests(work, mutant.tests)
            target.write_text(sources[mutant.target])
            if passed and mutant.equivalent:
                outcome = "survived (equivalent)"
            else:
                survived += passed
                outcome = "SURVIVED" if passed else "killed"
            print(f"{name:32} {outcome}  ({secs:.0f} s)", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
