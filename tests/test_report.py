"""The report writer: ``render_json`` against ``json.dumps``, a cover's
``CoverRows`` it writes itself column by column included, canonical reports
read back through ``json.loads`` and ``parse_rational``, and the cover's
closed-form grid strings against ``grid_str``."""

import json
import re
from fractions import Fraction as F
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liminfdim.cli import run
from liminfdim.config import load_config, parse_rational
from liminfdim.multiplicative import hyperbolic_cover
from liminfdim.numerics import EXACT, DirectedReal
from liminfdim.report import (DECIMAL_MAX_BITS, CoverRows, _grid_run, cover_rects,
                              dyadic_str, fraction_str, grid_str, render_json)
from reference import wide_cover

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = (sorted((ROOT / "demos" / "configs").glob("*.cfg"))
           + sorted((ROOT / "tests" / "golden").glob("*.cfg")))

# 'p', 'p/q' and 'm*2^e', each integer part in decimal or '0x...' hex
RATIONAL = re.compile(r"-?(0x[0-9a-f]+|[0-9]+)(/(0x[0-9a-f]+|[0-9]+)|\*2\^-?[0-9]+)?")


def reference_json(doc: dict, canonical: bool) -> str:
    """What render_json must write, byte for byte."""
    doc = dict(doc)
    if canonical:
        doc.pop("timing", None)
    return json.dumps(doc, sort_keys=canonical, indent=2) + "\n"


TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f'), st.characters()),
               max_size=8)
SCALARS = st.one_of(
    TEXT,
    st.integers(-(1 << 200), 1 << 200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(-0.0),
    st.booleans(),
    st.none(),
)
# lists of string lists: equal widths (a cover's rects), ragged, empty rows, tuple rows
TABLES = st.one_of(
    st.integers(0, 4).flatmap(lambda w: st.lists(st.lists(TEXT, min_size=w, max_size=w),
                                                 max_size=6)),
    st.lists(st.lists(TEXT, max_size=4), max_size=6),
    st.lists(st.tuples(TEXT, TEXT), max_size=4),
)
TREES = st.recursive(
    st.one_of(SCALARS, TABLES),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    ),
    max_leaves=16,
)
DOCS = st.dictionaries(st.one_of(TEXT, st.just("timing")), TREES, max_size=6)


@lru_cache(maxsize=None)
def cover_rows(big_k: int, s: F = F(8, 5)):
    """cover_rects of the cover at gamma = 2**-big_k: hyperbolic_cover's up to
    big_k = 18, a hand-built one beyond.  Shared between examples, which
    only read it."""
    return cover_rects(hyperbolic_cover(F(1, 1 << big_k), s)[0] if big_k < 19
                       else wide_cover(big_k))


# a cover's CoverRows, which render_json writes itself, past DECIMAL_MAX_BITS
# too; plain lists of grid-string rows, or any table, which json.dumps writes
RECTS = st.one_of(
    st.builds(cover_rows, st.integers(0, 12), st.sampled_from((F(3, 2), F(8, 5), F(2)))),
    st.sampled_from((DECIMAL_MAX_BITS, DECIMAL_MAX_BITS + 1, DECIMAL_MAX_BITS + 40))
    .map(cover_rows),
    st.lists(st.lists(st.from_regex(RATIONAL, fullmatch=True), min_size=1, max_size=4),
             max_size=6),
    TABLES,
)


def cover_doc(rects, **rest) -> dict:
    """A report whose multiplicative cover holds ``rects``."""
    return {**rest, "results": {"multiplicative": {"cover": {"rects": rects, "n": 1}}}}


ROWS = [["1/4", "0", "1/2"], ["0", "1/4", "1/2"]]


@settings(max_examples=200, deadline=None)
@given(doc=st.one_of(DOCS, st.builds(lambda rest, rects: cover_doc(rects, **rest), DOCS, RECTS)),
       canonical=st.booleans())
# plain lists, which json.dumps writes: an empty row, cells that json
# escapes, a cell that is not a str, tuple rows, ragged rows
@example(doc=cover_doc([[]]), canonical=False)
@example(doc=cover_doc([["a"], []]), canonical=False)
@example(doc=cover_doc([["a", "b"], ["c"]]), canonical=False)
@example(doc=cover_doc([["a", '"']]), canonical=False)
@example(doc=cover_doc([["\\"], ["a"]]), canonical=False)
@example(doc=cover_doc([["a\nb"]]), canonical=False)
@example(doc=cover_doc([["\x7f"]]), canonical=False)
@example(doc=cover_doc([["a", "é"]]), canonical=True)
@example(doc=cover_doc([["a", 1]]), canonical=False)
@example(doc=cover_doc([("a", "b"), ("c", "d")]), canonical=False)
# no rows, or no cover path of dicts: json.dumps writes the whole report
@example(doc=cover_doc([]), canonical=True)
@example(doc={"results": [ROWS]}, canonical=False)
@example(doc={"results": {"multiplicative": None}}, canonical=True)
@example(doc={"results": {"multiplicative": {"cover": ROWS}}}, canonical=True)
@example(doc={"results": {"multiplicative": {"cover": {"rects": "0"}}}}, canonical=True)
# a second "rects": [] in the dump, before or after the cover's: json.dumps
# writes the whole report, a CoverRows's rows too
@example(doc=cover_doc(cover_rows(5), config={"rects": []}), canonical=False)
@example(doc=cover_doc(cover_rows(6), config={"rects": []}), canonical=True)
@example(doc={**cover_doc(cover_rows(7)), "warnings": {"rects": []}}, canonical=False)
@example(doc=cover_doc(cover_rows(4), config={'x"rects': []}), canonical=True)
@example(doc=cover_doc(ROWS, config={"rects": []}), canonical=False)
@example(doc=cover_doc(ROWS, config={"rects": []}), canonical=True)
@example(doc={**cover_doc(ROWS), "warnings": {"rects": []}}, canonical=False)
@example(doc=cover_doc(ROWS, config={'x"rects': []}), canonical=True)
# a non-canonical report keeps its timing; a canonical one drops it
@example(doc=cover_doc(ROWS, timing={"run": 0.5}), canonical=False)
@example(doc=cover_doc(ROWS, timing={"run": 0.5}), canonical=True)
@example(doc=cover_doc(cover_rows(3), timing={"run": 0.5}), canonical=False)
# the cover at K = 0, its corner row alone, and one past DECIMAL_MAX_BITS
@example(doc=cover_doc(cover_rows(0)), canonical=True)
@example(doc=cover_doc(cover_rows(DECIMAL_MAX_BITS + 1)), canonical=False)
def test_render_json_is_json_dumps(doc, canonical):
    assert render_json(doc, canonical) == reference_json(doc, canonical)


@pytest.mark.parametrize("last", [["a", '"'], ["\\"], ["a\nb"], ["\x7f"], ["é"], ["0", None],
                                  [], ("0", "1")],
                         ids=["quote", "backslash", "newline", "del", "non-ascii", "none",
                              "empty", "tuple"])
def test_long_table_with_one_bad_row(last):
    # a long plain list, which json.dumps writes whatever its last rows hold
    table = [[str(i), "0", "1/2"] for i in range(10_000)]
    table[-2] = last
    doc = cover_doc(table)
    assert render_json(doc) == reference_json(doc, False)


def _strings(node):
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from _strings(value)
    elif isinstance(node, list):
        for value in node:
            yield from _strings(value)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_canonical_report_round_trips(config):
    report, _ = run(load_config(str(config)), canonical=True)
    assert json.loads(render_json(report, True)) == report
    exact = [s for s in _strings(report) if RATIONAL.fullmatch(s)]
    assert exact
    for s in exact:
        x = parse_rational(s)
        written = dyadic_str(DirectedReal.from_fraction(x, None, EXACT)) if "*2^" in s \
            else fraction_str(x)
        assert written == s
    mult = report["results"].get("multiplicative")
    if mult and mult["cover"]:
        assert all(RATIONAL.fullmatch(v) for row in mult["cover"]["rects"] for v in row)


@pytest.mark.parametrize("config", [c for c in CONFIGS if c.stem.startswith("multiplicative")],
                         ids=lambda p: p.stem)
@pytest.mark.parametrize("canonical", [False, True])
def test_cover_rows_render_as_their_plain_list(config, canonical):
    # the column writer against json.dumps of the same rows as a plain list
    report, _ = run(load_config(str(config)), canonical)
    cover = report["results"]["multiplicative"]["cover"]
    plain = {**report, "results": {**report["results"], "multiplicative": {
        **report["results"]["multiplicative"], "cover": {**cover, "rects": list(cover["rects"])}}}}
    assert isinstance(cover["rects"], CoverRows)
    assert type(plain["results"]["multiplicative"]["cover"]["rects"]) is list
    assert render_json(report, canonical) == render_json(plain, canonical)


@pytest.mark.parametrize("e", range(8))
def test_grid_run_is_grid_str(e):
    # every run j0..j1-1, with odd and even ends, including the empty run
    for j0 in range(34):
        for j1 in range(j0, 34):
            assert _grid_run(j0, j1, e) == [grid_str(j, e) for j in range(j0, j1)], (j0, j1)
