"""Report assembly and serialisation, and the exact-number codec.

Every numeric result is serialised as its certified range in exact form
(rationals as 'p/q', dyadics as 'm*2^e') next to float renderings for
humans.  Integers (terms, counts, config keys, and the parts of 'p/q' and
'm*2^e') are written in decimal up to ``DECIMAL_MAX_BITS`` bits and as
'0x...' hex beyond, so no report runs into the interpreter's limit on
int-to-decimal conversion; ``parse_rational`` reads every form back, in
reports and config files alike.  Canonical mode drops the timing block and
sorts keys, making reports byte-identical across runs of the same
configuration.  ``cover_rects`` writes a cover's rows as a ``CoverRows``,
each column's strings in closed form, and keeps those strings with the rows.
``render_json`` is ``json.dumps(report, indent=2, sort_keys=canonical)`` but
for those rows, which it writes column by column into the dump's
``"rects": []``, the quotes held in the separators; the bytes are the same.
``cover_csv`` writes ``cover.csv`` from the same strings.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterator, Optional, Union

from .cantor import HolderCertificate
from .level_sets import CertifiedCount, LevelStats
from .multiplicative import SquareCover
from .numerics import DirectedReal, Enclosure
from .sequences import ExponentStats, RegimeResult


# floor(4300 * log2(10)): an integer of at most this many bits has at most
# 4300 decimal digits, the interpreter's default limit for int-to-str
# conversion, so every report that printed before keeps its decimal form.
# Fixed: the form does not follow the process-wide setting.
DECIMAL_MAX_BITS = 14284


def int_json(n: int) -> Union[int, str]:
    """n itself up to DECIMAL_MAX_BITS bits, else its '0x...' hex string;
    ``int(s, 0)`` reads either form back."""
    return n if n.bit_length() <= DECIMAL_MAX_BITS else hex(n)


def _parse_int(text: str) -> int:
    """A decimal integer, or a '0x...' / '-0x...' hex one as int_json writes it."""
    text = text.strip()
    return int(text, 16) if text.lstrip("+-")[:2].lower() == "0x" else int(text)


def parse_rational(text: str) -> Fraction:
    """Exact rational from 'p', 'p/q' or 'm*2^e'; decimals are rejected.

    p, q and m may also be written in hex ('0x...'), as reports write
    integers too long for decimal.
    """
    text = text.strip()
    if "." in text:
        raise ValueError(f"decimal floats are not exact, write '{text}' as p/q or m*2^e")
    if "*2^" in text:
        m_str, e_str = text.split("*2^", 1)
        return Fraction(_parse_int(m_str)) * Fraction(2) ** int(e_str)
    if "/" in text:
        num, den = map(_parse_int, text.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in '{text}'")
        return Fraction(num, den)
    return Fraction(_parse_int(text))


def fraction_str(x: Fraction) -> str:
    x = Fraction(x)
    num = int_json(x.numerator)
    return f"{num}" if x.denominator == 1 else f"{num}/{int_json(x.denominator)}"


def dyadic_str(d: DirectedReal) -> str:
    return f"{int_json(d.mantissa)}*2^{d.exponent}"


def grid_str(n: int, big_k: int) -> str:
    """n / 2**big_k as fraction_str writes it: a cover's grid value."""
    return fraction_str(Fraction(n, 1 << big_k))


def _grid_run(j0: int, j1: int, e: int) -> list[str]:
    """j / 2**e for j = j0..j1-1 (0 <= j0 <= j1), written as grid_str writes
    them in decimal: odd j as 'j/2**e', even j as the run of j/2 over 2**(e-1).
    Each string is placed once, into the slice of its parity."""
    if e == 0 or j0 == j1:
        return list(map(str, range(j0, j1)))
    out = [""] * (j1 - j0)
    odd = j0 | 1
    out[odd - j0::2] = map(f"{{}}/{1 << e}".format, range(odd, j1, 2))
    a = j0 + (j0 & 1)
    out[a - j0::2] = _grid_run(a >> 1, (j1 + 1) >> 1, e - 1)
    return out


class CoverRows(list):
    """A cover's [x, y, side] string rows, equal to and dumped by ``json`` as
    that plain list, which also keeps ``columns``, one (xs, side) pair per
    column whose rows are [x, "0", side] and ["0", x, side] for each x, and
    ``corner``, the last row's side.  ``render_json`` and ``cover_csv`` write
    the rows from these: no code may change it once ``cover_rects`` returns it."""

    __slots__ = ("columns", "corner")


def cover_rects(cover: SquareCover) -> CoverRows:
    """[grid_str(v, K) for v in square] for each of the cover's squares, in
    order.  A column's x values are written in closed form: x0 and x are
    multiples of side = 2**(k+1), so x / 2**K = j / 2**(K-k-1) with
    j = x / side.  A column's strings are shared by its rows and kept with
    them.  Past DECIMAL_MAX_BITS, and for a lone square off its side's grid,
    each x goes through grid_str."""
    big_k = cover.big_k
    rects = CoverRows(repeat(None, cover.total_squares()))
    rects.columns = []
    i = 0
    for k, side, count, x0 in cover.columns:
        s = grid_str(side, big_k)
        if big_k > DECIMAL_MAX_BITS or x0 % side:
            xs = [grid_str(x, big_k) for x in range(x0, x0 + count * side, side)]
        else:
            xs = _grid_run(x0 // side, x0 // side + count, big_k - k - 1)
        end = i + 2 * count
        rects[i:end:2] = [[x, "0", s] for x in xs]
        rects[i + 1:end:2] = [["0", x, s] for x in xs]
        rects.columns.append((xs, s))
        i = end
    rects.corner = grid_str(cover.corner, big_k)
    rects[i] = ["0", "0", rects.corner]
    return rects


def _columns(rows: CoverRows, sep_a: str, sep_b: str) -> Iterator[str]:
    """Each column's rows as one join of x, sep_a, x, sep_b for each of its x,
    the column's side string put in place of both separators' '{}'."""
    for xs, s in rows.columns:
        parts = [None, sep_a.format(s), None, sep_b.format(s)] * len(xs)
        parts[::4] = parts[2::4] = xs
        yield "".join(parts)


def enclosure_json(enc: Enclosure) -> dict:
    return {
        "lo": dyadic_str(enc.lo),
        "hi": dyadic_str(enc.hi),
        "lo_float": float(enc.lo),
        "hi_float": float(enc.hi),
        "exact": enc.is_exact,
    }


def value_json(v: Union[Enclosure, Fraction]) -> dict:
    if isinstance(v, Enclosure):
        return enclosure_json(v)
    return {"exact_value": fraction_str(v), "float": float(v)}


def count_json(c: CertifiedCount) -> dict:
    return {"min": int_json(c.min), "max": int_json(c.max)}


def stats_json(stats: ExponentStats, regime: RegimeResult) -> dict:
    return {
        "h_list": [enclosure_json(h) for h in stats.h_list],
        "alpha_list": [enclosure_json(a) for a in stats.alpha_list],
        "h_prefix": enclosure_json(stats.h_prefix) if stats.h_prefix else None,
        "alpha_last": enclosure_json(stats.alpha_last) if stats.alpha_last else None,
        "regime": {"status": regime.status.value, "index": regime.index},
    }


def level_stats_json(st: LevelStats) -> dict:
    return {
        "level": st.level,
        "q": int_json(st.q),
        "count": count_json(st.count),
        "per_coord": [count_json(c) for c in st.per_coord],
        "max_len": fraction_str(st.max_len),
        "max_len_float": float(st.max_len),
        "min_gap": fraction_str(st.min_gap) if st.min_gap is not None else None,
        "total_len": fraction_str(st.total_len),
        "total_len_float": float(st.total_len),
    }


def cover_report_json(report) -> dict:
    """Flat serialisation of a box-cover report (dimension module)."""
    dim = report.dim_estimate()
    return {
        "J": report.depth,
        "N_min": int_json(report.count.min),
        "N_max": int_json(report.count.max),
        "side_lo": dyadic_str(report.side.lo),
        "side_hi": dyadic_str(report.side.hi),
        "side_lo_float": float(report.side.lo),
        "side_hi_float": float(report.side.hi),
        "dim_lo": dyadic_str(dim.lo),
        "dim_hi": dyadic_str(dim.hi),
        "dim_lo_float": float(dim.lo),
        "dim_hi_float": float(dim.hi),
    }


def certificate_json(cert: HolderCertificate) -> dict:
    return {
        "s": fraction_str(cert.s),
        "n": int_json(cert.samples),
        "seed": int_json(cert.seed),
        "max_ratio": fraction_str(cert.max_ratio),
        "max_ratio_float": cert.max_ratio_float(),
        "worst_ball": {
            "center": [fraction_str(c) for c in cert.worst_ball.center],
            "radius": enclosure_json(cert.worst_ball.radius),
        },
    }


# what json.dumps writes for a cover's rects once they are emptied
_EMPTY_RECTS = '"rects": []'


def _with_rects(doc: dict, canonical: bool) -> Optional[str]:
    """``json.dumps(doc, indent=2, sort_keys=canonical)`` and a newline, the
    rows of ``results.multiplicative.cover.rects`` written by the package:
    doc is dumped with ``rects`` empty and the rows, column by column with
    the quotes and indentation held in the separators, put in place of that
    one ``"rects": []``.  None when that path is not all dicts, ``rects`` is
    not a ``CoverRows``, or the dump holds ``"rects": []`` elsewhere too."""
    keys = ("results", "multiplicative", "cover")
    path = [doc]
    for key in keys:
        path.append(path[-1].get(key))
        if not isinstance(path[-1], dict):
            return None
    rows = path[-1].get("rects")
    if not isinstance(rows, CoverRows):
        return None
    node = {**path[-1], "rects": []}
    for parent, key in zip(reversed(path[:-1]), reversed(keys)):
        node = {**parent, key: node}   # copies: the caller's report is not changed
    head, _, tail = json.dumps(node, indent=2, sort_keys=canonical).partition(_EMPTY_RECTS)
    if _EMPTY_RECTS in tail:
        return None
    pad = head[head.rfind("\n"):]     # the newline and indent of the key's line
    inner = pad + "  "
    cell = inner + "  "
    sep_b = '",' + cell + '"{}"' + inner + "]," + inner + "[" + cell + '"'  # side, next row
    sep_a = '",' + cell + '"0' + sep_b + '0",' + cell + '"'
    return "".join(chain((head, '"rects": [', inner, "[", cell, '"'), _columns(rows, sep_a, sep_b),
                         ('0",', cell, '"0",', cell, '"', rows.corner, '"', inner, "]", pad, "]",
                          tail, "\n")))


def render_json(report: dict, canonical: bool = False) -> str:
    """The report as ``json.dumps(report, indent=2, sort_keys=canonical)``
    writes it, plus a newline; canonical mode drops ``timing``.  A cover's
    rects, the one large table of a report, are written by ``_with_rects``."""
    doc = dict(report)
    if canonical:
        doc.pop("timing", None)
    return _with_rects(doc, canonical) or json.dumps(doc, indent=2, sort_keys=canonical) + "\n"


# ---------------------------------------------------------------------------
# CSV renderings
# ---------------------------------------------------------------------------

def levels_csv(levels: list[dict]) -> str:
    """Float renderings for spreadsheets; exact strings live in the JSON."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["level", "count_min", "count_max", "max_len", "min_gap", "total_len"])
    for st in levels:
        gap = st["min_gap"]
        w.writerow([st["level"], st["count"]["min"], st["count"]["max"],
                    st["max_len_float"],
                    float(parse_rational(gap)) if gap is not None else "",
                    st["total_len_float"]])
    return buf.getvalue()


def cover_csv(rects: CoverRows) -> str:
    """The rows of a cover's rects under an 'x,y,side' header, written from
    its columns; no grid string holds a character that needs quoting."""
    return "".join(chain(("x,y,side\n",), _columns(rects, ",0,{}\n0,", ",{}\n"),
                         ("0,0,", rects.corner, "\n")))


def dimension_csv(series: list[dict]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["depth", "lower_lo", "lower_hi", "upper_lo", "upper_hi"])
    for row in series:
        w.writerow([row["depth"],
                    row["lower"]["lo_float"], row["lower"]["hi_float"],
                    row["upper"]["lo_float"], row["upper"]["hi_float"]])
    return buf.getvalue()
