"""Report assembly and serialisation, and the exact-number codec.

Every numeric result is serialised as its certified range in exact form
(rationals as 'p/q', dyadics as 'm*2^e') next to float renderings for
humans.  Integers (terms, counts, config keys, and the parts of 'p/q' and
'm*2^e') are written in decimal up to ``DECIMAL_MAX_BITS`` bits and as
'0x...' hex beyond, so no report runs into the interpreter's limit on
int-to-decimal conversion; ``parse_rational`` reads every form back, in
reports and config files alike.  Canonical mode drops the timing block and
sorts keys, making reports byte-identical across runs of the same
configuration.  ``render_json`` writes the bytes ``json.dumps(report,
indent=2, sort_keys=canonical)`` would write, with its own renderer: a table
of strings none of which needs escaping, as a cover's ``rects``, is written
one join per row, its quotes held in the separators, with no encoder step
per string.  ``cover_rects`` writes those rows from the cover's columns,
each column's strings in closed form, and ``cover_csv`` joins them into
``cover.csv``.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from typing import Union

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
    """n / 2**big_k for n >= 0, written as fraction_str writes it."""
    shift = min(big_k, (n & -n).bit_length() - 1) if n else big_k
    num = int_json(n >> shift)
    return f"{num}" if shift == big_k else f"{num}/{int_json(1 << (big_k - shift))}"


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


def cover_rects(cover: SquareCover) -> list[list[str]]:
    """[grid_str(v, K) for v in square] for each of the cover's squares, in
    order.  A column's x values are written in closed form: x0 and x are
    multiples of side = 2**(k+1), so x / 2**K = j / 2**(K-k-1) with
    j = x / side.  The strings "0" and a column's side are shared by its rows;
    its rows [x, "0", side] and ["0", x, side] are two list comprehensions,
    placed into alternate slots.  Past DECIMAL_MAX_BITS, and for a lone square
    off its side's grid, each x goes through grid_str."""
    big_k = cover.big_k
    rects: list = [None] * cover.total_squares()
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
        i = end
    rects[i] = ["0", "0", grid_str(cover.corner, big_k)]
    return rects


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


# rows per step of _plain_table, which copies one step's cells, never the whole table's
_TABLE_BATCH = 4096


def _plain_table(node) -> bool:
    """True when every item of the list node is a non-empty list of str cells
    none of which needs escaping, so json.dumps writes each cell as itself
    in quotes.  Checked in C, a batch of rows at a time."""
    for i in range(0, len(node), _TABLE_BATCH):
        rows = node[i:i + _TABLE_BATCH]
        if set(map(type, rows)) != {list} or not all(rows):
            return False
        try:
            text = "".join(chain.from_iterable(rows))
        except TypeError:  # a cell that is not a str
            return False
        if len(_json_str(text)) != len(text) + 2:  # an escaped character writes 2+ chars
            return False
    return True


def _chunks(node, pad: str, sort_keys: bool, out: list[str]) -> None:
    """Append node to out as ``json.dumps(node, indent=2, sort_keys=sort_keys)``
    writes it when nested where a newline and indent read ``pad``.  Keys must
    be strings.  Chunks, not one string per container, so that a large table
    is copied once, by the caller's final join.  A table ``_plain_table``
    accepts, as a cover's rects, is written one join per row (rows may differ
    in length), the quotes held in the separators."""
    if isinstance(node, str):
        out.append(_json_str(node))
        return
    if not isinstance(node, (dict, list, tuple)):
        out.append(json.dumps(node))
        return
    if not node:
        out.append("{}" if isinstance(node, dict) else "[]")
        return
    inner = pad + "  "
    if isinstance(node, dict):
        sep = "{" + inner
        for key, value in sorted(node.items()) if sort_keys else node.items():
            out.append(f"{sep}{_json_str(key)}: ")
            _chunks(value, inner, sort_keys, out)
            sep = "," + inner
        out.append(pad + "}")
        return
    if _plain_table(node):
        cell = inner + "  "
        out.append("[" + inner + "[" + cell + '"')
        out.append(('"' + inner + "]," + inner + "[" + cell + '"').join(
            map(('",' + cell + '"').join, node)))
        out.append('"' + inner + "]" + pad + "]")
        return
    sep = "[" + inner
    for item in node:
        out.append(sep)
        _chunks(item, inner, sort_keys, out)
        sep = "," + inner
    out.append(pad + "]")


def render_json(report: dict, canonical: bool = False) -> str:
    """The report as ``json.dumps(report, indent=2, sort_keys=canonical)``
    writes it, plus a newline; canonical mode drops ``timing``."""
    doc = dict(report)
    if canonical:
        doc.pop("timing", None)
    out: list[str] = []
    _chunks(doc, "\n", canonical, out)
    out.append("\n")
    return "".join(out)


def parse_json(text: str) -> dict:
    return json.loads(text)


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


def cover_csv(rects: list[list[str]]) -> str:
    """The rows of a cover's rects under an 'x,y,side' header; no grid string
    holds a character that needs quoting."""
    return "\n".join(chain(("x,y,side",), map(",".join, rects), ("",)))


def dimension_csv(series: list[dict]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["depth", "lower_lo", "lower_hi", "upper_lo", "upper_hi"])
    for row in series:
        w.writerow([row["depth"],
                    row["lower"]["lo_float"], row["lower"]["hi_float"],
                    row["upper"]["lo_float"], row["upper"]["hi_float"]])
    return buf.getvalue()
