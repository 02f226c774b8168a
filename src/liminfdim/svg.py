"""Minimal self-contained SVG emission: no styles, no external references.

Output starts with the ``<svg>`` root element and formats every coordinate
through one fixed code path, so identical inputs give identical bytes.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

_MARGIN = 56.0
_WIDTH = 640.0
_HEIGHT = 480.0


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


def _el(tag: str, **attrs: object) -> str:
    parts = " ".join(f'{k.replace("_", "-")}="{v}"' for k, v in attrs.items())
    return f"<{tag} {parts}/>"


def _text(x: float, y: float, s: str, size: int = 12, anchor: str = "middle") -> str:
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'font-family="monospace" text-anchor="{anchor}">{s}</text>')


class Plot:
    """Line plot on a fixed canvas; the y axis may be log2-scaled."""

    def __init__(self, title: str, xlabel: str, ylabel: str, ylog: bool = False):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.ylog = ylog
        self.series: list[tuple[str, str, list[tuple[float, float]]]] = []
        self.hlines: list[tuple[float, str]] = []

    def add_series(self, label: str, points: Sequence[tuple[float, float]],
                   color: str = "black") -> None:
        pts = [(x, math.log2(y) if self.ylog else y) for x, y in points]
        self.series.append((label, color, pts))

    def add_hline(self, y: float, label: str) -> None:
        self.hlines.append((math.log2(y) if self.ylog else y, label))

    def render(self) -> str:
        xs = [p[0] for _, _, pts in self.series for p in pts]
        ys = [p[1] for _, _, pts in self.series for p in pts]
        ys += [y for y, _ in self.hlines]
        if not xs:
            raise ValueError("nothing to plot")
        if not all(map(math.isfinite, xs + ys)):
            raise ValueError("cannot plot a value that is not a finite double")
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 == x0:
            x1 = x0 + 1
        if y1 == y0:
            y1 = y0 + 1
        pad_y = 0.05 * (y1 - y0)
        y0, y1 = y0 - pad_y, y1 + pad_y
        # a span past the double range would scale every point to nan, and
        # one lost to rounding (x0 + 1 == x0 for a huge x0) would divide by 0
        if not (0 < x1 - x0 < math.inf and 0 < y1 - y0 < math.inf):
            raise ValueError("plot range out of the double range")
        inner_w = _WIDTH - 2 * _MARGIN
        inner_h = _HEIGHT - 2 * _MARGIN

        def sx(x: float) -> float:
            return _MARGIN + (x - x0) / (x1 - x0) * inner_w

        def sy(y: float) -> float:
            return _HEIGHT - _MARGIN - (y - y0) / (y1 - y0) * inner_h

        parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_WIDTH)}" '
                 f'height="{int(_HEIGHT)}" viewBox="0 0 {int(_WIDTH)} {int(_HEIGHT)}">']
        parts.append(_el("rect", x=0, y=0, width=int(_WIDTH), height=int(_HEIGHT),
                         fill="white"))
        # axes
        parts.append(_el("line", x1=_fmt(_MARGIN), y1=_fmt(_HEIGHT - _MARGIN),
                         x2=_fmt(_WIDTH - _MARGIN), y2=_fmt(_HEIGHT - _MARGIN),
                         stroke="black"))
        parts.append(_el("line", x1=_fmt(_MARGIN), y1=_fmt(_MARGIN),
                         x2=_fmt(_MARGIN), y2=_fmt(_HEIGHT - _MARGIN), stroke="black"))
        for t in range(5):
            fx = x0 + (x1 - x0) * t / 4
            fy = y0 + (y1 - y0) * t / 4
            parts.append(_text(sx(fx), _HEIGHT - _MARGIN + 16, _fmt(fx), size=10))
            parts.append(_text(_MARGIN - 8, sy(fy) + 4, _fmt(fy), size=10, anchor="end"))
        ytag = " (log2)" if self.ylog else ""
        parts.append(_text(_WIDTH / 2, _HEIGHT - 12, self.xlabel))
        parts.append(_text(16, _HEIGHT / 2, self.ylabel + ytag, anchor="middle"))
        parts.append(_text(_WIDTH / 2, 24, self.title, size=14))
        for y, label in self.hlines:
            parts.append(_el("line", x1=_fmt(_MARGIN), y1=_fmt(sy(y)),
                             x2=_fmt(_WIDTH - _MARGIN), y2=_fmt(sy(y)),
                             stroke="gray", stroke_dasharray="6,3"))
            parts.append(_text(_WIDTH - _MARGIN + 4, sy(y) + 4, label, size=10,
                               anchor="start"))
        for idx, (label, color, pts) in enumerate(self.series):
            path = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
            parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
            for x, y in pts:
                parts.append(_el("circle", cx=_fmt(sx(x)), cy=_fmt(sy(y)), r=2.5,
                                 fill=color))
            parts.append(_text(_WIDTH - _MARGIN - 4, _MARGIN + 14 + 14 * idx,
                               label, size=11, anchor="end"))
            parts.append(_el("line", x1=_fmt(_WIDTH - _MARGIN - 100),
                             y1=_fmt(_MARGIN + 10 + 14 * idx),
                             x2=_fmt(_WIDTH - _MARGIN - 70),
                             y2=_fmt(_MARGIN + 10 + 14 * idx), stroke=color,
                             stroke_width=2))
        parts.append("</svg>")
        return "\n".join(parts) + "\n"


def square_overlay(title: str, squares: Iterable[tuple[float, float, float]],
                   curve: Optional[Sequence[tuple[float, float]]] = None) -> str:
    """Unit square with one rectangle per cover square and an optional curve."""
    side = 520.0
    off = 60.0

    def sx(x: float) -> float:
        return off + x * side

    def sy(y: float) -> float:
        return off + (1 - y) * side

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
             f'viewBox="0 0 640 640">']
    parts.append(_el("rect", x=0, y=0, width=640, height=640, fill="white"))
    parts.append(_el("rect", x=_fmt(off), y=_fmt(off), width=_fmt(side),
                     height=_fmt(side), fill="none", stroke="black"))
    parts.append(_text(320, 32, title, size=14))
    for (x, y, s) in squares:
        parts.append(_el("rect", x=_fmt(sx(x)), y=_fmt(sy(y + s)),
                         width=_fmt(s * side), height=_fmt(s * side),
                         fill="none", stroke="steelblue"))
    if curve:
        path = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in curve)
        parts.append(f'<polyline points="{path}" fill="none" stroke="crimson" '
                     f'stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
