"""Exact one-dimensional level sets on the torus and their intersections.

A level set for modulus q is the union of q open arcs centred at the shifted
rationals (p + theta)/q.  Irrational radii are handled by a sandwich: every
set is stored as an inner and an outer union of arcs with endpoints on a
common dyadic grid, and the true set always lies between them.  All endpoint
arithmetic is exact integer arithmetic on that grid, so intersections,
component counts, lengths and gaps are certified, never approximated.

Higher-dimensional boxes are coordinate products of these 1-d sets and are
never materialised; see ``prefix_intersection``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import ceil, gcd
from operator import add, floordiv, itemgetter
from typing import Iterable, Optional, Sequence

from .numerics import (Enclosure, _resolve_prec, _shift_ceil, _shift_floor, check_root_size,
                       dir_pow)
from .sequences import QSequence


class BudgetExceededError(RuntimeError):
    """Component budget would be exceeded; carries the partial result."""

    def __init__(self, level: int, partial: Optional["PrefixResult"] = None):
        super().__init__(f"component budget exceeded while building level {level}")
        self.level = level
        self.partial = partial


class IndeterminateRadiusError(ArithmeticError):
    """A level cannot be certified: its radius enclosure straddles 1/(2q), or
    its outer arcs overlap.  ``prefix_intersection`` sets ``level`` and
    ``partial`` (the levels before it, None at level 1)."""

    level: Optional[int] = None
    partial: Optional["PrefixResult"] = None


DEFAULT_COMPONENT_BUDGET = 10 ** 7


@dataclass(frozen=True)
class CertifiedCount:
    """Integer range certified to contain the true count."""

    min: int
    max: int

    def __post_init__(self) -> None:
        if self.min > self.max:
            raise ValueError(f"inverted count range [{self.min}, {self.max}]")

    def __mul__(self, other: "CertifiedCount") -> "CertifiedCount":
        return CertifiedCount(self.min * other.min, self.max * other.max)


@dataclass(frozen=True)
class LevelParams:
    """Shift vector, shrinking exponent and dimension for a family of levels.

    The level radius of modulus q, the half-width of its arcs in x-space, is
    q**-(1+tau).
    """

    theta: tuple[Fraction, ...]
    tau: Fraction
    d: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", tuple(Fraction(t) for t in self.theta))
        object.__setattr__(self, "tau", Fraction(self.tau))
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.theta) != self.d:
            raise ValueError(f"need {self.d} shift components, got {len(self.theta)}")
        for t in self.theta:
            if not 0 <= t < 1:
                raise ValueError(f"shift components must lie in [0,1), got {t}")
        if self.tau <= 0:
            raise ValueError("tau must be positive")

    def check_roots(self, prec: int, term_bits: int) -> None:
        """Raise ValueError when tau's denominator makes the roots of
        q**-(1+tau), for terms q of up to ``term_bits`` bits, too large
        (``check_root_size``)."""
        check_root_size(self.tau.denominator, prec, ceil((1 + self.tau) * term_bits))

    def radius_enclosure(self, q: int, prec: Optional[int] = None) -> Enclosure:
        """The level radius q**-(1+tau), rounded outward at prec bits."""
        return dir_pow(q, -(1 + self.tau), prec)

    def grid(self, terms: Sequence[int], prec: int) -> tuple[int, list[tuple[int, int]]]:
        """(scale, [(r_lo, r_hi), ...]): the radii of ``terms`` as integers on
        one grid of 2**scale points, fine enough to hold every radius
        endpoint exactly, each rounded inward (r_lo) and outward (r_hi)."""
        radii = [self.radius_enclosure(q, prec) for q in terms]
        scale = _scale_for(radii, prec)
        return scale, [_radius_grid(r, scale) for r in radii]


# ---------------------------------------------------------------------------
# Arc lists: unions of disjoint open arcs with endpoints on a dyadic grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArcList:
    """Sorted disjoint open arcs on the torus, endpoints integers / 2**scale.

    An arc (lo, hi) means the open set {x mod 1 : lo < x * 2**scale < hi};
    hi may exceed 2**scale for at most the last arc (wrap across 0).
    Touching arcs stay separate: their shared endpoint belongs to neither,
    which preserves exact component counts.

    ``total_length``, ``max_length`` and ``min_gap`` walk the arcs, except
    on the outer lists ``build_level`` returns: their builder computes the
    three, in grid units, while it makes the runs and keeps them in
    ``_stats``.
    """

    scale: int
    arcs: tuple[tuple[int, int], ...]
    full: bool = False
    # (total length, largest arc, smallest gap) in grid units; not an
    # argument, so a list made by ``dataclasses.replace`` walks its own arcs
    _stats: Optional[tuple[int, int, int]] = field(
        default=None, init=False, compare=False, repr=False)

    @property
    def size(self) -> int:
        return 1 << self.scale

    @property
    def count(self) -> int:
        return 1 if self.full else len(self.arcs)

    def wraps(self) -> bool:
        return bool(self.arcs) and self.arcs[-1][1] > self.size

    @staticmethod
    def full_circle(scale: int) -> "ArcList":
        return ArcList(scale, (), full=True)

    def validate(self) -> None:
        """Invariant check used by the tests."""
        if self.full:
            assert not self.arcs
            return
        size = self.size
        prev_hi = None
        for i, (lo, hi) in enumerate(self.arcs):
            assert 0 <= lo < size, (lo, size)
            assert lo < hi <= lo + size
            assert hi <= size or i == len(self.arcs) - 1, "only the last arc may wrap"
            if prev_hi is not None:
                assert lo >= prev_hi, "arcs must be sorted and disjoint"
            prev_hi = hi
        if self.wraps():
            tail = self.arcs[-1][1] - size
            assert tail <= self.arcs[0][0], "wrapped arc overlaps the first arc"

    def rescale(self, scale: int) -> "ArcList":
        if scale == self.scale:
            return self
        if scale < self.scale:
            raise ValueError("can only rescale to a finer grid")
        k = scale - self.scale
        return ArcList(scale, tuple((lo << k, hi << k) for lo, hi in self.arcs), self.full)

    def total_length(self) -> Fraction:
        if self.full:
            return Fraction(1)
        if self._stats is not None:
            return Fraction(self._stats[0], self.size)
        return Fraction(sum(hi - lo for lo, hi in self.arcs), self.size)

    def max_length(self) -> Fraction:
        if self.full:
            return Fraction(1)
        if self._stats is not None:
            return Fraction(self._stats[1], self.size)
        if not self.arcs:
            return Fraction(0)
        return Fraction(max(hi - lo for lo, hi in self.arcs), self.size)

    def min_gap(self) -> Optional[Fraction]:
        """Smallest gap between consecutive arcs around the circle."""
        if self.full or not self.arcs:
            return None
        if self._stats is not None:
            return Fraction(self._stats[2], self.size)
        gaps = [self.arcs[i + 1][0] - self.arcs[i][1] for i in range(len(self.arcs) - 1)]
        gaps.append(self.arcs[0][0] + self.size - self.arcs[-1][1])
        return Fraction(min(gaps), self.size)

    def intersect(self, other: "ArcList") -> "ArcList":
        scale = max(self.scale, other.scale)
        a, b = self.rescale(scale), other.rescale(scale)
        if a.full:
            return b
        if b.full:
            return a
        # every arc of the shorter list, taken as a window, finds by bisection
        # the arcs of the other that meet it, shifted back one circle, as they
        # are, and on one circle (in that order, so the pieces stay sorted),
        # and cuts them to itself; parts past 0 go to the front
        if len(a.arcs) > len(b.arcs):
            a, b = b, a
        size = 1 << scale
        arcs = b.arcs
        if not arcs:
            return b
        first, last = arcs[0][0], arcs[-1][1]
        by_lo, by_hi = itemgetter(0), itemgetter(1)
        out: list[tuple[int, int]] = []
        for wlo, whi in a.arcs:
            for shift in (-size, 0, size):
                if first + shift >= whi or last + shift <= wlo:
                    continue  # the shifted copy misses the window
                i = bisect_right(arcs, wlo - shift, key=by_hi)
                j = bisect_left(arcs, whi - shift, i, key=by_lo)
                if i < j:
                    out += _clip(arcs[i:j] if not shift else
                                 [(lo + shift, hi + shift) for lo, hi in arcs[i:j]], wlo, whi)
        return _circle_order(scale, out)


def _clip(arcs: Iterable[tuple[int, int]], wlo: int, whi: int) -> list[tuple[int, int]]:
    """The arcs cut to the window (wlo, whi), empty parts dropped."""
    return [(lo, hi) for lo, hi in ((max(a, wlo), min(b, whi)) for a, b in arcs) if lo < hi]


def _circle_order(scale: int, out: list[tuple[int, int]],
                  stats: Optional[tuple[int, int, int]] = None) -> ArcList:
    """Arcs sorted by lower end in the unrolled frame, as an ArcList: those
    that start at or past 2**scale move, shifted back by it, to the front.
    The move keeps every length and, around the circle, every gap, so
    ``stats`` taken on ``out`` hold for the result.  ``out`` is the caller's
    scratch list and is cut short."""
    size = 1 << scale
    k = bisect_left(out, size, key=itemgetter(0))
    front = [(lo - size, hi - size) for lo, hi in out[k:]]
    del out[k:]
    arcs = ArcList(scale, tuple(front + out))
    object.__setattr__(arcs, "_stats", stats)
    return arcs


# ---------------------------------------------------------------------------
# Certified level sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorusIntervalSet:
    """Sandwich inner ⊆ E ⊆ outer of a torus set by two arc unions."""

    inner: ArcList
    outer: ArcList

    @property
    def count(self) -> CertifiedCount:
        if self.inner.full:
            return CertifiedCount(1, 1)
        return CertifiedCount(self.inner.count, self.outer.count)

    def intersect(self, other: "TorusIntervalSet") -> "TorusIntervalSet":
        return TorusIntervalSet(
            inner=self.inner.intersect(other.inner),
            outer=self.outer.intersect(other.outer),
        )

    def length_bounds(self) -> tuple[Fraction, Fraction]:
        return self.inner.total_length(), self.outer.total_length()

    def validate(self) -> None:
        self.inner.validate()
        self.outer.validate()


def _scale_for(radii: Sequence[Enclosure], prec: int) -> int:
    """Common grid scale fine enough to hold every radius endpoint exactly."""
    s = prec + 8
    for enc in radii:
        for dr in (enc.lo, enc.hi):
            s = max(s, -dr.exponent + 2)
    return s


def _radius_grid(enc: Enclosure, scale: int) -> tuple[int, int]:
    """Radius endpoints as grid integers, rounded inward/outward as needed."""
    lo, hi = enc.lo, enc.hi
    return (_shift_floor(lo.mantissa, lo.exponent + scale),
            _shift_ceil(hi.mantissa, hi.exponent + scale))


def residue_span(lo: int, hi: int, den: int, q: int, theta: Fraction) -> tuple[int, int]:
    """(first, last): the integers m with lo/den <= (m + theta)/q <= hi/den.

    m is not reduced mod q, so the centres stay in the window's own unrolled
    frame; first > last when no centre lies in the window.  den must be > 0.
    """
    tn, td = theta.numerator, theta.denominator
    step = td * den
    return -((tn * den - lo * q * td) // step), (hi * q * td - tn * den) // step


def _on_grid(rem: int, b: int, den: int, n: int) -> range:
    """The k in 0..n-1 with den dividing rem + k * b: the centres of a run
    that lie on the grid, centre k lying at (rem + k * b) / den mod 1."""
    g = gcd(b, den)
    if rem % g:
        return range(0)
    period = den // g
    return range(-(rem // g) * pow(b // g, -1, period) % period, n, period)


def _progression_stats(n: int, rem: int, r: int, den: int,
                       step: int) -> tuple[int, int, Optional[int]]:
    """Total length, largest arc and smallest gap (None when n = 1), in grid
    units, of n >= 1 consecutive outer arcs of one run, none of them cut.

    Centre k lies at (rem + k * step) / den on the grid, 0 <= rem < den.
    Its arc is (c - r, c + 1 + r) for c the centre rounded down, or
    (c - r, c + r) when the centre lies on the grid (``_on_grid``).  With
    (a, b) = divmod(step, den) and rem_k = (rem + k * b) mod den, the gap
    after arc k is a - 2r - 1 when 0 < rem_k < den - b, else a - 2r.
    """
    a, b = divmod(step, den)
    on_grid = len(_on_grid(rem, b, den, n))
    total, widest = n * (2 * r + 1) - on_grid, 2 * r + (on_grid < n)
    if n == 1:
        return total, widest, None
    # rem_k falls by den - b per arc while it is at least den - b and climbs
    # from 0 to b, so two divisions find the first k with 0 < rem_k < den - b
    fall = den - b
    k, x = divmod(rem, fall)
    if not x:
        m, x = divmod(b, fall)
        k += 1 + m
    return total, widest, a - 2 * r - (0 < x and k < n - 1)


def _outer_arcs(first: int, last: int, r: int, tn: int, td: int, q: int,
                scale: int) -> list[tuple[int, int]]:
    """The uncut outer arcs (floor(c) - r, ceil(c) + r) of the residues
    m = first..last, for c = (m + tn/td) / q * 2**scale, the centre on the
    grid: one floor division per centre."""
    den, step = q * td, td << scale
    n0 = (first * td + tn) << scale
    n = last - first + 1
    start = n0 - r * den
    los = list(map(floordiv, range(start, start + n * step, step), repeat(den)))
    his = list(map(add, los, repeat(2 * r + 1)))
    for k in _on_grid(n0 % den, step % den, den, n):
        his[k] -= 1  # ceil(c) = floor(c): the centre lies on the grid
    return list(zip(los, his))


def _cut_ends(run: list[tuple[int, int]], wlo: int, whi: int) -> tuple[int, int, int]:
    """Clip ``run`` in place to the window (wlo, whi).  Both ends of an arc
    rise along a run, so only a prefix starts before the window and only a
    suffix ends after it; only those are cut.  Returns (i, h, n): the run's
    first uncut arc was its i-th, the h cut arcs kept before it and n arcs
    from it on are uncut."""
    i, j = 0, len(run)
    while i < j and run[i][0] < wlo:
        i += 1
    while j > i and run[j - 1][1] > whi:
        j -= 1
    run[j:] = _clip(run[j:], wlo, whi)
    head = _clip(run[:i], wlo, whi)
    run[:i] = head
    return i, len(head), j - i


def build_level(
    q: int,
    params: LevelParams,
    prec: Optional[int] = None,
    coord: int = 0,
    within: Optional[TorusIntervalSet] = None,
) -> TorusIntervalSet:
    """Certified sandwich of one coordinate's level set for modulus q.

    The set is the union over p = 0..q-1 of open arcs of the level radius
    centred at (p + theta)/q.  With ``within`` the result is that set
    intersected with ``within`` (inner with inner, outer with outer).  Each
    window (or the whole circle) takes one ``residue_span`` call, and its
    residues first..last become one run of arcs.  One kernel,
    ``_outer_arcs``, builds each outer window's run uncut: the arc
    (floor(c) - r_hi, ceil(c) + r_hi) of centre c, by one floor division
    per centre.  The inner arc of the same residue, (ceil(c) - r_lo,
    floor(c) + r_lo), is (hi - r_sum, lo + r_sum) for its uncut outer arc
    (lo, hi) and r_sum = r_lo + r_hi, on the grid or off it.  So an inner
    window whose residues all lie in one outer run (found by bisecting the
    runs by their first residue) slices them from it, and only another
    inner window calls the kernel.  The inner runs are built before the
    outer runs are cut in place.  Only a run's end arcs can cross its
    window, so only those are cut (``_cut_ends``).  The outer list's total
    length, largest arc and smallest gap come from each run as it is cut:
    ``_progression_stats`` gives those of its uncut arcs in closed form,
    and the cut arcs, the joins between runs and the gap around the circle
    are read off the arcs.  The grid is ``within``'s, else the radius's
    own.  A radius certainly above 1/(2q) covers the torus.  A radius
    enclosure straddling 1/(2q) raises ``IndeterminateRadiusError``, and
    so do outer arcs that overlap: the radius is then within a grid step of
    1/(2q), where the true arcs may touch.
    """
    if q < 1:
        raise ValueError("modulus must be a positive integer")
    renc = params.radius_enclosure(q, prec)
    p = _resolve_prec(prec)
    scale = within.outer.scale if within is not None else _scale_for([renc], p)
    full = ArcList.full_circle(scale)
    inner_w, outer_w = (full, full) if within is None else \
        (within.inner.rescale(scale), within.outer.rescale(scale))
    half_spacing = Fraction(1, 2 * q)
    if renc.lo.as_fraction() > half_spacing:
        return TorusIntervalSet(inner_w, outer_w)
    if renc.hi.as_fraction() > half_spacing:
        raise IndeterminateRadiusError(
            f"radius enclosure for q={q} straddles 1/(2q); increase the precision")
    r_lo, r_hi = _radius_grid(renc, scale)
    theta = params.theta[coord]
    tn, td = theta.numerator, theta.denominator
    size = 1 << scale

    def spans(windows: ArcList, r: int) -> list[tuple[int, int, int, int]]:
        """(wlo, whi, first, last) for each window that holds a residue."""
        if windows.full:
            # every residue once: the q arcs from the first outer arc that
            # starts at or after 0 fit in the window (0, 2 * size) uncut
            first = residue_span(r_hi, r_hi, size, q, theta)[0]
            return [(0, 2 * size, first, first + q - 1)]
        out = [(wlo, whi, *residue_span(wlo - r, whi + r, size, q, theta))
               for wlo, whi in windows.arcs]
        return [s for s in out if s[2] <= s[3]]

    outer_spans = spans(outer_w, r_hi)
    runs = [_outer_arcs(first, last, r_hi, tn, td, q, scale) for _, _, first, last in outer_spans]

    inner: list[tuple[int, int]] = []
    if r_lo:  # else a zero radius on this grid: every inner arc is empty
        firsts = [first for _, _, first, _ in outer_spans]
        r_sum = r_lo + r_hi
        for wlo, whi, first, last in spans(inner_w, r_lo):
            k = bisect_right(firsts, first) - 1
            if k >= 0 and last <= outer_spans[k][3]:
                uncut = runs[k][first - firsts[k]:last - firsts[k] + 1]
            else:
                uncut = _outer_arcs(first, last, r_hi, tn, td, q, scale)
            run = [(hi - r_sum, lo + r_sum) for lo, hi in uncut]
            _cut_ends(run, wlo, whi)
            inner += run

    den, step = q * td, td << scale
    out: list[tuple[int, int]] = []
    total = widest = 0
    gaps: list[int] = []
    for (wlo, whi, first, _), run in zip(outer_spans, runs):
        i, h, n = _cut_ends(run, wlo, whi)
        if not run:
            continue
        # the n uncut arcs h..h+n-1 in closed form; the cut arcs and every
        # gap that touches them from the arcs themselves, the uncut ones
        # standing in as one piece
        pieces = run
        if n:
            rem = (((first + i) * td + tn) << scale) % den
            t, w, g = _progression_stats(n, rem, r_hi, den, step)
            total, widest = total + t, max(widest, w)
            if g is not None:
                gaps.append(g)
            pieces = run[:h] + [(run[h][0], run[h + n - 1][1])] + run[h + n:]
        for lo, hi in run[:h] + run[h + n:]:
            total, widest = total + hi - lo, max(widest, hi - lo)
        if out:
            gaps.append(run[0][0] - out[-1][1])  # the join to the run before
        gaps += [nxt[0] - cur[1] for cur, nxt in zip(pieces, pieces[1:])]
        out += run
    if out:
        gaps.append(out[0][0] + size - out[-1][1])  # around the circle
    outer = _circle_order(scale, out, (total, widest, min(gaps)) if out else None)
    gap = outer.min_gap()
    if gap is not None and gap < 0:
        raise IndeterminateRadiusError(
            f"outer arcs for q={q} overlap: the radius is within a grid step of 1/(2q), "
            "where the true arcs may touch")
    return TorusIntervalSet(_circle_order(scale, inner), outer)


# ---------------------------------------------------------------------------
# Finite-depth enumeration of nested intersections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelStats:
    """Per-level summary of the running intersection (d-dimensional counts).

    The lengths and the gap are those ``build_level`` computed for each
    coordinate's outer list while building it; no arc is walked again.
    """

    level: int
    q: int
    count: CertifiedCount
    per_coord: tuple[CertifiedCount, ...]
    max_len: Fraction          # largest outer component length, any coordinate
    min_gap: Optional[Fraction]  # smallest outer gap, any coordinate
    total_len: Fraction        # largest per-coordinate outer total length


@dataclass(frozen=True)
class PrefixResult:
    sets: tuple[TorusIntervalSet, ...]   # one per coordinate
    levels: tuple[LevelStats, ...]

    @property
    def final_count(self) -> CertifiedCount:
        return self.levels[-1].count


def _combined_stats(level: int, q: int, sets: Sequence[TorusIntervalSet]) -> LevelStats:
    per_coord = tuple(s.count for s in sets)
    combined = per_coord[0]
    for c in per_coord[1:]:
        combined = combined * c
    max_len = max(s.outer.max_length() for s in sets)
    gaps = [g for s in sets if (g := s.outer.min_gap()) is not None]
    total = max(s.outer.total_length() for s in sets)
    return LevelStats(level, q, combined, per_coord, max_len, min(gaps) if gaps else None, total)


def _candidate_estimate(windows: ArcList, q: int, r_hi: int) -> int:
    """Upper bound on the number of residues the next level will enumerate."""
    if windows.full:
        return q
    total = 0
    size = windows.size
    for wlo, whi in windows.arcs:
        total += ((whi - wlo + 2 * r_hi) * q) // size + 3
    return total


def prefix_intersection(
    qs: QSequence,
    params: LevelParams,
    depth: Optional[int] = None,
    prec: Optional[int] = None,
    component_budget: int = DEFAULT_COMPONENT_BUDGET,
) -> PrefixResult:
    """Intersect the first `depth` level sets coordinate by coordinate.

    d-dimensional quantities are derived from the 1-d factors (the sets are
    exact coordinate products), so nothing d-dimensional is materialised.
    Each level is built already cut to the one before (``build_level`` with
    ``within``).  Raises ``BudgetExceededError`` carrying the partial result
    when the next level would exceed the component budget; an
    ``IndeterminateRadiusError`` leaves with its ``level`` and ``partial`` set.
    """
    p = _resolve_prec(prec)
    depth = len(qs) if depth is None else depth
    if not 1 <= depth <= len(qs):
        raise ValueError(f"depth must be in 1..{len(qs)}")

    scale, radii = params.grid(qs.terms[:depth], p)

    full = ArcList.full_circle(scale)
    sets = [TorusIntervalSet(full, full)] * params.d
    levels: list[LevelStats] = []
    for j, (q, (_, r_hi)) in enumerate(zip(qs.terms, radii), 1):
        partial = PrefixResult(tuple(sets), tuple(levels)) if levels else None
        if any(_candidate_estimate(s.outer, q, r_hi) > component_budget for s in sets):
            raise BudgetExceededError(j, partial)
        try:
            sets = [build_level(q, params, p, coord=i, within=s)
                    for i, s in enumerate(sets)]
        except IndeterminateRadiusError as exc:
            exc.level, exc.partial = j, partial
            raise
        levels.append(_combined_stats(j, q, sets))
    return PrefixResult(tuple(sets), tuple(levels))

