"""Each level's length and gap statistics, against the walk over every arc.

``build_level`` takes its outer list's total length, largest arc and
smallest gap from the runs it builds: closed forms for the arcs no window
cuts, the arcs themselves for the few it does.  ``ArcList`` answers from
those, and walks the arcs of every list made another way.  These tests keep
the walk as ``reference_stats`` and require the two to agree bit for bit:
for the closed forms alone, for every outer list ``build_level`` returns,
for every ``LevelStats`` of ``prefix_intersection`` and for lists made by
hand, by ``intersect`` and by ``rescale``.
"""

import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from liminfdim.level_sets import (
    ArcList,
    BudgetExceededError,
    IndeterminateRadiusError,
    LevelParams,
    TorusIntervalSet,
    _progression_stats,
    build_level,
    prefix_intersection,
)
from liminfdim.sequences import QSequence

from reference import RadiusParams, constant_radius

# zero and dyadic shifts put centres on the grid; odd and mixed ones do not
THETAS = st.sampled_from([F(0), F(1, 2), F(1, 4), F(3, 8), F(1, 3), F(5, 7), F(96, 97),
                          F(5, 12), F(7, 40), F(999, 1000)])
TAUS = st.sampled_from([F(1, 4), F(1, 2), F(1), F(3, 2)])
PRECS = st.integers(16, 128)


def reference_stats(arcs: ArcList) -> tuple:
    """(total_length, max_length, min_gap) by walking every arc, as
    ``ArcList`` computed them before the run builder took them over."""
    if arcs.full:
        return F(1), F(1), None
    a, size = arcs.arcs, arcs.size
    total = F(sum(hi - lo for lo, hi in a), size)
    if not a:
        return total, F(0), None
    gaps = [a[i + 1][0] - a[i][1] for i in range(len(a) - 1)]
    gaps.append(a[0][0] + size - a[-1][1])
    return total, F(max(hi - lo for lo, hi in a), size), F(min(gaps), size)


def stats(arcs: ArcList) -> tuple:
    return arcs.total_length(), arcs.max_length(), arcs.min_gap()


# -- the closed forms ---------------------------------------------------------------

@settings(max_examples=600, deadline=None)
@given(n=st.integers(1, 80), r=st.integers(0, 6), den=st.integers(1, 60),
       step=st.integers(1, 4000), data=st.data())
@example(n=50, r=1, den=64, step=64 * 7, data=None)       # every centre on the grid
@example(n=50, r=1, den=97, step=97 * 7 + 95, data=None)  # residues fall by 2 per arc
def test_progression_stats_match_walk(n, r, den, step, data):
    rem = 0 if data is None else data.draw(st.integers(0, den - 1))
    arcs = []
    for k in range(n):
        c, off = divmod(rem + k * step, den)
        arcs.append((c - r, c + (1 if off else 0) + r))
    gaps = [b[0] - a[1] for a, b in zip(arcs, arcs[1:])]
    assert _progression_stats(n, rem, r, den, step) == (
        sum(hi - lo for lo, hi in arcs), max(hi - lo for lo, hi in arcs),
        min(gaps) if gaps else None)


# -- build_level ------------------------------------------------------------------------

@st.composite
def windows(draw):
    """Arc lists to build inside: narrow ones (runs of one arc, or arcs all
    cut), wide ones, touching ones and one across 0, on coarse and fine grids."""
    scale = draw(st.integers(4, 24))
    size = 1 << scale
    if draw(st.integers(0, 7)) == 0:
        return ArcList.full_circle(scale)
    start = draw(st.integers(0, size - 1))
    arcs, pos = [], start
    for gap, length in draw(st.lists(st.tuples(st.integers(0, size // 4),
                                               st.integers(1, size // 2)), max_size=8)):
        lo = pos + gap
        if lo + length > start + size:
            break
        arcs.append((lo, lo + length))
        pos = lo + length
    front = [(lo - size, hi - size) for lo, hi in arcs if lo >= size]
    return ArcList(scale, tuple(front + [a for a in arcs if a[0] < size]))


def check_level(s: TorusIntervalSet) -> None:
    assert stats(s.outer) == reference_stats(s.outer)
    assert stats(s.inner) == reference_stats(s.inner)


@settings(max_examples=300, deadline=None)
@given(q=st.one_of(st.integers(1, 300), st.sampled_from([64, 96, 1 << 12, 3 << 10, 1009])),
       theta=THETAS, tau=TAUS, prec=PRECS,
       radius=st.one_of(st.none(), st.sampled_from([F(1, 8), F(1, 64), F(3, 1024)])),
       window=st.one_of(st.none(), windows()))
def test_build_level_stats_match_walk(q, theta, tau, prec, radius, window):
    params = (LevelParams(theta=(theta,), tau=tau) if radius is None else
              RadiusParams(theta=(theta,), tau=tau, radius=constant_radius(radius)))
    within = None if window is None else TorusIntervalSet(window, window)
    try:
        s = build_level(q, params, prec, within=within)
    except IndeterminateRadiusError:
        assume(False)
    check_level(s)


def test_runs_of_one_arc_and_runs_cut_whole():
    # arcs 1/32 apart and 1/160 wide, about (k + 1/3)/32; windows from k/16,
    # 1/40 wide, hold one whole arc, and those from k/16 + 1/125, 1/400
    # wide, lie inside one arc and cut it at both ends
    params = RadiusParams(theta=(F(1, 3),), tau=F(1), radius=constant_radius(F(1, 320)))
    size = 1 << 20
    wide = [(k * size // 16 + 7, size // 40) for k in range(1, 16, 2)]
    narrow = [(k * size // 16 + size // 125, size // 400) for k in range(0, 16, 2)]
    window = ArcList(20, tuple((lo, lo + width) for lo, width in sorted(wide + narrow)))
    s = build_level(32, params, 64, within=TorusIntervalSet(window, window))
    assert s.outer.count == 16
    check_level(s)


def test_windows_across_zero_and_touching():
    params = LevelParams(theta=(F(0),), tau=F(1, 2))
    size = 1 << 16
    window = ArcList(16, ((100, 9000), (9000, 30000), (60000, size + 50)))
    window.validate()
    for q in (7, 64, 96, 1000):
        check_level(build_level(q, params, 32, within=TorusIntervalSet(window, window)))


def test_full_circle_and_covering_radius():
    params = LevelParams(theta=(F(0),), tau=F(1))
    for q in (1, 2, 8, 12, 1024):
        check_level(build_level(q, params, 64))  # every arc of one run, none cut
    covering = RadiusParams(theta=(F(1, 4),), tau=F(1), radius=constant_radius(F(1)))
    s = build_level(3, covering)
    assert s.inner.full and stats(s.outer) == reference_stats(s.outer) == (F(1), F(1), None)


# -- prefix_intersection --------------------------------------------------------------------

def reference_level(sets) -> tuple:
    per = [reference_stats(s.outer) for s in sets]
    gaps = [g for _, _, g in per if g is not None]
    return (max(m for _, m, _ in per), min(gaps) if gaps else None, max(t for t, _, _ in per))


@settings(max_examples=120, deadline=None)
@given(q1=st.integers(2, 40), steps=st.lists(st.integers(1, 400), min_size=1, max_size=2),
       thetas=st.lists(THETAS, min_size=1, max_size=2), tau=TAUS, prec=PRECS)
def test_level_stats_match_walk(q1, steps, thetas, tau, prec):
    terms = [q1]
    for k in steps:
        terms.append(terms[-1] * k)
    qs = QSequence(tuple(sorted(set(terms))))
    params = LevelParams(theta=tuple(thetas), tau=tau, d=len(thetas))
    for depth in range(1, len(qs) + 1):
        try:
            res = prefix_intersection(qs, params, depth, prec, component_budget=50_000)
        except (IndeterminateRadiusError, BudgetExceededError):
            assume(False)
        last = res.levels[-1]
        assert (last.max_len, last.min_gap, last.total_len) == reference_level(res.sets)


def test_empty_levels():
    # arcs 1/64 about 1/4 and 3/4 miss those about 1/6, 1/2 and 5/6
    params = RadiusParams(theta=(F(1, 2),), tau=F(1), radius=constant_radius(F(1, 64)))
    res = prefix_intersection(QSequence((2, 3, 5)), params)
    for level in res.levels[1:]:
        assert level.count.max == 0
        assert (level.max_len, level.min_gap, level.total_len) == (F(0), None, F(0))
    assert stats(res.sets[0].outer) == reference_stats(res.sets[0].outer)


# -- lists built any other way walk -------------------------------------------------------

def test_hand_built_intersected_and_rescaled_lists_walk():
    hand = ArcList(8, ((10, 20), (30, 45), (250, 262)))
    assert stats(hand) == reference_stats(hand) == (F(37, 256), F(15, 256), F(4, 256))
    params = LevelParams(theta=(F(96, 97),), tau=F(1, 2))
    a, b = build_level(10, params, 64), build_level(1009, params, 64)
    for arcs in (a.intersect(b).outer, a.intersect(b).inner, a.outer.rescale(a.outer.scale + 3)):
        assert arcs.arcs and stats(arcs) == reference_stats(arcs)
    assert stats(a.outer.rescale(a.outer.scale + 3)) == stats(a.outer)


@pytest.mark.parametrize("arcs", [ArcList(8, ()), ArcList.full_circle(8), ArcList(8, ((3, 9),))])
def test_edge_lists_walk(arcs):
    assert stats(arcs) == reference_stats(arcs)


def test_replaced_arcs_walk():
    level = build_level(1009, LevelParams(theta=(F(45, 97),), tau=F(1, 2)), 64)
    thinned = dataclasses.replace(level.outer, arcs=level.outer.arcs[::2])
    assert stats(thinned) == reference_stats(thinned) != stats(level.outer)
