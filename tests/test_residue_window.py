"""One residue-window kernel for the level sets and the Cantor tree.

``residue_span`` answers "which m put (m + theta)/q inside this window" on
integers.  ``build_level(within=...)`` builds each level already cut to the
windows of the set it refines, ``ArcList.intersect`` cuts on the same path,
and the tree walks its ball windows through the kernel on one integer
grid; its child ranges are the kernel's affine form in the parent residue.
These tests check the kernel against brute force, the intersection against
point membership, the fused build against build then intersect and against
the per-arc builder it replaced (on sandwiches whose inner windows the
outer runs do not hold too), the number of runs the arc kernel builds for a
level, the tree against the ``Fraction`` formulas it replaced, its child
ranges against the ``residue_span`` call they replaced, the tree's ball
walk on tree-index ranges against the walks it replaced, on residue ranges
and on candidate lists, the pre-walk measure bound against the walk, and
the Holder certificate, which skips balls that cannot raise its worst
ratio, against the ``Fraction`` loop that measured every ball, and places a
centre only for a ball it walks; the replaced code is kept here or in
``reference.py`` as the reference.
"""

import dataclasses
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from liminfdim import level_sets
from liminfdim.cantor import Ball, CantorTree, build_tree
from liminfdim.dimension import RegimeViolationError
from liminfdim.level_sets import (
    ArcList,
    IndeterminateRadiusError,
    LevelParams,
    TorusIntervalSet,
    _radius_grid,
    _scale_for,
    build_level,
    prefix_intersection,
    residue_span,
)
from liminfdim.numerics import ONE, Enclosure, _resolve_prec
from liminfdim.sequences import QSequence

from reference import (arc_contains, constant_radius, residue_span_child_range,
                       sample_leaf_path)

THETAS = st.sampled_from([F(0), F(1, 2), F(1, 3), F(5, 8), F(96, 97), F(45, 97), F(68, 97),
                          F(7, 1000), F(999, 1000)])


# -- the kernel ---------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(lo=st.integers(-60, 100), width=st.integers(-20, 100), den=st.integers(1, 32),
       q=st.integers(1, 16), theta=st.fractions(0, 1).filter(lambda t: t < 1))
def test_residue_span_matches_brute_force(lo, width, den, q, theta):
    hi = min(lo + width, 100)
    first, last = residue_span(lo, hi, den, q, theta)
    # every centre (m + theta)/q of the window has |m| <= 16 * 100 + 1
    tn, td = theta.numerator, theta.denominator
    inside = [m for m in range(-1700, 1700)
              if lo * q * td <= (m * td + tn) * den <= hi * q * td]
    if inside:
        assert (first, last) == (inside[0], inside[-1])
    else:
        assert first > last


# -- arc lists ------------------------------------------------------------------------

@st.composite
def arc_lists(draw, scale):
    """Valid arc lists on 2**scale points: touching, long and wrapping arcs."""
    size = 1 << scale
    if draw(st.integers(0, 9)) == 0:
        return ArcList.full_circle(scale)
    start = draw(st.integers(0, size - 1))
    arcs, pos = [], start
    for gap, length in draw(st.lists(st.tuples(st.integers(0, size // 2), st.integers(1, size)),
                                     max_size=6)):
        lo = pos + gap
        if lo + length > start + size:
            break
        arcs.append((lo, lo + length))
        pos = lo + length
    front = [(lo - size, hi - size) for lo, hi in arcs if lo >= size]
    return ArcList(scale, tuple(front + [a for a in arcs if a[0] < size]))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
@example(data=None)
def test_intersect_matches_point_membership(data):
    if data is None:  # both operands run through 0, one arc of each is long
        a, b = ArcList(4, ((5, 7), (9, 20))), ArcList(4, ((1, 2), (6, 17)))
    else:
        a = data.draw(arc_lists(data.draw(st.integers(1, 5))))
        b = data.draw(arc_lists(data.draw(st.integers(1, 5))))
    a.validate()
    b.validate()
    c = a.intersect(b)
    c.validate()
    assert c == b.intersect(a)
    # every grid point and every half-grid point of the finer grid
    n = 2 << c.scale
    for k in range(n):
        x = F(k, n)
        assert arc_contains(c, x) == (arc_contains(a, x) and arc_contains(b, x)), (a, b, c, x)


# -- the fused build ------------------------------------------------------------------

RADII = st.one_of(st.none(), st.sampled_from([F(1, 4), F(3, 16), F(1, 8), F(1, 64), F(3, 8)]))


def level_params(theta, tau, radius):
    return LevelParams(theta=(theta,), tau=tau,
                       radius=None if radius is None else constant_radius(radius))


@settings(max_examples=150, deadline=None)
@given(qs=st.lists(st.integers(1, 60), min_size=2, max_size=3), theta=THETAS,
       tau=st.sampled_from([F(1, 3), F(1, 2), F(1), F(3, 2)]), radius=RADII,
       prec=st.sampled_from([8, 16, 64, 128]))
def test_build_within_equals_build_then_intersect(qs, theta, tau, radius, prec):
    params = level_params(theta, tau, radius)
    try:
        within = build_level(qs[0], params, prec)
        full = ArcList.full_circle(within.outer.scale)
        on_grid = TorusIntervalSet(full, full)  # the whole torus on within's grid
        for q in qs[1:-1]:
            within = within.intersect(build_level(q, params, prec, within=on_grid))
        whole = build_level(qs[-1], params, prec, within=on_grid)
    except IndeterminateRadiusError:
        assume(False)
    cut = build_level(qs[-1], params, prec, within=within)
    cut.validate()
    assert cut == within.intersect(whole)


# -- the run builder, against the per-arc builder it replaced ---------------------------

def reference_cut(scale, windows, meeting):
    size = 1 << scale
    front, out = [], []
    for wlo, whi in windows:
        for lo, hi in meeting(wlo, whi):
            lo, hi = max(lo, wlo), min(hi, whi)
            if lo < hi:
                if lo < size:
                    out.append((lo, hi))
                else:
                    front.append((lo - size, hi - size))
    return ArcList(scale, tuple(front + out))


def reference_build_level(q, params, prec=None, coord=0, within=None):
    """``build_level`` as one generator step and one cut per arc."""
    renc = params.radius_enclosure(q, prec)
    p = _resolve_prec(prec)
    scale = within.outer.scale if within is not None else _scale_for([renc], p)
    full = ArcList.full_circle(scale)
    inner_w, outer_w = (full, full) if within is None else \
        (within.inner.rescale(scale), within.outer.rescale(scale))
    if renc.lo.as_fraction() > F(1, 2 * q):
        return TorusIntervalSet(inner_w, outer_w)
    if renc.hi.as_fraction() > F(1, 2 * q):
        raise IndeterminateRadiusError("straddles")
    r_lo, r_hi = _radius_grid(renc, scale)
    theta = params.theta[coord]
    tn, td = theta.numerator, theta.denominator
    size = 1 << scale

    def arcs(first, last, inner):
        for m in range(first, last + 1):
            cf, rem = divmod((m * td + tn) << scale, q * td)
            cl = cf + 1 if rem else cf
            yield (cl - r_lo, cf + r_lo) if inner else (cf - r_hi, cl + r_hi)

    def cut(windows, inner):
        if windows.full:
            first = residue_span(r_hi, r_hi, size, q, theta)[0]
            return reference_cut(scale, ((0, 2 * size),),
                                 lambda lo, hi: arcs(first, first + q - 1, inner))
        r = r_lo if inner else r_hi
        return reference_cut(scale, windows.arcs,
                             lambda lo, hi: arcs(*residue_span(lo - r, hi + r, size, q, theta),
                                                 inner))

    inner, outer = cut(inner_w, True), cut(outer_w, False)
    a = outer.arcs
    if (2 * r_hi + 2) * q > size and a and (
            a[-1][1] - size > a[0][0] or any(nxt[0] < cur[1] for cur, nxt in zip(a, a[1:]))):
        raise IndeterminateRadiusError("overlap")
    return TorusIntervalSet(inner, outer)


def outcome(build, q, params, prec, within):
    try:
        return build(q, params, prec, 0, within)
    except IndeterminateRadiusError as exc:
        return "straddles" if "straddles" in str(exc) else "overlap"


@st.composite
def half_spacing_radii(draw, q):
    """Constant radii at, just below and just above 1/(2q), or well inside."""
    k = draw(st.integers(8, 40))  # 2**-k < 1/(2q) for every q drawn
    return draw(st.sampled_from([F(1, 2 * q), F(1, 2 * q) - F(1, 1 << k),
                                 F(1, 2 * q) + F(1, 1 << k), F(1, 4 * q), F(1, 3 * q + 1)]))


# fixed sandwiches (radius, within) for the examples below
SANDWICHES = {
    # touching outer arcs on the grid, windows across 0 (the outer windows'
    # wrapped last arc ends where their first begins)
    "touching": (F(1, 8), TorusIntervalSet(ArcList(6, ((3, 30), (40, 66))),
                                           ArcList(6, ((2, 31), (35, 66))))),
    # the front inner window (2, 6) lies in the wrapped last outer window
    # (50, 72): its residue is 0, the outer run's is 5, so it is not sliced
    "wrapped": (F(1, 16), TorusIntervalSet(ArcList(6, ((2, 6), (12, 28), (52, 62))),
                                           ArcList(6, ((10, 30), (50, 72))))),
    # with theta = 0 and q = 8 every centre lies on this grid
    "on grid": (F(1, 64), TorusIntervalSet(ArcList(7, ((24, 60), (70, 138))),
                                           ArcList(7, ((20, 62), (66, 140))))),
}
# valid arc lists whose inner windows lie partly and wholly outside the one
# outer window: no refinement makes such a pair, but the builder must match
# the reference on any pair of valid lists, as on the drawn ones
UNNESTED = {
    "outside": (F(1, 16), TorusIntervalSet(ArcList(6, ((5, 40), (44, 60))),
                                           ArcList(6, ((2, 20),)))),
}
PAIRS = {**SANDWICHES, **UNNESTED}


def _cells(arcs, scale):
    """The grid cells an arc list covers, on the circle of 2**scale cells."""
    arcs = arcs.rescale(scale)
    return {k % arcs.size for lo, hi in arcs.arcs for k in range(lo, hi)}


@pytest.mark.parametrize("name", list(PAIRS))
def test_sandwiches_are_valid(name):
    _, within = PAIRS[name]
    within.validate()
    scale = max(within.inner.scale, within.outer.scale)
    assert (_cells(within.inner, scale) <= _cells(within.outer, scale)) is (name in SANDWICHES)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), q=st.one_of(st.just(1), st.integers(1, 40)), theta=THETAS,
       prec=st.sampled_from([8, 16, 64]))
@example(data="touching", q=4, theta=F(0), prec=16)
@example(data="wrapped", q=5, theta=F(1, 3), prec=16)
@example(data="outside", q=5, theta=F(1, 3), prec=16)
@example(data="on grid", q=8, theta=F(0), prec=16)
def test_runs_equal_per_arc_build(data, q, theta, prec):
    if isinstance(data, str):
        radius, within = PAIRS[data]
    else:
        radius = data.draw(st.one_of(st.none(), half_spacing_radii(q)))
        if data.draw(st.booleans()):
            within = None  # the full circle on the radius's own grid
        else:
            scale = data.draw(st.integers(1, 12))
            inner = data.draw(arc_lists(data.draw(st.integers(1, scale))))
            within = TorusIntervalSet(inner, data.draw(arc_lists(scale)))
    params = level_params(theta, F(1, 2), radius)
    got = outcome(build_level, q, params, prec, within)
    assert got == outcome(reference_build_level, q, params, prec, within)
    if not isinstance(got, str):
        got.validate()


def test_kernel_runs_once_per_outer_window(monkeypatch):
    # the inner runs are sliced from the outer runs: the kernel runs once
    # per outer window that holds a residue, and at most once more per level
    # and coordinate, for the front inner window in the wrapped last outer one
    residues, builds = [], []
    kernel, build = level_sets._outer_arcs, level_sets.build_level

    def counted_kernel(first, last, *args):
        residues.append(last - first + 1)
        return kernel(first, last, *args)

    def counted_build(q, params, prec=None, coord=0, within=None):
        before = len(residues)
        level = build(q, params, prec, coord, within)
        builds.append((q, params.theta[coord], within.outer, len(residues) - before))
        return level

    monkeypatch.setattr(level_sets, "_outer_arcs", counted_kernel)
    monkeypatch.setattr(level_sets, "build_level", counted_build)
    params = LevelParams(theta=(F(3, 997), F(500, 1009)), tau=F(1, 2), d=2)
    prefix_intersection(QSequence((13, 181, 40009)), params, prec=64)
    assert len(builds) == 6
    for q, theta, windows, calls in builds:
        r_hi = _radius_grid(params.radius_enclosure(q, 64), windows.scale)[1]
        held = 1 if windows.full else sum(
            first <= last for first, last in (
                residue_span(wlo - r_hi, whi + r_hi, windows.size, q, theta)
                for wlo, whi in windows.arcs))
        assert held <= calls <= held + 1
    assert (len(residues), sum(residues)) == (232, 6832)


# -- the tree, against the Fraction formulas it replaced ------------------------------------

def fraction_child_range(tree, coord, level, m):
    theta = tree.params.theta[coord]
    q, q_next = tree.qs.terms[level - 1], tree.qs.terms[level]
    r_lo = tree.params.radius_enclosure(q, tree.prec).lo.as_fraction()
    r_next = tree.params.radius_enclosure(q_next, tree.prec).hi.as_fraction()
    c = (m + theta) / q
    lo = (c - r_lo + r_next) * q_next - theta
    hi = (c + r_lo - r_next) * q_next - theta
    m_min = -((-lo.numerator) // lo.denominator)
    m_max = hi.numerator // hi.denominator
    return m_min, max(0, m_max - m_min + 1)


def fraction_window_counts(tree, coord, center, rad_hi, rad_lo):
    theta = tree.params.theta[coord]
    counts, candidates = [], None
    for k in range(tree.depth):
        q = tree.qs.terms[k]
        r_hi = tree.params.radius_enclosure(q, tree.prec).hi.as_fraction()

        def ranges_for(lo_f, hi_f):
            out = []
            for shift in (-1, 0, 1):
                lo = (lo_f + shift) * q - theta
                hi = (hi_f + shift) * q - theta
                m_lo = -((-lo.numerator) // lo.denominator)
                m_hi = hi.numerator // hi.denominator
                if m_lo <= m_hi:
                    out.append((m_lo, m_hi))
            return out

        if candidates is None:
            child_ranges = [(0, q - 1)]
        else:
            child_ranges = []
            for m in candidates:
                start, _ = fraction_child_range(tree, coord, k, m)
                child_ranges.append((start, start + tree.branching_1d[k] - 1))
        if 2 * (rad_hi + r_hi) >= 1:  # every candidate meets a window that long, once
            meet = [(min(c0 for c0, _ in child_ranges), max(c1 for _, c1 in child_ranges))]
        else:
            meet = ranges_for(center - rad_hi - r_hi, center + rad_hi + r_hi)
        inside = ranges_for(center - rad_lo + r_hi, center + rad_lo - r_hi)

        def overlap(a, b):
            return sum(max(0, min(a1, b1) - max(a0, b0) + 1) for a0, a1 in a for b0, b1 in b)

        counts.append((overlap(child_ranges, meet), overlap(child_ranges, inside)))
        candidates = [m for c0, c1 in child_ranges for w0, w1 in meet
                      for m in range(max(c0, w0), min(c1, w1) + 1)]
        if len(candidates) > 1 << 14:
            break
        if not candidates:
            counts.extend([(0, 0)] * (tree.depth - k - 1))
            break
    return counts


def fraction_ball_measure(tree, ball, window_counts=fraction_window_counts):
    rad_lo = ball.radius.lo.as_fraction()
    rad_hi = ball.radius.hi.as_fraction()
    if rad_lo >= F(1, 2):
        return Enclosure.exact_int(1)
    per_coord = [window_counts(tree, i, ball.center[i], rad_hi, rad_lo)
                 for i in range(tree.params.d)]
    best_hi, best_lo = F(1), F(0)
    for k in range(min(len(c) for c in per_coord)):
        meet = inside = 1
        for c in per_coord:
            meet *= c[k][0]
            inside *= c[k][1]
        best_hi = min(best_hi, meet * tree.node_measure(k + 1))
        best_lo = max(best_lo, inside * tree.node_measure(k + 1))
    return Enclosure.from_endpoints(min(best_lo, best_hi), best_hi, tree.prec)


def reference_sample_point(tree, rng, perturb=True):
    point = []
    for i in range(tree.params.d):
        path = sample_leaf_path(tree, i, rng)
        c = tree.center_1d(i, tree.depth, path[-1])
        if perturb:
            t = F(rng.getrandbits(24) - (1 << 23), 1 << 24)
            c = c + t * F(tree._r_lo[tree.depth - 1], 1 << tree._scale)
        point.append(c % 1)
    return tuple(point)


def reference_holder_balls(tree, s, samples, seed):
    """Every sampled ball with its certified ratio, in sampling order: the
    certificate's loop before it skipped balls, on ``Fraction`` values."""
    rng = random.Random(seed)
    r_min = tree.min_separation(tree.depth) / 4
    log_lo = r_min.numerator.bit_length() - r_min.denominator.bit_length() - 1
    out = []
    for _ in range(samples):
        point = reference_sample_point(tree, rng, perturb=rng.random() < 0.5)
        u = rng.uniform(log_lo, 0.0)
        e = math.floor(u)
        mantissa = (1 << 30) + rng.getrandbits(30)
        r = F(mantissa, 1 << 31) * F(2) ** (e + 1)
        r = max(r_min, min(F(1), r))
        ball = Ball(point, Enclosure.from_fraction(r))
        mu = tree.ball_measure(ball)
        denom = ball.radius.pow_frac(s, tree.prec)
        out.append((mu.hi.as_fraction() / denom.lo.as_fraction(), ball))
    return out


def reference_holder_certificate(tree, s, samples, seed):
    """(max_ratio, worst_ball): the first ball of the largest ratio."""
    best = worst = None
    for ratio, ball in reference_holder_balls(tree, F(s), samples, seed):
        if best is None or ratio > best:
            best, worst = ratio, ball
    return best, worst


@st.composite
def trees(draw):
    d = draw(st.integers(1, 2))
    tau = draw(st.sampled_from([F(1, 2), F(1), F(3, 2)]))
    terms = [draw(st.integers(4, 12))]
    for _ in range(draw(st.integers(1, 2))):
        base = int(terms[-1] ** float(1 + tau)) + 1
        terms.append(base * draw(st.integers(4, 12)) + draw(st.integers(0, 7)))
    params = LevelParams(theta=tuple(draw(THETAS) for _ in range(d)), tau=tau, d=d)
    try:
        return build_tree(QSequence(tuple(terms)), params, prec=draw(st.sampled_from([64, 128])))
    except RegimeViolationError:
        assume(False)


@settings(max_examples=40, deadline=None)
@given(tree=trees(), data=st.data())
def test_tree_matches_fraction_formulas(tree, data):
    rng = data.draw(st.randoms(use_true_random=False))
    for coord in range(tree.params.d):
        for level in range(1, tree.depth):
            q = tree.qs.terms[level - 1]
            for m in rng.sample(range(-3 * q, 3 * q), min(30, 6 * q)):
                assert tree.child_range_1d(coord, level, m) == \
                    fraction_child_range(tree, coord, level, m)
    for _ in range(10):
        if rng.random() < 0.5:
            center = tree.sample_point(rng, perturb=rng.random() < 0.5)
        else:
            center = tuple(F(rng.randrange(10 ** 6), 10 ** 6) for _ in range(tree.params.d))
        if rng.random() < 0.5:
            radius = Enclosure.from_fraction(F(rng.randint(1, 1 << 20), 1 << rng.randint(18, 60)))
        else:
            radius = Enclosure.from_fraction(F(1, rng.randint(3, 10 ** 7)), tree.prec)
        ball = Ball(center, radius)
        mu, ref = tree.ball_measure(ball), fraction_ball_measure(tree, ball)
        assert (mu.lo, mu.hi) == (ref.lo, ref.hi)
        # the per-level counts too: the measure reads only the tightest level
        rad_lo, rad_hi = radius.lo.as_fraction(), radius.hi.as_fraction()
        for i, c in enumerate(center):
            assert tree._window_counts(i, tree.depth, c, rad_hi, rad_lo) == \
                fraction_window_counts(tree, i, c, rad_hi, rad_lo)


@pytest.mark.parametrize("terms, theta", [((7, 557), F(68, 97)), ((9, 657, 4316500), F(5, 8))])
def test_child_ranges_match_fraction_formula_everywhere(terms, theta):
    # a child centre lands within 2 * q_next**-tau of a window end for about
    # one parent in seven here, so every parent residue is checked
    tree = build_tree(QSequence(terms), LevelParams(theta=(theta,), tau=F(1)))
    for level in range(1, tree.depth):
        q = tree.qs.terms[level - 1]
        for m in range(-q, 2 * q):
            assert tree.child_range_1d(0, level, m) == fraction_child_range(tree, 0, level, m)


# -- the ball walk on residue ranges, against the candidate lists it replaced ------------

def candidate_window_counts(tree, coord, center, rad_hi, rad_lo):
    """``_window_counts`` as one integer residue per candidate, three
    ``residue_span`` calls per window (one per shift of the window by a
    circle) and a fan-out cap checked while the candidate list grows, so it
    never holds more than 2**14 candidates and runs on any tree."""
    theta = tree.params.theta[coord]
    bits = max(tree._scale, rad_hi.denominator.bit_length(), rad_lo.denominator.bit_length())
    den = center.denominator << bits
    c = center.numerator << bits
    ball_hi = rad_hi.numerator * (den // rad_hi.denominator)
    ball_lo = rad_lo.numerator * (den // rad_lo.denominator)
    grid = den >> tree._scale
    counts, candidates = [], None
    for k in range(tree.depth):
        q = tree.qs.terms[k]
        r_hi = tree._r_hi[k] * grid

        def ranges_for(lo, hi):
            spans = [residue_span(lo + s, hi + s, den, q, theta) for s in (-den, 0, den)]
            return [(first, last) for first, last in spans if first <= last]

        if candidates is None:
            child_ranges = [(0, q - 1)]
        else:
            child_ranges = []
            for m in candidates:
                start, _ = tree.child_range_1d(coord, k, m)
                child_ranges.append((start, start + tree.branching_1d[k] - 1))
        if 2 * (ball_hi + r_hi) >= den:  # every candidate meets a window that long, once
            meet = [(min(c0 for c0, _ in child_ranges), max(c1 for _, c1 in child_ranges))]
        else:
            meet = ranges_for(c - ball_hi - r_hi, c + ball_hi + r_hi)
        inside = ranges_for(c - ball_lo + r_hi, c + ball_lo - r_hi)

        def overlap(a, b):
            return sum(max(0, min(a1, b1) - max(a0, b0) + 1) for a0, a1 in a for b0, b1 in b)

        counts.append((overlap(child_ranges, meet), overlap(child_ranges, inside)))
        new_candidates, overflow = [], False
        for c0, c1 in child_ranges:
            for w0, w1 in meet:
                lo_m, hi_m = max(c0, w0), min(c1, w1)
                if lo_m <= hi_m:
                    if len(new_candidates) + hi_m - lo_m + 1 > 1 << 14:
                        overflow = True
                        break
                    new_candidates.extend(range(lo_m, hi_m + 1))
            if overflow:
                break
        if overflow:
            break
        candidates = new_candidates
        if not candidates:
            counts.extend([(0, 0)] * (tree.depth - k - 1))
            break
    return counts


def residue_range_window_counts(tree, coord, level_limit, center, rad_hi, rad_lo):
    """``_window_counts`` with its candidates held as the child residue
    ranges they come from: one ``residue_span`` per window and level, its
    copies one circle to either side that span shifted by -q and +q, and one
    ``child_range_1d`` call per meeting node."""
    theta = tree.params.theta[coord]
    bits = max(tree._scale, rad_hi.denominator.bit_length(), rad_lo.denominator.bit_length())
    den = center.denominator << bits
    c = center.numerator << bits
    ball_hi = rad_hi.numerator * (den // rad_hi.denominator)
    ball_lo = rad_lo.numerator * (den // rad_lo.denominator)
    grid = den >> tree._scale

    def overlaps(ranges, span, q):
        first, last = span
        return [(lo, hi) for r0, r1 in ranges for s in (-q, 0, q)
                if (lo := max(r0, first + s)) <= (hi := min(r1, last + s))]

    counts, candidates = [], [(0, tree.qs.terms[0] - 1)]
    for k in range(level_limit):
        q = tree.qs.terms[k]
        r_hi = tree._r_hi[k] * grid
        if k:
            b = tree.branching_1d[k]
            candidates = [(start, start + b - 1) for start, _ in
                          (tree.child_range_1d(coord, k, m)
                           for lo, hi in meet for m in range(lo, hi + 1))]
        if 2 * (ball_hi + r_hi) >= den:
            meet = candidates
        else:
            meet = overlaps(candidates, residue_span(
                c - ball_hi - r_hi, c + ball_hi + r_hi, den, q, theta), q)
        inside = overlaps(candidates, residue_span(
            c - ball_lo + r_hi, c + ball_lo - r_hi, den, q, theta), q)
        n_meet = sum(hi - lo + 1 for lo, hi in meet)
        counts.append((n_meet, sum(hi - lo + 1 for lo, hi in inside)))
        if n_meet > 1 << 14:
            break
        if not n_meet:
            counts.extend([(0, 0)] * (level_limit - k - 1))
            break
    return counts


@st.composite
def walk_trees(draw):
    """The power tree (4, 256, 2**32, 2**128), whose level 3 has 2**22 nodes
    and level 4 has 2**86, so walks stop at the fan-out cap; or a small tree."""
    if draw(st.booleans()):
        d = draw(st.integers(1, 2))
        params = LevelParams(theta=tuple(draw(THETAS) for _ in range(d)), tau=F(1), d=d)
        return build_tree(QSequence((4, 256, 1 << 32, 1 << 128)), params, prec=128)
    return draw(trees())


@st.composite
def walk_radii(draw, tree):
    """Exact dyadic and non-exact radii, down to a leaf and up to just under
    1/2, where the meeting windows are longer than the circle."""
    kind = draw(st.sampled_from(["dyadic", "inexact", "near-half"]))
    if kind == "dyadic":
        e = draw(st.integers(2, tree.qs.terms[-1].bit_length() * 2 + 2))
        return Enclosure.from_fraction(F(draw(st.integers(1 << 20, (1 << 21) - 1)), 1 << (20 + e)))
    if kind == "inexact":
        return Enclosure.from_fraction(F(1, draw(st.integers(3, 10 ** 12))), tree.prec)
    return Enclosure.from_fraction(F(1, 2) - F(1, draw(st.integers(3, 1 << 40))), tree.prec)


# shifts with denominators up to 97, and dyadic ones
AFFINE_THETAS = st.one_of(
    st.fractions(0, 1, max_denominator=97).filter(lambda t: t < 1),
    st.integers(0, 64).flatmap(lambda e: st.integers(0, (1 << e) - 1).map(lambda n: F(n, 1 << e))))


@settings(max_examples=60, deadline=None)
@given(tree=walk_trees(), data=st.data())
def test_child_ranges_match_residue_span(tree, data):
    # the walk trees' sequences, with their shifts redrawn and at 64, 128
    # or 1024 bits; parents in -3q..3q and far past q
    params = dataclasses.replace(
        tree.params, theta=tuple(data.draw(AFFINE_THETAS) for _ in range(tree.params.d)))
    try:
        tree = build_tree(tree.qs, params, prec=data.draw(st.sampled_from([64, 128, 1024])))
    except RegimeViolationError:
        assume(False)
    for coord in range(tree.params.d):
        for level in range(1, tree.depth):
            q = tree.qs.terms[level - 1]
            far = st.integers(-q << 64, q << 64)
            for m in [-3 * q, 0, q - 1, 3 * q] + data.draw(
                    st.lists(st.one_of(st.integers(-3 * q, 3 * q), far), max_size=12)):
                assert tree.child_range_1d(coord, level, m) == \
                    residue_span_child_range(tree, coord, level, m)


POWER_D2 = build_tree(QSequence((4, 256, 1 << 32, 1 << 128)),
                      LevelParams(theta=(F(5, 8), F(1, 3)), tau=F(1), d=2), prec=128)


def assert_walk_matches(tree, center, radius):
    """The walk on tree-index ranges gives the per-level counts of both walks
    it replaced and the measure of the candidate lists, which the pre-walk
    bound covers."""
    rad_lo, rad_hi = radius.lo.as_fraction(), radius.hi.as_fraction()
    for i, c in enumerate(center):
        counts = tree._window_counts(i, tree.depth, c, rad_hi, rad_lo)
        assert counts == residue_range_window_counts(tree, i, tree.depth, c, rad_hi, rad_lo)
        assert counts == candidate_window_counts(tree, i, c, rad_hi, rad_lo)
    ball = Ball(center, radius)
    mu = tree.ball_measure(ball)
    ref = fraction_ball_measure(tree, ball, candidate_window_counts)
    assert (mu.lo, mu.hi) == (ref.lo, ref.hi)
    # the bound from the radius alone holds at every centre
    assert mu.hi.as_fraction() <= tree._measure_bound(radius.hi).as_fraction() <= 1


@pytest.mark.parametrize("radius", [
    # 65,536 level-3 nodes meet per coordinate: the walk stops there, at the cap
    Enclosure.from_fraction(F(1, 1 << 12)),
    # 5,461 level-3 nodes meet, so level 4 is walked; the radius is not exact
    Enclosure.from_fraction(F(1, 3 << 19), 128),
    # meeting windows longer than the circle on level 1: 7/16 + 1/16 >= 1/2
    Enclosure.from_fraction(F(1, 2) - F(1, 1 << 30), 128),
], ids=["capped", "inexact-deep", "near-half"])
def test_walk_matches_candidate_lists_on_the_power_tree(radius):
    assert_walk_matches(POWER_D2, POWER_D2.sample_point(random.Random(1)), radius)


@settings(max_examples=40, deadline=None)
@given(tree=walk_trees(), data=st.data())
def test_walk_matches_candidate_lists(tree, data):
    for _ in range(4):
        if data.draw(st.booleans()):
            center = tree.sample_point(data.draw(st.randoms(use_true_random=False)),
                                       perturb=data.draw(st.booleans()))
        else:
            center = tuple(data.draw(st.fractions(0, 1, max_denominator=10 ** 6)
                                     .filter(lambda x: x < 1)) for _ in range(tree.params.d))
        assert_walk_matches(tree, center, data.draw(walk_radii(tree)))


# -- edge cases of the index-range walk ------------------------------------------------

TINY_D2 = build_tree(QSequence((10, 803, 5804000, 235804915299936)),
                     LevelParams(theta=(F(5, 8), F(1, 3)), tau=F(1), d=2), prec=128)


def grid_radius(tree, level):
    return F(tree._r_hi[level - 1], 1 << tree._scale)


@pytest.mark.parametrize("tree, radius, center", [
    (POWER_D2, F(1, 2) - F(1, 32), (F(21, 32), F(7, 12))),
    (TINY_D2, F(1, 2) - F(1, 128), (F(9, 16), F(8, 15))),
], ids=["power", "tiny"])
def test_walk_long_then_short(tree, radius, center):
    # the level-1 window is at least the circle, so every level-1 node meets
    # it and level 2 searches all of them; the level-2 window is shorter, and
    # the node opposite the centre on the circle is outside it
    assert 2 * (radius + grid_radius(tree, 1)) >= 1 > 2 * (radius + grid_radius(tree, 2))
    for i, c in enumerate(center):
        counts = tree._window_counts(i, tree.depth, c, radius, radius)
        assert counts[0][0] == tree.level_count_1d(1)
        assert 0 < counts[1][0] < tree.level_count_1d(2)
    assert_walk_matches(tree, center, Enclosure.from_fraction(radius))


def leaf_hits(tree, coord, center, radius, shift):
    """Leaves of one coordinate whose outer arc meets the window moved by
    ``shift`` circles, by enumeration."""
    q = tree.qs.terms[-1]
    reach = radius + grid_radius(tree, tree.depth)
    theta = tree.params.theta[coord]
    return sum(abs((m + theta) / q - center - shift) <= reach
               for m in tree.nodes_1d(coord, tree.depth))


@pytest.mark.parametrize("center, shift", [(F(1, 16), 1), (F(15, 16), -1)],
                         ids=["near-0", "near-1"])
def test_walk_window_across_zero(center, shift):
    # the window holds leaves of both ends of the circle, so its copy one
    # circle up (centre near 0) or down (near 1) carries leaves too
    radius = F(1, 8)
    here = leaf_hits(TINY_D2, 0, center, radius, 0)
    there = leaf_hits(TINY_D2, 0, center, radius, shift)
    assert here > 0 and there > 0
    counts = TINY_D2._window_counts(0, TINY_D2.depth, center, radius, radius)
    assert len(counts) == TINY_D2.depth and counts[-1][0] == here + there
    assert_walk_matches(TINY_D2, (center, center), Enclosure.from_fraction(radius))


def test_walk_zero_fill():
    # a small ball in the upper end of a level-1 arc, where no child is kept:
    # level 2 meets nothing and the deeper levels are filled with zeros
    center = (F(3) + F(5, 8)) / 10 + F(9, 1000)
    radius = F(1, 10 ** 6)
    assert TINY_D2._window_counts(0, TINY_D2.depth, center, radius, radius) == \
        [(1, 0), (0, 0), (0, 0), (0, 0)]
    assert_walk_matches(TINY_D2, (center, F(1, 3)), Enclosure.from_fraction(radius))
    assert TINY_D2.ball_measure(Ball((center, F(1, 3)), Enclosure.from_fraction(radius))) \
        .hi.as_fraction() == 0


def test_walk_window_of_one_circle():
    # the level-1 meeting window is exactly one circle long, so the node
    # opposite the centre sits on both of its ends: it meets once
    radius = F(1, 2) - grid_radius(TINY_D2, 1)
    center = (F(5, 8) / 10 + F(1, 2), F(1, 3) / 10 + F(1, 2))
    for i, c in enumerate(center):
        counts = TINY_D2._window_counts(i, TINY_D2.depth, c, radius, radius)
        assert counts[0][0] == TINY_D2.level_count_1d(1)
    assert_walk_matches(TINY_D2, center, Enclosure.from_fraction(radius))


def test_walk_continues_at_exactly_the_cap():
    # 2**14 level-3 nodes of one parent meet the window: the walk stops only
    # after a level where more than 2**14 meet, so level 4 is walked
    n = 1 << 14
    reach = F(n - 1, 2) / POWER_D2.qs.terms[2]
    radius = reach - grid_radius(POWER_D2, 3)
    center = []
    for i, theta in enumerate(POWER_D2.params.theta):
        # the first child of the first child of level-1 node 1
        m = POWER_D2.child_range_1d(i, 2, POWER_D2.child_range_1d(i, 1, 1)[0])[0]
        center.append((m + theta) / POWER_D2.qs.terms[2] + reach)
        counts = POWER_D2._window_counts(i, POWER_D2.depth, center[-1], radius, radius)
        assert len(counts) == 4 and counts[2][0] == n
    assert_walk_matches(POWER_D2, tuple(center), Enclosure.from_fraction(radius))


# -- the pre-walk measure bound -------------------------------------------------------

def test_measure_bound_is_often_the_walks_own():
    # the lattice count is exact for a window that holds its largest number
    # of centres, so at leaf centres the bound often equals the walk's upper
    # end, a rounded value here since the node counts are not powers of two;
    # a radius of 1 gives exactly 1, the measure of every such ball
    rng = random.Random(3)
    hits = 0
    for _ in range(12):
        radius = Enclosure.from_fraction(F(1, 3 << rng.randint(4, 60)), 128)
        mu = TINY_D2.ball_measure(Ball(TINY_D2.sample_point(rng), radius))
        bound = TINY_D2._measure_bound(radius.hi)
        assert mu.hi.as_fraction() <= bound.as_fraction()
        hits += mu.hi == bound
    assert hits >= 3
    assert TINY_D2._measure_bound(ONE.hi) == ONE.hi


# -- Holder certificates, against the loop that measured every ball ----------------------

def certificate_bits(max_ratio, ball):
    """The ratio, the centre and the radius enclosure with its direction tags."""
    radius = tuple((d.mantissa, d.exponent, d.direction) for d in (ball.radius.lo, ball.radius.hi))
    return max_ratio, ball.center, radius


def holder_exponents(d):
    """Across (0, d + 1), s >= 1 included, and the benchmark's 3d/10."""
    return st.one_of(st.just(F(3, 10) * d),
                     st.fractions(0, d + 1, max_denominator=60).filter(lambda x: 0 < x < d + 1))


@settings(max_examples=60, deadline=None)
@given(tree=walk_trees(), data=st.data())
def test_certificate_matches_reference(tree, data):
    s = data.draw(holder_exponents(tree.params.d))
    samples = data.draw(st.integers(1, 40))
    seed = data.draw(st.integers(0, (1 << 32) - 1))
    cert = tree.holder_certificate(s, samples, seed)
    ref = reference_holder_certificate(tree, s, samples, seed)
    assert certificate_bits(cert.max_ratio, cert.worst_ball) == certificate_bits(*ref)


def test_certificate_keeps_the_first_of_tied_balls():
    # samples 13 and 18 reach the largest ratio with different centres
    tree = build_tree(QSequence((9, 657, 4316500)), LevelParams(theta=(F(5, 8),), tau=F(1)))
    s, samples, seed = F(19, 10), 40, 0
    balls = reference_holder_balls(tree, s, samples, seed)
    best = max(ratio for ratio, _ in balls)
    tied = [ball for ratio, ball in balls if ratio == best]
    assert len(tied) == 2 and tied[0].center != tied[1].center
    cert = tree.holder_certificate(s, samples, seed)
    assert certificate_bits(cert.max_ratio, cert.worst_ball) == certificate_bits(best, tied[0])


def test_certificate_places_only_walked_balls(monkeypatch):
    # the 13 balls of test_certificate_skips_most_powers that are walked are
    # the only ones whose draws become a centre; the certificate is still
    # the reference's
    placed = []
    place_point = CantorTree._place_point

    def counted_place(self, draws):
        placed.append(draws)
        return place_point(self, draws)

    monkeypatch.setattr(CantorTree, "_place_point", counted_place)
    cert = TINY_D2.holder_certificate(F(3, 5), 60, 2)
    assert len(placed) == 13
    monkeypatch.undo()
    ref = reference_holder_certificate(TINY_D2, F(3, 5), 60, 2)
    assert certificate_bits(cert.max_ratio, cert.worst_ball) == certificate_bits(*ref)


def test_certificate_skips_most_powers(monkeypatch):
    # on the benchmark's s = 3d/10, most balls cannot raise the worst ratio:
    # the pre-walk bound skips the walk of all but 13 of these 60 (44 under
    # mu <= 1 alone), and 11 or fewer take a power.  The certificate is
    # still the reference's
    powers, walks = [], []
    pow_frac, ball_measure = Enclosure.pow_frac, CantorTree.ball_measure

    def counted_power(self, s, prec=None):
        powers.append(s)
        return pow_frac(self, s, prec)

    def counted_walk(self, ball):
        walks.append(ball)
        return ball_measure(self, ball)

    monkeypatch.setattr(Enclosure, "pow_frac", counted_power)
    monkeypatch.setattr(CantorTree, "ball_measure", counted_walk)
    cert = TINY_D2.holder_certificate(F(3, 5), 60, 2)
    assert 0 < len(powers) <= 11 and len(walks) == 13
    monkeypatch.undo()
    ref = reference_holder_certificate(TINY_D2, F(3, 5), 60, 2)
    assert certificate_bits(cert.max_ratio, cert.worst_ball) == certificate_bits(*ref)
