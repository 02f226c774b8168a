import random
from fractions import Fraction as F

import pytest

from liminfdim.level_sets import (
    ArcList,
    BudgetExceededError,
    CertifiedCount,
    LevelParams,
    build_level,
    TorusIntervalSet,
    prefix_intersection,
)
from liminfdim.sequences import QSequence

from reference import arc_contains, constant_radius, count_shifted_rationals


def brute_force_pieces(qs, tau, theta=F(0)):
    """Independent oracle: pieces of the nested intersection by direct scan.

    Level-1 arcs are unrolled to disjoint intervals on the line (the arc
    through 0 moved to the negative side), then every deeper level is
    intersected interval by interval with exact rational arithmetic.
    Requires integer 1+tau so the radii stay rational.
    """
    import math

    e = int(1 + tau)
    assert 1 + tau == e, "oracle needs rational radii"
    q1 = qs[0]
    r1 = F(1, q1 ** e)
    assert r1 < F(1, 2)
    pieces = []
    for p in range(q1):
        c = (p + theta) / q1
        if c - r1 < 0:
            pieces.append((c - r1, c + r1))
        elif c + r1 > 1:
            pieces.append((c - 1 - r1, c - 1 + r1))
        else:
            pieces.append((c - r1, c + r1))
    for q in qs[1:]:
        r = F(1, q ** e)
        nxt = []
        for (a, b) in pieces:
            p_lo = math.floor((a - r) * q - theta) - 1
            p_hi = math.ceil((b + r) * q - theta) + 1
            for p in range(p_lo, p_hi + 1):
                c = (p + theta) / q
                lo, hi = max(a, c - r), min(b, c + r)
                if lo < hi:
                    nxt.append((lo, hi))
        pieces = sorted(set(nxt))
    return pieces


class TestArcList:
    def test_validate_and_count(self):
        a = ArcList(8, ((10, 20), (30, 40)))
        a.validate()
        assert a.count == 2
        assert a.total_length() == F(20, 256)

    def test_wrap_invariants(self):
        a = ArcList(8, ((10, 20), (250, 260)))
        a.validate()
        assert a.wraps()
        # gaps: 250-20 = 230 inside, 10-(260-256) = 6 across zero
        assert a.min_gap() == F(6, 256)

    def test_single_arc_gap(self):
        # one arc leaves one gap, around the circle from its end to its start
        assert ArcList(8, ((10, 20),)).min_gap() == F(246, 256)
        assert ArcList(8, ((250, 262),)).min_gap() == F(244, 256)

    def test_contains_with_wrap(self):
        a = ArcList(8, ((250, 262),))
        assert arc_contains(a, F(1, 256))       # 1/256 -> 257 unrolled
        assert arc_contains(a, F(251, 256))
        assert not arc_contains(a, F(10, 256))
        assert not arc_contains(a, F(250, 256))  # open endpoint

    def test_intersect_simple(self):
        # (0.1,0.3) u (0.5,0.6)  intersect  (0.2,0.55) -> (0.2,0.3) u (0.5,0.55)
        s = 1 << 20
        a = ArcList(20, ((s // 10, 3 * s // 10), (s // 2, 6 * s // 10)))
        b = ArcList(20, ((2 * s // 10, 55 * s // 100),))
        c = a.intersect(b)
        assert c.arcs == ((2 * s // 10, 3 * s // 10), (s // 2, 55 * s // 100))

    def test_intersect_disjoint(self):
        a = ArcList(8, ((10, 20),))
        b = ArcList(8, ((30, 40),))
        assert a.intersect(b).arcs == ()

    def test_intersect_full_identity(self):
        a = ArcList(8, ((10, 20),))
        assert ArcList.full_circle(8).intersect(a).arcs == a.arcs

    def test_intersect_wrap_glue(self):
        s = 256
        a = ArcList(8, ((200, 300),))   # crosses 0
        b = ArcList(8, ((220, 290),))   # also crosses 0
        c = a.intersect(b)
        assert c.arcs == ((220, 290),)
        c.validate()

    def test_touching_open_arcs_stay_separate(self):
        a = ArcList(8, ((10, 20), (20, 30)))
        a.validate()
        b = a.intersect(ArcList.full_circle(8))
        assert b.count == 2


class TestBuildLevel:
    def test_five_arcs(self):
        # radius 1/25 is not dyadic, so the sandwich straddles the exact values
        params = LevelParams(theta=(F(0),), tau=F(1))
        s = build_level(5, params)
        assert s.count == CertifiedCount(5, 5)
        lo, hi = s.length_bounds()
        assert lo <= F(2, 5) <= hi and hi - lo <= F(1, 2 ** 100)
        assert s.inner.max_length() <= F(2, 25) <= s.outer.max_length()
        assert s.outer.max_length() - F(2, 25) <= F(1, 2 ** 100)

    def test_full_torus_radius(self):
        params = LevelParams(theta=(F(1, 2),), tau=F(1), radius=constant_radius(F(1)))
        s = build_level(1, params)
        assert s.inner.full and s.count == CertifiedCount(1, 1)
        assert s.length_bounds() == (F(1), F(1))

    def test_touching_half_arcs(self):
        params = LevelParams(theta=(F(0),), tau=F(1), radius=constant_radius(F(1, 4)))
        s = build_level(2, params)
        assert s.count == CertifiedCount(2, 2)
        assert s.inner.max_length() == F(1, 2)
        assert s.length_bounds() == (F(1), F(1))

    def test_straddling_radius_rejected(self):
        from liminfdim.level_sets import IndeterminateRadiusError
        from liminfdim.numerics import Enclosure

        def straddling(q, prec):
            return Enclosure.from_endpoints(F(1, 4) - F(1, 1000), F(1, 4) + F(1, 1000))

        params = LevelParams(theta=(F(0),), tau=F(1), radius=straddling)
        with pytest.raises(IndeterminateRadiusError):
            build_level(2, params)

    def test_overlapping_outer_arcs_rejected(self):
        # radius 4**-(3/2) = 1/(2*4) exactly: the true arcs touch, and off the
        # grid the outward-rounded outer arcs overlap by one grid unit
        from liminfdim.level_sets import IndeterminateRadiusError

        params = LevelParams(theta=(F(68, 97),), tau=F(1, 2))
        with pytest.raises(IndeterminateRadiusError, match="outer arcs for q=4 overlap"):
            build_level(4, params)
        with pytest.raises(IndeterminateRadiusError) as exc:
            prefix_intersection(QSequence((4, 256)), params)
        assert exc.value.level == 1 and exc.value.partial is None

    def test_overlap_at_a_deeper_level_keeps_the_partial_result(self):
        # level 2 (q = 16) has radius exactly 1/32, and theta = 1/6 puts a
        # touching point of its arcs at the centre of every level-1 arc
        from liminfdim.level_sets import IndeterminateRadiusError
        from liminfdim.numerics import Enclosure

        def radius(q, prec):
            return Enclosure.from_fraction(F(1, 64) if q == 4 else F(1, 2 * q), prec)

        params = LevelParams(theta=(F(1, 6),), tau=F(1), radius=radius)
        with pytest.raises(IndeterminateRadiusError) as exc:
            prefix_intersection(QSequence((4, 16)), params)
        assert exc.value.level == 2
        assert [st.level for st in exc.value.partial.levels] == [1]

    @staticmethod
    def _check_sandwich(s, q):
        # rational probes: inner members are true members, true members are
        # in outer; random points, and each arc end with points just beside it
        rng = random.Random(99)
        probes = [F(rng.randint(0, 10 ** 6), 10 ** 6) for _ in range(400)]
        for arcs in (s.inner, s.outer):
            nudge = F(1, 1 << (arcs.scale + 8))
            probes += [F(end, arcs.size) + k * nudge
                       for arc in arcs.arcs for end in arc for k in (-1, 0, 1)]
        for x in probes:
            # true membership: ||q x - theta|| < q^(-3/2), exact cross-multiplied
            t = (q * x - F(1, 7)) % 1
            dist = min(t, 1 - t)
            in_true = dist.numerator ** 2 * q ** 3 < dist.denominator ** 2
            if arc_contains(s.inner, x):
                assert in_true
            if in_true:
                assert arc_contains(s.outer, x)

    def test_sandwich_membership(self):
        params = LevelParams(theta=(F(1, 7),), tau=F(3, 2))
        self._check_sandwich(build_level(11, params, prec=64), 11)

    def test_sandwich_on_a_coarse_grid(self):
        # on the 2**-10 grid of `within` the radius 11**-5/2 (2.6 grid steps)
        # has no exact place: inner arcs round it down, outer arcs up
        params = LevelParams(theta=(F(1, 7),), tau=F(3, 2))
        full = ArcList.full_circle(10)
        s = build_level(11, params, prec=64, within=TorusIntervalSet(full, full))
        assert s.inner.scale == 10 and s.inner.count == 11
        self._check_sandwich(s, 11)

    def test_wrapped_component_at_zero(self):
        params = LevelParams(theta=(F(0),), tau=F(1))
        s = build_level(3, params)
        assert s.outer.wraps()
        # 0 is a true member (||3*0|| = 0 < 1/9), so both bounds must hold it
        assert arc_contains(s.inner, F(0))
        assert arc_contains(s.outer, F(1, 10 ** 9))


class TestIntersect:
    def test_full_identity(self):
        params = LevelParams(theta=(F(0),), tau=F(1))
        a = build_level(1, LevelParams(theta=(F(0),), tau=F(1), radius=constant_radius(F(1))))
        b = build_level(5, params)
        c = a.intersect(b)
        assert c.count == b.count
        assert c.length_bounds() == b.length_bounds()

    def test_disjoint_sets_empty(self):
        pa = LevelParams(theta=(F(0),), tau=F(1), radius=constant_radius(F(1, 100)))
        pb = LevelParams(theta=(F(1, 2),), tau=F(1), radius=constant_radius(F(1, 100)))
        a = build_level(1, pa)
        b = build_level(1, pb)
        c = a.intersect(b)
        assert c.count == CertifiedCount(0, 0)


class TestPrefixIntersection:
    def test_enumeration_matches_brute_force(self):
        qs = QSequence((3, 81))
        params = LevelParams(theta=(F(0),), tau=F(1))
        res = prefix_intersection(qs, params)
        count = res.final_count
        oracle = brute_force_pieces([3, 81], F(1))
        assert count.min == count.max
        assert count.min == len(oracle)
        assert 48 <= count.min <= 60
        # per-parent counts obey the counting fact: (2/9)*81 -/+ 2
        assert 3 * 16 <= count.min <= 3 * 20

    def test_single_level(self):
        res = prefix_intersection(QSequence((3, 81)), LevelParams(theta=(F(0),), tau=F(1)), depth=1)
        assert res.final_count == CertifiedCount(3, 3)

    def test_collapse_bound(self):
        # contractive growth: component count never exceeds q_1
        qs = QSequence((64, 512, 32768))
        params = LevelParams(theta=(F(0),), tau=F(1))
        res = prefix_intersection(qs, params)
        for st in res.levels:
            assert st.count.max <= 64
        assert res.levels[-1].total_len <= 64 * 2 * F(1, 32768 ** 2)

    def test_product_factorization(self):
        qs = QSequence((3, 81))
        p1 = LevelParams(theta=(F(0),), tau=F(1), d=1)
        p2 = LevelParams(theta=(F(0), F(0)), tau=F(1), d=2)
        r1 = prefix_intersection(qs, p1)
        r2 = prefix_intersection(qs, p2)
        for s1, s2 in zip(r1.levels, r2.levels):
            assert s2.count.min == s1.count.min ** 2
            assert s2.count.max == s1.count.max ** 2

    def test_budget_abort_reports_level(self):
        qs = QSequence((3, 81, 6561 ** 2))
        params = LevelParams(theta=(F(0),), tau=F(1))
        with pytest.raises(BudgetExceededError) as exc:
            prefix_intersection(qs, params, component_budget=1000)
        assert exc.value.level == 3
        assert exc.value.partial is not None
        assert exc.value.partial.levels[-1].level == 2

    def test_gap_property(self):
        # components of one level are separated by at least 1/q - 2*radius;
        # the outer gap may round that down by at most the grid resolution
        params = LevelParams(theta=(F(2, 7),), tau=F(1))
        for q in (5, 12, 37):
            s = build_level(q, params)
            gap = s.outer.min_gap()
            assert gap >= F(1, q) - 2 * F(1, q ** 2) - F(1, 2 ** 100)
            inner_gap = s.inner.min_gap()
            assert inner_gap >= gap

    def test_nonzero_theta_enumeration(self):
        qs = QSequence((3, 81))
        params = LevelParams(theta=(F(1, 3),), tau=F(1))
        res = prefix_intersection(qs, params)
        oracle = brute_force_pieces([3, 81], F(1), theta=F(1, 3))
        assert res.final_count.min == res.final_count.max == len(oracle)


class TestCountingFact:
    def test_spec_examples(self):
        assert count_shifted_rationals(F(0), F(1), F(0), 5) == 4
        assert count_shifted_rationals(F(1, 10), F(1, 2), F(1, 4), 10) == 4

    def test_short_interval_lower_bound_nonbinding(self):
        c = count_shifted_rationals(F(1, 5), F(1, 5) + F(1, 100), F(0), 7)
        assert c >= 0
        assert F(1, 100) * 7 - 2 <= 0

    def test_fact_bounds_random(self):
        rng = random.Random(123456)
        for _ in range(1000):
            q = rng.randint(1, 10 ** 4)
            da, db, dt = (rng.randint(1, 1000) for _ in range(3))
            a = F(rng.randint(0, da - 1), da)
            b = a + F(rng.randint(1, db), db)
            b = min(b, F(1))
            if a >= b:
                continue
            theta = F(rng.randint(0, dt - 1), dt)
            n = count_shifted_rationals(a, b, theta, q)
            # independent oracle: direct integer-arithmetic enumeration
            direct = 0
            for p in range(q):
                num = p * theta.denominator + theta.numerator  # (p + theta) * td
                if (a.denominator * num > a.numerator * q * theta.denominator
                        and b.denominator * num < b.numerator * q * theta.denominator):
                    direct += 1
            assert n == direct, (a, b, theta, q)
            assert (b - a) * q - 2 <= n <= (b - a) * q + 2
