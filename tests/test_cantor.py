import random
from fractions import Fraction as F
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liminfdim.cantor import Ball, build_tree
from liminfdim.dimension import RegimeViolationError
from liminfdim.level_sets import LevelParams, prefix_intersection
from liminfdim.numerics import Enclosure
from liminfdim.sequences import PowerSpec, QSequence, generate

from reference import RadiusParams, arc_1d, arc_contains, sample_leaf_path


def params_1d(theta=F(0), tau=F(1)):
    return LevelParams(theta=(theta,), tau=tau)


class TestStructure:
    def test_branching_and_counts(self):
        tree = build_tree(QSequence((4, 256)), params_1d())
        assert tree.branching_1d == (4, 16)
        assert tree.level_count_1d(1) == 4 and tree.level_count_1d(2) == 64
        assert tree.level_count(2) == 64

    def test_two_dimensional_counts(self):
        params = LevelParams(theta=(F(0), F(0)), tau=F(1), d=2)
        tree = build_tree(QSequence((4, 256)), params)
        assert tree.level_count(1) == 16 and tree.level_count(2) == 256 * 16

    def test_regime_violation(self):
        with pytest.raises(RegimeViolationError):
            build_tree(QSequence((4, 8)), params_1d())

    def test_nesting_exhaustive_small(self):
        tree = build_tree(QSequence((4, 256)), params_1d())
        for m in tree.nodes_1d(0, 1):
            a, b, _, _ = arc_1d(tree, 0, 1, m)
            for child in tree.children_1d(0, 1, m):
                _, _, lo, hi = arc_1d(tree, 0, 2, child)
                assert a <= lo and hi <= b, (m, child)

    @pytest.mark.parametrize("qs, theta", [((5, 200), F(0)), ((7, 300), F(2, 7))],
                             ids=["q-5-200", "q-7-300-shifted"])
    def test_admitted_children_inside_inner_arc_wide_radius(self, qs, theta):
        # a radius enclosure [1/(2 q**2), 1/q**2] puts the inner and outer
        # radii many grid units apart, so an admissibility test that read the
        # parent's outer arc would admit children poking out of its inner arc
        def wide(q, prec):
            return Enclosure.from_endpoints(F(1, 2 * q * q), F(1, q * q), prec)

        tree = build_tree(QSequence(qs), RadiusParams(theta=(theta,), tau=F(1), radius=wide))
        for m in tree.nodes_1d(0, 1):
            a, b, _, _ = arc_1d(tree, 0, 1, m)
            start, avail = tree.child_range_1d(0, 1, m)
            assert avail >= tree.branching_1d[1]
            for child in range(start, start + avail):
                _, _, lo, hi = arc_1d(tree, 0, 2, child)
                assert a <= lo and hi <= b, (m, child)

    def test_separation_exhaustive_small(self):
        tree = build_tree(QSequence((4, 256)), params_1d())
        for level in (1, 2):
            arcs = sorted(arc_1d(tree, 0, level, m)[2:] for m in tree.nodes_1d(0, level))
            sep = tree.min_separation(level)
            assert sep >= F(1, 2 * tree.qs.terms[level - 1])
            for (a1, b1), (a2, b2) in zip(arcs, arcs[1:]):
                assert a2 - b1 >= sep
            # wrap-around pair
            (a1, b1), (a2, b2) = arcs[-1], arcs[0]
            assert a2 + 1 - b1 >= sep

    def test_node_measures(self):
        tree = build_tree(QSequence((4, 256)), params_1d())
        assert tree.node_measure(0) == 1
        assert tree.node_measure(1) == F(1, 4)
        assert tree.node_measure(2) == F(1, 64)

    def test_children_measures_sum_to_parent(self):
        tree = build_tree(generate(PowerSpec(4, F(4)), 4), params_1d())
        for level in range(1, 4):
            b = tree.branching_1d[level] ** tree.params.d
            assert b * tree.node_measure(level + 1) == tree.node_measure(level)

    def test_leaf_centers_inside_enumerated_outer_set(self):
        qs = QSequence((4, 256))
        tree = build_tree(qs, params_1d())
        enum = prefix_intersection(qs, params_1d())
        rng = random.Random(7)
        for _ in range(50):
            path = sample_leaf_path(tree, 0, rng)
            c = tree.center_1d(0, 2, path[-1]) % 1
            assert arc_contains(enum.sets[0].outer, c)

    def test_separation_check_rejects_wide_arcs(self):
        # q = 3, tau = 1 has level-1 boxes only 1/9 apart, below 1/(2q)
        with pytest.raises(RegimeViolationError):
            build_tree(QSequence((3, 81)), params_1d())

    def test_deterministic_construction(self):
        t1 = build_tree(QSequence((4, 256)), params_1d())
        t2 = build_tree(QSequence((4, 256)), params_1d())
        assert t1.branching_1d == t2.branching_1d
        assert t1.nodes_1d(0, 2) == t2.nodes_1d(0, 2)

    def test_node_budget_guards_full_enumeration(self):
        from liminfdim.level_sets import BudgetExceededError

        tree = build_tree(generate(PowerSpec(4, F(4)), 4), params_1d())
        with pytest.raises(BudgetExceededError):
            tree.nodes_1d(0, 4)  # ~7.7e25 leaves, far past the budget
        # queries still work on the implicit representation
        rng = random.Random(0)
        assert len(sample_leaf_path(tree, 0, rng)) == 4


class TestBallMeasure:
    def test_whole_space(self):
        tree = build_tree(QSequence((4, 256)), params_1d())
        ball = Ball((F(1, 2),), Enclosure.exact_int(1))
        mu = tree.ball_measure(ball)
        assert mu.is_exact and mu.lo.as_fraction() == 1

    def test_single_leaf_ball(self):
        # ball at a leaf centre with radius exactly the leaf radius holds
        # exactly that leaf: neighbours are at least 1/512 away
        tree = build_tree(QSequence((4, 256)), params_1d())
        m = tree.nodes_1d(0, 2)[5]
        c = tree.center_1d(0, 2, m) % 1
        ball = Ball((c,), Enclosure.exact_dyadic(1, -16))
        mu = tree.ball_measure(ball)
        assert mu.lo.as_fraction() == mu.hi.as_fraction() == F(1, 64)

    def test_small_interior_ball(self):
        # radius 1/1024 inside one level-1 box: at most a couple of leaves
        tree = build_tree(QSequence((4, 256)), params_1d())
        ball = Ball((F(1, 4) + F(1, 5000),), Enclosure.from_fraction(F(1, 1024), 128))
        mu = tree.ball_measure(ball)
        assert mu.hi.as_fraction() <= F(1, 16)

    def test_monotone_in_radius(self):
        tree = build_tree(generate(PowerSpec(4, F(4)), 3), params_1d())
        c = (F(1, 4),)
        last = F(0)
        for k in (14, 10, 6, 3, 1):
            mu = tree.ball_measure(Ball(c, Enclosure.exact_dyadic(1, -k)))
            assert mu.hi.as_fraction() >= last
            last = mu.lo.as_fraction()

    def test_additivity_against_leaf_sum(self):
        # measure of a level-1 box ball equals the mass of its subtree
        tree = build_tree(QSequence((4, 256)), params_1d())
        ball = Ball((F(0),), Enclosure.from_fraction(F(1, 16), 128))
        mu = tree.ball_measure(ball)
        # 16 leaves under one level-1 node, each 1/64
        assert mu.lo.as_fraction() <= F(16, 64) + F(1, 1000)
        assert mu.hi.as_fraction() >= F(16, 64) - F(1, 1000)

    def test_ball_across_wrap(self):
        # leaves under the wrapped level-1 parent carry negative unrolled
        # residues; windows shifted by +-1 must still find them
        tree = build_tree(QSequence((4, 256)), params_1d())
        for c in (F(-3, 256) % 1, F(0)):
            ball = Ball((c,), Enclosure.exact_dyadic(1, -16))
            mu = tree.ball_measure(ball)
            assert mu.lo.as_fraction() == mu.hi.as_fraction() == F(1, 64)

    def test_two_dimensional_product(self):
        params = LevelParams(theta=(F(0), F(0)), tau=F(1), d=2)
        tree = build_tree(QSequence((4, 256)), params)
        m = tree.nodes_1d(0, 2)[20]
        c = tree.center_1d(0, 2, m) % 1
        ball = Ball((c, c), Enclosure.exact_dyadic(1, -16))
        mu = tree.ball_measure(ball)
        assert mu.lo.as_fraction() == mu.hi.as_fraction() == F(1, 64) ** 2


def brute_force_mass(tree, ball):
    """(inside, meeting): the exact leaf mass whose closed outer arcs lie
    inside / meet the closed ball, from every leaf of ``nodes_1d``.  However
    the mass sits inside the leaves, the ball's measure lies between them."""
    rad_lo, rad_hi = ball.radius.lo.as_fraction(), ball.radius.hi.as_fraction()
    if rad_lo >= F(1, 2):
        return F(1), F(1)
    q = tree.qs.terms[-1]
    leaf_r = F(tree._r_hi[-1], 1 << tree._scale)
    inside = meet = 1
    for i, x in enumerate(ball.center):
        theta = tree.params.theta[i]
        dist = [abs(((m + theta) / q - x + F(1, 2)) % 1 - F(1, 2))
                for m in tree.nodes_1d(i, tree.depth)]
        inside *= sum(t <= rad_lo - leaf_r for t in dist)
        meet *= sum(t <= rad_hi + leaf_r for t in dist)
    mu = tree.node_measure(tree.depth)
    return inside * mu, meet * mu


def assert_encloses_brute_force(tree, ball):
    mu = tree.ball_measure(ball)
    inside, meet = brute_force_mass(tree, ball)
    assert mu.lo.as_fraction() <= inside and meet <= mu.hi.as_fraction(), \
        (mu.lo.as_fraction(), mu.hi.as_fraction(), inside, meet)


@st.composite
def small_trees(draw):
    d = draw(st.integers(1, 2))
    tau = draw(st.sampled_from([F(1, 2), F(1)]))
    terms = [draw(st.integers(4, 9))]
    for _ in range(draw(st.integers(2, 3))):
        base = int(terms[-1] ** float(1 + tau)) + 1
        terms.append(base * draw(st.integers(2, 4)) + draw(st.integers(0, 7)))
    theta = tuple(draw(st.sampled_from([F(0), F(1, 2), F(71, 97), F(2, 97), F(5, 8)]))
                  for _ in range(d))
    try:
        return build_tree(QSequence(tuple(terms)), LevelParams(theta=theta, tau=tau, d=d))
    except RegimeViolationError:
        assume(False)


class TestBallMeasureSound:
    def test_window_longer_than_circle(self):
        # at level 1 the meeting window c +- (0.4941 + 1/100) is longer than
        # the circle, so residue 3 of coordinate 0 lies in two shifted copies
        # of it; walking its subtree twice counted 4788 leaves inside, not 4662
        tree = build_tree(QSequence((10, 803, 5804000, 235804915299936)),
                          LevelParams(theta=(F(71, 97), F(2, 97)), tau=F(1), d=2))
        ball = Ball((F(871, 1000), F(37, 125)), Enclosure.from_fraction(F(2122158171, 1 << 32)))
        assert brute_force_mass(tree, ball) == (F(2701, 3200), F(2701, 3200))
        assert_encloses_brute_force(tree, ball)

    def test_centre_off_the_unit_interval(self):
        # a window's copies one circle to either side reach the tree only
        # from a centre within a circle of it; the ball reduces its centre
        tree = build_tree(QSequence((9, 657, 4316500)), params_1d(F(5, 8)))
        radius = Enclosure.from_fraction(F(1, 16))
        mu = tree.ball_measure(Ball((F(3, 10),), radius))
        assert mu.lo.as_fraction() <= F(1, 9) <= mu.hi.as_fraction()  # one whole level-1 box
        assert mu.hi.as_fraction() - mu.lo.as_fraction() < F(1, 1 << 120)
        for c in (F(13, 10), F(-7, 10), F(53, 10), F(-37, 10)):
            moved = tree.ball_measure(Ball((c,), radius))
            assert (moved.lo, moved.hi) == (mu.lo, mu.hi), c

    @settings(max_examples=60, deadline=None)
    @given(tree=small_trees(), data=st.data())
    def test_integer_shift_of_centre(self, tree, data):
        center = tuple(data.draw(st.fractions(0, 1, max_denominator=1000).filter(lambda x: x < 1))
                       for _ in range(tree.params.d))
        shift = tuple(data.draw(st.integers(-10 ** 6, 10 ** 6)) for _ in center)
        radius = Enclosure.from_fraction(
            data.draw(st.fractions(F(1, 1000), F(1, 2), max_denominator=10 ** 6)), 64)
        mu = tree.ball_measure(Ball(center, radius))
        moved = tree.ball_measure(Ball(tuple(c + n for c, n in zip(center, shift)), radius))
        assert (moved.lo, moved.hi) == (mu.lo, mu.hi)

    @settings(max_examples=60, deadline=None)
    @given(tree=small_trees(), data=st.data())
    def test_encloses_brute_force(self, tree, data):
        center = tuple(data.draw(st.fractions(0, 1, max_denominator=1000).filter(lambda x: x < 1))
                       for _ in range(tree.params.d))
        radius = data.draw(st.one_of(
            st.fractions(F(1, 1000), F(1, 2), max_denominator=10 ** 6),
            st.integers(1, 1 << 12).map(lambda k: F(1, 2) - F(k, 1 << 16))))
        assert_encloses_brute_force(tree, Ball(center, Enclosure.from_fraction(radius, 64)))


class TestHolder:
    def test_single_leaf_ratio_value(self):
        # ratio mu / r^s for the single-leaf ball at s = 0.3:
        # (1/64) * 65536^0.3 = 2^-1.2
        tree = build_tree(QSequence((4, 256)), params_1d())
        m = tree.nodes_1d(0, 2)[3]
        c = tree.center_1d(0, 2, m) % 1
        ball = Ball((c,), Enclosure.exact_dyadic(1, -16))
        mu = tree.ball_measure(ball)
        denom = Enclosure.exact_dyadic(1, -16).pow_frac(F(3, 10), 128)
        ratio = mu.hi.as_fraction() / denom.lo.as_fraction()
        assert abs(float(ratio) - 2 ** -1.2) < 1e-9

    def test_certificate_deterministic(self):
        tree = build_tree(generate(PowerSpec(4, F(4)), 3), params_1d())
        c1 = tree.holder_certificate(F(3, 10), 50, seed=11)
        c2 = tree.holder_certificate(F(3, 10), 50, seed=11)
        assert c1.max_ratio == c2.max_ratio
        assert c1.worst_ball.center == c2.worst_ball.center

    def test_certificate_bound_below_critical_s(self):
        tree = build_tree(generate(PowerSpec(4, F(4)), 4), params_1d())
        cert = tree.holder_certificate(F(3, 10), 1000, seed=7)
        assert cert.max_ratio <= 16

    def test_above_bracket_ratio_grows_with_depth(self):
        # negative control: s above the limit lets the ratio grow with depth
        qs = generate(PowerSpec(4, F(4)), 5)
        r3 = build_tree(qs, params_1d(), depth=3).holder_certificate(F(1, 2), 400, seed=3)
        r5 = build_tree(qs, params_1d(), depth=5).holder_certificate(F(1, 2), 400, seed=3)
        assert r5.max_ratio > r3.max_ratio
