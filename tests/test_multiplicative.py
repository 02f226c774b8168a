import random
from fractions import Fraction as F

import mpmath
import pytest

from liminfdim.multiplicative import (
    _column_counts,
    cover_size,
    hyperbolic_cover,
    mult_bounds,
    mult_cost_exponent,
)
from liminfdim.numerics import Enclosure

from reference import covers, enclosure_contains


class TestMultBounds:
    def test_exact_values(self):
        lower, upper = mult_bounds(F(1), F(1, 3), 2)
        assert lower == F(4, 3) and upper == F(3, 2)

    def test_alpha_zero_bounds_coincide(self):
        for tau, d in [(F(1), 2), (F(3, 2), 1), (F(2), 4)]:
            lower, upper = mult_bounds(tau, F(0), d)
            assert lower == upper == d - 1 + F(1, tau + 1)

    def test_clamped_at_d_minus_one(self):
        lower, upper = mult_bounds(F(1), F(2), 2)
        assert lower == 1 and upper == F(3, 2)

    def test_lower_never_exceeds_upper_random(self):
        rng = random.Random(4)
        for _ in range(100):
            tau = F(rng.randint(1, 40), rng.randint(1, 10))
            alpha = F(rng.randint(0, 30), rng.randint(1, 30))
            d = rng.randint(1, 4)
            lower, upper = mult_bounds(tau, alpha, d)
            assert lower <= upper

    def test_enclosure_alpha(self):
        alpha = Enclosure.from_fraction(F(1, 3), 128)
        lower, upper = mult_bounds(F(1), alpha, 2)
        assert upper == F(3, 2)
        assert enclosure_contains(lower, F(4, 3)) and lower.width() <= F(1, 2 ** 100)

    def test_consistency_with_dimension_formula(self):
        # the d = 1 lower bound is the dimension formula itself
        from liminfdim.dimension import theoretical_dimension

        for tau, alpha in [(F(1), F(1, 3)), (F(2), F(1, 5)), (F(1, 2), F(2, 3))]:
            lower, _ = mult_bounds(tau, alpha, 1)
            assert lower == theoretical_dimension(tau, alpha, 1).value


class TestCostExponent:
    def test_critical_point(self):
        assert mult_cost_exponent(2, F(1), F(3, 2)) == 0
        assert mult_cost_exponent(1, F(2), F(1, 3)) == 0

    def test_sign_change(self):
        assert mult_cost_exponent(2, F(1), F(8, 5)) == F(-1, 5)
        assert mult_cost_exponent(2, F(1), F(7, 5)) > 0

    def test_vanishes_at_closed_form_random(self):
        rng = random.Random(11)
        for _ in range(20):
            d = rng.randint(1, 5)
            tau = F(rng.randint(1, 50), rng.randint(1, 10))
            s = d - 1 + F(1, tau + 1)
            assert mult_cost_exponent(d, tau, s) == 0


class TestHyperbolicCover:
    def test_gamma_one_single_square(self):
        cover, cost = hyperbolic_cover(F(1), F(3, 2))
        assert cover.total_squares() == 1
        assert cost.is_exact and cost.lo.as_fraction() == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            hyperbolic_cover(F(1, 3), F(3, 2))
        with pytest.raises(ValueError):
            hyperbolic_cover(F(1, 64), F(1, 2))
        with pytest.raises(ValueError):
            hyperbolic_cover(F(1, 64), F(5, 2))

    def test_cost_within_factor_8_of_sqrt_gamma(self):
        _, cost = hyperbolic_cover(F(1, 64), F(3, 2))
        ratio = cost.midpoint() / F(1, 8)  # gamma^(1/2) = 2^-3
        assert F(1, 8) <= ratio <= 8
        # regression pin for the implemented construction
        assert abs(float(cost.midpoint()) - 0.4345) < 5e-3

    def test_cost_at_s2_dominates_area(self):
        # s = 2 cost is at least the region's area gamma*(1 + ln(1/gamma))
        _, cost = hyperbolic_cover(F(1, 64), F(2))
        mpmath.mp.prec = 100
        area = mpmath.mpf(1) / 64 * (1 + mpmath.log(64))
        assert float(cost.lo.as_fraction()) >= float(area)

    def test_soundness_random_points(self):
        # all corners and sample points are small dyadics, so float
        # comparisons below are exact
        rng = random.Random(2024)
        for K in (4, 6, 9, 12):
            gamma = F(1, 1 << K)
            cover, _ = hyperbolic_cover(gamma, F(8, 5))
            unit = 2.0 ** -K
            sq = [(x * unit, y * unit, s * unit) for x, y, s in cover.squares]
            for _ in range(2000):
                x = F(rng.getrandbits(30), 1 << 30)
                cap = min(F(1), gamma / x) if x > 0 else F(1)
                y_exact = cap * F(rng.getrandbits(30), 1 << 30)
                y = F(int(y_exact * (1 << 40)), 1 << 40)  # round down, stay inside
                assert x * y <= gamma
                fx, fy = float(x), float(y)
                assert any(sx <= fx <= sx + ss and sy <= fy <= sy + ss
                           for sx, sy, ss in sq), (K, fx, fy)

    def test_axis_and_corner_points_covered(self):
        cover, _ = hyperbolic_cover(F(1, 256), F(8, 5))
        for (x, y) in [(F(0), F(0)), (F(1), F(1, 256)), (F(0), F(1)), (F(1), F(0)),
                       (F(1, 256), F(1)), (F(1, 2), F(1, 128))]:
            assert x * y <= F(1, 256)
            assert covers(cover, x, y)

    @pytest.mark.parametrize("K", range(8))
    def test_covers_every_point_of_a_finer_grid(self, K):
        # on the grid 2**-(K+2): every point of the region is covered, and no
        # square reaches past x*y <= 3*gamma (the odd-K last column's bound)
        cover, _ = hyperbolic_cover(F(1, 1 << K), F(8, 5))
        n = 1 << (K + 2)
        grid = [F(i, n) for i in range(n + 1)]
        for i, x in enumerate(grid):
            for j, y in enumerate(grid):
                covered = covers(cover, x, y)
                if i * j <= n * n >> K:
                    assert covered, (K, x, y)
                elif covered:
                    assert i * j <= 3 * (n * n >> K), (K, x, y)

    def test_size_matches_construction(self):
        for K in range(17):
            cover, _ = hyperbolic_cover(F(1, 1 << K), F(8, 5))
            assert cover.big_k == K
            assert cover_size(K) == cover.total_squares()

    def test_size_closed_form_is_the_column_sum(self):
        for K in range(400):
            assert cover_size(K) == 1 + 2 * sum(_column_counts(K)), K

    def test_scaling_band(self):
        # s_cost(gamma) * gamma^-(s-1) stays in a narrow band at s = 1.6
        vals = []
        for K in range(4, 21):
            _, cost = hyperbolic_cover(F(1, 1 << K), F(8, 5))
            scale = Enclosure.exact_int(1 << K).pow_frac(F(3, 5), 128)
            vals.append((cost * scale).midpoint())
        band = max(vals) / min(vals)
        assert band <= 16
