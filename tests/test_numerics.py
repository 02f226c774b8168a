import random
from fractions import Fraction as F

import mpmath
import pytest

from liminfdim.numerics import (
    DOWN,
    EXACT,
    UP,
    DirectedReal,
    Enclosure,
    dir_pow,
    log2_int,
    log_ratio,
)

from reference import enclosure_contains


def mp_contains(enc, mp_value):
    """True when the mpmath oracle value lies inside the enclosure."""
    lo, hi = enc.lo.as_fraction(), enc.hi.as_fraction()
    lo_mp = mpmath.mpf(lo.numerator) / lo.denominator
    hi_mp = mpmath.mpf(hi.numerator) / hi.denominator
    return lo_mp <= mp_value <= hi_mp


class TestDirectedReal:
    def test_canonical_mantissa_odd_or_zero(self):
        d = DirectedReal(12, 3)
        assert d.mantissa == 3 and d.exponent == 5
        z = DirectedReal(0, 17)
        assert z.mantissa == 0 and z.exponent == 0

    def test_value_equality_ignores_direction(self):
        assert DirectedReal(1, -1, DOWN) == DirectedReal(2, -2, UP)

    def test_ordering(self):
        assert DirectedReal(1, -2) < DirectedReal(1, -1)
        assert DirectedReal(-3, 0) < DirectedReal(0, 0)

    def test_add_mul_exact(self):
        a = DirectedReal(3, -2)
        b = DirectedReal(5, -3)
        assert (a + b).as_fraction() == F(3, 4) + F(5, 8)
        assert (a * b).as_fraction() == F(15, 32)

    def test_directed_product_needs_nonnegative_factors(self):
        down = DirectedReal(31, -1, DOWN)
        # -2 times a lower bound of 15.5 is an upper bound of the product
        with pytest.raises(ValueError, match="nonnegative"):
            DirectedReal(-2, 0) * down
        with pytest.raises(ValueError, match="nonnegative"):
            down * DirectedReal(-1, 0, DOWN)
        p = DirectedReal(2, 0) * down
        assert p.as_fraction() == 31 and p.direction is DOWN
        p = DirectedReal(-2, 0) * DirectedReal(-3, 0)
        assert p.as_fraction() == 6 and p.direction is EXACT

    def test_mixed_directions_rejected(self):
        with pytest.raises(ValueError):
            DirectedReal(1, 0, DOWN) + DirectedReal(1, 0, UP)

    def test_floor_ceil(self):
        d = DirectedReal(5, -1)  # 2.5
        assert d.floor() == 2 and d.ceil() == 3
        d = DirectedReal(-5, -1)
        assert d.floor() == -3 and d.ceil() == -2


class TestDirPow:
    def test_perfect_power_exact(self):
        e = dir_pow(4, F(-1, 2), 32)
        assert e.is_exact and e.lo.as_fraction() == F(1, 2)

    def test_integer_power_exact(self):
        e = dir_pow(2, 3, 32)
        assert e.is_exact and e.lo.as_fraction() == 8

    def test_reciprocal_enclosure(self):
        # oracle: exact rational comparison against 1/3
        e = dir_pow(3, -1, 8)
        assert e.lo.as_fraction() <= F(1, 3) <= e.hi.as_fraction()
        assert e.width() <= F(1, 2 ** 7)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            dir_pow(0, F(1, 2))
        with pytest.raises(ValueError):
            dir_pow(3, F(1, 2), prec=4)

    def test_rational_probe_soundness(self):
        # p/s < q^(a/b)  <=>  p^b < q^a * s^b, checked in exact integers.
        rng = random.Random(20240817)
        for _ in range(200):
            q = rng.randint(2, 50)
            a = rng.randint(-6, 6) or 1
            b = rng.randint(1, 4)
            enc = dir_pow(q, F(a, b), 64)
            for dr in (enc.lo, enc.hi):
                r = dr.as_fraction()
                lhs = r.numerator ** b * (q ** -a if a < 0 else 1)
                rhs = r.denominator ** b * (q ** a if a > 0 else 1)
                if dr is enc.lo:
                    assert lhs <= rhs, (q, a, b)
                else:
                    assert lhs >= rhs, (q, a, b)

    def test_exactness_iff_dyadic(self):
        assert dir_pow(8, F(2, 3)).is_exact          # = 4
        assert dir_pow(2, F(-3, 1)).is_exact         # = 1/8
        assert dir_pow(4, F(3, 2)).is_exact          # = 8
        assert not dir_pow(2, F(1, 2)).is_exact      # sqrt 2
        assert not dir_pow(9, F(-1, 2)).is_exact     # 1/3
        assert dir_pow(9, F(1, 2)).is_exact          # = 3

    def test_monotone_in_precision(self):
        for prec2 in (16, 32, 64, 128, 256):
            w1 = dir_pow(7, F(-5, 3), prec2).width()
            w2 = dir_pow(7, F(-5, 3), prec2 * 2).width()
            assert w2 <= w1

    def test_relative_width_bound(self):
        for q, e, prec in [(3, F(-3, 2), 16), (97, F(5, 7), 64), (10, F(-11, 4), 128)]:
            enc = dir_pow(q, e, prec)
            assert enc.width() <= F(2) ** (1 - prec) * max(F(1), abs(enc.hi.as_fraction()))


class TestLog:
    def test_power_detection(self):
        assert log_ratio(16, 2).is_exact
        assert log_ratio(16, 2).lo.as_fraction() == 4
        assert log_ratio(81, 3).lo.as_fraction() == 4
        assert log_ratio(1000, 10).lo.as_fraction() == 3

    def test_inverse_power_is_tight(self):
        enc = log_ratio(10, 1000, 64)
        assert enclosure_contains(enc, F(1, 3)) and enc.width() <= F(1, 2 ** 60)

    def test_against_independent_oracle(self):
        mpmath.mp.prec = 300
        for a, b in [(100, 3), (7, 2), (360, 7), (10 ** 12 + 39, 5)]:
            enc = log_ratio(a, b, 53)
            assert mp_contains(enc, mpmath.log(a) / mpmath.log(b)), (a, b)

    def test_log2_int_oracle(self):
        mpmath.mp.prec = 300
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 10 ** 9)
            enc = log2_int(n, 64)
            assert mp_contains(enc, mpmath.log(n, 2)), n
            assert enc.width() <= F(1, 2 ** 60)

    def test_log2_huge_argument(self):
        n = 3 ** 4000 + 12345
        enc = log2_int(n, 64)
        mpmath.mp.prec = 80
        assert mp_contains(enc, mpmath.log(n, 2))

    def test_rejects_small_arguments(self):
        with pytest.raises(ValueError):
            log_ratio(1, 2)
        with pytest.raises(ValueError):
            log_ratio(4, 1)


class TestEnclosure:
    def test_interval_arithmetic_exact(self):
        a = Enclosure.from_endpoints(F(1, 4), F(1, 2))
        b = Enclosure.from_endpoints(F(-1, 8), F(3, 8))
        s = a + b
        assert s.lo.as_fraction() == F(1, 8) and s.hi.as_fraction() == F(7, 8)
        p = a * (b + Enclosure.from_fraction(F(1, 8)))
        assert p.lo.as_fraction() == 0 and p.hi.as_fraction() == F(1, 4)
        # products are taken of nonnegative enclosures only
        with pytest.raises(ValueError, match="lower ends"):
            a * b

    def test_exact_quotient_of_bounds_keeps_their_directions(self):
        e = Enclosure(DirectedReal(3, 0, DOWN), DirectedReal(5, 0, UP))
        q = e.div(Enclosure.exact_int(1), 64)
        assert (q.lo.direction, q.hi.direction) == (DOWN, UP)
        q = e.mul_frac(F(2, 3), 64)
        assert (q.lo.direction, q.hi.direction) == (DOWN, UP)
        q = Enclosure.exact_int(6).div(Enclosure.exact_int(4), 64)
        assert (q.lo.direction, q.hi.direction) == (EXACT, EXACT)

    def test_division_exact_when_clean(self):
        d = Enclosure.exact_int(1366).div(Enclosure.exact_int(4096))
        assert d.is_exact and d.lo.as_fraction() == F(683, 2048)

    def test_division_sound(self):
        mpmath.mp.prec = 200
        a = Enclosure.from_fraction(F(22, 7), 64)
        b = Enclosure.from_fraction(F(113, 355), 64)
        q = a.div(b, 64)
        assert mp_contains(q, (mpmath.mpf(22) / 7) / (mpmath.mpf(113) / 355))

    def test_pow_frac_matches_known_value(self):
        # (2^-16)^(3/10) = 2^-4.8
        enc = Enclosure.exact_dyadic(1, -16).pow_frac(F(3, 10), 64)
        mpmath.mp.prec = 200
        assert mp_contains(enc, mpmath.mpf(2) ** mpmath.mpf("-4.8"))

    def test_certainly_comparisons(self):
        e = Enclosure.from_endpoints(F(1, 3), F(1, 2))
        assert e.certainly_gt(F(1, 4)) is True
        assert e.certainly_gt(F(2, 3)) is False
        assert e.certainly_gt(F(2, 5)) is None

    def test_scale_and_shift(self):
        e = Enclosure.from_endpoints(F(1, 4), F(1, 2))
        assert e.scale_int(4).hi.as_fraction() == 2
        assert e.add_int(1).lo.as_fraction() == F(5, 4)
        m = e.mul_frac(F(2, 3), 64)
        assert m.lo.as_fraction() <= F(1, 6) and m.hi.as_fraction() >= F(1, 3)
