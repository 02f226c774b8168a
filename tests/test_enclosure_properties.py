"""Enclosure arithmetic against exact ``Fraction`` results, under hypothesis.

Every operand is an enclosure with dyadic endpoints, exact or not.  For each
operation the result must contain the exact result at the corners of its
operands and at a drawn interior point of each, and it must be exact itself
whenever its operands are exact and the exact result is again a dyadic: sums,
products, ``scale_int``, ``add_int``, ``min_with`` and ``mul_frac`` by a dyadic
always keep dyadics dyadic; ``mul_frac`` by any other rational and ``div`` do
so exactly when the quotient happens to be dyadic.  Products are drawn from
nonnegative enclosures, the only ones they take; any other raises.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liminfdim.numerics import DOWN, EXACT, UP, DirectedReal, Enclosure

from reference import enclosure_contains

EXPONENTS = st.integers(-30, 30)
DYADICS = st.builds(lambda m, e: F(m) * F(2) ** e, st.integers(-2 ** 40, 2 ** 40), EXPONENTS)
POSITIVE = st.builds(lambda m, e: F(m) * F(2) ** e, st.integers(1, 2 ** 40), EXPONENTS)
NONNEGATIVE = st.builds(lambda m, e: F(m) * F(2) ** e, st.integers(0, 2 ** 40), EXPONENTS)
NEGATIVE = st.builds(lambda m, e: F(m) * F(2) ** e, st.integers(-2 ** 40, -1), EXPONENTS)
UNIT = st.fractions(0, 1, max_denominator=1 << 20)
PRECS = st.integers(8, 96)


def _enclosure(a: F, b: F) -> Enclosure:
    lo, hi = min(a, b), max(a, b)
    exact = lo == hi
    return Enclosure(DirectedReal.from_fraction(lo, None, EXACT if exact else DOWN),
                     DirectedReal.from_fraction(hi, None, EXACT if exact else UP))


@st.composite
def operands(draw, values=DYADICS):
    """(enclosure, its endpoints and one interior point); exact half the time."""
    a = draw(values)
    b = a if draw(st.booleans()) else draw(values)
    enc = _enclosure(a, b)
    lo, hi = enc.lo.as_fraction(), enc.hi.as_fraction()
    return enc, (lo, hi, lo + draw(UNIT) * (hi - lo))


def _is_dyadic(x: F) -> bool:
    return x.denominator & (x.denominator - 1) == 0


def _check(result: Enclosure, exact_values, inputs_exact: bool) -> None:
    for v in exact_values:
        assert enclosure_contains(result, v), (result, v)
    if inputs_exact and _is_dyadic(exact_values[0]):
        assert result.is_exact and result.lo.as_fraction() == exact_values[0]


# (enclosure operation, exact operation, operand values)
BINARY = {
    "add": (lambda x, y: x + y, lambda a, b: a + b, DYADICS),
    "mul": (lambda x, y: x * y, lambda a, b: a * b, NONNEGATIVE),
    "min_with": (lambda x, y: x.min_with(y), min, DYADICS),
}


@settings(max_examples=200, deadline=None)
@given(op=st.sampled_from(sorted(BINARY)), data=st.data())
def test_binary_ops_contain_exact_result(op, data):
    enc_op, exact_op, values = BINARY[op]
    (ex, xs), (ey, ys) = data.draw(operands(values)), data.draw(operands(values))
    _check(enc_op(ex, ey), [exact_op(a, b) for a in xs for b in ys],
           ex.is_exact and ey.is_exact)


@settings(max_examples=100, deadline=None)
@given(x=operands(), lo=NEGATIVE, hi=DYADICS)
def test_product_with_a_negative_lower_end_raises(x, lo, hi):
    enc, _ = x
    negative = _enclosure(lo, max(lo, hi))
    for a, b in ((enc, negative), (negative, enc)):
        with pytest.raises(ValueError, match="lower ends"):
            a * b


@settings(max_examples=200, deadline=None)
@given(x=operands(), k=st.integers(-2 ** 20, 2 ** 20))
def test_integer_ops_contain_exact_result(x, k):
    enc, xs = x
    _check(enc.scale_int(k), [a * k for a in xs], enc.is_exact)
    _check(enc.add_int(k), [a + k for a in xs], enc.is_exact)


@settings(max_examples=200, deadline=None)
@given(x=operands(), num=st.integers(-10 ** 6, 10 ** 6),
       den=st.one_of(st.integers(0, 30).map(lambda e: 1 << e), st.integers(1, 10 ** 6)),
       prec=PRECS)
def test_mul_frac_contains_exact_result(x, num, den, prec):
    enc, xs = x
    q = F(num, den)
    _check(enc.mul_frac(q, prec), [a * q for a in xs], enc.is_exact)


@settings(max_examples=200, deadline=None)
@given(x=operands(), y=operands(values=POSITIVE), prec=PRECS)
def test_div_contains_exact_result(x, y, prec):
    (ex, xs), (ey, ys) = x, y
    _check(ex.div(ey, prec), [a / b for a in xs for b in ys],
           ex.is_exact and ey.is_exact)
