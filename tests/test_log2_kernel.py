"""The log2 kernel against its two-ended form, under hypothesis.

``reference_log2_bracket`` is ``numerics._log2_bracket`` as it was when it
squared a lower end of its working interval beside the upper one, halved
both in a loop while the upper end passed 2, and checked at the end that
the interval had stayed in [1/2, 4].  Only the upper end decides the bits
of ``acc``, and ``acc`` alone decides the bracket, so both must return the
same enclosure bit for bit, direction tags included; a draw on which the
reference's check fails fails here too.

Rounding the loop's square or its halving down instead of up changes the
bracket only on rare inputs (about 1 in 1,500 and 1 in 4,600 random odd
integers below 2**64 at 8 to 40 bits), so random draws seldom see either;
``test_rounding_inputs`` pins inputs on which they do.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liminfdim.numerics import Enclosure, _log2_bracket
from reference import reference_log2_bracket


def bits(enc: Enclosure) -> tuple:
    """Everything an enclosure holds, direction tags included."""
    return tuple((d.mantissa, d.exponent, d.direction) for d in (enc.lo, enc.hi))


@st.composite
def arguments(draw):
    """An integer of 2 to 30,000 bits, its top bit set."""
    n_bits = draw(st.integers(2, 30000))
    return random.Random(draw(st.integers(0, 2 ** 32))).getrandbits(n_bits) | 1 << (n_bits - 1)


@settings(max_examples=800, deadline=None)
@given(arguments(), st.integers(8, 2048))
@example(2 ** 1 - 1, 8)
@example(2 ** 1 + 1, 2048)
@example(2 ** 64 - 1, 2048)
@example(2 ** 64 + 1, 8)
@example(2 ** 1000 - 1, 128)
@example(2 ** 1000 + 1, 1032)
@example(2 ** 30000 - 1, 2048)
@example(2 ** 30000 + 1, 2048)
def test_kernel_matches_two_ended_reference(n, prec):
    assert bits(_log2_bracket(n, prec)) == bits(reference_log2_bracket(n, prec)), (n, prec)


# each bracket's lower end moves down by one unit when the square is rounded
# down; for the first two it does so too when the halving is
@pytest.mark.parametrize("n, prec", [(1161, 8), (4056095, 8), (37927, 8), (25379, 8)])
def test_rounding_inputs(n, prec):
    assert bits(_log2_bracket(n, prec)) == bits(reference_log2_bracket(n, prec))
