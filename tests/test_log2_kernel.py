"""The log2 kernels against their definitions, under hypothesis.

``reference_log2_bracket`` is the squaring kernel as it was when it squared
a lower end of its working interval beside the upper one, halved both in a
loop while the upper end passed 2, and checked at the end that the interval
had stayed in [1/2, 4].  Only the upper end decides the bits of ``acc``, and
``acc`` alone decides the bracket, so ``_log2_squares`` and the fast
``_log2_bracket`` must both return the same enclosure bit for bit, direction
tags included; a draw on which the reference's check fails fails here too.

Rounding the squaring kernel's square or its halving down instead of up
changes the bracket only on rare inputs (about 1 in 1,500 and 1 in 4,600
random odd integers below 2**64 at 8 to 40 bits), so random draws seldom
see either; ``test_rounding_inputs`` pins inputs on which they do.

The fast path returns floor(2**steps * log2 n) through Ziv's rounding test,
while the squaring kernel drifts up to the next integer when the scaled log
lies just below one.  Random draws meet such a drift about once in 1,700, so
``test_drift_inputs`` pins inputs where the squaring kernel drifts: only the
fallback gets them right.
"""

import random

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liminfdim import numerics
from liminfdim.numerics import (
    _ZIV_ERROR,
    _ZIV_GUARD,
    Enclosure,
    _ln2_fixed,
    _log2_atanh,
    _log2_bracket,
    _log2_squares,
)
from reference import reference_log2_bracket


def bits(enc: Enclosure) -> tuple:
    """Everything an enclosure holds, direction tags included."""
    return tuple((d.mantissa, d.exponent, d.direction) for d in (enc.lo, enc.hi))


def seeded_int(n_bits: int, seed: int) -> int:
    """A seeded integer of n_bits bits, its top bit set."""
    return random.Random(seed).getrandbits(n_bits) | 1 << (n_bits - 1)


@st.composite
def arguments(draw):
    """An integer of 2 to 30,000 bits, its top bit set."""
    return seeded_int(draw(st.integers(2, 30000)), draw(st.integers(0, 2 ** 32)))


@pytest.fixture
def fallbacks(monkeypatch):
    """The (n, prec) of every ``_log2_squares`` call ``_log2_bracket`` makes."""
    calls = []

    def counted(n, prec):
        calls.append((n, prec))
        return _log2_squares(n, prec)

    monkeypatch.setattr(numerics, "_log2_squares", counted)
    return calls


def log2_parts(n: int, bits_past: int) -> tuple[int, float]:
    """floor(2**bits_past * log2 n) and the fractional part, from mpmath with
    a hundred bits to spare."""
    with mpmath.workprec(bits_past + n.bit_length().bit_length() + 100):
        y = mpmath.ldexp(mpmath.log(n, 2), bits_past)
        whole = int(mpmath.floor(y))
        return whole, float(y - whole)


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
    expected = bits(reference_log2_bracket(n, prec))
    assert bits(_log2_squares(n, prec)) == expected
    assert bits(_log2_bracket(n, prec)) == expected


# 2**(prec + 3) * log2 n lies within 2**-9 of the next integer, and the
# squaring kernel's acc is that integer, not the floor
@pytest.mark.parametrize("n, prec", [
    (626298829049257227, 10), (625298819, 10), (573062063, 10),
    (179937867071111, 9), (159180415180451, 16), (1536166281352616067, 24)])
def test_drift_inputs(n, prec, fallbacks):
    expected = reference_log2_bracket(n, prec)
    floor, frac = log2_parts(n, prec + 3)
    assert 1 - frac < 2 ** -9
    assert expected.lo.as_fraction() * 2 ** (prec + 3) + 1 == floor + 1
    assert bits(_log2_bracket(n, prec)) == bits(expected)
    assert fallbacks == [(n, prec)]


@settings(max_examples=300, deadline=None)
@given(arguments(), st.integers(8 + 3 + _ZIV_GUARD, 2048 + 3 + _ZIV_GUARD))
@example(3, 27)
@example(2 ** 64 - 1, 2067)
@example(2 ** 30000 + 1, 2067)
# x near 2 at a width where the series' term count has little slack: one
# term short, the value errs by about 375 units here
@example(2 ** 64 - 1, 2032)
def test_fast_value_within_its_error_bound(n, f):
    if n & (n - 1) == 0:
        return
    floor, frac = log2_parts(n, f)
    assert abs(_log2_atanh(n, f) - floor - frac) < _ZIV_ERROR, (n, f)


def test_fast_path_taken_only_where_the_floor_is_the_bracket(fallbacks):
    """Where no fallback ran, floor(2**steps * log2 n) is the bracket's
    centre and lies farther than the drift bound below the next integer."""
    rng = random.Random(3)
    for _ in range(200):
        n, prec = seeded_int(rng.randint(2, 3000), rng.getrandbits(32)), rng.randint(8, 300)
        if n & (n - 1) == 0:
            continue
        del fallbacks[:]
        enc = _log2_bracket(n, prec)
        if fallbacks:
            continue
        floor, frac = log2_parts(n, prec + 3)
        assert enc.lo.as_fraction() * 2 ** (prec + 3) + 1 == floor, (n, prec)
        assert frac < 1 - 9 / 2048, (n, prec)


def test_fallback_share(fallbacks):
    """The fast path serves all but a small share of arguments: a window so
    wide that it turned the fast path off would show here.  Ziv's test
    falls back on about 1 in 225."""
    rng = random.Random(1)
    draws = 2000
    for i in range(draws):
        n_bits = rng.randint(64, 4000)
        _log2_bracket(rng.getrandbits(n_bits) | 1 << (n_bits - 1), (128, 1032)[i % 2])
    assert len(fallbacks) <= draws // 50


@pytest.mark.parametrize("widths", [(8, 64, 4000), (4000, 64, 8), (300, 301, 602, 1205)])
def test_ln2_constant(widths, monkeypatch):
    """c <= 2**w ln 2 < c + 2 at every width, as the held constant widens
    and as narrower ones are cut from it."""
    monkeypatch.setattr(numerics, "_LN2", (0, 0))
    for w in widths:
        c = _ln2_fixed(w)
        with mpmath.workprec(w + 100):
            assert 0 <= mpmath.ldexp(mpmath.log(2), w) - c < 2, w
    assert numerics._LN2[0] >= max(widths)


def test_every_small_argument_against_the_integer_oracle():
    """Every n < 4096 that is not a power of two, against F = floor(2**f
    log2 n) = bit_length(n**(2**f)) - 1, which is exact on integers: at f =
    8..13, F - 1 <= _log2_atanh(n, f) <= F + 2, which for an integer is
    |z - 2**f log2 n| < 2, as 2**f log2 n lies strictly between F and F + 1;
    at prec 8..10 (steps = prec + 3 = 11..13) the squaring kernel's acc is
    F or F + 1, and the fast bracket is the squaring kernel's bit for bit."""
    for n in range(3, 4096):
        if n & (n - 1) == 0:
            continue
        floors, power = {}, n ** (1 << 7)
        for f in range(8, 14):
            power *= power
            floors[f] = power.bit_length() - 1
            assert floors[f] - 1 <= _log2_atanh(n, f) <= floors[f] + 2, (n, f)
        for prec in range(8, 11):
            steps = prec + 3
            enc = _log2_squares(n, prec)
            assert enc.lo.as_fraction() * 2 ** steps + 1 - floors[steps] in (0, 1), (n, prec)
            assert bits(_log2_bracket(n, prec)) == bits(enc), (n, prec)
