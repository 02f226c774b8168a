"""One certified log2 per term and call on the bracket path.

``exponent_stats`` and ``validate_regime`` take every log2 q_j once per call
and divide table entries, and ``upper_cover_count`` no longer re-checks the
regime.  These tests pin the kernel call counts and check that the table
gives bit for bit what ``log_ratio`` gives on its own.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liminfdim import numerics
from liminfdim.dimension import upper_cover_count, upper_dim_estimate
from liminfdim.numerics import log_ratio
from liminfdim.sequences import (
    ExplicitSpec,
    PowerSpec,
    QSequence,
    RegimeStatus,
    exponent_stats,
    generate,
    validate_regime,
)

PREC = 1024
SEQUENCES = [
    generate(PowerSpec(13, F(12, 5)), 8),                     # no power relations
    generate(PowerSpec(3, F(2)), 6),                          # an exact power chain
    generate(ExplicitSpec((5, 37, 1201, 2 ** 40 + 15, 3 ** 60 + 2, 7 ** 70 + 4)), 6),
]


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count the evaluations of the log2 kernel behind every public log."""
    calls = []
    inner = numerics._log2_bracket

    def counted(n, prec):
        calls.append((n, prec))
        return inner(n, prec)

    monkeypatch.setattr(numerics, "_log2_bracket", counted)
    return calls


def _count(calls, fn, *args):
    del calls[:]
    fn(*args)
    return len(calls)


@pytest.mark.parametrize("qs", SEQUENCES, ids=lambda qs: f"J{len(qs)}q{qs.terms[0]}")
def test_kernel_calls_per_call(qs, kernel_calls):
    J = len(qs)
    per_depth = [_count(kernel_calls, upper_dim_estimate, qs, F(1, 2), 2, depth, PREC)
                 for depth in range(1, J + 1)]
    assert len(set(per_depth)) == 1, per_depth
    assert _count(kernel_calls, upper_cover_count, qs, F(1, 2), 1, J, PREC) == 0
    assert _count(kernel_calls, exponent_stats, qs, PREC) <= 2 * J - 1
    # no (argument, precision) pair is taken twice within one call
    assert len(set(kernel_calls)) == len(kernel_calls)
    assert _count(kernel_calls, validate_regime, qs, F(1, 2), PREC) <= J


def test_cover_regime_is_read_lazily(kernel_calls):
    report = upper_cover_count(QSequence((4, 8)), F(1), prec=PREC)
    assert not kernel_calls
    assert report.regime.status is RegimeStatus.FAIL
    assert kernel_calls


# -- property: the shared table changes no bit ------------------------------

def _power_chain(base, exponents):
    """base, base**k1, base**(k1*k2), ..."""
    return tuple(base ** math.prod(exponents[:i]) for i in range(len(exponents) + 1))


def _increasing(draws):
    terms, q = [], 1
    for step in draws:
        q += step
        terms.append(q)
    return tuple(terms)


_bits = st.integers(min_value=2, max_value=3000)
SEQS = st.one_of(
    # small increasing terms
    st.lists(st.integers(1, 60), min_size=1, max_size=7)
      .map(lambda xs: _increasing([xs[0] + 1] + xs[1:])),
    # powers of two
    st.lists(st.integers(1, 400), min_size=1, max_size=7, unique=True)
      .map(lambda ks: tuple(1 << k for k in sorted(ks))),
    # exact power chains b, b**k1, b**(k1*k2), ...
    st.builds(_power_chain, st.integers(2, 40), st.lists(st.integers(2, 4), max_size=5)),
    # large terms with bit lengths up to a few thousand
    st.lists(st.tuples(_bits, st.integers(0, 2 ** 64)), min_size=1, max_size=6)
      .map(lambda xs: _increasing([(1 << b) + r for b, r in sorted(xs)])),
)
PRECS = st.sampled_from([8, 16, 53, 128, 300])
TAUS = st.sampled_from([F(1, 2), F(1), F(3, 2), F(2, 3), F(5, 1)])


def _bits_of(enc):
    return tuple((d.mantissa, d.exponent, d.direction) for d in (enc.lo, enc.hi))


@settings(max_examples=60, deadline=None)
@given(terms=SEQS, prec=PRECS)
def test_stats_match_log_ratio_bit_for_bit(terms, prec):
    qs = QSequence(terms)
    stats = exponent_stats(qs, prec)
    for j, h in enumerate(stats.h_list):
        assert _bits_of(h) == _bits_of(log_ratio(terms[j + 1], terms[j], prec))
    prefix = terms[0]
    for j, alpha in enumerate(stats.alpha_list, start=1):
        assert _bits_of(alpha) == _bits_of(log_ratio(prefix, terms[j], prec))
        prefix *= terms[j]


@settings(max_examples=60, deadline=None)
@given(terms=SEQS, prec=PRECS, tau=TAUS)
def test_regime_verdict_matches_integer_test(terms, prec, tau):
    a, c = tau.numerator, tau.denominator
    # h_j > 1 + a/c  <=>  q_{j+1}**c > q_j**(a+c)
    passes = [terms[j + 1] ** c > terms[j] ** (a + c) for j in range(len(terms) - 1)]
    res = validate_regime(QSequence(terms), tau, prec)
    if res.status is RegimeStatus.PASS:
        assert all(passes)
        return
    assert all(passes[:res.index - 1])
    if res.status is RegimeStatus.FAIL:
        assert not passes[res.index - 1]
