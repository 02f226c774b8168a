"""One certified log2 per term and call, and one walk per depth series.

``exponent_stats`` and ``validate_regime`` take every log2 q_j once per call
through ``log_ratio``, and ``upper_cover_count`` takes no log at all.
``depth_series`` takes every level factor q_k**-(1+tau) once and shares
log2 q_J between the two estimates of a depth.  These tests pin the kernel
call counts (log2 and ``dir_pow``), and check bit for bit that the
statistics give what ``log_ratio`` gives on its own, and that the series
gives what the per-depth loops gave before it.

``log_ratio`` in ``numerics`` is the one implementation of the log ratio
rule, behind ``exponent_stats`` and ``validate_regime`` alike, so
``reference_log_ratio`` keeps the rule in its own words, on the uncached
kernel, and all three must match it bit for bit, direction tags included.

Every log2 goes through one process-wide (n, prec) cache in front of the
kernel, which is all that makes a log2 once per call.  The per-call counts
start from a cold cache (``kernel_calls``); the last tests check the depth
up to which a call's logs fit in the cache, what the cache shares across
calls, that it stays within its bound, and that past the bound it still
gives the kernel's brackets bit for bit.

The per-depth calls of ``dimension`` share one walk per (sequence, tau, d,
prec) through its walk cache, which every count fixture empties with the
log2 cache; two tests check what a caller that steps the depths of one walk
takes, and that the walk cache stays within its bound.
"""

import math
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liminfdim import cli, dimension, numerics
from liminfdim.config import load_config, parse_config
from liminfdim.dimension import (
    RegimeViolationError,
    branching_factors,
    depth_series,
    lower_cantor_count,
    upper_cover_count,
    upper_dim_estimate,
)
from liminfdim.numerics import (
    DOWN,
    UP,
    DirectedReal,
    Enclosure,
    dir_pow,
    log2_int,
    log_ratio,
)
from liminfdim.sequences import (
    ContractiveSpec,
    ExplicitSpec,
    GenerationError,
    PowerSpec,
    QSequence,
    RegimeResult,
    RegimeStatus,
    exponent_stats,
    generate,
    validate_regime,
)

from reference import bits_of

ROOT = Path(__file__).resolve().parent.parent

PREC = 1024
SEQUENCES = [
    generate(PowerSpec(13, F(12, 5)), 8),                     # no power relations
    generate(PowerSpec(3, F(2)), 6),                          # an exact power chain
    generate(ExplicitSpec((5, 37, 1201, 2 ** 40 + 15, 3 ** 60 + 2, 7 ** 70 + 4)), 6),
]


def _empty_caches():
    """Empty the process's log2 cache and the dimension layer's walk cache."""
    numerics._log2_cached.cache_clear()
    dimension._walks.clear()


class _Evaluations(list):
    """Kernel evaluations since the list was last emptied.  Emptying it
    empties the process's log2 cache and walk cache too, so each count starts
    cold and counts the evaluations within the calls it covers."""

    def __delitem__(self, index):
        _empty_caches()
        super().__delitem__(index)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count the evaluations of the log2 kernel behind every public log, from
    a cold log2 cache and walk cache."""
    _empty_caches()
    calls = _Evaluations()
    inner = numerics._log2_bracket

    def counted(n, prec):
        calls.append((n, prec))
        return inner(n, prec)

    monkeypatch.setattr(numerics, "_log2_bracket", counted)
    return calls


@pytest.fixture
def pow_calls(monkeypatch):
    """Count the dir_pow calls of the dimension layer, its only caller here,
    from a cold walk cache."""
    _empty_caches()
    calls = _Evaluations()
    inner = dimension.dir_pow

    def counted(q, e, prec=None):
        calls.append((q, e, prec))
        return inner(q, e, prec)

    monkeypatch.setattr(dimension, "dir_pow", counted)
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
    # log2 of the count's two ends and of q_J; the count q_1**2 of depth 1 is
    # exact, and its two ends share one evaluation
    assert per_depth == [2] + [3] * (J - 1), per_depth
    assert _count(kernel_calls, upper_cover_count, qs, F(1, 2), 1, J, PREC) == 0
    assert _count(kernel_calls, exponent_stats, qs, PREC) <= 2 * J - 1
    # no (argument, precision) pair is taken twice within one call
    assert len(set(kernel_calls)) == len(kernel_calls)
    assert _count(kernel_calls, validate_regime, qs, F(1, 2), PREC) <= J


TAU = F(1, 2)


def _read_all(record):
    """Every computed field of a record: side, upper and lower."""
    record.side, record.upper
    try:
        record.lower
    except RegimeViolationError:
        pass


@pytest.fixture
def products(monkeypatch):
    """Count the interval products, which build the cover count, from a cold
    walk cache."""
    _empty_caches()
    calls = _Evaluations()
    inner = Enclosure.__mul__

    def counted(a, b):
        calls.append(None)
        return inner(a, b)

    monkeypatch.setattr(Enclosure, "__mul__", counted)
    return calls


@pytest.mark.parametrize("qs", SEQUENCES, ids=lambda qs: f"J{len(qs)}q{qs.terms[0]}")
def test_per_depth_calls(qs, pow_calls, kernel_calls, products):
    for J in range(1, len(qs) + 1):
        assert _count(pow_calls, lambda: upper_cover_count(qs, TAU, 2, J, PREC).side) <= J
        assert _count(pow_calls, upper_dim_estimate, qs, TAU, 2, J, PREC) <= J
        # the subdivision never needs the power of its own last level
        assert _count(pow_calls, branching_factors, qs, TAU, J, PREC) == J - 1
        assert _count(pow_calls, lower_cantor_count, qs, TAU, 2, J, PREC) == J - 1
        assert _count(kernel_calls, branching_factors, qs, TAU, J, PREC) == 0
        # nor the cover count: one product per level, then d - 1 for the power
        assert _count(products, lower_cantor_count, qs, TAU, 2, J, PREC) == 0
        assert _count(products, branching_factors, qs, TAU, J, PREC) == 0
        assert _count(products, lambda: upper_cover_count(qs, TAU, 2, J, PREC).count) == J
        # the same log kernels as before the walk: log2 M, then log2 q_J,
        # once when M = q_J
        del kernel_calls[:]
        sub = lower_cantor_count(qs, TAU, 2, J, PREC)
        assert kernel_calls == list(dict.fromkeys([(sub.count, PREC), (qs.terms[J - 1], PREC)]))


@pytest.mark.parametrize("qs", SEQUENCES + [QSequence((3, 8, 100, 20000))],
                         ids=lambda qs: f"J{len(qs)}q{qs.terms[0]}")
def test_series_takes_each_factor_and_log_once(qs, pow_calls, kernel_calls):
    per_record = []
    for record in depth_series(qs, TAU, 2, PREC):
        del kernel_calls[:]
        _read_all(record)
        per_record.append(Counter(kernel_calls))
    # one power per depth, of q_1, ..., q_D in turn
    assert [q for q, _, _ in pow_calls] == list(qs.terms)
    # the record takes log2 q_J once for both estimates, and so does the pair
    # of calls, through the log2 cache
    for J, got in enumerate(per_record, start=1):
        del kernel_calls[:]
        upper_dim_estimate(qs, TAU, 2, J, PREC)
        try:
            lower_cantor_count(qs, TAU, 2, J, PREC)
        except RegimeViolationError:
            pass
        assert got == Counter(kernel_calls)


@pytest.mark.parametrize("depth", [6, 8])
def test_run_walks_the_depths_once(depth, pow_calls):
    cfg = parse_config(f"sequence = power\nq1 = 13\ngrowth = 12/5\ntau = 1/2\nd = 2\n"
                       f"depth = {depth}\nprecision = 1024\ntasks = dimension\n")
    cli.run(cfg)
    assert len(pow_calls) == depth          # depth**2 + depth with a walk per depth


def test_run_log_calls_on_highprec_config(kernel_calls):
    cli.run(load_config(ROOT / "tests" / "golden" / "power13_highprec.cfg"))
    # 58 with log2 q_J taken twice per depth, 50 with log2 169 (depth 1's
    # count q_1**2 and its M) taken three times
    assert len(kernel_calls) == 48


def test_main_builds_the_cover_once(tmp_path, monkeypatch):
    calls = []
    inner = cli.hyperbolic_cover

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(cli, "hyperbolic_cover", counted)
    cfg = ROOT / "demos" / "configs" / "multiplicative.cfg"
    assert cli.main(["run", str(cfg), "--format", "csv", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1 and (tmp_path / "cover.csv").exists()


def test_cover_regime_is_read_lazily(kernel_calls):
    # the cover takes no log; the regime is the caller's own check
    qs = QSequence((4, 8))
    report = upper_cover_count(qs, F(1), prec=PREC)
    assert not kernel_calls
    assert validate_regime(QSequence(qs.terms[:report.depth]), report.tau,
                           report.prec).status is RegimeStatus.FAIL
    assert kernel_calls


# -- property: one rule for every log ratio, bit for bit --------------------

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


def _reference_power_exponent_of(a, b):
    """k >= 1 with b**k == a, if one exists."""
    if a == b:
        return 1
    if a < b:
        return None
    k = round(math.log2(a) / math.log2(b))
    for cand in (k - 1, k, k + 1):
        if cand >= 1 and b ** cand == a:
            return cand
    return None


def reference_log_ratio(a, b, prec):
    """log(a)/log(b) by the rule of ``log_ratio``, on the uncached kernel:
    exact for a power relation either way, else two log2 kernels at
    prec + 8 bits divided at prec."""
    k = _reference_power_exponent_of(a, b)
    if k is not None:
        return Enclosure.exact_int(k)
    k = _reference_power_exponent_of(b, a)
    if k is not None:
        return Enclosure.from_fraction(F(1, k), prec)
    la = numerics._log2_bracket(a, prec + 8)
    lb = numerics._log2_bracket(b, prec + 8)
    return la.div(lb, prec)


@settings(max_examples=60, deadline=None)
@given(terms=SEQS, prec=PRECS)
def test_stats_match_log_ratio_bit_for_bit(terms, prec):
    qs = QSequence(terms)
    stats = exponent_stats(qs, prec)
    for j, h in enumerate(stats.h_list):
        ref = bits_of(reference_log_ratio(terms[j + 1], terms[j], prec))
        assert bits_of(h) == bits_of(log_ratio(terms[j + 1], terms[j], prec)) == ref
    prefix = terms[0]
    for j, alpha in enumerate(stats.alpha_list, start=1):
        ref = bits_of(reference_log_ratio(prefix, terms[j], prec))
        assert bits_of(alpha) == bits_of(log_ratio(prefix, terms[j], prec)) == ref
        prefix *= terms[j]


@settings(max_examples=60, deadline=None)
@given(terms=SEQS, prec=PRECS, tau=TAUS)
def test_regime_matches_reference_ratios(terms, prec, tau):
    # the first step whose reference ratio is not certainly above tau + 1
    # decides the verdict: FAIL when it is certainly at or below, else
    # INDETERMINATE
    expected = RegimeResult(RegimeStatus.PASS)
    for j in range(1, len(terms)):
        h = reference_log_ratio(terms[j], terms[j - 1], prec)
        if h.lo.as_fraction() <= 1 + tau:
            status = RegimeStatus.FAIL if h.hi.as_fraction() <= 1 + tau \
                else RegimeStatus.INDETERMINATE
            expected = RegimeResult(status, j)
            break
    assert validate_regime(QSequence(terms), tau, prec) == expected


@settings(max_examples=200, deadline=None)
@given(a=st.integers(2, 2 ** 300), b=st.integers(2, 2 ** 300), prec=PRECS,
       power=st.sampled_from([None, 1, 2, 3, 5]))
def test_log_ratio_matches_reference(a, b, prec, power):
    if power is not None:
        a = b ** power        # exact ratios, and their reciprocals below
    for x, y in ((a, b), (b, a)):
        assert bits_of(log_ratio(x, y, prec)) == bits_of(reference_log_ratio(x, y, prec))


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


# -- property: one walk gives what the per-depth loops gave -----------------

def _reference_cover(terms, tau, d, depth, prec):
    """The cover product and side as upper_cover_count built them per depth."""
    prod = Enclosure.exact_int(terms[0])
    for k in range(1, depth):
        prod = prod * dir_pow(terms[k - 1], -(1 + tau), prec).scale_int(4 * terms[k]).add_int(2)
    raw = prod
    for _ in range(d - 1):
        raw = raw * prod
    return raw, dir_pow(terms[depth - 1], -(1 + tau), prec).scale_int(2)


def _reference_branching(terms, tau, depth, prec):
    """The 1-d branching as branching_factors built it, or the empty level."""
    out = [terms[0]]
    for k in range(1, depth):
        b = dir_pow(terms[k - 1], -(1 + tau), prec).scale_int(terms[k]).lo.floor()
        if b < 1:
            return k + 1
        out.append(b)
    return tuple(out)


def _contractive(q1, tau, depth):
    try:
        return generate(ContractiveSpec(q1, tau), depth).terms
    except GenerationError:
        return None


SERIES_SEQS = st.one_of(
    SEQS,
    st.builds(lambda q1, g, n: generate(PowerSpec(q1, g), n).terms,
              st.integers(2, 40), st.sampled_from([F(3, 2), F(2), F(12, 5), F(3)]),
              st.integers(1, 6)),
    st.builds(_contractive, st.integers(70, 500), st.sampled_from([F(1, 2), F(1)]),
              st.integers(1, 5)).filter(lambda terms: terms is not None),
)


@settings(max_examples=60, deadline=None)
@given(terms=SERIES_SEQS, prec=st.sampled_from([16, 53, 128, 1024]), tau=TAUS,
       d=st.integers(1, 3))
def test_series_matches_per_depth_bit_for_bit(terms, prec, tau, d):
    qs = QSequence(terms)
    records = list(depth_series(qs, tau, d, prec))
    assert [r.depth for r in records] == list(range(1, len(terms) + 1))
    for J, rec in enumerate(records, start=1):
        raw, side = _reference_cover(terms, tau, d, J, prec)
        cover = upper_cover_count(qs, tau, d, J, prec)
        for got in (rec, cover):
            assert bits_of(got.raw_count) == bits_of(raw)
            assert bits_of(got.side) == bits_of(side)
            assert (got.count.min, got.count.max) == (max(raw.lo.floor(), 1), raw.hi.ceil())
        assert bits_of(rec.upper) == bits_of(upper_dim_estimate(qs, tau, d, J, prec))
        num = raw.log2(prec)
        den = log2_int(terms[J - 1], prec).mul_frac(1 + tau, prec)
        assert bits_of(rec.upper) == bits_of(num.div(den, prec))
        ref = _reference_branching(terms, tau, J, prec)
        if isinstance(ref, int):
            for read in (lambda: rec.lower, lambda: lower_cantor_count(qs, tau, d, J, prec),
                         lambda: branching_factors(qs, tau, J, prec)):
                with pytest.raises(RegimeViolationError) as exc:
                    read()
                assert exc.value.level == ref
                assert str(exc.value) == (f"level {ref}: floor(q_{ref} / q_{ref - 1}**(1+tau)) "
                                          f"= 0, the subdivision has no children")
            continue
        assert rec.branching_1d == branching_factors(qs, tau, J, prec) == ref
        sub = lower_cantor_count(qs, tau, d, J, prec)
        assert rec.lower.count == sub.count == math.prod(b ** d for b in ref)
        assert rec.lower.branching_1d == sub.branching_1d == ref
        assert bits_of(rec.lower.s_hat) == bits_of(sub.s_hat) == bits_of(
            log2_int(sub.count, prec).div(den, prec))


# -- the process-wide log2 cache --------------------------------------------

def _cache_size():
    return numerics._log2_cached.cache_info().currsize


@pytest.mark.parametrize("qs", SEQUENCES, ids=lambda qs: f"J{len(qs)}q{qs.terms[0]}")
def test_log2_is_taken_once_across_calls(qs, kernel_calls):
    for J in range(1, len(qs) + 1):
        # the two estimates of a depth share log2 q_J
        del kernel_calls[:]
        upper_dim_estimate(qs, TAU, 2, J, PREC)
        try:
            lower_cantor_count(qs, TAU, 2, J, PREC)
        except RegimeViolationError:
            pass
        assert kernel_calls.count((qs.terms[J - 1], PREC)) == 1
        assert _cache_size() <= numerics.LOG2_CACHE_SIZE
    # the regime check reads the logs the statistics have just taken
    del kernel_calls[:]
    exponent_stats(qs, PREC)
    taken = len(kernel_calls)
    assert taken and _cache_size() <= numerics.LOG2_CACHE_SIZE
    validate_regime(qs, TAU, PREC)
    assert len(kernel_calls) == taken


def test_stats_take_each_log_once_up_to_65_terms(kernel_calls):
    # 65 odd primes: no power relations, so each of the 2J - 2 = 128 distinct
    # integers (65 terms, 63 prefix products) needs a log2, which fills the
    # cache exactly, and no integer is evicted before its last read
    primes = [n for n in range(3, 400, 2) if all(n % p for p in range(3, math.isqrt(n) + 1, 2))]
    qs = QSequence(tuple(primes[:65]))
    assert _count(kernel_calls, exponent_stats, qs, 64) == 128 == numerics.LOG2_CACHE_SIZE
    assert len(set(kernel_calls)) == 128


# -- the walk the per-depth calls share --------------------------------------

@pytest.fixture
def log2_calls(monkeypatch):
    """Count the log2_int calls of the dimension layer by their integers."""
    calls = []
    inner = dimension.log2_int

    def counted(n, prec=None):
        calls.append(n)
        return inner(n, prec)

    monkeypatch.setattr(dimension, "log2_int", counted)
    return calls


@pytest.mark.parametrize("qs", SEQUENCES + [QSequence((3, 8, 100, 20000))],
                         ids=lambda qs: f"J{len(qs)}q{qs.terms[0]}")
def test_stepping_the_depths_takes_each_factor_and_log_once(qs, pow_calls, kernel_calls,
                                                           log2_calls):
    # the two estimates of depths 1..D in order, as a caller that steps a
    # sequence's depths makes them: the calls read one walk, which takes the
    # power of each level but the last once, and log2 q_J once per depth,
    # which the subdivision's log2 M then shares
    for J in range(1, len(qs) + 1):
        del log2_calls[:]
        upper_dim_estimate(qs, TAU, 2, J, PREC)
        try:
            m = [lower_cantor_count(qs, TAU, 2, J, PREC).count]
        except RegimeViolationError:
            m = []
        assert log2_calls == [qs.terms[J - 1]] + m
    assert [q for q, _, _ in pow_calls] == list(qs.terms[:-1])
    assert all(kernel_calls.count((q, PREC)) == 1 for q in qs.terms)


def test_walk_cache_stays_within_its_bound(pow_calls):
    # past the bound, the least recently read walks make room
    size = dimension._WALK_CACHE_SIZE
    seqs = [QSequence((3 + k, 1000 + k)) for k in range(2 * size + 1)]
    for qs in seqs[:2 * size]:
        upper_cover_count(qs, TAU, 1, 2, 16)
        assert len(dimension._walks) <= size
    assert [key[0] for key in dimension._walks] == seqs[size:2 * size]
    # a kept walk is read without a power, and is then the most recent
    taken = len(pow_calls)
    upper_cover_count(seqs[size], TAU, 1, 2, 16)
    assert len(pow_calls) == taken
    upper_cover_count(seqs[-1], TAU, 1, 2, 16)
    assert [key[0] for key in dimension._walks] == seqs[size + 2:2 * size] + [seqs[size],
                                                                            seqs[-1]]


def test_log2_cache_stays_within_its_bound():
    # past the bound, the oldest entries make room
    for n in range(3, 3 + 2 * numerics.LOG2_CACHE_SIZE):
        log2_int(n, 8)
        assert _cache_size() <= numerics.LOG2_CACHE_SIZE
    assert _cache_size() == numerics.LOG2_CACHE_SIZE


@settings(max_examples=10, deadline=None)
@example(bits=list(range(1000, 3000, 40)), low=3 ** 1900, precs=[53, 128], shift=-7)
@given(bits=st.lists(st.integers(2, 3000), min_size=50, max_size=50, unique=True),
       low=st.integers(0, 2 ** 3000), precs=st.lists(PRECS, min_size=2, max_size=2, unique=True),
       shift=st.integers(-50, 50))
def test_cache_gives_the_kernels_brackets(bits, low, precs, shift):
    """Past LOG2_CACHE_SIZE distinct (n, prec) pairs, so entries are evicted,
    every log2 still equals the uncached kernel's, ends and tags included."""
    # 50 odd integers of distinct lengths: 200 pairs with log_ratio's guard bits
    ns = [(1 << b) | (low & ((1 << b) - 1)) | 1 for b in bits]
    pairs = list(zip(ns, ns[1:] + ns[:1]))
    kernel = {(n, prec): numerics._log2_bracket(n, prec) for n in ns for prec in precs}
    ratio = {(a, b, prec): bits_of(reference_log_ratio(a, b, prec))
             for a, b in pairs for prec in precs}
    e = DirectedReal.from_int(shift)
    for _ in range(2):          # the second round reads kept and evicted entries
        for a, b in pairs:
            for prec in precs:
                assert bits_of(log2_int(a, prec)) == bits_of(kernel[a, prec])
                lo, hi = sorted((a, b))
                enc = Enclosure(DirectedReal(lo, shift, DOWN), DirectedReal(hi, shift, UP))
                want = Enclosure(kernel[lo, prec].lo + e, kernel[hi, prec].hi + e)
                assert bits_of(enc.log2(prec)) == bits_of(want)
                assert bits_of(log_ratio(a, b, prec)) == ratio[a, b, prec]
            # one n at two precisions: two brackets of different widths
            assert bits_of(log2_int(a, precs[0])) != bits_of(log2_int(a, precs[1]))
