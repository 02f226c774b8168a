import math
import random
import sys
import threading
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liminfdim import dimension
from liminfdim.dimension import (
    RegimeViolationError,
    branching_factors,
    depth_series,
    lower_cantor_count,
    theoretical_dimension,
    upper_cover_count,
    upper_dim_estimate,
)
from liminfdim.numerics import Enclosure
from liminfdim.sequences import (ExplicitSpec, PowerSpec, QSequence, RegimeStatus,
                                 exponent_stats, generate, validate_regime)

from reference import bits_of, enclosure_contains, reference_depth_series


class TestTheoreticalDimension:
    def test_rational_path_exact(self):
        assert theoretical_dimension(F(1), F(1, 3), 1).value == F(1, 3)
        assert theoretical_dimension(F(1), F(1, 2), 2).value == F(1, 2)

    def test_alpha_zero(self):
        for tau, d in [(F(1), 1), (F(5, 2), 3), (F(1, 3), 2)]:
            assert theoretical_dimension(tau, F(0), d).value == F(d) / (tau + 1)

    def test_clamp_with_flag(self):
        res = theoretical_dimension(F(2), F(3, 4), 1)
        assert res.value == 0 and res.clamped

    def test_negative_alpha_is_refused(self):
        # a log ratio of integers >= 2 is never negative; an enclosure whose
        # lower end is, like a negative fraction, is no alpha
        for alpha in (F(-1), Enclosure.exact_int(-1),
                      Enclosure(Enclosure.from_fraction(F(-1, 8), 16).lo,
                                Enclosure.from_fraction(F(1, 3), 16).hi)):
            with pytest.raises(ValueError, match="alpha must be nonnegative"):
                theoretical_dimension(F(1, 2), alpha, 1)
        for alpha in (F(0), Enclosure.exact_int(0)):
            dv = theoretical_dimension(F(1, 2), alpha, 1)
            assert enclosure_contains(dv.as_enclosure(64), F(2, 3)) and not dv.clamped

    def test_enclosure_path(self):
        alpha = Enclosure.from_fraction(F(1, 3), 128)
        res = theoretical_dimension(F(1), alpha, 1)
        assert not res.clamped
        assert enclosure_contains(res.value, F(1, 3))
        assert res.value.width() <= F(1, 2 ** 100)


class TestUpperCover:
    def test_two_level_count(self):
        report = upper_cover_count(QSequence((4, 256)), F(1), d=1)
        # 4 * (4 * (1/16) * 256 + 2) = 264, exact since tau = 1
        assert report.count.min == report.count.max == 264

    def test_first_level(self):
        report = upper_cover_count(QSequence((4, 256)), F(1), d=1, depth=1)
        assert report.count.min == report.count.max == 4

    def test_dimension_two_squares(self):
        report = upper_cover_count(QSequence((4, 256)), F(1), d=2)
        assert report.count.min == report.count.max == 264 ** 2

    def test_dim_estimate_value(self):
        est = upper_dim_estimate(QSequence((4, 256)), F(1), d=1)
        # oracle: ln 264 / (2 ln 256)
        oracle = math.log(264) / (2 * math.log(256))
        lo, hi = est.float_bounds()
        assert lo <= oracle <= hi
        assert abs(est.midpoint() - F(oracle)) < F(1, 10 ** 6)
        assert round(float(est.midpoint()), 4) == 0.5028

    def test_doubles_with_dimension(self):
        e1 = upper_dim_estimate(QSequence((4, 256)), F(1), d=1)
        e2 = upper_dim_estimate(QSequence((4, 256)), F(1), d=2)
        assert enclosure_contains(e2, e1.midpoint() * 2)

    def test_regime_flag_attached(self):
        # the cover carries no verdict; its prefix's comes from validate_regime
        for qs, status in ((generate(PowerSpec(4, F(4)), 3), RegimeStatus.PASS),
                           (QSequence((4, 8)), RegimeStatus.FAIL)):
            cover = upper_cover_count(qs, F(1))
            prefix = QSequence(qs.terms[:cover.depth])
            assert validate_regime(prefix, cover.tau, cover.prec).status is status

    def test_deep_prefix(self):
        # each record extends its parent's product; reading the last one of a
        # long prefix first must not recurse once per level
        qs = QSequence(tuple(range(2, 1202)))
        report = upper_cover_count(qs, F(1), prec=16)
        in_order = [r.count for r in depth_series(qs, F(1), prec=16)]
        assert report.count == in_order[-1] and 1 <= report.count.min <= report.count.max


class TestLowerCantor:
    def test_two_level_count(self):
        sub = lower_cantor_count(QSequence((4, 256)), F(1), d=1)
        assert sub.count == 64 and sub.branching_1d == (4, 16)
        assert sub.s_hat.is_exact and sub.s_hat.lo.as_fraction() == F(3, 8)

    def test_depth_six_closed_form(self):
        qs = generate(PowerSpec(4, F(4)), 6)
        sub = lower_cantor_count(qs, F(1), d=1)
        # closed form for this family: s_hat_J = (2 + sum 4^k) / (2 * 2048)
        assert sub.s_hat.is_exact
        assert sub.s_hat.lo.as_fraction() == F(683, 2048)

    def test_regime_violation(self):
        with pytest.raises(RegimeViolationError) as exc:
            lower_cantor_count(QSequence((4, 8)), F(1))
        assert exc.value.level == 2

    def test_dimension_power(self):
        sub = lower_cantor_count(QSequence((4, 256)), F(1), d=2)
        assert sub.count == 64 ** 2

    @settings(max_examples=200, deadline=None)
    @given(q1=st.integers(2, 60), extra=st.integers(0, 10 ** 4),
           tau=st.sampled_from([F(1, 3), F(1, 2), F(1), F(3, 2)]), prec=st.integers(8, 64))
    def test_branching_never_above_the_exact_floor(self, q1, extra, tau, prec):
        # floor(q2 / q1**(1+tau)) is taken on the lower end of an enclosure:
        # it may fall short, but a count above the exact floor is unsound
        q2 = q1 ** 3 + extra
        a, b = (1 + tau).numerator, (1 + tau).denominator
        n = int(q2 / q1 ** float(1 + tau))
        while (n + 1) ** b * q1 ** a <= q2 ** b:
            n += 1
        while n ** b * q1 ** a > q2 ** b:
            n -= 1
        assert 1 <= branching_factors(QSequence((q1, q2)), tau, prec=prec)[1] <= n


class TestBracket:
    def test_estimators_tighten_and_order(self):
        # upper estimate stays above the limit and above the subdivision
        # exponent; both approach 1/3 as the depth grows
        qs = generate(PowerSpec(4, F(4)), 6)
        limit = F(1, 3)
        prev_gap = None
        for depth in range(2, 7):
            up = upper_dim_estimate(qs, F(1), depth=depth)
            low = lower_cantor_count(qs, F(1), depth=depth).s_hat
            assert low.hi.as_fraction() <= up.lo.as_fraction()
            assert up.lo.as_fraction() > limit
            gap = up.hi.as_fraction() - low.lo.as_fraction()
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap
        assert abs(low.midpoint() - limit) < F(2, 10 ** 4)
        assert up.hi.as_fraction() - limit < F(1, 100)

    def test_oracle_consistency_tiny_instance(self):
        # enumerated component count sits between the subdivision count and
        # the cover count for the tiny instance
        from liminfdim.level_sets import LevelParams, prefix_intersection

        qs = QSequence((3, 81))
        enum = prefix_intersection(qs, LevelParams(theta=(F(0),), tau=F(1)))
        count = enum.final_count
        sub = lower_cantor_count(qs, F(1))
        cover = upper_cover_count(qs, F(1))
        assert sub.count <= count.min <= count.max <= cover.count.max
        assert 48 <= count.min and count.max <= 66

    def test_theoretical_matches_stats_alpha(self):
        qs = generate(PowerSpec(4, F(4)), 6)
        stats = exponent_stats(qs)
        dv = theoretical_dimension(F(1), stats.alpha_last, 1)
        # alpha_last sits just below 1/3, the dimension just above it
        assert dv.value.certainly_gt(F(1, 3)) is True
        assert dv.value.hi.as_fraction() < F(1, 3) + F(1, 1000)


@st.composite
def bracket_sequences(draw):
    """A sequence of 3 to 6 terms like the bracket-highprec workload's: a
    power family from q_1 in 10..20 with a growth of 13/6 to 5/2, or seeded
    odd terms whose bit lengths grow by a factor of 1.9 to 2.4."""
    depth = draw(st.integers(3, 6))
    if draw(st.booleans()):
        growth = draw(st.sampled_from((F(13, 6), F(9, 4), F(7, 3), F(12, 5), F(5, 2))))
        return generate(PowerSpec(draw(st.integers(10, 20)), growth), depth)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    bits, terms = draw(st.integers(4, 6)), []
    for _ in range(depth):
        terms.append(rng.getrandbits(bits - 1) | 1 << (bits - 1) | 1)
        bits = int(bits * draw(st.sampled_from((1.9, 2.0, 2.1, 2.2, 2.3, 2.4)))) + 1
    return generate(ExplicitSpec(tuple(terms)), depth)


@settings(max_examples=600, deadline=None)
@given(bracket_sequences(), st.integers(64, 256), st.sampled_from((1, 2)),
       st.sampled_from((F(1, 2), F(1))))
def test_bracket_holds_the_formula_where_the_regime_passes(qs, prec, d, tau):
    """lower.s_hat.lo <= d (1 - tau alpha_J) / (1 + tau) <= upper.hi at each
    depth J >= 2 up to the first step with h_j <= 1 + tau, alpha_J from
    mpmath at twice the precision.  M <= q_J**d (q_1 ... q_{J-1})**(-d tau)
    <= N, as each branching is a floor of q_k / q_{k-1}**(1+tau) and each
    cover factor exceeds it, so the two estimators bracket the formula."""
    with mpmath.workprec(2 * prec + 64):
        logs = [mpmath.log(q) for q in qs.terms]
        t = mpmath.mpf(tau.numerator) / tau.denominator
        slack = mpmath.ldexp(1, -2 * prec)   # mpmath's own rounding
        for depth in range(2, len(qs) + 1):
            if logs[depth - 1] / logs[depth - 2] <= 1 + t:
                break
            value = d * (1 - t * mpmath.fsum(logs[:depth - 1]) / logs[depth - 1]) / (1 + t)
            lower = lower_cantor_count(qs, tau, d, depth, prec).s_hat.lo
            upper = upper_dim_estimate(qs, tau, d, depth, prec).hi
            assert mpmath.ldexp(lower.mantissa, lower.exponent) <= value + slack, (qs, depth)
            assert value - slack <= mpmath.ldexp(upper.mantissa, upper.exponent), (qs, depth)


# -- the walk the per-depth calls share --------------------------------------

NO_CHILDREN = "floor(q_{0} / q_{1}**(1+tau)) = 0, the subdivision has no children"


def test_each_read_raises_a_new_regime_error():
    # a reader's context stays with the error it was raised in
    records = list(depth_series(QSequence((4, 8, 100, 20000)), 1, 1, 64))
    try:
        raise KeyError("unrelated")
    except KeyError:
        with pytest.raises(RegimeViolationError) as first:
            records[2].lower
    with pytest.raises(RegimeViolationError) as second:
        records[3].lower
    with pytest.raises(RegimeViolationError) as third:
        lower_cantor_count(QSequence((4, 8, 100, 20000)), 1, 1, 4, 64)
    assert first.value is not second.value and third.value not in (first.value, second.value)
    for exc in (first, second, third):
        assert exc.value.level == 2
        assert str(exc.value) == "level 2: " + NO_CHILDREN.format(2, 1)
    assert isinstance(first.value.__context__, KeyError)
    assert second.value.__context__ is None and third.value.__context__ is None


def _fresh(qs, tau, d, depth, prec):
    """The depth-J record of a walk that no call shares."""
    return list(reference_depth_series(qs, tau, d, prec))[depth - 1]


def _reads_as_fresh(read, qs, tau, d, depth, prec):
    """The per-depth call ``read`` at depth J gives what the record of a fresh
    walk gives, bit for bit, or raises the same ``RegimeViolationError``."""
    if read == "cover":
        got, want = upper_cover_count(qs, tau, d, depth, prec), _fresh(qs, tau, d, depth, prec)
        assert (got.depth, got.d, got.tau, got.q, got.prec) == (depth, d, tau, qs.terms[depth - 1],
                                                                prec)
        assert bits_of(got.raw_count) == bits_of(want.raw_count)
        assert bits_of(got.side) == bits_of(want.side) and got.count == want.count
        return
    if read == "upper":
        want = _fresh(qs, tau, d, depth, prec).upper
        assert bits_of(upper_dim_estimate(qs, tau, d, depth, prec)) == bits_of(want)
        return
    if read == "branching":
        record, call = _fresh(qs, tau, 1, depth, prec), lambda: branching_factors(
            qs, tau, depth, prec)
    else:
        record, call = _fresh(qs, tau, d, depth, prec), lambda: lower_cantor_count(
            qs, tau, d, depth, prec)
    try:
        want = record.lower
    except RegimeViolationError as exc:
        with pytest.raises(RegimeViolationError) as got:
            call()
        assert (got.value.level, str(got.value)) == (exc.level, str(exc))
        return
    if read == "branching":
        assert call() == want.branching_1d
        return
    got = call()
    assert (got.depth, got.d, got.count, got.branching_1d) == (want.depth, want.d, want.count,
                                                               want.branching_1d)
    assert bits_of(got.s_hat) == bits_of(want.s_hat)


READS = ("cover", "upper", "lower", "branching")


def test_the_walk_is_keyed_by_every_argument():
    # one sequence under each argument in turn, each read after the others
    qs = generate(PowerSpec(13, F(12, 5)), 4)
    args = [(F(1, 2), 1, 64), (F(1, 2), 2, 64), (F(1, 2), 2, 128), (F(1), 2, 128),
            (F(1), 1, 128), (F(1, 2), 1, 64)]
    for tau, d, prec in args + args[::-1]:
        for depth in (2, 4, 3):
            for read in READS:
                _reads_as_fresh(read, qs, tau, d, depth, prec)


def test_an_equal_key_of_another_type_is_another_call():
    # 2.0 == 2 and True == 1, but the calls raise or give what they did
    # before any walk was kept: a float d or precision is refused
    qs = QSequence((4, 100, 20000))
    upper_dim_estimate(qs, F(1, 2), 2, 3, 64)
    with pytest.raises(ValueError, match="dimension must be an integer"):
        upper_dim_estimate(qs, F(1, 2), 2.0, 3, 64)
    with pytest.raises(ValueError, match="precision must be an integer"):
        upper_dim_estimate(qs, F(1, 2), 2, 3, 64.0)
    assert upper_cover_count(qs, F(1, 2), 1, 3, 64).d == 1
    assert upper_cover_count(qs, F(1, 2), True, 3, 64).d is True


@st.composite
def walk_sequences(draw):
    """Short sequences: the bracket's, or slowly growing small terms, whose
    subdivision has empty levels."""
    if draw(st.booleans()):
        return draw(bracket_sequences())
    steps = draw(st.lists(st.integers(1, 300), min_size=1, max_size=5))
    return QSequence(tuple(2 + sum(steps[:i + 1]) for i in range(len(steps))))


@settings(max_examples=25, deadline=None)
@given(st.lists(walk_sequences(), min_size=3, max_size=3), st.data())
def test_shared_walks_read_what_fresh_walks_read(seqs, data):
    """Per-depth calls in a random order over more (sequence, tau, d, prec)
    walks than the cache holds, so walks are evicted and started again."""
    keys = [(qs, tau, d, prec) for qs in seqs for tau in (F(1, 2), F(1)) for d in (1, 2)
            for prec in (16, 64)]
    assert len(keys) > dimension._WALK_CACHE_SIZE
    reads = data.draw(st.lists(st.tuples(st.sampled_from(keys), st.integers(0, 5),
                                         st.sampled_from(READS)), min_size=20, max_size=60))
    for (qs, tau, d, prec), k, read in reads:
        _reads_as_fresh(read, qs, tau, d, 1 + k % len(qs), prec)


def test_a_walk_that_raises_is_not_kept(monkeypatch):
    qs, tau = generate(PowerSpec(13, F(12, 5)), 6), F(1, 2)
    dimension._walk.cache_clear()
    upper_dim_estimate(qs, tau, 2, 2, 64)
    inner, powers = dimension.dir_pow, []

    def fails_once(q, e, prec=None):
        powers.append(q)
        if len(powers) == 1:
            raise ArithmeticError("injected")
        return inner(q, e, prec)

    monkeypatch.setattr(dimension, "dir_pow", fails_once)
    with pytest.raises(ArithmeticError, match="injected"):
        upper_dim_estimate(qs, tau, 2, 5, 64)   # the power of q_2, for depth 3
    assert powers == [qs.terms[1]]
    # the step that raised left nothing behind: the records of depths 1 and 2
    # stay, and the step is taken again
    upper_dim_estimate(qs, tau, 2, 5, 64)
    assert powers == [qs.terms[1]] + list(qs.terms[1:4])
    for depth in (5, 2, 6):
        for read in READS:
            _reads_as_fresh(read, qs, tau, 2, depth, 64)


def test_a_shallow_call_walks_no_deeper(monkeypatch):
    # the terms past q_2 are too large for any power to finish in time
    qs = QSequence((5, 200, 1 << 100_000, 1 << (1 << 22)))
    dimension._walk.cache_clear()
    inner, powers = dimension.dir_pow, []

    def counted(q, e, prec=None):
        powers.append(q)
        return inner(q, e, prec)

    monkeypatch.setattr(dimension, "dir_pow", counted)
    upper_dim_estimate(qs, F(1, 2), 2, 2, 64)
    lower_cantor_count(qs, F(1, 2), 2, 2, 64)
    assert len(powers) <= 2 and set(powers) <= {5, 200}


def test_threads_that_share_the_walks_read_what_fresh_walks_read():
    # more threads than cores, switching often, over more walks than the
    # cache holds: a walk stepped by two threads at once, or an eviction that
    # races another, would raise or give another record
    seqs = [generate(PowerSpec(q1, F(12, 5)), 5) for q1 in (10, 11, 12, 13, 14)]
    keys = [(qs, tau, d) for qs in seqs for tau in (F(1, 2), F(1)) for d in (1, 2)]
    assert len(keys) > dimension._WALK_CACHE_SIZE
    want = {(qs, tau, d, depth): bits_of(_fresh(qs, tau, d, depth, 64).upper)
            for qs, tau, d in keys for depth in range(1, 6)}
    errors, wrong = [], []

    def reader(seed):
        rng = random.Random(seed)
        try:
            for _ in range(400):
                qs, tau, d = rng.choice(keys)
                depth = rng.randint(1, 5)
                if bits_of(upper_dim_estimate(qs, tau, d, depth, 64)) != want[qs, tau, d, depth]:
                    wrong.append((qs, tau, d, depth))
        except Exception as exc:  # reported below, with the thread's seed
            errors.append((seed, exc))

    threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and wrong == []
    assert dimension._walk.cache_info().currsize <= dimension._WALK_CACHE_SIZE


@pytest.mark.parametrize("tau, d, prec, message", [
    (F(1, 2), 0, 64, "dimension must be >= 1"),
    (F(1, 2), -3, 64, "dimension must be >= 1"),
    (F(0), 1, 64, "tau must be positive"),
    (F(-1, 2), 1, 64, "tau must be positive"),
    (F(-1), 1, 64, "tau must be positive"),
    (F(1, 2), 2.0, 64, "dimension must be an integer"),
    (F(1, 2), 1, 64.0, "precision must be an integer"),
], ids=["d=0", "d=-3", "tau=0", "tau=-1/2", "tau=-1", "d=2.0", "prec=64.0"])
def test_a_dimension_below_one_or_a_tau_not_positive_is_refused(tau, d, prec, message):
    # refused before the walk cache is read: a d below one or a tau not
    # positive with theoretical_dimension's words, and a float d or precision
    qs = QSequence((4, 100, 20000))
    calls = [lambda: upper_cover_count(qs, tau, d, 3, prec),
             lambda: upper_dim_estimate(qs, tau, d, 3, prec),
             lambda: lower_cantor_count(qs, tau, d, 3, prec),
             lambda: depth_series(qs, tau, d, prec)]
    if d == 1:  # branching_factors takes no d
        calls.append(lambda: branching_factors(qs, tau, 3, prec))
    dimension._walk.cache_clear()
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
        assert dimension._walk.cache_info() == (0, 0, dimension._WALK_CACHE_SIZE, 0)
