"""The power kernel against its earlier form, under hypothesis.

``reference_pow_bracket`` is ``numerics._pow_bracket`` as it was written
before its integer roots were taken of floored integers directly: it takes
the root of a floored radicand and then steps n up while (n + 1)**b still
fits under the unfloored bound.  For an integer n, n**b <= X exactly when
n**b <= floor(X), so those steps can never run, and ``dir_pow`` and
``Enclosure.pow_frac`` must return the same enclosures bit for bit,
direction tags included.

``reference_iroot`` is ``numerics._iroot`` as it was before its Newton
iteration lost the two fix-up loops that followed it and before it started
from the root of the radicand's top bits; the reference bracket takes its
roots.  ``bisect_iroot`` checks the start that a root below 2**64 takes from
a float estimate, at degrees up to 10**4, and a tau = 1/4096 config, whose
powers root degree-4096 radicands, runs through ``cli.main``.  A config
whose exponent denominators would take radicands past ``ROOT_RADICAND_CAP``
exits 2, naming the key, before any root is taken, and ``term_bits``, from
which the cap reads the terms' size, bounds the terms the families generate
and names the first term past the cap.

``reference_pow_frac`` brackets each end of the base on its own, as
``Enclosure.pow_frac`` did before an exact base took a single bracket.

``pow_exponent_below`` must stay strictly under the lower end of every
``pow_frac`` it bounds, exact results and 8-bit precision included.

Small inputs are checked exhaustively, with integers only: ``_iroot`` on
every radicand below 2**16 at degrees 2..8, and ``dir_pow`` on every base
q < 1024 with the 30 exponents +-a/b (a <= 5, b <= 4) at precisions 8..16,
whose ends' b-th powers must bracket q**a, whose relative width must stay
within 2**(1 - prec), and whose ends must be equal exactly when q**(a/b) is
dyadic.
"""

import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liminfdim import numerics, sequences
from liminfdim.cli import main
from liminfdim.config import parse_config
from liminfdim.numerics import (
    DOWN,
    EXACT,
    UP,
    DirectedReal,
    Enclosure,
    _iroot,
    _split_pow2,
    check_root_size,
    dir_pow,
    pow_exponent_below,
)
from liminfdim.report import parse_rational
from liminfdim.sequences import AlternatingSpec, ContractiveSpec, PowerSpec, generate, term_bits


def reference_iroot(x: int, b: int) -> int:
    """Floor of the b-th root: Newton's iteration from an over-estimate,
    then stepped down while g**b > x and up while (g + 1)**b <= x."""
    if x < 2 or b == 1:
        return x
    if b == 2:
        return math.isqrt(x)
    g = 1 << -(-x.bit_length() // b)
    while True:
        nxt = ((b - 1) * g + x // g ** (b - 1)) // b
        if nxt >= g:
            break
        g = nxt
    while g ** b > x:
        g -= 1
    while (g + 1) ** b <= x:
        g += 1
    return g


@st.composite
def radicands(draw):
    """Up to 60,000 bits, or within 1 of an exact b-th power."""
    b = draw(st.integers(3, 12))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        return rng.getrandbits(draw(st.integers(1, 60000))), b
    root = rng.getrandbits(draw(st.integers(1, 60000 // b))) | 1
    return max(0, root ** b + draw(st.integers(-1, 1))), b


def assert_floor_root(x: int, b: int) -> None:
    r = _iroot(x, b)
    assert r == reference_iroot(x, b), (x, b)
    assert r ** b <= x < (r + 1) ** b


@settings(max_examples=300, deadline=None)
@given(radicands())
def test_iroot_matches_reference(case):
    assert_floor_root(*case)


def edge_radicands():
    """Radicands of n bits with n // b of 63, 64 or 65 (the recursion's
    edge), and exact powers and their neighbours whose top bits, the part
    the recursion takes the root of, are themselves an exact power or one
    less."""
    rng = random.Random(15)
    for b in (3, 4, 5, 7, 12):
        for m in (63, 64, 65):
            for n in range(b * m, b * (m + 1)):
                yield (1 << (n - 1)) | rng.getrandbits(n - 1), b
                yield 1 << (n - 1), b
                yield (1 << n) - 1, b
            # roots of m bits, s << k with s of m - k bits
            for k in (0, 1, m // 2 - 1, m // 2, m // 2 + 1, m - 2, m - 1):
                top = 1 << (m - k - 1)
                for s in (top, top | 1, 2 * top - 1, top | rng.getrandbits(m - k - 1)):
                    root = s << k
                    for delta in (-1, 0, 1):
                        yield root ** b + delta, b
                    yield (root + 1) ** b - 1, b


def test_iroot_at_the_recursion_edge():
    for x, b in edge_radicands():
        assert_floor_root(x, b)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([100, 1000]), st.integers(128, 10000), st.integers(0, 2 ** 32))
def test_iroot_of_high_degree(b, n, seed):
    # a degree past the root's bit length gives a root of a few bits; the
    # recursion must not loop when n // b is small
    assert_floor_root(random.Random(seed).getrandbits(n) | 1 << (n - 1), b)


def bisect_iroot(x: int, b: int) -> int:
    """Floor of the b-th root by bisection: lo**b <= x < hi**b throughout."""
    lo, hi = 0, 1 << -(-x.bit_length() // b)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid ** b <= x else (lo, mid)
    return lo


@st.composite
def small_root_radicands(draw):
    """Roots below 2**64 (the float-estimated start) of degree up to 10**4,
    radicands of at most 20,000 bits, exact powers and their neighbours
    among them."""
    b = draw(st.integers(3, 10 ** 4))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    root_bits = draw(st.integers(1, min(64, 20000 // b)))
    root = rng.getrandbits(root_bits) | 1 << (root_bits - 1)
    if draw(st.booleans()):
        return root ** b + draw(st.integers(-1, 1)), b
    return rng.randrange(root ** b, (root + 1) ** b), b


@settings(max_examples=300, deadline=None)
@given(small_root_radicands())
def test_iroot_matches_bisection(case):
    x, b = case
    assert _iroot(x, b) == bisect_iroot(x, b), (x, b)


def test_tiny_tau_config_runs(tmp_path):
    # tau = 1/4096 roots radicands of degree 4096; from a start up to twice
    # the root, Newton took thousands of steps (seconds) where it now takes a few
    cfg = tmp_path / "tiny_tau.cfg"
    cfg.write_text("precision = 128\nsequence = power\nq1 = 3\ngrowth = 4\ntau = 1/4096\n"
                   "d = 1\ndepth = 3\ntasks = analyze,dimension\n")
    assert main(["run", str(cfg), "--out", str(tmp_path), "--canonical"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())["results"]["dimension"]
    side = report["cover_report"]
    q, e = 43046721, 1 + F(1, 4096)  # q_3 = 3**16, side = 2 q_3**-(1+tau)
    lo, hi = parse_rational(side["side_lo"]), parse_rational(side["side_hi"])
    assert 0 < hi - lo and (lo / 2) ** e.denominator <= F(1, q ** e.numerator)
    assert F(1, q ** e.numerator) <= (hi / 2) ** e.denominator


TINY_TAU = ("precision = 128\nsequence = power\nq1 = 3\ngrowth = 4\ntau = 1/16384\n"
            "d = 1\ndepth = 3\ntasks = analyze,dimension,cantor,multiplicative\n")


def test_tiny_tau_config_is_under_the_root_cap():
    # tau = 1/16384 roots radicands of about 16384 * (128 + 38) bits, under the cap
    cfg = parse_config(TINY_TAU)
    assert cfg.tau == F(1, 16384)
    assert term_bits(cfg.spec(), cfg.depth) >= (3 ** 16).bit_length()


# every value whose denominator is a root degree, past the cap; the
# contractive family roots with tau's denominator while generating
@pytest.mark.parametrize("lines, key", [
    ("tau = 1*2^-20", "tau, precision"),
    ("tau = 1*2^-27", "tau, precision"),
    ("growth = 1048577/1048576", "q1, growth, depth"),
    ("sequence = contractive\ntau = 1*2^-20", "q1, tau, depth"),
    ("holder_s = 1/1048576", "holder_s, holder_samples"),
    ("mult_s = 1048577/1048576", "gamma, mult_s"),
])
def test_config_past_the_root_cap_exits_2(tmp_path, monkeypatch, capsys, lines, key):
    def no_root(x, b):
        raise AssertionError("a radicand was built")

    monkeypatch.setattr(numerics, "_iroot", no_root)
    monkeypatch.setattr(sequences, "_iroot", no_root)
    cfg = tmp_path / "capped.cfg"
    cfg.write_text(TINY_TAU + lines + "\n")
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


# the family names the first term past the cap and its size, and the root's
# degree for a step that takes one, not a root or a precision no key set
@pytest.mark.parametrize("lines, message", [
    ("growth = 40\ndepth = 5", "term 5 has about 5185641 bits, past the cap of 4194304 bits"),
    ("growth = 1048577/1048576\ndepth = 3",
     "term 3 has about 6 bits, taken as a degree-1048576 root of about 6291456 bits, "
     "past the cap of 4194304 bits"),
])
def test_term_size_refusal_names_the_term(tmp_path, capsys, lines, message):
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(f"sequence = power\nq1 = 3\n{lines}\n")
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: key 'q1, growth, depth': {message}\n"


def test_root_size_cap_is_inclusive():
    check_root_size(1 << 12, 1000, 24)  # 2**12 * 1024 = 2**22 bits
    with pytest.raises(ValueError, match="past the cap"):
        check_root_size(1 << 12, 1000, 25)


@pytest.mark.parametrize("spec, depth", [
    (PowerSpec(4, F(4)), 8), (PowerSpec(13, F(12, 5)), 8), (PowerSpec(3, F(13, 6)), 6),
    (ContractiveSpec(1000, F(1, 2)), 5), (AlternatingSpec(10 ** 6, F(1, 2), F(5, 2)), 5),
])
def test_term_bits_bounds_the_terms(spec, depth):
    terms = generate(spec, depth).terms
    assert max(terms).bit_length() <= term_bits(spec, depth)


def reference_power_terms(q1: int, growth: F, depth: int) -> tuple[int, ...]:
    """q_{j+1} = ceil(q_j**growth), rooted with ``reference_iroot``."""
    terms = [q1]
    while len(terms) < depth:
        p = terms[-1] ** growth.numerator
        r = reference_iroot(p, growth.denominator)
        terms.append(r if r ** growth.denominator >= p else r + 1)
    return tuple(terms)


def test_power_terms_match_reference():
    # the benchmark's deep power families: radicands up to about 57,000 bits
    for q1 in range(10, 21):
        for growth in (F(13, 6), F(9, 4), F(7, 3), F(12, 5), F(5, 2)):
            assert generate(PowerSpec(q1, growth), 10).terms == reference_power_terms(q1, growth, 10)


def reference_pow_bracket(p_int: int, shift: int, sign: int, b: int, prec: int) -> Enclosure:
    odd, k = _split_pow2(p_int)
    total_shift = k + shift
    root = reference_iroot(odd, b)
    if root ** b == odd and total_shift % b == 0:
        e = total_shift // b
        if sign > 0:
            return Enclosure.exact_dyadic(root, e)
        if root == 1:
            return Enclosure.exact_dyadic(1, -e)
        return Enclosure.from_fraction(F(1, root << e) if e >= 0
                                       else F(1 << -e, root), prec)

    est = (math.log2(p_int) + shift) * sign / b
    s = prec + 2 - math.floor(est)
    for _ in range(4):
        if sign > 0:
            d = s * b + shift
            if d >= 0:
                n = reference_iroot(p_int << d, b)
            else:
                n = reference_iroot(p_int >> -d, b)
                while (n + 1) ** b * (1 << -d) <= p_int:
                    n += 1
        else:
            d = s * b - shift
            if d < 0:
                n = 0
            else:
                n = reference_iroot((1 << d) // p_int, b)
                while (n + 1) ** b * p_int <= (1 << d):
                    n += 1
        if n.bit_length() >= prec + 2:
            break
        s += prec + 2 - n.bit_length() + 1
    return Enclosure(DirectedReal(n, -s, DOWN), DirectedReal(n + 1, -s, UP))


def reference_dir_pow(q: int, e: F, prec: int) -> Enclosure:
    if q == 1 or e == 0:
        return Enclosure.exact_int(1)
    a, b = e.numerator, e.denominator
    return reference_pow_bracket(q ** abs(a), 0, 1 if a > 0 else -1, b, prec)


def reference_pow_frac(x: Enclosure, s: F, prec: int) -> Enclosure:
    lo_b, hi_b = (x.lo, x.hi) if s > 0 else (x.hi, x.lo)
    a, b = s.numerator, s.denominator

    def bracket(y: DirectedReal) -> Enclosure:
        return reference_pow_bracket(y.mantissa ** abs(a), y.exponent * abs(a),
                                     1 if a > 0 else -1, b, prec)
    return Enclosure(bracket(lo_b).lo, bracket(hi_b).hi)


def bits(enc: Enclosure) -> tuple:
    """Everything an enclosure holds, direction tags included."""
    return tuple((d.mantissa, d.exponent, d.direction) for d in (enc.lo, enc.hi))


PRECS = st.integers(8, 1024)
EXPONENTS = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 12))


@st.composite
def bases(draw):
    """A base that is an exact power times a power of two about as often as not."""
    if draw(st.booleans()):
        return draw(st.integers(2, 2 ** 80))
    root = draw(st.integers(1, 2 ** 20))
    return root ** draw(st.integers(1, 12)) << draw(st.integers(0, 40))


@st.composite
def dyadics(draw):
    return DirectedReal(draw(bases()), draw(st.integers(-200, 200)))


@settings(max_examples=400, deadline=None)
@given(bases(), EXPONENTS, PRECS)
def test_dir_pow_matches_reference(q, e, prec):
    assert bits(dir_pow(q, e, prec)) == bits(reference_dir_pow(q, e, prec))


@settings(max_examples=300, deadline=None)
@given(dyadics(), dyadics(), EXPONENTS, PRECS)
def test_pow_frac_matches_reference(x, y, s, prec):
    lo, hi = min(x, y), max(x, y)
    enc = Enclosure(DirectedReal(lo.mantissa, lo.exponent, EXACT if lo == hi else DOWN),
                    DirectedReal(hi.mantissa, hi.exponent, EXACT if lo == hi else UP))
    assert bits(enc.pow_frac(s, prec)) == bits(reference_pow_frac(enc, s, prec))


@settings(max_examples=200, deadline=None)
@given(dyadics(), st.sampled_from([(EXACT, EXACT), (DOWN, UP), (DOWN, EXACT)]), EXPONENTS, PRECS)
def test_exact_base_takes_one_bracket(x, tags, s, prec):
    # an exact base has one bracket, whatever its ends' direction tags; it
    # holds the two ends the per-end brackets gave
    calls = []
    inner = numerics._pow_bracket

    def counted(*args):
        calls.append(args)
        return inner(*args)

    enc = Enclosure(DirectedReal(x.mantissa, x.exponent, tags[0]),
                    DirectedReal(x.mantissa, x.exponent, tags[1]))
    try:
        numerics._pow_bracket = counted
        got = enc.pow_frac(s, prec)
    finally:
        numerics._pow_bracket = inner
    assert len(calls) == 1
    assert bits(got) == bits(reference_pow_frac(enc, s, prec))


@settings(max_examples=200, deadline=None)
@given(PRECS, st.integers(2, 12), st.integers(1, 40), st.data())
def test_just_under_an_exact_power(prec, b, u, data):
    # q = m**b * 2**(b*u) - 1 with m of prec + 3 bits puts the kernel's first
    # radicand q / 2**(b*u) just under m**b, so flooring and ceiling it give
    # roots m - 1 and m
    m = data.draw(st.integers((1 << (prec + 2)) + 1, (1 << (prec + 3)) - 1))
    q = (m ** b << (b * u)) - 1
    assert bits(dir_pow(q, F(1, b), prec)) == bits(reference_dir_pow(q, F(1, b), prec))


@settings(max_examples=200, deadline=None)
@given(PRECS, st.integers(2, 12), st.integers(1, 40), st.data())
def test_reciprocal_just_under_an_exact_power(prec, b, extra, data):
    # the same for a negative exponent: with d = b * w past 2b times the bits
    # of m, q = floor(2**d / m**b) + 1 puts the kernel's radicand 2**d / q
    # strictly between m**b - 1 and m**b
    m = data.draw(st.integers((1 << (prec + 2)) + 1, (1 << (prec + 3)) - 1))
    d = b * (2 * (prec + 3) + extra)
    q = (1 << d) // m ** b + 1
    assert bits(dir_pow(q, F(-1, b), prec)) == bits(reference_dir_pow(q, F(-1, b), prec))


def test_exact_powers_with_shifts():
    # odd parts that are perfect powers, with and without a shift that divides out
    for q, e in [(2 ** 12 * 3 ** 4, F(1, 4)), (2 ** 13 * 3 ** 4, F(1, 4)),
                 (5 ** 6, F(-1, 3)), (2 ** 9, F(-2, 3)), (7 ** 10 << 5, F(3, 5))]:
        for prec in (8, 64, 1024):
            assert bits(dir_pow(q, e, prec)) == bits(reference_dir_pow(q, e, prec))


@given(st.sampled_from([DOWN, UP, EXACT]), PRECS)
def test_zero_is_exact_dyadic(direction, prec):
    z = DirectedReal.from_fraction(F(0), prec, direction)
    assert (z.mantissa, z.exponent, z.direction) == (0, 0, direction)


@st.composite
def bound_cases(draw):
    """A positive radius enclosure: a 31-bit or 130- to 300-bit mantissa, one
    just above a power of two, or an exact power whose s-th power is dyadic;
    or a non-dyadic rational rounded outward."""
    kind = draw(st.sampled_from(["31-bit", "long", "above-2^j", "exact", "rational"]))
    e = draw(st.integers(-200, 8))
    s = draw(st.builds(F, st.integers(1, 40), st.integers(1, 12)))
    if kind == "31-bit":
        enc = Enclosure.exact_dyadic(draw(st.integers(1 << 30, (1 << 31) - 1)), e)
    elif kind == "long":
        enc = Enclosure.exact_dyadic(draw(st.integers(1 << 129, (1 << 300) - 1)), e)
    elif kind == "above-2^j":
        j = draw(st.integers(0, 140))
        enc = Enclosure.exact_dyadic((1 << j) + draw(st.integers(0, 3)), e)
    elif kind == "exact":
        # (root**b * 2**(b * u))**(a / b) = root**a * 2**(a * u)
        b = s.denominator
        root = draw(st.integers(1, 1 << 12))
        enc = Enclosure.exact_dyadic(root ** b, b * draw(st.integers(-60, 4)))
    else:
        enc = Enclosure.from_fraction(F(draw(st.integers(1, 1 << 40)),
                                        draw(st.integers(2, 1 << 60))), draw(PRECS))
    return enc, s


@settings(max_examples=600, deadline=None)
@given(bound_cases(), st.integers(8, 256))
def test_pow_exponent_below_is_strict(case, prec):
    enc, s = case
    k = pow_exponent_below(enc.lo, s)
    lo = enc.pow_frac(s, prec).lo
    assert DirectedReal(1, k) < lo


def test_pow_exponent_below_at_exact_powers():
    # where r**s is exactly 2**(k + 1), the bound is one power of two below it
    for e, s in [(-10, F(1)), (0, F(3)), (-40, F(1, 2)), (7, F(5, 7)), (-6, F(2, 3)),
                 (-33, F(11, 3))]:
        for prec in (8, 9, 128, 256):
            lo = Enclosure.exact_dyadic(1, e).pow_frac(s, prec).lo
            k = pow_exponent_below(DirectedReal(1, e), s)
            assert lo == DirectedReal(1, k + 1)



# -- every small input against integers ---------------------------------------

def test_iroot_on_every_small_radicand():
    for b in range(2, 9):
        wrong = [x for x in range(1 << 16) if not (r := _iroot(x, b)) ** b <= x < (r + 1) ** b]
        assert not wrong, (b, wrong[:5])


def _power_cmp(m: int, e: int, b: int, num: int, den: int) -> int:
    """The sign of (m * 2**e)**b * den - num, in integers."""
    x, s = m ** b * den, e * b
    x, num = (x << s, num) if s >= 0 else (x, num << -s)
    return (x > num) - (x < num)


def _odd_part(q: int) -> tuple[int, int]:
    """(odd, k) with q = odd * 2**k."""
    k = 0
    while q % 2 == 0:
        q, k = q // 2, k + 1
    return q, k


def test_dir_pow_on_every_small_base():
    """For q < 1024, e = +-a/b with a <= 5 and b <= 4, and prec 8..16, the
    ends of dir_pow(q, e, prec) satisfy lo**b <= q**a <= hi**b, hi - lo <=
    2**(1 - prec) lo, and lo = hi exactly when q**e is dyadic: q = odd * 2**k
    with b | k, odd a b-th power, and odd = 1 when a < 0."""
    exponents = sorted({F(a, b) for a in range(1, 6) for b in range(1, 5)})
    exponents += [-e for e in exponents]
    assert len(exponents) == 30
    powers = {b: {r ** b for r in range(1, 1024)} for b in range(1, 5)}
    for q in range(1, 1024):
        odd, k = _odd_part(q)
        for e in exponents:
            a, b = e.numerator, e.denominator
            num, den = (q ** a, 1) if a > 0 else (1, q ** -a)   # q**a = num / den
            dyadic = k % b == 0 and odd in powers[b] and (a > 0 or odd == 1)
            for prec in range(8, 17):
                enc = dir_pow(q, e, prec)
                (ml, el), (mh, eh) = ((d.mantissa, d.exponent) for d in (enc.lo, enc.hi))
                case = (q, e, prec)
                assert _power_cmp(ml, el, b, num, den) <= 0 <= _power_cmp(mh, eh, b, num, den), case
                # (hi - lo) 2**(prec - 1) <= lo, on the grid of the finer end
                g = min(el, eh)
                lo, hi = ml << el - g, mh << eh - g
                assert (hi - lo) << prec - 1 <= lo, case
                assert (lo == hi) == dyadic, case
