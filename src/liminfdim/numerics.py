"""Certified dyadic arithmetic with directed rounding.

Building blocks:

* ``DirectedReal``: an arbitrary-precision dyadic number ``mantissa * 2**exponent``
  tagged with a rounding direction, so every value is either exact or a
  certified one-sided bound of the real quantity it stands for.
* ``Enclosure``: a pair of directed values bracketing a real number.
* ``dir_pow`` / ``log2_int`` / ``log_ratio``: enclosure-producing kernels for
  integer powers with rational exponents and base-2 logarithms.  These cover
  every irrational quantity the rest of the library needs.  A log2 bracket
  is defined by a squaring kernel that squares one rounded-up fixed-point
  end, one bit per square, and drifts up by less than 9 * 2**-11 of its last
  bit.  It is found faster, in fixed point: k square roots reduce the
  argument, the atanh series gives ln, and one held ln 2 constant divides
  it, to within 2 units of the 16th guard bit.  Ziv's rounding test accepts
  that value where the two bounds decide the squaring kernel's bracket, and
  runs the squaring kernel on the rest (about 1 in 225 arguments).

Every log2 goes through one process-wide LRU cache of the last
``LOG2_CACHE_SIZE`` results, keyed by (integer, precision), so a log2 is
taken once per process while it stays in the cache.

All certified paths run on exact integer arithmetic.  Floats appear only to
pick working scales (never to decide a bound), so a bad float estimate can
cost a retry but not soundness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

DEFAULT_PRECISION = 128
MIN_PRECISION = 8
# extra bits on each log2 whose quotient log_ratio rounds to the working precision
LOG_GUARD_BITS = 8
# (n, prec) log2 brackets the process keeps: a term's logs recur within a few
# dozen log2 calls (the estimates of one depth, the analyses of one sequence),
# and at 1024 bits the cache holds about 0.4 MB
LOG2_CACHE_SIZE = 128


class Direction(Enum):
    DOWN = "down"
    UP = "up"
    EXACT = "exact"


DOWN = Direction.DOWN
UP = Direction.UP
EXACT = Direction.EXACT


def _resolve_prec(prec: Optional[int]) -> int:
    if prec is None:
        return DEFAULT_PRECISION
    if not isinstance(prec, int):
        raise ValueError(f"precision must be an integer, got {prec!r}")
    if prec < MIN_PRECISION:
        raise ValueError(f"precision must be at least {MIN_PRECISION} bits, got {prec}")
    return prec


# A b-th root taken to prec bits of a power whose integer has ``bits`` bits
# (q**e for q of bits / e bits, e = a / b) roots a radicand of about
# b * (prec + bits) bits, and each of Newton's steps on it costs time
# quadratic in that: a config past the cap is refused, not run for minutes.
ROOT_RADICAND_CAP = 1 << 22


def check_root_size(b: int, prec: int, bits: int, subject: str = "") -> None:
    """Raise ValueError when b * (prec + bits), the size of the radicand a
    b-th root of a ``bits``-bit power takes at prec bits, passes
    ``ROOT_RADICAND_CAP``.  No radicand is built.  ``subject`` opens the
    message in place of the denominator, size and precision."""
    size = b * (prec + bits)
    if size > ROOT_RADICAND_CAP:
        subject = subject or (f"denominator {b} needs roots of about {size} bits "
                              f"at precision {prec}")
        raise ValueError(f"{subject}, past the cap of {ROOT_RADICAND_CAP} bits")


def _iroot(x: int, b: int) -> int:
    """Floor of the b-th root of a nonnegative integer."""
    if x < 0:
        raise ValueError("negative radicand")
    if x < 2 or b == 1:
        return x
    if b == 2:
        return math.isqrt(x)
    # Newton iteration with floor division stops at r = floor(x**(1/b)):
    # nxt = floor(((b-1) g + x / g**(b-1)) / b), as nested floors of an
    # integer sum agree, and that is >= floor(x**(1/b)) = r by AM-GM; while
    # g > r, g**b > x, so x / g**(b-1) < g and nxt < g.  Any start above
    # x**(1/b) makes the iterates fall strictly while g > r, never below r,
    # and the first g with nxt >= g is r.
    n = x.bit_length()
    if n // b < 64:
        # a root below 2**64: 2**ceil(n / b) is above it, but by up to twice,
        # and from there each step falls by only about 1 - 1/b; a float
        # estimate from x's top 64 bits, raised by a 2**-40 margin plus 2,
        # lies above it too unless rounding failed, which one power checks
        g = 1 << -(-n // b)
        shift = max(0, n - 64)
        y = int(2 ** ((math.log2(x >> shift) + shift) / b) * (1 + 2 ** -40)) + 2
        if y < g and y ** b > x:
            g = y
    else:
        # precision doubling: the root y of the top bits, taken to half the
        # root's length, gives (y + 1)**b >= (x >> b*k) + 1 > x / 2**(b*k),
        # so g = (y + 1) << k is above x**(1/b) by a relative 2**-(k - 1) or
        # less, and Newton's quadratic phase needs one or two steps from it
        k = n // b // 2
        g = (_iroot(x >> b * k, b) + 1) << k
    while True:
        nxt = ((b - 1) * g + x // g ** (b - 1)) // b
        if nxt >= g:
            return g
        g = nxt


def _split_pow2(n: int) -> tuple[int, int]:
    """Write n = odd * 2**k for n >= 1."""
    k = (n & -n).bit_length() - 1
    return n >> k, k


def _shift_floor(m: int, k: int) -> int:
    """floor(m * 2**k) for integer m and possibly negative k."""
    return m << k if k >= 0 else m >> -k


def _shift_ceil(m: int, k: int) -> int:
    return m << k if k >= 0 else -((-m) >> -k)


@dataclass(frozen=True, slots=True)
class DirectedReal:
    """Dyadic number ``mantissa * 2**exponent`` with a rounding direction.

    Canonical form keeps the mantissa odd (or zero with exponent zero), so
    numeric equality of canonical forms is plain field equality.  Comparisons
    and hashing ignore the direction tag: it records how the value relates to
    the real quantity it approximates, not what the value is.
    """

    mantissa: int
    exponent: int
    direction: Direction = EXACT

    def __post_init__(self) -> None:
        m, e = self.mantissa, self.exponent
        if m == 0:
            e = 0
        else:
            odd, k = _split_pow2(abs(m))
            e += k
            m = odd if m > 0 else -odd
        object.__setattr__(self, "mantissa", m)
        object.__setattr__(self, "exponent", e)

    @staticmethod
    def from_int(n: int, direction: Direction = EXACT) -> "DirectedReal":
        return DirectedReal(n, 0, direction)

    @staticmethod
    def from_fraction(x: Fraction, prec: Optional[int], direction: Direction) -> "DirectedReal":
        """Round an exact rational to a dyadic with `prec` significant bits.

        Exact (regardless of prec) when the denominator is a power of two.
        """
        num, den = x.numerator, x.denominator
        odd, k = _split_pow2(den)
        if odd == 1:
            return DirectedReal(num, -k, direction)
        p = _resolve_prec(prec)
        t = p + 2 - (abs(num).bit_length() - den.bit_length())
        t = max(t, 1)
        scaled = num << t
        if direction is DOWN:
            q = scaled // den
        elif direction is UP:
            q = -((-scaled) // den)
        else:
            raise ValueError("non-dyadic rational needs an explicit rounding direction")
        return DirectedReal(q, -t, direction)

    def as_fraction(self) -> Fraction:
        e = self.exponent
        if e >= 0:
            return Fraction(self.mantissa << e, 1)
        return Fraction(self.mantissa, 1 << -e)

    def __float__(self) -> float:
        try:
            return math.ldexp(self.mantissa, self.exponent)
        except OverflowError:
            return float(self.as_fraction())

    def _cmp(self, other: "DirectedReal") -> int:
        a, b = self, other
        if a.mantissa == b.mantissa and a.exponent == b.exponent:
            return 0
        e = min(a.exponent, b.exponent)
        x = a.mantissa << (a.exponent - e)
        y = b.mantissa << (b.exponent - e)
        return -1 if x < y else (1 if x > y else 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedReal):
            return NotImplemented
        return self.mantissa == other.mantissa and self.exponent == other.exponent

    def __hash__(self) -> int:
        return hash((self.mantissa, self.exponent))

    def __lt__(self, other: "DirectedReal") -> bool:
        return self._cmp(other) < 0

    def __gt__(self, other: "DirectedReal") -> bool:
        return self._cmp(other) > 0

    @staticmethod
    def _join(d1: Direction, d2: Direction) -> Direction:
        if d1 is EXACT:
            return d2
        if d2 is EXACT or d1 is d2:
            return d1
        raise ValueError("cannot combine down- and up-rounded values exactly")

    def __neg__(self) -> "DirectedReal":
        flip = {DOWN: UP, UP: DOWN, EXACT: EXACT}[self.direction]
        return DirectedReal(-self.mantissa, self.exponent, flip)

    def __add__(self, other: "DirectedReal") -> "DirectedReal":
        d = self._join(self.direction, other.direction)
        e = min(self.exponent, other.exponent)
        m = (self.mantissa << (self.exponent - e)) + (other.mantissa << (other.exponent - e))
        return DirectedReal(m, e, d)

    def __mul__(self, other: "DirectedReal") -> "DirectedReal":
        # a negative factor turns a bound around, so a directed product needs
        # nonnegative factors (``Enclosure.__mul__`` checks their quantities too)
        d = self._join(self.direction, other.direction)
        if d is not EXACT and (self.mantissa < 0 or other.mantissa < 0):
            raise ValueError("a directed product needs nonnegative factors")
        return DirectedReal(self.mantissa * other.mantissa, self.exponent + other.exponent, d)

    def floor(self) -> int:
        return _shift_floor(self.mantissa, self.exponent)

    def ceil(self) -> int:
        return _shift_ceil(self.mantissa, self.exponent)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DirectedReal({self.mantissa}*2^{self.exponent}, {self.direction.value})"


def _div_directed(num: DirectedReal, den: DirectedReal, prec: int, direction: Direction) -> DirectedReal:
    """num / den rounded in `direction`, den > 0, ~prec significant bits.
    A quotient with no remainder is tagged EXACT only when both operands
    are; one of a bound is a bound in `direction`."""
    if den.mantissa <= 0:
        raise ZeroDivisionError("directed division requires a positive denominator")
    t = prec + 4 - (abs(num.mantissa).bit_length() - den.mantissa.bit_length())
    t = max(t, 0)
    scaled = num.mantissa << t
    q, r = divmod(scaled, den.mantissa)  # Python floor division: rounds toward -inf
    if r == 0:
        if num.direction is EXACT and den.direction is EXACT:
            direction = EXACT
    elif direction is UP:
        q += 1
    elif direction is not DOWN:
        raise ValueError("inexact division needs a rounding direction")
    return DirectedReal(q, num.exponent - den.exponent - t, direction)


@dataclass(frozen=True, slots=True)
class Enclosure:
    """Certified bracket ``lo <= true value <= hi`` of a real number.

    Addition and multiplication of dyadics are exact, so those operations
    never widen beyond the interval arithmetic itself; division and the
    power/log kernels round outward at a requested precision.
    """

    lo: DirectedReal
    hi: DirectedReal

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"inverted enclosure [{self.lo!r}, {self.hi!r}]")
        if self.lo.direction is UP or self.hi.direction is DOWN:
            raise ValueError("enclosure endpoints carry the wrong rounding directions")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def exact_int(n: int) -> "Enclosure":
        d = DirectedReal.from_int(n)
        return Enclosure(d, d)

    @staticmethod
    def exact_dyadic(mantissa: int, exponent: int) -> "Enclosure":
        d = DirectedReal(mantissa, exponent, EXACT)
        return Enclosure(d, d)

    @staticmethod
    def from_fraction(x: Fraction, prec: Optional[int] = None) -> "Enclosure":
        x = Fraction(x)
        odd, k = _split_pow2(x.denominator)
        if odd == 1:
            d = DirectedReal(x.numerator, -k, EXACT)
            return Enclosure(d, d)
        return Enclosure(
            DirectedReal.from_fraction(x, prec, DOWN),
            DirectedReal.from_fraction(x, prec, UP),
        )

    @staticmethod
    def from_endpoints(lo: Fraction, hi: Fraction, prec: Optional[int] = None) -> "Enclosure":
        return Enclosure(
            DirectedReal.from_fraction(lo, prec, DOWN),
            DirectedReal.from_fraction(hi, prec, UP),
        )

    # -- queries -----------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def width(self) -> Fraction:
        return self.hi.as_fraction() - self.lo.as_fraction()

    def midpoint(self) -> Fraction:
        return (self.lo.as_fraction() + self.hi.as_fraction()) / 2

    def float_bounds(self) -> tuple[float, float]:
        return float(self.lo), float(self.hi)

    def certainly_gt(self, x: Union[Fraction, int]) -> Optional[bool]:
        """True value > x?  True/False when certified, None when straddling."""
        x = Fraction(x)
        if self.lo.as_fraction() > x:
            return True
        if self.hi.as_fraction() <= x:
            return False
        return None

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self.hi, -self.lo)

    def __add__(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: "Enclosure") -> "Enclosure":
        """The product of two nonnegative enclosures: [lo * lo', hi * hi']."""
        if self.lo.mantissa < 0 or other.lo.mantissa < 0:
            raise ValueError("enclosure products need nonnegative lower ends")
        return Enclosure(self.lo * other.lo, self.hi * other.hi)

    def scale_int(self, k: int) -> "Enclosure":
        if k >= 0:
            lo = DirectedReal(self.lo.mantissa * k, self.lo.exponent, self.lo.direction)
            hi = DirectedReal(self.hi.mantissa * k, self.hi.exponent, self.hi.direction)
            return Enclosure(lo, hi)
        return (-self).scale_int(-k)

    def add_int(self, k: int) -> "Enclosure":
        d = DirectedReal.from_int(k)
        return Enclosure(self.lo + d, self.hi + d)

    def mul_frac(self, q: Fraction, prec: Optional[int] = None) -> "Enclosure":
        """Multiply by an exact rational; exact when q is dyadic."""
        q = Fraction(q)
        if q < 0:
            return (-self).mul_frac(-q, prec)
        odd, k = _split_pow2(q.denominator)
        if odd == 1:
            lo = DirectedReal(self.lo.mantissa * q.numerator, self.lo.exponent - k, self.lo.direction)
            hi = DirectedReal(self.hi.mantissa * q.numerator, self.hi.exponent - k, self.hi.direction)
            return Enclosure(lo, hi)
        return self.scale_int(q.numerator).div(Enclosure.exact_int(q.denominator), prec)

    def div(self, other: "Enclosure", prec: Optional[int] = None) -> "Enclosure":
        """Interval division; the denominator must be certainly positive."""
        p = _resolve_prec(prec)
        if other.lo.mantissa <= 0:
            raise ZeroDivisionError("enclosure division requires a positive denominator")
        lo_den = other.hi if self.lo.mantissa >= 0 else other.lo
        hi_den = other.lo if self.hi.mantissa >= 0 else other.hi
        lo = _div_directed(self.lo, lo_den, p, DOWN)
        hi = _div_directed(self.hi, hi_den, p, UP)
        return Enclosure(lo, hi)

    def pow_frac(self, s: Fraction, prec: Optional[int] = None) -> "Enclosure":
        """self ** s for a certainly-positive enclosure and rational s."""
        s = Fraction(s)
        if s == 0:
            return Enclosure.exact_int(1)
        if self.lo.mantissa <= 0:
            raise ValueError("pow_frac requires a certainly positive base")
        p = _resolve_prec(prec)
        a, b = abs(s.numerator), s.denominator
        sign = 1 if s > 0 else -1

        def bracket(x: DirectedReal) -> "Enclosure":
            return _pow_bracket(x.mantissa ** a, x.exponent * a, sign, b, p)

        # an exact base has one bracket, and it holds both ends
        if self.is_exact:
            return bracket(self.lo)
        lo_b, hi_b = (self.lo, self.hi) if sign > 0 else (self.hi, self.lo)
        return Enclosure(bracket(lo_b).lo, bracket(hi_b).hi)

    def log2(self, prec: Optional[int] = None) -> "Enclosure":
        """Enclosure of log2(value) for a certainly-positive enclosure."""
        p = _resolve_prec(prec)
        if self.lo.mantissa <= 0:
            raise ValueError("log2 requires a certainly positive enclosure")
        # log2(m * 2**e) = log2(m) + e for each end
        lo = _log2_cached(self.lo.mantissa, p).lo + DirectedReal.from_int(self.lo.exponent)
        hi = _log2_cached(self.hi.mantissa, p).hi + DirectedReal.from_int(self.hi.exponent)
        return Enclosure(lo, hi)

    def min_with(self, other: "Enclosure") -> "Enclosure":
        """Enclosure of min(x, y) given enclosures of x and y."""
        return Enclosure(min(self.lo, other.lo), min(self.hi, other.hi))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lo, hi = self.float_bounds()
        tag = "=" if self.is_exact else "~"
        return f"Enclosure[{lo!r}, {hi!r}]{tag}"


ONE = Enclosure.exact_int(1)


# ---------------------------------------------------------------------------
# Power kernel
# ---------------------------------------------------------------------------

def _pow_bracket(p_int: int, shift: int, sign: int, b: int, prec: int) -> Enclosure:
    """Enclosure of (p_int * 2**shift) ** (sign / b), p_int >= 1, b >= 1.

    Exactness is detected completely: the value is dyadic iff the odd part of
    p_int is a perfect b-th power whose root divides out (and, for negative
    sign, the root is 1).
    """
    odd, k = _split_pow2(p_int)
    total_shift = k + shift
    root = _iroot(odd, b)
    if root ** b == odd and total_shift % b == 0:
        e = total_shift // b
        if sign > 0:
            return Enclosure.exact_dyadic(root, e)
        if root == 1:
            return Enclosure.exact_dyadic(1, -e)
        return Enclosure.from_fraction(Fraction(1, root << e) if e >= 0
                                       else Fraction(1 << -e, root), prec)

    est = (math.log2(p_int) + shift) * sign / b
    s = prec + 2 - math.floor(est)
    # for an integer n, n**b <= X exactly when n**b <= floor(X)
    for _ in range(4):
        if sign > 0:
            # n = floor(2**s * (p * 2**shift)**(1/b)):  n**b <= p * 2**(s*b + shift)
            n = _iroot(_shift_floor(p_int, s * b + shift), b)
        else:
            # n = floor(2**s / (p * 2**shift)**(1/b)):  n**b * p <= 2**(s*b - shift)
            d = s * b - shift
            n = _iroot((1 << d) // p_int, b) if d >= 0 else 0
        if n.bit_length() >= prec + 2:
            break
        s += prec + 2 - n.bit_length() + 1
    lo = DirectedReal(n, -s, DOWN)
    hi = DirectedReal(n + 1, -s, UP)
    return Enclosure(lo, hi)


def pow_exponent_below(x: DirectedReal, s: Fraction) -> int:
    """An integer k with 2**k < lo for the lower end lo of
    ``pow_frac(s, prec)`` of any enclosure whose lower end is x > 0, at
    any precision, for s > 0.

    With x = m * 2**e and n = m.bit_length(), x >= 2**(e + n - 1), so
    x**s >= 2**floor((e + n - 1) * s) = 2**(k + 1).  ``_pow_bracket``'s
    lower end is x**s itself or n' / 2**t with n' = floor(2**t * x**s)
    of at least prec + 2 bits, which exceeds x**s - 2**-t >=
    x**s * (1 - 2**-(prec + 1)) > x**s / 2 >= 2**k.
    """
    return (x.exponent + x.mantissa.bit_length() - 1) * s.numerator // s.denominator - 1


def dir_pow(q: int, e: Union[Fraction, int], prec: Optional[int] = None) -> Enclosure:
    """Enclosure of q**e for an integer q >= 1 and rational exponent e.

    Relative width is at most 2**(1-prec); both bounds coincide exactly when
    q**e is a dyadic rational.
    """
    p = _resolve_prec(prec)
    if q < 1:
        raise ValueError(f"base must be a positive integer, got {q}")
    e = Fraction(e)
    if q == 1 or e == 0:
        return ONE
    a, b = e.numerator, e.denominator
    return _pow_bracket(q ** abs(a), 0, 1 if a > 0 else -1, b, p)


# ---------------------------------------------------------------------------
# Logarithm kernel
# ---------------------------------------------------------------------------

# Ziv's rounding test on the fast log2 (``_log2_bracket``): the guard bits
# computed past the bracket's last bit, the fast value's proven error bound in
# units of the last guard bit, and in the same units a bound on how far up the
# squaring kernel (``_log2_squares``) drifts: 9 * 2**-11 of the bracket's last bit
_ZIV_GUARD = 16
_ZIV_ERROR = 2
_ZIV_DRIFT = 9 << (_ZIV_GUARD - 11)

# ln 2 in fixed point as (w, c) with c <= 2**w * ln 2 < c + 2; widened, never
# narrowed, by ``_ln2_fixed``.  Every pair it ever holds is valid, so two
# threads that widen it at once cost time, not soundness.
_LN2 = (0, 0)


def _atanh_fixed(s: int, w: int, terms: int) -> int:
    """The first ``terms`` >= 1 terms of atanh(sigma) = sum of
    sigma**(2j+1) / (2j+1), sigma = s / 2**w <= 1/3, in w-bit fixed point.

    Every product and quotient is floored, so the sum A is at most
    2**w * atanh(sigma).  The power P_j = floor(P_{j-1} * Q / 2**w), with
    P_0 = s and Q = floor(s**2 / 2**w), falls short of 2**w * sigma**(2j+1)
    by d_j <= d_{j-1} * sigma**2 + sigma**(2j-1) + 1 <= d_{j-1} / 9 + 4/3, so
    d_j < 3/2, and each term j >= 1 is short by less than d_j / 3 + 1 <= 3/2.
    When sigma**(2 terms + 1) <= 2**-w the series' tail adds at most
    (9/8) / (2 terms + 1) <= 3/8, and if s = floor(2**w * t) for a t <= 1/3,
    2**w * (atanh t - atanh sigma) < (9/8) (atanh' <= 9/8 on [0, 1/3]).  So
    0 <= 2**w * atanh(t) - A < 3/2 * terms.
    """
    q = s * s >> w
    p = a = s
    for j in range(1, terms):
        p = p * q >> w
        a += p // (2 * j + 1)
    return a


def _ln2_fixed(w: int) -> int:
    """c with c <= 2**w * ln 2 < c + 2, for w >= 4.

    The module holds one such constant, at a width hw >= w, and returns it
    shifted down: a floor of (2**hw * ln 2 - e) / 2**(hw - w), e in [0, 2),
    is short of 2**w * ln 2 by less than 2 / 2**(hw - w) + 1 <= 2.  A wider w
    widens it to max(w, 2 * hw), from ln 2 = 2 atanh(1/3) at v = hw + u bits,
    u = hw.bit_length() + 2: 9**-m / 3 < 2**-(3m + 1) <= 2**-v for m =
    (v + 1) // 3 terms, so 2A is short by less than 3m <= v + 1 < 2**u, and
    2A >> u by less than 2.
    """
    global _LN2
    hw, c = _LN2
    if hw < w:
        hw = max(w, 2 * hw)
        u = hw.bit_length() + 2
        v = hw + u
        c = 2 * _atanh_fixed((1 << v) // 3, v, (v + 1) // 3) >> u
        _LN2 = (hw, c)
    return c >> (hw - w)


def _log2_atanh(n: int, f: int) -> int:
    """An integer z with |z - 2**f * log2(n)| < ``_ZIV_ERROR`` = 2, for an
    integer n >= 2 that is not a power of two and f >= 8.

    x = n / 2**e0 lies in (1, 2), and ln x = 2**(k+1) atanh(s) with s =
    (v - 1) / (v + 1) and v = x**(1 / 2**k).  In fixed point of w bits:

    * y = floor(x * 2**w), then k times y = isqrt(y * 2**w), which is
      floor(2**w * (y / 2**w) ** (1/2)).  Each floor takes at most 1 off a
      value of at least 2**w, a factor e**-mu with mu = -ln(1 - 2**-w) <
      (8/7) 2**-w, and a square root halves the loss before it; so v = y /
      2**w in [1, 2), taken as the reduced argument from here on, has 0 <=
      ln x - 2**k ln v < 2**k * 2 mu < 2**k (16/7) 2**-w.
    * s <= 1/3, and s <= atanh s = ln(v) / 2 < ln 2 / 2**(k+1) <
      2**-(k + 3/2); m terms with (2k + 3)(2m + 1) >= 2w give s**(2m + 1)
      <= 2**-w, and ``_atanh_fixed`` of floor(2**w * s) a sum A with
      0 <= 2**w atanh(s) - A < 3m/2.  So
      L = A * 2**(k+1) has 0 <= 2**w ln x - L < 2**(k+1) 3m/2 + 2**k 16/7
      < 2**(k+2) (m + 2).
    * c = ``_ln2_fixed(w)`` has 0 <= 2**w ln 2 - c < 2, so c > 2**(w-1).
      With a = 2**w ln x in [L, L + 2**(k+2) (m + 2)) and b = 2**w ln 2 in
      [c, c + 2): 2**f a / b - floor(2**f L / c) < 2**f 2**(k+2) (m + 2) / c
      + 1 < 2**(f - w + k + 3) (m + 2) + 1, and it is above 2**f L (1 / (c
      + 2) - 1 / c) >= -2**(f+1) (L / c) / c > -2**(f - w + 3), as L / c < b
      / (b - 2) <= 2.
    * w = w0 + t with w0 = f + k + 3 and 2**t > w0 + 3: m <= w / 2, so
      m + 2 <= w0 + 3 < 2**t and 2**(f - w + k + 3) (m + 2) < 1.  Both
      sides of the error then lie within 2.

    The reduction's depth k only sets the cost (square roots against
    series terms), and any k >= 0 keeps the bound.
    """
    e0 = n.bit_length() - 1
    k = math.isqrt(f) // 3
    w0 = f + k + 3
    w = w0 + (w0 + 3).bit_length()
    y = _shift_floor(n, w - e0)
    for _ in range(k):
        y = math.isqrt(y << w)
    one = 1 << w
    s = ((y - one) << w) // (y + one)
    terms = -(-(2 * w - 2 * k - 3) // (4 * k + 6))
    ln_x = _atanh_fixed(s, w, terms) << (k + 1)
    return (e0 << f) + (ln_x << f) // _ln2_fixed(w)


def _log2_enclosure(acc: int, steps: int) -> Enclosure:
    """The bracket [acc - 1, acc + 1] / 2**steps of a log2 whose scaled value
    2**steps * log2 n lies in (acc - 1, acc + 1)."""
    return Enclosure(DirectedReal(acc - 1, -steps, DOWN), DirectedReal(acc + 1, -steps, UP))


def _log2_bracket(n: int, prec: int) -> Enclosure:
    """Enclosure of log2(n) for an integer n >= 1; exact for powers of two.

    The bracket is ``_log2_squares``'s, bit for bit, found faster where
    Ziv's rounding test can tell what that kernel returns.  With steps =
    prec + 3 and Y = 2**steps * log2 n, which is irrational, that kernel
    returns the bracket of an integer acc in (Y - 1, Y + delta] with delta <
    9 * 2**-11: floor(Y), or floor(Y) + 1 when Y lies within delta below an
    integer.  ``_log2_atanh`` gives z with |z - 2**G * Y| < E, G =
    ``_ZIV_GUARD``, E = ``_ZIV_ERROR``.  Write z = m * 2**G + r, 0 <= r <
    2**G.  When E <= r < 2**G - E - D, D = ``_ZIV_DRIFT`` = 9 * 2**(G - 11)
    >= 2**G * delta, then 2**G * Y > z - E >= m * 2**G and 2**G * Y < z + E
    <= (m + 1) * 2**G - D, so m < Y < m + 1 - delta and the kernel's acc is
    m.  Otherwise (about 1 in 225 arguments) the kernel runs.
    """
    if n < 1:
        raise ValueError("log2 of a nonpositive integer")
    if n & (n - 1) == 0:
        return Enclosure.exact_int(n.bit_length() - 1)
    steps = prec + 3
    z = _log2_atanh(n, steps + _ZIV_GUARD)
    r = z & ((1 << _ZIV_GUARD) - 1)
    if _ZIV_ERROR <= r < (1 << _ZIV_GUARD) - _ZIV_ERROR - _ZIV_DRIFT:
        return _log2_enclosure(z >> _ZIV_GUARD, steps)
    return _log2_squares(n, prec)


def _log2_squares(n: int, prec: int) -> Enclosure:
    """Enclosure of log2(n) for an integer n >= 2 that is not a power of two:
    ``_log2_bracket``'s fallback, and the definition of its bracket.

    The classical square-and-renormalise scheme on one end.  With x =
    n / 2**e0 in (1, 2), each of the ``steps`` = prec + 3 steps squares the
    working value u (u = x at the start) and halves it once when the square
    passes 2, emitting that halving as the next bit of ``acc``, so that
    x**(2**steps) = u * 2**acc and log2(n) = e0 + (acc + log2 u) / 2**steps.
    ``hi``, a g-bit fixed-point upper bound of u, decides each bit: it starts
    at ceil(x * 2**g), and every square and halving of it rounds up.

    ``hi`` stays in [2**g, 2**(g+1)] before each square (x * 2**g lies in
    it at the start), so after one it is at most 2**(g+2) and a single
    halving brings it back; so it ends in [2**g, 2**(g+1)].  Write hi =
    2**g * u * (1 + eps).  Each rounding up adds at most 1 to a value of at
    least 2**g, a factor of at most 1 + 2**-g, so a step takes 1 + eps to
    at most (1 + eps)**2 * (1 + 2**-g)**2: ln(1 + eps) grows to at most
    twice itself plus 2**(1-g) per step from at most 2**-g, and so stays
    below 3 * 2**steps * 2**-g = 3 * 2**-10, as g = steps + 10.  So u ends
    in [1 / (1 + eps), 2], and u = 2 would make log2 x rational: with Y =
    2**steps * log2 x, acc = Y - log2 u lies in (Y - 1, Y + delta], delta =
    log2(1 + eps) < 3 * 2**-10 / ln 2 < 9 * 2**-11, and log2 x lies in
    [(acc - 1) / 2**steps, (acc + 1) / 2**steps].
    """
    steps = prec + 3
    g = steps + 10
    e0 = n.bit_length() - 1
    hi = -((-n << g) >> e0)
    acc = 0
    unit2 = 2 << g
    for _ in range(steps):
        hi = ((hi * hi) + (1 << g) - 1) >> g
        acc <<= 1
        if hi > unit2:
            hi = (hi + 1) >> 1
            acc += 1
    return _log2_enclosure((e0 << steps) + acc, steps)


@functools.lru_cache(maxsize=LOG2_CACHE_SIZE)
def _log2_cached(n: int, prec: int) -> Enclosure:
    """``_log2_bracket(n, prec)``, kept for the process's next calls; enclosures
    are frozen, so a kept result is the value every caller would compute."""
    return _log2_bracket(n, prec)


def log2_int(n: int, prec: Optional[int] = None) -> Enclosure:
    """Enclosure of log2(n) for an integer n >= 1."""
    return _log2_cached(n, _resolve_prec(prec))


def _power_exponent_of(a: int, b: int) -> Optional[int]:
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


def log_ratio(a: int, b: int, prec: Optional[int] = None) -> Enclosure:
    """Enclosure of log(a)/log(b) for integers a, b >= 2.

    Exact when a is an integer power of b; when b is a power a**k, 1/k is
    exact if dyadic and rounded outward at ``prec`` bits otherwise.  Both
    cases are decided on integers alone.  Any other ratio divides, at
    ``prec``, the log2 values of a and b taken at ``prec + LOG_GUARD_BITS``
    bits through ``log2_int``.  A caller's logs are taken once while its
    distinct integers fit in the log2 cache (``LOG2_CACHE_SIZE``); past
    that, evicted ones are taken again, to the same brackets.
    """
    if a < 2 or b < 2:
        raise ValueError("log_ratio requires both arguments >= 2")
    p = _resolve_prec(prec)
    k = _power_exponent_of(a, b)
    if k is not None:
        return Enclosure.exact_int(k)
    k = _power_exponent_of(b, a)
    if k is not None:
        return Enclosure.from_fraction(Fraction(1, k), p)
    return log2_int(a, p + LOG_GUARD_BITS).div(log2_int(b, p + LOG_GUARD_BITS), p)
