"""Dimension formula and the two finite-depth estimators that bracket it.

For a prefix q_1 < ... < q_J with shrinking exponent tau in dimension d:

* the cover estimator counts boxes of side 2 * q_J**-(1+tau) sufficient to
  cover the depth-J intersection and reports log N / (-log side);
* the subdivision estimator counts the children kept by the nested
  subdivision, M = q_1**d * prod floor(q_k / q_{k-1}**(1+tau))**d, and reports
  log M / ((1+tau) log q_J).

Both converge to d*(1 - tau*alpha)/(tau+1) for the monotone built-in
families; at finite depth each can sit on either side of the limit, so
results are certified enclosures of the estimator values themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .level_sets import CertifiedCount
from .numerics import Enclosure, _resolve_prec, dir_pow, log2_int
from .sequences import QSequence, RegimeResult, validate_regime


class RegimeViolationError(ValueError):
    """The subdivision has no children at some level (growth too slow)."""

    def __init__(self, level: int, message: str):
        super().__init__(f"level {level}: {message}")
        self.level = level


@dataclass(frozen=True)
class DimensionValue:
    """Formula value with a flag for arguments outside the valid regime."""

    value: Union[Enclosure, Fraction]
    clamped: bool = False

    def as_enclosure(self, prec: Optional[int] = None) -> Enclosure:
        if isinstance(self.value, Enclosure):
            return self.value
        return Enclosure.from_fraction(self.value, prec)


def theoretical_dimension(
    tau: Fraction,
    alpha: Union[Fraction, Enclosure],
    d: int,
    prec: Optional[int] = None,
) -> DimensionValue:
    """d * (1 - tau*alpha) / (tau + 1), clamped below at zero.

    Exact rational arithmetic when alpha is a Fraction; interval arithmetic
    when alpha is an enclosure.  The clamp flag marks tau*alpha > 1, where
    the formula leaves its meaningful range.
    """
    tau = Fraction(tau)
    if tau <= 0:
        raise ValueError("tau must be positive")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if isinstance(alpha, Enclosure):
        p = _resolve_prec(prec)
        num = (-alpha.mul_frac(tau, p)).add_int(1)
        val = num.scale_int(d).mul_frac(Fraction(1, tau + 1), p)
        if val.hi.mantissa < 0:
            return DimensionValue(Enclosure.exact_int(0), clamped=True)
        if val.lo.mantissa < 0:
            zero = Enclosure.exact_int(0)
            return DimensionValue(Enclosure(zero.lo, val.hi), clamped=True)
        return DimensionValue(val, clamped=False)
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    raw = d * (1 - tau * alpha) / (tau + 1)
    if raw < 0:
        return DimensionValue(Fraction(0), clamped=True)
    return DimensionValue(raw, clamped=False)


@dataclass(frozen=True)
class CoverReport:
    """Box-cover count at depth J with its scale and dimension estimate."""

    depth: int
    d: int
    tau: Fraction
    count: CertifiedCount          # integer range for the cover size N
    raw_count: Enclosure           # the product before integer rounding
    side: Enclosure                # 2 * q_J**-(1+tau)
    prefix: QSequence              # q_1 .. q_J
    prec: int

    @property
    def regime(self) -> RegimeResult:
        """Growth-regime verdict of the prefix, computed each time it is read."""
        return validate_regime(self.prefix, self.tau, self.prec)

    def s_cost(self, s: Fraction) -> Enclosure:
        """N * side**s, the s-dimensional cost of the cover."""
        pw = self.side.pow_frac(Fraction(s), self.prec)
        count_range = Enclosure(Enclosure.exact_int(self.count.min).lo,
                                Enclosure.exact_int(self.count.max).hi)
        return count_range * pw

    def dim_estimate(self) -> Enclosure:
        """log N / (-log side) as a certified enclosure."""
        num = Enclosure(log2_int(self.count.min, self.prec).lo,
                        log2_int(self.count.max, self.prec).hi)
        den = -self.side.log2(self.prec)
        return num.div(den, self.prec)


def upper_cover_count(
    qs: QSequence,
    tau: Fraction,
    d: int = 1,
    depth: Optional[int] = None,
    prec: Optional[int] = None,
) -> CoverReport:
    """Cover of the depth-J intersection by boxes of side 2 q_J**-(1+tau).

    N = q_1**d * prod_{k=2..J} (4 q_{k-1}**-(1+tau) q_k + 2)**d: each box of
    one level meets at most that many boxes of the next level.  The count is
    computed whatever the growth regime and takes no logarithm.  The advisory
    regime check (one log2 per term of the prefix) runs only when
    ``CoverReport.regime`` is read, so an estimate never pays for it.
    """
    tau = Fraction(tau)
    p = _resolve_prec(prec)
    depth = len(qs) if depth is None else depth
    if not 1 <= depth <= len(qs):
        raise ValueError(f"depth must be in 1..{len(qs)}")
    prod = Enclosure.exact_int(qs.terms[0])
    for k in range(1, depth):
        shrink = dir_pow(qs.terms[k - 1], -(1 + tau), p)
        factor = shrink.scale_int(4 * qs.terms[k]).add_int(2)
        prod = prod * factor
    raw = prod
    for _ in range(d - 1):
        raw = raw * prod
    n_lo, _ = raw.floor_range()
    _, n_hi = raw.ceil_range()
    side = dir_pow(qs.terms[depth - 1], -(1 + tau), p).scale_int(2)
    return CoverReport(
        depth=depth, d=d, tau=tau,
        count=CertifiedCount(max(n_lo, 1), n_hi),
        raw_count=raw, side=side, prefix=QSequence(qs.terms[:depth]), prec=p,
    )


def upper_dim_estimate(
    qs: QSequence,
    tau: Fraction,
    d: int = 1,
    depth: Optional[int] = None,
    prec: Optional[int] = None,
) -> Enclosure:
    """log N / ((1+tau) log q_J) at depth J.

    Shares its denominator with the subdivision exponent, so the two
    estimators bracket each other directly; decreases toward
    d*(1-tau*alpha)/(tau+1) for the monotone families.  Uses the
    pre-rounding product as numerator, which the integer count brackets.
    """
    report = upper_cover_count(qs, tau, d, depth, prec)
    num = report.raw_count.log2(report.prec)
    depth = report.depth
    den = log2_int(qs.terms[depth - 1], report.prec).mul_frac(1 + Fraction(tau), report.prec)
    return num.div(den, report.prec)


@dataclass(frozen=True)
class SubdivisionCount:
    """Size and exponent of the depth-J nested subdivision."""

    depth: int
    d: int
    count: int                    # M, pessimistic (floors on lower bounds)
    branching_1d: tuple[int, ...]  # per-level 1-d child counts, level 1 = q_1
    s_hat: Enclosure              # log M / ((1+tau) log q_J)


def branching_factors(
    qs: QSequence,
    tau: Fraction,
    depth: Optional[int] = None,
    prec: Optional[int] = None,
) -> tuple[int, ...]:
    """Per-level 1-d child counts floor(q_k / q_{k-1}**(1+tau)), level 1 = q_1.

    Floors are taken on the certified lower bound, the pessimistic choice
    that every parent can honour.  A zero raises ``RegimeViolationError``.
    """
    tau = Fraction(tau)
    p = _resolve_prec(prec)
    depth = len(qs) if depth is None else depth
    out = [qs.terms[0]]
    for k in range(1, depth):
        ratio = dir_pow(qs.terms[k - 1], -(1 + tau), p).scale_int(qs.terms[k])
        b = ratio.lo.floor()
        if b < 1:
            raise RegimeViolationError(
                k + 1, f"floor(q_{k + 1} / q_{k}**(1+tau)) = 0, the subdivision has no children")
        out.append(b)
    return tuple(out)


def lower_cantor_count(
    qs: QSequence,
    tau: Fraction,
    d: int = 1,
    depth: Optional[int] = None,
    prec: Optional[int] = None,
) -> SubdivisionCount:
    """Node count M of the depth-J subdivision and its exponent s_hat.

    M = q_1**d * prod floor(q_k / q_{k-1}**(1+tau))**d and
    s_hat = log M / ((1+tau) log q_J).
    """
    tau = Fraction(tau)
    p = _resolve_prec(prec)
    depth = len(qs) if depth is None else depth
    if not 1 <= depth <= len(qs):
        raise ValueError(f"depth must be in 1..{len(qs)}")
    bs = branching_factors(qs, tau, depth, p)
    m = 1
    for b in bs:
        m *= b ** d
    num = log2_int(m, p)
    den = log2_int(qs.terms[depth - 1], p).mul_frac(1 + tau, p)
    s_hat = num.div(den, p)
    return SubdivisionCount(depth=depth, d=d, count=m, branching_1d=bs, s_hat=s_hat)
