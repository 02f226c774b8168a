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

Both are products over the levels 1..J, so one walk builds the records of
all depths, each extending the one before it.  ``depth_series`` and the
per-depth calls all read the process's one walk per (sequence, tau, d,
precision), kept while it is among the ``_WALK_CACHE_SIZE`` most recently
read and extended only as deep as a call has asked.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Union

from .level_sets import CertifiedCount
from .numerics import Enclosure, _resolve_prec, dir_pow, log2_int
from .sequences import QSequence


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
        if alpha.lo.mantissa < 0:
            raise ValueError("alpha must be nonnegative")
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
    """Depth J of both estimators, one record of ``depth_series``; the cover and
    estimates are computed on first read, sharing the parent's product and log2 q_J."""

    depth: int
    d: int
    tau: Fraction
    branching: Union[tuple[int, ...], int]  # or the first empty level
    q: int                         # q_J
    prec: int
    parent: Optional[CoverReport] = field(default=None, repr=False, compare=False)  # depth J-1

    @cached_property
    def _product(self) -> Enclosure:  # q_1 * prod_{k=2..J} (4 q_{k-1}**-(1+tau) q_k + 2)
        if self.parent is None:
            return Enclosure.exact_int(self.q)
        factor = self.parent.shrink.scale_int(4 * self.q).add_int(2)
        return self.parent._product * factor

    def _lineage(self) -> list[CoverReport]:
        """The records of depths 1..J, oldest first."""
        lineage = [self]
        while lineage[-1].parent is not None:
            lineage.append(lineage[-1].parent)
        return lineage[::-1]

    @cached_property
    def raw_count(self) -> Enclosure:
        """The cover size N before integer rounding, the product to the power d."""
        for record in self._lineage():  # oldest first, so no product recurses deeply
            prod = record._product
        raw = prod
        for _ in range(self.d - 1):
            raw = raw * prod
        return raw

    @cached_property
    def count(self) -> CertifiedCount:
        return CertifiedCount(max(self.raw_count.lo.floor(), 1), self.raw_count.hi.ceil())

    @cached_property
    def shrink(self) -> Enclosure:
        """q_J**-(1+tau): half the side, and the factor of level J+1."""
        return dir_pow(self.q, -(1 + self.tau), self.prec)

    @property
    def side(self) -> Enclosure:
        return self.shrink.scale_int(2)

    @property
    def branching_1d(self) -> tuple[int, ...]:
        if isinstance(self.branching, int):  # a fresh error per read: no context leaks
            j = self.branching
            raise RegimeViolationError(
                j, f"floor(q_{j} / q_{j - 1}**(1+tau)) = 0, the subdivision has no children")
        return self.branching

    @cached_property
    def _log_scale(self) -> Enclosure:  # (1+tau) log2 q_J
        return log2_int(self.q, self.prec).mul_frac(1 + self.tau, self.prec)

    @cached_property
    def upper(self) -> Enclosure:
        return self.raw_count.log2(self.prec).div(self._log_scale, self.prec)

    @cached_property
    def lower(self) -> SubdivisionCount:
        bs = self.branching_1d
        m = math.prod(b ** self.d for b in bs)
        s_hat = log2_int(m, self.prec).div(self._log_scale, self.prec)
        return SubdivisionCount(depth=self.depth, d=self.d, count=m, branching_1d=bs, s_hat=s_hat)

    def dim_estimate(self) -> Enclosure:
        """log N / (-log side) as a certified enclosure."""
        num = Enclosure(log2_int(self.count.min, self.prec).lo,
                        log2_int(self.count.max, self.prec).hi)
        den = -self.side.log2(self.prec)
        return num.div(den, self.prec)


# The records of a walk read so far, kept for the ``_WALK_CACHE_SIZE`` keys
# read most recently; ``typed``, as 2 == 2.0 but their calls differ.  A caller
# that steps a few sequences' depths side by side comes back to a walk after
# a dozen others (bracket-highprec has about ten in flight).  At 1024 bits a
# walk of ten depths whose estimates have all been read holds 35-95 KB, so a
# full cache at most about 1.5 MB.
_WALK_CACHE_SIZE = 16
_walk_lock = threading.Lock()  # one thread at a time extends a walk


@lru_cache(maxsize=_WALK_CACHE_SIZE, typed=True)
def _walk(qs, tau, d, prec) -> list[CoverReport]:
    """The records of (qs, tau, d, prec) read so far, depth 1 first."""
    return []


def _records(qs, tau, d, depth, prec) -> list[CoverReport]:
    """The records of depths 1..J, J = len(qs) by default, of the walk of
    (qs, tau, d, prec) that every call shares, extended one record per depth
    up to J and never past it, so a step that raises adds nothing.  A step
    takes the level factor q_{k-1}**-(1+tau) once, for both the cover count
    N = q_1**d * prod_{k=2..J} (4 q_{k-1}**-(1+tau) q_k + 2)**d, computed
    whatever the growth regime, and the branching floor(q_k /
    q_{k-1}**(1+tau)) on the certified lower bound, which stops at the first
    empty level."""
    depth = len(qs) if depth is None else depth
    if not 1 <= depth <= len(qs):
        raise ValueError(f"depth must be in 1..{len(qs)}")
    tau, p = Fraction(tau), _resolve_prec(prec)
    if tau <= 0:
        raise ValueError("tau must be positive")
    if not isinstance(d, int):
        raise ValueError(f"dimension must be an integer, got {d!r}")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    with _walk_lock:
        records = _walk(qs, tau, d, p)
        for q in qs.terms[len(records):depth]:
            parent = records[-1] if records else None
            branching = (q,) if parent is None else parent.branching
            if parent is not None and isinstance(branching, tuple):
                b = parent.shrink.scale_int(q).lo.floor()
                branching = branching + (b,) if b >= 1 else len(records) + 1
            records.append(CoverReport(depth=len(records) + 1, d=d, tau=tau,
                                       branching=branching, q=q, prec=p, parent=parent))
        return records[:depth]


def depth_series(qs: QSequence, tau: Fraction, d: int = 1,
                 prec: Optional[int] = None) -> list[CoverReport]:
    """The records of depths 1..len(qs), a copy of the walk that the
    per-depth calls share (``_records``)."""
    return _records(qs, tau, d, None, prec)


def upper_cover_count(qs: QSequence, tau: Fraction, d: int = 1, depth: Optional[int] = None,
                      prec: Optional[int] = None) -> CoverReport:
    """Cover of the depth-J intersection by boxes of side 2 q_J**-(1+tau).

    The record of ``depth_series`` at depth J, from the walk the per-depth
    calls share (``_records``).  Takes no logarithm.
    """
    return _records(qs, tau, d, depth, prec)[-1]


def upper_dim_estimate(qs: QSequence, tau: Fraction, d: int = 1, depth: Optional[int] = None,
                       prec: Optional[int] = None) -> Enclosure:
    """log N / ((1+tau) log q_J) at depth J, the ``upper`` of its record in
    the walk the per-depth calls share, so a call at a depth already read
    computes nothing.

    Shares its denominator with the subdivision exponent, so the two
    estimators bracket each other directly; decreases toward
    d*(1-tau*alpha)/(tau+1) for the monotone families.  Uses the
    pre-rounding product as numerator, which the integer count brackets.
    """
    return _records(qs, tau, d, depth, prec)[-1].upper


@dataclass(frozen=True)
class SubdivisionCount:
    """Size and exponent of the depth-J nested subdivision."""

    depth: int
    d: int
    count: int                    # M, pessimistic (floors on lower bounds)
    branching_1d: tuple[int, ...]  # per-level 1-d child counts, level 1 = q_1
    s_hat: Enclosure              # log M / ((1+tau) log q_J)


def branching_factors(qs: QSequence, tau: Fraction, depth: Optional[int] = None,
                      prec: Optional[int] = None) -> tuple[int, ...]:
    """Per-level 1-d child counts floor(q_k / q_{k-1}**(1+tau)), level 1 = q_1.

    The ``branching_1d`` of the depth-J record of the walk the per-depth
    calls share, with d = 1; a zero raises ``RegimeViolationError``, a new
    one on each call.  Takes no logarithm.
    """
    return _records(qs, tau, 1, depth, prec)[-1].branching_1d


def lower_cantor_count(qs: QSequence, tau: Fraction, d: int = 1, depth: Optional[int] = None,
                       prec: Optional[int] = None) -> SubdivisionCount:
    """Node count M = q_1**d * prod floor(q_k / q_{k-1}**(1+tau))**d of the
    depth-J subdivision and s_hat = log M / ((1+tau) log q_J), the ``lower``
    of its record in the walk the per-depth calls share, which has its log2
    q_J when ``upper_dim_estimate`` has read that depth; reads no power of q_J.
    """
    return _records(qs, tau, d, depth, prec)[-1].lower
