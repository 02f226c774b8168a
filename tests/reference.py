"""Test references: plain functions, and one subclass, that only the tests call.

Each is an oracle or a fake for the package's code, written from its
definition: the paper's counting fact for ``residue_span``, exact
membership of a point in an arc list, a cover or an enclosure, a cover
built by hand on a grid too fine for ``hyperbolic_cover``, a node's
1-d arc in a Cantor tree, a tree's child range as one ``residue_span``
call, a random leaf path walked down a tree, level parameters with a radius
of the test's choosing in place of q**-(1+tau) and a radius function that
ignores q, the log2 kernel as it was when it squared both ends of its
working interval, and the depth series as a generator that steps a fresh
walk of its own, which no call shares.
"""

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor
from typing import Iterator, Optional, Union

from liminfdim.cantor import CantorTree
from liminfdim.dimension import CoverReport
from liminfdim.level_sets import ArcList, LevelParams, residue_span
from liminfdim.multiplicative import SquareCover
from liminfdim.numerics import DOWN, UP, DirectedReal, Enclosure, _resolve_prec
from liminfdim.sequences import QSequence


def count_shifted_rationals(a: Fraction, b: Fraction, theta: Fraction, q: int) -> int:
    """Exact number of p in {0,...,q-1} with (p + theta)/q in the open (a, b).

    The paper's counting fact: always within [(b-a)q - 2, (b-a)q + 2] of
    the interval's scaled length.
    """
    a, b, theta = Fraction(a), Fraction(b), Fraction(theta)
    if not 0 <= a < b <= 1:
        raise ValueError("need 0 <= a < b <= 1")
    if q < 1:
        raise ValueError("q must be a positive integer")
    # the window is open: a centre (p + theta)/q other than a or b is at
    # least 1/den away from both, so the closed window one 1/den in is the same
    den = a.denominator * b.denominator * q * theta.denominator
    first, last = residue_span(int(a * den) + 1, int(b * den) - 1, den, q, theta)
    return max(0, min(last, q - 1) - max(first, 0) + 1)


RadiusFn = Callable[[int, Optional[int]], Enclosure]


@dataclass(frozen=True)
class RadiusParams(LevelParams):
    """``LevelParams`` whose level radius is ``radius(q, prec)`` in place of
    q**-(1+tau): a constant, one that covers the torus, one of exactly
    1/(2q), a wide enclosure or one that straddles 1/(2q)."""

    radius: RadiusFn = field(kw_only=True)

    def radius_enclosure(self, q: int, prec: Optional[int] = None) -> Enclosure:
        return self.radius(q, prec)


def constant_radius(value: Fraction) -> RadiusFn:
    """Radius function ignoring q; value must be dyadic to stay exact."""
    value = Fraction(value)

    def fn(q: int, prec: Optional[int]) -> Enclosure:
        return Enclosure.from_fraction(value, prec)

    return fn


def arc_contains(arcs: ArcList, x: Fraction) -> bool:
    """Exact membership of a rational point (taken mod 1) in an arc list."""
    if arcs.full:
        return True
    x = Fraction(x) % 1
    num, den = x.numerator, x.denominator
    scaled = num << arcs.scale  # compare against endpoint * den
    for lo, hi in arcs.arcs:
        if lo * den < scaled < hi * den:
            return True
        if hi > arcs.size and lo * den < scaled + (den << arcs.scale) < hi * den:
            return True
    return False


def enclosure_contains(enc: Enclosure, x: Union[Fraction, int]) -> bool:
    """lo <= x <= hi, exactly."""
    return enc.lo.as_fraction() <= Fraction(x) <= enc.hi.as_fraction()


def bits_of(enc: Enclosure) -> tuple:
    """The two ends of an enclosure, direction tags included, to compare
    enclosures bit for bit."""
    return tuple((d.mantissa, d.exponent, d.direction) for d in (enc.lo, enc.hi))


def covers(cover: SquareCover, px: Fraction, py: Fraction) -> bool:
    """Whether some closed square of the cover holds the point (px, py)."""
    # integer corners: x <= p <= x + side iff x <= floor(p) and ceil(p) <= x + side
    px, py = px * (1 << cover.big_k), py * (1 << cover.big_k)
    fx, cx, fy, cy = floor(px), ceil(px), floor(py), ceil(py)
    return any(x <= fx and cx <= x + side and y <= fy and cy <= y + side
               for x, y, side in cover.squares)



def wide_cover(big_k: int) -> SquareCover:
    """A hand-built cover at grid 2**-big_k, far too fine to build by
    hyperbolic_cover: four columns, one a lone square off its side's grid,
    and the corner."""
    one = 1 << big_k
    return SquareCover(big_k, ((0, 2, 5, 6), (1, 4, 1, 2), (3, 16, 2, 80),
                               (big_k - 2, one >> 1, 1, one >> 1)), one >> 7)


def arc_1d(tree: CantorTree, coord: int, level: int,
           m: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(inner_lo, inner_hi, outer_lo, outer_hi) of a node's 1-d arc, unrolled."""
    c = tree.center_1d(coord, level, m)
    r_lo = Fraction(tree._r_lo[level - 1], 1 << tree._scale)
    r_hi = Fraction(tree._r_hi[level - 1], 1 << tree._scale)
    return (c - r_lo, c + r_lo, c - r_hi, c + r_hi)


def residue_span_child_range(tree: CantorTree, coord: int, level: int,
                             m: int) -> tuple[int, int]:
    """``CantorTree.child_range_1d`` as one ``residue_span`` call: the
    children whose centres lie in the parent's inner arc less the child's
    outer radius, over the denominator q * theta.denominator * 2**scale."""
    theta = tree.params.theta[coord]
    qd = tree.qs.terms[level - 1] * theta.denominator
    c = (m * theta.denominator + theta.numerator) << tree._scale
    slack = (tree._r_lo[level - 1] - tree._r_hi[level]) * qd
    first, last = residue_span(c - slack, c + slack, qd << tree._scale,
                               tree.qs.terms[level], theta)
    return first, max(0, last - first + 1)


def sample_leaf_path(tree: CantorTree, coord: int, rng: random.Random) -> list[int]:
    """The residues of a random leaf's path, level 1 first: a uniform
    level-1 residue, then at each level a uniform child of the one above.
    It draws what ``CantorTree.sample_point`` draws for one coordinate,
    before the perturbation, and in the same order."""
    path = [rng.randrange(tree.qs.terms[0])]
    for k in range(1, tree.depth):
        start, _ = tree.child_range_1d(coord, k, path[-1])
        path.append(start + rng.randrange(tree.branching_1d[k]))
    return path


def reference_log2_bracket(n: int, prec: int) -> Enclosure:
    """``numerics._log2_bracket`` with both ends of its working interval:
    ``lo`` squared and halved rounding down beside ``hi``, a halving loop
    that runs while ``hi`` passes 2, and a final check that the interval
    stayed in [1/2, 4] before the bracket is read off ``acc``."""
    if n < 1:
        raise ValueError("log2 of a nonpositive integer")
    if n & (n - 1) == 0:
        return Enclosure.exact_int(n.bit_length() - 1)
    steps = prec + 3
    g = steps + 10
    e0 = n.bit_length() - 1
    lo, rem = divmod(n << g, 1 << e0)
    hi = lo + (1 if rem else 0)
    acc = 0
    unit2 = 2 << g
    for _ in range(steps):
        lo = (lo * lo) >> g
        hi = ((hi * hi) + (1 << g) - 1) >> g
        acc <<= 1
        while hi > unit2:
            lo >>= 1
            hi = (hi + 1) >> 1
            acc += 1
    if not (1 << (g - 1) <= lo and hi <= (4 << g)):
        raise ArithmeticError("log2 working interval escaped its window")
    return Enclosure(DirectedReal((e0 << steps) + acc - 1, -steps, DOWN),
                     DirectedReal((e0 << steps) + acc + 1, -steps, UP))


def reference_depth_series(qs: QSequence, tau: Fraction, d: int = 1,
                           prec: Optional[int] = None) -> Iterator[CoverReport]:
    """The records of depths 1..len(qs) in one walk: each level factor
    q_k**-(1+tau) is taken once and feeds both the cover count
    N = q_1**d * prod_{k=2..J} (4 q_{k-1}**-(1+tau) q_k + 2)**d, computed
    whatever the growth regime, and the branching floor(q_k / q_{k-1}**(1+tau))
    on the certified lower bound, which stops at the first empty level."""
    tau = Fraction(tau)
    p = _resolve_prec(prec)
    record, branching = None, (qs.terms[0],)
    for j, q in enumerate(qs.terms, start=1):
        if record is not None and isinstance(branching, tuple):
            b = record.shrink.scale_int(q).lo.floor()
            branching = branching + (b,) if b >= 1 else j
        record = CoverReport(depth=j, d=d, tau=tau, branching=branching, q=q, prec=p,
                             parent=record)
        yield record
