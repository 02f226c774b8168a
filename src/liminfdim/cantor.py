"""Nested subdivision trees carrying a uniform unit-mass measure.

The tree refines the level sets: level 1 keeps every arc of the first level;
below that, each box keeps a fixed number of children per level (the
pessimistic branching count floor(q_k / q_{k-1}**(1+tau)) per coordinate),
always the admissible children with the smallest residues, so construction
is deterministic.  Mass is distributed uniformly: all boxes of one level
carry equal measure, and children split their parent's measure exactly.

Trees are lazy.  Within the node budget whole levels can be enumerated;
beyond it only the paths demanded by queries are materialised, which keeps
ball-measure queries cheap even when a level has 2**64 boxes.

Ball queries return certified enclosures: box/ball intersection tests use
outer arcs and the upper ball radius, containment tests use the lower ball
radius, so the reported range always brackets the true measure.  A query
walks the levels holding tree-index ranges: in index order a level's
residues rise, so the nodes meeting a window form one index range per copy
of the window and parent range, found from the ends of the parent range.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .dimension import RegimeViolationError, branching_factors
from .level_sets import (BudgetExceededError, LevelParams, _radius_grid, _scale_for,
                         residue_span)
from .numerics import (DEFAULT_PRECISION, ONE, UP, DirectedReal, Enclosure, _resolve_prec,
                       check_root_size, pow_exponent_below)
from .sequences import QSequence

DEFAULT_NODE_BUDGET = 10 ** 6
_QUERY_FANOUT_CAP = 1 << 14
_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Ball:
    """Closed sup-norm ball on the torus with a certified radius; the centre
    is held reduced mod 1."""

    center: tuple[Fraction, ...]
    radius: Enclosure

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", tuple(
            c if type(c) is Fraction and 0 <= c < 1 else Fraction(c) % 1 for c in self.center))
        if self.radius.lo.mantissa <= 0:
            raise ValueError("ball radius must be certainly positive")


@dataclass(frozen=True)
class HolderCertificate:
    """Worst observed mass-to-radius ratio over a sampled family of balls."""

    s: Fraction
    samples: int
    seed: int
    max_ratio: Fraction        # upper bound of the worst certified ratio
    worst_ball: Ball

    def max_ratio_float(self) -> Optional[float]:
        """max_ratio as a double, or None past the double range."""
        try:
            return float(self.max_ratio)
        except OverflowError:
            return None


def check_holder(s: Fraction, samples: int, d: int, prec: int) -> None:
    """A Holder certificate in dimension d needs 0 < s < d + 1, a sample, and
    powers r**s at prec bits whose roots stay under the cap: a sampled
    radius's mantissa has at most DEFAULT_PRECISION + 3 bits (r_min's
    enclosure), so r**s roots about s * (DEFAULT_PRECISION + 3) bits of it."""
    if not 0 < s < d + 1:
        raise ValueError(f"Holder exponent {s} out of range (0, {d + 1})")
    if samples < 1:
        raise ValueError("need at least one sample")
    check_root_size(Fraction(s).denominator, prec, math.ceil(s * (DEFAULT_PRECISION + 3)))


class CantorTree:
    """Finite-depth nested subdivision of the level-set intersection."""

    def __init__(
        self,
        qs: QSequence,
        params: LevelParams,
        depth: Optional[int] = None,
        prec: Optional[int] = None,
        node_budget: int = DEFAULT_NODE_BUDGET,
    ):
        self.prec = _resolve_prec(prec)
        self.depth = len(qs) if depth is None else depth
        if not 1 <= self.depth <= len(qs):
            raise ValueError(f"depth must be in 1..{len(qs)}")
        self.qs = qs
        self.params = params
        self.node_budget = node_budget
        self.branching_1d = branching_factors(qs, params.tau, self.depth, self.prec)

        # radii as exact integers on the level sets' grid of 2**scale points
        radii = [params.radius_enclosure(q, self.prec) for q in qs.terms[: self.depth]]
        self._scale = _scale_for(radii, self.prec)
        self._r_lo, self._r_hi = zip(*(_radius_grid(r, self._scale) for r in radii))

        # box separation >= 1/(2 q_k) per level, certified via the upper radius
        self._sep_lo: list[Fraction] = []
        for k in range(self.depth):
            q = qs.terms[k]
            sep = Fraction(1, q) - Fraction(2 * self._r_hi[k], 1 << self._scale)
            if sep < Fraction(1, 2 * q):
                raise RegimeViolationError(
                    k + 1, f"level radius too large for the 1/(2 q) separation at q={q}")
            self._sep_lo.append(sep)

        # cumulative node counts, per coordinate and of the product; every
        # level-k node carries measure 1 / self._counts[k - 1]
        self._count_1d = []
        total = 1
        for b in self.branching_1d:
            total *= b
            self._count_1d.append(total)
        self._counts = [c ** params.d for c in self._count_1d]

        # child_range_1d's window, affine in the parent residue m: a child n
        # is admissible iff its centre (n + theta) / q' lies within r_lo(q) -
        # r_hi(q') of the parent's centre (m + theta) / q.  Times q q'
        # theta.denominator 2**scale that is |n step - (m mult - offset)| <=
        # slack, with one (mult, offset, slack, step) per coordinate and level
        self._child_windows = []
        for theta in params.theta:
            tn, td = theta.numerator, theta.denominator
            windows = []
            for k in range(1, self.depth):
                q, q_next = qs.terms[k - 1], qs.terms[k]
                slack = (self._r_lo[k - 1] - self._r_hi[k]) * q * q_next * td
                windows.append((td * q_next << self._scale, tn * (q - q_next) << self._scale,
                                slack, td * q << self._scale))
            self._child_windows.append(windows)

        # nesting sanity on the leftmost path of each coordinate
        for i in range(params.d):
            m = 0
            for k in range(1, self.depth):
                start, avail = self.child_range_1d(i, k, m)
                if avail < self.branching_1d[k]:
                    raise RegimeViolationError(
                        k + 1, f"only {avail} admissible children, need {self.branching_1d[k]}")
                m = start

    # -- structure ---------------------------------------------------------

    def level_count_1d(self, level: int) -> int:
        """Number of level-k nodes of one coordinate factor."""
        return self._count_1d[level - 1]

    def level_count(self, level: int) -> int:
        return self._counts[level - 1]

    def node_measure(self, level: int) -> Fraction:
        """Measure of any level-k node; the measure is uniform per level.

        Children of a node sum exactly to the node's measure:
        branching ** d * measure(k+1) == measure(k) as exact rationals.
        """
        if level == 0:
            return Fraction(1)
        return Fraction(1, self._counts[level - 1])

    def center_1d(self, coord: int, level: int, m: int) -> Fraction:
        return (m + self.params.theta[coord]) / self.qs.terms[level - 1]

    def child_range_1d(self, coord: int, level: int, m: int) -> tuple[int, int]:
        """Start and size of the admissible child residue range under node m.

        Admissibility is certified containment: the child's outer arc must
        lie inside the parent's inner arc.  The range is the ceiling and the
        floor of two affine functions of m, from the constants built with
        the tree.
        """
        if not 1 <= level < self.depth:
            raise ValueError("children exist for levels 1..depth-1")
        mult, offset, slack, step = self._child_windows[coord][level - 1]
        x = m * mult - offset
        first = -((slack - x) // step)
        return first, max(0, (x + slack) // step - first + 1)

    def children_1d(self, coord: int, level: int, m: int) -> range:
        """The selected children: the `branching` smallest admissible residues."""
        start, avail = self.child_range_1d(coord, level, m)
        b = self.branching_1d[level]
        if avail < b:
            raise RegimeViolationError(
                level + 1, f"only {avail} admissible children under residue {m}, need {b}")
        return range(start, start + b)

    def nodes_1d(self, coord: int, level: int) -> list[int]:
        """All level-k residues of one coordinate factor, within the budget."""
        if self.level_count_1d(level) > self.node_budget:
            raise BudgetExceededError(level)
        nodes = list(range(self.qs.terms[0]))
        for k in range(1, level):
            nxt: list[int] = []
            for m in nodes:
                nxt.extend(self.children_1d(coord, k, m))
            nodes = nxt
        return nodes

    def min_separation(self, level: int) -> Fraction:
        """Certified lower bound on the gap between distinct level-k boxes."""
        return self._sep_lo[level - 1]

    # -- point and leaf sampling -------------------------------------------

    def sample_point(self, rng: random.Random, perturb: bool = True) -> tuple[Fraction, ...]:
        """A leaf centre, optionally perturbed but kept inside the leaf."""
        return self._place_point(self._draw_point(rng, perturb))

    def _draw_point(self, rng: random.Random,
                    perturb: bool) -> list[tuple[list[int], Optional[int]]]:
        """The random values of one point, per coordinate in this order: a
        level-1 residue, the index of the child taken at each deeper level,
        and a 24-bit offset when perturbed (None otherwise)."""
        draws = []
        for _ in self.params.theta:
            path = [rng.randrange(b) for b in self.branching_1d]
            draws.append((path, rng.getrandbits(24) if perturb else None))
        return draws

    def _place_point(self, draws: list[tuple[list[int], Optional[int]]]) -> tuple[Fraction, ...]:
        """The point of ``_draw_point``'s values: each coordinate walks its
        leaf path down from the level-1 residue, through ``child_range_1d``."""
        q = self.qs.terms[self.depth - 1]
        shift = 24 + self._scale
        point = []
        for i, (theta, (path, t)) in enumerate(zip(self.params.theta, draws)):
            m = path[0]
            for k in range(1, self.depth):
                m = self.child_range_1d(i, k, m)[0] + path[k]
            # the centre (m + theta) / q over q * theta.denominator * 2**(24 + scale)
            qd = q * theta.denominator
            num = (m * theta.denominator + theta.numerator) << shift
            if t is not None:
                # a dyadic offset t * r_lo with |t| <= 1/2 (t on a 2**-24 grid),
                # inside the certified leaf radius r_lo = _r_lo / 2**scale
                num += (t - (1 << 23)) * self._r_lo[self.depth - 1] * qd
            den = qd << shift
            point.append(Fraction(num % den, den))
        return tuple(point)

    # -- measure queries ----------------------------------------------------

    def _window_counts(self, coord: int, level_limit: int, center: Fraction,
                       rad_hi: Fraction, rad_lo: Fraction) -> list[tuple[int, int]]:
        """Per level: (number of tree arcs meeting the closed window
        [center - rad_hi, center + rad_hi], number certainly inside the open
        ball of radius >= rad_lo), walking only the subtrees that meet it.

        The walk holds tree-index ranges.  Node i of a level is child
        i mod b of node i // b of the level above, and in that order the
        residues rise, so the nodes with residues in one copy of a window's
        ``residue_span`` (the span shifted by -q, 0 or +q, for the window and
        its copies one circle to either side) are one index range among the
        children of each range above.  A node meets the window only if its
        parent does, so the meeting ranges of one level hold the candidates
        of the next.  Each end of a range is among the children of the end
        parent of the range above when they reach the span, and is otherwise
        found by bisecting the parents.  Every node whose first child residue
        is read costs one ``child_range_1d`` call, cached for the walk; reading
        it reads its ancestors' too, through the same cache.  The call is a
        floor and a ceiling of two affine functions of the parent residue,
        from per-(coordinate, level) constants built with the tree.  The walk
        stops after the first level where more than 2**14 nodes meet."""
        theta = self.params.theta[coord]
        branching = self.branching_1d
        # one denominator for the centre, the dyadic ball radii and the grid
        bits = max(self._scale, rad_hi.denominator.bit_length(), rad_lo.denominator.bit_length())
        den = center.denominator << bits
        c = center.numerator << bits
        ball_hi = rad_hi.numerator * (den // rad_hi.denominator)
        ball_lo = rad_lo.numerator * (den // rad_lo.denominator)
        grid = den >> self._scale
        # starts[k][p]: the first child residue of node p of the level above
        # level k; level 1 is the children of one root, residues 0..q_1 - 1
        starts: list[dict[int, int]] = [{0: 0}] + [{} for _ in range(1, level_limit)]

        def start(k: int, p: int) -> int:
            s = starts[k].get(p)
            if s is None:
                b = branching[k - 1]
                s = starts[k][p] = self.child_range_1d(coord, k, start(k - 1, p // b) + p % b)[0]
            return s

        def cut(k: int, parents: list[tuple[int, int]], span: tuple[int, int],
                q: int) -> list[tuple[int, int]]:
            # the nonempty index ranges of the children of each parent range
            # with residues in the span shifted by -q, 0 and +q.  The end
            # parents are read first because the ends mostly lie among
            # their children; one bisect over all the child indices
            # finds the same ends but reads inner parents as well: on seed
            # 1's first 300 cantor-certificate operations it doubles the
            # child_range_1d calls per ball and nearly doubles the walk time.
            b = branching[k]
            out = []
            for plo, phi in parents:
                lowest, highest = start(k, plo), start(k, phi) + b - 1
                for s in (-q, 0, q):
                    first, last = span[0] + s, span[1] + s
                    if highest < first or lowest > last:
                        continue
                    p, st = plo, lowest
                    if st + b - 1 < first:
                        # the first parent with a child at or past `first`
                        p = plo + 1 + bisect_left(range(plo + 1, phi + 1), True,
                                                  key=lambda p: start(k, p) + b - 1 >= first)
                        st = start(k, p)
                    lo = p * b + max(0, first - st)
                    p, st = phi, highest - b + 1
                    if st > last:
                        # the last parent with a child at or before `last`
                        p = plo - 1 + bisect_left(range(plo, phi), True,
                                                  key=lambda p: start(k, p) > last)
                        st = start(k, p)
                    hi = p * b + min(b - 1, last - st)
                    if lo <= hi:
                        out.append((lo, hi))
            return out

        counts: list[tuple[int, int]] = []
        meet = [(0, 0)]  # the root
        for k in range(level_limit):
            q = self.qs.terms[k]
            b = branching[k]
            r_hi = self._r_hi[k] * grid
            # arcs with outer arc inside the closed ball: centre within
            # rad_lo - r_hi (an inverted window yields no ranges)
            inside = cut(k, meet, residue_span(
                c - ball_lo + r_hi, c + ball_lo - r_hi, den, q, theta), q)
            # arcs meeting the window: centre within rad_hi + r_hi (closed).
            # A meeting window as long as the circle would put a residue in
            # two of its copies; then every child of the ranges above meets
            # it, and once
            if 2 * (ball_hi + r_hi) >= den:
                meet = [(plo * b, phi * b + b - 1) for plo, phi in meet]
            else:
                meet = cut(k, meet, residue_span(
                    c - ball_hi - r_hi, c + ball_hi + r_hi, den, q, theta), q)
            n_meet = sum(hi - lo + 1 for lo, hi in meet)
            counts.append((n_meet, sum(hi - lo + 1 for lo, hi in inside)))
            if n_meet > _QUERY_FANOUT_CAP:
                break
            if not n_meet:
                counts.extend([(0, 0)] * (level_limit - k - 1))
                break
        return counts

    def ball_measure(self, ball: Ball) -> Enclosure:
        """Certified enclosure of the tree measure of a closed ball.

        Per level, the mass inside the ball is at most (boxes meeting the
        ball) * level measure and at least (boxes inside the ball) * level
        measure; the final answer intersects the bounds across levels.  The
        bounds are held as integer pairs (boxes, level node count) and
        compared by cross-multiplying.  The upper end is at most the total
        mass 1: it starts there, and rounding a smaller value up at ``prec``
        bits cannot pass 1.
        """
        if len(ball.center) != self.params.d:
            raise ValueError("ball dimension mismatch")
        rad_lo = ball.radius.lo.as_fraction()
        rad_hi = ball.radius.hi.as_fraction()
        if rad_lo >= _HALF:
            return Enclosure.exact_int(1)

        per_coord = [self._window_counts(i, self.depth, ball.center[i], rad_hi, rad_lo)
                     for i in range(self.params.d)]
        hi_num, hi_den = 1, 1
        lo_num, lo_den = 0, 1
        levels = min(len(c) for c in per_coord)
        for k in range(levels):
            meet = 1
            inside = 1
            for counts in per_coord:
                meet *= counts[k][0]
                inside *= counts[k][1]
            n = self._counts[k]
            if meet * hi_den < hi_num * n:
                hi_num, hi_den = meet, n
            if inside * lo_den > lo_num * n:
                lo_num, lo_den = inside, n
        if lo_num * hi_den > hi_num * lo_den:
            lo_num, lo_den = hi_num, hi_den
        return Enclosure.from_endpoints(Fraction(lo_num, lo_den), Fraction(hi_num, hi_den),
                                        self.prec)

    def _measure_bound(self, radius_hi: DirectedReal) -> DirectedReal:
        """An upper bound on ``ball_measure(ball).hi`` for every ball whose
        radius enclosure has upper end ``radius_hi``, whatever its centre,
        in O(depth) integer operations: the counting step of the mass
        distribution principle (Falconer, *Fractal Geometry*, 4.2).

        With r = radius_hi and r_k the level-k grid radius, the walk counts
        the level-k nodes of a coordinate whose centre lies in the closed
        window of half-width r + r_k.  Those centres (m + theta) / q_k are
        distinct mod 1 (the arcs of one level are disjoint), and a window
        shorter than the circle holds at most c_k = floor(2 (r + r_k) q_k) + 1
        residues m: its ``residue_span`` is no longer, and its copies one
        circle away share no residue.  Only children of meeting nodes count,
        so the count is also at most M_{k-1} * b_k with M_0 = 1; a window of
        at least one circle counts exactly that.  So every coordinate
        counts at most M_k = min(c_k, M_{k-1} * b_k) at level k, and the
        walk's upper end at a level it reaches is at most M_k**d / N_k.  A
        walk stops after the first level where more than
        ``_QUERY_FANOUT_CAP`` nodes meet, so it surely reaches every level
        up to the first with M_k past the cap: the minimum runs over those.
        Level 1 gives M_1**d <= N_1, so the bound is at most 1, and it is 1
        when r >= 1/2, where ``ball_measure`` returns exactly 1.

        ``ball_measure`` rounds its upper end B' <= B up at ``prec`` bits,
        to a multiple of 2**-t' with t' = max(prec + 2 - D', 1), where D' is
        the bit length of its numerator less that of its denominator.  As
        2**(D' - 1) < B' <= B < 2**(D + 1), for D the same difference of
        the bound B, t' >= t = max(prec + 1 - D, 1).  B rounded up to a
        multiple of 2**-t is then a multiple of 2**-t' at least B', so at
        least the rounded B' (or B' itself, when that is dyadic).
        """
        m, e = radius_hi.mantissa, radius_hi.exponent
        shift = max(self._scale, -e)
        r = m << (e + shift)
        meet = 1
        num, den = 1, 1
        for k, b in enumerate(self.branching_1d):
            meet *= b
            w = 2 * (r + (self._r_hi[k] << (shift - self._scale)))
            if w < 1 << shift:
                meet = min(meet, (w * self.qs.terms[k] >> shift) + 1)
            mass = meet ** self.params.d
            if mass * den < num * self._counts[k]:
                num, den = mass, self._counts[k]
            if meet > _QUERY_FANOUT_CAP:
                break
        t = max(self.prec + 1 - (num.bit_length() - den.bit_length()), 1)
        return DirectedReal(-((-num << t) // den), -t, UP)

    # -- certificates --------------------------------------------------------

    def holder_certificate(self, s: Fraction, samples: int, seed: int) -> HolderCertificate:
        """Sample balls at tree points, log-uniform radii, and report the
        largest certified value of measure / radius**s.

        Evidence, not proof: the principle quantifies over all balls, and
        the analytic lower bound lives in the dimension module.

        The ratio of a ball is mu.hi / (radius**s).lo, and ``worst_ball`` is
        the first ball with the largest.  A ball that cannot beat the best
        so far is skipped unmeasured, or measured without its power: with
        2**k below (radius**s).lo (``pow_exponent_below``) and mu.hi at most
        the bound B from the radius alone (``_measure_bound``), its ratio is
        below mu.hi / 2**k <= B / 2**k, so when either of these is at most
        the best, the ratio is strictly below it and the result is the same.
        Every sample draws the random values of its point (``_draw_point``)
        and its radius, so the random stream does not depend on the skips;
        the values become a centre (``_place_point``) only for a ball that is
        walked.  Ratios are compared as shifted integers; ``max_ratio`` is one
        ``Fraction``, built at the end.
        """
        s = Fraction(s)
        check_holder(s, samples, self.params.d, self.prec)
        rng = random.Random(seed)
        r_min = self.min_separation(self.depth) / 4
        # a radius clamped to r_min, which is not dyadic in general, is its
        # enclosure at the default precision; every other radius is dyadic
        r_min_enc = Enclosure.from_fraction(r_min)
        # bit lengths stand in for log2(r_min)
        log_lo = r_min.numerator.bit_length() - r_min.denominator.bit_length() - 1
        best_mu = best_pow = worst = None
        for _ in range(samples):
            draws = self._draw_point(rng, perturb=rng.random() < 0.5)
            e = math.floor(rng.uniform(log_lo, 0.0))
            mantissa = (1 << 30) + rng.getrandbits(30)
            # the radius mantissa * 2**(e - 30), in [2**e, 2**(e + 1)), clamped
            # to [r_min, 1]; r_min < 1
            if e >= 0:
                radius = ONE
            elif mantissa * r_min.denominator <= r_min.numerator << (30 - e):
                radius = r_min_enc
            else:
                radius = Enclosure.exact_dyadic(mantissa, e - 30)
            if worst is not None:
                # the ratio is below mu.hi / below <= bound / below
                below = DirectedReal(1, pow_exponent_below(radius.lo, s))
                if not _exceeds(self._measure_bound(radius.hi), below, best_mu, best_pow):
                    continue
            ball = Ball(self._place_point(draws), radius)
            mu = self.ball_measure(ball).hi
            if worst is not None and not _exceeds(mu, below, best_mu, best_pow):
                continue
            pow_lo = radius.pow_frac(s, self.prec).lo
            if worst is None or _exceeds(mu, pow_lo, best_mu, best_pow):
                best_mu, best_pow, worst = mu, pow_lo, ball
        assert worst is not None
        return HolderCertificate(s=s, samples=samples, seed=seed,
                                 max_ratio=best_mu.as_fraction() / best_pow.as_fraction(),
                                 worst_ball=worst)


def _exceeds(a: DirectedReal, b: DirectedReal, c: DirectedReal, d: DirectedReal) -> bool:
    """a / b > c / d for dyadics a, c >= 0 and b, d > 0, on shifted integers."""
    x, ex = a.mantissa * d.mantissa, a.exponent + d.exponent
    y, ey = c.mantissa * b.mantissa, c.exponent + b.exponent
    e = min(ex, ey)
    return x << (ex - e) > y << (ey - e)


def build_tree(
    qs: QSequence,
    params: LevelParams,
    depth: Optional[int] = None,
    prec: Optional[int] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CantorTree:
    """Construct the subdivision tree (see ``CantorTree``)."""
    return CantorTree(qs, params, depth, prec, node_budget)
