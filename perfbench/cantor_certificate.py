"""Workload ``cantor-certificate``: sampled Holder certificates on built trees.

Set-up builds 32 seeded depth-4 subdivision trees (tau = 1, half with
d = 1 and half with d = 2, about 5e3 leaves per coordinate).  Each operation
asks one tree for ``CantorTree.holder_certificate`` over 24 balls with its
own seed, so the time goes into the rational tree walk.

Oracle: the benchmark enumerates every tree's leaves itself with exact
fractions.  For the certificate's worst ball and two extra seeded balls, the
brute-force counts of leaves inside and meeting the ball bound the true
measure.  The library's ``ball_measure`` enclosure must overlap that range.
The certified ratio must lie between the brute-force inside mass over
radius**s and, up to a relative 2**(16 - PREC), the meeting mass over
radius**s.

Certificate bits: where the brute-force inside and meeting counts of a ball
agree, its true measure is known exactly.  For such a ball of positive
measure the bits are taken from the library's own output:
-log2(max_ratio / true ratio - 1) for the worst ball (the true ratio from
mpmath at four times PREC), and the width of the ``ball_measure`` enclosure
for the extra balls.  Empty balls add none: their enclosure [0, 0] is exact
at any precision.  A certificate loosened by a lower precision, a shortened
tree walk or a wider enclosure lowers these bits or fails the oracle.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

import mpmath

from common import Workload, ceil_int, cert_bits, floor_int, require

TAU = Fraction(1)
DEPTH = 4
PREC = 128
N_TREES = 32


def tree_terms(rng: random.Random, t: int) -> tuple[int, ...]:
    """q_{k+1} = b q_k**2 + offset: branching b per level, never an exact multiple.

    q_1 and the branchings cycle with the tree index t (the branchings of a
    tree always multiply to 7 * 8 * 9), so every seed builds trees of the
    same sizes; the offsets are seeded."""
    terms = [9 + t % 3]
    for k in range(DEPTH - 1):
        q = terms[-1]
        terms.append((7 + (t + k) % 3) * q * q + rng.randrange(1, q))
    return tuple(terms)


def leaves_1d(terms, theta: Fraction) -> list[int]:
    """Sorted leaf residues of one coordinate, from the subdivision rule:
    level 1 keeps every residue; each node keeps the floor(q'/q**2) smallest
    residues whose arc lies inside its own arc (radius 1/q**2, exact)."""
    nodes = list(range(terms[0]))
    for k in range(1, len(terms)):
        q, qn = terms[k - 1], terms[k]
        r, rn = Fraction(1, q * q), Fraction(1, qn * qn)
        b = qn // (q * q)
        nxt = []
        for m in nodes:
            c = (m + theta) / q
            start = ceil_int((c - r + rn) * qn - theta)
            stop = floor_int((c + r - rn) * qn - theta)
            require(stop - start + 1 >= b, f"node {m} at level {k} has too few children")
            nxt.extend(range(start, start + b))
        nodes = nxt
    return nodes


def window_count(leaves: list[int], q: int, theta: Fraction, lo: Fraction, hi: Fraction) -> int:
    """Leaves with centre (m + theta)/q in [lo, hi] modulo 1."""
    if lo > hi:
        return 0
    total = 0
    for shift in (-1, 0, 1):
        m_lo = ceil_int((lo + shift) * q - theta)
        m_hi = floor_int((hi + shift) * q - theta)
        total += max(0, bisect_right(leaves, m_hi) - bisect_left(leaves, m_lo))
    return total


def brute_force(tree_oracle, center, radius: Fraction) -> tuple[Fraction, Fraction]:
    """(inside, meeting) leaf mass of the closed sup-norm ball."""
    q = tree_oracle["terms"][-1]
    r = Fraction(1, q * q)
    inside = meet = 1
    for leaves, theta, x in zip(tree_oracle["leaves"], tree_oracle["theta"], center):
        # a window longer than the circle would count some leaves twice
        meet *= min(len(leaves), window_count(leaves, q, theta, x - radius - r, x + radius + r))
        inside *= min(len(leaves), window_count(leaves, q, theta, x - radius + r, x + radius - r))
    mu = Fraction(1, tree_oracle["n_leaves"])
    return inside * mu, meet * mu


class CantorCertificate(Workload):
    name = "cantor-certificate"

    def prepare(self, lib, seed: int, tiny: bool, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        trees = []
        for t in range(N_TREES):
            d = 1 if t < N_TREES // 2 else 2
            terms = tree_terms(rng, t)
            theta = tuple(Fraction(rng.randrange(1, 97), 97) for _ in range(d))
            qs = lib.sequences.generate(lib.sequences.ExplicitSpec(terms), DEPTH)
            params = lib.level_sets.LevelParams(theta=theta, tau=TAU, d=d)
            trees.append(lib.cantor.build_tree(qs, params, DEPTH, PREC))
        op_seeds = [rng.getrandbits(32) for _ in range(4000)]
        return {"seed": seed, "trees": trees, "op_seeds": op_seeds,
                "samples": 3 if tiny else 24, "window": 3 if tiny else 48, "oracle": None}

    def oracle_setup(self, state):
        state["oracle"] = []
        for tree in state["trees"]:
            terms = tree.qs.terms
            theta = tree.params.theta
            leaves = [leaves_1d(terms, th) for th in theta]
            n = 1
            for lv in leaves:
                n *= len(lv)
            state["oracle"].append({"terms": terms, "theta": theta, "leaves": leaves,
                                    "n_leaves": n})

    def _op(self, state, i):
        tree = state["trees"][i % N_TREES]
        s = Fraction(3, 10) * tree.params.d
        return tree, s, state["op_seeds"][i % len(state["op_seeds"])]

    def run_op(self, lib, state, i):
        tree, s, seed = self._op(state, i)
        return tree.holder_certificate(s, state["samples"], seed)

    def check(self, lib, state, i, cert) -> list[float]:
        tree, s, seed = self._op(state, i)
        orc = state["oracle"][i % N_TREES]
        require(cert.s == s and cert.samples == state["samples"] and cert.seed == seed,
                "certificate does not echo its request")
        # the certified worst ratio bounds mass / radius**s from above, and
        # from below up to rounding at PREC bits
        ball = cert.worst_ball
        r_lo, r_hi = ball.radius.lo.as_fraction(), ball.radius.hi.as_fraction()
        inside, meet = brute_force(orc, ball.center, r_lo)
        a, c = s.numerator, s.denominator
        require(cert.max_ratio ** c * r_hi ** a >= inside ** c,
                f"max ratio {float(cert.max_ratio):.6g} below the brute-force mass "
                f"{float(inside):.6g} of its worst ball")
        slack = 1 + Fraction(1, 1 << (PREC - 16))
        require(cert.max_ratio ** c * r_lo ** a <= (meet * slack) ** c,
                f"max ratio {float(cert.max_ratio):.6g} above the brute-force meeting mass "
                f"{float(meet):.6g} of its worst ball")
        bits = []
        if 0 < inside == meet and r_lo == r_hi:
            bits.append(ratio_bits(cert.max_ratio, inside, r_lo, s))
        # two more balls, centred near seeded leaves, against ball_measure
        rng = random.Random(f"{state['seed']}:{i}:oracle")
        q = orc["terms"][-1]
        for _ in range(2):
            center = []
            for leaves, theta in zip(orc["leaves"], orc["theta"]):
                m = leaves[rng.randrange(len(leaves))]
                jitter = Fraction(rng.randrange(-(1 << 10), 1 << 10), 1 << 11) / (q * q)
                center.append(((m + theta) / q + jitter) % 1)
            e = rng.randint(3, max(3, 2 * q.bit_length() - 2))
            radius = Fraction((1 << 20) + rng.getrandbits(20), 1 << (20 + e))
            enc = tree.ball_measure(lib.cantor.Ball(
                tuple(center), lib.numerics.Enclosure.from_fraction(radius)))
            inside, meet = brute_force(orc, tuple(center), radius)
            lo, hi = enc.lo.as_fraction(), enc.hi.as_fraction()
            require(lo <= meet and inside <= hi,
                    f"ball_measure [{float(lo):.6g}, {float(hi):.6g}] misses the brute-force "
                    f"range [{float(inside):.6g}, {float(meet):.6g}]")
            if 0 < inside == meet:
                bits.append(cert_bits(lo, hi, PREC))
        return bits


def ratio_bits(max_ratio: Fraction, mass: Fraction, radius: Fraction, s: Fraction) -> float:
    """-log2(max_ratio / (mass / radius**s) - 1): how closely a certified upper
    bound follows the exact ratio; an exact match counts as PREC bits."""
    ctx = mpmath.MPContext()
    ctx.prec = 4 * PREC

    def mpf(x: Fraction):
        return ctx.mpf(x.numerator) / x.denominator

    excess = mpf(max_ratio) * ctx.power(mpf(radius), mpf(s)) / mpf(mass) - 1
    if excess <= 0:
        return float(PREC)
    return float(-ctx.log(excess, 2))
