"""Workload ``enumerate-d2``: exact 3-level intersections in dimension 2.

Each operation calls ``level_sets.prefix_intersection`` on a seeded explicit
sequence q1 < q2 < q3 (step exponents well above 1 + tau, tau = 1/2) with a
seeded rational shift.  The sequences are drawn so that every coordinate ends
with 1e4 to 3e4 components, spread evenly on a log scale; a wide spread of
operation costs keeps the median from jumping between the levels of a
machine whose speed drifts during a run.

Oracle: for a seeded sample of level-2 parent components, the number of
final components inside the parent is recounted with exact fractions from
the benchmark's own radius bracket; ``ArcList.validate`` runs on every
result, and the d-dimensional counts must be the products of the factors.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import isqrt

from common import Workload, ceil_int, cert_bits, floor_int, require

TAU = Fraction(1, 2)
D = 2
PREC = 128
SHIFT_DENOMINATORS = (997, 1009, 1013, 1019)
RADIUS_BITS = 192
GOLDEN = (5 ** 0.5 - 1) / 2


def draw_terms(rng: random.Random, lo: float, hi: float, u: float) -> tuple[int, int, int]:
    """q1 < q2 < q3 with about lo * (hi / lo)**u final components per
    coordinate, 0 <= u < 1."""
    q1 = rng.randint(12, 16)
    q2 = int(q1 ** rng.uniform(1.8, 2.1))
    # components ~ q1 * (2 q2 / q1**1.5) * (2 q3 / q2**1.5)
    c = lo * (hi / lo) ** u
    q3 = max(q2 * q2, int(c * (q2 * q1) ** 0.5 / 4))
    return q1, q2, q3


def radius_bracket(q: int) -> tuple[Fraction, Fraction]:
    """Exact rationals rl <= q**-(3/2) <= rh."""
    s = isqrt(q ** 3 << (2 * RADIUS_BITS))
    one = 1 << RADIUS_BITS
    return Fraction(one, s + 1), Fraction(one, s)


def arcs_meeting(lo: Fraction, hi: Fraction, q: int, theta: Fraction, r: Fraction):
    """Residues m whose arc ((m + theta)/q - r, (m + theta)/q + r) meets (lo, hi)."""
    return range(floor_int((lo - r) * q - theta) + 1, ceil_int((hi + r) * q - theta))


def parent(terms, theta: Fraction, m1: int, m2: int, radii) -> tuple[Fraction, Fraction]:
    """Level-1 arc m1 cut by level-2 arc m2, as exact (lo, hi); may be empty."""
    r1, r2 = radii[0], radii[1]
    c1 = (m1 + theta) / terms[0]
    c2 = (m2 + theta) / terms[1]
    return max(c1 - r1, c2 - r2), min(c1 + r1, c2 + r2)


def recount(terms, theta: Fraction, m1: int, m2: int, radii) -> tuple[Fraction, Fraction, int]:
    """Parent component (m1, m2) and the number of level-3 arcs meeting it."""
    lo, hi = parent(terms, theta, m1, m2, radii)
    if lo >= hi:
        return lo, hi, 0
    return lo, hi, len(arcs_meeting(lo, hi, terms[2], theta, radii[2]))


def pick_parent(rng: random.Random, terms, theta: Fraction, radii) -> tuple[int, int]:
    """A seeded level-2 parent component (m1, m2) under the wider radii."""
    m1 = rng.randrange(terms[0])
    c1 = (m1 + theta) / terms[0]
    cands = []
    for m2 in arcs_meeting(c1 - radii[0], c1 + radii[0], terms[1], theta, radii[1]):
        lo, hi = parent(terms, theta, m1, m2, radii)
        if lo < hi:
            cands.append(m2)
    return m1, cands[rng.randrange(len(cands))]


def _mid2(arc):
    return arc[0] + arc[1]


def arcs_in(arclist, lo: Fraction, hi: Fraction) -> int:
    """Library arcs whose midpoint lies in (lo, hi) modulo 1."""
    unit = 1 << (arclist.scale + 1)  # midpoints are compared as lo + hi
    arcs = arclist.arcs
    total = 0
    for shift in (-1, 0, 1):
        a, b = (lo + shift) * unit, (hi + shift) * unit
        total += max(0, bisect_left(arcs, ceil_int(b), key=_mid2)
                     - bisect_right(arcs, floor_int(a), key=_mid2))
    return total


class EnumerateD2(Workload):
    name = "enumerate-d2"

    def prepare(self, lib, seed: int, tiny: bool, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        sizes = (200, 400) if tiny else (1e4, 3e4)
        pool = 12 if tiny else 1200
        inputs = []
        # a golden-ratio sequence with a seeded offset: the first operations
        # of any run cover the size range alike on every seed
        offset = rng.random()
        for j in range(pool):
            terms = draw_terms(rng, *sizes, (offset + j * GOLDEN) % 1.0)
            den = rng.choice(SHIFT_DENOMINATORS)
            theta = tuple(Fraction(rng.randrange(1, den), den) for _ in range(D))
            qs = lib.sequences.generate(lib.sequences.ExplicitSpec(terms), len(terms))
            params = lib.level_sets.LevelParams(theta=theta, tau=TAU, d=D)
            inputs.append((qs, params))
        return {"seed": seed, "inputs": inputs, "window": 3 if tiny else 32,
                "radii": {}}

    def run_op(self, lib, state, i):
        qs, params = state["inputs"][i % len(state["inputs"])]
        return lib.level_sets.prefix_intersection(qs, params, prec=PREC)

    def check(self, lib, state, i, res) -> list[float]:
        qs, params = state["inputs"][i % len(state["inputs"])]
        terms = qs.terms
        require(len(res.sets) == D and len(res.levels) == len(terms), "wrong result shape")
        for s in res.sets:
            try:
                s.validate()
            except AssertionError as exc:
                raise AssertionError(f"ArcList.validate failed: {exc}") from exc
        final = res.levels[-1]
        for k, s in enumerate(res.sets):
            require((final.per_coord[k].min, final.per_coord[k].max)
                    == (len(s.inner.arcs), len(s.outer.arcs)), "per-coordinate count")
        for st in res.levels:
            lo = hi = 1
            for c in st.per_coord:
                lo, hi = lo * c.min, hi * c.max
            require((st.count.min, st.count.max) == (lo, hi), "d-dim count is not the product")

        radii = state["radii"]
        for q in terms:
            if q not in radii:
                radii[q] = radius_bracket(q)
        rng = random.Random(f"{state['seed']}:{i}:oracle")
        low = [radii[q][0] for q in terms]
        high = [radii[q][1] for q in terms]
        for _ in range(3):
            k = rng.randrange(D)
            theta = params.theta[k]
            m1, m2 = pick_parent(rng, terms, theta, high)
            _, _, n_lo = recount(terms, theta, m1, m2, low)
            lo, hi, n_hi = recount(terms, theta, m1, m2, high)
            outer = arcs_in(res.sets[k].outer, lo, hi)
            inner = arcs_in(res.sets[k].inner, lo, hi)
            require(n_lo <= outer and inner <= n_hi,
                    f"parent {m1} of coordinate {k}: library {inner}..{outer}, "
                    f"oracle {n_lo}..{n_hi}")
            if n_lo == n_hi:
                require(outer == n_lo, f"parent {m1} of coordinate {k}: "
                        f"library counts {outer}, oracle {n_lo}")

        bits = [cert_bits(Fraction(st.count.min), Fraction(st.count.max), PREC)
                for st in res.levels]
        for s in res.sets:
            bits.append(cert_bits(*s.length_bounds(), PREC))
        return bits
