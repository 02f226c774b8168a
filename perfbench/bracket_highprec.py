"""Workload ``bracket-highprec``: the analyze + dimension path at 1024 bits.

Seeded deep sequences (depth 8 to 10, no power relations between terms)
come from three families in a fixed rotation: power families with
fractional growth, seeded explicit families and contractive families.  For
each sequence the client issues the two ``analyze`` operations
(``exponent_stats``, then ``validate_regime``) and then one operation per
depth J (``upper_dim_estimate`` + ``lower_cantor_count``); the operation at
the last depth also asks for ``theoretical_dimension``.  The sequences'
operations interleave: sequence s issues its k-th operation at step s + k.

Oracle: mpmath at twice the working precision must lie inside every h,
alpha, upper and lower enclosure; branching factors and regime verdicts are
checked with exact integers; where the regime passes, the bracket at each
depth must contain d(1 - tau*alpha)/(tau + 1).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import mpmath

from common import Workload, enclosure_bits, iroot, require

TAU = Fraction(1, 2)
PREC = 1024
GROWTHS = (Fraction(13, 6), Fraction(9, 4), Fraction(7, 3), Fraction(12, 5), Fraction(5, 2))
POWER_Q1 = (10, 11, 12, 13, 14, 15, 17, 18, 19, 20)   # no power of two, square or cube


def explicit_terms(rng: random.Random, depth: int, idx: int) -> tuple[int, ...]:
    """Random odd terms whose bit lengths grow by a factor in [1.9, 2.4].

    The bit lengths follow the sequence index only (a cycle of growth
    factors), so every seed has the same mix of term sizes; the bits
    themselves are seeded."""
    bits = 4 + idx % 3
    terms = []
    for j in range(depth):
        terms.append(rng.getrandbits(bits - 1) | (1 << (bits - 1)) | 1)
        bits = int(bits * (1.9 + 0.1 * ((idx + j) % 6))) + 1
    return tuple(terms)


class Oracle:
    """mpmath values for one sequence at twice the working precision."""

    def __init__(self, terms, prec: int):
        self.ctx = mpmath.MPContext()
        self.ctx.prec = 2 * prec
        self.tol_bits = 2 * prec - 40
        self.tau1 = 1 + self.ctx.mpf(TAU.numerator) / TAU.denominator
        self.terms = terms
        self.logs = [self.ctx.log(q) for q in terms]
        self._cover_terms: dict[int, object] = {}

    def inside(self, enc, value, what: str) -> None:
        ctx = self.ctx
        lo = ctx.ldexp(enc.lo.mantissa, enc.lo.exponent)
        hi = ctx.ldexp(enc.hi.mantissa, enc.hi.exponent)
        tol = ctx.ldexp(max(abs(value), 1), -self.tol_bits)
        require(lo - tol <= value <= hi + tol,
                f"{what}: {mpmath.nstr(value, 20)} outside "
                f"[{mpmath.nstr(lo, 20)}, {mpmath.nstr(hi, 20)}]")

    def h(self, j: int):
        return self.logs[j + 1] / self.logs[j]

    def alpha(self, j: int):
        """(log q_1 + ... + log q_{j-1}) / log q_j for the 0-based index j >= 1."""
        return self.ctx.fsum(self.logs[:j]) / self.logs[j]

    def cover_term(self, k: int):
        """log(4 q_{k+1} q_k**-(1+tau) + 2) for the 0-based level k >= 1."""
        if k not in self._cover_terms:
            ctx = self.ctx
            shrink = ctx.exp(-self.tau1 * self.logs[k - 1])
            self._cover_terms[k] = ctx.log(4 * ctx.mpf(self.terms[k]) * shrink + 2)
        return self._cover_terms[k]

    def upper(self, depth: int, d: int):
        log_n = self.logs[0] + self.ctx.fsum(self.cover_term(k) for k in range(1, depth))
        return d * log_n / (self.tau1 * self.logs[depth - 1])

    def formula(self, depth: int, d: int):
        """d (1 - tau alpha_J) / (tau + 1), alpha_J at the given depth >= 2."""
        return d * (1 - (self.tau1 - 1) * self.alpha(depth - 1)) / self.tau1

    def lower(self, m: int, depth: int):
        """log M / ((1 + tau) log q_J) for a subdivision count M."""
        return self.ctx.log(m) / (self.tau1 * self.logs[depth - 1])

    def regime_passes(self, depth: int) -> bool:
        return all(self.h(j) > self.tau1 for j in range(depth - 1))


def ratio_cmp(q_prev: int, q: int, b) -> int:
    """Sign of q / q_prev**(1+tau) - b, decided with integers."""
    a, c = TAU.numerator, TAU.denominator
    lhs, rhs = q ** c, b ** c * q_prev ** (a + c)
    return (lhs > rhs) - (lhs < rhs)


def has_power_relation(terms) -> bool:
    """Any term a power of two, a square or a cube (exact-log shortcuts)."""
    return any(q & (q - 1) == 0 or iroot(q, 2) ** 2 == q or iroot(q, 3) ** 3 == q
               for q in terms)


class BracketHighprec(Workload):
    name = "bracket-highprec"

    def prepare(self, lib, seed: int, tiny: bool, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        seqs = lib.sequences
        prec = 128 if tiny else PREC
        n_seq = 5 if tiny else 200
        sequences = []
        for idx in range(n_seq):
            depth = (3 + idx % 2) if tiny else 8 + idx % 3
            family = idx % 5
            for attempt in itertools.count():
                # the growth, q1 and bit-length choices cycle with idx, so each
                # seed has the same mix of term sizes
                if family < 2:
                    # no (q1, growth) pair recurs within 60 sequences, so a
                    # run does not meet the same terms twice
                    k = 2 * (idx // 5) + family
                    q1 = POWER_Q1[(k + k // 5 + attempt) % len(POWER_Q1)]
                    spec = seqs.PowerSpec(q1, GROWTHS[k % len(GROWTHS)])
                elif family < 4:
                    spec = seqs.ExplicitSpec(explicit_terms(rng, depth, idx))
                else:
                    spec = seqs.ContractiveSpec(100 + 60 * (idx // 5 % 5) + rng.randrange(60), TAU)
                qs = seqs.generate(spec, depth)
                if not has_power_relation(qs.terms):
                    break
            sequences.append({"qs": qs, "d": 1 + idx % 2, "oracle": None, "stats": None})
        # Operation k of a sequence is exponent_stats (k = 0), validate_regime
        # (k = 1) or depth J = k - 1.  Sequence s starts at step s and issues
        # operation k at step s + k, so about ten sequences are in flight at
        # staggered depths and every stretch of a run has the same mix of
        # depths and families, wherever the run's time ends it.  The two
        # analyze calls are separate operations: together they would be the
        # costliest tenth of the operations, and p90 would fall on the edge
        # of that cluster.
        ops = sorted(((s, k) for s, entry in enumerate(sequences)
                      for k in range(len(entry["qs"]) + 2)),
                     key=lambda op: (op[0] + op[1], op[0]))
        window = sum(len(entry["qs"]) + 2 for entry in sequences[:1 if tiny else 6])
        return {"seed": seed, "prec": prec, "sequences": sequences, "ops": ops,
                "window": window}

    def run_op(self, lib, state, i):
        s, k = state["ops"][i % len(state["ops"])]
        entry = state["sequences"][s]
        qs, d, prec = entry["qs"], entry["d"], state["prec"]
        if k == 0:
            entry["stats"] = lib.sequences.exponent_stats(qs, prec)
            return entry["stats"]
        if k == 1:
            return lib.sequences.validate_regime(qs, TAU, prec)
        depth = k - 1
        upper = lib.dimension.upper_dim_estimate(qs, TAU, d, depth, prec)
        try:
            lower = lib.dimension.lower_cantor_count(qs, TAU, d, depth, prec)
        except lib.dimension.RegimeViolationError as exc:
            lower = exc
        theory = None
        if depth == len(qs):
            theory = lib.dimension.theoretical_dimension(
                TAU, entry["stats"].alpha_last, d, prec)
        return upper, lower, theory

    def check(self, lib, state, i, out) -> list[float]:
        s, k = state["ops"][i % len(state["ops"])]
        entry = state["sequences"][s]
        qs, d, prec = entry["qs"], entry["d"], state["prec"]
        terms = qs.terms
        if entry["oracle"] is None:
            entry["oracle"] = Oracle(terms, prec)
        orc = entry["oracle"]
        bits = []
        if k == 0:
            stats = out
            require(len(stats.h_list) == len(terms) - 1
                    and len(stats.alpha_list) == len(terms) - 1, "stats length")
            for j, h in enumerate(stats.h_list):
                orc.inside(h, orc.h(j), f"h_{j + 1}")
            for j, a in enumerate(stats.alpha_list, start=1):
                orc.inside(a, orc.alpha(j), f"alpha_{j + 1}")
            return [enclosure_bits(e, prec) for e in stats.h_list + stats.alpha_list]
        if k == 1:
            regime = out
            fail_at = next((j for j in range(1, len(terms)) if orc.h(j - 1) <= orc.tau1), None)
            if fail_at is None:
                require(regime.status.value == "pass", f"regime {regime.status.value}, expected pass")
            else:
                require(regime.status.value in ("fail", "indeterminate")
                        and regime.index == fail_at,
                        f"regime {regime.status.value} at {regime.index}, expected fail at {fail_at}")
            return bits

        depth = k - 1
        upper, lower, theory = out
        orc.inside(upper, orc.upper(depth, d), f"upper at J={depth}")
        bits.append(enclosure_bits(upper, prec))
        prefix = terms[:depth]
        if isinstance(lower, lib.dimension.RegimeViolationError):
            k = lower.level - 1
            require(1 <= k < depth and ratio_cmp(prefix[k - 1], prefix[k], 1) <= 0
                    and all(ratio_cmp(prefix[j - 1], prefix[j], 1) >= 0 for j in range(1, k)),
                    f"regime violation at level {lower.level} is not the first empty level")
        else:
            bs = lower.branching_1d
            require(len(bs) == depth and bs[0] == terms[0], "branching length or first level")
            slack = 1 + Fraction(1, 1 << (prec - 4))
            for j in range(1, depth):
                # the floor of a certified lower bound: at most 1 below the ratio,
                # or a relative 2**(4 - prec) once the ratio outgrows the precision
                require(bs[j] >= 1 and ratio_cmp(prefix[j - 1], prefix[j], bs[j]) >= 0
                        and ratio_cmp(prefix[j - 1], prefix[j], (bs[j] + 1) * slack) <= 0,
                        f"branching {bs[j]} at level {j + 1} is not a floor of the ratio")
            m = 1
            for b in bs:
                m *= b ** d
            require(lower.count == m, "subdivision count is not the product of branchings")
            orc.inside(lower.s_hat, orc.lower(m, depth), f"lower at J={depth}")
            bits.append(enclosure_bits(lower.s_hat, prec))
            if depth >= 2 and orc.regime_passes(depth):
                value = orc.formula(depth, d)
                ctx = orc.ctx
                tol = ctx.ldexp(1, -orc.tol_bits)
                lo = ctx.ldexp(lower.s_hat.lo.mantissa, lower.s_hat.lo.exponent)
                hi = ctx.ldexp(upper.hi.mantissa, upper.hi.exponent)
                require(lo - tol <= value <= hi + tol,
                        f"bracket at J={depth} misses d(1-tau*alpha)/(tau+1)")
        if theory is not None:
            enc = theory.as_enclosure(prec)
            orc.inside(enc, max(orc.formula(len(terms), d), 0), "theoretical dimension")
            bits.append(enclosure_bits(enc, prec))
        return bits
