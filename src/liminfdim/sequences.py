"""Integer sequence families and their growth-exponent statistics.

A ``QSequence`` is a finite strictly increasing prefix q_1 < ... < q_J of
integers >= 2.  The two statistics that drive everything downstream are the
step exponents log q_{j+1} / log q_j and the cumulative exponents
(log q_1 + ... + log q_{j-1}) / log q_j; both are reported as certified
enclosures.  True asymptotic exponents are liminfs and cannot be read off a
finite prefix, so the stats carry the full lists plus the running minimum
and the final cumulative entry as honest finite-depth estimators (they
converge for the monotone built-in families).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import ceil
from typing import Iterable, Optional

from .numerics import Enclosure, _iroot, check_root_size, log_ratio


class GenerationError(ValueError):
    """A family's defining inequality cannot be met at some index."""

    def __init__(self, index: int, message: str):
        super().__init__(f"term {index}: {message}")
        self.index = index


@dataclass(frozen=True)
class QSequence:
    terms: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("empty sequence")
        prev = 1
        for j, q in enumerate(self.terms, start=1):
            if q < 2:
                raise ValueError(f"term {j}: all terms must be integers >= 2, got {q}")
            if q <= prev:
                raise ValueError(f"term {j}: terms must be strictly increasing")
            prev = q

    def __len__(self) -> int:
        return len(self.terms)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExplicitSpec:
    """A literal list of terms."""

    terms: tuple[int, ...]


@dataclass(frozen=True)
class PowerSpec:
    """q_{j+1} = ceil(q_j ** growth) with rational growth > 1."""

    q1: int
    growth: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "growth", Fraction(self.growth))
        if self.growth <= 1:
            raise ValueError("growth exponent must exceed 1")


@dataclass(frozen=True)
class ContractiveSpec:
    """q_{j+1} = ceil(q_j**(1+tau) / 8), kept inside [q_j**(1+tau)/8, q_j**(1+tau)/4]."""

    q1: int
    tau: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", Fraction(self.tau))
        if self.tau <= 0:
            raise ValueError("tau must be positive")


@dataclass(frozen=True)
class AlternatingSpec:
    """Alternate a power step q -> ceil(q**eta) (odd j) with a divisibility
    preserving contractive step q -> q * ceil(q**tau / 8) (even j)."""

    q1: int
    tau: Fraction
    eta: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", Fraction(self.tau))
        object.__setattr__(self, "eta", Fraction(self.eta))
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.eta <= 1 + self.tau:
            raise ValueError("eta must exceed 1 + tau")


SequenceSpec = ExplicitSpec | PowerSpec | ContractiveSpec | AlternatingSpec

# the family of each sequence kind; a spec's fields name its parameters
SPECS = {"explicit": ExplicitSpec, "power": PowerSpec,
         "contractive": ContractiveSpec, "alternating": AlternatingSpec}


def _ceil_root(x: int, b: int) -> int:
    """Smallest integer r with r**b >= x."""
    r = _iroot(x, b)
    return r if r ** b >= x else r + 1


def _ceil_pow(q: int, e: Fraction) -> int:
    """ceil(q**e) for rational e > 0."""
    return _ceil_root(q ** e.numerator, e.denominator)


def _contractive_step(q: int, tau: Fraction, index: int, divisible: bool) -> int:
    """Next term inside [q**(1+tau)/8, q**(1+tau)/4], optionally a multiple of q."""
    if divisible:
        # k = ceil(q**tau / 8); next = q*k.  Window check on k against q**tau.
        a, b = tau.numerator, tau.denominator
        p = q ** a
        k = -(-_ceil_root(p, b) // 8)
        if k < 2:
            raise GenerationError(index, f"q={q} too small for a divisible contractive step")
        if (8 * k) ** b < p or (4 * k) ** b > p:
            raise GenerationError(index, f"no multiple of q={q} fits the contractive window")
        return q * k
    e = 1 + tau
    a, b = e.numerator, e.denominator
    p = q ** a
    nxt = -(-_ceil_root(p, b) // 8)
    if nxt <= q:
        raise GenerationError(index, f"contractive step from q={q} does not increase")
    if (4 * nxt) ** b > p:
        raise GenerationError(index, f"ceil(q**(1+tau)/8) exceeds q**(1+tau)/4 at q={q}")
    return nxt


def term_bits(spec: SequenceSpec, depth: int) -> int:
    """A bound on the bit length of the first ``depth`` terms, from the
    family's parameters alone: a step q -> q**e (or a contractive step,
    below q**e for e = 1 + tau) takes q < 2**n below 2**(ceil(e * n) + 1).
    Raises ValueError, naming the term, when a term's bound times its step's
    root degree e.denominator passes the cap (``check_root_size``)."""
    if isinstance(spec, ExplicitSpec):
        return max(q.bit_length() for q in spec.terms[:depth])
    n = spec.q1.bit_length()
    for j in range(1, depth):
        if isinstance(spec, PowerSpec):
            e = spec.growth
        elif isinstance(spec, AlternatingSpec) and j % 2 == 1:
            e = spec.eta
        else:
            e = 1 + spec.tau
        n = ceil(e * n) + 1
        b = e.denominator
        root = f", taken as a degree-{b} root of about {b * n} bits" if b > 1 else ""
        check_root_size(b, 0, n, f"term {j + 1} has about {n} bits{root}")
    return n


def generate(spec: SequenceSpec, depth: int) -> QSequence:
    """First `depth` terms of the family; deterministic."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if isinstance(spec, ExplicitSpec):
        if depth > len(spec.terms):
            raise GenerationError(depth, f"explicit sequence has only {len(spec.terms)} terms")
        return QSequence(tuple(spec.terms[:depth]))

    terms = [spec.q1]
    while len(terms) < depth:
        j = len(terms)
        q = terms[-1]
        if isinstance(spec, PowerSpec):
            nxt = _ceil_pow(q, spec.growth)
        elif isinstance(spec, ContractiveSpec):
            nxt = _contractive_step(q, spec.tau, j + 1, divisible=False)
        elif isinstance(spec, AlternatingSpec):
            if j % 2 == 1:
                nxt = _ceil_pow(q, spec.eta)
            else:
                nxt = _contractive_step(q, spec.tau, j + 1, divisible=True)
        else:
            raise TypeError(f"unknown sequence spec {spec!r}")
        if nxt <= q:
            raise GenerationError(j + 1, "generated term does not increase")
        terms.append(nxt)
    return QSequence(tuple(terms))


# ---------------------------------------------------------------------------
# Exponent statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentStats:
    """Certified step and cumulative log exponents of a prefix.

    h_list[j-1] encloses log q_{j+1} / log q_j for j = 1..J-1;
    alpha_list[j-2] encloses (log q_1 + ... + log q_{j-1}) / log q_j for j = 2..J.
    """

    h_list: tuple[Enclosure, ...]
    alpha_list: tuple[Enclosure, ...]
    h_prefix: Optional[Enclosure]
    alpha_last: Optional[Enclosure]


def exponent_stats(qs: QSequence, prec: Optional[int] = None) -> ExponentStats:
    # log_ratio detects power relations between integers first, so ratios
    # like log 1000 / log 10 come out exact; the cumulative entries go through
    # the prefix product q_1 * ... * q_{j-1} to get the same benefit, and take
    # that product's own log2 otherwise.  The 2J - 2 distinct integers of J
    # terms each take one log2 per call while they fit in the log2 cache,
    # that is up to 65 terms.
    terms = qs.terms
    h_list = [log_ratio(b, a, prec) for a, b in zip(terms, terms[1:])]
    alpha_list = []
    running = None
    prefix_product = terms[0]
    for j in range(1, len(terms)):
        alpha_list.append(log_ratio(prefix_product, terms[j], prec))
        prefix_product *= terms[j]
    for h in h_list:
        running = h if running is None else running.min_with(h)
    return ExponentStats(
        h_list=tuple(h_list),
        alpha_list=tuple(alpha_list),
        h_prefix=running,
        alpha_last=alpha_list[-1] if alpha_list else None,
    )


class RegimeStatus(Enum):
    PASS = "pass"
    FAIL = "fail"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class RegimeResult:
    status: RegimeStatus
    index: Optional[int] = None   # first violating / undecidable step, 1-based

    def __bool__(self) -> bool:
        return self.status is RegimeStatus.PASS


def regime_from_steps(h_values: Iterable[Enclosure], tau: Fraction) -> RegimeResult:
    """Regime verdict from step exponents h_1, h_2, ... in order; stops
    drawing values at the first step that does not pass."""
    threshold = Fraction(tau) + 1
    for j, h in enumerate(h_values, start=1):
        verdict = h.certainly_gt(threshold)
        if verdict is True:
            continue
        if verdict is False:
            return RegimeResult(RegimeStatus.FAIL, j)
        return RegimeResult(RegimeStatus.INDETERMINATE, j)
    return RegimeResult(RegimeStatus.PASS)


def validate_regime(qs: QSequence, tau: Fraction, prec: Optional[int] = None) -> RegimeResult:
    """Check that every certified step exponent strictly exceeds tau + 1.

    Indeterminate straddles are reported as their own outcome so the caller
    can retry at higher precision instead of trusting a coin flip.  Only the
    steps up to the first one that does not pass are computed.
    """
    steps = (log_ratio(b, a, prec) for a, b in zip(qs.terms, qs.terms[1:]))
    return regime_from_steps(steps, tau)


def reindex_even(qs: QSequence, tau: Fraction) -> tuple[QSequence, Fraction]:
    """Keep the even-position terms q_2, q_4, ... and rescale the shrinking
    exponent to tau * (2 + tau)."""
    if len(qs) < 2:
        raise ValueError("reindexing needs at least two terms")
    tau = Fraction(tau)
    sub = qs.terms[1::2]
    return QSequence(sub), tau * (2 + tau)
