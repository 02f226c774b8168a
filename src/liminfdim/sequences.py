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
from typing import Iterable, Optional, Union

from .numerics import (
    LOG_GUARD_BITS,
    Enclosure,
    _iroot,
    _resolve_prec,
    log2_int,
    power_log_ratio,
)


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

    def __getitem__(self, j: int) -> int:
        return self.terms[j]

    @property
    def depth(self) -> int:
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


SequenceSpec = Union[ExplicitSpec, PowerSpec, ContractiveSpec, AlternatingSpec]

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


class _TermLogs:
    """log2 of each term at log_ratio's working precision, each computed at
    most once.  Built inside one call and dropped with it, so ratios taken
    from it are bit for bit the ones ``log_ratio`` returns."""

    def __init__(self, qs: QSequence, prec: Optional[int]):
        self.terms = qs.terms
        self.prec = _resolve_prec(prec)
        self._logs: dict[int, Enclosure] = {}

    def log(self, j: int) -> Enclosure:
        """Enclosure of log2 q_{j+1} (0-based j)."""
        if j not in self._logs:
            self._logs[j] = log2_int(self.terms[j], self.prec + LOG_GUARD_BITS)
        return self._logs[j]

    def step(self, j: int) -> Enclosure:
        """h_{j+1} = log q_{j+2} / log q_{j+1} (0-based j)."""
        exact = power_log_ratio(self.terms[j + 1], self.terms[j], self.prec)
        return exact if exact is not None else self.log(j + 1).div(self.log(j), self.prec)

    def cumulative(self, prefix_product: int, j: int) -> Enclosure:
        """log(q_1 ... q_j) / log q_{j+1} (0-based j >= 1) for the given product."""
        exact = power_log_ratio(prefix_product, self.terms[j], self.prec)
        if exact is not None:
            return exact
        # a one-term prefix is a table entry; longer prefixes get their own
        # log, since a sum of table entries would be wider
        num = self.log(0) if j == 1 else log2_int(prefix_product, self.prec + LOG_GUARD_BITS)
        return num.div(self.log(j), self.prec)


def exponent_stats(qs: QSequence, prec: Optional[int] = None) -> ExponentStats:
    # Power relations between integers are detected first, so ratios like
    # log 1000 / log 10 come out exact; the cumulative entries go through the
    # prefix product q_1 * ... * q_{j-1} to get the same benefit.
    logs = _TermLogs(qs, prec)
    h_list = [logs.step(j) for j in range(len(qs) - 1)]
    alpha_list = []
    running = None
    prefix_product = qs.terms[0]
    for j in range(1, len(qs)):
        alpha_list.append(logs.cumulative(prefix_product, j))
        prefix_product *= qs.terms[j]
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
    logs = _TermLogs(qs, prec)
    return regime_from_steps((logs.step(j) for j in range(len(qs) - 1)), tau)


def reindex_even(qs: QSequence, tau: Fraction) -> tuple[QSequence, Fraction]:
    """Keep the even-position terms q_2, q_4, ... and rescale the shrinking
    exponent to tau * (2 + tau)."""
    if len(qs) < 2:
        raise ValueError("reindexing needs at least two terms")
    tau = Fraction(tau)
    sub = qs.terms[1::2]
    return QSequence(sub), tau * (2 + tau)
