"""Flat exact-rational experiment configuration.

Config files are `key = value` lines with `#` comments.  Rationals must be
written exactly, as `p`, `p/q` or dyadic `m*2^e`; decimal floats are
rejected so no value silently loses exactness on the way in.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

from .sequences import (
    AlternatingSpec,
    ContractiveSpec,
    ExplicitSpec,
    PowerSpec,
    SequenceSpec,
)

PRECISION_ENV_VAR = "LIMINFDIM_PRECISION"

TASKS = ("analyze", "enumerate", "dimension", "cantor", "multiplicative")

_SEQUENCE_KINDS = ("explicit", "power", "contractive", "alternating")


class ConfigError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None, key: Optional[str] = None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if key is not None:
            loc.append(f"key '{key}'")
        prefix = f"{', '.join(loc)}: " if loc else ""
        super().__init__(prefix + message)
        self.line = line
        self.key = key


def _parse_int(text: str) -> int:
    """A decimal integer, or a '0x...' / '-0x...' hex one as reports write it."""
    text = text.strip()
    return int(text, 16) if text.lstrip("+-")[:2].lower() == "0x" else int(text)


def parse_rational(text: str) -> Fraction:
    """Exact rational from 'p', 'p/q' or 'm*2^e'; decimals are rejected.

    p, q and m may also be written in hex ('0x...'), as reports write
    integers too long for decimal.
    """
    text = text.strip()
    if "." in text:
        raise ValueError(f"decimal floats are not exact, write '{text}' as p/q or m*2^e")
    if "*2^" in text:
        m_str, e_str = text.split("*2^", 1)
        return Fraction(_parse_int(m_str)) * Fraction(2) ** int(e_str)
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(_parse_int(num), _parse_int(den))
    return Fraction(_parse_int(text))


@dataclass
class ExperimentConfig:
    sequence: str = "power"
    terms: tuple[int, ...] = ()
    q1: int = 4
    growth: Fraction = Fraction(4)
    eta: Fraction = Fraction(5)
    tau: Fraction = Fraction(1)
    theta: tuple[Fraction, ...] = ()
    d: int = 1
    depth: int = 4
    precision: Optional[int] = None
    component_budget: int = 10 ** 7
    node_budget: int = 10 ** 6
    tasks: tuple[str, ...] = ("analyze",)
    seed: int = 0
    holder_s: Fraction = Fraction(3, 10)
    holder_samples: int = 1000
    gamma: Fraction = Fraction(1, 64)
    mult_s: Fraction = Fraction(8, 5)

    def validate(self) -> None:
        if self.sequence not in _SEQUENCE_KINDS:
            raise ConfigError(f"unknown sequence kind '{self.sequence}', "
                              f"expected one of {', '.join(_SEQUENCE_KINDS)}", key="sequence")
        if self.tau <= 0:
            raise ConfigError("tau must be positive", key="tau")
        if self.depth < 1:
            raise ConfigError("depth must be >= 1", key="depth")
        if self.d < 1:
            raise ConfigError("d must be >= 1", key="d")
        if not self.theta:
            self.theta = tuple(Fraction(0) for _ in range(self.d))
        if len(self.theta) != self.d:
            raise ConfigError(f"theta needs {self.d} components, got {len(self.theta)}",
                              key="theta")
        for t in self.theta:
            if not 0 <= t < 1:
                raise ConfigError("theta components must lie in [0, 1)", key="theta")
        for t in self.tasks:
            if t not in TASKS:
                raise ConfigError(f"unknown task '{t}', expected a subset of "
                                  f"{', '.join(TASKS)}", key="tasks")
        if self.sequence == "explicit" and not self.terms:
            raise ConfigError("explicit sequences need 'terms'", key="terms")
        if self.sequence == "explicit" and len(self.terms) < self.depth:
            raise ConfigError(f"depth {self.depth} needs {self.depth} explicit terms, "
                              f"got {len(self.terms)}", key="terms")
        if self.precision is not None and self.precision < 8:
            raise ConfigError("precision must be at least 8 bits", key="precision")

    def resolved_precision(self) -> int:
        if self.precision is not None:
            return self.precision
        env = os.environ.get(PRECISION_ENV_VAR)
        if env:
            try:
                return int(env)
            except ValueError as exc:
                raise ConfigError(f"bad {PRECISION_ENV_VAR} value '{env}'") from exc
        return 128

    def spec(self) -> SequenceSpec:
        if self.sequence == "explicit":
            return ExplicitSpec(tuple(self.terms))
        if self.sequence == "power":
            return PowerSpec(self.q1, self.growth)
        if self.sequence == "contractive":
            return ContractiveSpec(self.q1, self.tau)
        return AlternatingSpec(self.q1, self.tau, self.eta)


_INT_KEYS = {"q1", "d", "depth", "precision", "component_budget", "node_budget",
             "seed", "holder_samples"}
_RATIONAL_KEYS = {"growth", "eta", "tau", "holder_s", "gamma", "mult_s"}


def parse_config(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    known = {f.name for f in fields(ExperimentConfig)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in known:
            raise ConfigError(f"unknown key '{key}'", line=lineno, key=key)
        try:
            if key in _INT_KEYS:
                setattr(cfg, key, int(value))
            elif key in _RATIONAL_KEYS:
                setattr(cfg, key, parse_rational(value))
            elif key == "sequence":
                cfg.sequence = value
            elif key == "terms":
                cfg.terms = tuple(int(v.strip()) for v in value.split(",") if v.strip())
            elif key == "theta":
                cfg.theta = tuple(parse_rational(v) for v in value.split(",") if v.strip())
            elif key == "tasks":
                cfg.tasks = tuple(v.strip() for v in value.split(",") if v.strip())
            else:  # pragma: no cover - the key sets above are exhaustive
                raise ConfigError(f"unhandled key '{key}'", line=lineno, key=key)
        except ConfigError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(str(exc), line=lineno, key=key) from exc
    cfg.validate()
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="ascii") as fh:
        return parse_config(fh.read())
