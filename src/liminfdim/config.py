"""Flat exact-rational experiment configuration.

Config files are `key = value` lines with `#` comments.  Each key is read by
the reader of its field's type: integers in decimal or '0x...' hex, and
rationals exactly, as `p`, `p/q` or dyadic `m*2^e`; decimal floats are
rejected so no value silently loses exactness on the way in.  The config
owns the file format only: every value is checked by the code that uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Optional, get_args, get_origin, get_type_hints

from .cantor import check_holder
from .level_sets import LevelParams
from .multiplicative import check_cover
from .numerics import _resolve_prec
from .sequences import SPECS, QSequence, SequenceSpec

TASKS = ("analyze", "enumerate", "dimension", "cantor", "multiplicative")


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
        """Check every value, whatever the tasks: the config's own rules
        here, every other value by the rule of the code that reads it."""
        if self.sequence not in SPECS:
            raise ConfigError(f"unknown sequence kind '{self.sequence}', "
                              f"expected one of {', '.join(SPECS)}", key="sequence")
        for t in self.tasks:
            if t not in TASKS:
                raise ConfigError(f"unknown task '{t}', expected a subset of "
                                  f"{', '.join(TASKS)}", key="tasks")
        if self.depth < 1:
            raise ConfigError("depth must be >= 1", key="depth")
        if self.sequence == "explicit" and len(self.terms) < self.depth:
            raise ConfigError(f"depth {self.depth} needs {self.depth} explicit terms, "
                              f"got {len(self.terms)}", key="terms")
        if not self.theta:
            self.theta = tuple(Fraction(0) for _ in range(self.d))
        _checked("d, theta, tau", LevelParams, self.theta, self.tau, self.d)
        _checked(", ".join(f.name for f in fields(SPECS[self.sequence])), self.spec)
        if self.sequence == "explicit":
            _checked("terms", QSequence, self.terms[:self.depth])
        else:
            _checked("q1", QSequence, (self.q1,))
        self.resolved_precision()
        _checked("gamma, mult_s", check_cover, self.gamma, self.mult_s)
        _checked("holder_s, holder_samples", check_holder,
                 self.holder_s, self.holder_samples, self.d)

    def resolved_precision(self) -> int:
        """The precision key, else the default, checked by numerics'
        precision rule."""
        return _checked("precision", _resolve_prec, self.precision)

    def spec(self) -> SequenceSpec:
        cls = SPECS[self.sequence]
        return cls(*(getattr(self, f.name) for f in fields(cls)))


def _checked(keys: str, owner: Callable, *args):
    """owner(*args), its ValueError turned into a ConfigError naming the keys
    whose values the owner was given."""
    try:
        return owner(*args)
    except ValueError as exc:
        raise ConfigError(str(exc), key=keys) from exc


# one reader per field type, so every key of a type reads the same way
_READERS = {int: _parse_int, Optional[int]: _parse_int, Fraction: parse_rational, str: str}
_FIELD_TYPES = get_type_hints(ExperimentConfig)


def _read(tp, text: str):
    """A value of field type tp, one of _READERS' or a comma list of one."""
    if get_origin(tp) is tuple:
        return tuple(_read(get_args(tp)[0], v.strip()) for v in text.split(",") if v.strip())
    return _READERS[tp](text)


def parse_config(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown key '{key}'", line=lineno, key=key)
        try:
            setattr(cfg, key, _read(_FIELD_TYPES[key], value))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(str(exc), line=lineno, key=key) from exc
    cfg.validate()
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="ascii") as fh:
        return parse_config(fh.read())
