"""Flat exact-rational experiment configuration.

Config files are `key = value` lines with `#` comments.  The typed fields of
``ExperimentConfig`` are the only list of keys.  Each key is read by the
reader of its field's type: integers in decimal or '0x...' hex, and
rationals exactly, as `p`, `p/q` or dyadic `m*2^e`; decimal floats are
rejected so no value silently loses exactness on the way in.  The report's
echo of a config, ``config_json``, writes each key with the writer of its
type, in a form the reader takes back.  The config owns the file format
only: every value is checked by the code that uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Optional, get_args, get_origin, get_type_hints

from .cantor import DEFAULT_NODE_BUDGET, check_holder
from .level_sets import DEFAULT_COMPONENT_BUDGET, LevelParams
from .multiplicative import check_cover
from .numerics import DEFAULT_PRECISION, _resolve_prec
from .report import _parse_int, fraction_str, int_json, parse_rational
from .sequences import SPECS, QSequence, SequenceSpec, term_bits

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
    precision: int = DEFAULT_PRECISION
    component_budget: int = DEFAULT_COMPONENT_BUDGET
    node_budget: int = DEFAULT_NODE_BUDGET
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
        params = _checked("d, theta, tau", LevelParams, self.theta, self.tau, self.d)
        spec_keys = ", ".join(f.name for f in fields(SPECS[self.sequence]))
        spec = _checked(spec_keys, self.spec)
        if self.sequence == "explicit":
            _checked("terms", QSequence, self.terms[:self.depth])
        else:
            _checked("q1", QSequence, (self.q1,))
        self.precision = _checked("precision", _resolve_prec, self.precision)
        # the roots each exponent's denominator asks for, against one cap
        bits = _checked(f"{spec_keys}, depth", term_bits, spec, self.depth)
        _checked("tau, precision", params.check_roots, self.precision, bits)
        _checked("gamma, mult_s", check_cover, self.gamma, self.mult_s, self.precision)
        _checked("holder_s, holder_samples", check_holder,
                 self.holder_s, self.holder_samples, self.d, self.precision)

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


# one reader and one writer per field type, so every key of a type reads and
# is echoed the same way; a tuple is a comma list in a file, a list in a report
_READERS = {int: _parse_int, Fraction: parse_rational, str: str}
_WRITERS = {int: int_json, Fraction: fraction_str, str: str}
_FIELD_TYPES = get_type_hints(ExperimentConfig)


def _read(tp, text: str):
    """A value of field type tp, one of _READERS' or a comma list of one."""
    if get_origin(tp) is tuple:
        return tuple(_read(get_args(tp)[0], v.strip()) for v in text.split(",") if v.strip())
    return _READERS[tp](text)


def _write(tp, value):
    """The JSON form of a value of field type tp, which _read takes back."""
    if get_origin(tp) is tuple:
        return [_write(get_args(tp)[0], v) for v in value]
    return _WRITERS[tp](value)


def config_json(cfg: ExperimentConfig) -> dict:
    """Every key of cfg, in field order, as the report echoes it."""
    return {key: _write(tp, getattr(cfg, key)) for key, tp in _FIELD_TYPES.items()}


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
        except ValueError as exc:
            raise ConfigError(str(exc), line=lineno, key=key) from exc
    cfg.validate()
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="ascii") as fh:
        return parse_config(fh.read())
