"""Span tracing around the package's public entry points, from outside.

``Tracer.install`` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent span, operation id).  Module
level functions are replaced in every ``liminfdim`` module that holds them,
so names bound with ``from .numerics import dir_pow`` are traced too.
``uninstall`` puts the originals back.  Spans stay in memory and are written
out by ``write``; ``metrics`` turns them into per-operation layer figures.
"""

from __future__ import annotations

import array
import functools
import gzip
import sys
import time
from pathlib import Path

# layer -> traced attributes of liminfdim.<layer>, in report order
SPANS = (
    ("numerics", ("log2_int", "log_ratio", "dir_pow",
                  "Enclosure.log2", "Enclosure.pow_frac", "Enclosure.div")),
    ("sequences", ("generate", "exponent_stats", "validate_regime")),
    ("level_sets", ("prefix_intersection", "build_level", "TorusIntervalSet.intersect")),
    ("dimension", ("upper_dim_estimate", "upper_cover_count", "lower_cantor_count",
                   "branching_factors", "theoretical_dimension")),
    ("cantor", ("build_tree", "CantorTree.holder_certificate", "CantorTree.ball_measure",
                "CantorTree.child_range_1d")),
    ("multiplicative", ("hyperbolic_cover",)),
    ("config", ("load_config",)),
    ("cli", ("run", "main")),
    ("report", ("render_json", "levels_csv", "cover_csv")),
)

SPAN_NAMES = tuple(f"{layer}.{attr}" for layer, attrs in SPANS for attr in attrs)

def _ratio(num: float, den: float) -> float:
    """num / den, or 0 where the layer did no work at all."""
    return num / den if den else 0.0


class Tracer:
    def __init__(self, lib):
        self._lib = lib
        self._patches: list[tuple[object, str, object]] = []
        self.op = 0
        self.enabled = True
        # span store, one entry per finished span; ids count span starts
        self.s_id = array.array("q")
        self.s_name = array.array("H")
        self.s_start = array.array("d")
        self.s_end = array.array("d")
        self.s_parent = array.array("q")
        self.s_op = array.array("q")
        # per-name aggregates
        self.calls = {n: 0 for n in SPAN_NAMES}
        self.self_time = {n: 0.0 for n in SPAN_NAMES}
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        # counters measured at the same boundaries
        self.log_keys: set = set()
        self.log_calls = 0
        self.arcs_built = 0
        self.arcs_kept = 0
        self.squares = 0

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "liminfdim" or n.startswith("liminfdim.")]
        for idx, name in enumerate(SPAN_NAMES):
            layer, _, attr = name.partition(".")
            owner = getattr(self._lib, layer)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(idx, name, vars(cls)[meth]))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(idx, name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def _wrap(self, idx: int, name: str, orig):
        tracer = self
        perf = time.perf_counter
        stack = self._stack
        hook = _HOOKS.get(name)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                tracer.calls[name] += 1
                tracer.self_time[name] += dur - frame[1]
                tracer.s_id.append(span_id)
                tracer.s_name.append(idx)
                tracer.s_start.append(start)
                tracer.s_end.append(end)
                tracer.s_parent.append(parent)
                tracer.s_op.append(tracer.op)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- results ----------------------------------------------------------------

    def metrics(self, ops: int, overhead: float) -> dict:
        """Per-operation figures over set-up plus `ops` traced operations."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name] / ops
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = self.self_time[name] / ops
        out["numerics.log_distinct_frac"] = _ratio(len(self.log_keys), self.log_calls)
        out["level_sets.arcs_built"] = self.arcs_built / ops
        out["level_sets.arcs_kept"] = self.arcs_kept / ops
        out["level_sets.keep_frac"] = _ratio(self.arcs_kept, self.arcs_built)
        out["cantor.child_ranges_per_ball"] = _ratio(
            self.calls["cantor.CantorTree.child_range_1d"],
            self.calls["cantor.CantorTree.ball_measure"])
        out["multiplicative.squares"] = self.squares / ops
        out["trace.overhead_frac"] = overhead
        return out

    def write(self, path: Path) -> int:
        """Write every span as CSV (gzip); returns the number of spans."""
        path.parent.mkdir(parents=True, exist_ok=True)
        n = len(self.s_name)
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for i in range(n):
                fh.write(f"{self.s_id[i]},{SPAN_NAMES[self.s_name[i]]},{self.s_start[i]!r},"
                         f"{self.s_end[i]!r},{self.s_parent[i]},{self.s_op[i]}\n")
        return n


# -- counter hooks, run after a traced call returns ---------------------------------

def _prec_arg(args, kwargs, pos):
    return args[pos] if len(args) > pos else kwargs.get("prec")


def _log_int(tracer, args, kwargs, result):
    tracer.log_calls += 1
    tracer.log_keys.add(("log2_int", args[0], _prec_arg(args, kwargs, 1)))


def _log_ratio(tracer, args, kwargs, result):
    tracer.log_calls += 1
    tracer.log_keys.add(("log_ratio", args[0], args[1], _prec_arg(args, kwargs, 2)))


def _log_enclosure(tracer, args, kwargs, result):
    tracer.log_calls += 1
    enc = args[0]
    tracer.log_keys.add(("log2", enc.lo, enc.hi, _prec_arg(args, kwargs, 1)))


def _built(tracer, args, kwargs, result):
    tracer.arcs_built += len(result.outer.arcs)


def _kept(tracer, args, kwargs, result):
    tracer.arcs_kept += len(result.outer.arcs)


def _squares(tracer, args, kwargs, result):
    tracer.squares += len(result[0].squares)


_HOOKS = {
    "numerics.log2_int": _log_int,
    "numerics.log_ratio": _log_ratio,
    "numerics.Enclosure.log2": _log_enclosure,
    "level_sets.build_level": _built,
    "level_sets.TorusIntervalSet.intersect": _kept,
    "multiplicative.hyperbolic_cover": _squares,
}
