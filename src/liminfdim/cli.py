"""Config-driven experiment runner.

``liminfdim run <config>`` executes the requested tasks and writes a JSON
report (plus CSV files with ``--format csv``); ``liminfdim plot`` renders a
report series as a standalone SVG; every CSV is rendered from the report.
Exit codes: 0 success; 1 the run stopped early with a partial report (a
budget was exhausted, or a level could not be certified); 2 configuration
errors, sequence-generation errors included, and output that cannot be
written; 3 an internal error, an unexpected exception inside the run,
reported as one line ``internal error: <Type>: <message>`` on stderr with no
report written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import report as rep
from .cantor import build_tree
from .config import ConfigError, ExperimentConfig, config_json, load_config
from .dimension import RegimeViolationError, depth_series, theoretical_dimension
from .level_sets import (BudgetExceededError, IndeterminateRadiusError, LevelParams,
                         prefix_intersection)
from .multiplicative import (check_cover, cover_size, hyperbolic_cover, mult_bounds,
                             mult_cost_exponent)
from .sequences import GenerationError, exponent_stats, generate, regime_from_steps
from .svg import Plot, square_overlay


class MissingSeriesError(KeyError):
    def __init__(self, kind: str, task: str):
        super().__init__(f"plot '{kind}' needs the '{task}' task in the report")
        self.task = task


def run(cfg: ExperimentConfig, canonical: bool = False) -> tuple[dict, int]:
    """Execute the configured tasks; returns (report, exit_code)."""
    prec = cfg.precision
    warnings: list[str] = []
    results: dict = {}
    timing: dict = {}
    exit_code = 0

    t0 = time.perf_counter()
    qs = generate(cfg.spec(), cfg.depth)
    params = LevelParams(theta=cfg.theta, tau=cfg.tau, d=cfg.d)
    stats = exponent_stats(qs, prec)
    regime = regime_from_steps(stats.h_list, cfg.tau)
    if not regime:
        warnings.append(f"growth regime check: {regime.status.value}"
                        + (f" at step {regime.index}" if regime.index else ""))
    timing["analyze"] = time.perf_counter() - t0

    results["analyze"] = rep.stats_json(stats, regime)
    results["analyze"]["terms"] = [str(rep.int_json(q)) for q in qs.terms]

    for task in cfg.tasks:
        if task == "analyze":
            continue
        t0 = time.perf_counter()
        if task == "enumerate":
            try:
                enum = prefix_intersection(qs, params, cfg.depth, prec,
                                           cfg.component_budget)
                levels = [rep.level_stats_json(st) for st in enum.levels]
                results["enumerate"] = {"levels": levels, "aborted_at": None}
            except (BudgetExceededError, IndeterminateRadiusError) as exc:
                if isinstance(exc, BudgetExceededError):
                    warnings.append(f"enumerate: component budget hit at level {exc.level}")
                else:
                    warnings.append(f"enumerate: level {exc.level} could not be certified: {exc}")
                levels = [rep.level_stats_json(st) for st in exc.partial.levels] \
                    if exc.partial else []
                results["enumerate"] = {"levels": levels, "aborted_at": exc.level}
                exit_code = 1
        elif task == "dimension":
            series = []
            for record in depth_series(qs, cfg.tau, cfg.d, prec):
                row = {"depth": record.depth, "upper": rep.enclosure_json(record.upper)}
                try:
                    row["lower"] = rep.enclosure_json(record.lower.s_hat)
                except RegimeViolationError as exc:
                    warnings.append(f"dimension: {exc}")
                    row["lower"] = None
                series.append(row)
            theo = None
            if stats.alpha_last is not None:
                dv = theoretical_dimension(cfg.tau, stats.alpha_last, cfg.d, prec)
                if dv.clamped:
                    warnings.append("dimension: formula clamped at zero (tau*alpha > 1)")
                theo = rep.value_json(dv.as_enclosure(prec))
            results["dimension"] = {
                "series": series,
                "theoretical": theo,
                "cover_report": rep.cover_report_json(record),
            }
        elif task == "cantor":
            try:
                tree = build_tree(qs, params, cfg.depth, prec, cfg.node_budget)
                cert = tree.holder_certificate(cfg.holder_s, cfg.holder_samples,
                                               cfg.seed)
                results["cantor"] = {
                    "branching_1d": [rep.int_json(b) for b in tree.branching_1d],
                    "leaf_measure": rep.fraction_str(tree.node_measure(tree.depth)),
                    "min_separation": rep.fraction_str(tree.min_separation(tree.depth)),
                    "certificate": rep.certificate_json(cert),
                }
            except RegimeViolationError as exc:
                warnings.append(f"cantor: {exc}")
                results["cantor"] = {"error": str(exc)}
        elif task == "multiplicative":
            alpha = stats.alpha_last if stats.alpha_last is not None else Fraction(0)
            lower, upper = mult_bounds(cfg.tau, alpha, cfg.d, prec)
            size = cover_size(check_cover(cfg.gamma, cfg.mult_s, prec))
            cover_json = None
            if size > cfg.component_budget:
                warnings.append(f"multiplicative: the cover needs {rep.int_json(size)} "
                                f"squares, over the component budget of "
                                f"{rep.int_json(cfg.component_budget)}")
                exit_code = 1
            else:
                cover, cost = hyperbolic_cover(cfg.gamma, cfg.mult_s, prec)
                cover_json = {
                    "gamma": rep.fraction_str(cfg.gamma),
                    "s": rep.fraction_str(cfg.mult_s),
                    "squares": cover.total_squares(),
                    "s_cost": rep.enclosure_json(cost),
                    "rects": rep.cover_rects(cover),
                }
            results["multiplicative"] = {
                "lower": rep.value_json(lower),
                "upper": rep.value_json(upper),
                "critical_s": rep.fraction_str(upper),  # the upper bound is the critical s
                "cost_exponent_at_critical":
                    rep.fraction_str(mult_cost_exponent(cfg.d, cfg.tau, upper)),
                "cover": cover_json,
            }
        timing[task] = time.perf_counter() - t0

    report = {
        "config": config_json(cfg),
        "results": results,
        "warnings": warnings,
    }
    if not canonical:
        report["timing"] = timing
    return report, exit_code


def plot(report: dict, kind: str, path: str) -> None:
    """Render one series of a report as a standalone SVG file."""
    results = report.get("results", {})
    if kind == "bracket_vs_J":
        dim = results.get("dimension")
        if not dim:
            raise MissingSeriesError(kind, "dimension")
        p = Plot("dimension estimates by depth", "depth", "estimate")
        ups = [(row["depth"], row["upper"]["hi_float"]) for row in dim["series"]]
        p.add_series("upper estimate", ups, color="crimson")
        lows = [(row["depth"], row["lower"]["lo_float"])
                for row in dim["series"] if row["lower"]]
        if lows:
            p.add_series("lower estimate", lows, color="steelblue")
        if dim.get("theoretical"):
            t = dim["theoretical"]
            mid = (t["lo_float"] + t["hi_float"]) / 2 if "lo_float" in t else t["float"]
            p.add_hline(mid, "limit")
        Path(path).write_text(p.render(), encoding="ascii")
    elif kind == "count_vs_scale":
        enum = results.get("enumerate")
        if not enum or not enum.get("levels"):
            raise MissingSeriesError(kind, "enumerate")
        # lengths can lie below the double range (max_len_float 0.0), so x is
        # log2 of the exact max_len, taken from its numerator and denominator;
        # a level with no component has no length to place
        p = Plot("components against box size", "max component length (log2)", "components",
                 ylog=True)
        pts = []
        for st in enum["levels"]:
            length = rep.parse_rational(st["max_len"])
            if length > 0:
                # a count past int_json's decimal range is a '0x...' string
                pts.append((math.log2(length.numerator) - math.log2(length.denominator),
                            max(1, rep._parse_int(str(st["count"]["max"])))))
        p.add_series("outer count", pts, color="steelblue")
        Path(path).write_text(p.render(), encoding="ascii")
    elif kind == "cover_overlay":
        mult = results.get("multiplicative")
        if not mult or not mult["cover"]:
            raise MissingSeriesError(kind, "multiplicative")
        gamma = rep.parse_rational(mult["cover"]["gamma"])
        rects = [(float(rep.parse_rational(x)), float(rep.parse_rational(y)),
                  float(rep.parse_rational(s))) for x, y, s in mult["cover"]["rects"]]
        steps = 256
        curve = []
        for i in range(1, steps + 1):
            x = i / steps
            curve.append((x, min(1.0, float(gamma) / x)))
        svg = square_overlay(f"hyperbolic region cover, gamma = {mult['cover']['gamma']}",
                             rects, curve)
        Path(path).write_text(svg, encoding="ascii")
    else:
        raise ValueError(f"unknown plot kind '{kind}'")


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> None:
    if args.task:
        cfg.tasks = tuple(t for group in args.task for t in group.split(","))
    if args.depth is not None:
        cfg.depth = args.depth
    if args.prec is not None:
        cfg.precision = args.prec
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.validate()


def _write_outputs(report: dict, out: Path, fmt: str, canonical: bool) -> None:
    """report.json, plus with fmt 'csv' the CSV file of each task that has one."""
    (out / "report.json").write_text(rep.render_json(report, canonical), encoding="ascii")
    if fmt == "csv":
        res = report["results"]
        if "enumerate" in res:
            (out / "levels.csv").write_text(
                rep.levels_csv(res["enumerate"]["levels"]), encoding="ascii")
        if "dimension" in res:
            rows = [r for r in res["dimension"]["series"] if r["lower"]]
            (out / "dimension.csv").write_text(rep.dimension_csv(rows), encoding="ascii")
        if "multiplicative" in res and res["multiplicative"]["cover"]:
            (out / "cover.csv").write_text(
                rep.cover_csv(res["multiplicative"]["cover"]["rects"]), encoding="ascii")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing leaves it
    as it was, and building it costs several times a parse."""
    parser = argparse.ArgumentParser(
        prog="liminfdim",
        description="certified level-set intersections and dimension estimates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the tasks of a config file")
    p_run.add_argument("config", help="path to the experiment config")
    p_run.add_argument("--task", action="append", default=None,
                       help="override the config's task list (repeatable)")
    p_run.add_argument("--depth", type=int, default=None)
    p_run.add_argument("--prec", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument("--canonical", action="store_true",
                       help="byte-reproducible output: no timing, sorted keys")

    p_plot = sub.add_parser("plot", help="render a report series as SVG")
    p_plot.add_argument("report", help="path to a report.json")
    p_plot.add_argument("--kind", required=True,
                        choices=("count_vs_scale", "bracket_vs_J", "cover_overlay"))
    p_plot.add_argument("--out", required=True, help="output SVG path")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "run":
        try:
            cfg = load_config(args.config)
            _apply_overrides(cfg, args)
        except (ConfigError, OSError, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)  # before any task runs
            report, code = run(cfg, canonical=args.canonical)
            _write_outputs(report, out, args.format, args.canonical)
        except GenerationError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:  # a defect, not a config or budget outcome
            print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 3
        for w in report["warnings"]:
            print(f"warning: {w}", file=sys.stderr)
        return code

    if args.command == "plot":
        try:
            report = json.loads(Path(args.report).read_text(encoding="ascii"))
            plot(report, args.kind, args.out)
        except (MissingSeriesError, ValueError, OSError, KeyError, TypeError,
                AttributeError, OverflowError) as exc:  # a report of the wrong shape
            print(f"plot error: {exc}", file=sys.stderr)
            return 2
        return 0

    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
