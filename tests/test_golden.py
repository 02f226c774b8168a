"""Canonical outputs compared byte for byte against stored goldens.

Each golden directory holds every file ``liminfdim run <config> --canonical
--format csv`` writes for one config: ``report.json`` and whichever of
``levels.csv``, ``dimension.csv`` and ``cover.csv`` its tasks produce.  Any
change to an enclosure, a count, a warning or a file layout shows up here.
The configs are the demo configs plus those under ``tests/golden``: a
1024-bit bracket and a sequence whose second level is empty, which pins the
repeated per-depth warnings and the ``lower: null`` rows.

The dimension layer keeps its depth walks across calls, so the last test
checks that a report does not depend on the walks kept before it is run.
"""

from pathlib import Path

import pytest

from liminfdim import dimension
from liminfdim.cli import main, run
from liminfdim.config import load_config
from liminfdim.dimension import (RegimeViolationError, branching_factors, lower_cantor_count,
                                 upper_cover_count, upper_dim_estimate)
from liminfdim.report import render_json
from liminfdim.sequences import generate

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [(cfg, GOLDEN / cfg.stem) for cfg in
         sorted((ROOT / "demos" / "configs").glob("*.cfg")) + sorted(GOLDEN.glob("*.cfg"))]


@pytest.mark.parametrize("config, golden", CASES, ids=lambda p: p.stem)
def test_canonical_report_matches_golden(config, golden, tmp_path):
    assert main(["run", str(config), "--canonical", "--format", "csv",
                 "--out", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in golden.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name


def _per_depth_reads(qs, tau, d, prec):
    """Every per-depth call at every depth of one walk, shallow ones first."""
    for depth in range(1, len(qs) + 1):
        upper_cover_count(qs, tau, d, depth, prec).count
        upper_dim_estimate(qs, tau, d, depth, prec)
        try:
            lower_cantor_count(qs, tau, d, depth, prec)
            branching_factors(qs, tau, depth, prec)
        except RegimeViolationError:
            pass


def test_reports_do_not_depend_on_the_walks_kept_before():
    # each report from a cold walk cache, and again after every other config
    # and per-depth reads of its own sequence (at other precisions, with d =
    # True, and at its own key from depth 1 up) have filled the cache
    configs = [load_config(config) for config, _ in CASES]
    cold = []
    for cfg in configs:
        dimension._walk.cache_clear()
        cold.append(render_json(run(cfg, canonical=True)[0], canonical=True))
    for cfg in configs:
        run(cfg, canonical=True)
    for cfg, want in zip(configs, cold):
        qs = generate(cfg.spec(), cfg.depth)
        for d, prec in [(cfg.d, 16), (cfg.d, 64), (True, cfg.precision), (cfg.d, cfg.precision)]:
            _per_depth_reads(qs, cfg.tau, d, prec)
        assert render_json(run(cfg, canonical=True)[0], canonical=True) == want, cfg
