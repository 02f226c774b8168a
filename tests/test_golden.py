"""Canonical outputs compared byte for byte against stored goldens.

Each golden directory holds every file ``liminfdim run <config> --canonical
--format csv`` writes for one config: ``report.json`` and whichever of
``levels.csv``, ``dimension.csv`` and ``cover.csv`` its tasks produce.  Any
change to an enclosure, a count, a warning or a file layout shows up here.
The configs are the demo configs plus those under ``tests/golden``: a
1024-bit bracket and a sequence whose second level is empty, which pins the
repeated per-depth warnings and the ``lower: null`` rows.
"""

from pathlib import Path

import pytest

from liminfdim.cli import main

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
