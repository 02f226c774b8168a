"""Canonical reports compared byte for byte against stored goldens.

The goldens were written by ``liminfdim run <config> --canonical`` before the
log kernels were shared across a call; any change to an enclosure, a count
or the report layout shows up here.  The 1024-bit config exercises the
high-precision bracket path.
"""

from pathlib import Path

import pytest

from liminfdim.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    (ROOT / "demos" / "configs" / "power4_bracket.cfg", GOLDEN / "power4_bracket.json"),
    (GOLDEN / "power13_highprec.cfg", GOLDEN / "power13_highprec.json"),
]


@pytest.mark.parametrize("config, golden", CASES, ids=lambda p: p.stem)
def test_canonical_report_matches_golden(config, golden, tmp_path, monkeypatch):
    monkeypatch.delenv("LIMINFDIM_PRECISION", raising=False)
    assert main(["run", str(config), "--canonical", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "report.json").read_bytes() == golden.read_bytes()
