"""One round of the benchmark's ``cli-reports`` workload, through its own oracle.

``perfbench/cli_reports.py`` runs ``liminfdim run ... --format csv`` in
process on seeded configs and checks each written report and CSV file
against the report ``cli.run`` returned.  Here one tiny round of its mix
(16 operations, covers of gamma = 2^-K with K <= 10) goes through
``cli.main`` and that oracle on two seeds, so a change to the write path
that the oracle would reject fails here first.  The workload module is only
read, never changed.
"""

from types import SimpleNamespace

import pytest

from liminfdim import cli


@pytest.mark.parametrize("seed", [1, 2])
def test_tiny_round_passes_the_oracle(seed, tmp_path, monkeypatch, load_workload):
    bench = load_workload("cli_reports")
    # attach wraps cli.run in place; monkeypatch puts the original back
    monkeypatch.setattr(cli, "run", cli.run)
    lib = SimpleNamespace(cli=cli)
    workload = bench.CliReports()
    workload.attach(lib)
    state = workload.prepare(lib, seed, True, tmp_path)
    for i in range(workload.round_ops):
        workload.before_op(state, i)
        code = workload.run_op(lib, state, i)
        bits = workload.check(lib, state, i, code)
        assert bits and min(bits) >= bench.PREC, (i, min(bits, default=None))
