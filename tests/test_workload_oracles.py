"""One tiny round of each computing workload of the benchmark, through its own oracle.

``perfbench/enumerate_d2.py``, ``bracket_highprec.py`` and
``cantor_certificate.py`` each check every operation against an oracle
written apart from the package: arcs recounted by enumeration, exponents and
dimension brackets against mpmath, ball measures by leaf enumeration.  Here
each workload's ``--tiny`` inputs go through the package once (every input
drawn for the seed, a few milliseconds an operation) and through that
oracle on two seeds, so a change the benchmark would count as a mismatch
fails here first.  ``tests/test_cli_reports_oracle.py`` does the same for
the write path.  The workload modules are only read, never changed.
"""

from types import SimpleNamespace

import pytest

from liminfdim import cantor, dimension, level_sets, numerics, sequences

LIB = SimpleNamespace(cantor=cantor, dimension=dimension, level_sets=level_sets,
                      numerics=numerics, sequences=sequences)


# (module stem, workload class, the state's list with one entry per distinct operation)
@pytest.mark.parametrize("stem, name, pool", [
    ("enumerate_d2", "EnumerateD2", "inputs"),
    ("bracket_highprec", "BracketHighprec", "ops"),
    ("cantor_certificate", "CantorCertificate", "trees"),
])
@pytest.mark.parametrize("seed", [1, 2])
def test_tiny_round_passes_the_oracle(stem, name, pool, seed, tmp_path, load_workload):
    workload = getattr(load_workload(stem), name)()
    workload.attach(LIB)
    state = workload.prepare(LIB, seed, True, tmp_path)
    workload.oracle_setup(state)
    bits = []
    for i in range(len(state[pool])):
        workload.before_op(state, i)
        out = workload.run_op(LIB, state, i)
        bits += workload.check(LIB, state, i, out)   # raises Mismatch on a wrong result
    assert bits
