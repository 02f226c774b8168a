import importlib.util
from pathlib import Path

import pytest
from hypothesis import Phase, settings

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# For ``tools/mutants.py``, which needs only pass or fail: a failing example
# is reported as found, not shrunk first.  Select it with
# ``--hypothesis-profile=mutants``; without the option the default profile
# holds.
settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.shrink])


@pytest.fixture
def load_workload(monkeypatch):
    """A loader of one of the benchmark's workload modules by its file stem,
    say ``"cli_reports"``; the module is only read, never changed."""
    # the workloads import perfbench's ``common`` by its bare name
    monkeypatch.syspath_prepend(str(PERFBENCH))

    def load(stem: str):
        spec = importlib.util.spec_from_file_location(f"perfbench_{stem}",
                                                      PERFBENCH / f"{stem}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load
