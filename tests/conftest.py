import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
