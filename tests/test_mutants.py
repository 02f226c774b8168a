"""Every entry of ``tools/mutants.py`` still applies to the source.

The mutation runner takes about nine minutes and no CI step runs it, so a
refactor that moves or rewrites a mutated line would only show there as an
"n/a" line.  These tests fail first: each entry's ``old`` code matches its
target exactly once, the edited file compiles to a different program than
the source's (and so from a different AST), each listed test file exists,
and the target is a module of the package.  The last two tests check the
runner's file filter, which picks the mutants and test files of the named
sources; they start no mutant and no test run.
"""

import importlib.util
import types
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUNNER = ROOT / "tools" / "mutants.py"


def load_runner():
    spec = importlib.util.spec_from_file_location("liminfdim_mutants", RUNNER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


runner = load_runner()


def program(code: types.CodeType) -> types.CodeType:
    """The code object without its line and column numbers, and its nested
    code objects likewise.  Compiling is deterministic, so two of these
    differ only when the ASTs they came from differ."""
    consts = tuple(program(c) if isinstance(c, types.CodeType) else c for c in code.co_consts)
    return code.replace(co_consts=consts, co_linetable=b"", co_firstlineno=1)


@lru_cache(maxsize=None)
def source(target: str) -> tuple[str, types.CodeType]:
    """The target's text and its compiled program."""
    text = (ROOT / target).read_text()
    return text, program(compile(text, target, "exec"))


@pytest.mark.parametrize("name", list(runner.MUTANTS))
def test_mutant_applies(name):
    mutant = runner.MUTANTS[name]
    # a mutant of a test reference checks nothing
    assert Path(mutant.target).parent == Path("src/liminfdim"), mutant.target
    text, original = source(mutant.target)
    edited = runner.apply(text, mutant.old, mutant.new)
    assert edited is not None, f"{name!r}: the old code does not match exactly once"
    code = compile(edited, mutant.target, "exec")
    assert program(code) != original, f"{name!r} leaves the program unchanged"
    for test in mutant.tests:
        assert (ROOT / test).is_file(), test


def test_apply_matches_once_across_whitespace():
    assert runner.apply("a = b  +\n  c\n", "b + c", "d") == "a = d\n"
    assert runner.apply("x + 1; x + 1", "x + 1", "y") is None
    assert runner.apply("x + 1", "x - 1", "y") is None


NUMERICS = "src/liminfdim/numerics.py"


def test_select_runs_only_the_named_files_mutants(monkeypatch):
    assert runner.select([]) == runner.MUTANTS
    chosen = runner.select([NUMERICS])
    assert chosen == {name: m for name, m in runner.MUTANTS.items() if m.target == NUMERICS}
    assert "Ziv test: no fallback" in chosen
    # the unmutated run takes the group's test files, each once
    assert runner.tests_of(chosen) == runner.MUTANTS["Ziv test: no fallback"].tests
    # a path is read from the working directory
    assert runner.select([str(ROOT / NUMERICS)]) == chosen
    monkeypatch.chdir(ROOT / "src")
    assert runner.select(["liminfdim/numerics.py", "./liminfdim/numerics.py"]) == chosen
    both = runner.select(["liminfdim/numerics.py", "liminfdim/cantor.py"])
    assert {m.target for m in both.values()} == {NUMERICS, "src/liminfdim/cantor.py"}


def test_a_file_without_mutants_is_refused_before_any_run(capsys):
    with pytest.raises(ValueError, match="no mutant edits"):
        runner.select(["src/liminfdim/svg.py"])
    with pytest.raises(SystemExit) as exit_info:
        runner.main(["src/liminfdim/svg.py"])
    assert exit_info.value.code == 2
    assert "no mutant edits" in capsys.readouterr().err
