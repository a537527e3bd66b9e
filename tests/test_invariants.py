import ast
import importlib
import re
from pathlib import Path

import pytest

import rankguard
from rankguard import InvariantViolated, RankguardError
from rankguard.rank_metrics import ProfileTable, _validate_profile

SRC = Path(rankguard.__file__).parent


def test_invariant_violation_is_a_library_error():
    assert issubclass(InvariantViolated, RankguardError)


@pytest.mark.parametrize("values", [(1, 1, 2, 2), (0, 1, 1, 1), (0, 2, 2, 2), (0, 1, 0, 1, 2)],
                         ids=["start", "end", "jump", "drop"])
def test_bad_profile_raises(values):
    # quotient dimension 2: a valid profile runs 0 .. 2 by unit steps
    with pytest.raises(InvariantViolated):
        _validate_profile(ProfileTable("RDIP", values), 2)


def test_good_profile_passes():
    _validate_profile(ProfileTable("RDIP", (0, 0, 1, 2)), 2)


def test_profile_index_out_of_range():
    table = ProfileTable("RDIP", (0, 1, 1, 2))
    assert table.at(0) == 0 and table.at(3) == 2
    for i in (-1, 4):
        with pytest.raises(rankguard.PreconditionError):
            table.at(i)


def _raises(node, name: str) -> bool:
    """True iff node is a raise statement of the exception class `name`."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == name


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert, and an AssertionError escapes the CLI's error
    # handling as a traceback; invariants must raise InvariantViolated
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)
             or _raises(node, "AssertionError")]
    assert lines == [], f"{path.name} uses assert or raises AssertionError at lines {lines}"


def _is_cap_option(name: str) -> bool:
    return (name in ("cap", "budget", "max_order", "max_tries", "t_max")
            or name.endswith(("_cap", "_budget")))


def _parameters(node) -> list[str]:
    """Parameter names of a function, or the fields of a (data)class."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        a = node.args
        return [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs]
    if isinstance(node, ast.ClassDef):
        return [s.target.id for s in node.body
                if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    return []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_per_call_cap_parameters(path):
    # enumeration caps are module constants read at call time, so a test
    # lowers one with monkeypatch and no caller widens one per call
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{node.name}({name})" for node in ast.walk(tree)
             for name in _parameters(node) if _is_cap_option(name)]
    assert found == [], f"{path.name} takes per-call caps: {found}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_enumeration_caps_are_in_readme(path):
    # the caps a user can hit (EnumerationTooLarge, exit 3) are the module
    # constants that the raising functions read; README lists each one
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tree = ast.parse(path.read_text(), filename=str(path))
    constants = {t.id for node in tree.body if isinstance(node, ast.Assign)
                 for t in node.targets if isinstance(t, ast.Name) and t.id.isupper()}
    read = {node.id for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            and any(_raises(stmt, "EnumerationTooLarge") for stmt in ast.walk(fn))
            for node in ast.walk(fn) if isinstance(node, ast.Name) and node.id in constants}
    missing = sorted(name for name in read if not re.search(rf"\b{name}\b", readme))
    assert missing == [], f"README does not list the caps {missing} of {path.name}"


def _module_value(tree, name: str):
    """The literal assigned to a module-level name; frozenset({...}) reads
    as its set."""
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]]
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "frozenset":
        [value] = value.args
    return ast.literal_eval(value)


def test_traced_names_resolve():
    # the perfbench tracer names the functions it counts and those it keeps
    # out of its spans; a stale name only warns on stderr and counts 0, or
    # lets the renamed function open spans; read its tables, not import them
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    counted = {n.removeprefix("yields:") for names in _module_value(tree, "COUNTS").values()
               for n in names}
    missing = []
    for name in sorted(counted | _module_value(tree, "NOT_SPANNED")):
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"rankguard.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(name)
    assert missing == [], f"traced names that no longer resolve: {missing}"
