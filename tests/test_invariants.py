import ast
import importlib
import re
from pathlib import Path

import pytest

import rankguard
from rankguard import (
    EnumerationTooLarge,
    InvariantViolated,
    RankguardError,
    codes,
    ctx_new,
    decoder,
    rank_metrics,
    subspaces,
)
from rankguard.coset_scheme import build_proposed, lift
from rankguard.decoder import capability_report, decode_coherent, discrepancy_noncoherent
from rankguard.linalg import Matrix
from rankguard.network import all_matrices, enumerate_errors, enumerate_wiretap
from rankguard.rank_metrics import ProfileTable, _validate_profile
from rankguard.security import JointDistribution
from rankguard.subspaces import SubspaceFamily

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


def _lru_caches(tree) -> list:
    """The lru_cache decorators of a module, bare or called, whatever the import."""
    found = []
    for node in ast.walk(tree):
        for dec in getattr(node, "decorator_list", []):
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if name == "lru_cache":
                found.append(dec)
    return found


def _maxsize(dec):
    """The maxsize argument of an lru_cache decorator; None if it has none."""
    if not isinstance(dec, ast.Call):
        return None
    sizes = dec.args[:1] + [kw.value for kw in dec.keywords if kw.arg == "maxsize"]
    return sizes[0] if len(sizes) == 1 else None


def _constant(node):
    """The value of an arithmetic expression of literals (2**14), else None."""
    if node is None or not all(isinstance(n, (ast.Constant, ast.BinOp, ast.operator))
                               for n in ast.walk(node)):
        return None
    return eval(compile(ast.Expression(node), "<maxsize>", "eval"))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_cache_is_bounded(path):
    # a memo lives as long as the process: each lru_cache names an integer
    # maxsize (None would grow without bound) and functools.cache is not used
    tree = ast.parse(path.read_text(), filename=str(path))
    unbounded = [dec.lineno for dec in _lru_caches(tree)
                 if type(_constant(_maxsize(dec))) is not int]
    assert unbounded == [], f"{path.name}: lru_cache without an integer maxsize at lines {unbounded}"
    uses_cache = [node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Attribute) and node.attr == "cache"
                      and getattr(node.value, "id", None) == "functools")
                  or (isinstance(node, ast.ImportFrom) and node.module == "functools"
                      and any(alias.name == "cache" for alias in node.names))]
    assert uses_cache == [], f"{path.name} uses functools.cache at lines {uses_cache}"


def test_profile_memo_is_bounded():
    # rank_metrics' memo of finished profiles has a fixed integer bound
    memo = rank_metrics._profiles
    assert type(memo.size) is int and 0 < memo.size <= 64


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


def _module_constants() -> dict[str, set[str]]:
    """The upper-case module-level names each src module assigns."""
    constants = {}
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        constants[path.stem] = {t.id for node in tree.body if isinstance(node, ast.Assign)
                                for t in node.targets if isinstance(t, ast.Name)
                                and t.id.isupper()}
    return constants


def test_readme_caps_are_constants():
    # the other direction: a constant README names in backticks, bare or as
    # module.NAME, is still assigned by that module (or by some module)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    constants = _module_constants()
    named = re.findall(r"`(?:(\w+)\.)?([A-Z][A-Z0-9]*_[A-Z0-9_]+)`", readme)
    assert len(named) >= 5
    stale = [f"{module}.{name}" if module else name for module, name in named
             if name not in (constants.get(module, set()) if module
                             else set().union(*constants.values()))]
    assert stale == [], f"README names constants that no module defines: {stale}"


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


# -- one cap per kind of enumeration --------------------------------------------


def _refusal(call) -> str:
    with pytest.raises(EnumerationTooLarge) as info:
        call()
    return str(info.value)


def test_every_vector_listing_reads_the_scan_cap(monkeypatch):
    # codes.DEFAULT_SCAN_CAP, lowered once, refuses every listing of F_{q^m}
    # vectors with one message: the count listed, then the cap
    q2 = build_proposed(ctx_new(2, 4), l=1, n=3, k=2)  # |C1| = 256, 16 messages
    q3 = build_proposed(ctx_new(3, 3), l=1, n=2, k=1)  # |C1| = 27
    monkeypatch.setattr(codes, "DEFAULT_SCAN_CAP", 10)

    def packed_decode():
        with monkeypatch.context() as patch:
            patch.setattr(decoder, "ext_vec_times_base_transpose",
                          lambda *args: pytest.fail("scored on field arithmetic"))
            decode_coherent(q2, Matrix.identity(q2.ctx.base, 3), (1, 0, 0))

    refused = [  # (call, vectors it would list)
        (lambda: next(q2.c1.codewords()), 256),
        (q2.messages, 16),
        (lambda: JointDistribution.uniform(q2), 256),
        (packed_decode, 256),
        (lambda: decode_coherent(q3, Matrix.identity(q3.ctx.base, 2), (1, 0)), 27),
        (lambda: capability_report(q3, 0, 0), 27),
    ]
    assert [_refusal(call) for call, _ in refused] == [
        f"scan cap: {count} vectors over F_(q^m) exceed cap 10" for _, count in refused]


def test_one_refusal_for_a_scheme_past_the_scan_cap():
    # |C1| = 2^21 over F_2^7: leakage, a decode and the full sweep refuse it
    # with one message (the packed row-space check still verifies it)
    wide = build_proposed(ctx_new(2, 7), l=2, n=3, k=3)
    A, Y = Matrix.identity(wide.ctx.base, 3), (0, 0, 0)
    messages = {_refusal(lambda: JointDistribution.uniform(wide)),
                _refusal(lambda: decode_coherent(wide, A, Y)),
                _refusal(lambda: capability_report(wide, 0, 0, mode="exhaustive-full"))}
    assert messages == {"scan cap: 2097152 vectors over F_(q^m) exceed cap 1048576"}


def test_every_base_field_enumeration_reads_the_enum_cap(monkeypatch):
    # subspaces.DEFAULT_ENUM_CAP, lowered once, refuses every enumeration of
    # base-field objects, all_matrices at the call and transfer families
    # before their first row space, with one message format
    f16 = ctx_new(2, 4)
    q2 = build_proposed(f16, l=1, n=3, k=2)
    q3 = build_proposed(ctx_new(3, 4), l=1, n=3, k=1)
    lifted = lift(q2, ctx_new(2, 7))
    monkeypatch.setattr(subspaces, "DEFAULT_ENUM_CAP", 10)
    # no transfer is listed: the decoder lists row spaces as row ids only
    monkeypatch.setattr(decoder, "base_subspace_ids",
                        lambda *args: pytest.fail("a row space was listed"))
    refused = [  # (call, count, what is counted)
        (lambda: SubspaceFamily(f16, 4, 2), 35, "qinvariant subspaces"),
        (lambda: SubspaceFamily(f16, 6, 2, "coordinate"), 15, "coordinate subspaces"),
        (lambda: list(enumerate_wiretap(2, 4, 2)), 1 + 15 + 35, "row spaces"),
        (lambda: list(enumerate_wiretap(2, 2, 2, mode="full")), 16, "matrices"),
        (lambda: list(enumerate_errors(f16, 3, 1)), 1 + 7 * 15, "errors"),
        (lambda: decoder._error_keys(f16, 3, 1), 1 + 7 * 15, "errors"),
        (lambda: next(decoder._error_digits(f16, 3, 1, 1)), 1 + 7 * 15, "errors"),
        (lambda: all_matrices(2, 2, 2), 16, "matrices"),
        (lambda: discrepancy_noncoherent(lifted, (1, 2, 3), (0,), 0, mode="oracle"), 2**9,
         "matrices"),
        # the transfer row spaces of dimension >= n - rho: packed, generic, delta_min
        (lambda: capability_report(q2, 0, 2), 7 + 7 + 1, "transfer row spaces"),
        (lambda: capability_report(q3, 0, 1), 13 + 1, "transfer row spaces"),
        (lambda: decoder.delta_min_over_A(q2, 2), 7 + 7 + 1, "transfer row spaces"),
    ]
    assert [_refusal(call) for call, _, _ in refused] == [
        f"enumeration cap: {count} {what} exceed cap 10" for _, count, what in refused]
