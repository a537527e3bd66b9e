import contextlib
import copy
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from rankguard.cli import main
from rankguard.codes import gabidulin, LinearCode
from rankguard.coset_scheme import NestedScheme, build_proposed
from rankguard import EnumerationTooLarge, ctx_new, decoder


def run(args):
    return main(args)


def test_build_scheme_and_reports(tmp_path, capsys):
    scheme_path = tmp_path / "scheme.json"
    assert run(["build-scheme", "--q", "2", "--m", "4", "--l", "1", "--n", "3",
                "--k", "2", "--out", str(scheme_path)]) == 0
    data = json.loads(scheme_path.read_text())
    assert data["version"] == 1
    assert (data["l"], data["n"], data["k"]) == (1, 3, 2)
    assert data["modulus"] == [1, 1, 0, 0, 1]

    report_path = tmp_path / "report.json"
    assert run(["equivocation", "--scheme", str(scheme_path), "--mu", "2",
                "--dist", "uniform", "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["max_leakage_exact_integer"] == 1
    assert report["predicted"] == 1
    assert report["sandwich_holds"]

    strength_path = tmp_path / "strength.json"
    assert run(["strength", "--scheme", str(scheme_path), "--out", str(strength_path)]) == 0
    strength = json.loads(strength_path.read_text())
    assert strength == {"omega": 1, "lower_bound": 1, "upper_bound": 1}

    cap_path = tmp_path / "cap.json"
    assert run(["verify-capability", "--scheme", str(scheme_path), "--t", "0",
                "--rho", "1", "--mode", "exhaustive", "--out", str(cap_path)]) == 0
    cap = json.loads(cap_path.read_text())
    assert cap["verified"] is True
    assert run(["verify-capability", "--scheme", str(scheme_path), "--t", "1",
                "--rho", "0", "--mode", "exhaustive", "--out", str(cap_path)]) == 0
    assert json.loads(cap_path.read_text())["verified"] is False


@pytest.mark.parametrize("command", ["rgrw", "rdip"])
def test_tables_profile_the_pair_once(tmp_path, monkeypatch, command):
    from rankguard import rank_metrics
    from test_rank_metrics import verify_bounds

    built = []

    class CountingEngine(rank_metrics._PairEngine):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(rank_metrics, "_PairEngine", CountingEngine)
    ctx = ctx_new(2, 4)
    c1 = gabidulin(ctx, 4, 2)
    c2 = LinearCode(ctx, [c1.encode((1, ctx.alpha))], 4)
    c1_path, c2_path = tmp_path / "c1.json", tmp_path / "c2.json"
    c1_path.write_text(json.dumps(c1.to_json()))
    c2_path.write_text(json.dumps(c2.to_json()))
    assert run([command, "--code", str(c1_path), "--subcode", str(c2_path),
                "--out", str(tmp_path / "table.csv")]) == 0
    memo = rank_metrics._profiles
    assert len(built) == 1 and (memo.hits, memo.misses) == (0, 1)
    built.clear()
    assert verify_bounds(c1, c2)["all"]  # the pair's table is kept from the CLI run
    assert len(built) == 0 and (memo.hits, memo.misses) == (1, 1)


def test_rgrw_tables_csv(tmp_path):
    ctx = ctx_new(2, 4)
    c1 = gabidulin(ctx, 4, 2)
    c2 = LinearCode(ctx, [c1.encode((1, ctx.alpha))], 4)
    c1_path, c2_path = tmp_path / "c1.json", tmp_path / "c2.json"
    c1_path.write_text(json.dumps(c1.to_json()))
    c2_path.write_text(json.dumps(c2.to_json()))
    out = tmp_path / "table.csv"
    assert run(["rgrw", "--code", str(c1_path), "--subcode", str(c2_path),
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "parameter,i,value"
    table = {(p, int(i)): int(v) for p, i, v in (ln.split(",") for ln in lines[1:])}
    assert table[("rdip", 0)] == 0
    assert table[("rdip", 4)] == 1
    assert table[("rgrw", 1)] == 3
    # both subcommands emit the same tables
    out2 = tmp_path / "table2.csv"
    assert run(["rdip", "--code", str(c1_path), "--subcode", str(c2_path),
                "--out", str(out2)]) == 0
    assert out.read_text() == out2.read_text()


def test_simulate_deterministic_and_successful(tmp_path):
    config = {"version": 1, "q": 2, "m": 4, "l": 1, "n": 3, "k": 2, "N": 3,
              "mu": 0, "t": 0, "rho_max": 0, "trials": 25, "seed": 9,
              "mode": "coherent"}
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(config))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = out1.read_text().strip().splitlines()[1:]
    assert len(rows) == 25
    assert all(row.split(",")[3] == "1" for row in rows)


def test_simulate_noncoherent(tmp_path):
    config = {"version": 1, "q": 2, "m": 7, "l": 1, "n": 3, "k": 2, "N": 3,
              "mu": 0, "t": 0, "rho_max": 1, "trials": 10, "seed": 3,
              "mode": "noncoherent"}
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "trials.csv"
    assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert all(row.split(",")[3] == "1" for row in rows)


@pytest.mark.parametrize("mode, m", [("coherent", 5), ("noncoherent", 9)])
def test_simulate_refuses_rho_max_above_n(tmp_path, capsys, monkeypatch, mode, m):
    # rho_max = 9 > n = 4 is refused before the first draw in both modes; the
    # coherent mode once ran every trial and exited 0
    monkeypatch.setattr(decoder, "_draw", lambda *args: pytest.fail("a trial was drawn"))
    config = {"version": 1, "q": 2, "m": m, "l": 1, "n": 4, "k": 2, "N": 4,
              "t": 0, "rho_max": 9, "trials": 5, "seed": 1, "mode": mode}
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(config))
    assert run(["simulate", "--config", str(cfg)]) == 2
    assert "need 0 <= rho <= n" in capsys.readouterr().err


def test_acceptance_subcommand(capsys):
    assert run(["acceptance", "mrd"]) == 0
    out = capsys.readouterr().out
    assert "4/4 criteria passed" in out


def test_exit_code_precondition(tmp_path, capsys):
    # reducible modulus -> precondition violation -> exit 2
    assert run(["build-scheme", "--q", "2", "--m", "4", "--modulus", "1,0,1,0,1",
                "--l", "1", "--n", "3", "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert "error" in err
    # missing scenario fields named explicitly
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"version": 1, "q": 2}))
    assert run(["simulate", "--config", str(cfg)]) == 2
    assert "missing fields" in capsys.readouterr().err


def test_exit_code_enumeration(tmp_path, capsys):
    # a scheme whose joint support overflows the exact-enumeration cap
    scheme_path = tmp_path / "big.json"
    assert run(["build-scheme", "--q", "2", "--m", "6", "--l", "1", "--n", "5",
                "--k", "4", "--out", str(scheme_path)]) == 0
    assert run(["equivocation", "--scheme", str(scheme_path), "--mu", "1",
                "--dist", "uniform"]) == 3
    assert "enumeration too large" in capsys.readouterr().err


def test_exit_codes_full_sweep(tmp_path, capsys):
    # q = 3 is a precondition of the packed full sweep, not an overflow
    scheme_path = tmp_path / "q3.json"
    assert run(["build-scheme", "--q", "3", "--m", "3", "--l", "1", "--n", "2", "--k", "1",
                "--out", str(scheme_path)]) == 0
    assert run(["verify-capability", "--scheme", str(scheme_path), "--t", "0", "--rho", "0",
                "--mode", "exhaustive-full"]) == 2
    err = capsys.readouterr().err
    assert "q = 2" in err and "enumeration too large" not in err
    # 5 x 5 transfer keys take 25 bits: the bound is named
    f16 = ctx_new(2, 4)
    c1 = LinearCode(f16, [[1, 2, 4, 8, 3]], 5)
    wide = NestedScheme(c1, LinearCode.zero(f16, 5), c1.gen)
    scheme_path.write_text(json.dumps(wide.to_json()))
    assert run(["verify-capability", "--scheme", str(scheme_path), "--t", "0", "--rho", "0",
                "--mode", "exhaustive-full"]) == 3
    assert "N*n = 25 > 22 bits" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["exhaustive", "exhaustive-full"])
def test_exit_code_error_cap(tmp_path, capsys, mode):
    # at t = 99 every 5 x 4 binary matrix is an error: 2^20 > 10^6
    scheme_path = tmp_path / "f32.json"
    assert run(["build-scheme", "--q", "2", "--m", "5", "--l", "1", "--n", "4", "--k", "1",
                "--out", str(scheme_path)]) == 0
    assert run(["verify-capability", "--scheme", str(scheme_path), "--t", "99", "--rho", "0",
                "--mode", mode]) == 3
    assert "1048576 errors exceed cap 1000000" in capsys.readouterr().err


def test_exit_code_transfer_cap(tmp_path, capsys):
    # a [12,1] code over F_2^4 at t = 0, rho = 10: the transfer family, every
    # row space of F_2^12 of dimension >= 2, is refused before it is listed.
    # At N = 2 the packed check would list all 2,794,155 row spaces; the CLI
    # takes N = n = 12, which the field-arithmetic check refuses
    f16 = ctx_new(2, 4)
    c1 = LinearCode(f16, [[1, 2, 4, 8, 3, 5, 6, 7, 9, 10, 11, 12]], 12)
    scheme = NestedScheme(c1, LinearCode.zero(f16, 12), c1.gen)
    with pytest.raises(EnumerationTooLarge,
                       match="2794155 transfer row spaces exceed cap 1000000"):
        decoder.capability_report(scheme, 0, 10, N=2)
    scheme_path = tmp_path / "wide.json"
    scheme_path.write_text(json.dumps(scheme.to_json()))
    assert run(["verify-capability", "--scheme", str(scheme_path), "--t", "0", "--rho", "10",
                "--mode", "exhaustive"]) == 3
    assert "transfer row spaces exceed cap 1000000" in capsys.readouterr().err


def test_exit_code_trial_cap(scheme_file, tmp_path, capsys, monkeypatch):
    # one trial over decoder.DEFAULT_SAMPLED_BUDGET is refused before any
    # is drawn, by verify-capability and by simulate
    monkeypatch.setattr(decoder, "_draw", lambda *args: pytest.fail("a trial was drawn"))
    assert run(["verify-capability", "--scheme", str(scheme_file), "--t", "0", "--rho", "0",
                "--mode", "sampled", "--trials", "100001"]) == 3
    assert "100001 trials exceeds cap 100000" in capsys.readouterr().err
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"version": 1, "q": 2, "m": 4, "l": 1, "n": 3, "k": 2, "N": 3,
                               "t": 0, "rho_max": 0, "trials": 100001, "seed": 7}))
    assert run(["simulate", "--config", str(cfg)]) == 3
    assert "100001 trials exceeds cap 100000" in capsys.readouterr().err


def test_unknown_suite(capsys):
    assert run(["acceptance", "nope"]) == 2
    assert "unknown suite" in capsys.readouterr().err


@pytest.fixture
def scheme_file(tmp_path):
    path = tmp_path / "scheme.json"
    assert run(["build-scheme", "--q", "2", "--m", "4", "--l", "1", "--n", "3",
                "--k", "2", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("args, code", [
    (["equivocation", "--mu", "-1"], 2),
    (["equivocation", "--mu", "99"], 0),  # beyond n, predicted as K_n
    (["verify-capability", "--t", "-1", "--rho", "0"], 2),
    (["verify-capability", "--t", "0", "--rho", "4"], 2),
    (["verify-capability", "--t", "0", "--rho", "1", "--mode", "sampled",
      "--trials", "-3"], 2),
], ids=["mu-negative", "mu-beyond-n", "t-negative", "rho-beyond-n", "trials-negative"])
def test_out_of_range_numbers(scheme_file, tmp_path, capsys, args, code):
    out = tmp_path / "out.json"
    assert run([*args, "--scheme", str(scheme_file), "--out", str(out)]) == code
    if code == 2:
        assert "error" in capsys.readouterr().err
    else:
        report = json.loads(out.read_text())
        assert report["predicted"] == report["max_leakage_exact_integer"] == 1


@pytest.mark.parametrize("corrupt", [
    lambda d: d["c1"].__setitem__("generator", 5),
    lambda d: d["c2"]["generator"].__setitem__("entries", "rows"),
    lambda d: d["delta_g"].__setitem__("entries", [[1, 0, 0]]),
    lambda d: d["delta_g"].__setitem__("entries", [[[3, 0, 0, 0]] * 3]),
    lambda d: d.__setitem__("q", "2"),
    lambda d: d.__setitem__("modulus", "11001"),
    lambda d: d.pop("c2"),
    lambda d: d["c1"].__setitem__("q", 3),
    lambda d: d["c2"].__setitem__("modulus", [1, 0, 0, 1, 1]),
    lambda d: d.__setitem__("n", 7),
    lambda d: d.__setitem__("l", 2),
    lambda d: d.__setitem__("k", 1),
    lambda d: d["c1"].__setitem__("k", 1),
    lambda d: d["c2"].__setitem__("n", "3"),
    lambda d: d["c1"].__setitem__("modulus", [True, 1, 0, 0, 1]),
    lambda d: d["delta_g"].__setitem__("rows", 2),
    lambda d: d["delta_g"]["entries"][0].__setitem__(0, [0, 0, 0]),  # 0 in 3 of m = 4 digits
], ids=["generator-int", "entries-str", "entry-not-coeffs", "coeff-out-of-range",
        "q-str", "modulus-str", "c2-missing", "c1-other-q", "c2-other-modulus", "n-disagrees",
        "l-disagrees", "k-disagrees", "c1-k-disagrees", "c2-n-str", "c1-modulus-bool",
        "delta-g-rows-disagree", "coeffs-short"])
def test_malformed_scheme_json(scheme_file, capsys, corrupt):
    data = json.loads(scheme_file.read_text())
    corrupt(data)
    scheme_file.write_text(json.dumps(data))
    assert run(["strength", "--scheme", str(scheme_file)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("n", "3"), ("trials", -4), ("t", -1), ("k", True),
                                          ("mu", -1), ("mu", "2")])
def test_bad_scenario_numbers(tmp_path, capsys, field, value):
    config = {"version": 1, "q": 2, "m": 4, "l": 1, "n": 3, "k": 2, "N": 3,
              "t": 0, "rho_max": 0, "trials": 5, "seed": 1, field: value}
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(config))
    assert run(["simulate", "--config", str(cfg)]) == 2
    assert "must be nonnegative integers" in capsys.readouterr().err


@pytest.mark.parametrize("modulus", ["abc", 5, [True, 1, 0, 0, 1], [1, 2, 0, 0, 1]])
def test_bad_scenario_modulus(tmp_path, capsys, modulus):
    config = {"version": 1, "q": 2, "m": 4, "l": 1, "n": 3, "k": 2, "N": 3,
              "t": 0, "rho_max": 0, "trials": 5, "seed": 1, "modulus": modulus}
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(config))
    assert run(["simulate", "--config", str(cfg)]) == 2
    assert "modulus must be a list of integers in 0..1" in capsys.readouterr().err


@pytest.mark.parametrize("modulus", ["1,x,0,0,1", "", "1,2,0,0,1"])
def test_bad_modulus_flag(capsys, modulus):
    assert run(["build-scheme", "--q", "2", "--m", "4", "--modulus", modulus,
                "--l", "1", "--n", "3", "--k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--modulus must be" in captured.err


def test_unreadable_files_exit_2(tmp_path, scheme_file, capsys):
    # a directory where a file is expected, and a file that is not UTF-8
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"version": 1, "q": "\xe9"}')
    for args in (["rgrw", "--code", str(tmp_path), "--subcode", str(scheme_file)],
                 ["strength", "--scheme", str(latin)],
                 ["simulate", "--config", str(latin)],
                 ["build-scheme", "--m", "4", "--l", "1", "--n", "3", "--k", "2",
                  "--out", str(tmp_path)]):
        assert run(args) == 2, args
        assert "error" in capsys.readouterr().err


def test_non_object_json(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    assert run(["simulate", "--config", str(cfg)]) == 2
    assert "expected a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("version, shown", [("1", "'1'"), (2, "2"), (True, "True")])
def test_unsupported_config_version(tmp_path, capsys, version, shown):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({**SCENARIO, "version": version}))
    assert run(["simulate", "--config", str(cfg)]) == 2
    assert f"unsupported config version {shown} (expected 1)" in capsys.readouterr().err


@pytest.mark.parametrize("mu", [2, 99])
def test_simulate_refuses_wiretap(tmp_path, capsys, mu):
    # simulate models no wiretapper: a nonzero mu is refused, not ignored
    config = {"version": 1, "q": 2, "m": 4, "l": 1, "n": 3, "k": 2, "N": 3,
              "mu": mu, "t": 0, "rho_max": 0, "trials": 5, "seed": 1}
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(config))
    assert run(["simulate", "--config", str(cfg)]) == 2
    assert "equivocation --mu" in capsys.readouterr().err


@pytest.mark.parametrize("subcode", [
    lambda c2: {**c2.to_json(), "modulus": [1, 0, 0, 1, 1]},
    lambda c2: LinearCode(ctx_new(3, 2), [[1, 1, 1, 1]], 4).to_json(),
], ids=["modulus-x4+x3+1", "q3-m2"])
def test_subcode_over_other_field(tmp_path, capsys, subcode):
    ctx = ctx_new(2, 4)
    c1 = gabidulin(ctx, 4, 2)
    c2 = LinearCode(ctx, [c1.encode((1, ctx.alpha))], 4)
    c1_path, c2_path = tmp_path / "c1.json", tmp_path / "c2.json"
    c1_path.write_text(json.dumps(c1.to_json()))
    c2_path.write_text(json.dumps(subcode(c2)))
    assert run(["rgrw", "--code", str(c1_path), "--subcode", str(c2_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "different spaces" in captured.err


# -- fuzzing the JSON inputs ----------------------------------------------------------

SCENARIO = {"version": 1, "q": 2, "m": 4, "l": 1, "n": 3, "k": 2, "N": 3,
            "t": 0, "rho_max": 0, "trials": 2, "seed": 1}
SCHEME = build_proposed(ctx_new(2, 4), 1, 3, 2).to_json()
# small values of every JSON type, so that each example runs fast
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats(-2, 6) | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=2), inner, max_size=2)),
    max_leaves=8)
DELETE = object()


def _paths(data, prefix=()):
    for key, value in data.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


def _mutated(data, path, value):
    """A copy of data with the field at path set to value or deleted; a path
    that an earlier mutation cut off is left alone."""
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node.get(key)
        if not isinstance(node, dict):
            return data
    if value is DELETE:
        node.pop(path[-1], None)
    else:
        node[path[-1]] = value
    return data


def _run_quietly(args):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(args)
    return code, err.getvalue()


def _mutations(paths):
    """One or two (field path, new value or DELETE) pairs."""
    return st.lists(st.tuples(st.sampled_from(paths), JSON_VALUES | st.just(DELETE)),
                    min_size=1, max_size=2)


@settings(max_examples=150)
@given(_mutations(list(_paths(SCENARIO)) + [("modulus",), ("mode",), ("mu",)]))
def test_fuzz_scenario_fields(mutations):
    config = SCENARIO
    for path, value in mutations:
        config = _mutated(config, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "scenario.json")
        with open(cfg, "w") as fh:
            json.dump(config, fh)
        code, err = _run_quietly(["simulate", "--config", cfg])
    assert code in (0, 2, 3) and "Traceback" not in err


@settings(max_examples=150)
@given(_mutations(list(_paths(SCHEME))))
def test_fuzz_scheme_fields(mutations):
    scheme = SCHEME
    for path, value in mutations:
        scheme = _mutated(scheme, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scheme.json")
        with open(path, "w") as fh:
            json.dump(scheme, fh)
        code, err = _run_quietly(["equivocation", "--scheme", path, "--mu", "1"])
    assert code in (0, 2, 3) and "Traceback" not in err
