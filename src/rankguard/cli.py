"""Command-line front end.

Subcommands: build-scheme, rgrw, rdip, equivocation, strength, simulate,
verify-capability, acceptance.  Tables go to CSV, structured reports to
JSON; identical config and seed give byte-identical output.  Exit codes:
0 success, 2 precondition violation, 3 enumeration overflow.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys

from .acceptance import run_suite
from .codes import LinearCode
from .coset_scheme import NestedScheme, build_proposed, lift
from .decoder import capability_report, require_trial_cap, trial_stream
from .errors import EnumerationTooLarge, PreconditionError, RankguardError, json_ints
from .gf import ctx_from_json, ctx_new
from .rank_metrics import rdip, weights_from_profile
from .security import JointDistribution, leakage_report, omega_bounds, omega_exact

CONFIG_VERSION = 1


def _split_rng(seed, *tags) -> random.Random:
    return random.Random(":".join([str(seed), *map(str, tags)]))


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise PreconditionError(f"{path}: expected a JSON object")
    version = data.get("version", CONFIG_VERSION)
    # bool is an int subclass and true == 1, so compare the type too
    if type(version) is not int or version != CONFIG_VERSION:
        raise PreconditionError(
            f"{path}: unsupported config version {version!r} (expected {CONFIG_VERSION})")
    return data


def _modulus_arg(text: str | None, q: int):
    if text is None:
        return None
    try:
        coeffs = [int(c) for c in text.split(",")]
    except ValueError:
        raise PreconditionError(
            f"--modulus must be comma-separated integers, got {text!r}") from None
    return json_ints(coeffs, "--modulus", q)


def cmd_build_scheme(args) -> int:
    ctx = ctx_new(args.q, args.m, _modulus_arg(args.modulus, args.q))
    scheme = build_proposed(ctx, args.l, args.n, args.k)
    _write_text(args.out, json.dumps(scheme.to_json(), indent=2, sort_keys=True) + "\n")
    return 0


def _load_pair(code_path: str, subcode_path: str) -> tuple[LinearCode, LinearCode]:
    c1 = LinearCode.from_json(_load_json(code_path))
    c2 = LinearCode.from_json(_load_json(subcode_path))
    return c1, c2


def _tables_csv(c1: LinearCode, c2: LinearCode) -> str:
    profile = rdip(c1, c2)
    weights = weights_from_profile(profile)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["parameter", "i", "value"])
    for i, v in enumerate(profile.values):
        writer.writerow(["rdip", i, v])
    for i, v in enumerate(weights.values, start=1):
        writer.writerow(["rgrw", i, v])
    return buf.getvalue()


def cmd_rgrw(args) -> int:
    c1, c2 = _load_pair(args.code, args.subcode)
    _write_text(args.out, _tables_csv(c1, c2))
    return 0


def _distribution(scheme: NestedScheme, name: str, seed) -> JointDistribution:
    if name == "uniform":
        return JointDistribution.uniform(scheme)
    if name == "seeded":
        return JointDistribution.seeded(scheme, _split_rng(seed, "dist"))
    raise PreconditionError(f"--dist must be 'uniform' or 'seeded', got {name!r}")


def cmd_equivocation(args) -> int:
    scheme = NestedScheme.from_json(_load_json(args.scheme))
    dist = _distribution(scheme, args.dist, args.seed)
    report = leakage_report(scheme, args.mu, dist)
    _write_text(args.out, json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    return 0


def cmd_strength(args) -> int:
    scheme = NestedScheme.from_json(_load_json(args.scheme))
    omega = omega_exact(scheme)
    low, high = omega_bounds(scheme)
    data = {"omega": omega, "lower_bound": low, "upper_bound": high}
    _write_text(args.out, json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_verify_capability(args) -> int:
    scheme = NestedScheme.from_json(_load_json(args.scheme))
    report = capability_report(scheme, args.t, args.rho, mode=args.mode,
                               trials=args.trials, seed=args.seed)
    _write_text(args.out, json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    return 0


def _simulate_rows(config: dict):
    required = ["q", "m", "l", "n", "k", "N", "t", "rho_max", "trials", "seed"]
    missing = [key for key in required if key not in config]
    if missing:
        raise PreconditionError(f"scenario config missing fields {missing}")
    bad = [key for key in required + ["mu"] if key != "seed" and key in config and (
        not isinstance(config[key], int) or isinstance(config[key], bool) or config[key] < 0)]
    if bad:
        raise PreconditionError(f"scenario config fields {bad} must be nonnegative integers")
    if config.get("mu", 0) != 0:
        raise PreconditionError("simulate models no wiretapper, so mu must be 0;"
                                " measure leakage with `equivocation --mu`")
    require_trial_cap(config["trials"])
    ctx = ctx_from_json(config)
    mode = config.get("mode", "coherent")
    n = config["n"]
    if mode == "coherent":
        scheme = build_proposed(ctx, config["l"], n, config["k"])
    elif mode == "noncoherent":
        inner_ctx = ctx_new(config["q"], config["m"] - n)
        scheme = lift(build_proposed(inner_ctx, config["l"], n, config["k"]), ctx)
    else:
        raise PreconditionError(f"mode must be coherent or noncoherent, got {mode!r}")
    rng = _split_rng(config["seed"], "simulate")
    stream = trial_stream(rng, scheme, config["N"], config["t"], config["rho_max"],
                          config["trials"])
    return [[trial, A.rank(), result.status, int(result.ok and result.message == S),
             result.discrepancy] for trial, (A, S, result) in enumerate(stream)]


def cmd_simulate(args) -> int:
    config = _load_json(args.config)
    rows = _simulate_rows(config)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["trial", "rank_A", "status", "success", "discrepancy"])
    writer.writerows(rows)
    _write_text(args.out, buf.getvalue())
    return 0


def cmd_acceptance(args) -> int:
    results = run_suite(args.suite)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankguard",
        description="Rank-metric code parameters and secure network coding checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-scheme", help="build the explicit systematic-MRD scheme")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--modulus", help="little-endian coefficients, e.g. 1,1,0,0,1")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_build_scheme)

    for name in ("rgrw", "rdip"):
        p = sub.add_parser(name, help="profile/weight tables of a code pair")
        p.add_argument("--code", required=True)
        p.add_argument("--subcode", required=True)
        p.add_argument("--out", default="-")
        p.set_defaults(func=cmd_rgrw)

    p = sub.add_parser("equivocation", help="worst-case leakage at mu tapped links")
    p.add_argument("--scheme", required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--dist", default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_equivocation)

    p = sub.add_parser("strength", help="universal maximum strength and its bounds")
    p.add_argument("--scheme", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_strength)

    p = sub.add_parser("simulate", help="seeded end-to-end trials to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify-capability", help="error-correction verification")
    p.add_argument("--scheme", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--mode", default="exhaustive",
                   choices=["exhaustive", "exhaustive-full", "sampled"])
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_verify_capability)

    p = sub.add_parser("acceptance", help="run a registered verification suite")
    p.add_argument("suite", help="suite name or 'all'")
    p.set_defaults(func=cmd_acceptance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EnumerationTooLarge as exc:
        print(f"error: enumeration too large: {exc}", file=sys.stderr)
        return 3
    except (PreconditionError, OSError, UnicodeDecodeError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RankguardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
