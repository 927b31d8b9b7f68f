"""Command line front end.

Subcommands mirror the library layers: `projections verify` prints the
conformity table, `ellipticity` measures one operator, `kato fuzz`
batch-checks an inequality, `field run` samples a scenario field, and
`suite all` chains smoke versions of everything.  Output is JSON
(default) or CSV, written to stdout or --out, and is byte-identical for
identical configuration: no timestamps, sorted keys, fixed column
orders.  Exit codes: 0 all checks passed, 1 a verification failed,
2 usage or configuration errors.
"""

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import (
    BadDegree,
    ConfigError,
    NotConformal,
    NotSurjective,
    UnknownName,
    UnknownScenario,
    VerificationError,
)
from .fields import (
    FIELD_MARGIN_TOL_FACTOR,
    evaluate_scenario,
    make_scenario,
    run_scenario,
    sample_points,
    scenario_grid,
)
from .kato import fuzz_hodge_inequality, fuzz_operator_inequality
from .projections import (
    clifford_projection,
    conformity_report,
    contraction_projection,
    exterior_projection,
    interior_projection,
    symmetrization_projection,
    twistor_projection,
)
from .symbols import (
    catalog,
    ellipticity_constant,
    exact_to_json,
    parse_op_string,
    quasi_unit_covectors,
    symbol_at,
)

DEFAULT_TABLE_TOL = 1e-10
TWISTOR_SYMBOL_SAMPLES = 64


# ---------------------------------------------------------------------------
# output plumbing


def _write_report(args, payload: dict, header, rows) -> None:
    """The JSON payload, or the CSV header and rows, to --out or stdout."""
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow(["" if x is None else x for x in row])
        text = buf.getvalue()
    else:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# conformity table


_FAMILY_DEGREES = {
    # the verified degree window of each catalog family
    "exterior": lambda n: range(0, n),
    "interior": lambda n: range(1, n + 1),
    "symmetrization": lambda n: range(1, n),
    "contraction": lambda n: range(1, n),
}

_FAMILY_BUILDERS = {
    "exterior": exterior_projection,
    "interior": interior_projection,
    "symmetrization": symmetrization_projection,
    "contraction": contraction_projection,
}

_FAMILY_DECLARED = {
    "exterior": lambda n, k: Fraction(k + 1),
    "interior": lambda n, k: Fraction(n - k + 1),
    "symmetrization": lambda n, k: Fraction((k + 1) ** 2),
    "contraction": lambda n, k: Fraction(n + k - 1, k),
}


def _conformity_row(family: str, n: int, k, P, declared, tolerance: float) -> dict:
    rep = conformity_report(P, tol=tolerance)
    gap = abs(rep.rho_squared - float(declared)) / float(declared)
    return {
        "family": family, "n": n, "k": k,
        "declared": exact_to_json(declared),
        "measured": rep.rho_squared,
        "residual": max(rep.residual, gap),
        "ok": bool(rep.certified and gap <= tolerance),
    }


def conformity_table(max_n: int, tolerance: float) -> list:
    """One row per catalog projection for every dimension up to max_n."""
    rows = []
    for n in range(2, max_n + 1):
        for family in ("exterior", "interior", "symmetrization", "contraction"):
            for k in _FAMILY_DEGREES[family](n):
                rows.append(_conformity_row(
                    family, n, k, _FAMILY_BUILDERS[family](n, k),
                    _FAMILY_DECLARED[family](n, k), tolerance))
        rows.append(_conformity_row("clifford", n, None, clifford_projection(n),
                                    Fraction(n), tolerance))
        rows.append(_conformity_row("twistor", n, None, twistor_projection(n),
                                    Fraction(1), tolerance))
    return rows


def twistor_symbol_rows(max_n: int, tolerance: float,
                        samples: int = TWISTOR_SYMBOL_SAMPLES) -> list:
    """Pointwise twistor symbol law: P_v* P_v is ((n-1)/n) * identity."""
    rows = []
    for n in range(2, max_n + 1):
        op = catalog("twistor", n)
        target = (n - 1) / n
        worst = 0.0
        for v in quasi_unit_covectors(n, samples):
            M = symbol_at(op, v).matrix
            dev = np.linalg.norm(M.conj().T @ M - target * np.eye(M.shape[1]), 2)
            worst = max(worst, float(dev) / target)
        rows.append({
            "family": "twistor-symbol", "n": n, "k": None,
            "declared": exact_to_json(Fraction(n - 1, n)),
            "measured": None, "residual": worst,
            "ok": bool(worst <= tolerance),
        })
    return rows


def _cmd_projections_verify(args) -> int:
    if args.max_n < 2 or not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        print("error: --max-n >= 2 and a finite --tolerance >= 0 are required",
              file=sys.stderr)
        return 2
    rows = conformity_table(args.max_n, args.tolerance)
    rows += twistor_symbol_rows(args.max_n, args.tolerance)
    passed = all(r["ok"] for r in rows)
    payload = {
        "command": "projections verify",
        "version": __version__,
        "max_n": args.max_n,
        "tolerance": args.tolerance,
        "rows": rows,
        "passed": passed,
    }
    header = ["family", "n", "k", "declared", "measured", "residual", "ok"]
    _write_report(args, payload, header, [[r[h] for h in header] for r in rows])
    if not passed:
        first = next(r for r in rows if not r["ok"])
        print(f"first failing entry: {first['family']} n={first['n']} "
              f"k={first['k']} residual={first['residual']:.3e} "
              f"tolerance={args.tolerance:.3e}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# ellipticity


def _cmd_ellipticity(args) -> int:
    if args.coarse < 1 or args.refine < 0:
        print("error: --coarse >= 1 and --refine >= 0 are required",
              file=sys.stderr)
        return 2
    op = parse_op_string(args.op)
    result = ellipticity_constant(op, coarse_samples=args.coarse,
                                  refine_steps=args.refine)
    matches = result.matches_declared()
    payload = {
        "command": "ellipticity",
        "version": __version__,
        "op": args.op,
        **result.to_json_dict(),
        "rho_squared": exact_to_json(op.rho_squared),
        "matches_declared": matches,
    }
    header = ["op", "epsilon", "declared", "matches", "method",
              "invariant", "samples", "refinement_steps"]
    row = [args.op, result.epsilon, exact_to_json(result.declared),
           matches, result.method, result.invariant, result.samples,
           result.refinement_steps]
    _write_report(args, payload, header, [row])
    return 0 if matches is not False else 1


# ---------------------------------------------------------------------------
# fuzzing


def _cmd_kato_fuzz(args) -> int:
    if args.samples < 1 or args.dim_e < 1:
        print("error: samples >= 1 and --dim-e >= 1 are required", file=sys.stderr)
        return 2
    if args.theorem == "foldo":
        if not args.op:
            print("error: --theorem foldo needs --op", file=sys.stderr)
            return 2
        op = parse_op_string(args.op)
        report = fuzz_operator_inequality(op, args.samples, args.seed,
                                          c_fixed=args.c)
    else:
        if args.op:
            parts = args.op.split(":")
            if parts[0] != "hodge" or len(parts) != 3:
                print("error: --theorem hodge takes --op hodge:n:k or --n/--k",
                      file=sys.stderr)
                return 2
            args.n, args.k = int(parts[1]), int(parts[2])
        if args.n is None or args.k is None:
            print("error: --theorem hodge needs --n and --k", file=sys.stderr)
            return 2
        report = fuzz_hodge_inequality(args.n, args.k, args.dim_e,
                                       args.samples, args.seed,
                                       c_fixed=args.c, cstar_fixed=args.c_star)
    payload = {
        "command": "kato fuzz",
        "version": __version__,
        **report.to_json_dict(),
    }
    header = ["theorem", "operator", "samples", "violations",
              "min_margin", "min_relative_margin", "seed", "passed"]
    row = [report.theorem, report.operator, report.samples,
           report.violations, report.min_margin,
           report.min_relative_margin, report.seed, report.passed]
    _write_report(args, payload, header, [row])
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# field scenarios


def _dump_points(path: str, sc_name: str, n: int, k, c, c_star, grid: int,
                 seed: int) -> None:
    sc = make_scenario(sc_name, n, k=k, seed=seed)
    X = sample_points(sc.n, grid)
    ev = evaluate_scenario(sc, X, c, c_star)
    header = [f"x{i + 1}" for i in range(sc.n)] + ["margin", "scale", "ok"]
    rows = []
    for p, m, s, odd in zip(ev["points"], ev["margin"], ev["tol_scale"], ev["nonfinite"]):
        rows.append(list(p) + [m, s, bool(not odd and m >= -FIELD_MARGIN_TOL_FACTOR * s)])
    with open(path, "w", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _cmd_field_run(args) -> int:
    if args.grid < 1:
        print("error: grid >= 1 is required", file=sys.stderr)
        return 2
    report = run_scenario(args.scenario, args.n, k=args.k, c=args.c,
                          c_star=args.c_star, points=args.grid,
                          seed=args.seed)
    if args.dump_points:
        _dump_points(args.dump_points, args.scenario, args.n, args.k,
                     args.c, args.c_star, args.grid, args.seed)
    payload = {
        "command": "field run",
        "version": __version__,
        **report.to_json_dict(),
    }
    header = ["scenario", "theorem", "operator", "n", "k", "c", "c_star",
              "sample_points", "skipped_points", "violations",
              "min_margin", "branch", "passed"]
    row = [report.scenario, report.theorem, report.operator, report.n,
           report.k, report.c, report.c_star, report.sample_points,
           report.skipped_points, report.violations, report.min_margin,
           report.branch, report.passed]
    _write_report(args, payload, header, [row])
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# suite


def _cmd_suite_all(args) -> int:
    components = []
    table_rows = conformity_table(3, DEFAULT_TABLE_TOL)
    table_rows += twistor_symbol_rows(3, DEFAULT_TABLE_TOL)
    components.append({
        "component": "projections",
        "name": "conformity-table-max-n-3",
        "passed": all(r["ok"] for r in table_rows),
        "detail": {"rows": len(table_rows)},
    })
    for spec in ("dirac:3", "twistor:3", "hodge:4:2"):
        op = parse_op_string(spec)
        result = ellipticity_constant(op)
        components.append({
            "component": "ellipticity",
            "name": spec,
            "passed": result.matches_declared() is not False,
            "detail": {"epsilon": result.epsilon, "method": result.method},
        })
    for i, spec in enumerate(("dirac:3", "twistor:4")):
        op = parse_op_string(spec)
        rep = fuzz_operator_inequality(op, 20000, args.seed + i)
        components.append({
            "component": "kato-fuzz",
            "name": f"foldo {spec}",
            "passed": rep.passed,
            "detail": {"violations": rep.violations,
                       "min_relative_margin": rep.min_relative_margin},
        })
    rep = fuzz_hodge_inequality(4, 2, 1, 20000, args.seed + 7)
    components.append({
        "component": "kato-fuzz",
        "name": "hodge 4:2",
        "passed": rep.passed,
        "detail": {"violations": rep.violations,
                   "min_relative_margin": rep.min_relative_margin},
    })
    for j, (name, n, k) in enumerate((("generic-form", 3, 2),
                                      ("closed-form", 3, 2),
                                      ("yang-mills-F", 4, 2),
                                      ("dirac-spinor", 3, None),
                                      ("twistor-spinor", 3, None))):
        rep = run_scenario(name, n, k=k, points=2000, seed=args.seed + 10 + j)
        components.append({
            "component": "field",
            "name": f"{name} n={n}",
            "passed": rep.passed,
            "detail": {"violations": rep.violations,
                       "min_relative_margin": rep.min_relative_margin,
                       "symbol_residual": rep.symbol_residual},
        })
    passed = all(c["passed"] for c in components)
    payload = {
        "command": "suite all",
        "version": __version__,
        "seed": args.seed,
        "components": components,
        "passed": passed,
    }
    _write_report(args, payload, ["component", "name", "passed"],
                  [[c["component"], c["name"], c["passed"]] for c in components])
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# configuration files


def _parse_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, val = line.partition("=")
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from None
    return values


def _coerce(raw: str, like) -> object:
    if isinstance(like, bool):
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"expected a boolean, got '{raw}'")
    if like is None or isinstance(like, str):
        return raw
    try:
        return type(like)(raw)
    except ValueError:
        raise ConfigError(f"cannot parse '{raw}' as {type(like).__name__}") from None


def _apply_config(args: argparse.Namespace, argv: list) -> None:
    config = _parse_config_file(args.config)
    for key, raw in config.items():
        if key in ("config",):
            raise ConfigError("config files cannot nest")
        if not hasattr(args, key) or key.startswith("_"):
            raise ConfigError(f"unknown config key '{key}' for this command")
        flag = "--" + key.replace("_", "-")
        explicit = any(tok == flag or tok.startswith(flag + "=") for tok in argv)
        if explicit:
            continue  # command line beats the file
        current = getattr(args, key)
        converter = args._types.get(key)
        if converter is not None:
            try:
                value = converter(raw)
            except (TypeError, ValueError):
                raise ConfigError(f"cannot parse '{raw}' for key '{key}'") from None
        else:
            value = _coerce(raw, current)
        setattr(args, key, value)


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(p: argparse.ArgumentParser, types: dict) -> None:
    p.add_argument("--config", help="key = value file with defaults for this command")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write the report here instead of stdout")
    types.update({"format": str, "out": str})


def build_parser():
    parser = argparse.ArgumentParser(
        prog="katolab",
        description="verification laboratory for refined Kato inequalities")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    proj = sub.add_parser("projections", help="conformal projection checks")
    proj_sub = proj.add_subparsers(dest="subcommand", required=True)
    pv = proj_sub.add_parser("verify", help="conformity table of the catalog")
    t: dict = {}
    pv.add_argument("--max-n", type=int, default=6)
    pv.add_argument("--tolerance", type=float, default=DEFAULT_TABLE_TOL)
    t.update({"max_n": int, "tolerance": float})
    _add_common(pv, t)
    pv.set_defaults(handler=_cmd_projections_verify, _types=t)

    el = sub.add_parser("ellipticity", help="measure an ellipticity constant")
    t = {}
    el.add_argument("--op", required=True,
                    help="operator as name:n[:k], e.g. dirac:3 or hodge:4:2")
    el.add_argument("--coarse", type=int, default=256)
    el.add_argument("--refine", type=int, default=20)
    t.update({"op": str, "coarse": int, "refine": int})
    _add_common(el, t)
    el.set_defaults(handler=_cmd_ellipticity, _types=t)

    kato = sub.add_parser("kato", help="inequality fuzzing")
    kato_sub = kato.add_subparsers(dest="subcommand", required=True)
    kf = kato_sub.add_parser("fuzz", help="batch-check an inequality")
    t = {}
    kf.add_argument("--theorem", choices=("foldo", "hodge"), required=True)
    kf.add_argument("--op", help="operator for foldo, optional hodge:n:k for hodge")
    kf.add_argument("--n", type=int)
    kf.add_argument("--k", type=int)
    kf.add_argument("--dim-e", type=int, default=1)
    kf.add_argument("--c", type=float, help="fix the interpolation weight")
    kf.add_argument("--c-star", type=float, help="fix the second weight (hodge)")
    kf.add_argument("--samples", type=int, default=100000)
    kf.add_argument("--seed", type=int, default=0)
    t.update({"theorem": str, "op": str, "n": int, "k": int, "dim_e": int,
              "c": float, "c_star": float, "samples": int, "seed": int})
    _add_common(kf, t)
    kf.set_defaults(handler=_cmd_kato_fuzz, _types=t)

    fl = sub.add_parser("field", help="field scenario runs")
    fl_sub = fl.add_subparsers(dest="subcommand", required=True)
    fr = fl_sub.add_parser("run", help="sample a scenario and check margins")
    t = {}
    fr.add_argument("--scenario", required=True)
    fr.add_argument("--n", type=int, required=True)
    fr.add_argument("--k", type=int)
    fr.add_argument("--c", type=float, default=1.0)
    fr.add_argument("--c-star", type=float, default=1.0)
    fr.add_argument("--grid", type=int, default=10000,
                    help="number of sample points")
    fr.add_argument("--seed", type=int, default=0)
    fr.add_argument("--dump-points", help="write per-point margins to this CSV")
    t.update({"scenario": str, "n": int, "k": int, "c": float,
              "c_star": float, "grid": int, "seed": int, "dump_points": str})
    _add_common(fr, t)
    fr.set_defaults(handler=_cmd_field_run, _types=t)

    su = sub.add_parser("suite", help="composed runs")
    su_sub = su.add_subparsers(dest="subcommand", required=True)
    sa = su_sub.add_parser("all", help="smoke-size pass over every layer")
    t = {}
    sa.add_argument("--seed", type=int, default=0)
    t.update({"seed": int})
    _add_common(sa, t)
    sa.set_defaults(handler=_cmd_suite_all, _types=t)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code
        return 0 if code is None else int(code) if str(code).isdigit() else 2
    try:
        if getattr(args, "config", None):
            _apply_config(args, argv)
        return args.handler(args)
    except (ConfigError, UnknownName, UnknownScenario, BadDegree, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (NotSurjective, NotConformal) as e:
        print(f"verification error: {e}", file=sys.stderr)
        return 1
    except VerificationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
