"""Command line front end.

Subcommands mirror the library layers: `projections verify` prints the
conformity table, `ellipticity` measures one operator, `kato fuzz`
batch-checks an inequality, `field run` samples a scenario field, and
`suite all` chains smoke versions of everything.  Output is JSON
(default) or CSV, written to stdout or --out, and is byte-identical for
identical configuration: no timestamps, sorted keys, fixed column
orders.  Exit codes: 0 all checks passed, 1 a verification failed,
2 usage or configuration errors, or a run out of memory.
"""

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

from . import __version__
from .errors import BrokenIdentity, ConfigError, NotConformal, NotSurjective, VerificationError
from .fields import (
    evaluate_scenario,
    make_scenario,
    run_scenario,
    sample_points,
    scenario_report,
)
from .kato import fuzz_hodge_inequality, fuzz_operator_inequality
from .projections import DEFAULT_CONFORMITY_TOL, conformity_table, exact_to_json
from .symbols import (
    DEFAULT_DIRECTIONS,
    ellipticity_constant,
    parse_op_string,
    twistor_symbol_rows,
)


# ---------------------------------------------------------------------------
# output plumbing


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(["" if x is None else x for x in row])
    return buf.getvalue()


def _write_file(path: str, text: str, mode: str = "w") -> None:
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror}") from None


def _check_writable(path: str) -> None:
    """ConfigError now, before any run, if path cannot be written; creates no file."""
    existed = os.path.lexists(path)
    _write_file(path, "", mode="a")
    if not existed:
        os.remove(path)


def _write_report(args, command: str, fields: dict, header, rows) -> None:
    """The JSON report (command, version and fields), or the CSV header and
    rows, to --out or stdout."""
    if args.format == "csv":
        text = _csv_text(header, rows)
    else:
        payload = {"command": command, "version": __version__, **fields}
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out:
        _write_file(args.out, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# conformity table


def _cmd_projections_verify(args) -> int:
    if args.max_n < 2 or not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ConfigError("--max-n >= 2 and a finite --tolerance >= 0 are required")
    rows = conformity_table(args.max_n, args.tolerance)
    rows += twistor_symbol_rows(args.max_n, args.tolerance)
    passed = all(r["ok"] for r in rows)
    header = ["family", "n", "k", "declared", "measured", "residual", "ok"]
    _write_report(args, "projections verify",
                  {"max_n": args.max_n, "tolerance": args.tolerance, "rows": rows,
                   "passed": passed},
                  header, [[r[h] for h in header] for r in rows])
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
        raise ConfigError("--coarse >= 1 and --refine >= 0 are required")
    op = parse_op_string(args.op)
    result = ellipticity_constant(op, coarse_samples=args.coarse,
                                  refine_steps=args.refine)
    fields = {"op": args.op, **result.to_json_dict(),
              "rho_squared": exact_to_json(op.rho_squared)}
    header = ["op", "epsilon", "declared", "matches", "method",
              "invariant", "samples", "refinement_steps"]
    row = [fields[key] for key in ("op", "epsilon", "declared_epsilon",
                                   "matches_declared", "method", "invariant",
                                   "samples", "refinement_steps")]
    _write_report(args, "ellipticity", fields, header, [row])
    return 0 if fields["matches_declared"] is not False else 1


# ---------------------------------------------------------------------------
# fuzzing


def _cmd_kato_fuzz(args) -> int:
    if args.samples < 1 or (args.dim_e is not None and args.dim_e < 1):
        raise ConfigError("samples >= 1 and --dim-e >= 1 are required")
    # flags the run would ignore: a foldo operator fixes all but --c,
    # a hodge --op the degrees
    unused = ("n", "k", "dim_e", "c_star") if args.theorem == "foldo" else (
        ("n", "k") if args.op else ())
    given = ["--" + key.replace("_", "-") for key in unused if getattr(args, key) is not None]
    if given:
        raise ConfigError(f"--theorem {args.theorem} {'with --op ' if args.op else ''}"
                          f"ignores {', '.join(given)}")
    if args.theorem == "foldo":
        if not args.op:
            raise ConfigError("--theorem foldo needs --op")
        op = parse_op_string(args.op)
        report = fuzz_operator_inequality(op, args.samples, args.seed,
                                          c_fixed=args.c)
    else:
        if args.op:
            op = parse_op_string(args.op)
            if op.name != "hodge":
                raise ConfigError("--theorem hodge takes --op hodge:n:k or --n/--k")
            # the degree is that of the forms the operator acts on
            args.n, args.k = op.base_dim, int(args.op.split(":")[2])
        if args.n is None or args.k is None:
            raise ConfigError("--theorem hodge needs --n and --k")
        report = fuzz_hodge_inequality(args.n, args.k, args.dim_e or 1,
                                       args.samples, args.seed,
                                       c_fixed=args.c, cstar_fixed=args.c_star)
    fields = report.to_json_dict()
    header = ["theorem", "operator", "samples", "violations",
              "min_margin", "min_relative_margin", "seed", "passed"]
    _write_report(args, "kato fuzz", fields, header, [[fields[h] for h in header]])
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# field scenarios


def _cmd_field_run(args) -> int:
    if args.grid < 1:
        raise ConfigError("grid >= 1 is required")
    sc = make_scenario(args.scenario, args.n, k=args.k, seed=args.seed)
    if sc.theorem != "hodge" and args.c_star is not None:
        raise ConfigError(f"{args.scenario} ignores --c-star")
    X = sample_points(sc.n, args.grid)
    ev = evaluate_scenario(sc, X, args.c, 1.0 if args.c_star is None else args.c_star)
    if args.dump_points:
        # one row per kept point: coordinates, margin, tolerance scale, ok
        _write_file(args.dump_points, _csv_text(
            [f"x{i + 1}" for i in range(sc.n)] + ["margin", "scale", "ok"],
            (list(p) + [m, s, bool(ok)] for p, m, s, ok
             in zip(ev["points"], ev["margin"], ev["tol_scale"], ev["ok"]))))
    fields = scenario_report(sc, X, ev, args.c, args.seed).to_json_dict()
    header = ["scenario", "theorem", "operator", "n", "k", "c", "c_star",
              "sample_points", "skipped_points", "violations",
              "min_margin", "branch", "passed"]
    _write_report(args, "field run", fields, header, [[fields[h] for h in header]])
    return 0 if fields["passed"] else 1


# ---------------------------------------------------------------------------
# suite


def _cmd_suite_all(args) -> int:
    components = []

    def add(component, name, passed, **detail):
        components.append({"component": component, "name": name,
                           "passed": passed, "detail": detail})

    table_rows = conformity_table(3, DEFAULT_CONFORMITY_TOL)
    table_rows += twistor_symbol_rows(3, DEFAULT_CONFORMITY_TOL)
    add("projections", "conformity-table-max-n-3",
        all(r["ok"] for r in table_rows), rows=len(table_rows))
    for spec in ("dirac:3", "twistor:3", "hodge:4:2"):
        result = ellipticity_constant(parse_op_string(spec))
        add("ellipticity", spec, result.matches_declared() is not False,
            epsilon=result.epsilon, method=result.method)
    for i, spec in enumerate(("dirac:3", "twistor:4")):
        rep = fuzz_operator_inequality(parse_op_string(spec), 20000, args.seed + i)
        add("kato-fuzz", f"foldo {spec}", rep.passed, violations=rep.violations,
            min_relative_margin=rep.min_relative_margin)
    rep = fuzz_hodge_inequality(4, 2, 1, 20000, args.seed + 7)
    add("kato-fuzz", "hodge 4:2", rep.passed, violations=rep.violations,
        min_relative_margin=rep.min_relative_margin)
    for j, (name, n, k) in enumerate((("generic-form", 3, 2),
                                      ("closed-form", 3, 2),
                                      ("yang-mills-F", 4, 2),
                                      ("dirac-spinor", 3, None),
                                      ("twistor-spinor", 3, None))):
        rep = run_scenario(name, n, k=k, points=2000, seed=args.seed + 10 + j)
        add("field", f"{name} n={n}", rep.passed, violations=rep.violations,
            min_relative_margin=rep.min_relative_margin,
            symbol_residual=rep.symbol_residual)
    passed = all(c["passed"] for c in components)
    _write_report(args, "suite all",
                  {"seed": args.seed, "components": components, "passed": passed},
                  ["component", "name", "passed"],
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


# namespace entries that are not flags: the parser and dispatch set them
_INTERNAL_KEYS = ("config", "command", "subcommand", "handler")


def _with_config(args: argparse.Namespace, argv: list) -> list:
    """argv with the --config file's entries as --key=value tokens.

    The tokens go ahead of the first option, so that a flag given on the
    command line comes later and wins.  Keys must name a flag of this
    subcommand exactly: an abbreviation would otherwise reach argparse.
    """
    tokens = []
    for key, raw in _parse_config_file(args.config).items():
        if key not in vars(args) or key in _INTERNAL_KEYS:
            raise ConfigError(f"unknown config key '{key}' for this command")
        tokens.append(f"--{key.replace('_', '-')}={raw}")
    first = next(i for i, tok in enumerate(argv) if tok.startswith("-"))
    return argv[:first] + tokens + argv[first:]


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value file with defaults for this command")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write the report here instead of stdout")


@functools.cache
def build_parser():
    """The process's one parser; handlers are bound here, so patch their callees."""
    parser = argparse.ArgumentParser(
        prog="katolab",
        description="verification laboratory for refined Kato inequalities")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    proj = sub.add_parser("projections", help="conformal projection checks")
    proj_sub = proj.add_subparsers(dest="subcommand", required=True)
    pv = proj_sub.add_parser("verify", help="conformity table of the catalog")
    pv.add_argument("--max-n", type=int, default=6)
    pv.add_argument("--tolerance", type=float, default=DEFAULT_CONFORMITY_TOL)
    _add_common(pv)
    pv.set_defaults(handler=_cmd_projections_verify)

    el = sub.add_parser("ellipticity", help="measure an ellipticity constant")
    el.add_argument("--op", required=True,
                    help="operator as name:n[:k], e.g. dirac:3 or hodge:4:2")
    el.add_argument("--coarse", type=int, default=DEFAULT_DIRECTIONS,
                    help="directions swept, for the invariance test and the search")
    el.add_argument("--refine", type=int, default=20,
                    help="rounds of the local search at most, when the symbol is not invariant")
    _add_common(el)
    el.set_defaults(handler=_cmd_ellipticity)

    kato = sub.add_parser("kato", help="inequality fuzzing")
    kato_sub = kato.add_subparsers(dest="subcommand", required=True)
    kf = kato_sub.add_parser("fuzz", help="batch-check an inequality")
    kf.add_argument("--theorem", choices=("foldo", "hodge"), required=True)
    kf.add_argument("--op", help="operator for foldo, optional hodge:n:k for hodge")
    kf.add_argument("--n", type=int)
    kf.add_argument("--k", type=int)
    kf.add_argument("--dim-e", type=int, help="extra fiber dimension (hodge, default 1)")
    kf.add_argument("--c", type=float, help="fix the interpolation weight")
    kf.add_argument("--c-star", type=float, help="fix the second weight (hodge)")
    kf.add_argument("--samples", type=int, default=100000)
    kf.add_argument("--seed", type=int, default=0)
    _add_common(kf)
    kf.set_defaults(handler=_cmd_kato_fuzz)

    fl = sub.add_parser("field", help="field scenario runs")
    fl_sub = fl.add_subparsers(dest="subcommand", required=True)
    fr = fl_sub.add_parser("run", help="sample a scenario and check margins")
    fr.add_argument("--scenario", required=True)
    fr.add_argument("--n", type=int, required=True)
    fr.add_argument("--k", type=int)
    fr.add_argument("--c", type=float, default=1.0)
    fr.add_argument("--c-star", type=float, help="second weight (form scenarios, default 1.0)")
    fr.add_argument("--grid", type=int, default=10000,
                    help="number of sample points")
    fr.add_argument("--seed", type=int, default=0)
    fr.add_argument("--dump-points", help="write per-point margins to this CSV")
    _add_common(fr)
    fr.set_defaults(handler=_cmd_field_run)

    su = sub.add_parser("suite", help="composed runs")
    su_sub = su.add_subparsers(dest="subcommand", required=True)
    sa = su_sub.add_parser("all", help="smoke-size pass over every layer")
    sa.add_argument("--seed", type=int, default=0)
    _add_common(sa)
    sa.set_defaults(handler=_cmd_suite_all)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args(_with_config(args, argv))
        if getattr(args, "seed", 0) < 0:
            raise ConfigError("--seed >= 0 is required")
        for path in (args.out, getattr(args, "dump_points", None)):
            if path:
                _check_writable(path)
        return args.handler(args)
    except SystemExit as e:
        code = e.code
        return 0 if code is None else int(code) if str(code).isdigit() else 2
    except (NotSurjective, NotConformal, BrokenIdentity) as e:
        print(f"verification error: {e}", file=sys.stderr)
        return 1
    except (VerificationError, ValueError, MemoryError) as e:
        # a run that does not fit in memory is not a failed check
        print(f"error: {str(e) or repr(e)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
