"""Command-line front end.

Subcommands: nondim, simulate, picard, classify, basin, regime, verify.
All file output is deterministic (17 significant digits, LF endings, no
timestamps) except the wall-clock seconds of each check in the verify
report; run metadata is echoed into a separate .meta.json sidecar.
Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 verification failure.

Each command imports what it runs, so a fresh process pays only for that:
the solvers once its parameters have passed the `params` checks,
`stability` only in `classify`, `basin` and `simulate --classify`, and
`fractions` only in `regime`. `simulate` samples on Python floats
(`integrate.integrate_floats`, E and V from `dynamics.lyapunov_columns`),
and so does `regime` (`integrate.integrate_regime_floats`), its oracle
residuals too; `classify` solves and samples nothing (`integrate.solve`):
its verdict reads the run's step ends and its state at the horizon. All
three, like `nondim`, `basin`, `--help`, `--version` and every argv
refused by those checks, run without numpy: in a fresh process, importing
numpy would cost more than the run. `picard` and `verify` import numpy.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

from . import __version__, params as params_module
from ._format import dumps_json, write_csv, write_json, write_text
from .errors import ConsistencyError, DomainError, InconclusiveError, NumericError
from .params import (DEFAULT_INTERVALS, DEFAULT_MAX_ITER, DEFAULT_TOL, DEFAULT_TOLERANCES,
                     HORIZON_EFOLDS, MAX_INTERVALS, MAX_STEPS, MAX_TOLERANCE, MIN_REL_TOL,
                     REGIME_DEFAULT_HORIZON, REGIME_HORIZON_CAP)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

# An --input file holds eight numbers; reading a longer one whole would
# let /dev/zero or a huge file exhaust memory.
INPUT_LIMIT = 64 * 1024

STEP_RANGE_HELP = f"at least horizon/{MAX_INTERVALS} (default: horizon/{DEFAULT_INTERVALS})"
SAMPLE_STEP_HELP = "output sampling step, " + STEP_RANGE_HELP
STEP_BUDGET_HELP = f"a run that needs more than {MAX_STEPS} RK steps exits 3"
# The (abs, rel) tolerance ranges that `integrate._check_run` accepts.
TOLERANCE_RANGE = (f"(0, {MAX_TOLERANCE:g}]", f"[{MIN_REL_TOL:g}, {MAX_TOLERANCE:g}]")


def _case_name(case) -> str:
    return case.name.lower().replace("_", "-")


def _parse_case(text: str):
    """The `dynamics.RegimeCase` that text names by number or name."""
    from .dynamics import RegimeCase

    names = {spelling: case for case in RegimeCase
             for spelling in (str(int(case)), _case_name(case))}
    try:
        return names[text.strip().lower()]
    except KeyError:
        raise DomainError("case", f"unknown regime case {text!r}") from None


def _emit(obj: dict, path: str | None):
    if path:
        write_json(path, obj)
    else:
        sys.stdout.write(dumps_json(obj))


def _model_params_from_input(path: str) -> params_module.ModelParams:
    """Nondimensionalize the physical-parameter JSON file at path; a file
    that does not decode or parse as JSON, is longer than INPUT_LIMIT
    characters or nests too deeply to parse is a DomainError. The
    UserWarning of a large h0/h_e is printed as one `warning:` line on
    stderr, whatever the warning filters say; any other warning is shown as
    Python shows it."""
    try:
        with open(path) as fh:
            text = fh.read(INPUT_LIMIT + 1)
        if len(text) > INPUT_LIMIT:
            raise DomainError("input", f"{path}: longer than {INPUT_LIMIT} characters "
                                       "(64 KiB), the most an input file may hold")
        physical = params_module.physical_params_from_json(json.loads(text))
    except RecursionError:
        raise DomainError("input", f"{path}: nested too deeply to parse") from None
    except DomainError:
        raise
    except ValueError as exc:
        raise DomainError("input", f"{path}: {exc}") from None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        mp = params_module.nondimensionalize(physical)
    for w in caught:
        if issubclass(w.category, UserWarning):
            print(f"warning: {w.message}", file=sys.stderr)
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return mp


def _model_params_from_args(args) -> params_module.ModelParams:
    if getattr(args, "input", None):
        return _model_params_from_input(args.input)
    missing = [name for name in ("omega", "beta", "alpha")
               if getattr(args, name) is None]
    if missing:
        unless = " unless --input is given" if "input" in args else ""
        raise DomainError(missing[0], "required" + unless)
    return params_module.ModelParams(omega=args.omega, beta=args.beta,
                                     alpha=args.alpha)


def _classification(traj) -> dict:
    from . import stability

    out = {"linear": stability.linearize(traj.params.omega, traj.params.beta)}
    try:
        report = stability.classify_approach(traj)
        out["approach"] = report.kind
        out["final_distance"] = report.final_distance
    except InconclusiveError as exc:
        out["approach"] = "inconclusive"
        out["reason"] = str(exc)
    spec = stability.basin(traj.params.alpha)
    out["basin"] = spec
    out["audit"] = stability.audit_trajectory(traj, spec)
    return out


def _plot_script(csv_name: str, y_column: int, y_title: str, title: str) -> str:
    """A gnuplot script of the y column against scaled time. The CSV name is
    written in single quotes, each of its quotes doubled as gnuplot reads
    them; it must hold no line break."""
    csv_name = csv_name.replace("'", "''")
    return (
        "# gnuplot script; render with: gnuplot -persist <this file>\n"
        "set datafile separator ','\n"
        f"set title '{title}'\n"
        "set xlabel 'scaled time'\n"
        f"set ylabel '{y_title}'\n"
        "set grid\n"
        "set key left bottom\n"
        f"plot '{csv_name}' skip 1 using 1:{y_column} with lines title '{y_title}', \\\n"
        "     1.0 with lines dashtype 2 title 'equilibrium'\n"
    )


def _write_run(args, config_names, columns: dict, summary: dict, plot=None):
    """Write a run's file set under the prefix args.output, in this order:
    PREFIX.csv (the columns, headed by their names), PREFIX.json (summary),
    PREFIX.gp when plot = (y_name, y_title, title) names the y column, and
    the PREFIX.meta.json sidecar echoing the args named in config_names.
    Every text is rendered before any file is opened, so a refused value
    leaves no file of the set: the .gp script echoes the output path and
    the sidecar the input path, and a path that does not encode as UTF-8
    is a DomainError naming `output` or `input`, as is an output path with
    a line break, which would split the script's `plot` line."""
    prefix = args.output
    texts = {".json": dumps_json(summary)}
    if plot is not None:
        if "\n" in prefix or "\r" in prefix:
            raise DomainError("output", f"{prefix!r} holds a line break, so no gnuplot "
                                        "script can echo it")
        y_name, *titles = plot
        texts[".gp"] = _plot_script(prefix + ".csv", list(columns).index(y_name) + 1, *titles)
    texts[".meta.json"] = dumps_json({"tool": "washburn", "version": __version__,
                                      "config": {name: getattr(args, name)
                                                 for name in config_names}})
    for suffix, echoed in ((".gp", "output"), (".meta.json", "input")):
        try:
            texts.get(suffix, "").encode("utf-8")
        except UnicodeEncodeError:
            raise DomainError(echoed, f"{getattr(args, echoed)!r} does not encode as UTF-8, "
                                      "so no file can echo it") from None
    write_csv(prefix + ".csv", ",".join(columns), columns.values())
    for suffix, text in texts.items():
        write_text(prefix + suffix, text)


def cmd_nondim(args) -> int:
    mp = _model_params_from_input(args.input)
    _emit(params_module.model_params_report(mp), args.output)
    return EXIT_OK


def cmd_simulate(args) -> int:
    mp = _model_params_from_args(args)
    from .integrate import CSV_HEADER, integrate_floats, solve

    tolerances = (args.abs_tol, args.rel_tol)
    traj = integrate_floats(mp, epsilon=args.epsilon, horizon=args.horizon,
                            tolerances=tolerances, sample_step=args.sample_step)
    summary = {
        "params": params_module.model_params_report(mp),
        "epsilon": traj.epsilon,
        "horizon": traj.horizon,
        "sample_step": traj.sample_step,
        "tolerances": {"abs": traj.tolerances[0], "rel": traj.tolerances[1]},
        "final_state": {"s": float(traj.s[-1]), "u": float(traj.u[-1]),
                        "v": float(traj.v[-1]), "H": float(traj.H[-1])},
        "final_distance_to_equilibrium": traj.final_distance_to_equilibrium(),
        "crossings": traj.crossings,
    }
    if traj.epsilon > 0.0:
        twin = solve(mp, 0.0, traj.horizon, tolerances).dense.sample(traj.s)[0]
        summary["sup_distance_to_unregularized"] = max(
            [abs(a - b) for a, b in zip(traj.u, twin)])
    if args.classify:
        summary["classification"] = _classification(traj)
    _write_run(args, ("omega", "beta", "alpha", "epsilon", "horizon", "sample_step",
                      "abs_tol", "rel_tol", "classify", "input"),
               {n: getattr(traj, n) for n in CSV_HEADER.split(",")}, summary,
               ("H", "H", f"omega={mp.omega:g} beta={mp.beta:g} alpha={mp.alpha:g}"))
    return EXIT_OK


def cmd_picard(args) -> int:
    mp = _model_params_from_args(args)
    from . import volterra

    result = volterra.picard_solve(mp.omega, mp.beta, mp.alpha,
                                   args.horizon, step=args.step, tol=args.tol,
                                   max_iter=args.max_iter)
    summary = {
        "iterations": result.iterations,
        "final_diff": result.final_diff,
        "h": result.step,
        "sup_norm_log": list(result.diffs),
    }
    _write_run(args, ("omega", "beta", "alpha", "horizon", "step", "tol", "max_iter"),
               {"s": result.solution.grid, "u": result.solution.values}, summary)
    return EXIT_OK


def cmd_classify(args) -> int:
    mp = _model_params_from_args(args)
    from . import stability
    from .integrate import solve

    run = solve(mp, horizon=args.horizon, tolerances=(args.abs_tol, args.rel_tol))
    report = stability.classify_approach(run)
    _emit({
        "params": params_module.model_params_report(mp),
        "approach": report.kind,
        "crossings": run.crossings,
        "final_distance": report.final_distance,
        "linear": stability.linearize(mp.omega, mp.beta),
    }, args.output)
    return EXIT_OK


def cmd_basin(args) -> int:
    from . import stability

    spec = stability.basin(args.alpha)
    _emit({"alpha": args.alpha, **spec._asdict()}, args.output)
    return EXIT_OK


def cmd_regime(args) -> int:
    from fractions import Fraction

    from .dynamics import RegimeSpec

    case = _parse_case(args.case)
    b = args.b_exponent
    if b is not None:
        if not math.isfinite(b):
            raise DomainError("b", f"must be finite, got {b!r}")
        b = Fraction(repr(b))  # the decimal the user typed: 0.1 gives 1/10
    spec = RegimeSpec.standard(case, b=b)
    from .integrate import integrate_regime_floats, regime_oracle_residuals

    traj = integrate_regime_floats(spec, beta=args.beta, alpha=args.alpha,
                                   horizon=args.horizon, sample_step=args.sample_step)
    oracle_name, resid = regime_oracle_residuals(traj)
    columns = {"t": traj.t, "u": traj.u, "v": traj.v, "h": traj.h, "residual": resid}
    if traj.v is None:
        del columns["v"]
    summary = {
        "case": int(case),
        "case_name": _case_name(case),
        "exponents": {"a": spec.a, "b": spec.b},
        "beta": args.beta,
        "alpha": args.alpha,
        "horizon": args.horizon,
        "oracle": oracle_name,
        "max_residual": max(resid),
        "final_height": float(traj.h[-1]),
    }
    _write_run(args, ("case", "beta", "alpha", "b_exponent", "horizon", "sample_step"),
               columns, summary, ("h", "h*", f"case {int(case)} beta={args.beta:g}"))
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify  # only this subcommand pays for importing the check set

    outcomes = verify.run_checks(only=args.only)
    if not outcomes:
        raise DomainError("only", f"no checks match {args.only!r}")
    for outcome in outcomes:
        status = "PASS" if outcome.passed else "FAIL"
        line = f"{status} {outcome.name} ({outcome.seconds:.2f}s)"
        if outcome.message:
            line += f"  {outcome.message}"
        print(line)
    report = verify.outcomes_report(outcomes)
    if args.output:
        write_json(args.output, report)
    print(f"{report['n_checks'] - report['n_failed']}/{report['n_checks']} checks passed")
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def _add_model_args(parser, with_input=True):
    parser.add_argument("--omega", type=float, default=None,
                        help="inertia parameter omega > 0")
    parser.add_argument("--beta", type=float, default=None,
                        help="slip parameter in (0, 1]; 1 means no slip")
    parser.add_argument("--alpha", type=float, default=None,
                        help="initial height ratio in [0, 3/2]")
    if with_input:
        parser.add_argument("--input", default=None, metavar="FILE",
                            help="physical-parameter JSON (overrides the triple)")


def _add_run_args(parser, sample_step: bool):
    parser.add_argument("--horizon", type=float, default=None,
                        help=f"integration horizon (default: {HORIZON_EFOLDS:g} damping "
                             "e-folds); "
                             + STEP_BUDGET_HELP)
    if sample_step:
        parser.add_argument("--sample-step", type=float, default=None,
                            help=SAMPLE_STEP_HELP)
    for flag, kind, default, limits in zip(("--abs-tol", "--rel-tol"), ("absolute", "relative"),
                                           DEFAULT_TOLERANCES, TOLERANCE_RANGE):
        parser.add_argument(flag, type=float, default=default,
                            help=f"{kind} tolerance in {limits} (default: %(default)g)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="washburn",
        description="Capillary-rise dynamics with wall slip: simulation, "
                    "fixed-point solving, and stability analysis.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nondim", help="convert physical parameters to the "
                                      "dimensionless model")
    p.add_argument("--input", required=True, metavar="FILE",
                   help="JSON with keys rho, mu, gamma, theta_deg, g, R, L, h0")
    p.add_argument("--output", default=None, metavar="FILE")
    p.set_defaults(fn=cmd_nondim)

    p = sub.add_parser("simulate", help="integrate the model and write "
                                        "CSV/JSON/plot files")
    _add_model_args(p)
    p.add_argument("--epsilon", type=float, default=0.0,
                   help="square-root regularization in [0, 1] (default: 0)")
    _add_run_args(p, sample_step=True)
    p.add_argument("--classify", action="store_true",
                   help="include settling classification in the summary")
    p.add_argument("--output", "-o", required=True, metavar="PREFIX",
                   help="output path prefix (writes PREFIX.csv/.json/.gp)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("picard", help="solve the integral fixed point and "
                                      "write CSV plus an iteration sidecar")
    _add_model_args(p, with_input=False)
    p.add_argument("--horizon", type=float, default=10.0,
                   help="end of the grid [0, horizon] (default: %(default)g)")
    p.add_argument("--step", type=float, default=None,
                   help="grid step that tiles the horizon, " + STEP_RANGE_HELP)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="the iteration stops once the sup-norm change of an iterate "
                        "falls below it (default: %(default)g)")
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                   help="iteration limit; a solve that has not converged within it "
                        "exits 3 (default: %(default)d)")
    p.add_argument("--output", "-o", required=True, metavar="PREFIX")
    p.set_defaults(fn=cmd_picard)

    p = sub.add_parser("classify", help="classify how a trajectory settles")
    _add_model_args(p)
    _add_run_args(p, sample_step=False)
    p.add_argument("--output", default=None, metavar="FILE")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("basin", help="basin-of-attraction constants for a "
                                     "starting height ratio")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--output", default=None, metavar="FILE")
    p.set_defaults(fn=cmd_basin)

    p = sub.add_parser("regime", help="integrate a reduced flow regime with "
                                      "its oracle residual")
    p.add_argument("--case", required=True,
                   help="1..4 or a name like negligible-gravity")
    p.add_argument("--beta", type=float, required=True,
                   help="slip parameter > 0; case 4, the undamped regime, echoes it "
                        "but does not use it")
    p.add_argument("--alpha", type=float, default=0.0,
                   help="initial h* (default: 0)")
    p.add_argument("--b-exponent", type=float, default=None,
                   help="free exponent b, case 3 only (default: 1/4)")
    p.add_argument("--horizon", type=float, default=REGIME_DEFAULT_HORIZON,
                   help=f"integration horizon, at most {REGIME_HORIZON_CAP:g} "
                        "(default: %(default)g); "
                        + STEP_BUDGET_HELP)
    p.add_argument("--sample-step", type=float, default=None, help=SAMPLE_STEP_HELP)
    p.add_argument("--output", "-o", required=True, metavar="PREFIX")
    p.set_defaults(fn=cmd_regime)

    p = sub.add_parser("verify", help="run the invariant and acceptance "
                                      "suites; exit 0 only if all pass")
    p.add_argument("--only", default=None,
                   help="substring filter on check names (e.g. 'basin')")
    p.add_argument("--output", default=None, metavar="FILE",
                   help="write the machine-readable report here")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DomainError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, ConsistencyError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
