"""Command-line interface.

Subcommands: simulate, fit, sweep (alias: sweep-k), classify, verify-process,
tci-ratio.  Every stochastic subcommand refuses to run without --seed, and a
given (flags, config, seed) combination produces byte-identical output files;
no timestamps enter any payload.

A JSON config file may supply any flag of the chosen subcommand by its
destination name (e.g. {"method": "tirex1", "k_grid": "100:10000:30"});
explicit flags override config values, and unknown config keys are errors.

Exit codes: 0 success, 1 user error (bad flags, missing or malformed files),
2 numerical failure (rank deficiency, non-convergence).
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import csv_text, load_csv, write_csv
from .errors import InvalidInputError, NumericalError, TirexError
from .estimators import METHODS, fit
from .evaluation import (
    DEFAULT_NEIGHBORS,
    classify_experiment,
    geometric_k_grid,
    sweep,
)
from .process_verify import (
    IndependentNormalModel,
    ProcessCheckConfig,
    covariance_check,
)
from .synthetic import (
    MixtureSpec,
    expected_abs_R,
    model_preset,
    sample,
    tci_ratios,
)


def _write_text(path, text):
    Path(path).write_text(text, encoding="utf-8")


def _dump_json(obj, path=None):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        _write_text(path, text)
    else:
        sys.stdout.write(text)


def _write_report(report, args):
    """The report's CSV to --out, then its JSON to --json-out if given."""
    _write_text(args.out, report.to_csv_text())
    if args.json_out:
        _dump_json(report.to_json_dict(), args.json_out)


def load_config(path):
    """Read a JSON config file into a flat key -> value mapping."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise InvalidInputError(f"{path}: config must be a JSON object")
    return cfg


def _config_value(action, key, value):
    """Convert and check a config value as argparse does the flag's text, so
    {"k": 40.7} is refused like --k 40.7."""
    if action.nargs == 0:  # a switch such as --expected-abs-r
        if not isinstance(value, bool):
            raise InvalidInputError(f"config key {key!r}: expected true or false, got {value!r}")
        return value
    text = str(value)
    try:
        value = action.type(text) if action.type else text
    except ValueError:
        raise InvalidInputError(f"config key {key!r}: invalid value {value!r}") from None
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(str, action.choices))
        raise InvalidInputError(
            f"config key {key!r}: invalid choice {value!r} (choose from {choices})"
        )
    return value


def _config_defaults(path, parser):
    """The --config values, checked and converted, as defaults for the
    subcommand's parser; argv parsed again over them lets flags win."""
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    defaults = {}
    for key, value in load_config(path).items():
        if key not in actions:
            raise InvalidInputError(f"unknown config key {key!r}")
        if value is not None:
            defaults[key] = _config_value(actions[key], key, value)
    return defaults


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise InvalidInputError(f"missing required option --{name.replace('_', '-')}")


def _parse_list(text, convert, flag):
    """Comma-separated values; empty cells are skipped."""
    try:
        return [convert(p) for p in str(text).split(",") if p]
    except ValueError:
        raise InvalidInputError(f"{flag}: cannot parse {text!r} as a comma list") from None


def _parse_k_grid(text):
    """k-grid syntax: 'lo:hi:count' (geometric), a comma list, or one int."""
    text = str(text)
    if ":" in text:
        try:
            lo, hi, count = (int(p) for p in text.split(":"))
        except ValueError:
            raise InvalidInputError(f"bad k-grid {text!r}; expected lo:hi:count") from None
        return geometric_k_grid(lo, hi, count)
    return _parse_list(text, int, "--k-grid")


def _model_spec(args):
    """MixtureSpec from --model preset or --spec file, and its default sample
    size (the preset's; None for a spec file)."""
    model = args.model
    spec_path = args.spec
    if (model is None) == (spec_path is None):
        raise InvalidInputError("exactly one of --model or --spec is required")
    if model is not None:
        spec, preset_n = model_preset(model)
    else:
        try:
            with open(spec_path, "r", encoding="utf-8") as fh:
                spec = MixtureSpec.from_dict(json.load(fh))
        except FileNotFoundError:
            raise InvalidInputError(f"spec file not found: {spec_path}") from None
        except (KeyError, json.JSONDecodeError) as exc:
            raise InvalidInputError(f"{spec_path}: bad spec file ({exc})") from None
        preset_n = None
    return spec, preset_n


def _resolve_spec(args):
    """MixtureSpec and sample size (--n, else the preset's) to sample from."""
    spec, n = _model_spec(args)
    if args.n is not None:
        n = args.n
    if n is None:
        raise InvalidInputError("--n is required with --spec")
    return spec, int(n)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_simulate(args):
    _require(args, "seed", "out")
    try:
        sidecar_path = Path(args.out).with_suffix(".json")
    except ValueError:  # '', '.' or '/': no file name to give a suffix
        raise InvalidInputError(f"--out {args.out!r} is not a file path") from None
    # refuse before writing anything: the sidecar must not replace an input
    for flag in ("out", "spec", "config"):
        path = getattr(args, flag)
        if path is not None and Path(path).resolve() == sidecar_path.resolve():
            raise InvalidInputError(
                f"the JSON sidecar {str(sidecar_path)!r} of --out would overwrite --{flag}"
            )
    spec, n = _resolve_spec(args)
    ds = sample(spec, n, args.seed, stream=args.stream)
    write_csv(ds, args.out)
    sidecar = {
        "artifact_version": __version__,
        "n": n,
        "seed": args.seed,
        "stream": args.stream,
        "spec": spec.to_dict(),
    }
    _dump_json(sidecar, sidecar_path)
    return 0


def _cmd_fit(args):
    _require(args, "infile", "method", "out")
    ds = load_csv(args.infile, target=args.target)
    f = fit(ds, args.method, k=args.k, d=args.d, eig_floor=args.eig_floor, ridge=args.ridge)
    _dump_json(f.to_json_dict(), args.out)
    if args.basis_out:
        _write_text(args.basis_out, csv_text(f.basis_raw))
    if args.projector_out:
        _write_text(args.projector_out, csv_text(f.projector_whitened.matrix))
    return 0


def _cmd_sweep(args):
    _require(args, "method", "d", "k_grid", "reps", "seed", "out")
    spec, n = _resolve_spec(args)
    report = sweep(
        spec, n, args.method, args.d, _parse_k_grid(args.k_grid),
        reps=args.reps, seed=args.seed, jobs=args.jobs,
    )
    _write_report(report, args)
    return 0


def _cmd_classify(args):
    _require(args, "d", "seed", "out")
    if args.infile is not None:
        for flag in ("model", "spec", "n"):
            if getattr(args, flag) is not None:
                raise InvalidInputError(f"--in cannot be combined with --{flag}")
        ds = load_csv(args.infile, target=args.target)
    else:
        spec, n = _resolve_spec(args)
        ds = sample(spec, n, args.seed, stream=0)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise InvalidInputError("--methods names no method")
    for m in methods:
        if m not in METHODS:
            raise InvalidInputError(f"unknown method {m!r} in --methods")
    report = classify_experiment(
        ds, methods, d=args.d, quantile_level=args.quantile_level, folds=args.folds,
        seed=args.seed,
        k_grid=None if args.k_grid is None else _parse_k_grid(args.k_grid),
        n_neighbors=args.neighbors,
    )
    _write_report(report, args)
    return 0


def _cmd_verify_process(args):
    _require(args, "n", "k", "reps", "seed", "out")
    cfg = ProcessCheckConfig(
        generator=IndependentNormalModel(p=args.p),
        n=args.n,
        k=args.k,
        n_reps=args.reps,
        u_grid=tuple(_parse_list(args.u_grid, float, "--u-grid")),
        order=args.order,
        seed=args.seed,
    )
    report = covariance_check(cfg)
    _write_report(report, args)
    sys.stdout.write(
        f"process check {'PASSED' if report.passed else 'FAILED'} "
        f"({len(report.cov_entries)} covariance entries, "
        f"{len(report.mean_entries)} mean entries, gate 4*SE)\n"
    )
    return 0


def _cmd_tci_ratio(args):
    spec, _ = _model_spec(args)
    out = {}
    if args.expected_abs_r:
        _require(args, "seed", "y_grid")
        y_grid = _parse_list(args.y_grid, float, "--y-grid")
        if not y_grid:
            raise InvalidInputError("--y-grid names no threshold")
        out["y_grid"] = y_grid
        out["expected_abs_r"] = [expected_abs_R(spec, y, args.n_mc, args.seed) for y in y_grid]
    else:
        _require(args, "y", "v", "w")
        ratios = tci_ratios(
            spec, args.y,
            np.array(_parse_list(args.v, float, "--v")),
            np.array(_parse_list(args.w, float, "--w")),
        )
        out["y"] = args.y
        out["r"] = ratios.r
        out["r_tilde"] = ratios.r_tilde
    _dump_json(out, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override its values")


def _add_model_args(sub, with_n=True):
    sub.add_argument("--model", help="built-in model preset: A, B or C")
    sub.add_argument("--spec", help="JSON mixture-spec file (alternative to --model)")
    if with_n:
        sub.add_argument("--n", type=int, help="sample size (defaults to the preset's)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tirex",
        description="Tail inverse regression toolkit: synthetic models, "
        "subspace estimators, benchmarks and diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"tirex {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="{simulate,fit,sweep,classify,verify-process,tci-ratio}")

    s = subs.add_parser("simulate", help="draw a synthetic dataset to CSV (+ JSON sidecar)")
    _add_common(s)
    _add_model_args(s)
    s.add_argument("--seed", type=int)
    s.add_argument("--stream", type=int, default=0,
                   help="replication stream index (default %(default)s)")
    s.add_argument("--out", help="output CSV path")
    s.set_defaults(handler=_cmd_simulate)

    s = subs.add_parser("fit", help="fit a dimension-reduction subspace on a CSV dataset")
    _add_common(s)
    s.add_argument("--in", dest="infile", help="input CSV path")
    s.add_argument("--target", default="y", help="target column name (default %(default)s)")
    s.add_argument("--method", choices=METHODS)
    s.add_argument("--k", type=int, help="number of top order statistics (tirex1/tirex2)")
    s.add_argument("--d", type=int, help="subspace dimension (default 1 for tirex1/cume)")
    s.add_argument("--eig-floor", type=float, help="rank floor for the covariance eigenvalues")
    s.add_argument("--ridge", type=float, default=0.0,
                   help="add ridge*I to the covariance before whitening")
    s.add_argument("--out", help="output JSON path (method, k, d, eigenvalues)")
    s.add_argument("--basis-out", help="optional CSV of the raw-coordinate basis")
    s.add_argument("--projector-out", help="optional CSV of the whitened projector")
    s.set_defaults(handler=_cmd_fit)

    s = subs.add_parser(
        "sweep", aliases=["sweep-k"],
        help="bias^2/variance/MSE of the projector over a k grid",
    )
    _add_common(s)
    _add_model_args(s)
    s.add_argument("--method", choices=METHODS)
    s.add_argument("--d", type=int)
    s.add_argument("--k-grid", help="lo:hi:count (geometric), comma list, or single k")
    s.add_argument("--reps", type=int)
    s.add_argument("--seed", type=int)
    s.add_argument("--jobs", type=int, default=1,
                   help="parallel replication workers (default %(default)s)")
    s.add_argument("--out", help="output CSV path (k,bias_sq,variance,mse)")
    s.add_argument("--json-out", help="optional JSON report path")
    s.set_defaults(handler=_cmd_sweep)

    s = subs.add_parser("classify", help="tail-event classification benchmark")
    _add_common(s)
    _add_model_args(s)
    s.add_argument("--in", dest="infile", help="input CSV (alternative to --model/--spec)")
    s.add_argument("--target", default="y", help="target column name (default %(default)s)")
    s.add_argument("--methods", default=",".join(METHODS),
                   help="comma list of methods (default: all)")
    s.add_argument("--d", type=int)
    s.add_argument("--quantile-level", type=float, default=0.98,
                   help="exceedance quantile (default %(default)s)")
    s.add_argument("--folds", type=int, default=5,
                   help="CV folds for choosing k (default %(default)s)")
    s.add_argument("--k-grid", help="candidate k values (default 30 geometric in [n/100, n])")
    s.add_argument("--neighbors", type=int, default=DEFAULT_NEIGHBORS,
                   help="k-NN vote size (default %(default)s)")
    s.add_argument("--seed", type=int)
    s.add_argument("--out", help="output CSV path (method,am_risk,auc,chosen_k)")
    s.add_argument("--json-out", help="optional JSON report path")
    s.set_defaults(handler=_cmd_classify)

    s = subs.add_parser(
        "verify-process",
        help="Monte-Carlo check of the tail process covariance limit",
    )
    _add_common(s)
    s.add_argument("--p", type=int, default=IndependentNormalModel.p,
                   help="covariate dimension of the check model (default %(default)s)")
    s.add_argument("--n", type=int)
    s.add_argument("--k", type=int)
    s.add_argument("--reps", type=int)
    s.add_argument("--u-grid", default="0.1,0.3,0.5,0.7,1.0",
                   help="comma list of u values (default %(default)s)")
    s.add_argument("--order", type=int, choices=(1, 2), default=ProcessCheckConfig.order,
                   help="process order (default %(default)s)")
    s.add_argument("--seed", type=int)
    s.add_argument("--out", help="output CSV path")
    s.add_argument("--json-out", help="optional JSON report path")
    s.set_defaults(handler=_cmd_verify_process)

    s = subs.add_parser("tci-ratio", help="analytic tail-dependence ratios / E|R| diagnostics")
    _add_common(s)
    _add_model_args(s, with_n=False)
    s.add_argument("--n", type=int, help=argparse.SUPPRESS)
    s.add_argument("--y", type=float, help="threshold for a pointwise ratio")
    s.add_argument("--v", help="comma list: light-block covariate values")
    s.add_argument("--w", help="comma list: heavy-block covariate values")
    s.add_argument("--expected-abs-r", action="store_true",
                   help="Monte-Carlo E|R| over a y grid instead of a pointwise ratio")
    s.add_argument("--y-grid", help="comma list of thresholds for --expected-abs-r")
    s.add_argument("--n-mc", type=int, default=100_000,
                   help="Monte-Carlo draws (default %(default)s)")
    s.add_argument("--seed", type=int)
    s.add_argument("--out", help="output JSON path (default: stdout)")
    s.set_defaults(handler=_cmd_tci_ratio)

    return parser, {name: sp for name, sp in subs.choices.items()}


def run(argv):
    """Entry point returning an exit code (0 ok, 1 user error, 2 numerical)."""
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        if args.config:
            subparser = subparsers[args.command]
            subparser.set_defaults(**_config_defaults(args.config, subparser))
            args = parser.parse_args(argv)
        return args.handler(args)
    except NumericalError as exc:
        print(f"tirex: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (InvalidInputError, TirexError) as exc:
        print(f"tirex: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"tirex: i/o error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
