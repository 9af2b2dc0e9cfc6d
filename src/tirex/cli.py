"""Command-line interface.

Subcommands: simulate, fit, sweep (alias: sweep-k), classify, verify-process,
tci-ratio.  Every stochastic subcommand refuses to run without --seed, and a
given (flags, config, seed) combination produces byte-identical output files;
no timestamps enter any payload.

A JSON config file may supply any flag of the chosen subcommand by its
destination name (e.g. {"method": "tirex1", "k_grid": "100:10000:30"}).  Each
key becomes a ``--flag=value`` token (true: the bare switch; false, null:
none) before the typed flags, which so override it; one parse checks both.
Unknown config keys are errors, and flag names must match exactly.

Exit codes: 0 success, 1 user error (bad flags, missing or malformed files,
sizes too large for memory), 2 numerical failure (rank deficiency,
non-convergence).
"""

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import csv_lines, load_csv, write_csv
from .errors import MAX_SIZE, InvalidInputError, NumericalError, TirexError, check_size
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


def _write_csv_rows(path, rows):
    """Report CSV rows to ``path``, one line at a time (``data.csv_lines``)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(csv_lines(rows))


def _dump_json(obj, path=None):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_report(report, args):
    """The report's CSV to --out, then its JSON to --json-out if given."""
    _write_csv_rows(args.out, report.csv_rows())
    if args.json_out:
        _dump_json(report.to_json_dict(), args.json_out)


def load_config(path):
    """Read a JSON config file into a flat key -> value mapping."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: not valid JSON ({exc})") from None
    except UnicodeDecodeError:
        raise InvalidInputError(f"{path}: not UTF-8 text") from None
    if not isinstance(cfg, dict):
        raise InvalidInputError(f"{path}: config must be a JSON object")
    return cfg


class _Parser(argparse.ArgumentParser):
    """An argument parser that matches flag names exactly and raises its
    usage errors as InvalidInputError, which ``run`` reports and maps to
    exit 1 like any other user error."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise InvalidInputError(message)


def _with_config(argv, subparsers):
    """``argv`` with the keys of its --config file, if any, inserted as
    flag tokens right after the subcommand, before the typed flags."""
    pre = _Parser(add_help=False)
    pre.add_argument("command", nargs="?")
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if known.config is None or known.command not in subparsers:
        return argv  # the full parse reports what is wrong
    flags = {a.dest: a.option_strings[0] for a in subparsers[known.command]._actions
             if a.dest not in ("help", "config")}
    tokens = []
    for key, value in load_config(known.config).items():
        if key not in flags:
            raise InvalidInputError(f"unknown config key {key!r}")
        if value is True:
            tokens.append(flags[key])
        elif value is not None and value is not False:
            tokens.append(f"{flags[key]}={value}")
    at = argv.index(known.command) + 1
    return argv[:at] + tokens + argv[at:]


def _size(text):
    """The type of --n, --reps and --n-mc: an int at most errors.MAX_SIZE."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value > MAX_SIZE:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_SIZE}, got {value}")
    return value


def _check_output(path, what):
    """Refuse, before the run, an output path that names a directory or whose
    directory does not exist.  (A permission error still surfaces when the
    file is written.)"""
    path = Path(path)
    if path.is_dir():
        raise InvalidInputError(f"{what} is not a file path")
    if not path.parent.is_dir():
        raise InvalidInputError(f"{what}: no directory {str(path.parent)!r}")


def _sidecar_path(out):
    """The JSON sidecar ``simulate`` writes beside its CSV ``out``."""
    return Path(out).with_suffix(".json")


def _check_paths(args):
    """Refuse, before the run, an output ``_check_output`` refuses, and two
    flags that name the same file, where one write would replace an input
    or another output."""
    named = []
    for flag in ("--out", "--json-out", "--basis-out", "--projector-out"):
        path = getattr(args, flag[2:].replace("-", "_"), None)
        if path is not None:
            what = f"{flag} {path!r}"
            _check_output(path, what)
            named.append((what, path))
    if args.handler is _cmd_simulate:
        sidecar = _sidecar_path(args.out)
        what = f"the JSON sidecar {str(sidecar)!r} of --out"
        _check_output(sidecar, what)
        named.append((what, sidecar))
    for flag, dest in (("--in", "infile"), ("--spec", "spec"), ("--config", "config")):
        path = getattr(args, dest, None)
        if path is not None:
            named.append((f"{flag} {path!r}", path))
    seen = {}
    for what, path in named:
        key = os.path.realpath(path)
        if key in seen:
            raise InvalidInputError(f"{seen[key]} and {what} name the same file")
        seen[key] = what


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
        check_size(count, "the k-grid count")
        return geometric_k_grid(lo, hi, count)
    return _parse_list(text, int, "--k-grid")


def _model_spec(args):
    """MixtureSpec from --model preset or --spec file, and its default sample
    size (the preset's; None for a spec file)."""
    if args.model is not None:
        return model_preset(args.model)
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            return MixtureSpec.from_dict(json.load(fh)), None
    except FileNotFoundError:
        raise InvalidInputError(f"spec file not found: {args.spec}") from None
    except (KeyError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"{args.spec}: bad spec file ({exc})") from None
    except UnicodeDecodeError:
        raise InvalidInputError(f"{args.spec}: not UTF-8 text") from None


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
    _dump_json(sidecar, _sidecar_path(args.out))
    return 0


def _cmd_fit(args):
    ds = load_csv(args.infile, target=args.target)
    f = fit(ds, args.method, k=args.k, d=args.d, eig_floor=args.eig_floor, ridge=args.ridge)
    _dump_json(f.to_json_dict(), args.out)
    if args.basis_out:
        _write_csv_rows(args.basis_out, f.basis_raw)
    if args.projector_out:
        _write_csv_rows(args.projector_out, f.projector_whitened)
    return 0


def _cmd_sweep(args):
    spec, n = _resolve_spec(args)
    report = sweep(
        spec, n, args.method, args.d, _parse_k_grid(args.k_grid),
        reps=args.reps, seed=args.seed, jobs=args.jobs,
    )
    _write_report(report, args)
    return 0


def _cmd_classify(args):
    if args.infile is not None:
        if args.n is not None:
            raise InvalidInputError("--in cannot be combined with --n")
        ds = load_csv(args.infile, target=args.target)
    else:
        spec, n = _resolve_spec(args)
        ds = sample(spec, n, args.seed, stream=0)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    report = classify_experiment(
        ds, methods, d=args.d, quantile_level=args.quantile_level, folds=args.folds,
        seed=args.seed,
        k_grid=None if args.k_grid is None else _parse_k_grid(args.k_grid),
        n_neighbors=args.neighbors,
    )
    _write_report(report, args)
    return 0


def _cmd_verify_process(args):
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
        f"{len(report.mean_entries)} mean entries, gate 4*SE, "
        f"worst {report.max_cov_deviation_in_se():.2f} SE)\n"
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


def _add_model_args(sub):
    """--model and --spec, exactly one of them required; returns their group."""
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="built-in model preset: A, B or C")
    group.add_argument("--spec", help="JSON mixture-spec file (alternative to --model)")
    return group


def _add_sample_args(sub):
    """--model, --spec and --n; returns the --model/--spec group."""
    group = _add_model_args(sub)
    sub.add_argument("--n", type=_size, help="sample size (defaults to the preset's)")
    return group


def _simulate_args(s):
    _add_sample_args(s)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--stream", type=int, default=0,
                   help="replication stream index (default %(default)s)")
    s.add_argument("--out", required=True, help="output CSV path")
    s.set_defaults(handler=_cmd_simulate)


def _fit_args(s):
    s.add_argument("--in", dest="infile", required=True, help="input CSV path")
    s.add_argument("--target", default="y", help="target column name (default %(default)s)")
    s.add_argument("--method", choices=METHODS, required=True)
    s.add_argument("--k", type=int, help="number of top order statistics (tirex1/tirex2)")
    s.add_argument("--d", type=int, help="subspace dimension (default 1 for tirex1/cume)")
    s.add_argument("--eig-floor", type=float, help="rank floor for the covariance eigenvalues")
    s.add_argument("--ridge", type=float, default=0.0,
                   help="add ridge*I to the covariance before whitening")
    s.add_argument("--out", required=True, help="output JSON path (method, k, d, eigenvalues)")
    s.add_argument("--basis-out", help="optional CSV of the raw-coordinate basis")
    s.add_argument("--projector-out", help="optional CSV of the whitened projector")
    s.set_defaults(handler=_cmd_fit)


def _sweep_args(s):
    _add_sample_args(s)
    s.add_argument("--method", choices=METHODS, required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--k-grid", required=True,
                   help="lo:hi:count (geometric), comma list, or single k")
    s.add_argument("--reps", type=_size, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--jobs", type=int, default=1,
                   help="at most this many replication threads (capped at the CPUs)")
    s.add_argument("--out", required=True, help="output CSV path (k,bias_sq,variance,mse)")
    s.add_argument("--json-out", help="optional JSON report path")
    s.set_defaults(handler=_cmd_sweep)


def _classify_args(s):
    _add_sample_args(s).add_argument(
        "--in", dest="infile", help="input CSV (alternative to --model/--spec)")
    s.add_argument("--target", default="y", help="target column name (default %(default)s)")
    s.add_argument("--methods", default=",".join(METHODS),
                   help="comma list of methods (default: all)")
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--quantile-level", type=float, default=0.98,
                   help="exceedance quantile (default %(default)s)")
    s.add_argument("--folds", type=int, default=5,
                   help="CV folds for choosing k (default %(default)s)")
    s.add_argument("--k-grid", help="candidate k values (default 30 geometric in [n/100, n])")
    s.add_argument("--neighbors", type=int, default=DEFAULT_NEIGHBORS,
                   help="k-NN vote size (default %(default)s)")
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", required=True, help="output CSV path (method,am_risk,auc,chosen_k)")
    s.add_argument("--json-out", help="optional JSON report path")
    s.set_defaults(handler=_cmd_classify)


def _verify_process_args(s):
    s.add_argument("--p", type=int, default=IndependentNormalModel.p,
                   help="covariate dimension of the check model (default %(default)s)")
    s.add_argument("--n", type=_size, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--reps", type=_size, required=True)
    s.add_argument("--u-grid", default="0.1,0.3,0.5,0.7,1.0",
                   help="comma list of u values (default %(default)s)")
    s.add_argument("--order", type=int, choices=(1, 2), default=ProcessCheckConfig.order,
                   help="process order (default %(default)s)")
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", required=True, help="output CSV path")
    s.add_argument("--json-out", help="optional JSON report path")
    s.set_defaults(handler=_cmd_verify_process)


def _tci_ratio_args(s):
    _add_model_args(s)
    s.add_argument("--y", type=float, help="threshold for a pointwise ratio")
    s.add_argument("--v", help="comma list: light-block covariate values")
    s.add_argument("--w", help="comma list: heavy-block covariate values")
    s.add_argument("--expected-abs-r", action="store_true",
                   help="Monte-Carlo E|R| over a y grid instead of a pointwise ratio")
    s.add_argument("--y-grid", help="comma list of thresholds for --expected-abs-r")
    s.add_argument("--n-mc", type=_size, default=100_000,
                   help="Monte-Carlo draws (default %(default)s)")
    s.add_argument("--seed", type=int)
    s.add_argument("--out", help="output JSON path (default: stdout)")
    s.set_defaults(handler=_cmd_tci_ratio)


# name, aliases, help, and the function that adds the subcommand's flags
_SUBCOMMANDS = (
    ("simulate", [], "draw a synthetic dataset to CSV (+ JSON sidecar)", _simulate_args),
    ("fit", [], "fit a dimension-reduction subspace on a CSV dataset", _fit_args),
    ("sweep", ["sweep-k"], "bias^2/variance/MSE of the projector over a k grid", _sweep_args),
    ("classify", [], "tail-event classification benchmark", _classify_args),
    ("verify-process", [], "Monte-Carlo check of the tail process covariance limit",
     _verify_process_args),
    ("tci-ratio", [], "analytic tail-dependence ratios / E|R| diagnostics", _tci_ratio_args),
)


def build_parser(command=None):
    """The tirex parser and its subparsers by name, aliases included.

    Every subcommand is registered with its help, so the top-level help and
    errors do not depend on ``command``; only the subparser that ``command``
    names gets its flags, and with no ``command`` every subparser does.
    """
    parser = _Parser(
        prog="tirex",
        description="Tail inverse regression toolkit: synthetic models, "
        "subspace estimators, benchmarks and diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"tirex {__version__}")
    subs = parser.add_subparsers(
        required=True, metavar="{simulate,fit,sweep,classify,verify-process,tci-ratio}")
    for name, aliases, help_text, add_args in _SUBCOMMANDS:
        s = subs.add_parser(name, aliases=aliases, help=help_text)
        if command is None or command in [name] + aliases:
            add_args(s)
            s.add_argument("--config", help="JSON config file; flags override its values")
    return parser, subs.choices


def run(argv):
    """Entry point returning an exit code (0 ok, 1 user error, 2 numerical)."""
    try:
        argv = list(argv)
        # a leading non-flag token is the subcommand the parse dispatches to,
        # so only its subparser needs flags; otherwise build them all
        lead = argv[0] if argv and not argv[0].startswith("-") else None
        parser, subparsers = build_parser(lead)
        args = parser.parse_args(_with_config(argv, subparsers))
        _check_paths(args)
        return args.handler(args)
    except SystemExit:  # --help and --version, after printing
        return 0
    except NumericalError as exc:
        print(f"tirex: numerical failure: {exc}", file=sys.stderr)
        return 2
    except TirexError as exc:
        print(f"tirex: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"tirex: i/o error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # sizes the flags allow but the machine cannot hold
        print(f"tirex: error: out of memory: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
