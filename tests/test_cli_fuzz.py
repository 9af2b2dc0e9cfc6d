"""Fuzz of the command-line boundary: argv built from each subcommand's
real flags, with arbitrary JSON as the --config and --spec files.

Whatever the input, ``run`` returns 0, 1 or 2, no exception escapes it, and
a nonzero exit writes a ``tirex:`` line to stderr.  Values stay small (sizes
up to 500, a few above MAX_SIZE, tiny k grids, one worker process), so the
runs that pass every check finish in milliseconds.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tirex.cli import build_parser, run
from tirex.errors import MAX_SIZE

# each subcommand's parser as ``run`` builds it: with only that subcommand's flags
SUBPARSERS = {name: build_parser(name)[1][name] for name in build_parser()[1]}


def mostly(good, bad):
    """Values that are valid nine times in ten."""
    return st.integers(0, 9).flatmap(lambda i: good if i else bad)


def ints(lo, hi, bad=(-1, 0)):
    return mostly(st.integers(lo, hi), st.sampled_from(bad))


SIZE = mostly(st.integers(0, 500), st.sampled_from([-1, MAX_SIZE + 1, 10**20]))
FLOAT = mostly(st.sampled_from(["0.5", "0.9", "0.98", "1", "20", "50", "1e-3"]),
               st.one_of(st.sampled_from(["0", "-1", "nan", "inf", "x"]), st.floats().map(repr)))
GRID = mostly(st.sampled_from(["0.5,1", "0.1,0.3,1.0", "20,50", "100"]),
              st.sampled_from(["1,nan", "", ",", "x", "0.7,0.3", "1,inf"]))
COVARIATES = mostly(st.sampled_from(["1", "0", "2", "0.5,1", "1,1"]),
                    st.sampled_from(["nan", "", "x", "-inf"]))
OUTPUT = mostly(st.sampled_from(["o.csv", "o.txt"]), st.sampled_from(["dir", "missing/o.csv", ""]))

# the text of each flag's value, by destination name
VALUES = {
    "n": SIZE, "reps": SIZE, "n_mc": SIZE,
    "k": ints(1, 300, (-1, 0, 600)), "d": ints(1, 3, (-1, 0, 40)), "p": ints(1, 4),
    "seed": ints(0, 3), "stream": ints(0, 2), "jobs": ints(1, 64), "order": ints(1, 2, (0, 3)),
    "folds": ints(2, 5, (-1, 0, 1)), "neighbors": ints(1, 50, (-1, 0, 600)),
    "k_grid": mostly(st.sampled_from(["40", "5,20", "1:300:3", "1,5,600"]),
                     st.sampled_from(["0", "", ",", "1::3", "x", f"1:5:{MAX_SIZE + 1}",
                                      f"1:1{'0' * 400}:3"])),
    "u_grid": GRID, "y_grid": GRID, "v": COVARIATES, "w": COVARIATES,
    "y": FLOAT, "quantile_level": FLOAT, "ridge": FLOAT, "eig_floor": FLOAT,
    "method": mostly(st.sampled_from(["tirex1", "tirex2", "cume", "cuve", "pca", "svd_pca"]),
                     st.just("sir")),
    "methods": mostly(st.sampled_from(["pca", "tirex1,pca", "tirex2,cume"]),
                      st.sampled_from(["", "pca,pca", "nope"])),
    "model": mostly(st.sampled_from(["A", "B", "C"]), st.just("D")),
    "spec": mostly(st.just("s.json"), st.sampled_from(["missing.json", "d.csv"])),
    "infile": mostly(st.just("d.csv"), st.sampled_from(["missing.csv", "s.json"])),
    "target": mostly(st.just("y"), st.sampled_from(["x1", "nope"])),
    "out": OUTPUT, "json_out": OUTPUT, "basis_out": OUTPUT, "projector_out": OUTPUT,
    "expected_abs_r": st.booleans(),
}
INPUTS = ("model", "spec", "infile")  # exactly one of them is required

# JSON with small numbers and no digit strings, so that no config or spec
# value asks for a large sample or many replications
LEAF = st.one_of(st.none(), st.booleans(), st.integers(-3, 4), st.floats(),
                 st.text("ab,:.-", max_size=4))
JSON = st.recursive(LEAF, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text("ab", max_size=3), inner, max_size=3)),
    max_leaves=6)
GOOD_SPEC = {"p": 2, "d": 1, "theta": 0.5, "alpha1": 10.0, "alpha2": 10.0,
             "covariate_law": {"kind": "uniform", "a": 1.0, "b": 10.0}}
SPEC = mostly(st.dictionaries(st.sampled_from(sorted(GOOD_SPEC)), LEAF, max_size=2)
              .map(lambda over: {**GOOD_SPEC, **over}), JSON)


@st.composite
def invocations(draw):
    """An argv of one subcommand, and the JSON of its --config file."""
    command = draw(st.sampled_from(sorted(SUBPARSERS)))
    actions = [a for a in SUBPARSERS[command]._actions if a.dest not in ("help", "config")]
    inputs = [a.dest for a in actions if a.dest in INPUTS]
    chosen = draw(st.sampled_from(inputs)) if inputs else None
    argv, config = [command], {}
    for action in actions:
        if action.dest in INPUTS and action.dest != chosen:
            typed, in_config = not draw(st.integers(0, 19)), False
        else:
            typed = draw(st.integers(0, 19)) < (19 if action.required or action.dest == chosen
                                                 else 10)
            in_config = not typed and draw(st.booleans())
        value = draw(VALUES[action.dest])
        if in_config:
            config[action.dest] = value if action.nargs == 0 else str(value)
        if not typed:
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv += [flag] if value else []
        else:
            argv += draw(st.sampled_from([[flag, str(value)], [f"{flag}={value}"]]))
    if command in ("simulate", "sweep", "sweep-k", "classify") and "--n" not in argv \
            and chosen != "infile":
        argv += ["--n", str(draw(st.integers(1, 500)))]  # not the preset's 10^4 or 10^5 rows
    if draw(st.integers(0, 9)) == 0:  # a flag the subcommand lacks, or a prefix
        argv.append(draw(st.sampled_from(["--bogus", "--k", "--method", "--n-m", "-h"])))
    if draw(st.integers(0, 9)) == 0:
        config = draw(st.one_of(JSON, st.dictionaries(st.text("ab", max_size=2), JSON)))
    if config or draw(st.booleans()):
        argv += ["--config", "c.json"]
    return argv, config


@given(invocations(), SPEC)
@settings(max_examples=300, deadline=None)
def test_run_exits_0_1_or_2_and_names_its_fault(invocation, spec):
    argv, config = invocation
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths in argv and config stay inside tmp
        try:
            Path("c.json").write_text(json.dumps(config))
            Path("s.json").write_text(json.dumps(spec))
            Path("dir").mkdir()
            rng = np.random.default_rng(0)
            rows = np.column_stack([rng.random((40, 2)), rng.pareto(2.0, 40)])
            Path("d.csv").write_text("x1,x2,y\n" + "".join(f"{a},{b},{c}\n" for a, b, c in rows))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    if code:
        assert any(line.startswith("tirex: ") for line in err.getvalue().splitlines())
