"""Check that two source trees of tirex give the same bytes.

Usage (from the repository root):

    python3 tools/same_outputs.py SRC_A SRC_B

SRC_A and SRC_B are directories that hold the ``tirex`` package, such as
the ``src/`` of two checkouts.  Every case below runs under each tree in a
fresh interpreter, in its own empty working directory, with BLAS and OpenMP
on one thread.  The script then compares every file the case left behind,
and the standard output, standard error and exit code of each step.  It
prints one line per case, with the differences under it, and exits 0 when
nothing differs and 1 otherwise.

The cases are the four benchmark workloads of ``perfbench/run.py`` at seeds
1 and 2, a five-replication ``sweep`` on model B at ``--jobs`` 2 and 64 (as
many threads as the CPUs allow), six ``verify-process`` runs (the
benchmark's at seed 1; order 2 at p = 1 with n = 3 and k = 2, whose default
grid reads breakpoints 1, 1, 1, 2, 2; k = 299 with u = 0.01, off the
breakpoints; order 2 at p = 4 with k = 20; and two with failing entries at
p = 5 and 6, order 2 and 100 replications, the second 19 440 covariance rows
written in three CSV row blocks), six ``classify`` runs (four that reach the k-NN full scan: model C
at d = 1, where every query has tied neighbours, and model B at d = 2, 10
and 30, the widest its distance sums get; the README's example, whose two
free-k methods share the cross-validation; and all six methods with a
``--k-grid`` value above every training size, so k is clamped in the folds
and in the final fit), three ``tci-ratio`` runs (the
pointwise ratios on model C and on model A, whose uniform law reaches both
conditional survival sums, and ``E|R|`` on model A up to a y whose survival
underflows to 0), a ``fit`` of the ``fit-B-csv`` data with ``--ridge 0.5``
(the regularized whitening), and a ``fit`` of a CSV whose header names the
target twice.

For a CSV or JSON file that differs, the line also gives the largest
relative difference |a - b| / max(|a|, |b|) over the numeric cells that
the two files hold at the same place.
"""

import argparse
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RUN = "import sys; from tirex.cli import run; sys.exit(run(sys.argv[1:]))"

SWEEP_ARGV = ["sweep", "--model", "B", "--n", "20000", "--method", "tirex2", "--d", "5",
              "--k-grid", "500:10000:4", "--reps", "5", "--seed", "1",
              "--out", "s.csv", "--json-out", "s.json"]

VERIFY_ARGVS = [
    ["--n", "5000", "--k", "500", "--reps", "2000", "--order", "2", "--seed", "1"],
    ["--p", "1", "--order", "2", "--n", "3", "--k", "2", "--reps", "200", "--seed", "1"],
    ["--p", "2", "--n", "2000", "--k", "299", "--u-grid", "0.01,1.0", "--reps", "200",
     "--seed", "1"],
    ["--p", "4", "--order", "2", "--n", "400", "--k", "20", "--reps", "200", "--seed", "1"],
    ["--p", "5", "--order", "2", "--n", "400", "--k", "40", "--reps", "100", "--seed", "1"],
    ["--p", "6", "--order", "2", "--n", "400", "--k", "40", "--reps", "100", "--seed", "1"],
]

CLASSIFY_ARGVS = [
    ["--model", "C", "--n", "2000", "--d", "1", "--quantile-level", "0.9", "--folds", "3",
     "--k-grid", "40,200", "--seed", "1"],
    ["--model", "B", "--n", "3000", "--methods", "tirex2,pca", "--d", "2",
     "--quantile-level", "0.9", "--folds", "3", "--k-grid", "100,600", "--seed", "2"],
    ["--model", "B", "--n", "3000", "--methods", "tirex2,pca", "--d", "10",
     "--quantile-level", "0.9", "--folds", "3", "--k-grid", "300,1200", "--seed", "3"],
    ["--model", "B", "--n", "3000", "--methods", "tirex2,pca", "--d", "30",
     "--quantile-level", "0.9", "--folds", "3", "--k-grid", "300,1200", "--seed", "4"],
    ["--model", "A", "--n", "10000", "--methods", "tirex1,tirex2,pca", "--d", "1",
     "--quantile-level", "0.9", "--folds", "5", "--k-grid", "464,1000,2000,4000",
     "--seed", "1"],
    ["--model", "A", "--n", "1000", "--methods", "tirex1,tirex2,cume,cuve,pca,svd_pca",
     "--d", "1", "--quantile-level", "0.9", "--folds", "3", "--k-grid", "50,5000",
     "--seed", "1"],
]

TCI_ARGVS = [
    ["--model", "C", "--y", "2", "--v", "1", "--w", "0"],
    ["--model", "A", "--y", "20", "--v", "3", "--w", "7"],
    ["--model", "A", "--expected-abs-r", "--y-grid", "20,50,800", "--n-mc", "20000",
     "--seed", "1"],
]

DUP_CSV = "y,y,x\n" + "".join(f"{(i * 7) % 11},{(i * 5) % 13},{(i * 3) % 17}\n"
                              for i in range(30))


def benchmark_cases():
    """The workloads of ``perfbench/run.py``, their preparing step first."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    perfbench = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(ROOT / "perfbench"))  # run.py imports its neighbours
    try:
        spec.loader.exec_module(perfbench)
    finally:
        sys.path.pop(0)
    cases = []
    for name, workload in perfbench.WORKLOADS.items():
        for seed in (1, 2):
            steps = [workload[key] for key in ("prepare", "argv") if key in workload]
            cases.append((f"{name} seed {seed}", {},
                          [perfbench.substitute(step, seed) for step in steps]))
    return cases


def all_cases():
    sweeps = [(f"sweep --jobs {jobs}", {}, [SWEEP_ARGV + ["--jobs", jobs]])
              for jobs in ("2", "64")]
    verify = [(f"verify-process {' '.join(argv)}", {},
               [["verify-process"] + argv + ["--out", "v.csv", "--json-out", "v.json"]])
              for argv in VERIFY_ARGVS]
    classify = [(f"classify {' '.join(argv)}", {},
                 [["classify"] + argv + ["--out", "c.csv", "--json-out", "c.json"]])
                for argv in CLASSIFY_ARGVS]
    tci = [(f"tci-ratio {' '.join(argv)}", {}, [["tci-ratio"] + argv + ["--out", "t.json"]])
           for argv in TCI_ARGVS]
    ridge = ("fit --ridge 0.5", {},
             [["simulate", "--model", "B", "--n", "40000", "--seed", "1", "--out", "b.csv"],
              ["fit", "--in", "b.csv", "--method", "tirex2", "--k", "4000", "--d", "5",
               "--ridge", "0.5", "--out", "fit.json", "--basis-out", "basis.csv"]])
    dup = ("fit --in dup.csv", {"dup.csv": DUP_CSV},
           [["fit", "--in", "dup.csv", "--method", "pca", "--d", "1", "--out", "o.json"]])
    return benchmark_cases() + sweeps + verify + classify + tci + [ridge, dup]


def run_case(src, case):
    """The files a case leaves in its working directory, by relative path,
    and (exit code, stdout, stderr) of each of its steps."""
    _, inputs, steps = case
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()),
               **{var: "1" for var in THREAD_VARS})
    with tempfile.TemporaryDirectory() as work:
        for name, text in inputs.items():
            Path(work, name).write_text(text, encoding="utf-8")
        results = []
        for argv in steps:
            proc = subprocess.run([sys.executable, "-c", RUN] + argv, cwd=work, env=env,
                                  capture_output=True)
            results.append((proc.returncode, proc.stdout, proc.stderr))
        files = {path.relative_to(work).as_posix(): path.read_bytes()
                 for path in sorted(Path(work).rglob("*")) if path.is_file()}
    return files, results


def _first_change(a, b):
    """Where two byte strings first differ, as a line number and both lines."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i, (la, lb) in enumerate(zip(lines_a, lines_b)):
        if la != lb:
            return f"line {i + 1}: {la[:80]!r} vs {lb[:80]!r}"
    return f"{len(lines_a)} vs {len(lines_b)} lines"


def _relative(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _number(cell):
    """A CSV cell or JSON leaf as a float, or None if it holds no number."""
    if isinstance(cell, bool):
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _json_pairs(a, b):
    """The leaves of two JSON values at the same place."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in a.keys() & b.keys():
            yield from _json_pairs(a[key], b[key])
    elif isinstance(a, list) and isinstance(b, list):
        for x, y in zip(a, b):
            yield from _json_pairs(x, y)
    else:
        yield a, b


def _cell_pairs(name, a, b):
    """The cells of two CSV or JSON files at the same place; none for other
    files, or for files that do not parse."""
    try:
        text_a, text_b = a.decode("utf-8"), b.decode("utf-8")
        if name.endswith(".json"):
            return list(_json_pairs(json.loads(text_a), json.loads(text_b)))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return []
    if name.endswith(".csv"):
        return [pair for line_a, line_b in zip(text_a.splitlines(), text_b.splitlines())
                for pair in zip(line_a.split(","), line_b.split(","))]
    return []


def largest_relative_difference(name, a, b):
    """The largest relative difference between the numeric cells that two
    CSV or JSON files hold at the same place, or None when they hold none."""
    pairs = [(_number(x), _number(y)) for x, y in _cell_pairs(name, a, b)]
    moves = [_relative(x, y) for x, y in pairs if x is not None and y is not None]
    return max(moves, default=None)


def differences(a, b):
    """Every difference between two ``run_case`` results, one line each."""
    (files_a, steps_a), (files_b, steps_b) = a, b
    out = []
    for name in sorted(files_a.keys() | files_b.keys()):
        if name not in files_b:
            out.append(f"{name}: only under A")
        elif name not in files_a:
            out.append(f"{name}: only under B")
        elif files_a[name] != files_b[name]:
            line = f"{name}: {_first_change(files_a[name], files_b[name])}"
            move = largest_relative_difference(name, files_a[name], files_b[name])
            if move is not None:
                line += f"; largest relative difference {move:.3g}"
            out.append(line)
    for i, (step_a, step_b) in enumerate(zip(steps_a, steps_b), start=1):
        if step_a[0] != step_b[0]:
            out.append(f"step {i} exit code: {step_a[0]} vs {step_b[0]}")
        for stream, got_a, got_b in (("stdout", step_a[1], step_b[1]),
                                     ("stderr", step_a[2], step_b[2])):
            if got_a != got_b:
                out.append(f"step {i} {stream}: {_first_change(got_a, got_b)}")
    return out


def compare(src_a, src_b, cases):
    """Each case's name with the differences between the two trees, one
    case at a time."""
    for case in cases:
        yield case[0], differences(run_case(src_a, case), run_case(src_b, case))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", help="directory holding the tirex package (A)")
    parser.add_argument("src_b", help="directory holding the tirex package (B)")
    args = parser.parse_args(argv)
    cases = all_cases()
    differ = 0
    for name, diffs in compare(args.src_a, args.src_b, cases):
        print(f"{'DIFFERS' if diffs else 'same'}: {name}", flush=True)
        for line in diffs:
            print(f"    {line}")
        differ += bool(diffs)
    print(f"{differ} of {len(cases)} cases differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
