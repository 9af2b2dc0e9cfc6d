"""Benchmark of the tirex command line: four workloads, each a CLI path.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-B --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 1

Every invocation calls ``tirex.cli.run(argv)`` in a fresh interpreter
(``child.py``), one after another, with BLAS and OpenMP pinned to one thread.
A run repeats the workload's invocation for ``--seconds`` seconds (at least
three times) after one untimed warm-up.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
invocations and reports per-layer metrics from the spans (see tracer.py).
Each invocation's outputs are checked (checks.py); a failed check counts the
invocation as failed.  The last line of standard output is the JSON result;
the lines before it name every metric with its unit.  Working files go to
``.perfbench/<workload>/`` under the repository root.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
MIN_INVOCATIONS = 3
HARD_LIMIT_S = 165.0  # a run must end well inside 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Sizes are chosen so one invocation takes 1-3 s on one core: a run then
# holds enough invocations for a steady median.  "work" is the number of
# work units one invocation does, for work_per_s.
WORKLOADS = {
    "sweep-B": {
        "argv": ["sweep", "--model", "B", "--n", "20000", "--method", "tirex2",
                 "--d", "5", "--k-grid", "500:10000:4", "--reps", "2",
                 "--seed", "{seed}", "--out", "sweep.csv"],
        "outputs": ["sweep.csv"],
        "check": "sweep",
        "params": {"k_grid": [500, 1357, 3684, 10000]},
        "work": 8, "work_unit": "fits (k x replication cells)",
    },
    "classify-A": {
        "argv": ["classify", "--model", "A", "--n", "4000", "--methods", "tirex1,pca",
                 "--d", "1", "--quantile-level", "0.9", "--folds", "5",
                 "--k-grid", "400,1600", "--neighbors", "51",
                 "--seed", "{seed}", "--out", "classify.csv"],
        "outputs": ["classify.csv"],
        "check": "classify",
        "params": {"methods": ["tirex1", "pca"], "k_grid": [400, 1600]},
        # tirex1: 2 k x 5 folds + the final fit; pca: one fit
        "work": 12, "work_unit": "fits",
    },
    "fit-B-csv": {
        "prepare": ["simulate", "--model", "B", "--n", "40000", "--seed", "{seed}",
                    "--out", "b.csv"],
        "argv": ["fit", "--in", "b.csv", "--method", "tirex2", "--k", "4000", "--d", "5",
                 "--out", "fit.json", "--basis-out", "basis.csv"],
        "outputs": ["fit.json", "basis.csv"],
        "check": "fit",
        "params": {"method": "tirex2", "k": 4000, "d": 5, "p": 30},
        "work": 40000, "work_unit": "CSV rows",
    },
    "verify-process-2": {
        "argv": ["verify-process", "--n", "5000", "--k", "500", "--reps", "2000",
                 "--order", "2", "--seed", "{seed}", "--out", "verify.csv"],
        "outputs": ["verify.csv"],
        "check": "verify",
        # 5 u values: 15 (s <= t) pairs x 9 x 9 entries
        "params": {"cov_entries": 1215},
        "work": 2000, "work_unit": "replications",
    },
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = [
    "linalg.sym_eigen.calls", "linalg.sym_eigen.self_s",
    "linalg.inv_sqrt.calls", "linalg.inv_sqrt.self_s",
    "estimators.tirex2_matrix.calls", "estimators.tirex2_matrix.self_s",
    "estimators.tirex2_matrix.flops",
    "estimators.tirex1_matrix.calls", "estimators.tirex1_matrix.self_s",
    "estimators.tirex1_matrix.flops",
    "estimators.fit.calls", "estimators.fit.self_s",
    "evaluation.knn_scores.calls", "evaluation.knn_scores.self_s",
    "evaluation.knn_scores.pairs",
    "evaluation.cross_validate_k.self_s",
    "evaluation.classify_experiment.self_s",
    "evaluation.auc.calls", "evaluation.auc.self_s",
    "data.standardize.calls", "data.standardize.self_s", "data.standardize.distinct_frac",
    "evaluation.sweep.self_s", "evaluation.sweep.cells", "evaluation.sweep.failed_cells",
    "synthetic.sample.calls", "synthetic.sample.self_s", "synthetic.sample.rows",
    "data.load_csv.self_s", "data.load_csv.bytes",
    "data.descending_order.calls", "data.descending_order.self_s",
    "data.descending_order.rows",
    "process_verify.IndependentNormalModel.sample.calls",
    "process_verify.IndependentNormalModel.sample.self_s",
    "process_verify.covariance_check.self_s",
    "rng.stream.calls",
    "cli.run.self_s",
    "import.scipy.stats.cumulative_s",
    "trace.wall_s",
    "trace.overhead_s",
]

# unit and better direction by the metric's last name component
STATS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "flops": ("flop", "lower"),
    "pairs": ("count", "lower"),
    "rows": ("count", "lower"),
    "bytes": ("B", "lower"),
    "cells": ("count", "lower"),
    "failed_cells": ("count", "lower"),
    "distinct_frac": ("fraction", "higher"),
    "cumulative_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "overhead_s": ("s", "lower"),
}


def stat_of(metric):
    return metric.rsplit(".", 1)[1]


# ---------------------------------------------------------------------------
# environment record


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def git_commit(root):
    head = _read(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(root / ".git" / ref)
    if loose:
        return loose
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def cpu_record():
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        level, size = _read(index / "level"), _read(index / "size")
        if level in ("2", "3") and size:
            caches[f"L{level}"] = size
    return {"nproc": os.cpu_count(), "cpu_model": model, **caches}


# ---------------------------------------------------------------------------
# invocations


class Invoker:
    """Spawns child.py processes for one workload inside ``run_dir``."""

    def __init__(self, run_dir, deadline):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.update({var: "1" for var in THREAD_VARS})
        # a fixed string-hash seed removes one source of run-to-run variation
        self.env["PYTHONHASHSEED"] = "0"
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src

    def invoke(self, argv, trace=False, describe=False, spans=None):
        """Run one invocation; return its report dict, stdout and stderr."""
        spec_path = self.run_dir / "spec.json"
        result_path = self.run_dir / "report.json"
        result_path.unlink(missing_ok=True)
        spec = {"argv": argv, "trace": trace, "describe": describe,
                "result": str(result_path), "spans": str(spans) if spans else None}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + \
            [str(HERE / "child.py"), str(spec_path)]
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=self.run_dir, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            return None, out, err + "\ntimed out"
        if not result_path.exists():
            return None, out, err
        report = json.loads(result_path.read_text(encoding="utf-8"))
        report["setup_s"] = report["ready"] - start
        return report, out, err


def substitute(argv, seed):
    return [a.replace("{seed}", str(seed)) for a in argv]


def scipy_stats_import_s(stderr):
    """Cumulative import time of scipy.stats from ``-X importtime`` output."""
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            parts = [p.strip() for p in line.split(":", 1)[1].split("|")]
            if parts[2] == "scipy.stats":
                return int(parts[1]) / 1e6
    return 0.0


def percentile_line(values):
    """Highest of p90/p99/p99.9 with at least 10 samples beyond it."""
    n = len(values)
    best = None
    for q in (90, 99, 99.9):
        if n * (100 - q) / 100 >= 10:
            best = q
    if best is None:
        return f"no percentile has 10 samples beyond it ({n} samples)"
    value = sorted(values)[math.ceil(best / 100 * n) - 1]
    return f"p{best:g} {value:.6f} s"


class Run:
    """One workload at one seed: invocations, checks and aggregation."""

    def __init__(self, name, seed, seconds, trace, write_reference):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.write_reference = write_reference
        self.argv = substitute(self.workload["argv"], seed)
        self.work_dir = ROOT / ".perfbench" / name
        self.run_dir = self.work_dir / "run"
        self.reference = None
        if seed == DEFAULT_SEED and REFERENCE.exists() and not write_reference:
            self.reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(name)
        self.versions = {}
        self.first_outputs = None
        self.records = []   # untraced invocation reports
        self.traced = []    # (report, layer totals, scipy.stats import s)
        self.failed = 0
        self.problems = []

    def check(self, report, stdout, stderr):
        """Check one invocation's outputs; return a list of problems."""
        if report is None:
            return [f"no report from the child: {stderr.strip()[-500:]}"]
        if report["error"]:
            return [f"exception escaped run(): {report['error'].strip()[-500:]}"]
        if report["rc"] != 0:
            return [f"exit code {report['rc']}: {stderr.strip()[-500:]}"]
        outputs = {}
        for name in self.workload["outputs"]:
            path = self.run_dir / name
            if not path.exists():
                return [f"output {name} missing"]
            outputs[name] = path.read_bytes()
            path.unlink()
        problems = []
        if self.first_outputs is None:
            self.first_outputs = outputs
        elif outputs != self.first_outputs:
            problems.append("output files differ from the first invocation's")
        kind = self.workload["check"]
        try:
            values = checks.parse(kind, outputs, stdout)
        except (ValueError, KeyError, IndexError, StopIteration) as exc:
            return problems + [f"unparsable output: {exc!r}"]
        problems += checks.invariants(kind, values, self.workload["params"])
        if self.reference is not None:
            problems += checks.compare(values, self.reference, self.name)
        if self.write_reference and not problems:
            self.store_reference(values)
        return problems

    def store_reference(self, values):
        ref = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
        ref["seed"] = DEFAULT_SEED
        ref[self.name] = values
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        self.write_reference = False

    def one(self, invoker, traced):
        spans = self.work_dir / "spans.json" if traced else None
        report, out, err = invoker.invoke(self.argv, trace=traced, spans=spans)
        problems = self.check(report, out, err)
        if problems:
            self.failed += 1
            self.problems += problems
        if report is None:
            return None
        if traced:
            spans_data = json.loads(spans.read_text(encoding="utf-8"))
            self.traced.append((report, tracer.layer_totals(spans_data),
                                scipy_stats_import_s(err)))
        else:
            self.records.append(report)
        return report

    def execute(self):
        """Prepare, warm up and measure; return False if nothing could run."""
        start = time.monotonic()
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        invoker = Invoker(self.run_dir, start + HARD_LIMIT_S)
        try:
            if "prepare" in self.workload:
                report, _, err = invoker.invoke(substitute(self.workload["prepare"], self.seed))
                if report is None or report["rc"] != 0:
                    print(f"perfbench: preparing inputs failed: {err.strip()[-2000:]}",
                          file=sys.stderr)
                    return False
            # warm-up: byte-compiles the package and fills the file cache
            warm, _, err = invoker.invoke(["--version"], describe=True)
            if warm is None or warm["rc"] != 0:
                print(f"perfbench: cannot start tirex: {err.strip()[-2000:]}", file=sys.stderr)
                return False
            self.versions = warm["versions"]
            window = time.monotonic()
            cycles = []
            while True:
                t0 = time.monotonic()
                # stop when less than half a typical invocation is left, so
                # the run ends close to the window instead of past it
                mean_cycle = sum(cycles) / len(cycles) if cycles else 0.0
                if len(cycles) >= MIN_INVOCATIONS and t0 - window + mean_cycle / 2 >= self.seconds:
                    break
                if t0 + max(cycles, default=0.0) > invoker.deadline:
                    break
                traced = self.trace and len(cycles) % 2 == 1
                report = self.one(invoker, traced)
                cycles.append(time.monotonic() - t0)
                if report is None:
                    break
        finally:
            shutil.rmtree(self.run_dir, ignore_errors=True)
        if self.trace:
            return bool(self.records) and bool(self.traced)
        return bool(self.records)

    def end_to_end(self):
        walls = [r["wall_s"] for r in self.records]
        wall = statistics.median(walls)
        return {
            "setup_s": statistics.median(r["setup_s"] for r in self.records),
            "wall_s": wall,
            "work_per_s": self.workload["work"] / wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in self.records),
        }

    def per_layer(self):
        out = {}
        totals = [t for _, t, _ in self.traced]
        for metric in PER_LAYER:
            layer, stat = metric.rsplit(".", 1)
            if layer == "trace":
                continue
            if layer == "import.scipy.stats":
                out[metric] = statistics.median(s for _, _, s in self.traced)
                continue
            first = totals[0].get(layer, {})
            if stat == "self_s":
                out[metric] = statistics.median(t.get(layer, {}).get("self_s", 0.0)
                                                for t in totals)
            elif stat == "distinct_frac":
                out[metric] = first["distinct"] / first["calls"] if first else 0.0
            else:
                out[metric] = first.get(stat, 0)
        traced_wall = statistics.median(r["wall_s"] for r, _, _ in self.traced)
        out["trace.wall_s"] = traced_wall
        out["trace.overhead_s"] = traced_wall - statistics.median(
            r["wall_s"] for r in self.records)
        return out

    def environment(self):
        return {
            **cpu_record(),
            **self.versions,
            "blas_threads": 1,
            "thread_env": {var: "1" for var in THREAD_VARS},
            "git_commit": git_commit(ROOT),
            "seed": self.seed,
            "argv": ["tirex"] + self.argv,
            "prepare_argv": ["tirex"] + substitute(self.workload["prepare"], self.seed)
            if "prepare" in self.workload else None,
        }


def report(run):
    """Print the named metrics, save the result file, return the JSON line."""
    env = run.environment()
    attempted = len(run.records) + len(run.traced)
    print(f"== {run.name}  seed {run.seed}  trace {int(run.trace)}")
    print("argv: " + " ".join(env["argv"]))
    print("env: " + json.dumps(env, sort_keys=True))
    walls = [r["wall_s"] for r in run.records]
    if run.trace:
        metrics = run.per_layer()
        for metric in PER_LAYER:
            print(f"{metric:52s} {metrics[metric]:14.6g} {STATS[stat_of(metric)][0]}")
        units = {m: STATS[stat_of(m)][0] for m in PER_LAYER}
    else:
        metrics = run.end_to_end()
        units = END_TO_END
        for metric, unit in END_TO_END.items():
            print(f"{metric:14s} {metrics[metric]:12.6f} {unit}")
        print(f"work unit: {run.workload['work_unit']} ({run.workload['work']} per invocation)")
        print(f"wall_s samples: {len(walls)}; {percentile_line(walls)}")
    print(f"failed_frac: {run.failed}/{attempted} = {run.failed / attempted:.3f}")
    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    result = {
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    record = {"environment": env, "result": result, "problems": run.problems,
              "samples": {"untraced": run.records,
                          "traced": [r for r, _, _ in run.traced]}}
    (run.work_dir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True),
                                              encoding="utf-8")
    return json.dumps(result)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="one of " + ", ".join(WORKLOADS) + ", or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store this run's outputs as the reference (seed {DEFAULT_SEED})")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}")
    if args.write_reference and args.seed != DEFAULT_SEED:
        parser.error(f"--write-reference needs --seed {DEFAULT_SEED}")
    if not (ROOT / "src" / "tirex" / "cli.py").exists():
        print(f"perfbench: no tirex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in names:
        run = Run(name, args.seed, args.seconds, bool(args.trace), args.write_reference)
        if not run.execute():
            print(f"perfbench: {name}: no invocation completed: {run.problems[:3]}",
                  file=sys.stderr)
            return 1
        print(report(run), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
