"""Correctness checks on the outputs of one benchmark invocation.

``parse`` turns a workload's output files and standard output into plain
values; ``invariants`` lists violations that must not occur for any seed;
``compare`` lists differences from the reference values stored for the
default seed.  Numbers match to a relative 1e-9 (the tolerance of the golden
tests); integers, strings and booleans such as ``chosen_k`` and ``passed``
must match exactly.
"""

import csv
import io
import json
import math

REL_TOL = 1e-9
ABS_TOL = 1e-12
MAX_GATE_FAILURES = 0.01


def _columns(data):
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    header = next(reader)
    rows = [row for row in reader if row]
    return {name: [row[j] for row in rows] for j, name in enumerate(header)}


def _floats(values):
    return [float(v) for v in values]


def _parse_sweep(outputs, stdout):
    cols = _columns(outputs["sweep.csv"])
    out = {"k": [int(v) for v in cols.pop("k")]}
    out.update({name: _floats(values) for name, values in cols.items()})
    return out


def _parse_classify(outputs, stdout):
    cols = _columns(outputs["classify.csv"])
    return {
        "method": cols["method"],
        "am_risk": _floats(cols["am_risk"]),
        "auc": _floats(cols["auc"]),
        "chosen_k": [int(v) if v else None for v in cols["chosen_k"]],
    }


def _parse_fit(outputs, stdout):
    out = json.loads(outputs["fit.json"].decode("utf-8"))
    out["basis"] = [_floats(row) for row in csv.reader(
        io.StringIO(outputs["basis.csv"].decode("utf-8"))) if row]
    return out


def _parse_verify(outputs, stdout):
    cols = _columns(outputs["verify.csv"])
    out = {"passed": "process check PASSED" in stdout, "rows": len(cols["ok"]),
           "ok_rows": sum(int(v) for v in cols["ok"])}
    for name in ("empirical", "theoretical", "deviation", "se"):
        out[f"sum_abs_{name}"] = math.fsum(abs(v) for v in _floats(cols[name]))
    return out


def _sweep_invariants(v, params):
    problems = []
    if v["k"] != params["k_grid"]:
        problems.append(f"k column {v['k']} != grid {params['k_grid']}")
    for k, b, var, m in zip(v["k"], v["bias_sq"], v["variance"], v["mse"]):
        if not math.isclose(m, b + var, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            problems.append(f"k={k}: mse {m!r} != bias_sq + variance {b + var!r}")
    return problems


def _classify_invariants(v, params):
    problems = []
    if v["method"] != params["methods"]:
        problems.append(f"methods {v['method']} != {params['methods']}")
    for method, auc, k in zip(v["method"], v["auc"], v["chosen_k"]):
        if method == "pca":
            # PCA ignores the target, so on model A its AUC sits near 0.5 and
            # falls below it for some seeds; only the range is checked
            if not 0.0 <= auc <= 1.0:
                problems.append(f"pca: AUC {auc!r} outside [0, 1]")
            if k is not None:
                problems.append(f"pca reported chosen_k {k}")
            continue
        if not auc > 0.5:
            problems.append(f"{method}: AUC {auc!r} not above the constant classifier")
        if k not in params["k_grid"]:
            problems.append(f"{method}: chosen_k {k} not in the grid {params['k_grid']}")
    return problems


def _fit_invariants(v, params):
    problems = []
    for key in ("method", "k", "d"):
        if v.get(key) != params[key]:
            problems.append(f"fit.json {key} {v.get(key)!r} != {params[key]!r}")
    eig = v["eigenvalues"]
    if len(eig) != params["p"] or any(a < b for a, b in zip(eig, eig[1:])):
        problems.append("eigenvalues are not p values in descending order")
    basis = v["basis"]
    if len(basis) != params["p"] or any(len(row) != params["d"] for row in basis):
        return problems + ["basis is not p x d"]
    for i in range(params["d"]):
        for j in range(params["d"]):
            dot = math.fsum(row[i] * row[j] for row in basis)
            if abs(dot - (i == j)) > 1e-8:
                problems.append(f"basis columns {i},{j}: inner product {dot!r}")
    return problems


def _verify_invariants(v, params):
    """The process check gates each entry at 4 standard errors with no
    multiplicity correction, so a correct implementation prints FAILED for a
    few seeds in a hundred (seed 205 fails 2 of 1215 covariance entries).
    A wrong one fails many entries: at most 1 % may fail.  ``passed`` itself
    is compared exactly against the reference seed."""
    problems = []
    if v["rows"] != params["cov_entries"]:
        problems.append(f"{v['rows']} covariance rows, expected {params['cov_entries']}")
    failing = v["rows"] - v["ok_rows"]
    if failing > MAX_GATE_FAILURES * v["rows"]:
        problems.append(f"{failing} of {v['rows']} covariance entries fail the 4-SE gate")
    return problems


PARSERS = {
    "sweep": (_parse_sweep, _sweep_invariants),
    "classify": (_parse_classify, _classify_invariants),
    "fit": (_parse_fit, _fit_invariants),
    "verify": (_parse_verify, _verify_invariants),
}


def parse(kind, outputs, stdout):
    return PARSERS[kind][0](outputs, stdout)


def invariants(kind, values, params):
    return PARSERS[kind][1](values, params)


def compare(got, want, where="output"):
    """Differences between parsed values and the stored reference."""
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{where}: {got!r} != reference {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != reference {sorted(want)}"]
        return [p for key in want for p in compare(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != reference {len(want)}"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in compare(g, w, f"{where}[{i}]")]
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} != reference {want!r}"]
    return []
