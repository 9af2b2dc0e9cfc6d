"""Tests of the benchmark itself.

Run from the repository root:  PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

import checks
import run as bench
import tracer

HERE = Path(__file__).resolve().parent


def span(name, start, end, parent=None, counts=None):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "counts": counts or {}}


def test_self_times_on_hand_built_tree():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a1", 2.0, 3.0, parent=1),
        span("b", 5.0, 7.0, parent=0),
        span("c", 6.5, 8.0, parent=0),   # overlaps b: the union is counted once
        span("d", 9.5, 11.0, parent=0),  # runs past its parent: clipped
    ]
    assert tracer.self_times(spans) == pytest.approx([3.5, 2.0, 1.0, 2.0, 1.5, 1.5])


def test_layer_totals_hide_tracer_spans_and_count_distinct_inputs():
    spans = [
        span("outer", 0.0, 10.0),
        span("inner", 1.0, 3.0, parent=0, counts={"key": "x", "rows": 5}),
        span(tracer.HIDDEN, 3.0, 4.0, parent=0),
        span("inner", 4.0, 5.0, parent=0, counts={"key": "x", "rows": 5}),
        span("inner", 6.0, 7.0, parent=0, counts={"key": "y", "rows": 2}),
    ]
    totals = tracer.layer_totals(spans)
    assert set(totals) == {"outer", "inner"}
    assert totals["outer"]["self_s"] == pytest.approx(5.0)
    assert totals["inner"] == pytest.approx(
        {"calls": 3, "self_s": 4.0, "rows": 12, "distinct": 2})


def _tirex_namespaces():
    import tirex.cli  # noqa: F401  (loads every tirex module)
    from tirex.process_verify import IndependentNormalModel

    spaces = {name: mod for name, mod in sys.modules.items()
              if name == "tirex" or name.startswith("tirex.")}
    spaces["IndependentNormalModel"] = IndependentNormalModel
    return {name: dict(vars(obj)) for name, obj in spaces.items()}


def test_traced_run_restores_every_tirex_attribute(tmp_path):
    import tirex.cli
    import tirex.estimators

    before = _tirex_namespaces()
    original_eigen = tirex.estimators.sym_eigen
    recorder = tracer.Recorder()
    patches = tracer.install(recorder)
    try:
        assert tirex.estimators.sym_eigen is not original_eigen
        assert tirex.cli.run(["simulate", "--model", "B", "--n", "400", "--seed", "3",
                              "--out", str(tmp_path / "b.csv")]) == 0
        assert tirex.cli.run(["fit", "--in", str(tmp_path / "b.csv"), "--method", "tirex2",
                              "--k", "100", "--d", "5", "--out", str(tmp_path / "f.json")]) == 0
    finally:
        tracer.uninstall(patches)
    after = _tirex_namespaces()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        changed = [k for k, v in attrs.items() if after[name][k] is not v]
        assert not changed, (name, changed)

    totals = tracer.layer_totals(recorder.spans)
    assert totals["estimators.tirex2_matrix"]["flops"] == 2 * 100 * 30**3
    assert totals["synthetic.sample"]["rows"] == 400
    assert totals["data.load_csv"]["bytes"] == (tmp_path / "b.csv").stat().st_size
    # sym_eigen is reached both through linalg.inv_sqrt and estimators
    assert totals["linalg.sym_eigen"]["calls"] == 2


def _sweep_outputs(tmp_path):
    from tirex.cli import run

    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--model", "B", "--n", "600", "--method", "tirex2", "--d", "5",
                "--k-grid", "60,300", "--reps", "2", "--seed", "5", "--out", str(out)]) == 0
    return {"sweep.csv": out.read_bytes()}


def test_sweep_check_rejects_a_perturbed_mse(tmp_path):
    outputs = _sweep_outputs(tmp_path)
    params = {"k_grid": [60, 300]}
    values = checks.parse("sweep", outputs, "")
    assert checks.invariants("sweep", values, params) == []
    assert checks.compare(values, json.loads(json.dumps(values))) == []

    lines = outputs["sweep.csv"].decode().splitlines()
    k, bias, var, mse = lines[1].split(",")
    lines[1] = ",".join([k, bias, var, repr(float(mse) * (1 + 1e-6))])
    bad = checks.parse("sweep", {"sweep.csv": "\n".join(lines).encode()}, "")
    assert any("bias_sq + variance" in p for p in checks.invariants("sweep", bad, params))
    assert checks.compare(bad, values)


def test_reference_comparison_is_exact_on_chosen_k_and_passed():
    reference = json.loads((HERE / "reference.json").read_text())
    classify = reference["classify-A"]
    assert checks.compare(json.loads(json.dumps(classify)), classify) == []

    close = json.loads(json.dumps(classify))
    close["auc"][0] *= 1 + 1e-12
    assert checks.compare(close, classify) == []

    far = json.loads(json.dumps(classify))
    far["auc"][0] *= 1 + 1e-7
    assert checks.compare(far, classify)

    other_k = json.loads(json.dumps(classify))
    other_k["chosen_k"][0] = 1600 if classify["chosen_k"][0] == 400 else 400
    assert checks.compare(other_k, classify)

    verify = reference["verify-process-2"]
    assert checks.compare(dict(verify, passed=False), verify)


def test_verify_check_tolerates_rare_gate_excursions_only():
    params = bench.WORKLOADS["verify-process-2"]["params"]
    values = {"passed": False, "rows": 1215, "ok_rows": 1213}
    assert checks.invariants("verify", values, params) == []
    values["ok_rows"] = 1100
    assert any("fail the 4-SE gate" in p for p in checks.invariants("verify", values, params))


def test_classify_check_wants_tirex_above_chance_but_not_pca():
    params = bench.WORKLOADS["classify-A"]["params"]
    values = {"method": ["tirex1", "pca"], "am_risk": [0.3, 0.5],
              "auc": [0.91, 0.44], "chosen_k": [1600, None]}
    assert checks.invariants("classify", values, params) == []
    values["auc"] = [0.49, 0.44]
    assert any("tirex1: AUC" in p for p in checks.invariants("classify", values, params))
    values["auc"], values["chosen_k"] = [0.91, 0.44], [1000, None]
    assert any("chosen_k 1000" in p for p in checks.invariants("classify", values, params))


def test_fit_check_rejects_a_non_orthonormal_basis():
    values = json.loads(json.dumps(
        json.loads((HERE / "reference.json").read_text())["fit-B-csv"]))
    params = bench.WORKLOADS["fit-B-csv"]["params"]
    assert checks.invariants("fit", values, params) == []
    values["basis"][0][0] += 1e-6
    assert checks.invariants("fit", values, params)


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == bench.PER_LAYER
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == bench.STATS[bench.stat_of(m["name"])]
    layers = {name for name, *_ in tracer.LAYERS}
    for name in bench.PER_LAYER:
        layer = name.rsplit(".", 1)[0]
        assert layer in layers or layer in ("import.scipy.stats", "trace"), name


def test_scipy_stats_import_time_is_read_from_importtime_output():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       120 |        340 |     scipy.stats._stats",
        "import time:      2000 |     912345 |   scipy.stats",
        "tirex: error: something unrelated",
    ])
    assert bench.scipy_stats_import_s(stderr) == pytest.approx(0.912345)
    assert bench.scipy_stats_import_s("") == 0.0
