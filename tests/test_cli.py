import json
import subprocess
import sys

import numpy as np
import pytest

from tirex.cli import run
from tirex.data import load_csv


def read(path):
    return path.read_bytes()


def test_help_exits_zero_and_lists_subcommands(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    for cmd in ("simulate", "fit", "sweep", "classify", "verify-process", "tci-ratio"):
        assert cmd in out


def test_no_subcommand_is_user_error():
    assert run([]) == 1


def test_unknown_flag_is_user_error(capsys):
    assert run(["simulate", "--bogus", "1"]) == 1


def test_simulate_contract(tmp_path):
    out = tmp_path / "a.csv"
    code = run(["simulate", "--model", "A", "--n", "1000", "--seed", "7",
                "--out", str(out)])
    assert code == 0
    ds = load_csv(out)
    assert ds.n == 1000 and ds.p == 2
    sidecar = json.loads((tmp_path / "a.json").read_text())
    assert sidecar["seed"] == 7
    assert sidecar["spec"]["p"] == 2


def test_simulate_requires_seed(tmp_path, capsys):
    assert run(["simulate", "--model", "A", "--n", "10",
                "--out", str(tmp_path / "x.csv")]) == 1
    assert "seed" in capsys.readouterr().err


def test_simulate_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(["simulate", "--model", "C", "--n", "500", "--seed", "3",
                    "--out", str(out)]) == 0
    assert read(a) == read(b)


def test_fit_json_has_descending_eigenvalues(tmp_path):
    data = tmp_path / "a.csv"
    run(["simulate", "--model", "A", "--n", "2000", "--seed", "1", "--out", str(data)])
    out = tmp_path / "fit.json"
    basis = tmp_path / "basis.csv"
    proj = tmp_path / "proj.csv"
    code = run(["fit", "--in", str(data), "--method", "tirex1", "--k", "200",
                "--d", "1", "--out", str(out), "--basis-out", str(basis),
                "--projector-out", str(proj)])
    assert code == 0
    meta = json.loads(out.read_text())
    assert meta["method"] == "tirex1" and meta["k"] == 200 and meta["d"] == 1
    vals = meta["eigenvalues"]
    assert vals == sorted(vals, reverse=True)
    rows = [r.split(",") for r in basis.read_text().strip().split("\n")]
    assert len(rows) == 2 and len(rows[0]) == 1
    pmat = [[float(v) for v in r.split(",")]
            for r in proj.read_text().strip().split("\n")]
    assert len(pmat) == 2 and len(pmat[0]) == 2
    assert abs(pmat[0][0] + pmat[1][1] - 1.0) < 1e-8  # trace = rank = 1


def test_fit_rank_deficiency_is_exit_2(tmp_path):
    data = tmp_path / "flat.csv"
    data.write_text("x1,x2,y\n" + "".join(f"1.0,{i},{i}\n" for i in range(20)))
    code = run(["fit", "--in", str(data), "--method", "tirex1", "--k", "5",
                "--d", "1", "--out", str(tmp_path / "f.json")])
    assert code == 2


def test_fit_eigensolver_failure_is_exit_2(tmp_path, monkeypatch, capsys):
    import tirex.linalg

    data = tmp_path / "a.csv"
    assert run(["simulate", "--model", "A", "--n", "200", "--seed", "1",
                "--out", str(data)]) == 0

    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(tirex.linalg.np.linalg, "eigh", fail)
    code = run(["fit", "--in", str(data), "--method", "tirex1", "--k", "50",
                "--d", "1", "--out", str(tmp_path / "f.json")])
    assert code == 2
    assert "did not converge" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


def test_fit_missing_file_is_exit_1(tmp_path, capsys):
    assert run(["fit", "--in", str(tmp_path / "nope.csv"), "--method", "tirex1",
                "--k", "5", "--out", str(tmp_path / "f.json")]) == 1


def test_sweep_csv_shape_and_determinism(tmp_path):
    args = ["sweep", "--model", "A", "--n", "800", "--method", "tirex1",
            "--d", "1", "--k-grid", "40:400:5", "--reps", "3", "--seed", "1"]
    a, b = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert read(a) == read(b)
    lines = a.read_text().strip().split("\n")
    assert lines[0] == "k,bias_sq,variance,mse"
    assert len(lines) == 6
    ks = [int(l.split(",")[0]) for l in lines[1:]]
    assert ks[0] == 40 and ks[-1] == 400


def test_sweep_contract_example_30_rows(tmp_path):
    # the documented invocation: 30 geometric k values on preset A
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--model", "A", "--method", "tirex1", "--d", "1",
                "--k-grid", "100:10000:30", "--reps", "20", "--seed", "1",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "k,bias_sq,variance,mse"
    assert len(lines) == 31
    ks = [int(l.split(",")[0]) for l in lines[1:]]
    assert ks[0] == 100 and ks[-1] == 10_000 and len(ks) == 30


def test_sweep_golden_regression(tmp_path):
    # frozen output of a fixed tiny configuration; regenerate on purpose only
    out = tmp_path / "g.csv"
    assert run(["sweep", "--model", "A", "--n", "500", "--method", "tirex1",
                "--d", "1", "--k-grid", "50,250", "--reps", "4", "--seed", "123",
                "--out", str(out), "--json-out", str(tmp_path / "g.json")]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    got = {int(r[0]): [float(r[1]), float(r[2]), float(r[3])] for r in rows}
    frozen = {
        50: [0.006723799072276456, 0.007581098863228048, 0.014304897935504506],
        250: [0.0030019610672546593, 0.01342161262876896, 0.016423573696023618],
    }
    for k, vals in frozen.items():
        assert got[k] == pytest.approx(vals, rel=1e-9)
    meta = json.loads((tmp_path / "g.json").read_text())
    assert meta["reps"] == 4 and len(meta["cells"]) == 2


def test_config_file_merges_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "A", "n": 400, "method": "tirex1", "d": 1,
        "k_grid": "40,80", "reps": 2, "seed": 5,
    }))
    a = tmp_path / "a.csv"
    assert run(["sweep", "--config", str(cfg), "--out", str(a)]) == 0
    # same run spelled with flags only
    b = tmp_path / "b.csv"
    assert run(["sweep", "--model", "A", "--n", "400", "--method", "tirex1",
                "--d", "1", "--k-grid", "40,80", "--reps", "2", "--seed", "5",
                "--out", str(b)]) == 0
    assert read(a) == read(b)
    # an explicit flag overrides the config value
    c = tmp_path / "c.csv"
    assert run(["sweep", "--config", str(cfg), "--reps", "3", "--out", str(c)]) == 0
    assert read(c) != read(a)


def test_config_unknown_key_is_named(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kk": 10}))
    assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    assert "kk" in capsys.readouterr().err


def test_config_must_be_json_object(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    cfg.write_text("{not json")
    assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1


def test_classify_smoke(tmp_path):
    out = tmp_path / "cls.csv"
    code = run(["classify", "--model", "A", "--n", "600", "--methods", "tirex1,pca",
                "--d", "1", "--quantile-level", "0.9", "--folds", "3",
                "--k-grid", "40,160", "--seed", "0", "--out", str(out),
                "--json-out", str(tmp_path / "cls.json")])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "method,am_risk,auc,chosen_k"
    assert len(lines) == 3
    meta = json.loads((tmp_path / "cls.json").read_text())
    assert meta["baseline_am_risk"] == 0.5


def test_classify_from_csv_input(tmp_path):
    data = tmp_path / "d.csv"
    run(["simulate", "--model", "A", "--n", "600", "--seed", "4", "--out", str(data)])
    out = tmp_path / "cls.csv"
    code = run(["classify", "--in", str(data), "--methods", "pca", "--d", "1",
                "--quantile-level", "0.9", "--folds", "3", "--k-grid", "40",
                "--seed", "4", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("method,")


def test_classify_clamps_cv_k_to_training_size(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["classify", "--model", "A", "--n", "1000", "--methods", "tirex1",
                "--d", "1", "--quantile-level", "0.9", "--folds", "3",
                "--k-grid", "5000", "--seed", "1", "--out", str(out)]) == 0
    # the CV pick is clamped to the 800 training rows that the final fit uses
    assert out.read_text().splitlines()[1].endswith(",800")


def test_sweep_jobs_flag_matches_serial(tmp_path):
    base = ["sweep", "--model", "A", "--n", "400", "--method", "tirex1",
            "--d", "1", "--k-grid", "40,200", "--reps", "4", "--seed", "2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(base + ["--out", str(a)]) == 0
    assert run(base + ["--jobs", "2", "--out", str(b)]) == 0
    assert read(a) == read(b)


def test_verify_process_smoke(tmp_path, capsys):
    out = tmp_path / "vp.csv"
    code = run(["verify-process", "--p", "2", "--n", "400", "--k", "40",
                "--reps", "120", "--u-grid", "0.5,1.0", "--seed", "3",
                "--out", str(out), "--json-out", str(tmp_path / "vp.json")])
    assert code == 0
    assert "process check" in capsys.readouterr().out
    assert out.read_text().startswith("u_s,u_t,row,col,")


def test_tci_ratio_point_mode(tmp_path):
    out = tmp_path / "r.json"
    code = run(["tci-ratio", "--model", "C", "--y", "2.0", "--v", "1",
                "--w", "0", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["r_tilde"] == 1.0


def test_tci_ratio_expectation_mode(tmp_path):
    out = tmp_path / "er.json"
    code = run(["tci-ratio", "--model", "A", "--expected-abs-r",
                "--y-grid", "20,50", "--n-mc", "2000", "--seed", "1",
                "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["expected_abs_r"][0] >= payload["expected_abs_r"][1]


def test_tci_ratio_config_can_enable_expectation_mode(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "A", "expected_abs_r": True, "y_grid": "20,50",
        "n_mc": 1000, "seed": 2,
    }))
    out = tmp_path / "er.json"
    assert run(["tci-ratio", "--config", str(cfg), "--out", str(out)]) == 0
    assert "expected_abs_r" in json.loads(out.read_text())


@pytest.mark.parametrize("argv", [
    ["--y", "inf", "--v", "1", "--w", "1"],
    ["--expected-abs-r", "--y-grid", "20,inf", "--n-mc", "100", "--seed", "1"],
])
def test_tci_ratio_threshold_must_be_finite(tmp_path, capsys, argv):
    # an infinite y used to exit 0 and write Infinity, which is not JSON
    out = tmp_path / "r.json"
    assert run(["tci-ratio", "--model", "A"] + argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tirex: error:") and "finite" in err
    assert not out.exists()


def test_importing_the_cli_loads_no_scipy():
    # scipy is imported only where tci-ratio integrates numerically; loading
    # it at import time would add its start-up to every CLI call
    code = ("import sys, tirex.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "tirex.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


SWEEP_A = ["sweep", "--model", "A", "--n", "400", "--method", "tirex1", "--d", "1",
           "--reps", "2", "--seed", "1"]
VERIFY = ["verify-process", "--n", "400", "--k", "40", "--reps", "120", "--seed", "3"]
CLASSIFY_A = ["classify", "--model", "A", "--n", "600", "--methods", "tirex1", "--d", "1",
              "--quantile-level", "0.9", "--folds", "3", "--k-grid", "40", "--seed", "0"]
ER = ["tci-ratio", "--model", "A", "--expected-abs-r", "--y-grid", "20", "--seed", "1"]


@pytest.mark.parametrize("argv, config", [
    (SWEEP_A + ["--k-grid", "a:b:c"], None),
    (SWEEP_A + ["--k-grid", "10,x"], None),
    (SWEEP_A + ["--k-grid", "1::3"], None),
    (VERIFY + ["--u-grid", "a"], None),
    (["tci-ratio", "--model", "C", "--y", "2.0", "--v", "x", "--w", "0"], None),
    (["verify-process", "--n", "400", "--reps", "120", "--seed", "3"], {"k": "abc"}),
    (["sweep", "--model", "A", "--n", "400", "--method", "tirex1", "--d", "1",
      "--k-grid", "40", "--seed", "1"], {"reps": "x"}),
    (["sweep", "--model", "A", "--n", "400", "--d", "1", "--k-grid", "40",
      "--reps", "2", "--seed", "1"], {"method": "sir"}),
    (["verify-process", "--n", "400", "--reps", "120", "--seed", "3"], {"k": [1, 2]}),
    (["verify-process", "--n", "400", "--reps", "120", "--seed", "3"], {"k": 40.7}),
    # a switch takes only a JSON boolean; these used to turn the mode on
    (ER[:3] + ER[4:] + ["--n-mc", "100"], {"expected_abs_r": "false"}),
    (ER[:3] + ER[4:] + ["--n-mc", "100"], {"expected_abs_r": "no"}),
    (ER[:3] + ER[4:] + ["--n-mc", "100"], {"expected_abs_r": 2}),
])
def test_parse_errors_exit_1_with_message(tmp_path, capsys, argv, config):
    argv = argv + ["--out", str(tmp_path / "out")]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("tirex: error:")


@pytest.mark.parametrize("argv", [
    VERIFY + ["--p", "0"],
    VERIFY[:3] + ["--k", "0"] + VERIFY[5:],
    VERIFY[:3] + ["--k", "-5"] + VERIFY[5:],
    VERIFY + ["--u-grid", ""],
    CLASSIFY_A + ["--neighbors", "0"],
    CLASSIFY_A + ["--quantile-level", "0"],
    CLASSIFY_A + ["--folds", "0"],
    CLASSIFY_A[:5] + ["--methods", ""] + CLASSIFY_A[7:],
    ER + ["--n-mc", "0"],
    SWEEP_A + ["--k-grid", ","],
    SWEEP_A + ["--k-grid", "40", "--jobs", "0"],
    SWEEP_A + ["--k-grid", "40", "--jobs", "-3"],
    ER + ["--y-grid", ""],
    ER + ["--y-grid", ","],
])
def test_explicit_zero_or_empty_reaches_the_validators(tmp_path, capsys, argv):
    # an explicit 0 (or empty list) used to be replaced by the default
    assert run(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("tirex: error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, config", [
    (["simulate", "--model", "A", "--n", "5", "--seed", "-1"], None),
    (["simulate", "--model", "A", "--n", "5", "--seed", "1", "--stream", "-1"], None),
    (["simulate", "--model", "A", "--n", "5"], {"seed": -1}),
    (SWEEP_A + ["--k-grid", "40", "--seed", "-1"], None),
    (CLASSIFY_A + ["--seed", "-1"], None),
    (VERIFY + ["--seed", "-1"], None),
    (ER + ["--seed", "-1"], None),
])
def test_negative_seed_or_stream_is_a_user_error(tmp_path, capsys, argv, config):
    out = tmp_path / "out.csv"
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    assert run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("tirex: error:")
    assert not out.exists() and not out.with_suffix(".json").exists()


@pytest.mark.parametrize("argv, name", [
    (["--model", "A", "--y", "20", "--v", "nan", "--w", "1"], "v"),
    (["--model", "C", "--y", "2", "--v", "inf", "--w", "1"], "v"),
    (["--model", "A", "--y", "20", "--v", "1", "--w=-inf"], "w"),
])
def test_tci_ratio_refuses_non_finite_covariates(tmp_path, capsys, argv, name):
    out = tmp_path / "r.json"
    assert run(["tci-ratio"] + argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"tirex: error: {name} contains non-finite entries\n"
    assert not out.exists()


def test_explicit_zero_ridge_is_the_default(tmp_path):
    data = tmp_path / "a.csv"
    run(["simulate", "--model", "A", "--n", "500", "--seed", "1", "--out", str(data)])
    base = ["fit", "--in", str(data), "--method", "tirex1", "--k", "50"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(base + ["--out", str(a)]) == 0
    assert run(base + ["--ridge", "0", "--out", str(b)]) == 0
    assert read(a) == read(b)


def test_config_values_are_converted_like_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "A", "n": "400", "method": "tirex1", "d": "1",
                               "k_grid": 40, "reps": "2", "seed": 5}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["sweep", "--config", str(cfg), "--out", str(a)]) == 0
    assert run(["sweep", "--model", "A", "--n", "400", "--method", "tirex1", "--d", "1",
                "--k-grid", "40", "--reps", "2", "--seed", "5", "--out", str(b)]) == 0
    assert read(a) == read(b)


GOOD_SPEC = {"p": 2, "d": 1, "theta": 0.5, "alpha1": 10.0, "alpha2": 10.0,
             "covariate_law": {"kind": "uniform", "a": 1.0, "b": 10.0}}


@pytest.mark.parametrize("spec", [
    dict(GOOD_SPEC, p="x"),
    [GOOD_SPEC],
    dict(GOOD_SPEC, covariate_law="uniform"),
    dict(GOOD_SPEC, pi1="abc"),
    dict(GOOD_SPEC, p=2.7),
    dict(GOOD_SPEC, p=3, d=1.5),
])
def test_malformed_spec_file_exits_1_with_message(tmp_path, capsys, spec):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "o.csv"
    assert run(["simulate", "--spec", str(path), "--n", "10", "--seed", "1",
                "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("tirex: error:")
    assert not out.exists()


def test_spec_file_accepts_an_integral_float_dimension(tmp_path):
    path, out = tmp_path / "s.json", tmp_path / "o.csv"
    path.write_text(json.dumps(dict(GOOD_SPEC, p=2.0)))
    assert run(["simulate", "--spec", str(path), "--n", "5", "--seed", "1",
                "--out", str(out)]) == 0
    assert json.loads(out.with_suffix(".json").read_text())["spec"]["p"] == 2


@pytest.mark.parametrize("field", ["alpha1", "alpha2"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
def test_spec_file_alpha_must_be_finite_and_positive(tmp_path, capsys, field, value):
    path, out = tmp_path / "s.json", tmp_path / "o.csv"
    path.write_text(json.dumps(dict(GOOD_SPEC, **{field: value})))  # NaN, Infinity
    assert run(["simulate", "--spec", str(path), "--n", "5", "--seed", "1",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tirex: error:") and field in err
    assert "non-finite" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["spec", "config"])
def test_simulate_sidecar_may_not_overwrite_an_input_file(tmp_path, capsys, flag):
    spec, cfg = tmp_path / "s1.json", tmp_path / "c1.json"
    spec.write_text(json.dumps(GOOD_SPEC))
    cfg.write_text(json.dumps({"seed": 1}))
    before = {path: path.read_bytes() for path in (spec, cfg)}
    out = (spec if flag == "spec" else cfg).with_suffix(".csv")
    assert run(["simulate", "--spec", str(spec), "--config", str(cfg), "--n", "5",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tirex: error:") and f"--{flag}" in err
    assert {path: path.read_bytes() for path in (spec, cfg)} == before
    assert not out.exists()


def test_simulate_sidecar_may_not_overwrite_the_csv(tmp_path, capsys):
    out = tmp_path / "data.json"
    out.write_text("keep me\n")
    assert run(["simulate", "--model", "A", "--n", "5", "--seed", "1",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tirex: error:") and "--out" in err
    assert out.read_text() == "keep me\n"


def test_tci_ratio_spec_needs_no_n(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(GOOD_SPEC))
    point = ["tci-ratio", "--spec", str(path), "--y", "20", "--v", "1", "--w", "1"]
    assert run(point) == 0
    without_n = json.loads(capsys.readouterr().out)
    assert run(point + ["--n", "10"]) == 0
    with_n = json.loads(capsys.readouterr().out)
    assert (without_n["r"], without_n["r_tilde"]) == (with_n["r"], with_n["r_tilde"])


@pytest.mark.parametrize("flag", [
    "--eig-floor=0", "--eig-floor=-1", "--eig-floor=nan",
    "--ridge=-1", "--ridge=nan", "--ridge=inf",
])
def test_fit_bad_floor_or_ridge_is_a_user_error(tmp_path, capsys, flag):
    # the option is blamed, on a healthy and on a singular covariance alike
    healthy, flat = tmp_path / "a.csv", tmp_path / "flat.csv"
    assert run(["simulate", "--model", "A", "--n", "200", "--seed", "1",
                "--out", str(healthy)]) == 0
    flat.write_text("x1,x2,y\n" + "".join(f"1.0,{i},{i}\n" for i in range(20)))
    name = flag[2:].split("=")[0].replace("-", "_")
    for data in (healthy, flat):
        out = tmp_path / "f.json"
        assert run(["fit", "--in", str(data), "--method", "tirex1", "--k", "5",
                    flag, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("tirex: error:") and name in err
        assert not out.exists()


@pytest.mark.parametrize("method", [["--method", "tirex1", "--k", "2"],
                                    ["--method", "pca", "--d", "1"]])
def test_fit_overflowing_second_moment_is_a_user_error(tmp_path, capsys, method):
    data, out = tmp_path / "big.csv", tmp_path / "f.json"
    data.write_text("a,b,y\n1e200,1,2\n-1e200,2,3\n3,4,5\n")
    assert run(["fit", "--in", str(data)] + method + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "tirex: error: covariates too large: their second moment overflows\n"
    assert "Warning" not in err and not out.exists()


@pytest.mark.parametrize("argv, config, flag", [
    (["--model", "B"], None, "model"),
    (["--spec", "spec.json"], None, "spec"),
    (["--n", "7"], None, "n"),
    ([], {"model": "B"}, "model"),
])
def test_classify_input_file_excludes_model_spec_and_n(tmp_path, capsys, argv, config, flag):
    # the CSV used to win silently
    data, out = tmp_path / "d.csv", tmp_path / "c.csv"
    assert run(["simulate", "--model", "A", "--n", "300", "--seed", "4",
                "--out", str(data)]) == 0
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    assert run(["classify", "--in", str(data), "--methods", "pca", "--d", "1",
                "--quantile-level", "0.9", "--seed", "1", "--out", str(out)] + argv) == 1
    assert capsys.readouterr().err == f"tirex: error: --in cannot be combined with --{flag}\n"
    assert not out.exists()
