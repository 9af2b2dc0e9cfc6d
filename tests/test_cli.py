import json
import subprocess
import sys

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
])
def test_explicit_zero_or_empty_reaches_the_validators(tmp_path, capsys, argv):
    # an explicit 0 (or empty list) used to be replaced by the default
    assert run(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("tirex: error:")
    assert not (tmp_path / "out").exists()


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
