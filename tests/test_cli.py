import argparse
import json
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from tirex.cli import _write_report, build_parser, run
from tirex.data import load_csv
from tirex.errors import InvalidInputError
from tirex.evaluation import geometric_k_grid
from tirex.process_verify import IndependentNormalModel, ProcessCheckConfig, covariance_check

from oracles import set_cpus, threads_of_work


def read(path):
    return path.read_bytes()


def test_help_exits_zero_and_lists_subcommands(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    for cmd in ("simulate", "fit", "sweep", "classify", "verify-process", "tci-ratio"):
        assert cmd in out


def test_a_one_subcommand_parser_helps_like_the_full_one():
    full_parser, full = build_parser()
    assert sorted(full) == ["classify", "fit", "simulate", "sweep", "sweep-k", "tci-ratio",
                            "verify-process"]
    for name in full:
        parser, subparsers = build_parser(name)
        assert parser.format_help() == full_parser.format_help()
        assert subparsers[name].format_help() == full[name].format_help(), name
        assert all(len(s._actions) == 1 for s in subparsers.values()
                   if s is not subparsers[name])  # only -h: no flags built


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--bogus", "fit"], ["-5"], [""]])
def test_command_errors_do_not_depend_on_the_flags_built(argv, capsys):
    assert run(argv) == 1
    err = capsys.readouterr().err
    with pytest.raises(InvalidInputError) as full:  # the fully built parser's message
        build_parser()[0].parse_args(argv)
    assert err == f"tirex: error: {full.value}\n"


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


def test_classify_fold_eigensolver_failure_is_exit_2(tmp_path, monkeypatch, capsys):
    import tirex.linalg

    # the eigensolves run in this order: fold 0's whitening, then its
    # candidate matrices in ascending k; call 2 is k = 20 of fold 0, and the
    # run stops once fold 0's grid is fitted, before any k-NN vote
    real, calls = np.linalg.eigh, []

    def fail_second(m):
        calls.append(m.shape)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(m)

    monkeypatch.setattr(tirex.linalg.np.linalg, "eigh", fail_second)
    out = tmp_path / "c.csv"
    code = run(["classify", "--model", "A", "--n", "400", "--methods", "tirex1", "--d", "1",
                "--quantile-level", "0.9", "--folds", "2", "--k-grid", "20,80", "--seed", "1",
                "--out", str(out)])
    assert code == 2 and len(calls) == 3
    assert capsys.readouterr().err.startswith("tirex: numerical failure: ")
    assert not out.exists()


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


@pytest.mark.parametrize("methods, flags, message", [
    ("tirex1", ["--k-grid", "40,0"], "k must be >= 1, got 0"),
    ("tirex1", ["--k-grid", "40", "--neighbors", "0"], "n_neighbors must be >= 1, got 0"),
    ("pca", ["--neighbors", "0"], "n_neighbors must be >= 1, got 0"),
])
def test_classify_k_or_vote_size_below_one_names_only_the_value(tmp_path, capsys, methods,
                                                                flags, message):
    # refused before any fit, without the size of a fold's training part
    out = tmp_path / "c.csv"
    assert run(["classify", "--model", "A", "--n", "200", "--methods", methods, "--d", "1",
                "--folds", "2", "--quantile-level", "0.9", "--seed", "1", "--out", str(out)]
               + flags) == 1
    assert capsys.readouterr().err == f"tirex: error: {message}\n"
    assert not out.exists()


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


def test_verify_process_passes_off_the_breakpoints(tmp_path, capsys):
    # k u = 1.5 at u = 0.15: D_hat_n sums the top 2 of the 10 rows, whose
    # covariance 0.2 Xi the check now reads; against 0.15 Xi it failed at 11.46 SE
    assert run(["verify-process", "--n", "200", "--k", "10", "--reps", "4000",
                "--order", "1", "--u-grid", "0.15,0.5,1.0", "--seed", "1",
                "--out", str(tmp_path / "v.csv")]) == 0
    assert capsys.readouterr().out.startswith("process check PASSED")


def test_verify_process_output_ignores_the_cpu_count(tmp_path, capsys, monkeypatch):
    sizes = threads_of_work(monkeypatch)
    outputs = []
    for cpus in (1, 4):
        set_cpus(monkeypatch, cpus)
        out, js = tmp_path / f"vp{cpus}.csv", tmp_path / f"vp{cpus}.json"
        assert run(["verify-process", "--p", "2", "--n", "400", "--k", "40",
                    "--reps", "120", "--order", "2", "--seed", "3",
                    "--out", str(out), "--json-out", str(js)]) == 0
        outputs.append((read(out), read(js), capsys.readouterr().out))
    assert sizes == [4]  # one CPU runs the replications in the calling thread
    assert outputs[0] == outputs[1]
    assert re.fullmatch(r"process check (PASSED|FAILED) \(.*, gate 4\*SE, "
                        r"worst \d+\.\d\d SE\)\n", outputs[0][2])


def test_writing_a_report_csv_holds_no_joined_text(tmp_path):
    # the verify-process --p 6 --order 2 report: 19 440 entries in three row
    # blocks, a 1.58 MB CSV.  One block's columns as lists peak at 1.43 MB
    # traced; its rows as tuples took 1.74 MB, and joining every line and
    # then the text 4.28 MB
    cfg = ProcessCheckConfig(generator=IndependentNormalModel(p=6), n=400, k=40, n_reps=100,
                             u_grid=(0.1, 0.3, 0.5, 0.7, 1.0), order=2, seed=1)
    report = covariance_check(cfg)
    args = argparse.Namespace(out=tmp_path / "v.csv", json_out=None)
    _write_report(report, args)  # leave the first call's imports out of the peak
    tracemalloc.start()
    try:
        _write_report(report, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.cov_entries) == 19440
    assert peak < args.out.stat().st_size


def test_tci_ratio_point_mode(tmp_path):
    out = tmp_path / "r.json"
    code = run(["tci-ratio", "--model", "C", "--y", "2.0", "--v", "1",
                "--w", "0", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["r_tilde"] == 1.0


def _strict_json(path):
    """The JSON of ``path`` under RFC 8259, which has no NaN or Infinity."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_tci_ratio_writes_an_infinite_ratio_as_null(tmp_path):
    # the Bernoulli covariate at w = 0 gives R-tilde a zero denominator; the
    # library flags it as +inf (the sign of R, whose numerator it shares),
    # which the payload used to hold as the token Infinity
    out = tmp_path / "r.json"
    assert run(["tci-ratio", "--model", "A", "--y", "5000", "--v", "1000000", "--w", "0",
                "--out", str(out)]) == 0
    payload = _strict_json(out)
    assert payload["r_tilde"] is None and payload["r"] > 0


def test_sweep_writes_a_cell_without_replications_as_null(tmp_path):
    # no replication of the one cell succeeds, so its statistics are NaN:
    # nan in the CSV, null in the JSON (it used to hold the token NaN)
    out, js = tmp_path / "s.csv", tmp_path / "s.json"
    assert run(["sweep", "--model", "C", "--n", "3", "--method", "tirex1", "--d", "1",
                "--k-grid", "2", "--reps", "2", "--seed", "1",
                "--out", str(out), "--json-out", str(js)]) == 0
    [cell] = _strict_json(js)["cells"]
    assert cell == {"k": 2, "bias_sq": None, "variance": None, "mse": None,
                    "reps_ok": 0, "failures": 2}
    assert out.read_text() == "k,bias_sq,variance,mse\n2,nan,nan,nan\n"


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
    ["--y", "nan", "--v", "1", "--w", "1"],
    ["--expected-abs-r", "--y-grid", "20,nan", "--n-mc", "100", "--seed", "1"],
])
def test_tci_ratio_threshold_must_be_finite(tmp_path, capsys, argv):
    # an infinite y used to exit 0 and write Infinity, which is not JSON; a NaN
    # y was reported as lying below the closed forms' validity bound
    out = tmp_path / "r.json"
    assert run(["tci-ratio", "--model", "A"] + argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tirex: error: the threshold y must be finite, got y=")
    assert not out.exists()


def _loaded_after_cli_import(*packages):
    """The modules of ``packages`` that ``import tirex.cli`` loads in a
    fresh interpreter."""
    code = ("import sys, tirex.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_importing_the_cli_loads_no_scipy():
    # scipy is imported only where tci-ratio integrates numerically; loading
    # it at import time would add its start-up to every CLI call
    assert _loaded_after_cli_import("scipy") == "[]"


def test_importing_the_cli_loads_no_worker_pools():
    # rng.replicate runs on plain threads and no pool; loading
    # concurrent.futures at import time adds about 10 ms to every CLI call
    assert _loaded_after_cli_import("multiprocessing", "concurrent") == "[]"


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
    # a method named twice used to write two identical rows
    (CLASSIFY_A[:5] + ["--methods", "pca,tirex1,pca"] + CLASSIFY_A[7:], None),
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


def test_tci_ratio_with_a_subnormal_w_warns_nothing(tmp_path, capsys):
    # y / w overflows to +inf, where the survival term is 0; the S2 sum used
    # to warn about that overflow (warnings are errors here)
    out = tmp_path / "r.json"
    assert run(["tci-ratio", "--model", "A", "--y", "20", "--v", "1", "--w", "1e-320",
                "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["r_tilde"] == -1.0


HUGE_K_GRID = f"1:1{'0' * 400}:3"


@pytest.mark.parametrize("argv", [
    SWEEP_A + ["--k-grid", HUGE_K_GRID],
    CLASSIFY_A[:-3] + [HUGE_K_GRID] + CLASSIFY_A[-2:],
])
def test_a_k_grid_bound_past_the_largest_size_is_a_user_error(tmp_path, capsys, argv):
    # np.geomspace used to raise OverflowError on a bound past the float range
    assert run(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tirex: error: hi must be at most") and err.count("\n") == 1
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
    # tci-ratio draws no sample, so it takes no --n and no config key n
    path = tmp_path / "s.json"
    path.write_text(json.dumps(GOOD_SPEC))
    point = ["tci-ratio", "--spec", str(path), "--y", "20", "--v", "1", "--w", "1"]
    assert run(point) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"y", "r", "r_tilde"}
    assert run(point + ["--n", "5"]) == 1
    assert "unrecognized arguments: --n 5" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5}))
    assert run(point + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "tirex: error: unknown config key 'n'\n"


@pytest.mark.parametrize("flag", [
    "--eig-floor=0", "--eig-floor=-1", "--eig-floor=nan",
    "--ridge=-1", "--ridge=nan", "--ridge=inf",
])
def test_fit_bad_floor_or_ridge_is_a_user_error(tmp_path, capsys, flag):
    # the option is blamed, on a healthy and on a singular covariance alike,
    # also by the PCA variants, which never whiten
    healthy, flat = tmp_path / "a.csv", tmp_path / "flat.csv"
    assert run(["simulate", "--model", "A", "--n", "200", "--seed", "1",
                "--out", str(healthy)]) == 0
    flat.write_text("x1,x2,y\n" + "".join(f"1.0,{i},{i}\n" for i in range(20)))
    name = flag[2:].split("=")[0].replace("-", "_")
    methods = (["tirex1", "--k", "5"], ["pca", "--d", "1"], ["svd_pca", "--d", "1"])
    for data in (healthy, flat):
        for method in methods:
            out = tmp_path / "f.json"
            assert run(["fit", "--in", str(data), "--method", *method,
                        flag, "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("tirex: error:") and name in err
            assert not out.exists()


@pytest.mark.parametrize("ridge", ["1e300", "1e308"])
def test_fit_ridge_near_the_largest_float_is_no_traceback(tmp_path, capsys, ridge):
    # symmetrizing the ridged covariance used to overflow at 1e308; its tiny
    # whitener gives a tiny raw basis, still of full rank
    data, out = tmp_path / "a.csv", tmp_path / "f.json"
    assert run(["simulate", "--model", "A", "--n", "200", "--seed", "1",
                "--out", str(data)]) == 0
    assert run(["fit", "--in", str(data), "--method", "tirex1", "--k", "20",
                "--ridge", ridge, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert np.isfinite(json.loads(out.read_text())["eigenvalues"]).all()


@pytest.mark.parametrize("method", [["--method", "tirex1", "--k", "2"],
                                    ["--method", "pca", "--d", "1"]])
def test_fit_overflowing_second_moment_is_a_user_error(tmp_path, capsys, method):
    data, out = tmp_path / "big.csv", tmp_path / "f.json"
    data.write_text("a,b,y\n1e200,1,2\n-1e200,2,3\n3,4,5\n")
    assert run(["fit", "--in", str(data)] + method + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "tirex: error: covariates too large: their second moment overflows\n"
    assert "Warning" not in err and not out.exists()


@pytest.mark.parametrize("method", [["--method", "tirex1", "--k", "2"], ["--method", "pca"]])
def test_fit_overflowing_column_mean_is_a_user_error(tmp_path, capsys, method):
    # the column sum overflows before the second moment is formed
    data, out = tmp_path / "big.csv", tmp_path / "f.json"
    data.write_text("a,b,y\n1e308,1,2\n1e308,2,3\n3,4,5\n4,5,6\n")
    assert run(["fit", "--in", str(data)] + method + ["--d", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "tirex: error: covariates too large: their second moment overflows\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--in", "--config", "--spec"])
def test_input_file_that_is_not_utf8_is_a_user_error(tmp_path, capsys, flag):
    bad, out = tmp_path / "bad.txt", tmp_path / "out.csv"
    bad.write_bytes(b'{"seed": "\xff"}' if flag != "--in" else b"a,y\n\xff,2\n")
    argv = {
        "--in": ["fit", "--in", str(bad), "--method", "pca", "--d", "1"],
        "--config": ["sweep", "--config", str(bad)],
        "--spec": ["simulate", "--spec", str(bad), "--n", "5", "--seed", "1"],
    }[flag]
    assert run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"tirex: error: {bad}: not UTF-8 text\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["fit", "--method", "pca", "--d", "1"],
    ["classify", "--methods", "pca", "--d", "1", "--quantile-level", "0.5",
     "--folds", "2", "--seed", "1"],
])
@pytest.mark.parametrize("header, times", [("y,y,x", 2), ("x,y,y,y", 3)])
def test_target_named_twice_in_the_header_is_a_user_error(tmp_path, capsys, argv, header,
                                                          times):
    # the first y used to become the target and the next a covariate named y
    data, out = tmp_path / "dup.csv", tmp_path / "out.json"
    width = len(header.split(","))
    rows = [",".join(str((i * 7 + j * 3) % 11) for j in range(width)) for i in range(40)]
    data.write_text("\n".join([header] + rows) + "\n")
    assert run(argv[:1] + ["--in", str(data)] + argv[1:] + ["--out", str(out)]) == 1
    assert (capsys.readouterr().err
            == f"tirex: error: {data}: column 'y' appears {times} times in the header\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, config, flag", [
    (["--model", "B"], None, "model"),
    (["--spec", "spec.json"], None, "spec"),
    (["--n", "7"], None, "n"),
    ([], {"model": "B"}, "model"),
])
def test_classify_input_file_excludes_model_spec_and_n(tmp_path, capsys, argv, config, flag):
    # the CSV used to win silently; argparse names the later flag of the group
    data, out = tmp_path / "d.csv", tmp_path / "c.csv"
    assert run(["simulate", "--model", "A", "--n", "300", "--seed", "4",
                "--out", str(data)]) == 0
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    assert run(["classify", "--in", str(data), "--methods", "pca", "--d", "1",
                "--quantile-level", "0.9", "--seed", "1", "--out", str(out)] + argv) == 1
    if flag == "n":
        message = "--in cannot be combined with --n"
    elif config is None:
        message = f"argument --{flag}: not allowed with argument --in"
    else:  # config keys come before the typed flags
        message = f"argument --in: not allowed with argument --{flag}"
    assert capsys.readouterr().err == f"tirex: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("where", ["header", "body"])
def test_csv_cell_over_the_field_limit_is_a_user_error(tmp_path, capsys, where):
    # csv.reader refuses a cell above 131072 characters with csv.Error
    data, out = tmp_path / "d.csv", tmp_path / "fit.json"
    big = "9" * 200_000
    data.write_text(f"a,{big},y\n1,2,3\n" if where == "header" else f"a,y\n1,2\n{big},3\n")
    assert run(["fit", "--in", str(data), "--method", "pca", "--d", "1",
                "--out", str(out)]) == 1
    line = 1 if where == "header" else 3
    assert capsys.readouterr().err.startswith(f"tirex: error: {data}: line {line}: field")
    assert not out.exists()


@pytest.mark.parametrize("callee, argv", [
    ("covariance_check", ["verify-process", "--n", "5000", "--k", "500",
                          "--reps", "100000000000", "--seed", "1", "--out", "v.csv"]),
    ("sample", ["simulate", "--model", "A", "--n", "100000000000000", "--seed", "1",
                "--out", "s.csv"]),
    ("geometric_k_grid", ["sweep", "--model", "A", "--n", "1000", "--method", "tirex1",
                          "--d", "1", "--k-grid", "1:1000:100000000000", "--reps", "2",
                          "--seed", "1", "--out", "s.csv"]),
])
def test_out_of_memory_is_a_user_error(tmp_path, monkeypatch, capsys, callee, argv):
    # the callee that would allocate the flags' size raises instead of allocating
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 32.7 TiB for an array")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(f"tirex.cli.{callee}", fail)
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        "tirex: error: out of memory: Unable to allocate 32.7 TiB for an array\n")
    assert list(tmp_path.iterdir()) == []


HUGE = "10000000000000000000"  # past numpy's largest dimension


@pytest.mark.parametrize("argv, config, flag", [
    (["simulate", "--model", "A", "--n", HUGE, "--seed", "1"], None, "--n"),
    (["simulate", "--model", "A", "--seed", "1"], {"n": int(HUGE)}, "--n"),
    (["simulate", "--model", "A", "--n", str(2**48 + 1), "--seed", "1"], None, "--n"),
    (VERIFY[:5] + ["--reps", "1000000000000000000", "--seed", "3"], None, "--reps"),
    (VERIFY[:1] + ["--n", HUGE] + VERIFY[3:], None, "--n"),
    (SWEEP_A[:-4] + ["--reps", HUGE, "--seed", "1", "--k-grid", "40"], None, "--reps"),
    (SWEEP_A[:3] + ["--n", HUGE] + SWEEP_A[5:] + ["--k-grid", "40"], None, "--n"),
    (SWEEP_A + ["--k-grid", "1:400:" + HUGE], None, "the k-grid count"),
    (CLASSIFY_A[:3] + ["--n", HUGE] + CLASSIFY_A[5:], None, "--n"),
    (ER + ["--n-mc", HUGE], None, "--n-mc"),
])
def test_oversized_sizes_are_user_errors(tmp_path, monkeypatch, capsys, argv, config, flag):
    # these used to escape as ValueError tracebacks ("Maximum allowed dimension
    # exceeded", "array is too big") rather than MemoryError; a size flag's
    # type refuses them, the k-grid parser its count
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", "cfg.json"]
    assert run(argv + ["--out", "o.csv"]) == 1
    what = flag if flag == "the k-grid count" else f"argument {flag}:"
    assert capsys.readouterr().err.startswith(f"tirex: error: {what} must be at most {2**48}, got ")
    assert list(tmp_path.iterdir()) == ([] if config is None else [tmp_path / "cfg.json"])


@pytest.mark.parametrize("argv, spec_p, message", [
    pytest.param(
        VERIFY[:1] + ["--p", "10000000000", "--order", "1", "--n", "5000", "--k", "500",
                      "--reps", "100", "--seed", "1"], None,
        f"q^2 (q = 10000000000 process components) must be at most {2**48}, got {10**20}",
        id="verify-process --p"),
    pytest.param(
        VERIFY + ["--p", "5000", "--order", "2"], None,
        f"q^2 (q = 25000000 process components) must be at most {2**48}, got {625 * 10**12}",
        id="verify-process --p at order 2"),
    pytest.param(
        VERIFY[:5] + ["--reps", "100000000000000", "--seed", "3"], None,
        f"reps x u-grid length x q must be at most {2**48}, got {15 * 10**14}",
        id="verify-process --reps times the u-grid"),
    pytest.param(
        ["simulate", "--spec", "s.json", "--n", "5", "--seed", "1"], int(HUGE),
        f"p must be at most {2**48}, got {HUGE}", id="simulate spec p"),
    pytest.param(
        ["tci-ratio", "--spec", "s.json", "--y", "20", "--v", "1", "--w", "1"], int(HUGE),
        f"p must be at most {2**48}, got {HUGE}", id="tci-ratio spec p"),
    pytest.param(
        ["tci-ratio", "--spec", "s.json", "--y", "20", "--v", "1", "--w", "1"], 2**48 + 1,
        f"p must be at most {2**48}, got {2**48 + 1}", id="tci-ratio spec p just past"),
])
def test_oversized_products_are_user_errors(tmp_path, monkeypatch, capsys, argv, spec_p,
                                            message):
    # a size that no single flag bounds: a spec file's p, or the arrays the
    # process check allocates from --p, --order, --reps and the --u-grid
    # length; these used to escape as ValueError tracebacks
    monkeypatch.chdir(tmp_path)
    if spec_p is not None:
        (tmp_path / "s.json").write_text(json.dumps(dict(GOOD_SPEC, p=spec_p)))
    assert run(argv + ["--out", "o.csv"]) == 1
    assert capsys.readouterr().err == f"tirex: error: {message}\n"
    assert not (tmp_path / "o.csv").exists()


SIM = ["simulate", "--n", "5", "--seed", "1", "--out", "o.csv"]


@pytest.mark.parametrize("argv, message", [
    (SIM, "one of the arguments --model --spec is required"),
    (SIM + ["--model", "A", "--spec", "good.json"],
     "argument --spec: not allowed with argument --model"),
    (SIM + ["--spec", "missing.json"], "spec file not found: missing.json"),
    (SIM + ["--spec", "no_d.json"], "no_d.json: bad spec file ('d')"),
    (["simulate", "--spec", "good.json", "--seed", "1", "--out", "o.csv"],
     "--n is required with --spec"),
    (SIM[:-1] + ["", "--model", "A"], "--out '' is not a file path"),
    (SIM[:-1] + ["/", "--model", "A"], "--out '/' is not a file path"),
    (["classify", "--model", "A", "--n", "300", "--methods", "tirex1,nope", "--d", "1",
      "--seed", "1", "--out", "o.csv"],
     "unknown method 'nope'; expected one of tirex1, tirex2, cume, cuve, pca, svd_pca"),
    (["classify", "--model", "A", "--n", "300", "--methods", "pca,tirex1,pca", "--d", "1",
      "--seed", "1", "--out", "o.csv"], "method 'pca' named twice"),
])
def test_cli_user_errors_write_nothing(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "good.json").write_text(json.dumps(GOOD_SPEC))
    (tmp_path / "no_d.json").write_text(json.dumps({k: v for k, v in GOOD_SPEC.items()
                                                     if k != "d"}))
    assert run(argv) == 1
    assert capsys.readouterr().err == f"tirex: error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["good.json", "no_d.json"]


COMMANDS = "{simulate,fit,sweep,classify,verify-process,tci-ratio}"


@pytest.mark.parametrize("argv, config, message", [
    ([], None, f"the following arguments are required: {COMMANDS}"),
    (["sweep-kk"], None, f"argument {COMMANDS}: invalid choice: 'sweep-kk' (choose from "
     "'simulate', 'fit', 'sweep', 'sweep-k', 'classify', 'verify-process', 'tci-ratio')"),
    # flag names match exactly: --k is not --k-grid, --method not --methods
    (SWEEP_A + ["--k", "40"], None, "the following arguments are required: --k-grid"),
    (SWEEP_A + ["--k-grid", "40", "--k", "40"], None, "unrecognized arguments: --k 40"),
    (CLASSIFY_A[:5] + ["--method", "tirex1"] + CLASSIFY_A[7:], None,
     "unrecognized arguments: --method tirex1"),
    (ER + ["--n-m", "5"], None, "unrecognized arguments: --n-m 5"),
    (SWEEP_A + ["--k-grid", "40", "--reps", "2.5"], None,
     "argument --reps: invalid int value: '2.5'"),
    (SWEEP_A + ["--k-grid", "40", "--spec", "s.json"], None,
     "argument --spec: not allowed with argument --model"),
    (SWEEP_A + ["--k-grid", "40"], {"k": 40}, "unknown config key 'k'"),
    (SWEEP_A + ["--k-grid", "40"], {"jobs": "x"}, "argument --jobs: invalid int value: 'x'"),
    (SWEEP_A + ["--k-grid", "40"], {"method": "sir"},
     "argument --method: invalid choice: 'sir' (choose from 'tirex1', 'tirex2', 'cume', "
     "'cuve', 'pca', 'svd_pca')"),
    (SWEEP_A + ["--k-grid", "40"], {"spec": "s.json"},
     "argument --model: not allowed with argument --spec"),
    (SWEEP_A + ["--k-grid", "40"], {"n": 2**48 + 1},
     f"argument --n: must be at most {2**48}, got {2**48 + 1}"),
    (ER, {"expected_abs_r": "yes"}, "argument --expected-abs-r: ignored explicit argument 'yes'"),
])
def test_usage_errors_from_argv_or_config_have_one_format(tmp_path, monkeypatch, capsys, argv,
                                                          config, message):
    # argparse's own errors used to print the usage and exit 2 ("tirex sweep:
    # error: ..."), config errors had their own wording, and every subcommand
    # but tci-ratio took a unique prefix for a flag
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
        argv = argv + ["--config", "c.json"]
    assert run(argv + ["--out", "o.csv"] if argv else argv) == 1
    assert capsys.readouterr().err == f"tirex: error: {message}\n"
    assert not (tmp_path / "o.csv").exists()


def test_config_false_leaves_a_switch_unset(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"expected_abs_r": False, "seed": None, "y": 2}))
    assert run(["tci-ratio", "--model", "C", "--v", "1", "--w", "0",
                "--config", str(cfg)]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"y", "r", "r_tilde"}


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--model", "A", "--n", "50", "--seed", "1", "--out", "dir.csv"],
     "the JSON sidecar 'dir.json' of --out is not a file path"),
    (["fit", "--in", "a.csv", "--method", "pca", "--d", "1", "--out", "f.json",
      "--basis-out", "missing/b.csv"], "--basis-out 'missing/b.csv': no directory 'missing'"),
    (["fit", "--in", "a.csv", "--method", "pca", "--d", "1", "--out", "f.json",
      "--projector-out", "a.csv/p.csv"], "--projector-out 'a.csv/p.csv': no directory 'a.csv'"),
    (SWEEP_A + ["--k-grid", "40", "--out", "o.csv", "--json-out", "dir.json"],
     "--json-out 'dir.json' is not a file path"),
    (CLASSIFY_A + ["--out", "o.csv", "--json-out", "dir.json"],
     "--json-out 'dir.json' is not a file path"),
    (VERIFY + ["--out", "missing/v.csv"], "--out 'missing/v.csv': no directory 'missing'"),
    (["tci-ratio", "--model", "C", "--y", "2", "--v", "1", "--w", "0", "--out", "dir.json"],
     "--out 'dir.json' is not a file path"),
])
def test_unwritable_output_is_refused_before_the_run(tmp_path, monkeypatch, capsys, argv,
                                                      message):
    # the run used to finish, write the outputs before the bad one, and only
    # then fail with an i/o error
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.csv").write_text("x1,x2,y\n" + "".join(f"{i % 7},{i % 5},{i}\n"
                                                          for i in range(30)))
    (tmp_path / "dir.json").mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert run(argv) == 1
    assert capsys.readouterr().err == f"tirex: error: {message}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv, message", [
    (SWEEP_A + ["--k-grid", "40", "--out", "o.csv", "--json-out", "o.csv"],
     "--out 'o.csv' and --json-out 'o.csv'"),
    (["fit", "--in", "a.csv", "--method", "pca", "--d", "1", "--out", "a.csv"],
     "--out 'a.csv' and --in 'a.csv'"),
    (["fit", "--in", "a.csv", "--method", "pca", "--d", "1", "--out", "f.json",
      "--basis-out", "b.csv", "--projector-out", "sub/../b.csv"],
     "--basis-out 'b.csv' and --projector-out 'sub/../b.csv'"),
])
def test_two_flags_naming_one_file_are_refused_before_the_run(tmp_path, monkeypatch, capsys,
                                                              argv, message):
    # the later write used to replace the earlier one, or the input, and
    # the run exited 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.csv").write_text("x1,x2,y\n" + "".join(f"{i % 7},{i % 5},{i}\n"
                                                          for i in range(30)))
    (tmp_path / "sub").mkdir()
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    assert run(argv) == 1
    assert capsys.readouterr().err == f"tirex: error: {message} name the same file\n"
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


def test_classify_default_k_grid(tmp_path):
    out = tmp_path / "c.json"
    assert run(["classify", "--model", "A", "--n", "1000", "--methods", "tirex1,pca",
                "--d", "1", "--quantile-level", "0.9", "--seed", "1",
                "--out", str(tmp_path / "c.csv"), "--json-out", str(out)]) == 0
    meta = json.loads(out.read_text())
    n_train = meta["n_train"]
    grid = sorted(set(geometric_k_grid(max(1, n_train // 100), n_train, 30)))
    chosen = {s["method"]: s["chosen_k"] for s in meta["scores"]}
    assert chosen["tirex1"] in grid and chosen["pca"] is None
