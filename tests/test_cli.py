import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import linear_net
from hypothesis import given, settings, strategies as st

from causalflow import __version__, cli
from causalflow import causal_api as api
from causalflow.cfm_train import TrainConfig
from causalflow.errors import ConfigError, ContractError
from causalflow.ode_engine import OdeConfig
from causalflow.scm_data import DgpConfig, Scaler, load_csv
from causalflow.velocity_net import FlowModel, NetConfig, load_model, save_model


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def small_run(tmp_path):
    """Generated data plus a quickly trained model, shared per test."""
    dgp = _write(tmp_path / "dgp.cfg", "n = 40\nd_x = 2\nseed = 4\n")
    tr = _write(tmp_path / "train.cfg",
                "max_iters = 10\nbatch_size = 20\nlr = 0.005\nseed = 1\n")
    data = str(tmp_path / "data.csv")
    model = str(tmp_path / "model.json")
    assert cli.main(["generate", "--config", dgp, "--out", data]) == 0
    assert cli.main(["train", "--data", data, "--out", model,
                     "--train-config", tr]) == 0
    return tmp_path, dgp, tr, data, model


def test_read_kv_config(tmp_path):
    p = _write(tmp_path / "c.cfg",
               "# comment\n\nlr = 0.01  # inline\nseed=3\n")
    assert cli.read_kv_config(p) == {"lr": "0.01", "seed": "3"}
    bad = _write(tmp_path / "bad.cfg", "just words\n")
    with pytest.raises(ConfigError, match="line 1"):
        cli.read_kv_config(bad)
    dup = _write(tmp_path / "dup.cfg", "lr = 1\nlr = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        cli.read_kv_config(dup)


def test_config_builders(tmp_path):
    p = _write(tmp_path / "g.cfg",
               "n = 50\nd_x = 3\nbeta = 0.2\nw_shift = 1.0,2.0,3.0\n"
               "propensity = logistic:0.1,0.2,0.3\nseed = 7\n")
    cfg = cli.dgp_config_from_file(p)
    assert cfg.beta == (0.2, 0.2, 0.2)
    assert cfg.w_shift == (1.0, 2.0, 3.0)
    assert cfg.propensity == "logistic"
    assert cfg.propensity_coef == (0.1, 0.2, 0.3)
    assert cli.dgp_config_from_file(p, seed_override=9).seed == 9

    bad_len = _write(tmp_path / "g2.cfg", "d_x = 3\nbeta = 1.0,2.0\n")
    with pytest.raises(ConfigError, match="beta"):
        cli.dgp_config_from_file(bad_len)
    unknown = _write(tmp_path / "g3.cfg", "banana = 1\n")
    with pytest.raises(ConfigError, match="banana"):
        cli.dgp_config_from_file(unknown)

    t = _write(tmp_path / "t.cfg", "max_iters = 5\nlr = 0.1\n")
    tc = cli.train_config_from_file(t)
    assert tc.max_iters == 5 and tc.lr == 0.1
    assert cli.train_config_from_file(t, seed_override=3).seed == 3

    n = _write(tmp_path / "n.cfg",
               "hidden_dim = 8\ntime_encoding = sinusoidal\ninit_seed = 2\n")
    nc = cli.net_config_from_file(n, d_x=4)
    assert nc.hidden == 8 and nc.time_encoding == "sinusoidal"
    assert nc.d_x == 4 and nc.init_seed == 2


def test_generate_writes_data_and_manifest(tmp_path):
    dgp = _write(tmp_path / "dgp.cfg", "n = 30\nd_x = 2\nseed = 5\n")
    out = str(tmp_path / "d.csv")
    assert cli.main(["generate", "--config", dgp, "--out", out]) == 0
    ds = load_csv(out)
    assert ds.n == 30 and ds.d_x == 2 and ds.ycf is not None
    man = json.loads((tmp_path / "d.csv.manifest.json").read_text())
    assert man["command"] == "generate"
    assert man["outputs"][out] == cli._sha256(out)
    assert man["tool_version"]

    out2 = str(tmp_path / "d2.csv")
    assert cli.main(["generate", "--config", dgp, "--out", out2,
                     "--seed", "6"]) == 0
    assert (tmp_path / "d.csv").read_bytes() != (tmp_path / "d2.csv").read_bytes()


def test_train_artifacts(small_run):
    tmp_path, _, _, data, model = small_run
    m = load_model(model)
    assert m.cfg.d_x == 2
    assert m.train_meta["iters_run"] == 10
    loss_lines = (tmp_path / "model.loss.csv").read_text().splitlines()
    assert loss_lines[0] == "iter,loss"
    assert len(loss_lines) == 11
    first = float(loss_lines[1].split(",")[1])
    assert np.isfinite(first)
    assert (tmp_path / "model.json.manifest.json").exists()


def test_train_meta_and_summary_report_the_last_iteration(small_run, tmp_path, capsys):
    _, _, _, data, _ = small_run
    tr = _write(tmp_path / "log7.cfg", "max_iters = 10\nbatch_size = 20\nloss_log_every = 7\n")
    model = str(tmp_path / "log7.json")
    capsys.readouterr()
    assert cli.main(["train", "--data", data, "--out", model, "--train-config", tr]) == 0
    rows = [line.split(",") for line in (tmp_path / "log7.loss.csv").read_text().splitlines()]
    assert [r[0] for r in rows] == ["iter", "1", "7", "10"]
    meta = load_model(model).train_meta
    assert (meta["iters_run"], meta["final_loss"]) == (10, float(rows[-1][1]))
    assert f"trained 10 iters, final loss {float(rows[-1][1]):.6f}," in capsys.readouterr().out


def test_predict_modes(small_run, tmp_path):
    _, _, _, data, model = small_run
    ds = load_csv(data)
    m = load_model(model)

    out = str(tmp_path / "cf.csv")
    assert cli.main(["predict", "--model", model, "--data", data,
                     "--mode", "cf", "--out", out, "--n-steps", "8"]) == 0
    lines = (tmp_path / "cf.csv").read_text().splitlines()
    assert lines[0] == "row,mode,value"
    assert len(lines) == ds.n + 1
    got = np.array([float(l.split(",")[2]) for l in lines[1:]])
    want = api.predict_counterfactual_batch(m, ds.y, ds.x, ds.a, OdeConfig(8))
    np.testing.assert_allclose(got, want, atol=0)

    out = str(tmp_path / "dens.csv")
    assert cli.main(["predict", "--model", model, "--data", data,
                     "--mode", "density", "--out", out, "--n-steps", "8"]) == 0
    lines = (tmp_path / "dens.csv").read_text().splitlines()
    assert lines[0] == "row,mode,value,logp"
    got = np.array([float(l.split(",")[3]) for l in lines[1:]])
    want = api.log_density_batch(m, ds.y, ds.x, ds.a, OdeConfig(8))
    np.testing.assert_allclose(got, want, atol=0)

    out = str(tmp_path / "po.csv")
    assert cli.main(["predict", "--model", model, "--data", data,
                     "--mode", "po", "--out", out, "--n-samples", "3",
                     "--n-steps", "8"]) == 0
    lines = (tmp_path / "po.csv").read_text().splitlines()
    assert len(lines) == ds.n * 3 + 1

    for mode in ("cate", "map"):
        out = str(tmp_path / f"{mode}.csv")
        assert cli.main(["predict", "--model", model, "--data", data,
                         "--mode", mode, "--out", out, "--n-samples", "3",
                         "--n-steps", "8"]) == 0
        assert len((tmp_path / f"{mode}.csv").read_text().splitlines()) == ds.n + 1


@pytest.mark.parametrize("mode", ["cate", "map"])
def test_predict_cate_ignores_seed_and_n_samples(small_run, tmp_path, mode):
    _, _, _, data, model = small_run
    outs = []
    for seed, n_samples in (("0", "64"), ("5", "3")):
        out = tmp_path / f"{mode}-{seed}.csv"
        assert cli.main(["predict", "--model", model, "--data", data, "--mode", mode,
                         "--out", str(out), "--seed", seed, "--n-samples", n_samples,
                         "--n-steps", "8"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_predict_on_deeply_nested_model_file_exits_2(small_run, tmp_path, capsys):
    _, _, _, data, _ = small_run
    deep = _write(tmp_path / "deep.json", "[" * 200_000)
    capsys.readouterr()
    rc = cli.main(["predict", "--model", deep, "--data", data, "--mode", "cf",
                   "--out", str(tmp_path / "cf.csv")])
    assert rc == 2
    assert "deep.json" in capsys.readouterr().err


def test_predict_dimension_mismatch_exits_2(small_run, tmp_path, capsys):
    _, dgp, _, _, model = small_run
    other = str(tmp_path / "wide.csv")
    wide_cfg = _write(tmp_path / "wide.cfg", "n = 10\nd_x = 5\nseed = 1\n")
    assert cli.main(["generate", "--config", wide_cfg, "--out", other]) == 0
    rc = cli.main(["predict", "--model", model, "--data", other,
                   "--mode", "cf", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "5" in err and "2" in err
    # a3test integrates without a causal_api query, so it checks the columns itself;
    # one column would otherwise broadcast against the model's two scaler means
    narrow_cfg = _write(tmp_path / "narrow.cfg", "n = 10\nd_x = 1\nseed = 1\n")
    narrow = str(tmp_path / "narrow.csv")
    assert cli.main(["generate", "--config", narrow_cfg, "--out", narrow]) == 0
    for path, cols in ((other, 5), (narrow, 1)):
        capsys.readouterr()
        rc = cli.main(["a3test", "--model", model, "--data", path,
                       "--out", str(tmp_path / "a.json")])
        assert rc == 2
        assert f"x has shape (10, {cols}), expected (10, 2)" in capsys.readouterr().err


def test_model_file_from_an_ipw_run_still_predicts(small_run, tmp_path):
    # train_meta is free-form, so a train_config key that TrainConfig lacks is ignored
    _, _, _, data, model = small_run
    doc = json.loads((tmp_path / "model.json").read_text())
    doc["train_meta"]["train_config"]["ipw"] = True
    old = _write(tmp_path / "old.json", json.dumps(doc))
    for path, out in ((model, "new.csv"), (old, "old.csv")):
        assert cli.main(["predict", "--model", path, "--data", data, "--mode", "cf",
                         "--out", str(tmp_path / out), "--n-steps", "8"]) == 0
    assert (tmp_path / "old.csv").read_bytes() == (tmp_path / "new.csv").read_bytes()


def test_eval_report(small_run, tmp_path):
    _, _, _, data, model = small_run
    out = str(tmp_path / "rep.json")
    assert cli.main(["eval", "--model", model, "--train-data", data,
                     "--test-data", data, "--out", out, "--n-steps", "8",
                     "--max-rows", "8"]) == 0
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert "rmse_factual" in doc["metrics"]
    assert "pehe" in doc["metrics"]
    assert doc["meta"]["rows_in"] == 8


def test_eval_report_depends_on_seed_only_through_mmd(small_run, tmp_path):
    _, _, _, data, model = small_run
    docs = []
    for seed in ("0", "5"):
        out = tmp_path / f"rep-{seed}.json"
        assert cli.main(["eval", "--model", model, "--train-data", data, "--test-data", data,
                         "--out", str(out), "--n-steps", "8", "--max-rows", "8",
                         "--seed", seed]) == 0
        docs.append(json.loads(out.read_text()))
    for doc in docs:
        for name in ("mmd_model", "mmd_truth_baseline"):
            doc["metrics"].pop(name)
        doc["meta"].pop("seed")
    assert docs[0] == docs[1]
    assert "kl" in docs[0]["metrics"] and "w1_arm0" in docs[0]["metrics"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the KL's log-ratio overflows on purpose
def test_eval_with_non_finite_metric_exits_4_and_keeps_the_previous_report(
        small_run, tmp_path, capsys):
    _, _, _, data, model = small_run
    out = tmp_path / "rep.json"
    argv = ["eval", "--model", model, "--train-data", data, "--test-data", data,
            "--out", str(out), "--n-steps", "4", "--max-rows", "8"]
    assert cli.main(argv) == 0
    before = out.read_bytes()
    capsys.readouterr()
    assert cli.main(argv + ["--noise-sd", "1e-200"]) == 4
    out_text, err = capsys.readouterr()
    assert "numeric failure" in err and "rep.json" in err and out_text == ""
    assert out.read_bytes() == before


def test_eval_kfold(small_run, tmp_path):
    _, _, tr_cfg, data, _ = small_run
    out = str(tmp_path / "folds.json")
    assert cli.main(["eval", "--data", data, "--folds", "2",
                     "--train-config", tr_cfg, "--out", out,
                     "--n-steps", "8", "--max-rows", "6"]) == 0
    doc = json.loads((tmp_path / "folds.json").read_text())
    assert doc["n_folds"] == 2 and len(doc["folds"]) == 2
    assert "rmse_factual" in doc["mean"]
    for name, vals in doc["mean"].items():
        assert set(vals) == {"in", "out"}, name


def test_eval_kfold_trains_with_the_file_seed_unless_seed_is_given(small_run, tmp_path):
    _, _, _, data, _ = small_run

    def report(train_seed, *extra):
        tr = _write(tmp_path / f"tr{train_seed}.cfg",
                    f"max_iters = 10\nbatch_size = 20\nseed = {train_seed}\n")
        out = tmp_path / f"folds-{train_seed}{''.join(extra)}.json"
        assert cli.main(["eval", "--data", data, "--folds", "2", "--train-config", tr,
                         "--out", str(out), "--n-steps", "4", "--max-rows", "6", *extra]) == 0
        man = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
        return out.read_bytes(), man["seeds"]

    (rep7, seeds7), (rep0, seeds0) = report(7), report(0)
    assert rep7 != rep0
    assert (seeds7, seeds0) == ({"seed": 0, "train_seed": 7}, {"seed": 0, "train_seed": 0})
    (rep7, seeds7), (rep0, seeds0) = report(7, "--seed", "3"), report(0, "--seed", "3")
    assert rep7 == rep0
    assert seeds7 == seeds0 == {"seed": 3, "train_seed": 3}


def test_eval_argument_validation(small_run, tmp_path, capsys):
    _, _, _, data, model = small_run
    rc = cli.main(["eval", "--model", model, "--out", str(tmp_path / "r.json")])
    assert rc == 2
    rc = cli.main(["eval", "--folds", "3", "--out", str(tmp_path / "r.json")])
    assert rc == 2
    capsys.readouterr()


def test_a3test_output(small_run, tmp_path):
    _, _, _, data, model = small_run
    out = str(tmp_path / "a3.json")
    assert cli.main(["a3test", "--model", model, "--data", data,
                     "--out", out, "--n-steps", "8"]) == 0
    doc = json.loads((tmp_path / "a3.json").read_text())
    assert set(doc) == {"mmd_model", "mmd_truth_baseline"}


def test_exit_codes(tmp_path, capsys):
    # missing input file -> io error
    rc = cli.main(["train", "--data", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "m.json")])
    assert rc == 3
    # malformed config -> config error
    bad = _write(tmp_path / "bad.cfg", "nonsense\n")
    rc = cli.main(["generate", "--config", bad, "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    # numeric blowup during integration -> numeric error
    net = linear_net(d_x=2, slope=3000.0)
    save_model(FlowModel(net=net, scaler=Scaler.identity(2)),
               tmp_path / "wild.json")
    dgp = _write(tmp_path / "g.cfg", "n = 5\nd_x = 2\nseed = 0\n")
    cli.main(["generate", "--config", dgp, "--out", str(tmp_path / "d.csv")])
    with np.errstate(all="ignore"):
        rc = cli.main(["predict", "--model", str(tmp_path / "wild.json"),
                       "--data", str(tmp_path / "d.csv"), "--mode", "density",
                       "--out", str(tmp_path / "p.csv")])
    assert rc == 4
    capsys.readouterr()


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_artifacts_are_byte_identical_across_reruns(tmp_path):
    dgp = _write(tmp_path / "dgp.cfg", "n = 30\nd_x = 2\nseed = 2\n")
    trc = _write(tmp_path / "train.cfg",
                 "max_iters = 8\nbatch_size = 15\nseed = 3\n")

    def run(tag):
        d = str(tmp_path / f"d{tag}.csv")
        m = str(tmp_path / f"m{tag}.json")
        c = str(tmp_path / f"c{tag}.csv")
        r = str(tmp_path / f"r{tag}.json")
        assert cli.main(["generate", "--config", dgp, "--out", d]) == 0
        assert cli.main(["train", "--data", d, "--out", m,
                         "--train-config", trc]) == 0
        assert cli.main(["predict", "--model", m, "--data", d, "--mode", "cf",
                         "--out", c, "--n-steps", "8"]) == 0
        assert cli.main(["eval", "--model", m, "--train-data", d,
                         "--test-data", d, "--out", r, "--n-steps", "8",
                         "--max-rows", "6"]) == 0
        loss = str(tmp_path / f"m{tag}.loss.csv")
        return [(tmp_path / p).read_bytes() for p in
                (f"d{tag}.csv", f"m{tag}.json", f"m{tag}.loss.csv",
                 f"c{tag}.csv", f"r{tag}.json")]

    assert run("A") == run("B")


def test_train_on_non_finite_cell_exits_2(small_run, tmp_path, capsys):
    _, _, tr, data, _ = small_run
    lines = (tmp_path / "data.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = lines[3].split(",")
    row[header.index("x0")] = "nan"
    lines[3] = ",".join(row)
    bad = _write(tmp_path / "nan.csv", "\n".join(lines) + "\n")
    capsys.readouterr()
    rc = cli.main(["train", "--data", bad, "--out", str(tmp_path / "m2.json"),
                   "--train-config", tr])
    assert rc == 2
    assert "row 3, column 'x0'" in capsys.readouterr().err


def test_predict_with_model_missing_net_config_exits_2(small_run, tmp_path, capsys):
    _, _, _, data, model = small_run
    doc = json.loads((tmp_path / "model.json").read_text())
    del doc["net_config"]
    broken = _write(tmp_path / "broken.json", json.dumps(doc))
    capsys.readouterr()
    rc = cli.main(["predict", "--model", broken, "--data", data,
                   "--mode", "cf", "--out", str(tmp_path / "cf.csv")])
    assert rc == 2
    assert "net_config" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["lr = nan", "adam_beta2 = 1.0", "adam_eps = 0"])
def test_train_with_bad_optimizer_constant_exits_2(small_run, tmp_path, capsys, line):
    _, _, _, data, _ = small_run
    cfg = _write(tmp_path / "bad_train.cfg", f"max_iters = 3\n{line}\n")
    capsys.readouterr()
    rc = cli.main(["train", "--data", data, "--out", str(tmp_path / "m2.json"),
                   "--train-config", cfg])
    assert rc == 2
    assert line.split(" ")[0] in capsys.readouterr().err


def test_train_on_bad_treatment_cell_exits_2(small_run, tmp_path, capsys):
    _, _, tr, data, _ = small_run
    lines = (tmp_path / "data.csv").read_text().splitlines()
    a_col = lines[0].split(",").index("a")
    row = lines[2].split(",")
    row[a_col] = "0.5"
    lines[2] = ",".join(row)
    bad = _write(tmp_path / "half.csv", "\n".join(lines) + "\n")
    capsys.readouterr()
    rc = cli.main(["train", "--data", bad, "--out", str(tmp_path / "m2.json"),
                   "--train-config", tr])
    assert rc == 2
    assert "row 2: treatment must be 0 or 1" in capsys.readouterr().err


def test_eval_with_one_fold_exits_2(small_run, tmp_path, capsys):
    _, _, tr, data, _ = small_run
    capsys.readouterr()
    rc = cli.main(["eval", "--data", data, "--folds", "1", "--train-config", tr,
                   "--out", str(tmp_path / "folds.json")])
    assert rc == 2
    assert "k-fold needs at least 2 folds" in capsys.readouterr().err


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejected a flag value
        return exc.code


# id: (files to write, argv given the run's paths, what stderr must name)
_EXIT_2_CASES = {
    "csv-not-utf8": ({"bad.csv": b"x0,a,y\n\xff\xfe,1,2\n"},
                     "train --data {d}/bad.csv --out {d}/m2.json", "bad.csv"),
    "csv-duplicate-a": ({"dup.csv": b"x0,a,y,a\n0.5,0,1.0,1\n1.5,1,2.0,0\n"},
                        "train --data {d}/dup.csv --out {d}/m2.json",
                        "dup.csv: duplicate column 'a'"),
    "csv-duplicate-y": ({"dup.csv": b"x0,a,y,y\n0.5,0,1.0,3.0\n1.5,1,2.0,4.0\n"},
                        "predict --model {model} --data {d}/dup.csv --mode cf --out {d}/p.csv",
                        "dup.csv: duplicate column 'y'"),
    "train-config-not-utf8": ({"bad.cfg": b"seed = \xff\n"},
                              "train --data {data} --out {d}/m2.json --train-config {d}/bad.cfg",
                              "bad.cfg"),
    "net-config-not-utf8": ({"bad.cfg": b"hidden_dim = \xff\n"},
                            "train --data {data} --out {d}/m2.json --net-config {d}/bad.cfg",
                            "bad.cfg"),
    "generator-config-not-utf8": ({"bad.cfg": b"\xff = 1\n"},
                                  "generate --config {d}/bad.cfg --out {d}/g.csv", "bad.cfg"),
    "model-not-utf8": ({"bad.json": b'{"format_version": 1, "\xff": 0}'},
                       "predict --model {d}/bad.json --data {data} --mode cf --out {d}/p.csv",
                       "bad.json"),
    "train-config-seed": ({"neg.cfg": b"max_iters = 2\nseed = -1\n"},
                          "train --data {data} --out {d}/m2.json --train-config {d}/neg.cfg",
                          "neg.cfg"),
    "net-config-init-seed": ({"neg.cfg": b"init_seed = -2\n"},
                             "train --data {data} --out {d}/m2.json --net-config {d}/neg.cfg",
                             "neg.cfg"),
    "generator-config-seed": ({"neg.cfg": b"n = 5\nseed = -3\n"},
                              "generate --config {d}/neg.cfg --out {d}/g.csv", "neg.cfg"),
    "generate-seed-flag": ({}, "generate --out {d}/g.csv --seed -1", "--seed"),
    "train-seed-flag": ({}, "train --data {data} --out {d}/m2.json --seed -1", "--seed"),
    "predict-seed-flag": ({}, "predict --model {model} --data {data} --mode po --out {d}/p.csv "
                              "--seed -1", "--seed"),
    "eval-seed-flag": ({}, "eval --model {model} --train-data {data} --test-data {data} "
                           "--out {d}/e.json --seed -1", "--seed"),
    "a3test-seed-flag": ({}, "a3test --model {model} --data {data} --out {d}/a.json --seed -1",
                         "--seed"),
    "eval-max-rows-0": ({}, "eval --model {model} --train-data {data} --test-data {data} "
                            "--out {d}/e.json --max-rows 0", "--max-rows"),
    "predict-n-samples-past-numpy-limit": ({}, "predict --model {model} --data {data} --mode po "
                                               "--out {d}/p.csv --n-samples 10000000000000000000",
                                           "n_samples"),
    "model-scaler-null": ({"null.json": lambda model: _edited_model(model, scaler=None)},
                          "predict --model {d}/null.json --data {data} --mode cf --out {d}/p.csv",
                          "null.json: scaler is malformed"),
    "generator-noise-sd-nan": ({"dgp.cfg": b"n = 5\nnoise_sd = nan\n"},
                               "generate --config {d}/dgp.cfg --out {d}/g.csv",
                               "dgp.cfg: noise_sd must be finite"),
    "generator-noise-sd-inf": ({"dgp.cfg": b"n = 5\nnoise_sd = inf\n"},
                               "generate --config {d}/dgp.cfg --out {d}/g.csv",
                               "dgp.cfg: noise_sd must be finite"),
    "generator-omega-nan": ({"dgp.cfg": b"n = 5\nomega = nan\n"},
                            "generate --config {d}/dgp.cfg --out {d}/g.csv",
                            "dgp.cfg: omega must be finite"),
    "eval-noise-sd-nan": ({}, "eval --model {model} --train-data {data} --test-data {data} "
                              "--out {d}/e.json --noise-sd nan", "noise_sd must be finite"),
    "eval-noise-sd-inf": ({}, "eval --model {model} --train-data {data} --test-data {data} "
                              "--out {d}/e.json --noise-sd inf", "noise_sd must be finite"),
    "predict-po-n-samples-0": ({}, "predict --model {model} --data {data} --mode po "
                                   "--out {d}/p.csv --n-samples 0", "--n-samples"),
    "predict-cate-n-samples-0": ({}, "predict --model {model} --data {data} --mode cate "
                                     "--out {d}/p.csv --n-samples 0", "--n-samples"),
    "predict-n-steps-0": ({}, "predict --model {model} --data {data} --mode cf "
                              "--out {d}/p.csv --n-steps 0", "--n-steps"),
    "eval-n-steps-0": ({}, "eval --model {model} --train-data {data} --test-data {data} "
                           "--out {d}/e.json --n-steps 0", "--n-steps"),
    "a3test-n-steps-0": ({}, "a3test --model {model} --data {data} --out {d}/a.json "
                             "--n-steps 0", "--n-steps"),
    # sizes past scm_data.MAX_ARRAY_BYTES are refused before anything is allocated
    "generator-n-past-byte-cap": ({"dgp.cfg": b"n = 1000000000000\n"},
                                  "generate --config {d}/dgp.cfg --out {d}/g.csv",
                                  "dgp.cfg: n * d_x"),
    "train-batch-size-past-byte-cap": ({"tr.cfg": b"max_iters = 2\nbatch_size = 1000000000000\n"},
                                       "train --data {data} --out {d}/m2.json "
                                       "--train-config {d}/tr.cfg", "tr.cfg: batch_size"),
    "eval-folds-batch-times-net-width-past-byte-cap": (
        {"tr.cfg": b"batch_size = 2000000\n", "net.cfg": b"hidden_dim = 100\n"},
        "eval --folds 2 --data {data} --out {d}/e.json --train-config {d}/tr.cfg "
        "--net-config {d}/net.cfg", "tr.cfg: batch_size * net width"),
    "net-hidden-dim-past-byte-cap": ({"net.cfg": b"hidden_dim = 100000000\n"},
                                     "train --data {data} --out {d}/m2.json "
                                     "--net-config {d}/net.cfg", "net.cfg: param_count of hidden_dim"),
    # 2.0 ** 1099 overflowed in encode_time; frequencies that fine say nothing about t
    "net-time-frequencies-past-cap": (
        {"net.cfg": b"time_encoding = sinusoidal\nhidden_dim = 2\ntime_frequencies = 1100\n"},
        "train --data {data} --out {d}/m2.json --net-config {d}/net.cfg",
        "net.cfg: time_frequencies must be in [1, 52]"),
    "model-time-frequencies-past-cap": (
        {"tf.json": lambda model: _edited_net_config(model, time_encoding="sinusoidal",
                                                     time_frequencies=1024)},
        "predict --model {d}/tf.json --data {data} --mode cf --out {d}/p.csv",
        "tf.json: net_config: time_frequencies must be in [1, 52]"),
    # the range holds under scalar-append too, though that encoding never reads the value
    "net-time-frequencies-negative-scalar-append": (
        {"net.cfg": b"time_encoding = scalar-append\ntime_frequencies = -7\n"},
        "train --data {data} --out {d}/m2.json --net-config {d}/net.cfg",
        "net.cfg: time_frequencies must be in [1, 52], got -7"),
    "model-time-frequencies-negative-scalar-append": (
        {"tf.json": lambda model: _edited_net_config(model, time_encoding="scalar-append",
                                                     time_frequencies=-7)},
        "predict --model {d}/tf.json --data {data} --mode cf --out {d}/p.csv",
        "tf.json: net_config: time_frequencies must be in [1, 52], got -7"),
    # ipw is not a training key
    "train-config-ipw": ({"tr.cfg": b"max_iters = 2\nipw = true\n"},
                         "train --data {data} --out {d}/m2.json --train-config {d}/tr.cfg",
                         "unknown training keys: ['ipw']"),
}


def _edited_model(model, **edit) -> bytes:
    doc = json.loads(Path(model).read_text(encoding="utf-8"))
    doc.update(edit)
    return json.dumps(doc).encode()


def _edited_net_config(model, **edit) -> bytes:
    doc = json.loads(Path(model).read_text(encoding="utf-8"))
    doc["net_config"].update(edit)
    return json.dumps(doc).encode()


@pytest.mark.parametrize("case", sorted(_EXIT_2_CASES))
def test_bad_input_exits_2_naming_the_file_or_flag(small_run, tmp_path, capsys, case):
    _, _, _, data, model = small_run
    files, argv, needle = _EXIT_2_CASES[case]
    d = tmp_path / "bad"
    d.mkdir()
    for name, raw in files.items():
        (d / name).write_bytes(raw(model) if callable(raw) else raw)
    capsys.readouterr()
    rc = _exit_code([arg.format(d=d, data=data, model=model) for arg in argv.split()])
    assert rc == 2
    out, err = capsys.readouterr()
    assert needle in err
    assert out == "" and not list(d.glob("*.manifest.json"))


# command: (argv, {manifest key: expected value}, where "{...}" fields name the run's paths)
_COMMANDS = {
    "generate": ("generate --config {dgp} --out {d}/g.csv",
                 {"seeds": {"dgp_seed": 4}, "config_paths": {"config": "{dgp}"}, "inputs": [],
                  "outputs": ["{d}/g.csv"]}),
    "train": ("train --data {data} --out {d}/m.json --train-config {tr} --seed 2",
              {"seeds": {"train_seed": 2}, "config_paths": {"train_config": "{tr}"},
               "inputs": ["{data}"], "outputs": ["{d}/m.json", "{d}/m.loss.csv"]}),
    "predict": ("predict --model {model} --data {data} --mode po --out {d}/p.csv "
                "--n-samples 2 --n-steps 4 --seed 3",
                {"seeds": {"seed": 3}, "config_paths": {}, "inputs": ["{model}", "{data}"],
                 "outputs": ["{d}/p.csv"]}),
    "eval": ("eval --data {data} --folds 2 --train-config {tr} --out {d}/e.json "
             "--n-steps 4 --max-rows 6",
             {"seeds": {"seed": 0, "train_seed": 1}, "config_paths": {"train_config": "{tr}"},
              "inputs": ["{data}"], "outputs": ["{d}/e.json"]}),
    "a3test": ("a3test --model {model} --data {data} --out {d}/a.json --n-steps 4",
               {"seeds": {"seed": 0}, "config_paths": {}, "inputs": ["{model}", "{data}"],
                "outputs": ["{d}/a.json"]}),
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_main_writes_the_manifest_then_prints_the_summary(small_run, tmp_path, capsys, command):
    _, dgp, tr, data, model = small_run
    d = tmp_path / "run"
    d.mkdir()
    paths = dict(d=d, dgp=dgp, tr=tr, data=data, model=model)
    template, want = _COMMANDS[command]
    argv = [arg.format(**paths) for arg in template.split()]
    capsys.readouterr()
    assert cli.main(argv) == 0
    out = argv[argv.index("--out") + 1]
    man = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
    assert set(man) == {"command", "argv", "seeds", "config_paths", "inputs", "outputs",
                        "tool_version", "wall_time_s"}
    assert man["command"] == command and man["argv"] == argv
    assert man["tool_version"] == __version__
    assert math.isfinite(man["wall_time_s"]) and man["wall_time_s"] >= 0.0
    assert man["seeds"] == want["seeds"]
    assert man["config_paths"] == {k: v.format(**paths) for k, v in want["config_paths"].items()}
    for key in ("inputs", "outputs"):
        assert sorted(man[key]) == sorted(p.format(**paths) for p in want[key])
        for path, digest in man[key].items():
            assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest()
    summary = capsys.readouterr().out
    assert summary.count("\n") == 1 and out in summary


@pytest.mark.parametrize("mode", ["cf", "cate", "map", "density"])
def test_predict_manifest_records_no_seed_for_noise_free_modes(small_run, tmp_path, mode):
    _, _, _, data, model = small_run
    out = tmp_path / f"{mode}.csv"
    assert cli.main(["predict", "--model", model, "--data", data, "--mode", mode,
                     "--out", str(out), "--n-steps", "4", "--seed", "5"]) == 0
    man = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
    assert man["seeds"] == {}


def test_failed_manifest_write_exits_3_and_prints_no_summary(small_run, tmp_path, capsys):
    _, _, _, data, model = small_run
    out = tmp_path / "a.json"
    (tmp_path / "a.json.manifest.json").mkdir()  # os.replace cannot put a file there
    capsys.readouterr()
    rc = cli.main(["a3test", "--model", model, "--data", data, "--out", str(out),
                   "--n-steps", "4"])
    assert rc == 3
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("io error:")
    assert out.exists()


@pytest.mark.parametrize("message", ["Unable to allocate 3.20 GiB for an array", ""])
def test_memory_error_exits_4_with_one_line_and_no_manifest(tmp_path, monkeypatch, capsys,
                                                             message):
    def out_of_memory(args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "cmd_a3test", out_of_memory)
    out = tmp_path / "a.json"
    rc = cli.main(["a3test", "--model", "m.json", "--data", "d.csv", "--out", str(out)])
    assert rc == 4
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.count("\n") == 1
    assert err.startswith("out of memory in a3test: ") and "Traceback" not in err
    assert (message or "allocation failed") in err
    assert list(tmp_path.iterdir()) == []


def test_bare_value_error_in_a_command_is_not_a_user_error(tmp_path, monkeypatch):
    def bug(cfg):
        raise ValueError("a program bug")

    monkeypatch.setattr(cli, "generate_ihdp_like", bug)
    with pytest.raises(ValueError, match="a program bug"):
        cli.main(["generate", "--out", str(tmp_path / "d.csv")])


@pytest.mark.parametrize("mode", ["po", "cf", "cate", "map", "density"])
def test_predict_on_header_only_csv_writes_header_only_file(small_run, tmp_path, mode):
    _, _, _, data, model = small_run
    header = Path(data).read_text(encoding="utf-8").splitlines()[0]
    empty = _write(tmp_path / "empty.csv", header + "\n")
    out = tmp_path / f"{mode}.csv"
    assert cli.main(["predict", "--model", model, "--data", empty, "--mode", mode,
                     "--out", str(out), "--n-samples", "3", "--n-steps", "4"]) == 0
    logp = ",logp" if mode in ("po", "density") else ""
    assert out.read_text(encoding="utf-8") == f"row,mode,value{logp}\n"


def _module_cli(*args, cwd):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "causalflow.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_form_runs_the_cli(tmp_path):
    done = _module_cli("--version", cwd=tmp_path)
    assert done.returncode == 0
    assert done.stdout.strip() == "0.1.0"
    dgp = _write(tmp_path / "dgp.cfg", "n = 12\nd_x = 2\nseed = 1\n")
    done = _module_cli("generate", "--config", dgp, "--out", "d.csv", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert load_csv(tmp_path / "d.csv").n == 12


_KEYS = ["n", "d_x", "beta", "omega", "w_shift", "noise_sd", "propensity", "seed",
         "batch_size", "max_iters", "lr", "adam_eps", "ipw", "hidden_dim", "time_encoding",
         "time_frequencies", "init_seed", "n_res_blocks"]
_VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats().map(repr),
    st.sampled_from(["true", "no", "sinusoidal", "scalar-append", "balanced",
                     "logistic:0.1,0.2", "logistic:", "1,2,3", "0.5", "", "None"]),
    st.text(max_size=8))
_LINES = st.one_of(st.tuples(st.sampled_from(_KEYS), _VALUES).map(" = ".join),
                   st.text(max_size=20))
_CONFIG_BYTES = st.one_of(st.lists(_LINES, max_size=6).map(lambda ls: "\n".join(ls).encode()),
                          st.binary(max_size=64))


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("configs")


@given(raw=_CONFIG_BYTES)
@settings(max_examples=80, deadline=None)
def test_config_readers_load_or_raise_config_errors(scratch_dir, raw):
    path = scratch_dir / "c.cfg"
    path.write_bytes(raw)
    for read in (cli.dgp_config_from_file, cli.train_config_from_file,
                 lambda p: cli.net_config_from_file(p, d_x=3)):
        try:
            read(str(path))
        except (ConfigError, ContractError):
            pass


def test_typed_config_reader_keeps_the_accepted_keys(tmp_path):
    train_keys = ["batch_size", "max_iters", "lr", "adam_beta1", "adam_beta2", "adam_eps",
                  "seed", "loss_log_every"]
    vals = ["8", "3", "0.01", "0.8", "0.99", "1e-7", "5", "2"]
    t = _write(tmp_path / "t.cfg", "".join(f"{k} = {v}\n" for k, v in zip(train_keys, vals)))
    tc = cli.train_config_from_file(t)
    assert tc.to_dict() == dict(batch_size=8, max_iters=3, lr=0.01, adam_beta1=0.8,
                                adam_beta2=0.99, adam_eps=1e-7, seed=5, loss_log_every=2)
    n = _write(tmp_path / "n.cfg", "hidden_dim = 6\ntime_encoding = sinusoidal\n"
                                   "time_frequencies = 2\ninit_seed = 4\n")
    assert cli.net_config_from_file(n, d_x=3).to_dict() == dict(
        d_x=3, hidden_dim=6, n_res_blocks=2, time_encoding="sinusoidal",
        time_frequencies=2, init_seed=4)
    for key in ("d_x", "n_res_blocks"):
        bad = _write(tmp_path / f"{key}.cfg", f"{key} = 2\n")
        with pytest.raises(ConfigError, match=f"unknown net keys: \\['{key}'\\]"):
            cli.net_config_from_file(bad, d_x=3)
    with pytest.raises(ConfigError, match="unknown training keys"):
        cli.train_config_from_file(n)


def test_readme_config_table_lists_the_keys_each_file_accepts():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Config files", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0] in ("generator", "training", "network"):
            # parenthesised text lists values, not keys
            rows[cells[0]] = re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", cells[1]))
    fields = lambda cls, *skip: [k for k in cls.__dataclass_fields__ if k not in skip]
    assert rows == {"generator": fields(DgpConfig, "propensity_coef"),
                    "training": fields(TrainConfig),
                    "network": fields(NetConfig, "d_x")}
