import json

import numpy as np
import pytest
from helpers import linear_net

from causalflow import cli
from causalflow import causal_api as api
from causalflow.errors import ConfigError
from causalflow.ode_engine import OdeConfig
from causalflow.scm_data import Scaler, load_csv
from causalflow.velocity_net import FlowModel, load_model, save_model


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

    t = _write(tmp_path / "t.cfg", "max_iters = 5\nipw = true\nlr = 0.1\n")
    tc = cli.train_config_from_file(t)
    assert tc.max_iters == 5 and tc.ipw is True and tc.lr == 0.1
    assert cli.train_config_from_file(t, seed_override=3).seed == 3
    badbool = _write(tmp_path / "t2.cfg", "ipw = maybe\n")
    with pytest.raises(ConfigError, match="boolean"):
        cli.train_config_from_file(badbool)

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


def test_eval_with_one_fold_exits_2(small_run, tmp_path, capsys):
    _, _, tr, data, _ = small_run
    capsys.readouterr()
    rc = cli.main(["eval", "--data", data, "--folds", "1", "--train-config", tr,
                   "--out", str(tmp_path / "folds.json")])
    assert rc == 2
    assert "k-fold needs at least 2 folds" in capsys.readouterr().err
