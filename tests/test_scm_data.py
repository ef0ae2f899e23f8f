import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalflow import scm_data as sd
from causalflow.errors import (ContractError, FitError, GenerationError, NumericError,
                               SchemaError)


def _cfg(**over):
    return sd.default_config(n=over.pop("n", 200), d_x=over.pop("d_x", 4),
                             seed=over.pop("seed", 0), **over)


def test_zero_coefficient_arms():
    cfg = sd.DgpConfig(n=50, d_x=3, beta=(0.0,) * 3, omega=0.0,
                       w_shift=(0.0,) * 3, noise_sd=0.0, seed=1)
    ds = sd.generate_ihdp_like(cfg)
    assert np.all(ds.y[ds.a == 1] == 0.0)  # linear arm hits x@0 - 0
    assert np.all(ds.y[ds.a == 0] == 1.0)  # exponential arm hits exp(0)


def test_noise_scale_matches_config():
    cfg = _cfg(n=10000, noise_sd=0.7)
    ds = sd.generate_ihdp_like(cfg)
    eps = ds.y - np.where(ds.a == 1, ds.mu1, ds.mu0)
    assert abs(np.std(eps) - 0.7) / 0.7 < 0.10


def test_counterfactual_shares_noise():
    ds = sd.generate_ihdp_like(_cfg(n=500))
    eps = ds.y - np.where(ds.a == 1, ds.mu1, ds.mu0)
    np.testing.assert_allclose(ds.ycf, np.where(ds.a == 1, ds.mu0, ds.mu1) + eps,
                               rtol=1e-12, atol=1e-12)


def test_ihdp_scale_shape():
    ds = sd.generate_ihdp_like(sd.default_config(n=747, d_x=25, seed=3))
    assert ds.x.shape == (747, 25)
    assert ds.a.shape == ds.y.shape == (747,)


def test_generation_deterministic():
    d1 = sd.generate_ihdp_like(_cfg(seed=9))
    d2 = sd.generate_ihdp_like(_cfg(seed=9))
    assert np.array_equal(d1.x, d2.x) and np.array_equal(d1.a, d2.a)
    assert np.array_equal(d1.y, d2.y) and np.array_equal(d1.ycf, d2.ycf)


def test_logistic_propensity_keeps_both_arms():
    cfg = _cfg(n=4000, propensity="logistic", propensity_coef=(3.0, -2.0, 1.0, 0.5))
    ds = sd.generate_ihdp_like(cfg)
    share = ds.a.mean()
    assert 0.05 < share < 0.95
    assert len(np.unique(ds.a)) == 2


def test_overflow_reports_row():
    cfg = sd.DgpConfig(n=10, d_x=2, beta=(400.0, 400.0), omega=0.0,
                       w_shift=(0.0, 0.0), noise_sd=1.0, seed=0)
    with pytest.raises(GenerationError, match="row"):
        sd.generate_ihdp_like(cfg)


def test_config_validation():
    with pytest.raises(ContractError):
        sd.DgpConfig(n=0, d_x=2, beta=(0.0, 0.0), omega=0.0, w_shift=(0.0, 0.0))
    with pytest.raises(ContractError):
        sd.DgpConfig(n=5, d_x=2, beta=(0.0,), omega=0.0, w_shift=(0.0, 0.0))
    with pytest.raises(ContractError):
        sd.DgpConfig(n=5, d_x=1, beta=(0.0,), omega=0.0, w_shift=(0.0,),
                     propensity="logistic")
    with pytest.raises(ContractError, match="seed"):
        _cfg(seed=-1)
    for key, value in (("noise_sd", np.nan), ("noise_sd", np.inf), ("noise_sd", -1.0),
                       ("omega", np.nan), ("omega", -np.inf), ("beta", (0.0, np.inf, 0.0, 0.0)),
                       ("w_shift", (np.nan,) * 4), ("propensity_coef", (0.0, 0.0, np.nan, 0.0))):
        with pytest.raises(ContractError, match=key):
            _cfg(**{"propensity": "logistic", "propensity_coef": (0.0,) * 4, key: value})


def test_truth_columns_match_hand_formula():
    cfg = _cfg(n=40, seed=5)
    ds = sd.generate_ihdp_like(cfg)
    beta = np.asarray(cfg.beta)
    for i in range(ds.n):
        x, a, y = ds.x[i], int(ds.a[i]), float(ds.y[i])
        f1 = x @ beta - cfg.omega
        f0 = np.exp((x + np.asarray(cfg.w_shift)) @ beta)
        assert ds.mu1[i] == pytest.approx(f1, abs=1e-12)
        assert ds.mu0[i] == pytest.approx(f0, abs=1e-12)
        # abduction: the factual arm's noise, replayed under the other arm
        eps = y - (f1 if a == 1 else f0)
        assert ds.ycf[i] == pytest.approx((f0 if a == 1 else f1) + eps, abs=1e-12)
        # and back again
        back = (f1 if a == 1 else f0) + (ds.ycf[i] - (f0 if a == 1 else f1))
        assert back == pytest.approx(y, abs=1e-12)


def test_csv_round_trip_exact(tmp_path):
    ds = sd.generate_ihdp_like(_cfg(n=30, seed=2))
    path = tmp_path / "data.csv"
    sd.write_csv(ds, path)
    back = sd.load_csv(path)
    np.testing.assert_array_equal(back.x, ds.x)
    np.testing.assert_array_equal(back.a, ds.a)
    np.testing.assert_array_equal(back.y, ds.y)
    np.testing.assert_array_equal(back.ycf, ds.ycf)


def test_csv_with_byte_order_mark_loads_like_plain(tmp_path):
    ds = sd.generate_ihdp_like(_cfg(n=30, seed=2))
    plain = tmp_path / "plain.csv"
    sd.write_csv(ds, plain)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    want, got = sd.load_csv(plain), sd.load_csv(bom)
    for name in ("x", "a", "y", "mu0", "mu1", "ycf"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_csv_minimal_schema(tmp_path):
    path = tmp_path / "mini.csv"
    path.write_text("x0,x1,a,y\n0.5,-1.0,1,2.25\n")
    ds = sd.load_csv(path)
    assert ds.d_x == 2 and ds.n == 1
    assert ds.mu0 is None and ds.mu1 is None and ds.ycf is None
    assert ds.y[0] == 2.25 and ds.a[0] == 1


def test_csv_missing_mandatory_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,a\n0.5,1\n")
    with pytest.raises(SchemaError, match="y"):
        sd.load_csv(path)


def test_csv_bad_treatment_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    lines = ["x0,a,y"] + ["0.1,1,0.2"] * 4 + ["0.1,2,0.2", "0.1,0,0.2"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match="row 5: treatment must be 0 or 1, got 2"):
        sd.load_csv(path)


def test_csv_non_numeric_cell_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,a,y\n0.1,1,0.2\nzap,0,0.3\n")
    with pytest.raises(SchemaError, match="row 2: could not convert"):
        sd.load_csv(path)


def test_csv_wrong_field_count_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,a,y\n0.1,1,0.2\n0.1,0\n")
    with pytest.raises(SchemaError, match="row 2 has 2 fields, expected 3"):
        sd.load_csv(path)


def test_atomic_write_keeps_old_file_when_the_body_raises(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with sd.atomic_write(path) as fh:
            fh.write("half of the new")
            raise RuntimeError("stop")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    with sd.atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_csv_failing_halfway_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    sd.write_csv(sd.generate_ihdp_like(_cfg(n=30, seed=2)), path)
    before = path.read_bytes()
    calls = []

    def fmt_then_fail(v):
        calls.append(v)
        if len(calls) > 40:
            raise RuntimeError("disk full")
        return repr(float(v))

    monkeypatch.setattr(sd, "fmt_float", fmt_then_fail)
    with pytest.raises(RuntimeError, match="disk full"):
        sd.write_csv(sd.generate_ihdp_like(_cfg(n=30, seed=3)), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]


@pytest.mark.parametrize("doc, error, needle", [
    ({"a": 2, "b": object()}, TypeError, "not JSON serializable"),
    ({"a": 2, "b": [1.0, math.nan]}, NumericError, "report.json"),
    ({"a": 2, "b": -math.inf}, NumericError, "report.json"),
])
def test_write_json_failing_halfway_keeps_previous_file(tmp_path, doc, error, needle):
    path = tmp_path / "report.json"
    sd.write_json({"a": 1}, path)
    before = path.read_bytes()
    with pytest.raises(error, match=needle):
        sd.write_json(doc, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_split_sizes_and_partition():
    ds = sd.generate_ihdp_like(_cfg(n=10))
    train, test = sd.split(ds, 0.3, seed=4)
    assert (train.n, test.n) == (7, 3)
    merged = np.sort(np.concatenate([train.y, test.y]))
    np.testing.assert_array_equal(merged, np.sort(ds.y))
    t2, s2 = sd.split(ds, 0.3, seed=4)
    np.testing.assert_array_equal(t2.y, train.y)
    np.testing.assert_array_equal(s2.y, test.y)


def test_split_rejects_empty_side():
    ds = sd.generate_ihdp_like(_cfg(n=10))
    with pytest.raises(ContractError):
        sd.split(ds, 0.01, seed=0)
    with pytest.raises(ContractError):
        sd.split(ds, 0.99, seed=0)


def test_standardize_hand_values():
    ds = sd.CausalDataset(np.array([[1.0], [3.0]]), np.array([0, 1]), np.array([4.0, 8.0]))
    out, scaler = sd.standardize(ds)
    np.testing.assert_allclose(out.x[:, 0], [-1.0, 1.0])
    np.testing.assert_allclose(out.y, [-1.0, 1.0])
    assert scaler.y_mean == 6.0 and scaler.y_sd == 2.0


def test_standardize_leaves_constant_column():
    ds = sd.CausalDataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]),
                          np.array([0, 1, 0]), np.array([1.0, 2.0, 3.0]))
    out, scaler = sd.standardize(ds)
    np.testing.assert_array_equal(out.x[:, 0], [5.0, 5.0, 5.0])
    assert scaler.x_sd[0] == 1.0 and scaler.x_mean[0] == 0.0


def test_standardize_round_trip():
    ds = sd.generate_ihdp_like(_cfg(n=100, seed=8))
    out, scaler = sd.standardize(ds)
    x_back = out.x * np.asarray(scaler.x_sd) + np.asarray(scaler.x_mean)
    np.testing.assert_allclose(x_back, ds.x, atol=1e-10)
    np.testing.assert_allclose(scaler.inverse_y(out.y), ds.y, atol=1e-10)
    np.testing.assert_allclose(scaler.inverse_y(out.ycf), ds.ycf, atol=1e-10)


def test_standardize_keeps_generator_identity():
    ds = sd.generate_ihdp_like(_cfg(n=100, seed=8))
    out, _ = sd.standardize(ds)
    eps = out.y - np.where(out.a == 1, out.mu1, out.mu0)
    np.testing.assert_allclose(out.ycf, np.where(out.a == 1, out.mu0, out.mu1) + eps,
                               atol=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_standardize_unit_moments(seed):
    ds = sd.generate_ihdp_like(_cfg(n=64, seed=seed))
    out, _ = sd.standardize(ds)
    np.testing.assert_allclose(out.y.mean(), 0.0, atol=1e-9)
    np.testing.assert_allclose(out.y.std(), 1.0, atol=1e-9)
    np.testing.assert_allclose(out.x.mean(axis=0), 0.0, atol=1e-9)


def test_propensity_balanced_near_half():
    # balanced assignment independent of x: fitted scores hug 0.5 everywhere
    ds = sd.generate_ihdp_like(sd.default_config(n=2000, d_x=1, seed=0))
    model = sd.fit_propensity(ds)
    w = model.predict(ds.x)
    assert np.all(np.abs(w - 0.5) < 0.05)


def test_propensity_balanced_near_half_higher_dim():
    ds = sd.generate_ihdp_like(_cfg(n=2000, seed=12))
    w = sd.fit_propensity(ds).predict(ds.x)
    assert abs(np.mean(w) - 0.5) < 0.02
    assert np.quantile(np.abs(w - 0.5), 0.95) < 0.05


def test_propensity_single_arm_rejected():
    ds = sd.CausalDataset(np.zeros((5, 1)), np.ones(5, dtype=int), np.zeros(5))
    with pytest.raises(FitError):
        sd.fit_propensity(ds)


def test_propensity_separable_stays_finite():
    x = np.linspace(-1, 1, 40).reshape(-1, 1)
    a = (x[:, 0] > 0).astype(int)
    ds = sd.CausalDataset(x, a, np.zeros(40))
    model = sd.fit_propensity(ds)
    assert np.all(np.isfinite(model.coef))
    w = model.predict(ds.x)
    assert np.all((w >= 0.01) & (w <= 0.99))


def test_propensity_clipping_bounds():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((500, 1)) * 4.0
    p = sd.sigmoid_kernel(3.0 * x[:, 0])
    a = (rng.random(500) < p).astype(int)
    ds = sd.CausalDataset(x, a, np.zeros(500))
    w = sd.fit_propensity(ds).predict(ds.x)
    assert w.min() >= 0.01 and w.max() <= 0.99


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_csv_non_finite_cell_names_row_and_column(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"x0,x1,a,y\n0.1,0.2,1,0.3\n0.1,{cell},0,0.3\n0.5,0.5,1,{cell}\n")
    with pytest.raises(SchemaError, match="row 2, column 'x1'"):
        sd.load_csv(path)


_CELLS = st.one_of(st.sampled_from(["0", "1", "1.0", "0.5", "-2.5e3", "nan", "inf", "", " 1",
                                    '"1"', "1e999"]),
                   st.text(max_size=4))
_HEADER = st.lists(st.sampled_from(["x0", "x1", "x2", "x01", "x²", "x٣", "a", "y", "mu0",
                                    "mu1", "ycf", "﻿x0", "z"]), max_size=6)


@st.composite
def _csv_bytes(draw):
    header = draw(_HEADER)
    width = st.integers(max(0, len(header) - 1), len(header) + 1)
    rows = draw(st.lists(width.flatmap(lambda k: st.lists(_CELLS, min_size=k, max_size=k)),
                         max_size=4))
    return "\n".join(",".join(r) for r in [header, *rows]).encode()


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@given(raw=st.one_of(_csv_bytes(), st.binary(max_size=64)))
@settings(max_examples=120, deadline=None)
def test_load_csv_loads_or_raises_schema_error(csv_dir, raw):
    path = csv_dir / "d.csv"
    path.write_bytes(raw)
    try:
        ds = sd.load_csv(path)
    except SchemaError:
        return
    assert np.all(np.isfinite(ds.x)) and np.all(np.isfinite(ds.y))
    assert set(np.unique(ds.a)) <= {0, 1}


@pytest.mark.parametrize("raw", [b"x0,a,y\n\xff,1,2\n", "x²,a,y\n1,1,2\n".encode()])
def test_csv_undecodable_or_odd_header_raises_schema_error(tmp_path, raw):
    path = tmp_path / "d.csv"
    path.write_bytes(raw)
    with pytest.raises(SchemaError, match="d.csv"):
        sd.load_csv(path)
