import itertools
import math

import numpy as np
import pytest
from helpers import linear_net

from causalflow import metrics as mt
from causalflow import velocity_net as vn
from causalflow.errors import ContractError, DimensionError
from causalflow.scm_data import (CausalDataset, Scaler, default_config,
                                 generate_ihdp_like, split, structural_mean)


def _model(d_x, y_mean=0.0, y_sd=1.0):
    sc = Scaler((0.0,) * d_x, (1.0,) * d_x, y_mean, y_sd)
    return vn.FlowModel(net=linear_net(d_x=d_x), scaler=sc)


def test_rmse_hand_value():
    assert mt.rmse([1.0, 2.0], [0.0, 0.0]) == pytest.approx(math.sqrt(2.5))
    assert mt.pehe([1.0, 1.0], [1.0, 1.0]) == 0.0
    with pytest.raises(DimensionError):
        mt.rmse([1.0], [1.0, 2.0])
    with pytest.raises(ContractError):
        mt.rmse([], [])


def test_wasserstein1_equal_sizes_hand_value():
    assert mt.wasserstein1([0.0, 1.0], [2.0, 3.0]) == pytest.approx(2.0)
    assert mt.wasserstein1([5.0], [5.0]) == 0.0


def test_wasserstein1_unequal_hand_value():
    # half the mass moves from 0 to 1
    assert mt.wasserstein1([0.0], [0.0, 1.0]) == pytest.approx(0.5)


def test_wasserstein1_matches_brute_force_assignment():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        best = min(
            np.mean(np.abs(u - v[list(perm)]))
            for perm in itertools.permutations(range(n))
        )
        assert abs(mt.wasserstein1(u, v) - best) <= 1e-12


def test_wasserstein1_unequal_sizes_by_replication():
    rng = np.random.default_rng(1)
    for _ in range(10):
        u = rng.standard_normal(int(rng.integers(2, 5)))
        v = rng.standard_normal(int(rng.integers(5, 9)))
        direct = mt.wasserstein1(u, v)
        lifted = mt.wasserstein1(np.repeat(u, v.size), np.repeat(v, u.size))
        assert abs(direct - lifted) <= 1e-12
        assert abs(direct - mt.wasserstein1(v, u)) <= 1e-12


def test_wasserstein1_shift():
    u = np.random.default_rng(2).standard_normal(30)
    assert mt.wasserstein1(u, u + 2.5) == pytest.approx(2.5)
    with pytest.raises(ContractError):
        mt.wasserstein1([], [1.0])


def test_kl_exact_match_is_zero():
    m = _model(2, y_mean=1.5, y_sd=1.0)
    x = np.zeros((8, 2))
    mu = np.full(8, 1.5)
    est = mt.kl_vs_gaussian_truth(m, x, 1, mu)
    assert isinstance(est, float)
    assert abs(est) <= 1e-9


def test_kl_unit_mean_shift_is_half():
    # KL(N(m, 1) || N(m + 1, 1)) = 0.5
    m = _model(2, y_mean=0.0, y_sd=1.0)
    x = np.zeros((16, 2))
    est = mt.kl_vs_gaussian_truth(m, x, 0, np.full(16, 1.0))
    assert abs(est - 0.5) <= 1e-9


def test_kl_variance_mismatch():
    # KL(N(0, 4) || N(0, 1)) = 0.5 * (4 - 1 - ln 4)
    m = _model(2, y_mean=0.0, y_sd=2.0)
    x = np.zeros((16, 2))
    want = 0.5 * (4.0 - 1.0 - math.log(4.0))
    est = mt.kl_vs_gaussian_truth(m, x, 1, np.zeros(16))
    assert abs(est - want) <= 1e-9


def test_kl_validation():
    m = _model(2)
    for sd in (0.0, np.nan, np.inf):
        with pytest.raises(ContractError, match="sd must be finite and positive"):
            mt.kl_vs_gaussian_truth(m, np.zeros((2, 2)), 1, [0.0, 0.0], sd=sd)
    with pytest.raises(DimensionError):
        mt.kl_vs_gaussian_truth(m, np.zeros((2, 2)), 1, [0.0])


def test_quantile_nodes_are_mid_bin_normal_quantiles():
    # Phi(node_k) = (k + 1/2) / 16, and the set is symmetric about 0
    q = mt.QUANTILE_NODES
    cdf = 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2.0)) for v in q]))
    np.testing.assert_allclose(cdf, (np.arange(16) + 0.5) / 16, atol=1e-15)
    np.testing.assert_array_equal(q, -q[::-1])


def test_mmd_identical_samples_is_exactly_zero():
    rng = np.random.default_rng(4)
    z = rng.standard_normal(20)
    x = rng.standard_normal((20, 3))
    a = rng.integers(0, 2, 20)
    assert mt.mmd_squared(z, x, a, z, x, a) == 0.0


def test_mmd_separated_samples_is_large():
    rng = np.random.default_rng(5)
    z = rng.standard_normal(40)
    x = rng.standard_normal((40, 2))
    a = rng.integers(0, 2, 40)
    val = mt.mmd_squared(z, x, a, z + 10.0, x, a)
    assert val > 0.1


def test_mmd_detects_flipped_treatment():
    rng = np.random.default_rng(6)
    z = rng.standard_normal(30)
    x = rng.standard_normal((30, 2))
    a = np.zeros(30, dtype=np.int64)
    val = mt.mmd_squared(z, x, a, z, x, 1 - a)
    assert val > 0.0


def test_mmd_symmetry_and_validation():
    rng = np.random.default_rng(7)
    z1, z2 = rng.standard_normal(15), rng.standard_normal(15)
    x = rng.standard_normal((15, 2))
    a = rng.integers(0, 2, 15)
    fwd = mt.mmd_squared(z1, x, a, z2, x, a)
    rev = mt.mmd_squared(z2, x, a, z1, x, a)
    assert fwd == pytest.approx(rev, abs=1e-15)
    with pytest.raises(ContractError):
        mt.mmd_squared([1.0], x[:1], a[:1], [2.0], x[:1], a[:1])


def test_mmd_a3_perfect_model_near_sampling_floor():
    cfg = default_config(n=100, d_x=2, seed=9)
    ds = generate_ihdp_like(cfg)
    # standardize outcomes into the net's space so encode sees N(0,1)-ish z
    m = _model(2, y_mean=float(np.mean(ds.y)), y_sd=float(np.std(ds.y)))
    res = mt.mmd_a3_test(m, ds, seed=2)
    assert set(res) == {"mmd_model", "mmd_truth_baseline"}
    assert np.isfinite(res["mmd_model"]) and np.isfinite(res["mmd_truth_baseline"])
    assert abs(res["mmd_truth_baseline"]) < 0.05


class _GeneratingProcessPredictor:
    """Point predictions straight from the data generating functions."""

    def __init__(self, cfg):
        self.cfg = cfg

    def factual(self, x, a):
        return structural_mean(self.cfg, x, a)

    def counterfactual(self, y, x, a):
        mu_f = structural_mean(self.cfg, x, a)
        mu_c = structural_mean(self.cfg, x, 1 - a)
        return mu_c + (y - mu_f)

    def cate(self, x):
        return structural_mean(self.cfg, x, 1) - structural_mean(self.cfg, x, 0)


def test_evaluate_all_with_generating_process_predictor():
    cfg = default_config(n=400, d_x=4, seed=3)
    ds = generate_ihdp_like(cfg)
    tr, te = split(ds, 0.25, seed=0)
    model = _model(4)
    rep = mt.evaluate_all(model, tr, te,
                          predictor=_GeneratingProcessPredictor(cfg),
                          max_rows=64)
    for tag in ("in", "out"):
        assert rep["metrics"]["rmse_cf"][tag] <= 1e-10
        assert rep["metrics"]["pehe"][tag] == 0.0
        assert 0.7 < rep["metrics"]["rmse_factual"][tag] < 1.3
    assert rep["meta"]["predictor"] == "external"
    assert rep["meta"]["rows_in"] == 64
    assert rep["meta"]["rows_out"] == 64


def test_evaluate_all_without_truth_columns_drops_metrics():
    rng = np.random.default_rng(8)
    ds = CausalDataset(x=rng.standard_normal((20, 2)),
                       a=rng.integers(0, 2, 20),
                       y=rng.standard_normal(20))
    rep = mt.evaluate_all(_model(2), ds, ds, max_rows=20)
    assert set(rep["metrics"]) == {"rmse_factual", "rmse_map", "mmd_model",
                                "mmd_truth_baseline"}


def test_evaluate_all_model_path_is_deterministic():
    cfg = default_config(n=60, d_x=2, seed=11)
    ds = generate_ihdp_like(cfg)
    tr, te = split(ds, 0.5, seed=1)
    m = _model(2)
    r1 = mt.evaluate_all(m, tr, te, max_rows=12)
    r2 = mt.evaluate_all(m, tr, te, max_rows=12)
    assert r1 == r2
    expect = {"rmse_factual", "rmse_map", "rmse_cf", "pehe", "kl",
              "w1_arm0", "w1_arm1", "mmd_model", "mmd_truth_baseline"}
    assert set(r1["metrics"]) == expect
    for name, vals in r1["metrics"].items():
        assert set(vals) == {"in", "out"}, name
    assert set(r1["meta"]) == {"rows_in", "rows_out", "noise_sd", "seed", "n_steps",
                               "predictor"}


def test_evaluate_all_zero_field_hand_values():
    # The zero field decodes z to y = y_mean + y_sd * z: the mean and the MAP are
    # y_mean, the quantile nodes decode to y_mean + y_sd * node, and the KL is
    # that of N(y_mean, y_sd^2) against N(mu_a, noise_sd^2).
    cfg = default_config(n=40, d_x=2, seed=5)
    ds = generate_ihdp_like(cfg)
    m = _model(2, y_mean=0.25, y_sd=1.5)
    rep = mt.evaluate_all(m, ds, ds, max_rows=10, noise_sd=2.0)["metrics"]
    sub = ds.take(np.arange(10))
    assert rep["rmse_factual"]["in"] == pytest.approx(mt.rmse(np.full(10, 0.25), sub.y),
                                                      abs=1e-12)
    assert rep["rmse_map"]["in"] == mt.rmse(np.full(10, 0.25), sub.y)
    mu = np.where(sub.a == 1, sub.mu1, sub.mu0)
    want = np.mean(math.log(2.0 / 1.5) + (1.5 ** 2 + (0.25 - mu) ** 2) / (2 * 2.0 ** 2) - 0.5)
    assert rep["kl"]["in"] == pytest.approx(want, abs=1e-9)
    for arm, mu_arm in ((0, sub.mu0), (1, sub.mu1)):
        model_q = 0.25 + 1.5 * mt.QUANTILE_NODES
        truth_q = mu_arm[:, None] + 2.0 * mt.QUANTILE_NODES
        want = mt.wasserstein1(np.tile(model_q, 10), truth_q.reshape(-1))
        assert rep[f"w1_arm{arm}"]["in"] == pytest.approx(want, abs=1e-12)


def test_sq_dists_matches_direct_differences():
    rng = np.random.default_rng(8)
    A, B = rng.standard_normal((30, 4)), rng.standard_normal((20, 4)) + 1.0
    direct = np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=2)
    got = mt._sq_dists(A, B)
    assert got.shape == (30, 20)
    np.testing.assert_allclose(got, direct, rtol=1e-12, atol=1e-12)
    assert np.all(mt._sq_dists(A, A) >= 0.0)


@pytest.mark.parametrize("seed", [74, 148])
def test_mmd_equal_valued_copies_is_exactly_zero(seed):
    # On these draws, numpy's syrk path for A @ A.T (taken when both operands
    # share one buffer) and gemm on a copy differed in the last bit.
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 300)), int(rng.integers(1, 12))
    z, x = rng.standard_normal(n), rng.standard_normal((n, d))
    a = rng.integers(0, 2, n)
    assert mt.mmd_squared(z, x, a, z.copy(), x.copy(), a.copy()) == 0.0
