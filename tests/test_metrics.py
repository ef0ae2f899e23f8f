import itertools
import math
import tracemalloc

import numpy as np
import pytest
from helpers import linear_net

from causalflow import causal_api as api
from causalflow import metrics as mt
from causalflow import velocity_net as vn
from causalflow.errors import ContractError, DimensionError, NumericError
from causalflow.scm_data import (CausalDataset, Scaler, default_config,
                                 generate_ihdp_like, split)


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


def test_wasserstein1_rejects_unequal_sizes():
    for u, v in (([0.0], [0.0, 1.0]), ([1.0, 2.0, 3.0], [1.0, 2.0])):
        with pytest.raises(ContractError, match="equal size"):
            mt.wasserstein1(u, v)


def test_wasserstein1_shift():
    u = np.random.default_rng(2).standard_normal(30)
    assert mt.wasserstein1(u, u + 2.5) == pytest.approx(2.5)
    with pytest.raises(ContractError):
        mt.wasserstein1([], [1.0])


def _kl(model, x, a, mu, sd=1.0):
    y, log_p = api.decode_nodes(model, x, a, api.GAUSS_HERMITE[0], log_p=True)
    return mt._gh_kl(y, log_p, np.asarray(mu, dtype=np.float64), sd)


def test_kl_exact_match_is_zero():
    m = _model(2, y_mean=1.5, y_sd=1.0)
    x = np.zeros((8, 2))
    mu = np.full(8, 1.5)
    est = _kl(m, x, 1, mu)
    assert isinstance(est, float)
    assert abs(est) <= 1e-9


def test_kl_unit_mean_shift_is_half():
    # KL(N(m, 1) || N(m + 1, 1)) = 0.5
    m = _model(2, y_mean=0.0, y_sd=1.0)
    x = np.zeros((16, 2))
    est = _kl(m, x, 0, np.full(16, 1.0))
    assert abs(est - 0.5) <= 1e-9


def test_kl_variance_mismatch():
    # KL(N(0, 4) || N(0, 1)) = 0.5 * (4 - 1 - ln 4)
    m = _model(2, y_mean=0.0, y_sd=2.0)
    x = np.zeros((16, 2))
    want = 0.5 * (4.0 - 1.0 - math.log(4.0))
    est = _kl(m, x, 1, np.zeros(16))
    assert abs(est - want) <= 1e-9


def test_kl_validation():
    # the KL's truth sd is evaluate_all's noise_sd, checked at that boundary
    ds = generate_ihdp_like(default_config(n=8, d_x=2, seed=3))
    for sd in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ContractError, match="noise_sd must be finite and positive"):
            mt.evaluate_all(_model(2), ds, ds, max_rows=4, noise_sd=sd)


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
    for bad in (math.nan, math.inf, 1e200):
        with pytest.raises(NumericError):
            mt.mmd_squared(np.append(z1[1:], bad), x, a, z2, x, a)


def test_mmd_a3_perfect_model_near_sampling_floor():
    cfg = default_config(n=100, d_x=2, seed=9)
    ds = generate_ihdp_like(cfg)
    # standardize outcomes into the net's space so encode sees N(0,1)-ish z
    m = _model(2, y_mean=float(np.mean(ds.y)), y_sd=float(np.std(ds.y)))
    res = mt.mmd_a3_test(m, ds, seed=2)
    assert set(res) == {"mmd_model", "mmd_truth_baseline"}
    assert np.isfinite(res["mmd_model"]) and np.isfinite(res["mmd_truth_baseline"])
    assert abs(res["mmd_truth_baseline"]) < 0.05


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
    assert set(r1["meta"]) == {"rows_in", "rows_out", "noise_sd", "seed", "n_steps"}


def test_evaluate_all_zero_field_hand_values():
    # The zero field decodes z to y = y_mean + y_sd * z: the mean and the MAP are
    # y_mean, the quantile nodes decode to y_mean + y_sd * node, and the KL is
    # that of N(y_mean, y_sd^2) against N(mu_a, noise_sd^2). It maps y to itself
    # under either arm, so the counterfactual of y is y and every CATE is 0.
    cfg = default_config(n=40, d_x=2, seed=5)
    ds = generate_ihdp_like(cfg)
    m = _model(2, y_mean=0.25, y_sd=1.5)
    rep = mt.evaluate_all(m, ds, ds, max_rows=10, noise_sd=2.0)["metrics"]
    sub = ds.take(np.arange(10))
    assert rep["rmse_factual"]["in"] == pytest.approx(mt.rmse(np.full(10, 0.25), sub.y),
                                                      abs=1e-12)
    assert rep["rmse_map"]["in"] == mt.rmse(np.full(10, 0.25), sub.y)
    assert rep["rmse_cf"]["in"] == pytest.approx(mt.rmse(sub.y, sub.ycf), abs=1e-12)
    assert rep["pehe"]["in"] == mt.rmse(np.zeros(10), sub.mu1 - sub.mu0)
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
    pa, pb = mt._gram_parts(A), mt._gram_parts(B)
    got = mt._sq_block(pa, pb, slice(None), slice(None))
    assert got.shape == (30, 20)
    np.testing.assert_allclose(got, direct, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(mt._sq_block(pa, pb, slice(3, 9), slice(5, 20)), got[3:9, 5:])
    assert np.all(mt._sq_block(pa, pa, slice(None), slice(None)) >= 0.0)


@pytest.mark.parametrize("seed", [74, 148])
def test_mmd_equal_valued_copies_is_exactly_zero(seed):
    # On these draws, numpy's syrk path for A @ A.T (taken when both operands
    # share one buffer) and gemm on a copy differed in the last bit.
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 300)), int(rng.integers(1, 12))
    z, x = rng.standard_normal(n), rng.standard_normal((n, d))
    a = rng.integers(0, 2, n)
    assert mt.mmd_squared(z, x, a, z.copy(), x.copy(), a.copy()) == 0.0


def _dense_sq(values):
    # the Gram formula on the whole (n, n) matrix, as mmd_squared computed it unblocked
    gram = values @ values.T.copy()
    norms = np.sum(values * values, axis=1)
    return np.maximum(norms[:, None] + norms[None, :] - 2.0 * gram, 0.0)


def _dense_bandwidth(values):
    sq = _dense_sq(values)
    return max(0.5 * float(np.median(np.sqrt(sq[np.triu_indices(values.shape[0], k=1)]))), 1e-12)


def _dense_mmd(z1, x1, a1, z2, x2, a2):
    # the U-statistic kernel h_ij = k11 + k22 - k12 - k21 on whole matrices, summed exactly
    z, x, a = np.concatenate([z1, z2])[:, None], np.vstack([x1, x2]), np.concatenate([a1, a2])
    bz, bx = _dense_bandwidth(z), _dense_bandwidth(x)
    k = (np.exp(-_dense_sq(z) / (2.0 * bz * bz)) * np.exp(-_dense_sq(x) / (2.0 * bx * bx))
         * (a[:, None] == a[None, :]))
    n = len(z1)
    h = k[:n, :n] + k[n:, n:] - k[:n, n:] - k[n:, :n]
    np.fill_diagonal(h, 0.0)
    return math.fsum(h.ravel()) / (n * (n - 1))


# The shipped constants, and shrunk ones under which small inputs take
# 2-row blocks and several counting passes that refine the bracket.
_TINY = {"_BLOCK_BYTES": 8 * 40, "_SUBSAMPLE": 16, "_KEEP_PER_POINT": 2}
# Point counts on both sides of either subsample size (up to it, the
# subsample holds every pair) and of one full (m, m) block; the pair count
# is odd at 2, 3, 6, 127 and 1002, even elsewhere.
_EDGE = math.isqrt(mt._BLOCK_BYTES // 8)
_SIZES = sorted({2, 3, 4, 6, _TINY["_SUBSAMPLE"], _TINY["_SUBSAMPLE"] + 1, _EDGE - 1, _EDGE,
                 _EDGE + 1, mt._SUBSAMPLE, mt._SUBSAMPLE + 1, 1002})


@pytest.mark.parametrize("tiny", [False, True])
@pytest.mark.parametrize("d", [1, 10])
@pytest.mark.parametrize("n", _SIZES)
def test_median_bandwidth_is_bit_equal_to_dense_median(monkeypatch, n, d, tiny):
    for name, value in _TINY.items() if tiny else ():
        monkeypatch.setattr(mt, name, value)
    rng = np.random.default_rng([n, d])
    for values in (rng.standard_normal((n, d)),
                   rng.integers(0, 3, (n, d)).astype(np.float64),  # many tied distances
                   np.abs(rng.standard_normal((n, d))) ** 3):  # skewed distances
        assert mt._median_bandwidth(values) == _dense_bandwidth(values)


@pytest.mark.parametrize("tiny", [False, True])
@pytest.mark.parametrize("n, zeros", [(25, 15), (289, 153)])
def test_median_bandwidth_ranks_straddling_a_gap(monkeypatch, n, zeros, tiny):
    # Points on {0, 1} with as many pairs within a value as across: the two
    # middle ranks are 0 and 1, and no cut strictly between them moves either
    # end of the bracket, which once made the counting passes loop forever.
    for name, value in _TINY.items() if tiny else ():
        monkeypatch.setattr(mt, name, value)
    values = np.repeat([0.0, 1.0], [zeros, n - zeros])[:, None]
    assert mt._median_bandwidth(values) == _dense_bandwidth(values) == 0.25
    # a3test at 288 rows of one binary covariate, 150 at 0, stacks 576 points, 300 at 0
    rng = np.random.default_rng(n)
    x, a = np.repeat([0.0, 1.0], [150, 138])[:, None], rng.integers(0, 2, 288)
    z1, z2 = rng.standard_normal(288), rng.standard_normal(288)
    want = _dense_mmd(z1, x, a, z2, x, a)
    assert mt.mmd_squared(z1, x, a, z2, x, a) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("tiny", [False, True])
@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("n", [2, 3, _EDGE, _EDGE + 1, 300])
def test_mmd_matches_dense_reference(monkeypatch, n, shared, tiny):
    for name, value in _TINY.items() if tiny else ():
        monkeypatch.setattr(mt, name, value)
    rng = np.random.default_rng([n, shared])
    z1, z2 = rng.standard_normal(n), 1.1 * rng.standard_normal(n)
    x1, a1 = rng.standard_normal((n, 4)), rng.integers(0, 2, n)
    x2, a2 = (x1.copy(), a1.copy()) if shared else (rng.standard_normal((n, 4)),
                                                    rng.integers(0, 2, n))
    want = _dense_mmd(z1, x1, a1, z2, x2, a2)
    assert mt.mmd_squared(z1, x1, a1, z2, x2, a2) == pytest.approx(want, rel=1e-12)


def test_mmd_memory_is_linear_in_n():
    # the unblocked sums held several (2n, 2n) float64 arrays: about 0.9 GB at n = 3,000
    rng = np.random.default_rng(3)
    n = 3000
    z1, z2 = rng.standard_normal(n), rng.standard_normal(n)
    x, a = rng.standard_normal((n, 10)), rng.integers(0, 2, n)
    tracemalloc.start()
    try:
        mt.mmd_squared(z1, x, a, z2, x, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
