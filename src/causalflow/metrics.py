"""Evaluation metrics for outcome models with optional ground-truth columns.

Point-prediction errors (rmse, pehe), distributional gaps against a known
Gaussian outcome law (kl_vs_gaussian_truth, wasserstein1), and a two-sample
latent-noise adequacy test (mmd_a3_test). evaluate_all bundles everything
that the available truth columns permit, on train and test splits.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from . import causal_api as api
from . import ode_engine as oe
from .errors import ContractError, DimensionError
from .scm_data import CausalDataset
from .velocity_net import FlowModel

MAX_ROWS = 128  # rows per split that evaluate_all and mmd_a3_test use
# Phi^-1((k + 1/2) / 16): the standard normal quantiles at the middles of 16 equal-mass bins
QUANTILE_NODES = np.array([NormalDist().inv_cdf((k + 0.5) / 16) for k in range(16)])


def rmse(pred, truth) -> float:
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    truth = np.asarray(truth, dtype=np.float64).reshape(-1)
    if pred.shape != truth.shape:
        raise DimensionError(f"rmse got {pred.shape[0]} vs {truth.shape[0]} values")
    if pred.size == 0:
        raise ContractError("rmse of empty arrays")
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def pehe(cate_pred, tau_true) -> float:
    """Root mean squared error of unit-level effect estimates."""
    return rmse(cate_pred, tau_true)


def wasserstein1(u, v) -> float:
    """Earth mover distance between two one-dimensional samples.

    Equal sizes reduce to the mean absolute gap of the sorted samples;
    unequal sizes integrate |CDF_u - CDF_v| over the merged support.
    """
    u = np.sort(np.asarray(u, dtype=np.float64).reshape(-1))
    v = np.sort(np.asarray(v, dtype=np.float64).reshape(-1))
    if u.size == 0 or v.size == 0:
        raise ContractError("wasserstein1 needs non-empty samples")
    if u.size == v.size:
        return float(np.mean(np.abs(u - v)))
    grid = np.sort(np.concatenate([u, v]))
    cdf_u = np.searchsorted(u, grid[:-1], side="right") / u.size
    cdf_v = np.searchsorted(v, grid[:-1], side="right") / v.size
    return float(np.sum(np.abs(cdf_u - cdf_v) * np.diff(grid)))


def _gh_kl(y: np.ndarray, log_p: np.ndarray, mu: np.ndarray, sd: float) -> float:
    """Row mean of KL(model || N(mu_i, sd^2)) from (n, 16) decodes at the GAUSS_HERMITE nodes."""
    log_truth = -0.5 * oe.LOG_2PI - math.log(sd) - 0.5 * ((y - mu[:, None]) / sd) ** 2
    return float(np.mean((log_p - log_truth) @ api.GAUSS_HERMITE[1]))


def kl_vs_gaussian_truth(model: FlowModel, x, a, mu, sd: float = 1.0,
                         ode_cfg: oe.OdeConfig = oe.OdeConfig()) -> float:
    """KL(model || N(mu_i, sd^2)), averaged over rows.

    Each row's KL is E_z[log p(y(z)) - log N(y(z); mu_i, sd^2)] over the
    base noise z ~ N(0, 1), by 16-node Gauss-Hermite quadrature.
    """
    if not 0.0 < sd < math.inf:
        raise ContractError(f"sd must be finite and positive, got {sd}")
    x = api._check_x(model, x)
    mu = np.asarray(mu, dtype=np.float64).reshape(-1)
    if mu.shape[0] != x.shape[0]:
        raise DimensionError(f"{mu.shape[0]} means for {x.shape[0]} rows")
    y, log_p = api.decode_nodes(model, x, a, api.GAUSS_HERMITE[0], ode_cfg, log_p=True)
    return _gh_kl(y, log_p, mu, sd)


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise squared distances |a|^2 + |b|^2 - 2 a.b, clipped at 0.

    Allocates (n, m) arrays only. B.T is copied so that numpy never takes
    its syrk path for A @ A.T: equal inputs then give equal bits whether or
    not they share a buffer.
    """
    gram = A @ B.T.copy()
    sq = np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :] - 2.0 * gram
    return np.maximum(sq, 0.0)


def _median_bandwidth(values: np.ndarray) -> float:
    sq = _sq_dists(values, values)
    iu = np.triu_indices(values.shape[0], k=1)
    med = float(np.median(np.sqrt(sq[iu])))
    return max(0.5 * med, 1e-12)


def mmd_squared(z1, x1, a1, z2, x2, a2) -> float:
    """Unbiased squared MMD between joint samples (z, x, a).

    Product kernel: RBF on z, RBF on x, exact match on a. Bandwidths are
    half the median pairwise distance over the stacked union, per part.
    All three terms drop the diagonal, so identical inputs give exactly 0.
    """
    z1 = np.asarray(z1, dtype=np.float64).reshape(-1, 1)
    z2 = np.asarray(z2, dtype=np.float64).reshape(-1, 1)
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    a1 = np.asarray(a1).reshape(-1)
    a2 = np.asarray(a2).reshape(-1)
    n = z1.shape[0]
    if n < 2 or z2.shape[0] != n:
        raise ContractError("mmd_squared needs two samples of equal size >= 2")
    bw_z = _median_bandwidth(np.vstack([z1, z2]))
    bw_x = _median_bandwidth(np.vstack([x1, x2]))

    def kernel(za, xa, aa, zb, xb, ab):
        k = np.exp(-_sq_dists(za, zb) / (2.0 * bw_z * bw_z))
        k *= np.exp(-_sq_dists(xa, xb) / (2.0 * bw_x * bw_x))
        k *= (aa[:, None] == ab[None, :]).astype(np.float64)
        return k

    def offdiag_mean(k):
        return (np.sum(k) - np.trace(k)) / (n * (n - 1))

    s11 = offdiag_mean(kernel(z1, x1, a1, z1, x1, a1))
    s22 = offdiag_mean(kernel(z2, x2, a2, z2, x2, a2))
    s12 = offdiag_mean(kernel(z1, x1, a1, z2, x2, a2))
    return float(s11 + s22 - 2.0 * s12)


def mmd_a3_test(model: FlowModel, ds: CausalDataset,
                ode_cfg: oe.OdeConfig = oe.OdeConfig(), seed: int = 0,
                max_rows: int = MAX_ROWS) -> dict:
    """Does abducted noise look like fresh standard normal noise?

    Encodes factual outcomes to z and compares (z, x, a) against the same
    rows with z replaced by fresh N(0, 1) draws. A second comparison with
    two independent fresh draws calibrates the sampling floor.
    """
    n = min(ds.n, max_rows)
    if n < 2:
        raise ContractError("mmd_a3_test needs at least 2 rows")
    sub = ds.take(np.arange(n))
    x_std = model.scaler.transform_x(sub.x)
    z = oe.encode_batch(model.net, model.scaler.transform_y(sub.y),
                        x_std, sub.a, ode_cfg)
    rng = np.random.default_rng([seed, 101])
    z_ref = rng.standard_normal(n)
    z_t1 = rng.standard_normal(n)
    z_t2 = rng.standard_normal(n)
    return {
        "mmd_model": mmd_squared(z, x_std, sub.a, z_ref, x_std, sub.a),
        "mmd_truth_baseline": mmd_squared(z_t1, x_std, sub.a, z_t2, x_std, sub.a),
    }


def _eval_split(model: FlowModel, ds: CausalDataset, ode_cfg, seed: int,
                predictor, max_rows: int, noise_sd: float) -> dict:
    n = min(ds.n, max_rows)
    sub = ds.take(np.arange(n))
    x, a, y = sub.x, sub.a, sub.y
    out: dict[str, float] = {}

    z, w = api.GAUSS_HERMITE
    y_gh, logp_gh = api.decode_nodes(model, x, a, z, ode_cfg, log_p=True)
    if predictor is None:
        pred_f = y_gh @ w
        pred_map = api.map_po_batch(model, x, a, ode_cfg)
    else:
        pred_f = np.asarray(predictor.factual(x, a), dtype=np.float64)
        pred_map = pred_f
    out["rmse_factual"] = rmse(pred_f, y)
    out["rmse_map"] = rmse(pred_map, y)

    if sub.ycf is not None:
        if predictor is None:
            pred_cf = api.predict_counterfactual_batch(model, y, x, a, ode_cfg)
        else:
            pred_cf = np.asarray(predictor.counterfactual(y, x, a),
                                 dtype=np.float64)
        out["rmse_cf"] = rmse(pred_cf, sub.ycf)

    has_mu = sub.mu0 is not None and sub.mu1 is not None
    if has_mu:
        tau = sub.mu1 - sub.mu0
        if predictor is None:
            pred_tau = api.estimate_cate(model, x, ode_cfg)
        else:
            pred_tau = np.asarray(predictor.cate(x), dtype=np.float64)
        out["pehe"] = pehe(pred_tau, tau)

        mu_fact = np.where(a == 1, sub.mu1, sub.mu0)
        out["kl"] = _gh_kl(y_gh, logp_gh, mu_fact, noise_sd)

        for arm, mu_arm in ((0, sub.mu0), (1, sub.mu1)):
            model_q = api.decode_nodes(model, x, arm, QUANTILE_NODES, ode_cfg)
            truth_q = mu_arm[:, None] + noise_sd * QUANTILE_NODES
            out[f"w1_arm{arm}"] = wasserstein1(model_q.reshape(-1), truth_q.reshape(-1))

    mmd = mmd_a3_test(model, sub, ode_cfg, seed, max_rows)
    out["mmd_model"] = mmd["mmd_model"]
    out["mmd_truth_baseline"] = mmd["mmd_truth_baseline"]
    return out


def evaluate_all(model: FlowModel, train_ds: CausalDataset,
                 test_ds: CausalDataset, ode_cfg: oe.OdeConfig = oe.OdeConfig(),
                 seed: int = 0, predictor=None, max_rows: int = MAX_ROWS,
                 noise_sd: float = 1.0) -> dict:
    """Run every metric the truth columns allow, on both splits.

    Returns {"metrics": {name: {"in": train value, "out": test value}},
    "meta": run settings}.

    predictor, when given, supplies the point predictions (factual,
    counterfactual, cate) in place of the flow model; the distributional
    metrics always come from the model. Every metric but the MMD pair is a
    decode at fixed noise nodes, so seed reaches only the MMD draws.
    """
    if not 0.0 < noise_sd < math.inf:
        raise ContractError(f"noise_sd must be finite and positive, got {noise_sd}")
    splits = {"in": train_ds, "out": test_ds}
    per_split = {
        tag: _eval_split(model, ds, ode_cfg, seed, predictor, max_rows, noise_sd)
        for tag, ds in splits.items()
    }
    names = sorted(set(per_split["in"]) | set(per_split["out"]))
    metrics = {
        name: {tag: vals[name] for tag, vals in per_split.items()
               if name in vals}
        for name in names
    }
    meta = {
        "rows_in": min(train_ds.n, max_rows),
        "rows_out": min(test_ds.n, max_rows),
        "noise_sd": noise_sd,
        "seed": seed,
        "n_steps": ode_cfg.n_steps,
        "predictor": "external" if predictor is not None else "model",
    }
    return {"metrics": metrics, "meta": meta}
