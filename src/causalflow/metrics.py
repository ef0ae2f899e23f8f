"""Evaluation metrics for outcome models with optional ground-truth columns.

Point-prediction errors (rmse, pehe), distributional gaps against a known
Gaussian outcome law (the Gauss-Hermite KL of _gh_kl, wasserstein1), and a
two-sample latent-noise adequacy test (mmd_a3_test). evaluate_all bundles
everything that the available truth columns permit, on train and test
splits.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from . import causal_api as api
from . import ode_engine as oe
from .errors import ContractError, DimensionError, NumericError
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
    """Earth mover distance between two one-dimensional samples of equal size.

    It is the mean absolute gap of the sorted samples.
    """
    u = np.sort(np.asarray(u, dtype=np.float64).reshape(-1))
    v = np.sort(np.asarray(v, dtype=np.float64).reshape(-1))
    if u.size == 0 or u.size != v.size:
        raise ContractError(f"wasserstein1 needs two non-empty samples of equal size, "
                            f"got {u.size} and {v.size}")
    return float(np.mean(np.abs(u - v)))


def _gh_kl(y: np.ndarray, log_p: np.ndarray, mu: np.ndarray, sd: float) -> float:
    """Row mean of KL(model || N(mu_i, sd^2)) from (n, 16) decodes at the GAUSS_HERMITE nodes.

    Each row's KL is E_z[log p(y(z)) - log N(y(z); mu_i, sd^2)] over the
    base noise z ~ N(0, 1); y and log_p come from decode_nodes(..., log_p=True).
    """
    log_truth = -0.5 * oe.LOG_2PI - math.log(sd) - 0.5 * ((y - mu[:, None]) / sd) ** 2
    return float(np.mean((log_p - log_truth) @ api.GAUSS_HERMITE[1]))


# Bytes of one (rows, cols) float64 block in mmd_squared's passes, which hold
# a few such temporaries at a time, so memory stays flat in n. At 128 KB a
# temporary stays under glibc's mmap threshold and reuses heap chunks; with
# 1-2 MB blocks, mmd_squared at n = 1,000 ran 1.4-1.8x slower.
_BLOCK_BYTES = 1 << 17
_SUBSAMPLE = 256  # points whose pairwise distances place the first median cuts
# Their quantile levels: fine near the median, and wide enough to hold it
# despite the subsample's error (up to 0.07 in quantile at 6,000 points).
_CUT_LEVELS = 0.5 + np.array([-8, -4, -2, -1, 0, 1, 2, 4, 8]) / 80
_KEEP_PER_POINT = 32  # at most this many pairs per point reach np.partition


def _gram_parts(values: np.ndarray):
    """Rows, a transposed copy and squared norms, for Gram blocks of pairwise distances.

    The copy keeps numpy off its syrk path for A @ A.T, so equal inputs give
    equal bits whether or not they share a buffer.
    """
    return values, values.T.copy(), np.sum(values * values, axis=1)


def _sq_block(p, q, rows, cols) -> np.ndarray:
    """Squared distances |a|^2 + |b|^2 - 2 a.b, clipped at 0, of p's rows to q's cols."""
    (pv, _, pn), (_, qt, qn) = p, q
    sq = pn[rows, None] + qn[None, cols]
    gram = pv[rows] @ qt[:, cols]
    gram *= 2.0
    sq -= gram
    return np.maximum(sq, 0.0, out=sq)


def _upper_blocks(n: int):
    """(rows, cols) slices whose blocks cover the strict upper triangle of (n, n).

    Each block starts on the diagonal and has at least 2 rows and 2 columns:
    numpy computes a one-row product by gemv, which rounds unlike gemm.
    """
    lo = 0
    while lo < n - 1:
        hi = min(n, lo + max(2, _BLOCK_BYTES // (8 * (n - lo))))
        yield slice(lo, hi), slice(lo, n)
        lo = hi


def _strict_upper(block: np.ndarray, fill: float) -> np.ndarray:
    """Fill the entries of an _upper_blocks block on or below the diagonal."""
    r = block.shape[0]
    block[:, :r][np.tri(r, dtype=bool)] = fill
    return block


def _pair_sq(p):
    """Blocks of the pairwise squared distances of p's points, NaN off the strict upper triangle."""
    for rows, cols in _upper_blocks(p[0].shape[0]):
        yield _strict_upper(_sq_block(p, p, rows, cols), np.nan)


def _median_bandwidth(values: np.ndarray) -> float:
    """Half the median pairwise distance, floored at 1e-12.

    Bit for bit 0.5 * np.median(np.sqrt(sq[triu])) over the Gram-formula
    squared distances, without storing the pairs: sqrt is monotone, so the
    two middle order statistics are found on sq. Up to _SUBSAMPLE points,
    the subsample below is every point and holds every pair.
    """
    n = values.shape[0]
    total = n * (n - 1) // 2
    k1, k2 = (total - 1) // 2, total // 2  # np.median's middle ranks, equal when odd
    sub = _gram_parts(values[::-(-n // _SUBSAMPLE)])
    sub_sq = _sq_block(sub, sub, slice(None), slice(None))
    sub_sq = sub_sq[np.triu_indices(sub_sq.shape[0], k=1)]
    if sub_sq.size == total:
        middle = np.partition(sub_sq, (k1, k2))[[k1, k2]]
    else:
        middle = _pair_order_stats(_gram_parts(values), sub_sq, k1, k2)
    return max(0.5 * float(np.median(np.sqrt(middle))), 1e-12)


def _pair_order_stats(p, sub_sq: np.ndarray, k1: int, k2: int) -> np.ndarray:
    """The k1-th and k2-th smallest (k1 <= k2 adjacent) pairwise squared distances of p's points.

    Counting passes narrow a bracket [lo, hi) around both ranks, starting
    from cuts that the subsample's pairs sub_sq place. Once the bracket holds
    at most _KEEP_PER_POINT pairs per point, one more pass keeps them for
    np.partition. Each pass moves lo or hi past every cut, except a cut with
    exactly k2 pairs below it when k1 < k2: the two ranks straddle it, and
    one more pass takes the largest pair below it and the smallest above.
    """
    n = p[0].shape[0]
    at = np.rint(_CUT_LEVELS * (sub_sq.size - 1)).astype(np.intp)
    cuts = np.partition(sub_sq, at)[at]
    lo, hi, below, mass = 0.0, math.inf, 0, n * (n - 1) // 2  # pairs < lo; pairs in [lo, hi)
    while mass > _KEEP_PER_POINT * n and np.nextafter(lo, math.inf) < hi:
        cuts = np.unique(cuts[(cuts > lo) & (cuts < hi)])
        counts, top = np.zeros(cuts.size, dtype=np.int64), lo
        for sq in _pair_sq(p):
            counts += np.array([np.count_nonzero(sq < c) for c in cuts], dtype=np.int64)
            top = max(top, float(np.fmax.reduce(sq, axis=None)))
        edges = [lo, *cuts, min(hi, np.nextafter(top, math.inf))]
        cum = [below, *counts, below + mass]
        if k1 < k2 and k2 in cum:
            return _straddle(p, float(edges[cum.index(k2)]))
        a = int(np.searchsorted(cum, k1, side="right")) - 1
        b = int(np.searchsorted(cum, k2, side="right"))
        lo, hi, below, mass = float(edges[a]), float(edges[b]), int(cum[a]), int(cum[b] - cum[a])
        cuts = np.append(np.nextafter(lo, math.inf), np.linspace(lo, hi, 9)[1:-1])
    if np.nextafter(lo, math.inf) >= hi:  # [lo, hi) holds one float: every pair in it is lo
        return np.array([lo, lo])
    kept = np.concatenate([sq[(sq >= lo) & (sq < hi)] for sq in _pair_sq(p)])
    return np.partition(kept, (k1 - below, k2 - below))[[k1 - below, k2 - below]]


def _straddle(p, cut: float) -> np.ndarray:
    """The largest pairwise squared distance below cut and the smallest at or above it."""
    low, high = -math.inf, math.inf
    for sq in _pair_sq(p):  # NaN fails both comparisons
        low = max(low, float(np.max(sq, where=sq < cut, initial=-math.inf)))
        high = min(high, float(np.min(sq, where=sq >= cut, initial=math.inf)))
    return np.array([low, high])


def mmd_squared(z1, x1, a1, z2, x2, a2) -> float:
    """Unbiased squared MMD between joint samples (z, x, a).

    Product kernel: RBF on z, RBF on x, exact match on a. Bandwidths are
    half the median pairwise distance over the stacked union, per part.
    All three terms drop the diagonal, so identical inputs give exactly 0.
    The sums run over row blocks of the upper triangle, in memory linear
    in n.
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
    zs, xs = np.vstack([z1, z2]), np.vstack([x1, x2])
    with np.errstate(over="ignore", invalid="ignore"):  # nan, inf and overflow fail below
        reach = 4.0 * max(float(np.max(np.sum(v * v, axis=1))) for v in (zs, xs))
    if not math.isfinite(reach):  # the median cuts need every pairwise distance finite
        raise NumericError("mmd_squared needs finite inputs whose squared distances "
                           "fit in float64")
    bw_z = _median_bandwidth(zs)
    bw_x = _median_bandwidth(xs)
    z = (_gram_parts(z1), _gram_parts(z2))
    x = (_gram_parts(x1), _gram_parts(x2))
    a = (a1, a2)

    def rbf(p, q, bw, rows, cols):
        sq = _sq_block(p, q, rows, cols)
        return np.exp(np.divide(sq, -2.0 * bw * bw, out=sq), out=sq)

    def k(i, j, rows, cols):
        kij = rbf(z[i], z[j], bw_z, rows, cols)
        kij *= rbf(x[i], x[j], bw_x, rows, cols)
        kij *= a[i][rows, None] == a[j][None, cols]
        return kij

    # sum over i < j of k11 + k22 - k12 - k21, the U-statistic kernel
    total = 0.0
    for rows, cols in _upper_blocks(n):
        h = k(0, 0, rows, cols)
        h += k(1, 1, rows, cols)
        h -= k(0, 1, rows, cols)
        h -= k(1, 0, rows, cols)
        total += float(np.sum(_strict_upper(h, 0.0)))
    return 2.0 * total / (n * (n - 1))


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
    x_std = model.scaler.transform_x(api._check_x(model, sub.x))
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
                max_rows: int, noise_sd: float) -> dict:
    n = min(ds.n, max_rows)
    sub = ds.take(np.arange(n))
    x, a, y = sub.x, sub.a, sub.y
    out: dict[str, float] = {}

    z, w = api.GAUSS_HERMITE
    y_gh, logp_gh = api.decode_nodes(model, x, a, z, ode_cfg, log_p=True)
    out["rmse_factual"] = rmse(y_gh @ w, y)
    out["rmse_map"] = rmse(api.map_po_batch(model, x, a, ode_cfg), y)

    if sub.ycf is not None:
        out["rmse_cf"] = rmse(api.predict_counterfactual_batch(model, y, x, a, ode_cfg),
                              sub.ycf)

    if sub.mu0 is not None and sub.mu1 is not None:
        out["pehe"] = pehe(api.estimate_cate(model, x, ode_cfg), sub.mu1 - sub.mu0)

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
                 seed: int = 0, max_rows: int = MAX_ROWS,
                 noise_sd: float = 1.0) -> dict:
    """Run every metric the truth columns allow, on both splits.

    Returns {"metrics": {name: {"in": train value, "out": test value}},
    "meta": run settings}.

    Every metric but the MMD pair is a decode at fixed noise nodes, so seed
    reaches only the MMD draws.
    """
    if not 0.0 < noise_sd < math.inf:
        raise ContractError(f"noise_sd must be finite and positive, got {noise_sd}")
    splits = {"in": train_ds, "out": test_ds}
    per_split = {
        tag: _eval_split(model, ds, ode_cfg, seed, max_rows, noise_sd)
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
    }
    return {"metrics": metrics, "meta": meta}
