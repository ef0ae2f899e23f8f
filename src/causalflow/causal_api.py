"""Causal queries against a trained flow, phrased in original data units.

The velocity net lives in standardized space. Every function here routes
covariates and outcomes through the model's scaler on the way in and maps
results (and log-density Jacobian corrections) back on the way out, so
callers never see standardized values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ode_engine as oe
from .errors import ContractError, DimensionError
from .velocity_net import FlowModel

N_SAMPLES = 100  # draws per row for po and map
_z, _w = np.polynomial.hermite_e.hermegauss(16)
GAUSS_HERMITE = (_z, _w / _w.sum())  # nodes and weights of E[f(z)], z ~ N(0, 1)


def _check_x(model: FlowModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if x.ndim != 2 or x.shape[1] != model.cfg.d_x:
        raise DimensionError(
            f"covariates have {x.shape[-1] if x.ndim else 0} columns, "
            f"model expects {model.cfg.d_x}"
        )
    return x


def _check_a(a, n: int) -> np.ndarray:
    try:
        a = np.broadcast_to(np.asarray(a), (n,))
    except ValueError:
        raise DimensionError(f"treatment has shape {np.shape(a)}, expected ({n},)") from None
    if not np.all((a == 0) | (a == 1)):  # before the cast, which would turn 0.5 into 0
        raise ContractError("treatment values must be 0 or 1")
    return a.astype(np.int64)


def _noise(seed: int, n: int, n_samples: int) -> np.ndarray:
    """(n, n_samples) base draws from one stream per row: a row's draws ignore its batch."""
    if n_samples < 1:
        raise ContractError("n_samples must be >= 1")
    try:
        z = np.empty((n, n_samples))
    except ValueError:  # numpy's own limit on an array's size
        raise ContractError(f"n_samples={n_samples}: {n} x {n_samples} draws do not fit "
                            "in one array") from None
    for i in range(n):
        z[i] = np.random.default_rng([seed, i]).standard_normal(n_samples)
    return z


def map_estimate(y: np.ndarray, log_p: np.ndarray) -> np.ndarray:
    """Per row, the draw of highest density; ties resolve to the lowest index."""
    return y[np.arange(y.shape[0]), np.argmax(log_p, axis=1)]


@dataclass
class PoSampleSet:
    """Posterior-free outcome draws for one (x, a) query."""

    x: np.ndarray
    a: int
    y: np.ndarray
    log_p: np.ndarray
    seed: int


def sample_po_batch(model: FlowModel, x, a, n_samples: int = N_SAMPLES,
                    ode_cfg: oe.OdeConfig = oe.OdeConfig(), seed: int = 0):
    """Draw outcome samples with log-densities for each covariate row.

    Returns (y, log_p), both shaped (n_rows, n_samples), in original units.
    """
    x = _check_x(model, x)
    n = x.shape[0]
    a = _check_a(a, n)
    z = _noise(seed, n, n_samples)
    x_std = model.scaler.transform_x(x)
    big_x = np.repeat(x_std, n_samples, axis=0)
    big_a = np.repeat(a, n_samples)
    y_std, logp_std = oe.decode_with_logdensity_batch(
        model.net, z.reshape(-1), big_x, big_a, ode_cfg)
    y = model.scaler.inverse_y(y_std).reshape(n, n_samples)
    log_p = (logp_std - math.log(model.scaler.y_sd)).reshape(n, n_samples)
    return y, log_p


def sample_po(model: FlowModel, x, a: int, n_samples: int = N_SAMPLES,
              ode_cfg: oe.OdeConfig = oe.OdeConfig(), seed: int = 0) -> PoSampleSet:
    x = _check_x(model, x)
    if x.shape[0] != 1:
        raise ContractError("sample_po takes a single covariate row")
    y, log_p = sample_po_batch(model, x, a, n_samples, ode_cfg, seed)
    return PoSampleSet(x=x[0].copy(), a=int(a), y=y[0], log_p=log_p[0], seed=seed)


def predict_counterfactual_batch(model: FlowModel, ys, x, a,
                                 ode_cfg: oe.OdeConfig = oe.OdeConfig()) -> np.ndarray:
    """Abduct noise under the factual arm, replay it under the flipped arm."""
    x = _check_x(model, x)
    n = x.shape[0]
    a = _check_a(a, n)
    ys = np.asarray(ys, dtype=np.float64).reshape(-1)
    if ys.shape[0] != n:
        raise DimensionError(f"{ys.shape[0]} outcomes for {n} covariate rows")
    x_std = model.scaler.transform_x(x)
    z = oe.encode_batch(model.net, model.scaler.transform_y(ys), x_std, a, ode_cfg)
    y_cf = oe.decode_batch(model.net, z, x_std, 1 - a, ode_cfg)
    return model.scaler.inverse_y(y_cf)


def predict_counterfactual(model: FlowModel, y: float, x, a: int,
                           ode_cfg: oe.OdeConfig = oe.OdeConfig()) -> float:
    out = predict_counterfactual_batch(model, [y], x, a, ode_cfg)
    return float(out[0])


def estimate_cate(model: FlowModel, x, ode_cfg: oe.OdeConfig = oe.OdeConfig()) -> np.ndarray:
    """Per-row E[Y(1) - Y(0) | x]: both arms decode the same Gauss-Hermite nodes."""
    x = _check_x(model, x)
    n = x.shape[0]
    z, w = GAUSS_HERMITE
    big_x = np.repeat(model.scaler.transform_x(x), z.size, axis=0)
    y = oe.decode_batch(model.net, np.tile(z, 2 * n), np.concatenate([big_x, big_x]),
                        np.repeat([1, 0], n * z.size), ode_cfg)
    y = model.scaler.inverse_y(y).reshape(2, n, z.size)
    return (y[0] - y[1]) @ w


def map_po_batch(model: FlowModel, x, a, n_samples: int = N_SAMPLES,
                 ode_cfg: oe.OdeConfig = oe.OdeConfig(), seed: int = 0) -> np.ndarray:
    """Highest-density sample per row (argmax over drawn candidates)."""
    return map_estimate(*sample_po_batch(model, x, a, n_samples, ode_cfg, seed))


def log_density_batch(model: FlowModel, ys, x, a,
                      ode_cfg: oe.OdeConfig = oe.OdeConfig()) -> np.ndarray:
    """Exact log p(y | x, a) in original units (change of variables for y)."""
    x = _check_x(model, x)
    n = x.shape[0]
    a = _check_a(a, n)
    ys = np.asarray(ys, dtype=np.float64).reshape(-1)
    if ys.shape[0] != n:
        raise DimensionError(f"{ys.shape[0]} outcomes for {n} covariate rows")
    _, logp_std = oe.encode_with_logdensity_batch(
        model.net, model.scaler.transform_y(ys), model.scaler.transform_x(x),
        a, ode_cfg)
    return logp_std - math.log(model.scaler.y_sd)


def log_density(model: FlowModel, y: float, x, a: int,
                ode_cfg: oe.OdeConfig = oe.OdeConfig()) -> float:
    return float(log_density_batch(model, [y], x, a, ode_cfg)[0])
