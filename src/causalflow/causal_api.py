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

N_SAMPLES = 100  # draws per row for po
_z, _w = np.polynomial.hermite_e.hermegauss(16)
GAUSS_HERMITE = (_z, _w / _w.sum())  # nodes and weights of E[f(z)], z ~ N(0, 1)
MAP_GRID = np.linspace(-3.0, 3.0, 33)  # base-noise candidates of map_po_batch


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


def decode_nodes(model: FlowModel, x, a, z, ode_cfg: oe.OdeConfig = oe.OdeConfig(),
                 log_p: bool = False):
    """Decode base-noise nodes z for each covariate row, in original units.

    z is (k,), shared by all rows, or (n, k), one set per row. Returns y
    shaped (n, k), or (y, log p) when log_p is set.
    """
    x = _check_x(model, x)
    n = x.shape[0]
    if np.ndim(z) not in (1, 2):
        raise DimensionError(f"nodes have shape {np.shape(z)}, expected (k,) or ({n}, k)")
    k = np.shape(z)[-1]
    a = _check_a(a, n)
    try:
        zs = np.broadcast_to(z, (n, k)).reshape(-1)
    except ValueError:
        raise DimensionError(
            f"nodes have shape {np.shape(z)}, expected ({k},) or ({n}, {k})") from None
    big_x = np.repeat(model.scaler.transform_x(x), k, axis=0)
    big_a = np.repeat(a, k)
    if not log_p:
        y_std = oe.decode_batch(model.net, zs, big_x, big_a, ode_cfg)
        return model.scaler.inverse_y(y_std).reshape(n, k)
    y_std, logp_std = oe.decode_with_logdensity_batch(model.net, zs, big_x, big_a, ode_cfg)
    return (model.scaler.inverse_y(y_std).reshape(n, k),
            (logp_std - math.log(model.scaler.y_sd)).reshape(n, k))


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
    return decode_nodes(model, x, a, _noise(seed, x.shape[0], n_samples), ode_cfg, log_p=True)


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
    y = decode_nodes(model, np.concatenate([x, x]), np.repeat([1, 0], n), z, ode_cfg)
    return (y[:n] - y[n:]) @ w


def map_po_batch(model: FlowModel, x, a, ode_cfg: oe.OdeConfig = oe.OdeConfig()) -> np.ndarray:
    """Per row, the decode of the MAP_GRID node of highest density; ties take the lower node."""
    y, log_p = decode_nodes(model, x, a, MAP_GRID, ode_cfg, log_p=True)
    return y[np.arange(y.shape[0]), np.argmax(log_p, axis=1)]


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
