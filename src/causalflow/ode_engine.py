"""Deterministic RK4 transport between outcomes and base noise.

Encoding integrates the velocity field from t=0 (data) to t=1 (noise);
decoding runs the same field backward. Every query runs one RK4 loop,
_integrate. Log-densities run it on the state stacked with the running
divergence integral, so both share every RK4 stage. For a scalar outcome
the divergence is dv/dy, which the net's forward-mode backend gives
exactly alongside the velocity.

Entry points take x and a checked, as causal_api and CausalDataset leave
them: float64 x of shape (n, d_x) and int64 a of shape (n,). Each row
block of the network's pass size is integrated end to end, so a query of
any size holds one block's stage temporaries. A block's evaluator
recomputes the conditioning projections only when the stage time changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, IntegrationError
# forward_batch is not called here: bench/tests checks that the tracer's
# wrapper reaches a name that another module imported, through this one
from .velocity_net import VelocityNet, block_evaluators, forward_batch  # noqa: F401

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class OdeConfig:
    n_steps: int = 64

    def __post_init__(self):
        if self.n_steps < 1:
            raise ContractError("n_steps must be at least 1")


def rk4_step(f, y, t: float, h: float):
    """One classical Runge-Kutta step; negative h integrates backward."""
    if h == 0.0:
        raise ContractError("rk4_step: h must be nonzero")
    k1 = f(y, t)
    k2 = f(y + 0.5 * h * k1, t + 0.5 * h)
    k3 = f(y + 0.5 * h * k2, t + 0.5 * h)
    k4 = f(y + h * k3, t + h)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate(f, y0: np.ndarray, t0: float, t1: float, n_steps: int) -> np.ndarray:
    h = (t1 - t0) / n_steps
    y = np.array(y0, dtype=np.float64)
    for k in range(n_steps):
        y = rk4_step(f, y, t0 + (k * (t1 - t0)) / n_steps, h)
    return y


def _transport(net: VelocityNet, ys, x, a, t0: float, t1: float, n_steps: int,
               logdet: bool):
    """Integrate each row block end to end; rows are independent.

    With logdet, RK4 runs on the state stacked with the running divergence
    integral, and the result is (state, integral). The field ignores the
    accumulator row. Its sign makes the accumulator equal the divergence
    integral over increasing time, whichever direction the state is
    traversed.
    """
    ys = np.asarray(ys, dtype=np.float64).reshape(-1)
    out = np.empty((2, ys.shape[0]) if logdet else ys.shape)
    sign = 1.0 if t1 > t0 else -1.0
    for rows, vd in block_evaluators(net, x, a, tangent=logdet):
        if logdet:
            def f(s, t, vd=vd):
                v, d = vd(s[0], t)
                return np.stack([v, sign * d])

            out[:, rows] = _integrate(f, np.stack([ys[rows], np.zeros_like(ys[rows])]),
                                      t0, t1, n_steps)
        else:
            out[rows] = _integrate(vd, ys[rows], t0, t1, n_steps)
    # column j of a stacked (2, n) state is query row j
    bad = np.flatnonzero(~np.isfinite(np.atleast_2d(out)).all(axis=0))
    if bad.size:
        raise IntegrationError(f"integration went non-finite in {bad.size} row(s), "
                               f"first rows {bad[:5].tolist()}")
    return out


def encode_batch(net: VelocityNet, ys, x, a, ode_cfg: OdeConfig = OdeConfig()) -> np.ndarray:
    """Map outcomes to base-noise coordinates under conditioning (x, a)."""
    return _transport(net, ys, x, a, 0.0, 1.0, ode_cfg.n_steps, logdet=False)


def decode_batch(net: VelocityNet, zs, x, a, ode_cfg: OdeConfig = OdeConfig()) -> np.ndarray:
    """Map base-noise values back to outcomes under conditioning (x, a)."""
    return _transport(net, zs, x, a, 1.0, 0.0, ode_cfg.n_steps, logdet=False)


def decode_with_logdensity_batch(net: VelocityNet, zs, x, a,
                                 ode_cfg: OdeConfig = OdeConfig()
                                 ) -> tuple[np.ndarray, np.ndarray]:
    """Decode plus the exact log-density of each decoded outcome."""
    zs = np.asarray(zs, dtype=np.float64).reshape(-1)
    y, ell = _transport(net, zs, x, a, 1.0, 0.0, ode_cfg.n_steps, logdet=True)
    return y, -0.5 * LOG_2PI - 0.5 * zs * zs + ell


def encode_with_logdensity_batch(net: VelocityNet, ys, x, a,
                                 ode_cfg: OdeConfig = OdeConfig()
                                 ) -> tuple[np.ndarray, np.ndarray]:
    """Encode plus the log-density of each input outcome."""
    z, ell = _transport(net, ys, x, a, 0.0, 1.0, ode_cfg.n_steps, logdet=True)
    return z, -0.5 * LOG_2PI - 0.5 * z * z + ell
