"""Deterministic RK4 transport between outcomes and base noise.

Encoding integrates the velocity field from t=0 (data) to t=1 (noise);
decoding runs the same field backward. Every query runs one RK4 loop,
_integrate. Log-densities run it on the state stacked with the running
divergence integral, so both share every RK4 stage. For a scalar outcome
the divergence is dv/dy, which the net's forward-mode backend gives
exactly alongside the velocity.

Each entry point checks (x, a) and builds the conditioning once, then
every RK4 stage only sets the time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, IntegrationError
from .velocity_net import VelocityNet, evaluator, forward_batch

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
    # column j of a stacked (k, n) state is query row j
    bad = np.flatnonzero(~np.isfinite(np.atleast_2d(y)).all(axis=0))
    if bad.size:
        raise IntegrationError(f"integration went non-finite in {bad.size} row(s), "
                               f"first rows {bad[:5].tolist()}")
    return y


def _flow(net: VelocityNet, ys, x, a, t0: float, t1: float, n_steps: int) -> np.ndarray:
    ys = np.asarray(ys, dtype=np.float64).reshape(-1)
    return _integrate(evaluator(net, ys.shape[0], x, a), ys, t0, t1, n_steps)


def _flow_logdet(net: VelocityNet, ys, x, a, t0: float, t1: float, n_steps: int):
    """RK4 on the state stacked with the running divergence integral.

    The field ignores the accumulator row. Its sign makes the accumulator
    equal the divergence integral over increasing time, whichever direction
    the state is traversed.
    """
    y = np.asarray(ys, dtype=np.float64).reshape(-1)
    vd = evaluator(net, y.shape[0], x, a, tangent=True)
    sign = 1.0 if t1 > t0 else -1.0

    def f(s, t):
        v, d = vd(s[0], t)
        return np.stack([v, sign * d])

    return _integrate(f, np.stack([y, np.zeros_like(y)]), t0, t1, n_steps)


def encode_batch(net: VelocityNet, ys, x, a, ode_cfg: OdeConfig = OdeConfig()) -> np.ndarray:
    """Map outcomes to base-noise coordinates under conditioning (x, a)."""
    return _flow(net, ys, x, a, 0.0, 1.0, ode_cfg.n_steps)


def decode_batch(net: VelocityNet, zs, x, a, ode_cfg: OdeConfig = OdeConfig()) -> np.ndarray:
    """Map base-noise values back to outcomes under conditioning (x, a)."""
    return _flow(net, zs, x, a, 1.0, 0.0, ode_cfg.n_steps)


def divergence(net: VelocityNet, y: float, t: float, x, a: int) -> float:
    """d(velocity)/dy at one state, exact by forward mode."""
    _, d = forward_batch(net, [y], t, x, a, tangent=True)
    return float(d[0])


def decode_with_logdensity_batch(net: VelocityNet, zs, x, a,
                                 ode_cfg: OdeConfig = OdeConfig()
                                 ) -> tuple[np.ndarray, np.ndarray]:
    """Decode plus the exact log-density of each decoded outcome."""
    zs = np.asarray(zs, dtype=np.float64).reshape(-1)
    y, ell = _flow_logdet(net, zs, x, a, 1.0, 0.0, ode_cfg.n_steps)
    return y, -0.5 * LOG_2PI - 0.5 * zs * zs + ell


def encode_with_logdensity_batch(net: VelocityNet, ys, x, a,
                                 ode_cfg: OdeConfig = OdeConfig()
                                 ) -> tuple[np.ndarray, np.ndarray]:
    """Encode plus the log-density of each input outcome."""
    z, ell = _flow_logdet(net, ys, x, a, 0.0, 1.0, ode_cfg.n_steps)
    return z, -0.5 * LOG_2PI - 0.5 * z * z + ell
