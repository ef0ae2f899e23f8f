"""Deterministic RK4 transport between outcomes and base noise.

Encoding integrates the velocity field from t=0 (data) to t=1 (noise);
decoding runs the same field backward. Log-densities accumulate the
field's divergence along the trajectory inside the same RK4 pass. For a
scalar outcome the divergence is dv/dy, which the net's forward-mode
backend gives exactly alongside the velocity.

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
    save_trajectory: bool = False

    def __post_init__(self):
        if self.n_steps < 1:
            raise ContractError("n_steps must be at least 1")


@dataclass
class OdeResult:
    y_end: np.ndarray
    trajectory: list[tuple[float, np.ndarray]] | None = None


def rk4_step(f, y, t: float, h: float):
    """One classical Runge-Kutta step; negative h integrates backward."""
    if h == 0.0:
        raise ContractError("rk4_step: h must be nonzero")
    k1 = f(y, t)
    k2 = f(y + 0.5 * h * k1, t + 0.5 * h)
    k3 = f(y + 0.5 * h * k2, t + 0.5 * h)
    k4 = f(y + h * k3, t + h)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _times(t0: float, t1: float, n_steps: int, k: int) -> float:
    return t0 + (k * (t1 - t0)) / n_steps


def _integrate(f, y0: np.ndarray, t0: float, t1: float, n_steps: int,
               save: bool = False):
    h = (t1 - t0) / n_steps
    y = np.array(y0, dtype=np.float64)
    traj = [(t0, y.copy())] if save else None
    for k in range(n_steps):
        y = rk4_step(f, y, _times(t0, t1, n_steps, k), h)
        if save:
            traj.append((_times(t0, t1, n_steps, k + 1), y.copy()))
    if y.size and not np.all(np.isfinite(y)):
        raise IntegrationError("integration produced a non-finite state")
    return y, traj


def _flow(net: VelocityNet, ys, x, a, t0: float, t1: float, n_steps: int,
          save: bool = False):
    ys = np.asarray(ys, dtype=np.float64).reshape(-1)
    return _integrate(evaluator(net, ys.shape[0], x, a), ys, t0, t1, n_steps, save)


def _flow_logdet(net: VelocityNet, ys, x, a, t0: float, t1: float, n_steps: int):
    """RK4 on the state joined with the running divergence integral.

    The accumulator is oriented so it always equals the divergence integral
    over increasing time, whichever direction the state is traversed.
    """
    y = np.asarray(ys, dtype=np.float64).reshape(-1)
    vd = evaluator(net, y.shape[0], x, a, tangent=True)
    sign = 1.0 if t1 > t0 else -1.0
    h = (t1 - t0) / n_steps
    ell = np.zeros_like(y)
    for k in range(n_steps):
        t = _times(t0, t1, n_steps, k)
        v1, d1 = vd(y, t)
        v2, d2 = vd(y + 0.5 * h * v1, t + 0.5 * h)
        v3, d3 = vd(y + 0.5 * h * v2, t + 0.5 * h)
        v4, d4 = vd(y + h * v3, t + h)
        y = y + (h / 6.0) * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
        ell = ell + sign * (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
    if y.size and not (np.all(np.isfinite(y)) and np.all(np.isfinite(ell))):
        raise IntegrationError("integration produced a non-finite state or log-density")
    return y, ell


def encode_batch(net: VelocityNet, ys, x, a, ode_cfg: OdeConfig = OdeConfig()) -> np.ndarray:
    """Map outcomes to base-noise coordinates under conditioning (x, a)."""
    return _flow(net, ys, x, a, 0.0, 1.0, ode_cfg.n_steps)[0]


def decode_batch(net: VelocityNet, zs, x, a, ode_cfg: OdeConfig = OdeConfig()) -> np.ndarray:
    """Map base-noise values back to outcomes under conditioning (x, a)."""
    return _flow(net, zs, x, a, 1.0, 0.0, ode_cfg.n_steps)[0]


def encode(net: VelocityNet, y_a: float, x, a: int, ode_cfg: OdeConfig = OdeConfig()) -> float:
    return float(encode_batch(net, [y_a], x, a, ode_cfg)[0])


def decode(net: VelocityNet, z: float, x, a: int, ode_cfg: OdeConfig = OdeConfig()) -> float:
    return float(decode_batch(net, [z], x, a, ode_cfg)[0])


def integrate(net: VelocityNet, ys, x, a, ode_cfg: OdeConfig = OdeConfig(),
              direction: str = "encode") -> OdeResult:
    """Full integration with optional saved trajectory."""
    if direction not in ("encode", "decode"):
        raise ContractError(f"unknown direction {direction!r}")
    t0, t1 = (0.0, 1.0) if direction == "encode" else (1.0, 0.0)
    y, traj = _flow(net, ys, x, a, t0, t1, ode_cfg.n_steps, ode_cfg.save_trajectory)
    return OdeResult(y_end=y, trajectory=traj)


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
