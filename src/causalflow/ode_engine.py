"""Deterministic RK4 transport between outcomes and base noise.

Encoding integrates the velocity field from t=0 (data) to t=1 (noise);
decoding runs the same field backward. Log-densities accumulate the
field's divergence along the trajectory inside the same RK4 pass, with
the divergence taken either by central finite differences or by a
Rademacher probe estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, IntegrationError
from .velocity_net import VelocityNet, forward_batch

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class DivergenceConfig:
    """How to differentiate the field along y; exact-fd is the default."""

    mode: str = "exact-fd"  # or "hutchinson"
    sigma_div: float = 1e-4
    n_probes: int = 8
    sigma: float = 1e-4
    probe_seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exact-fd", "hutchinson"):
            raise ContractError(f"unknown divergence mode {self.mode!r}")
        if self.sigma_div <= 0 or self.sigma <= 0:
            raise ContractError("probe widths must be positive")
        if self.n_probes < 1:
            raise ContractError("n_probes must be at least 1")


@dataclass(frozen=True)
class OdeConfig:
    n_steps: int = 64
    divergence: DivergenceConfig = DivergenceConfig()
    save_trajectory: bool = False

    def __post_init__(self):
        if self.n_steps < 1:
            raise ContractError("n_steps must be at least 1")


@dataclass
class OdeResult:
    y_end: np.ndarray
    logdet_integral: np.ndarray | None = None
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


def _prep_cond(net: VelocityNet, n: int, x, a) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = np.broadcast_to(x, (n, x.shape[0])).copy()
    a = np.broadcast_to(np.asarray(a), (n,)).astype(np.int64)
    return x, a


def _field(net: VelocityNet, x: np.ndarray, a: np.ndarray):
    def f(ys, t):
        return forward_batch(net, ys, t, x, a)

    return f


def _vel_div_fn(net: VelocityNet, x: np.ndarray, a: np.ndarray, div_cfg: DivergenceConfig):
    """Evaluator returning (velocity, divergence) with one stacked net call.

    The stacked conditioning is built once here, not at every RK4 stage.
    """
    if div_cfg.mode == "exact-fd":
        s = div_cfg.sigma_div
        x3, a3 = np.tile(x, (3, 1)), np.tile(a, 3)

        def vd(ys, t):
            n = ys.shape[0]
            stacked = np.concatenate([ys, ys + s, ys - s])
            out = forward_batch(net, stacked, t, x3, a3)
            return out[:n], (out[n:2 * n] - out[2 * n:]) / (2.0 * s)

        return vd

    probes = np.random.default_rng(div_cfg.probe_seed).integers(
        0, 2, div_cfg.n_probes) * 2.0 - 1.0
    s = div_cfg.sigma
    reps = div_cfg.n_probes + 1
    x_rep, a_rep = np.tile(x, (reps, 1)), np.tile(a, reps)

    def vd(ys, t):
        n = ys.shape[0]
        stacked = np.concatenate([ys] + [ys + s * e for e in probes])
        out = forward_batch(net, stacked, t, x_rep, a_rep)
        v = out[:n]
        est = np.zeros(n)
        for j, e in enumerate(probes):
            est += e * (out[(j + 1) * n:(j + 2) * n] - v) / s
        return v, est / div_cfg.n_probes

    return vd


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


def _integrate_logdet(vd, y0: np.ndarray, t0: float, t1: float, n_steps: int):
    """RK4 on the state joined with the running divergence integral.

    The accumulator is oriented so it always equals the divergence integral
    over increasing time, whichever direction the state is traversed.
    """
    sign = 1.0 if t1 > t0 else -1.0
    h = (t1 - t0) / n_steps
    y = np.array(y0, dtype=np.float64)
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
    ys = np.asarray(ys, dtype=np.float64).reshape(-1)
    x, a = _prep_cond(net, ys.shape[0], x, a)
    z, _ = _integrate(_field(net, x, a), ys, 0.0, 1.0, ode_cfg.n_steps)
    return z


def decode_batch(net: VelocityNet, zs, x, a, ode_cfg: OdeConfig = OdeConfig()) -> np.ndarray:
    """Map base-noise values back to outcomes under conditioning (x, a)."""
    zs = np.asarray(zs, dtype=np.float64).reshape(-1)
    x, a = _prep_cond(net, zs.shape[0], x, a)
    y, _ = _integrate(_field(net, x, a), zs, 1.0, 0.0, ode_cfg.n_steps)
    return y


def encode(net: VelocityNet, y_a: float, x, a: int, ode_cfg: OdeConfig = OdeConfig()) -> float:
    return float(encode_batch(net, [y_a], x, a, ode_cfg)[0])


def decode(net: VelocityNet, z: float, x, a: int, ode_cfg: OdeConfig = OdeConfig()) -> float:
    return float(decode_batch(net, [z], x, a, ode_cfg)[0])


def integrate(net: VelocityNet, ys, x, a, ode_cfg: OdeConfig = OdeConfig(),
              direction: str = "encode") -> OdeResult:
    """Full integration with optional saved trajectory."""
    if direction not in ("encode", "decode"):
        raise ContractError(f"unknown direction {direction!r}")
    ys = np.asarray(ys, dtype=np.float64).reshape(-1)
    x, a = _prep_cond(net, ys.shape[0], x, a)
    t0, t1 = (0.0, 1.0) if direction == "encode" else (1.0, 0.0)
    y, traj = _integrate(_field(net, x, a), ys, t0, t1, ode_cfg.n_steps,
                         save=ode_cfg.save_trajectory)
    return OdeResult(y_end=y, trajectory=traj)


def divergence(net: VelocityNet, y: float, t: float, x, a: int,
               div_cfg: DivergenceConfig = DivergenceConfig()) -> float:
    """d(velocity)/dy at one state."""
    xm, am = _prep_cond(net, 1, x, a)
    _, d = _vel_div_fn(net, xm, am, div_cfg)(np.array([y], dtype=np.float64), t)
    return float(d[0])


def decode_with_logdensity_batch(net: VelocityNet, zs, x, a,
                                 ode_cfg: OdeConfig = OdeConfig()
                                 ) -> tuple[np.ndarray, np.ndarray]:
    """Decode plus the exact log-density of each decoded outcome."""
    zs = np.asarray(zs, dtype=np.float64).reshape(-1)
    x, a = _prep_cond(net, zs.shape[0], x, a)
    vd = _vel_div_fn(net, x, a, ode_cfg.divergence)
    y, ell = _integrate_logdet(vd, zs, 1.0, 0.0, ode_cfg.n_steps)
    logp = -0.5 * LOG_2PI - 0.5 * zs * zs + ell
    return y, logp


def encode_with_logdensity_batch(net: VelocityNet, ys, x, a,
                                 ode_cfg: OdeConfig = OdeConfig()
                                 ) -> tuple[np.ndarray, np.ndarray]:
    """Encode plus the log-density of each input outcome."""
    ys = np.asarray(ys, dtype=np.float64).reshape(-1)
    x, a = _prep_cond(net, ys.shape[0], x, a)
    vd = _vel_div_fn(net, x, a, ode_cfg.divergence)
    z, ell = _integrate_logdet(vd, ys, 0.0, 1.0, ode_cfg.n_steps)
    logp = -0.5 * LOG_2PI - 0.5 * z * z + ell
    return z, logp
