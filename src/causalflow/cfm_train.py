"""Flow-matching training of the velocity net.

Each iteration resamples a minibatch with replacement, draws one base-noise
value and one time per row, pushes the straight-line interpolation between
outcome and noise through the net on a tape, and regresses the selected
head onto the difference (noise - outcome) with Adam updates. Iteration 1
records the tape; later iterations replay it on their own batch.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import numkit as nk
from .errors import ContractError, FitError, TrainingError
from .scm_data import CausalDataset, check_array_bytes, check_treatment
from .velocity_net import NetConfig, VelocityNet, cond_features, core_forward, init


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 200
    max_iters: int = 1000
    lr: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    loss_log_every: int = 1

    def __post_init__(self):
        if self.batch_size < 1 or self.max_iters < 1 or self.loss_log_every < 1:
            raise ContractError("batch_size, max_iters, loss_log_every must be positive")
        if self.seed < 0:
            raise ContractError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 <= self.lr < np.inf:
            raise ContractError(f"lr must be finite and non-negative, got {self.lr}")
        for key in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ContractError(f"{key} must lie in [0, 1), got {getattr(self, key)}")
        if not 0.0 < self.adam_eps < np.inf:
            raise ContractError(f"adam_eps must be finite and positive, got {self.adam_eps}")

    def to_dict(self) -> dict:
        return asdict(self)


def interpolant(y0, y1, t):
    """Straight line from data (t=0) to noise (t=1)."""
    y0, y1, t = (np.asarray(v, dtype=np.float64) for v in (y0, y1, t))
    return (1.0 - t) * y0 + t * y1


def reference_velocity(y0, y1):
    """Time derivative of the straight-line path; constant in t."""
    return np.asarray(y1, dtype=np.float64) - np.asarray(y0, dtype=np.float64)


def cfm_loss(net: VelocityNet, y0, x, a, y1, ts, tape: nk.Tape | None = None
             ) -> tuple[float, nk.Tape]:
    """Mean squared velocity residual on one batch, with its tape.

    Noise y1 and times ts are drawn by the caller so the loss itself is a
    pure deterministic function of its arguments. Given the tape of an
    earlier call on the same net and batch size, cfm_loss writes this batch
    into that tape's inputs and replays it rather than recording anew.
    """
    y0 = np.asarray(y0, dtype=np.float64).reshape(-1)
    n = y0.shape[0]
    if n == 0:
        raise ContractError("cfm_loss: empty batch")
    y1 = np.asarray(y1, dtype=np.float64).reshape(-1)
    ts = np.asarray(ts, dtype=np.float64).reshape(-1)
    a = np.asarray(a).reshape(-1)
    x = np.asarray(x, dtype=np.float64)
    if not (y1.shape == ts.shape == a.shape == (n,)) or x.shape != (n, net.cfg.d_x):
        raise ContractError("cfm_loss: batch arrays disagree on length")
    a = check_treatment(a, n)
    if not (ts.min() >= 0.0 and ts.max() <= 1.0):  # a nan time fails both tests
        raise ContractError("cfm_loss: times outside [0, 1]")

    phi, c, mask, neg_target_m = inputs = tape.inputs if tape is not None else (
        np.empty((n, 1)), np.empty((n, net.cfg.cond_dim)), np.empty((n, 2)), np.empty((n, 2)))
    if c.shape != (n, net.cfg.cond_dim):
        raise ContractError(f"cfm_loss: the tape holds conditioning of shape {c.shape}, "
                            f"not {(n, net.cfg.cond_dim)}")
    phi[:, 0] = interpolant(y0, y1, ts)
    c[:] = cond_features(x, a, ts, net.cfg)
    mask[:, 0], mask[:, 1] = a == 0, a == 1
    neg_target_m.fill(0.0)
    neg_target_m[np.arange(n), a] = -reference_velocity(y0, y1)

    def build(tape, p):
        out = core_forward(tape, p, phi, c, net.cfg)
        resid = tape.add(tape.mul(out, mask), neg_target_m)
        # mean over the (n,2) masked matrix halves every term; the 2x mask
        # restores a per-row mean of residual_i^2
        return tape.mean(tape.mul(tape.square(resid), np.full((n, 2), 2.0)))

    loss, tape = nk.tape_forward(build, net.params, tape)
    tape.inputs = inputs
    return loss, tape


class _AdamState:
    """Step count, flat first and second moments, and two scratch vectors."""

    def __init__(self, size: int):
        self.t = 0
        self.m, self.v = np.zeros(size), np.zeros(size)
        self.step, self.denom = np.empty(size), np.empty(size)


def _adam_step(theta: np.ndarray, grad: np.ndarray, state: _AdamState,
               cfg: TrainConfig) -> None:
    """One Adam update of the flat parameter vector theta, in place.

    Each ufunc keeps the operation order of m = b1*m + (1-b1)*g,
    v = b2*v + (1-b2)*g*g and theta -= lr*(m/c1) / (sqrt(v/c2) + eps).
    Elementwise results do not depend on layout, so the bits are those of
    the same update applied tensor by tensor.
    """
    state.t += 1
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    m, v, step, denom = state.m, state.v, state.step, state.denom
    m *= b1
    m += np.multiply(1.0 - b1, grad, out=step)
    v *= b2
    np.multiply(1.0 - b2, grad, out=step)
    step *= grad
    v += step
    np.divide(v, c2, out=denom)
    np.sqrt(denom, out=denom)
    denom += cfg.adam_eps
    np.divide(m, c1, out=step)
    step *= cfg.lr
    step /= denom
    theta -= step


def _flat_views(flat: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Views of flat shaped like the tensors of like, laid end to end in its order."""
    views, lo = {}, 0
    for name, t in like.items():
        views[name] = flat[lo:lo + t.size].reshape(t.shape)
        lo += t.size
    return views


def check_batch_bytes(train_cfg: TrainConfig, net_cfg: NetConfig) -> None:
    """ContractError when one batch's widest activation passes scm_data.MAX_ARRAY_BYTES."""
    check_array_bytes("batch_size * net width",
                      train_cfg.batch_size * max(net_cfg.hidden, net_cfg.cond_dim))


def train(ds: CausalDataset, net_cfg: NetConfig, train_cfg: TrainConfig
          ) -> tuple[VelocityNet, list[tuple[int, float]]]:
    """Fit the velocity net on a (standardized) dataset.

    Returns the trained net and its loss history: (iteration, pre-update
    loss) at iteration 1, every loss_log_every-th iteration and the last.
    """
    if ds.d_x != net_cfg.d_x:
        raise ContractError(f"data has d_x={ds.d_x}, net expects {net_cfg.d_x}")
    if len(np.unique(ds.a)) < 2:
        raise FitError("training data must contain both treatment arms")
    check_batch_bytes(train_cfg, net_cfg)

    net = init(net_cfg)
    # parameters, gradients and Adam moments live in flat vectors in
    # layer_shapes order; net.params holds reshaped views of theta
    theta = np.concatenate([t.reshape(-1) for t in net.params.values()])
    net.params = _flat_views(theta, net.params)
    grad = np.empty_like(theta)
    state = _AdamState(theta.size)
    rng = np.random.default_rng(train_cfg.seed)
    history: list[tuple[int, float]] = []
    tape = None  # recorded at iteration 1, replayed after
    for it in range(1, train_cfg.max_iters + 1):
        idx = rng.integers(0, ds.n, size=train_cfg.batch_size)
        y1 = rng.standard_normal(train_cfg.batch_size)
        ts = rng.random(train_cfg.batch_size)
        loss, tape = cfm_loss(net, ds.y[idx], ds.x[idx], ds.a[idx], y1, ts, tape)
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss at iteration {it}")
        grads = nk.tape_backward(tape)
        np.concatenate([grads[name].reshape(-1) for name in net.params], out=grad)
        _adam_step(theta, grad, state, train_cfg)
        if it == 1 or it % train_cfg.loss_log_every == 0 or it == train_cfg.max_iters:
            history.append((it, loss))
    return net, history
