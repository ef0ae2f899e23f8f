"""Conditional velocity field for the outcome flow, plus model-file I/O.

The net maps (y, t, x, a) to a scalar velocity. The outcome is embedded,
modulated by feature-wise scale/shift computed from the conditioning vector
c = concat(x, a, enc(t)), passed through two gated residual blocks, and
projected to one head per treatment arm. The same layer recipe runs on three
backends: plain numpy for inference, numpy with forward-mode tangents for
the exact dv/dy of log-densities, and the numkit tape for training. All
three produce identical velocities.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field

import numpy as np

from . import numkit as nk
from .errors import ConfigError, ContractError, DimensionError
from .numkit import sigmoid_kernel
from .scm_data import Scaler, atomic_write

MODEL_FORMAT_VERSION = 1
_T_TOL = 1e-9
# Rows per network pass. At the default width (d_x=10, hidden 11) a 1024-row
# temporary takes 90 KB, under glibc's 128 KB mmap threshold, so the
# allocator reuses heap chunks. At 2048 rows (180 KB), whether every pass
# page-faulted its temporaries afresh depended on the allocator's history,
# and one cate query took 1.6 s or 2.8 s from one process to the next.
_ROW_BLOCK = 1024
_RES_BLOCKS = 2


@dataclass(frozen=True)
class NetConfig:
    """Architecture settings; hidden_dim=None resolves to d_x + 1."""

    d_x: int
    hidden_dim: int | None = None
    time_encoding: str = "scalar-append"  # or "sinusoidal"
    time_frequencies: int = 4
    init_seed: int = 0

    def __post_init__(self):
        if self.d_x <= 0:
            raise ContractError("d_x must be positive")
        if self.time_encoding not in ("scalar-append", "sinusoidal"):
            raise ContractError(f"unknown time_encoding {self.time_encoding!r}")
        if self.time_encoding == "sinusoidal" and self.time_frequencies < 1:
            raise ContractError("time_frequencies must be at least 1")
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise ContractError("hidden_dim must be at least 1")

    @property
    def hidden(self) -> int:
        return self.hidden_dim if self.hidden_dim is not None else self.d_x + 1

    @property
    def t_dim(self) -> int:
        return 1 if self.time_encoding == "scalar-append" else 2 * self.time_frequencies

    @property
    def cond_dim(self) -> int:
        return self.d_x + 1 + self.t_dim

    def to_dict(self) -> dict:
        return {"d_x": self.d_x, "hidden_dim": self.hidden_dim,
                "n_res_blocks": _RES_BLOCKS, "time_encoding": self.time_encoding,
                "time_frequencies": self.time_frequencies, "init_seed": self.init_seed}

    @classmethod
    def from_dict(cls, d: dict) -> "NetConfig":
        """Inverse of to_dict; ConfigError names an unknown, missing or mistyped key.

        n_res_blocks is not a field. Model files hold it at 2, and one
        without the key loads too.
        """
        d = dict(d)
        blocks = d.pop("n_res_blocks", _RES_BLOCKS)
        if type(blocks) is not int or blocks != _RES_BLOCKS:
            raise ConfigError(f"net_config 'n_res_blocks' must be {_RES_BLOCKS}, got {blocks!r}")
        unknown = sorted(set(d) - set(cls.__dataclass_fields__))
        if unknown:
            raise ConfigError(f"unknown net_config keys {unknown}")
        if "d_x" not in d:
            raise ConfigError("net_config has no 'd_x'")
        for key, value in d.items():
            want = str if key == "time_encoding" else int
            if not ((isinstance(value, want) and not isinstance(value, bool))
                    or (key == "hidden_dim" and value is None)):
                raise ConfigError(f"net_config {key!r} must be {want.__name__}, got {value!r}")
        try:
            return cls(**d)
        except ContractError as exc:
            raise ConfigError(f"net_config: {exc}") from None


def layer_shapes(cfg: NetConfig) -> list[tuple[str, tuple[int, int], bool]]:
    """Ordered (name, shape, is_bias) for every tensor; also the init draw order."""
    h, c = cfg.hidden, cfg.cond_dim
    shapes = [
        ("embed_w", (1, h), False), ("embed_b", (1, h), True),
        ("film_scale_w", (c, h), False), ("film_scale_b", (1, h), True),
        ("film_shift_w", (c, h), False), ("film_shift_b", (1, h), True),
    ]
    for i in range(_RES_BLOCKS):
        for part in ("gate", "value"):
            shapes += [
                (f"block{i}_{part}_w1c", (c, h), False),
                (f"block{i}_{part}_w1h", (h, h), False),
                (f"block{i}_{part}_b1", (1, h), True),
                (f"block{i}_{part}_w2", (h, h), False),
                (f"block{i}_{part}_b2", (1, h), True),
            ]
    shapes += [("proj_w", (h, 2), False), ("proj_b", (1, 2), True)]
    return shapes


def param_count(cfg: NetConfig) -> int:
    return sum(r * c for _, (r, c), _ in layer_shapes(cfg))


@dataclass
class VelocityNet:
    """Config plus named parameter tensors."""

    cfg: NetConfig
    params: dict[str, np.ndarray]

    def copy(self) -> "VelocityNet":
        return VelocityNet(self.cfg, {k: v.copy() for k, v in self.params.items()})


def init(cfg: NetConfig) -> VelocityNet:
    """Seeded uniform(-sqrt(6/(fan_in+fan_out))) weights, zero biases."""
    rng = np.random.default_rng(cfg.init_seed)
    params = {}
    for name, (rows, cols), is_bias in layer_shapes(cfg):
        if is_bias:
            params[name] = np.zeros((rows, cols))
        else:
            limit = np.sqrt(6.0 / (rows + cols))
            params[name] = rng.uniform(-limit, limit, size=(rows, cols))
    return VelocityNet(cfg, params)


def encode_time(ts: np.ndarray, cfg: NetConfig) -> np.ndarray:
    ts = np.asarray(ts, dtype=np.float64)
    if cfg.time_encoding == "scalar-append":
        return ts.reshape(-1, 1)
    cols = []
    for j in range(cfg.time_frequencies):
        freq = (2.0 ** j) * np.pi
        cols += [np.sin(freq * ts), np.cos(freq * ts)]
    return np.stack(cols, axis=1)


def cond_features(x: np.ndarray, a: np.ndarray, ts: np.ndarray, cfg: NetConfig) -> np.ndarray:
    return np.concatenate([x, a.reshape(-1, 1).astype(np.float64),
                           encode_time(ts, cfg)], axis=1)


class _NumpyOps:
    matmul = staticmethod(lambda a, b: a @ b)
    add = staticmethod(lambda a, b: a + b)
    badd = staticmethod(lambda m, bias: m + bias)
    mul = staticmethod(lambda a, b: a * b)
    tanh = staticmethod(np.tanh)
    sigmoid = staticmethod(sigmoid_kernel)

    @staticmethod
    def halve(v):
        return v * 0.5


class TapeOps:
    """numkit-backed twin of the numpy ops; used by the training loss."""

    matmul = staticmethod(nk.matmul)
    add = staticmethod(nk.add)
    badd = staticmethod(nk.badd)
    mul = staticmethod(nk.mul)
    tanh = staticmethod(nk.tanh)
    sigmoid = staticmethod(nk.sigmoid)

    def __init__(self, tape: nk.Tape):
        self.tape = tape

    def halve(self, v):
        return nk.mul(v, self.tape.const(np.full(v.shape, 0.5)))


def _bilinear(op):
    def f(a, b):
        if type(a) is not tuple:
            return op(a, b) if type(b) is not tuple else (op(a, b[0]), op(a, b[1]))
        if type(b) is not tuple:
            return op(a[0], b), op(a[1], b)
        return op(a[0], b[0]), op(a[1], b[0]) + op(a[0], b[1])

    return staticmethod(f)


def _sum(a, b):
    if type(a) is not tuple:
        return a + b if type(b) is not tuple else (a + b[0], b[1])
    if type(b) is not tuple:
        return a[0] + b, a[1]
    return a[0] + b[0], a[1] + b[1]


def _chain(op, slope):
    """Elementwise op whose derivative is slope(output)."""
    def f(u):
        if type(u) is not tuple:
            return op(u)
        out = op(u[0])
        return out, slope(out) * u[1]

    return staticmethod(f)


class DualOps:
    """Forward-mode twin of the numpy ops, carrying d/dy through core_forward.

    A (value, tangent) tuple carries a derivative; a bare array has zero
    tangent, so the parameter and conditioning matmuls stay single. Values
    come from the _NumpyOps expressions, so they match it bit for bit.
    """

    matmul = _bilinear(operator.matmul)
    mul = _bilinear(operator.mul)
    add = badd = staticmethod(_sum)
    tanh = _chain(np.tanh, lambda t: 1.0 - t * t)
    sigmoid = _chain(sigmoid_kernel, lambda s: s - s * s)
    halve = _chain(_NumpyOps.halve, lambda _: 0.5)


def core_forward(ops, p, y_col, c, cfg: NetConfig):
    """Both-arm output (n, 2); p maps names to backend values."""
    h = ops.badd(ops.matmul(y_col, p["embed_w"]), p["embed_b"])
    scale = ops.badd(ops.matmul(c, p["film_scale_w"]), p["film_scale_b"])
    shift = ops.badd(ops.matmul(c, p["film_shift_w"]), p["film_shift_b"])
    h = ops.add(ops.mul(scale, h), shift)
    for i in range(_RES_BLOCKS):
        pre_g = ops.tanh(ops.badd(
            ops.add(ops.matmul(c, p[f"block{i}_gate_w1c"]),
                    ops.matmul(h, p[f"block{i}_gate_w1h"])),
            p[f"block{i}_gate_b1"]))
        g = ops.sigmoid(ops.badd(ops.matmul(pre_g, p[f"block{i}_gate_w2"]),
                                 p[f"block{i}_gate_b2"]))
        pre_v = ops.tanh(ops.badd(
            ops.add(ops.matmul(c, p[f"block{i}_value_w1c"]),
                    ops.matmul(h, p[f"block{i}_value_w1h"])),
            p[f"block{i}_value_b1"]))
        v = ops.badd(ops.matmul(pre_v, p[f"block{i}_value_w2"]),
                     p[f"block{i}_value_b2"])
        h = ops.halve(ops.add(h, ops.mul(g, v)))
    return ops.badd(ops.matmul(h, p["proj_w"]), p["proj_b"])


def _check_cond(net: VelocityNet, n: int, x, a) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = np.broadcast_to(x, (n, x.shape[0]))
    if x.shape != (n, net.cfg.d_x):
        raise DimensionError(
            f"forward: x has shape {x.shape}, expected ({n}, {net.cfg.d_x})")
    a = np.broadcast_to(np.asarray(a), (n,))
    if n and not ((a == 0) | (a == 1)).all():
        raise ContractError("treatment must be 0 or 1")
    return x, a


def _blocks(net: VelocityNet, ys: np.ndarray, c: np.ndarray, arm1: np.ndarray, tangent: bool):
    """Selected-arm velocity, and with tangent also its forward-mode dv/dy.

    Rows pass through the network in blocks of _ROW_BLOCK. Rows are
    independent, so the result equals one pass over all rows bit for bit,
    while temporaries stay cache-sized however many rows a call carries.
    """
    v = np.empty(ys.shape[0])
    dv = np.empty(ys.shape[0]) if tangent else None
    for lo in range(0, ys.shape[0], _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        y_col = ys[rows].reshape(-1, 1)
        if tangent:
            both, dboth = core_forward(DualOps, net.params, (y_col, np.ones_like(y_col)),
                                       c[rows], net.cfg)
            dv[rows] = np.where(arm1[rows], dboth[:, 1], dboth[:, 0])
        else:
            both = core_forward(_NumpyOps, net.params, y_col, c[rows], net.cfg)
        v[rows] = np.where(arm1[rows], both[:, 1], both[:, 0])
    return (v, dv) if tangent else v


def forward_batch(net: VelocityNet, ys, ts, x, a, tangent: bool = False):
    """Velocity of the selected arm for each row, after checking every input.

    With tangent, returns (v, dv/dy), the derivative taken by forward mode.
    """
    ys = np.asarray(ys, dtype=np.float64).reshape(-1)
    n = ys.shape[0]
    x, a = _check_cond(net, n, x, a)
    ts = np.broadcast_to(np.asarray(ts, dtype=np.float64), (n,))
    if n and (ts.min() < -_T_TOL or ts.max() > 1.0 + _T_TOL):
        raise ContractError(f"t outside [0, 1]: range [{ts.min()}, {ts.max()}]")
    c = cond_features(x, a, np.clip(ts, 0.0, 1.0), net.cfg)
    return _blocks(net, ys, c, a == 1, tangent)


def evaluator(net: VelocityNet, n: int, x, a, tangent: bool = False):
    """Evaluator f(ys, t) over n rows with fixed conditioning (x, a).

    (x, a) are checked and the conditioning matrix is built once; each call
    only writes its time into the time columns. f(ys, t) equals
    forward_batch(net, ys, full(n, t), x, a, tangent) bit for bit.
    """
    x, a = _check_cond(net, n, x, a)
    c = cond_features(x, a, np.zeros(n), net.cfg)
    arm1 = a == 1

    def f(ys, t):
        if not -_T_TOL <= t <= 1.0 + _T_TOL:
            raise ContractError(f"t outside [0, 1]: {t}")
        c[:, net.cfg.d_x + 1:] = encode_time(np.array([min(max(t, 0.0), 1.0)]), net.cfg)
        return _blocks(net, ys, c, arm1, tangent)

    return f


@dataclass
class FlowModel:
    """Trained bundle: velocity net, the scaler its data used, run metadata."""

    net: VelocityNet
    scaler: Scaler
    train_meta: dict = field(default_factory=dict)

    @property
    def cfg(self) -> NetConfig:
        return self.net.cfg


def save_model(model: FlowModel, path) -> None:
    """Versioned JSON document; decimal values round-trip exactly."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "net_config": model.cfg.to_dict(),
        "params": {
            name: {"shape": list(t.shape), "data": t.reshape(-1).tolist()}
            for name, t in model.net.params.items()
        },
        "scaler": model.scaler.to_dict(),
        "train_meta": model.train_meta,
    }
    with atomic_write(path) as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path) -> FlowModel:
    """Inverse of save_model; any malformed document raises ConfigError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not a valid model file: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: not a valid model file: expected a JSON object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ConfigError(f"{path}: unsupported format_version {version!r}")
    for key in ("net_config", "params"):
        if not isinstance(doc.get(key), dict):
            raise ConfigError(f"{path}: missing or malformed {key!r}: expected a JSON object")
    try:
        cfg = NetConfig.from_dict(doc["net_config"])
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    params = {}
    for name, (rows, cols), _ in layer_shapes(cfg):
        entry = doc["params"].get(name)
        if entry is None:
            raise ConfigError(f"{path}: missing parameter tensor {name!r}")
        try:
            shape = tuple(entry["shape"])
            data = np.asarray(entry["data"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: tensor {name!r} is malformed: {exc!r}") from None
        if shape != (rows, cols):
            raise ConfigError(
                f"{path}: tensor {name!r} has shape {entry['shape']}, expected {(rows, cols)}")
        if data.size != rows * cols:
            raise ConfigError(f"{path}: tensor {name!r} has {data.size} values, "
                              f"expected {rows * cols}")
        if not np.all(np.isfinite(data)):
            raise ConfigError(f"{path}: tensor {name!r} holds non-finite values")
        params[name] = data.reshape(rows, cols)
    try:
        scaler = Scaler.from_dict(doc["scaler"]) if doc.get("scaler") else Scaler.identity(cfg.d_x)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: scaler is malformed: {exc!r}") from None
    if not len(scaler.x_mean) == len(scaler.x_sd) == cfg.d_x:
        raise ConfigError(f"{path}: scaler has {len(scaler.x_mean)} means and "
                          f"{len(scaler.x_sd)} sds, expected {cfg.d_x} of each")
    sds = (*scaler.x_sd, scaler.y_sd)
    if not np.all(np.isfinite((*scaler.x_mean, scaler.y_mean, *sds))) or min(sds) <= 0.0:
        raise ConfigError(f"{path}: scaler needs finite means and positive finite sds")
    return FlowModel(VelocityNet(cfg, params), scaler, doc.get("train_meta", {}))
