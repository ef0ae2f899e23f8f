"""Conditional velocity field for the outcome flow, plus model-file I/O.

The net maps (y, t, x, a) to a scalar velocity. The outcome is embedded,
modulated by feature-wise scale/shift computed from the conditioning vector
c = concat(x, a, enc(t)), passed through two gated residual blocks, and
projected to one head per treatment arm. core_forward is the one definition
of that recipe, and it runs on three ops backends: plain numpy for
inference, numpy with forward-mode tangents (DualOps) for the exact dv/dy
of log-densities, and the reverse-mode numkit.Tape for training. All three
produce identical velocities. core_forward is head over cond_projections,
the part that depends on (x, a, t) alone, so an integration's evaluator
computes that part once per stage time.
"""

from __future__ import annotations

import json
import operator
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, DimensionError
from .numkit import sigmoid_kernel
from .scm_data import Scaler, check_array_bytes, check_treatment, write_json

MODEL_FORMAT_VERSION = 1
_T_TOL = 1e-9
# Rows per network pass (block_rows): at most _ROW_BLOCK, and fewer when the
# widest (rows, max(hidden, cond_dim)) temporary would pass _PASS_BYTES,
# glibc's 128 KB mmap threshold, under which the allocator reuses heap
# chunks. At the default width (d_x=10, 12 columns) 1024 rows take 96 KB.
# At 2048 rows (180 KB), whether every pass page-faulted its temporaries
# afresh depended on the allocator's history, and one cate query took 1.6 s
# or 2.8 s from one process to the next.
_ROW_BLOCK = 1024
_PASS_BYTES = 128 * 1024
_RES_BLOCKS = 2
# Sinusoidal time columns run at 2^j * pi for j < time_frequencies. Past about
# 2^54 * pi, neighbouring float64 times near t = 0.5 fall more than a period
# apart, so such a column says nothing about t.
MAX_TIME_FREQUENCIES = 52


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
        if not 1 <= self.time_frequencies <= MAX_TIME_FREQUENCIES:
            raise ContractError(f"time_frequencies must be in [1, {MAX_TIME_FREQUENCIES}], "
                                f"got {self.time_frequencies}")
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise ContractError("hidden_dim must be at least 1")
        if self.init_seed < 0:
            raise ContractError(f"init_seed must be non-negative, got {self.init_seed}")
        check_array_bytes("param_count of hidden_dim, d_x and time_frequencies",
                          param_count(self))

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
        return {**asdict(self), "n_res_blocks": _RES_BLOCKS}

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
    matmul = operator.matmul
    add = badd = operator.add
    mul = operator.mul
    tanh = np.tanh
    sigmoid = staticmethod(sigmoid_kernel)

    @staticmethod
    def halve(v):
        return v * 0.5


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


# per residual block, the (w1c, w1h, b1, w2, b2) names of its gate and of its value
_BLOCK_NAMES = tuple(tuple(tuple(f"block{i}_{part}_{k}" for k in ("w1c", "w1h", "b1", "w2", "b2"))
                           for part in ("gate", "value"))
                     for i in range(_RES_BLOCKS))
_BIAS_NAMES = tuple(name for name, _, is_bias in layer_shapes(NetConfig(d_x=1)) if is_bias)


def cond_projections(ops, p, c):
    """The six products of the conditioning matrix c that core_forward uses.

    Returns the FiLM scale and shift, biases added, and per residual block
    the c-projections of its gate and of its value. They depend on (x, a, t)
    alone, not on y.
    """
    scale = ops.badd(ops.matmul(c, p["film_scale_w"]), p["film_scale_b"])
    shift = ops.badd(ops.matmul(c, p["film_shift_w"]), p["film_shift_b"])
    return scale, shift, [(ops.matmul(c, p[gate[0]]), ops.matmul(c, p[value[0]]))
                          for gate, value in _BLOCK_NAMES]


def head(ops, p, y_col, proj):
    """Both-arm output (n, 2) from y and the cond_projections of its rows."""
    scale, shift, block_c = proj
    h = ops.badd(ops.matmul(y_col, p["embed_w"]), p["embed_b"])
    h = ops.add(ops.mul(scale, h), shift)
    for (gate_c, value_c), (gate, value) in zip(block_c, _BLOCK_NAMES):
        pre_g = ops.tanh(ops.badd(ops.add(gate_c, ops.matmul(h, p[gate[1]])), p[gate[2]]))
        g = ops.sigmoid(ops.badd(ops.matmul(pre_g, p[gate[3]]), p[gate[4]]))
        pre_v = ops.tanh(ops.badd(ops.add(value_c, ops.matmul(h, p[value[1]])), p[value[2]]))
        v = ops.badd(ops.matmul(pre_v, p[value[3]]), p[value[4]])
        h = ops.halve(ops.add(h, ops.mul(g, v)))
    return ops.badd(ops.matmul(h, p["proj_w"]), p["proj_b"])


def core_forward(ops, p, y_col, c, cfg: NetConfig):
    """Both-arm output (n, 2); p maps names to backend values."""
    return head(ops, p, y_col, cond_projections(ops, p, c))


def block_rows(cfg: NetConfig) -> int:
    """Rows per network pass: _ROW_BLOCK, or fewer so the widest temporary fits _PASS_BYTES."""
    return max(1, min(_ROW_BLOCK, _PASS_BYTES // (8 * max(cfg.hidden, cfg.cond_dim))))


def _arm(both: np.ndarray, arm1: np.ndarray) -> np.ndarray:
    """The selected arm's column of a both-arm output."""
    return np.where(arm1, both[:, 1], both[:, 0])


def forward_batch(net: VelocityNet, ys, ts, x, a) -> np.ndarray:
    """Velocity of the selected arm for each row, after checking every input.

    Rows pass through the network in blocks of block_rows. Rows are
    independent, so the result equals one pass over all rows bit for bit.
    """
    ys = np.asarray(ys, dtype=np.float64).reshape(-1)
    n = ys.shape[0]
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = np.broadcast_to(x, (n, x.shape[0]))
    if x.shape != (n, net.cfg.d_x):
        raise DimensionError(f"forward: x has shape {x.shape}, expected ({n}, {net.cfg.d_x})")
    a = check_treatment(a, n)
    ts = np.asarray(ts, dtype=np.float64)
    try:
        ts = np.broadcast_to(ts, (n,))
    except ValueError:
        raise DimensionError(f"forward: t has shape {ts.shape}, expected ({n},)") from None
    if n and (ts.min() < -_T_TOL or ts.max() > 1.0 + _T_TOL):
        raise ContractError(f"t outside [0, 1]: range [{ts.min()}, {ts.max()}]")
    c = cond_features(x, a, np.clip(ts, 0.0, 1.0), net.cfg)
    v = np.empty(n)
    step = block_rows(net.cfg)
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        v[rows] = _arm(core_forward(_NumpyOps, net.params, ys[rows].reshape(-1, 1), c[rows],
                                    net.cfg), a[rows] == 1)
    return v


def _block_evaluator(net: VelocityNet, x: np.ndarray, a: np.ndarray, tangent: bool):
    """f(ys, t) on one block of rows; see block_evaluators.

    The block's conditioning matrix and its biases, repeated to one row
    each, are built once, so every bias add is a same-shape add. The
    conditioning projections are recomputed only when t changes: the two
    middle RK4 stages share a time, and on a grid of exact floats a step's
    last stage time is the next step's first.
    """
    n, cfg = x.shape[0], net.cfg
    c = cond_features(x, a, np.zeros(n), cfg)
    p = dict(net.params)
    for name in _BIAS_NAMES:
        p[name] = np.repeat(p[name], n, axis=0)
    arm1 = a == 1
    ones = np.ones((n, 1))
    last_t, proj = None, None

    def f(ys, t):
        nonlocal last_t, proj
        if not -_T_TOL <= t <= 1.0 + _T_TOL:
            raise ContractError(f"t outside [0, 1]: {t}")
        t = min(max(t, 0.0), 1.0)
        if t != last_t:
            c[:, cfg.d_x + 1:] = encode_time(np.array([t]), cfg)
            proj, last_t = cond_projections(_NumpyOps, p, c), t
        y_col = ys.reshape(-1, 1)
        if not tangent:
            return _arm(head(_NumpyOps, p, y_col, proj), arm1)
        both, dboth = head(DualOps, p, (y_col, ones), proj)
        return _arm(both, arm1), _arm(dboth, arm1)

    return f


def block_evaluators(net: VelocityNet, x: np.ndarray, a: np.ndarray, tangent: bool = False):
    """(rows, f) for each block of block_rows rows of x, float64 (n, d_x), and a, int64 (n,).

    x and a are not checked here: causal_api and CausalDataset check them.
    f(ys, t) is the selected arm's velocity on the block's rows at the one
    time t, and with tangent the pair (v, dv/dy), the derivative taken by
    forward mode. Each block is built as it is drawn, so a caller that
    finishes one block before drawing the next holds at most two blocks'
    state however many rows it carries.
    """
    step = block_rows(net.cfg)
    return ((slice(lo, lo + step),
             _block_evaluator(net, x[lo:lo + step], a[lo:lo + step], tangent))
            for lo in range(0, x.shape[0], step))


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
    write_json(doc, path)


def load_model(path) -> FlowModel:
    """Inverse of save_model; any malformed document raises ConfigError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, a long int, deep nesting
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
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
        scaler = Scaler.from_dict(doc["scaler"]) if "scaler" in doc else Scaler.identity(cfg.d_x)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: scaler is malformed: {exc!r}") from None
    if not len(scaler.x_mean) == len(scaler.x_sd) == cfg.d_x:
        raise ConfigError(f"{path}: scaler has {len(scaler.x_mean)} means and "
                          f"{len(scaler.x_sd)} sds, expected {cfg.d_x} of each")
    sds = (*scaler.x_sd, scaler.y_sd)
    if not np.all(np.isfinite((*scaler.x_mean, scaler.y_mean, *sds))) or min(sds) <= 0.0:
        raise ConfigError(f"{path}: scaler needs finite means and positive finite sds")
    return FlowModel(VelocityNet(cfg, params), scaler, doc.get("train_meta", {}))
