"""Synthetic causal benchmark data: generation, CSV I/O, splits, scaling.

The generator draws standard-normal covariates and produces outcomes from
two structural arms sharing one additive noise draw per row, so every row
carries its exact counterfactual alongside the factual outcome.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, GenerationError, NumericError, SchemaError
from .numkit import sigmoid_kernel

PROPENSITY_CLIP = (0.01, 0.99)
SD_FLOOR = 1e-12
# The largest float64 array that a configured size may imply: 1 GiB. The
# generator's n * d_x, training's batch_size times the net width and the
# net's parameter count are checked against it before anything is allocated.
MAX_ARRAY_BYTES = 1 << 30


def check_array_bytes(what: str, count: int) -> None:
    """ContractError naming what when count float64 values exceed MAX_ARRAY_BYTES."""
    if 8 * count > MAX_ARRAY_BYTES:
        raise ContractError(f"{what} = {count} values ({8 * count} bytes) exceeds the "
                            f"{MAX_ARRAY_BYTES}-byte array cap")


@dataclass(frozen=True)
class DgpConfig:
    """Benchmark generator settings; beta and w_shift have d_x entries."""

    n: int
    d_x: int
    beta: tuple[float, ...]
    omega: float
    w_shift: tuple[float, ...]
    noise_sd: float = 1.0
    propensity: str = "balanced"  # "balanced" or "logistic"
    propensity_coef: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n <= 0 or self.d_x <= 0:
            raise ContractError("n and d_x must be positive")
        check_array_bytes("n * d_x", self.n * self.d_x)
        if len(self.beta) != self.d_x or len(self.w_shift) != self.d_x:
            raise ContractError("beta and w_shift must have d_x entries")
        if not 0.0 <= self.noise_sd < np.inf:
            raise ContractError(f"noise_sd must be finite and non-negative, got {self.noise_sd}")
        for key in ("omega", "beta", "w_shift", "propensity_coef"):
            value = getattr(self, key)
            if value is not None and not np.all(np.isfinite(value)):
                raise ContractError(f"{key} must be finite, got {value}")
        if self.seed < 0:
            raise ContractError(f"seed must be non-negative, got {self.seed}")
        if self.propensity not in ("balanced", "logistic"):
            raise ContractError(f"unknown propensity {self.propensity!r}")
        if self.propensity == "logistic":
            if self.propensity_coef is None or len(self.propensity_coef) != self.d_x:
                raise ContractError("logistic propensity needs d_x coefficients")


def default_config(n: int = 1000, d_x: int = 10, seed: int = 0, **over) -> DgpConfig:
    """Nonlinear response-surface benchmark with a cycling coefficient pattern.

    A one-value beta or w_shift in over repeats d_x times.
    """
    check_array_bytes("n * d_x", n * d_x)  # before any d_x-long tuple is built
    beta = tuple(0.1 * (i % 5) for i in range(d_x))
    kwargs = dict(n=n, d_x=d_x, beta=beta, omega=1.0,
                  w_shift=(0.5,) * d_x, noise_sd=1.0, seed=seed)
    kwargs.update(over)
    for key in ("beta", "w_shift"):
        if len(kwargs[key]) == 1:
            kwargs[key] = tuple(kwargs[key]) * d_x
    return DgpConfig(**kwargs)


def check_treatment(a, n: int) -> np.ndarray:
    """a as n int64 values; DimensionError for a bad shape, ContractError unless each is 0 or 1."""
    a = np.asarray(a)
    try:
        a = np.broadcast_to(a, (n,))
    except ValueError:
        raise DimensionError(f"a has shape {a.shape}, expected ({n},)") from None
    if not np.all((a == 0) | (a == 1)):  # before the cast, which would turn 0.5 into 0
        raise ContractError("treatment must be 0 or 1")
    return a.astype(np.int64)


@dataclass
class CausalDataset:
    """Rows of (covariates, binary treatment, outcome) plus optional truth columns."""

    x: np.ndarray
    a: np.ndarray
    y: np.ndarray
    mu0: np.ndarray | None = None
    mu1: np.ndarray | None = None
    ycf: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.a = np.asarray(self.a)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.x.ndim != 2:
            raise ContractError("x must be 2-D")
        n = self.x.shape[0]
        if self.a.shape != (n,) or self.y.shape != (n,):
            raise ContractError("a and y must be length-n vectors")
        self.a = check_treatment(self.a, n)
        for field_name in ("mu0", "mu1", "ycf"):
            col = getattr(self, field_name)
            if col is not None:
                col = np.asarray(col, dtype=np.float64)
                if col.shape != (n,):
                    raise ContractError(f"{field_name} must be a length-n vector")
                setattr(self, field_name, col)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d_x(self) -> int:
        return self.x.shape[1]

    def take(self, idx: np.ndarray) -> "CausalDataset":
        pick = lambda col: None if col is None else col[idx]
        return CausalDataset(self.x[idx], self.a[idx], self.y[idx],
                             mu0=pick(self.mu0), mu1=pick(self.mu1), ycf=pick(self.ycf))


def structural_mean(cfg: DgpConfig, x: np.ndarray, a) -> np.ndarray:
    """Noise-free outcome of arm a: treated is linear, control is exponential."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    beta = np.asarray(cfg.beta)
    a = np.broadcast_to(np.asarray(a), (x.shape[0],))
    f1 = x @ beta - cfg.omega
    with np.errstate(over="ignore"):
        f0 = np.exp((x + np.asarray(cfg.w_shift)) @ beta)
    out = np.where(a == 1, f1, f0)
    if not np.all(np.isfinite(out)):
        bad = int(np.flatnonzero(~np.isfinite(out))[0])
        raise GenerationError(f"structural mean overflow at row {bad}")
    return out


def generate_ihdp_like(cfg: DgpConfig) -> CausalDataset:
    """Draw a dataset from cfg; bit-identical for identical (cfg, seed)."""
    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal((cfg.n, cfg.d_x))
    if cfg.propensity == "balanced":
        a = rng.integers(0, 2, size=cfg.n)
    else:
        p = sigmoid_kernel(x @ np.asarray(cfg.propensity_coef))
        p = np.clip(p, *PROPENSITY_CLIP)
        a = (rng.random(cfg.n) < p).astype(np.int64)
    eps = cfg.noise_sd * rng.standard_normal(cfg.n)
    mu1 = structural_mean(cfg, x, 1)
    mu0 = structural_mean(cfg, x, 0)
    y = np.where(a == 1, mu1, mu0) + eps
    ycf = np.where(a == 1, mu0, mu1) + eps
    return CausalDataset(x, a, y, mu0=mu0, mu1=mu1, ycf=ycf)


def fmt_float(v: float) -> str:
    return repr(float(v))


@contextmanager
def atomic_write(path):
    """Text handle on a temp file next to path; os.replace moves it over path on success.

    If the body raises, path keeps its previous bytes and the temp file is removed.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with suppress(OSError):  # gone already after a successful replace
            os.remove(tmp)


def write_json(doc, path) -> None:
    """doc as JSON with sorted keys, one-space indent and a final newline, written atomically.

    A nan or inf, which JSON cannot hold, raises NumericError and leaves path as it was.
    """
    try:
        with atomic_write(path) as fh:
            json.dump(doc, fh, indent=1, sort_keys=True, allow_nan=False)
            fh.write("\n")
    except ValueError as exc:
        raise NumericError(f"{path}: {exc}") from None


def write_csv(ds: CausalDataset, path) -> None:
    """Write the dataset with full-precision decimals; exact on reload."""
    cols = [f"x{i}" for i in range(ds.d_x)] + ["a", "y"]
    extras = [name for name in ("mu0", "mu1", "ycf") if getattr(ds, name) is not None]
    with atomic_write(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(cols + extras)
        for i in range(ds.n):
            row = [fmt_float(v) for v in ds.x[i]] + [str(int(ds.a[i])), fmt_float(ds.y[i])]
            row += [fmt_float(getattr(ds, name)[i]) for name in extras]
            w.writerow(row)


def load_csv(path) -> CausalDataset:
    """Parse a dataset CSV.

    The header must contain x0..x{d-1}, a, y; mu0/mu1/ycf are optional.
    Raises SchemaError for header problems, for a wrong field count, a
    non-numeric cell or a treatment other than 0/1 (naming the 1-based data
    row), for nan/inf cells (naming the row and the column), and for a file
    that is not UTF-8 text or not CSV. A leading UTF-8 byte-order mark, as
    spreadsheet programs write it, is skipped.
    """
    try:
        with open(path, "r", newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise SchemaError(f"{path}: not a readable CSV: {exc}") from None
    if header is None:
        raise SchemaError(f"{path}: empty file")

    header = [h.strip() for h in header]
    x_cols = sorted((h for h in header if h.startswith("x") and h[1:].isdecimal()),
                    key=lambda h: int(h[1:]))
    d = len(x_cols)
    if d == 0 or x_cols != [f"x{i}" for i in range(d)]:
        raise SchemaError(f"{path}: covariate columns must be x0..x{{d-1}}, got {x_cols}")
    for required in ("a", "y"):
        if required not in header:
            raise SchemaError(f"{path}: missing mandatory column {required!r}")
    idx = {h: k for k, h in enumerate(header)}

    n = len(rows)
    x = np.empty((n, d))
    a = np.empty(n, dtype=np.int64)
    y = np.empty(n)
    extras = {name: np.empty(n) for name in ("mu0", "mu1", "ycf") if name in idx}
    for r, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise SchemaError(f"{path}: row {r} has {len(row)} fields, expected {len(header)}")
        try:
            for j, col in enumerate(x_cols):
                x[r - 1, j] = float(row[idx[col]])
            y[r - 1] = float(row[idx["y"]])
            for name, arr in extras.items():
                arr[r - 1] = float(row[idx[name]])
            a_val = float(row[idx["a"]])
        except ValueError as exc:
            raise SchemaError(f"{path}: row {r}: {exc}") from None
        if a_val not in (0.0, 1.0):
            raise SchemaError(f"{path}: row {r}: treatment must be 0 or 1, got {row[idx['a']]}")
        a[r - 1] = int(a_val)
    names = x_cols + ["y"] + list(extras)
    bad = np.argwhere(~np.isfinite(np.column_stack([x, y, *extras.values()])))
    if bad.size:
        r, j = bad[0]
        raise SchemaError(f"{path}: row {r + 1}, column {names[j]!r}: "
                          f"non-finite value {rows[r][idx[names[j]]]!r}")
    return CausalDataset(x, a, y, **extras)


def split(ds: CausalDataset, test_fraction: float, seed: int) -> tuple[CausalDataset, CausalDataset]:
    """Deterministic disjoint train/test split; row order preserved within each side."""
    if not 0.0 < test_fraction < 1.0:
        raise ContractError("test_fraction must lie in (0, 1)")
    n_test = int(round(ds.n * test_fraction))
    if n_test == 0 or n_test == ds.n:
        raise ContractError(f"split of {ds.n} rows at {test_fraction} leaves one side empty")
    perm = np.random.default_rng(seed).permutation(ds.n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return ds.take(train_idx), ds.take(test_idx)


@dataclass(frozen=True)
class Scaler:
    """Invertible per-column affine map fitted by standardize."""

    x_mean: tuple[float, ...]
    x_sd: tuple[float, ...]
    y_mean: float
    y_sd: float

    @classmethod
    def identity(cls, d_x: int) -> "Scaler":
        return cls((0.0,) * d_x, (1.0,) * d_x, 0.0, 1.0)

    def transform_x(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - np.asarray(self.x_mean)) / np.asarray(self.x_sd)

    def transform_y(self, y):
        return (np.asarray(y, dtype=np.float64) - self.y_mean) / self.y_sd

    def inverse_y(self, y):
        return np.asarray(y, dtype=np.float64) * self.y_sd + self.y_mean

    def to_dict(self) -> dict:
        return {"x_mean": list(self.x_mean), "x_sd": list(self.x_sd),
                "y_mean": self.y_mean, "y_sd": self.y_sd}

    @classmethod
    def from_dict(cls, d: dict) -> "Scaler":
        return cls(tuple(map(float, d["x_mean"])), tuple(map(float, d["x_sd"])),
                   float(d["y_mean"]), float(d["y_sd"]))


def _column_stats(col: np.ndarray) -> tuple[float, float]:
    sd = float(np.std(col))  # population sd: divide by n
    if sd < SD_FLOOR:
        return 0.0, 1.0  # constant column stays untouched
    return float(np.mean(col)), sd


def standardize(ds: CausalDataset) -> tuple[CausalDataset, Scaler]:
    """Map covariates and outcome to zero mean, unit population variance.

    mu0/mu1/ycf share y's affine map so generator identities survive scaling.
    """
    stats = [_column_stats(ds.x[:, j]) for j in range(ds.d_x)]
    y_mean, y_sd = _column_stats(ds.y)
    scaler = Scaler(tuple(m for m, _ in stats), tuple(s for _, s in stats), y_mean, y_sd)
    out = CausalDataset(
        scaler.transform_x(ds.x), ds.a.copy(), scaler.transform_y(ds.y),
        mu0=None if ds.mu0 is None else scaler.transform_y(ds.mu0),
        mu1=None if ds.mu1 is None else scaler.transform_y(ds.mu1),
        ycf=None if ds.ycf is None else scaler.transform_y(ds.ycf))
    return out, scaler
