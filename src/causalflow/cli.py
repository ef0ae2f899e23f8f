"""Command line front end: generate, train, predict, eval, a3test.

Config files are flat key=value text (hash comments allowed). Once a command
succeeds, main writes <out>.manifest.json recording the command line,
seeds, config paths, input/output digests and wall time; the
artifacts themselves are byte-reproducible, the manifest is not (it holds
the wall time). Every file is written through scm_data.atomic_write, so a
failed run leaves the previous file in place.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from typing import NamedTuple

import numpy as np

from . import __version__
from . import causal_api as api
from . import metrics as mt
from .cfm_train import TrainConfig, check_batch_bytes, train
from .errors import ConfigError, ContractError, NumericError
from .ode_engine import OdeConfig
from .scm_data import (DgpConfig, atomic_write, default_config, fmt_float,
                       generate_ihdp_like, load_csv, standardize, write_csv, write_json)
from .velocity_net import FlowModel, NetConfig, load_model, save_model


# ---------------------------------------------------------------- config io

def read_kv_config(path) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno} is not key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}: line {lineno} has an empty key")
        if key in out:
            raise ConfigError(f"{path}: duplicate key {key!r}")
        out[key] = value
    return out


def _parse_num(key: str, raw: str, cast):
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _parse_floats(key: str, raw: str) -> tuple[float, ...]:
    return tuple(_parse_num(key, part.strip(), float)
                 for part in raw.split(","))


def _parse_field(kind: str, key: str, raw: str):
    """One value by its dataclass annotation: str, float tuple, int (or int | None), float."""
    if kind == "str":
        return raw
    if kind.startswith("tuple"):
        return _parse_floats(key, raw)
    return _parse_num(key, raw, int if kind.startswith("int") else float)


def _typed_fields(cls, path, label: str, reserved=()) -> dict:
    """A key=value file's values, each parsed by the annotation of cls's field of that name.

    Keys in reserved, which the caller sets, may not appear in the file.
    """
    kv = read_kv_config(path) if path else {}
    kinds = {k: f.type for k, f in cls.__dataclass_fields__.items() if k not in reserved}
    unknown = set(kv) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown {label} keys: {sorted(unknown)}")
    return {key: _parse_field(kinds[key], key, raw) for key, raw in kv.items()}


def _construct(path, make, kwargs: dict):
    """make(**kwargs); a ContractError becomes a ConfigError that names the file."""
    try:
        return make(**kwargs)
    except ContractError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def dgp_config_from_file(path, seed_override=None) -> DgpConfig:
    """Generator settings. One beta or w_shift value repeats d_x times; propensity is
    balanced or logistic:c0,c1,..."""
    kw = _typed_fields(DgpConfig, path, "generator", reserved=("propensity_coef",))
    if seed_override is not None:
        kw["seed"] = seed_override
    raw = kw.get("propensity", "balanced")
    if raw.startswith("logistic:"):
        kw.update(propensity="logistic", propensity_coef=_parse_floats("propensity", raw[9:]))
    elif raw != "balanced":
        raise ConfigError(f"propensity: expected balanced or logistic:c0,c1/..., got {raw!r}")
    return _construct(path, default_config, kw)


def train_config_from_file(path, seed_override=None) -> TrainConfig:
    kw = _typed_fields(TrainConfig, path, "training")
    if seed_override is not None:
        kw["seed"] = seed_override
    return _construct(path, TrainConfig, kw)


def net_config_from_file(path, d_x: int) -> NetConfig:
    kw = _typed_fields(NetConfig, path, "net", reserved=("d_x",))
    return _construct(path, NetConfig, {**kw, "d_x": d_x})


def _fit_configs(args, d_x: int) -> tuple[TrainConfig, NetConfig]:
    """--train-config and --net-config; a batch past the byte cap names the training file."""
    train_cfg = train_config_from_file(args.train_config, args.seed)
    net_cfg = net_config_from_file(args.net_config, d_x)
    _construct(args.train_config, check_batch_bytes, {"train_cfg": train_cfg, "net_cfg": net_cfg})
    return train_cfg, net_cfg


# ---------------------------------------------------------------- manifests

class Run(NamedTuple):
    """What a command did: the summary line it prints and what its manifest records."""

    summary: str
    seeds: dict
    inputs: list
    outputs: list  # outputs[0] is --out, the file the manifest is named after
    config_paths: dict = {}


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(command: str, argv: list[str], run: Run, wall_time_s: float) -> None:
    write_json({
        "command": command,
        "argv": argv,
        "config_paths": {k: str(v) for k, v in run.config_paths.items() if v},
        "seeds": run.seeds,
        "inputs": {str(p): _sha256(p) for p in run.inputs},
        "outputs": {str(p): _sha256(p) for p in run.outputs},
        "tool_version": __version__,
        "wall_time_s": wall_time_s,
    }, f"{run.outputs[0]}.manifest.json")


# ----------------------------------------------------------------- commands

def cmd_generate(args) -> Run:
    cfg = dgp_config_from_file(args.config, args.seed)
    ds = generate_ihdp_like(cfg)
    write_csv(ds, args.out)
    return Run(f"wrote {ds.n} rows (d_x={ds.d_x}) to {args.out}", {"dgp_seed": cfg.seed},
               [], [args.out], {"config": args.config})


def _loss_csv_path(model_path: str) -> str:
    stem = model_path[:-5] if model_path.endswith(".json") else model_path
    return stem + ".loss.csv"


def cmd_train(args) -> Run:
    ds = load_csv(args.data)
    train_cfg, net_cfg = _fit_configs(args, ds.d_x)
    std_ds, scaler = standardize(ds)
    net, report = train(std_ds, net_cfg, train_cfg)
    model = FlowModel(net=net, scaler=scaler, train_meta={
        "final_loss": report.final_loss,
        "iters_run": report.iters_run,
        "n_rows": ds.n,
        "train_config": train_cfg.to_dict(),
    })
    save_model(model, args.out)
    loss_path = _loss_csv_path(args.out)
    with atomic_write(loss_path) as fh:
        fh.write("iter,loss\n")
        for it, loss in report.loss_history:
            fh.write(f"{it},{fmt_float(loss)}\n")
    return Run(f"trained {report.iters_run} iters, final loss {report.final_loss:.6f}, "
               f"model at {args.out}", {"train_seed": train_cfg.seed}, [args.data],
               [args.out, loss_path],
               {"train_config": args.train_config, "net_config": args.net_config})


def cmd_predict(args) -> Run:
    model = load_model(args.model)
    ds = load_csv(args.data)
    ode_cfg = OdeConfig(n_steps=args.n_steps)
    mode, rows = args.mode, np.arange(ds.n)
    if mode == "po":  # n_samples lines per row
        cols = api.sample_po_batch(model, ds.x, ds.a, args.n_samples, ode_cfg, args.seed)
        rows = np.repeat(rows, args.n_samples)
    elif mode == "cf":
        cols = [api.predict_counterfactual_batch(model, ds.y, ds.x, ds.a, ode_cfg)]
    elif mode == "cate":
        cols = [api.estimate_cate(model, ds.x, ode_cfg)]
    elif mode == "map":
        cols = [api.map_po_batch(model, ds.x, ds.a, ode_cfg)]
    else:  # density
        cols = [ds.y, api.log_density_batch(model, ds.y, ds.x, ds.a, ode_cfg)]
    lines = ["row,mode,value" + ",logp" * (len(cols) - 1)]
    lines += map(",".join, zip((f"{i},{mode}" for i in rows.tolist()),
                               *(map(fmt_float, np.ravel(c).tolist()) for c in cols)))
    with atomic_write(args.out) as fh:
        fh.write("\n".join(lines) + "\n")
    seeds = {"seed": args.seed} if mode == "po" else {}  # only po draws noise
    return Run(f"wrote {len(lines) - 1} {mode} rows to {args.out}", seeds,
               [args.model, args.data], [args.out])


def _eval_once(model, tr, te, args) -> dict:
    return mt.evaluate_all(model, tr, te, OdeConfig(n_steps=args.n_steps),
                           seed=args.seed, max_rows=args.max_rows,
                           noise_sd=args.noise_sd)


def cmd_eval(args) -> Run:
    if args.folds is not None:
        if args.folds < 2:
            raise ConfigError("k-fold needs at least 2 folds")
        if not args.data:
            raise ConfigError("--folds needs --data")
        ds = load_csv(args.data)
        inputs = [args.data]
        if ds.n < 2 * args.folds:
            raise ContractError(
                f"{ds.n} rows cannot support {args.folds} folds")
        train_cfg, net_cfg = _fit_configs(args, ds.d_x)
        fold_of = np.random.default_rng(args.seed).permutation(ds.n) % args.folds
        folds = []
        for k in range(args.folds):
            tr_ds = ds.take(np.flatnonzero(fold_of != k))
            te_ds = ds.take(np.flatnonzero(fold_of == k))
            std_tr, scaler = standardize(tr_ds)
            net, _ = train(std_tr, net_cfg, train_cfg)
            model = FlowModel(net=net, scaler=scaler)
            folds.append(_eval_once(model, tr_ds, te_ds, args))
        mean = {
            name: {tag: float(np.mean([f["metrics"][name][tag] for f in folds]))
                   for tag in ("in", "out")}
            for name in folds[0]["metrics"]
        }
        doc = {"folds": folds, "mean": mean, "n_folds": args.folds}
    else:
        if not (args.model and args.train_data and args.test_data):
            raise ConfigError(
                "eval needs either --folds with --data, or --model with "
                "--train-data and --test-data")
        model = load_model(args.model)
        tr, te = load_csv(args.train_data), load_csv(args.test_data)
        inputs = [args.model, args.train_data, args.test_data]
        doc = _eval_once(model, tr, te, args)
    write_json(doc, args.out)
    return Run(f"wrote evaluation report to {args.out}", {"seed": args.seed}, inputs,
               [args.out], {"train_config": args.train_config, "net_config": args.net_config})


def cmd_a3test(args) -> Run:
    model = load_model(args.model)
    ds = load_csv(args.data)
    res = mt.mmd_a3_test(model, ds, OdeConfig(n_steps=args.n_steps),
                         seed=args.seed, max_rows=args.max_rows)
    write_json(res, args.out)
    return Run(f"mmd_model={res['mmd_model']:.6g} "
               f"baseline={res['mmd_truth_baseline']:.6g} -> {args.out}",
               {"seed": args.seed}, [args.model, args.data], [args.out])


# ------------------------------------------------------------------ wiring

def _int_at_least(lo: int):
    def parse(raw: str) -> int:
        value = int(raw)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's "invalid int value" message names the type
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="causalflow",
        description="Train and query a conditional flow outcome model.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic benchmark CSV")
    g.add_argument("--config", help="generator key=value file")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=_int_at_least(0), help="override the config seed")
    g.set_defaults(fn=cmd_generate)

    t = sub.add_parser("train", help="fit a flow model on a CSV")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True, help="model JSON path")
    t.add_argument("--train-config")
    t.add_argument("--net-config")
    t.add_argument("--seed", type=_int_at_least(0), help="override the training seed")
    t.set_defaults(fn=cmd_train)

    pr = sub.add_parser("predict", help="query a trained model")
    pr.add_argument("--model", required=True)
    pr.add_argument("--data", required=True)
    pr.add_argument("--mode", required=True,
                    choices=["po", "cf", "cate", "map", "density"])
    pr.add_argument("--out", required=True)
    pr.add_argument("--n-samples", type=_int_at_least(1), default=api.N_SAMPLES,
                    help="draws per row for po")
    pr.add_argument("--n-steps", type=_int_at_least(1), default=OdeConfig.n_steps)
    pr.add_argument("--seed", type=_int_at_least(0), default=0,
                    help="noise seed for po")
    pr.set_defaults(fn=cmd_predict)

    e = sub.add_parser("eval", help="metric report for a model or k folds")
    e.add_argument("--model")
    e.add_argument("--train-data")
    e.add_argument("--test-data")
    e.add_argument("--data", help="single CSV for --folds mode")
    e.add_argument("--folds", type=int)
    e.add_argument("--train-config")
    e.add_argument("--net-config")
    e.add_argument("--out", required=True)
    e.add_argument("--seed", type=_int_at_least(0), default=0)
    e.add_argument("--n-steps", type=_int_at_least(1), default=OdeConfig.n_steps)
    e.add_argument("--max-rows", type=_int_at_least(1), default=mt.MAX_ROWS)
    e.add_argument("--noise-sd", type=float, default=1.0)
    e.set_defaults(fn=cmd_eval)

    a3 = sub.add_parser("a3test", help="latent noise adequacy test")
    a3.add_argument("--model", required=True)
    a3.add_argument("--data", required=True)
    a3.add_argument("--out", required=True)
    a3.add_argument("--seed", type=_int_at_least(0), default=0)
    a3.add_argument("--n-steps", type=_int_at_least(1), default=OdeConfig.n_steps)
    a3.add_argument("--max-rows", type=_int_at_least(1), default=mt.MAX_ROWS)
    a3.set_defaults(fn=cmd_a3test)
    return p


def main(argv: list[str] | None = None) -> int:
    """Run one command, then write its manifest, then print its summary line.

    A failing command writes no manifest; its error goes to stderr and sets the exit code.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        t0 = time.perf_counter()
        run = args.fn(args)
        write_manifest(args.command, argv, run, time.perf_counter() - t0)
        print(run.summary)
    except (ConfigError, ContractError) as exc:  # SchemaError is a ConfigError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # a size that no byte cap refused up front
        print(f"out of memory in {args.command}: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 4
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
