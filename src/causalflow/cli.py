"""Command line front end: generate, train, predict, eval, a3test.

Config files are flat key=value text (hash comments allowed). Every command
that writes an artifact also writes <out>.manifest.json recording the
command line, seeds, config paths, input/output digests and wall time; the
artifacts themselves are byte-reproducible, the manifest is not (it holds
the wall time).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__
from . import causal_api as api
from . import metrics as mt
from .cfm_train import TrainConfig, train
from .errors import ConfigError, ContractError, NumericError, SchemaError
from .ode_engine import OdeConfig
from .scm_data import (DgpConfig, default_config, generate_ihdp_like,
                       load_csv, split, standardize, write_csv)
from .velocity_net import FlowModel, NetConfig, load_model, save_model

_fmt = lambda v: repr(float(v))


# ---------------------------------------------------------------- config io

def read_kv_config(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _parse_num(key: str, raw: str, cast):
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _parse_floats(key: str, raw: str) -> tuple[float, ...]:
    return tuple(_parse_num(key, part.strip(), float)
                 for part in raw.split(","))


def dgp_config_from_file(path, seed_override=None) -> DgpConfig:
    kv = read_kv_config(path) if path else {}
    known = {"n", "d_x", "beta", "omega", "w_shift", "noise_sd",
             "propensity", "seed"}
    unknown = set(kv) - known
    if unknown:
        raise ConfigError(f"unknown generator keys: {sorted(unknown)}")
    n = _parse_num("n", kv.get("n", "1000"), int)
    d_x = _parse_num("d_x", kv.get("d_x", "10"), int)
    seed = _parse_num("seed", kv.get("seed", "0"), int)
    if seed_override is not None:
        seed = seed_override
    over: dict = {}
    for key in ("beta", "w_shift"):
        if key in kv:
            vals = _parse_floats(key, kv[key])
            if len(vals) == 1:
                vals = vals * d_x
            if len(vals) != d_x:
                raise ConfigError(f"{key}: got {len(vals)} values for d_x={d_x}")
            over[key] = vals
    if "omega" in kv:
        over["omega"] = _parse_num("omega", kv["omega"], float)
    if "noise_sd" in kv:
        over["noise_sd"] = _parse_num("noise_sd", kv["noise_sd"], float)
    if "propensity" in kv:
        raw = kv["propensity"]
        if raw == "balanced":
            over["propensity"] = "balanced"
        elif raw.startswith("logistic:"):
            over["propensity"] = "logistic"
            over["propensity_coef"] = _parse_floats("propensity", raw[9:])
        else:
            raise ConfigError(
                f"propensity: expected balanced or logistic:c0,c1/..., got {raw!r}")
    return default_config(n=n, d_x=d_x, seed=seed, **over)


def train_config_from_file(path, seed_override=None) -> TrainConfig:
    kv = read_kv_config(path) if path else {}
    fields = TrainConfig.__dataclass_fields__
    unknown = set(kv) - set(fields)
    if unknown:
        raise ConfigError(f"unknown training keys: {sorted(unknown)}")
    kwargs: dict = {}
    for key, raw in kv.items():
        kind = fields[key].type
        if kind == "bool":
            kwargs[key] = _parse_bool(key, raw)
        elif kind == "int":
            kwargs[key] = _parse_num(key, raw, int)
        else:
            kwargs[key] = _parse_num(key, raw, float)
    if seed_override is not None:
        kwargs["seed"] = seed_override
    return TrainConfig(**kwargs)


def net_config_from_file(path, d_x: int) -> NetConfig:
    kv = read_kv_config(path) if path else {}
    known = {"hidden_dim", "time_encoding", "time_frequencies", "init_seed"}
    unknown = set(kv) - known
    if unknown:
        raise ConfigError(f"unknown net keys: {sorted(unknown)}")
    kwargs: dict = {"d_x": d_x}
    if "hidden_dim" in kv:
        kwargs["hidden_dim"] = _parse_num("hidden_dim", kv["hidden_dim"], int)
    if "time_encoding" in kv:
        kwargs["time_encoding"] = kv["time_encoding"]
    if "time_frequencies" in kv:
        kwargs["time_frequencies"] = _parse_num(
            "time_frequencies", kv["time_frequencies"], int)
    if "init_seed" in kv:
        kwargs["init_seed"] = _parse_num("init_seed", kv["init_seed"], int)
    return NetConfig(**kwargs)


# ---------------------------------------------------------------- manifests

def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_manifest(out_path, command: str, argv: list[str], seeds: dict,
                   config_paths: dict, inputs: list, outputs: list,
                   wall_time_s: float) -> None:
    doc = {
        "command": command,
        "argv": list(argv),
        "config_paths": {k: str(v) for k, v in config_paths.items() if v},
        "seeds": seeds,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "tool_version": __version__,
        "wall_time_s": wall_time_s,
    }
    _write_json(doc, str(out_path) + ".manifest.json")


# ----------------------------------------------------------------- commands

def cmd_generate(args, argv) -> int:
    t0 = time.perf_counter()
    cfg = dgp_config_from_file(args.config, args.seed)
    ds = generate_ihdp_like(cfg)
    write_csv(ds, args.out)
    write_manifest(args.out, "generate", argv, {"dgp_seed": cfg.seed},
                   {"config": args.config}, [], [args.out],
                   time.perf_counter() - t0)
    print(f"wrote {ds.n} rows (d_x={ds.d_x}) to {args.out}")
    return 0


def _loss_csv_path(model_path: str) -> str:
    stem = model_path[:-5] if model_path.endswith(".json") else model_path
    return stem + ".loss.csv"


def cmd_train(args, argv) -> int:
    t0 = time.perf_counter()
    ds = load_csv(args.data)
    train_cfg = train_config_from_file(args.train_config, args.seed)
    net_cfg = net_config_from_file(args.net_config, ds.d_x)
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
    with open(loss_path, "w", encoding="utf-8") as fh:
        fh.write("iter,loss\n")
        for it, loss in report.loss_history:
            fh.write(f"{it},{_fmt(loss)}\n")
    write_manifest(args.out, "train", argv, {"train_seed": train_cfg.seed},
                   {"train_config": args.train_config,
                    "net_config": args.net_config},
                   [args.data], [args.out, loss_path],
                   time.perf_counter() - t0)
    print(f"trained {report.iters_run} iters, final loss "
          f"{report.final_loss:.6f}, model at {args.out}")
    return 0


def cmd_predict(args, argv) -> int:
    t0 = time.perf_counter()
    model = load_model(args.model)
    ds = load_csv(args.data)
    ode_cfg = OdeConfig(n_steps=args.n_steps)
    mode = args.mode
    lines: list[str] = []
    if mode == "po":
        y, lp = api.sample_po_batch(model, ds.x, ds.a, args.n_samples,
                                    ode_cfg, args.seed)
        lines.append("row,mode,value,logp")
        for i in range(ds.n):
            for s in range(args.n_samples):
                lines.append(f"{i},po,{_fmt(y[i, s])},{_fmt(lp[i, s])}")
    elif mode == "cf":
        y_cf = api.predict_counterfactual_batch(model, ds.y, ds.x, ds.a, ode_cfg)
        lines.append("row,mode,value")
        lines.extend(f"{i},cf,{_fmt(v)}" for i, v in enumerate(y_cf))
    elif mode == "cate":
        tau = api.estimate_cate(model, ds.x, args.n_samples, ode_cfg, args.seed)
        lines.append("row,mode,value")
        lines.extend(f"{i},cate,{_fmt(v)}" for i, v in enumerate(tau))
    elif mode == "map":
        vals = api.map_po_batch(model, ds.x, ds.a, args.n_samples, ode_cfg,
                                args.seed)
        lines.append("row,mode,value")
        lines.extend(f"{i},map,{_fmt(v)}" for i, v in enumerate(vals))
    else:  # density
        lp = api.log_density_batch(model, ds.y, ds.x, ds.a, ode_cfg)
        lines.append("row,mode,value,logp")
        lines.extend(f"{i},density,{_fmt(ds.y[i])},{_fmt(v)}"
                     for i, v in enumerate(lp))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    write_manifest(args.out, "predict", argv, {"seed": args.seed}, {},
                   [args.model, args.data], [args.out],
                   time.perf_counter() - t0)
    print(f"wrote {len(lines) - 1} {mode} rows to {args.out}")
    return 0


def _eval_once(model, tr, te, args) -> dict:
    rep = mt.evaluate_all(model, tr, te, OdeConfig(n_steps=args.n_steps),
                          seed=args.seed, max_rows=args.max_rows,
                          noise_sd=args.noise_sd)
    return rep.to_dict()


def cmd_eval(args, argv) -> int:
    t0 = time.perf_counter()
    inputs: list[str] = []
    if args.folds is not None:
        if args.folds < 2:
            raise ConfigError("k-fold needs at least 2 folds")
        if not args.data:
            raise ConfigError("--folds needs --data")
        ds = load_csv(args.data)
        inputs.append(args.data)
        if ds.n < 2 * args.folds:
            raise ContractError(
                f"{ds.n} rows cannot support {args.folds} folds")
        train_cfg = train_config_from_file(args.train_config, args.seed)
        fold_of = np.random.default_rng(args.seed).permutation(ds.n) % args.folds
        folds = []
        for k in range(args.folds):
            tr_ds = ds.take(np.flatnonzero(fold_of != k))
            te_ds = ds.take(np.flatnonzero(fold_of == k))
            std_tr, scaler = standardize(tr_ds)
            net_cfg = net_config_from_file(args.net_config, ds.d_x)
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
        inputs += [args.model, args.train_data, args.test_data]
        doc = _eval_once(model, tr, te, args)
    _write_json(doc, args.out)
    write_manifest(args.out, "eval", argv, {"seed": args.seed},
                   {"train_config": args.train_config,
                    "net_config": args.net_config},
                   inputs, [args.out], time.perf_counter() - t0)
    print(f"wrote evaluation report to {args.out}")
    return 0


def cmd_a3test(args, argv) -> int:
    t0 = time.perf_counter()
    model = load_model(args.model)
    ds = load_csv(args.data)
    res = mt.mmd_a3_test(model, ds, OdeConfig(n_steps=args.n_steps),
                         seed=args.seed, max_rows=args.max_rows)
    _write_json(res, args.out)
    write_manifest(args.out, "a3test", argv, {"seed": args.seed}, {},
                   [args.model, args.data], [args.out],
                   time.perf_counter() - t0)
    print(f"mmd_model={res['mmd_model']:.6g} "
          f"baseline={res['mmd_truth_baseline']:.6g} -> {args.out}")
    return 0


# ------------------------------------------------------------------ wiring

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="causalflow",
        description="Train and query a conditional flow outcome model.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic benchmark CSV")
    g.add_argument("--config", help="generator key=value file")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, help="override the config seed")
    g.set_defaults(fn=cmd_generate)

    t = sub.add_parser("train", help="fit a flow model on a CSV")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True, help="model JSON path")
    t.add_argument("--train-config")
    t.add_argument("--net-config")
    t.add_argument("--seed", type=int, help="override the training seed")
    t.set_defaults(fn=cmd_train)

    pr = sub.add_parser("predict", help="query a trained model")
    pr.add_argument("--model", required=True)
    pr.add_argument("--data", required=True)
    pr.add_argument("--mode", required=True,
                    choices=["po", "cf", "cate", "map", "density"])
    pr.add_argument("--out", required=True)
    pr.add_argument("--n-samples", type=int, default=100)
    pr.add_argument("--n-steps", type=int, default=64)
    pr.add_argument("--seed", type=int, default=0)
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
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--n-steps", type=int, default=64)
    e.add_argument("--max-rows", type=int, default=128)
    e.add_argument("--noise-sd", type=float, default=1.0)
    e.set_defaults(fn=cmd_eval)

    a3 = sub.add_parser("a3test", help="latent noise adequacy test")
    a3.add_argument("--model", required=True)
    a3.add_argument("--data", required=True)
    a3.add_argument("--out", required=True)
    a3.add_argument("--seed", type=int, default=0)
    a3.add_argument("--n-steps", type=int, default=64)
    a3.add_argument("--max-rows", type=int, default=128)
    a3.set_defaults(fn=cmd_a3test)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args, argv)
    except (ConfigError, SchemaError, ContractError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())
