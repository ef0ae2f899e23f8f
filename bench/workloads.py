"""The four workloads: set-up, timed rounds, and the checks on their outputs.

Every workload drives causalflow through its public API or its CLI entry
point (``cli.main``), in one process with one client in a closed loop: an
operation starts when the previous one has returned. A round runs the same
operations every time; the runner repeats rounds for the measuring window.
Checks run after the window, once per distinct output, and an operation
whose output fails a check counts as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from causalflow import (causal_api, cfm_train, cli, metrics, numkit, ode_engine,
                        scm_data, velocity_net)

import stats

# The gate-3 recipe of the release gates: default generator n=2000, d_x=10,
# a 90/10 split, 500 Adam iterations at batch 200 and lr 5e-3, all at seed 0.
# The model and the cohort rows stay fixed across workload seeds so that
# cf_rmse, pehe and density_nll change only when the program's numerics do;
# drawn from the seed they spread by 25% and more between seeds.
RECIPE = dict(n=2000, d_x=10, test_fraction=0.1, max_iters=500, batch_size=200,
              lr=5e-3, seed=0)
COHORT_SEED = 1
N_STEPS = 64
N_SAMPLES = 64
TRAIN_ROUND_ITERS = 800
# cate needs 64 rows: on fewer, the cohort's sd of the heavy-tailed effect
# (the yardstick of the pehe check) falls far below the population's 2.7.
COHORT_ROWS = {"po": 8, "cate": 64, "cf": 1000, "density": 600}
UNIT_PATIENTS = 8
UNIT_MIN_ROUNDS = 50  # two cf calls per round: 100 samples, enough for a p90
A3_ROWS = (500, 1000)
# A probe runs the operations of other workloads once each at these sizes.
PROBE_ROWS = {"po": 1, "cate": 2, "cf": 8, "density": 8}
PROBE_A3_ROWS = 100
PROBE_TRAIN_ITERS = 50
ENTROPY_UNIT_NORMAL = 0.5 * math.log(2.0 * math.pi * math.e)
# The null law of the unbiased MMD^2 is a weighted sum of centred chi-squares,
# with a long right tail: over 300 seed and size pairs the truth-vs-truth
# baseline reached 4.1 null sd, so the check allows 8.
NULL_SDS = 8

# Timings are the process's CPU time (user + system). On a shared machine
# the wall clock also counts the time other tenants hold the CPU: measured
# here, one fixed numpy loop took 1.07x its CPU time at the median and
# 1.96x at p95, which swamped any bound a regression could be judged by.
# The program is single-threaded with one BLAS thread, so on an idle
# machine the two agree; each operation's wall time is kept as well.
clock = time.process_time


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    kind: str
    seconds: float  # CPU time
    rows: int
    wall: float = 0.0
    out: object = None
    ok: bool = True
    error: str = ""


@dataclass
class Env:
    """Inputs made during set-up, shared by the rounds and the checks."""

    work: Path
    seed: int
    tracer: object = None  # a tracing.Tracer while a traced round runs
    between: object = None  # called after each timed operation
    files: dict = field(default_factory=dict)
    model: velocity_net.FlowModel | None = None
    test: scm_data.CausalDataset | None = None
    extra: dict = field(default_factory=dict)


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_cli(env: Env, argv, outputs=()) -> None:
    """causalflow's CLI in-process; a non-zero exit is an error.

    outputs lists the files a timed command writes, the one that gets the
    manifest first; a traced run counts their bytes.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"causalflow {argv[0]} exited {code}")
    if env.tracer is not None and outputs:
        files = [*outputs, f"{outputs[0]}.manifest.json"]
        env.tracer.counters["cli_bytes"] += sum(Path(f).stat().st_size for f in files)


def timed(env: Env, ops: list, kind: str, rows: int, fn) -> object:
    """Time one operation; an exception marks it failed and the run goes on."""
    root = env.tracer.root(kind) if env.tracer is not None else nullcontext()
    op = Op(kind, 0.0, rows)
    with root:
        c0, t0 = clock(), time.perf_counter()
        try:
            op.out = fn()
        except Exception as exc:  # the run must go on and report the failure
            op.ok, op.error = False, f"{type(exc).__name__}: {exc}"
        op.seconds, op.wall = clock() - c0, time.perf_counter() - t0
    ops.append(op)
    if env.between is not None:
        env.between()
    return op.out


def common_setup(env: Env) -> None:
    """Stand the system up: gate-3 data through the CLI, the model, every input."""
    w = env.work
    dgp = _write(w / "dgp.cfg", f"n = {RECIPE['n']}\nd_x = {RECIPE['d_x']}\n"
                                f"seed = {RECIPE['seed']}\n")
    data = w / "data.csv"
    run_cli(env, ["generate", "--config", dgp, "--out", data])
    ds = scm_data.load_csv(data)
    train_ds, test_ds = scm_data.split(ds, RECIPE["test_fraction"], seed=RECIPE["seed"])
    train_csv = w / "train.csv"
    scm_data.write_csv(train_ds, train_csv)
    std_train, scaler = scm_data.standardize(train_ds)
    net, _ = cfm_train.train(std_train, velocity_net.NetConfig(d_x=RECIPE["d_x"]),
                             cfm_train.TrainConfig(max_iters=RECIPE["max_iters"],
                                                   batch_size=RECIPE["batch_size"],
                                                   lr=RECIPE["lr"], seed=RECIPE["seed"]))
    model_path = w / "model.json"
    velocity_net.save_model(velocity_net.FlowModel(net=net, scaler=scaler), model_path)
    env.model = velocity_net.load_model(model_path)
    env.test = test_ds
    env.files.update(data=data, train=train_csv, model=model_path)
    for name, iters in (("round", TRAIN_ROUND_ITERS), ("probe", PROBE_TRAIN_ITERS)):
        env.files[f"train_{name}_cfg"] = _write(w / f"{name}.cfg", (
            f"max_iters = {iters}\nbatch_size = {RECIPE['batch_size']}\n"
            f"lr = {RECIPE['lr']}\n"))

    cohort = scm_data.generate_ihdp_like(scm_data.default_config(
        n=max(COHORT_ROWS.values()), d_x=RECIPE["d_x"], seed=COHORT_SEED))
    env.extra["cohort"] = cohort
    sizes = list(COHORT_ROWS.items()) + [(f"probe_{m}", r) for m, r in PROBE_ROWS.items()]
    for mode, rows in sizes:
        env.files[f"cohort_{mode}"] = w / f"cohort-{mode}.csv"
        scm_data.write_csv(cohort.take(np.arange(rows)), env.files[f"cohort_{mode}"])
    # fresh rows drawn from the seed; seed + 1 keeps clear of the training draw
    a3 = scm_data.generate_ihdp_like(scm_data.default_config(
        n=max(A3_ROWS), d_x=RECIPE["d_x"], seed=env.seed + 1))
    env.files["a3"] = w / "a3.csv"
    scm_data.write_csv(a3, env.files["a3"])
    env.extra["a3"] = a3
    rng = np.random.default_rng([env.seed, 3])
    env.extra["patients"] = np.sort(rng.choice(test_ds.n, UNIT_PATIENTS, replace=False))


PROBE_GROUPS = ("train", "cohort", "adequacy", "unit")


def probe(env: Env, groups=PROBE_GROUPS) -> dict:
    """The operations of the given workloads once each at a small size.

    Returns the end-to-end metrics they give. The runner calls it across the
    window, untraced, for the operations that the workload's own rounds do
    not run, and once with every group at the end of set-up as the warm-up.
    """
    w, out = env.work, {}
    if "train" in groups:
        t0 = clock()
        run_cli(env, ["train", "--data", env.files["train"], "--out", w / "probe.json",
                      "--train-config", env.files["train_probe_cfg"], "--seed", env.seed])
        out["train_iters_per_s"] = PROBE_TRAIN_ITERS / (clock() - t0)
    for mode, rows in PROBE_ROWS.items() if "cohort" in groups else ():
        path = w / f"probe-{mode}.csv"
        t0 = clock()
        predict(env, mode, env.files[f"cohort_probe_{mode}"], path)
        out[f"{mode}_rows_per_s"] = rows / (clock() - t0)
        c = env.extra["cohort"].take(np.arange(rows))
        vals = np.array([[float(v) for v in r[2:]] for r in _read_rows(path)])
        if mode == "cate":
            out["pehe"] = cate_quality(vals[:, 0], c)[0]
        elif mode == "cf":
            out["cf_rmse"] = cf_quality(vals[:, 0], c)[0]
        elif mode == "density":
            out["density_nll"] = density_quality(vals[:, 1], c)[0]
    if "adequacy" in groups:
        t0 = clock()
        a3test(env, PROBE_A3_ROWS, w / "probe-a3.json")
        out["a3test_rows_per_s"] = PROBE_A3_ROWS / (clock() - t0)
    if "unit" in groups:
        ops: list = []
        Unit().round(env, ops, 0)
        cf_ms = [op.seconds * 1e3 for op in ops if op.kind == "cf"]
        # two cf calls are too few for a tail percentile: their larger stands in
        out.update(unit_cf_ms_p50=stats.median(cf_ms), unit_cf_ms_p90=max(cf_ms),
                   **{f"unit_{op.kind}_ms_p50": op.seconds * 1e3
                      for op in ops if op.kind != "cf"})
    return out


def predict(env: Env, mode: str, data, out) -> Path:
    run_cli(env, ["predict", "--model", env.files["model"], "--data", data,
                  "--mode", mode, "--out", out, "--n-samples", N_SAMPLES,
                  "--n-steps", N_STEPS, "--seed", env.seed], [out])
    return out


def a3test(env: Env, rows: int, out) -> Path:
    run_cli(env, ["a3test", "--model", env.files["model"], "--data", env.files["a3"],
                  "--out", out, "--seed", env.seed, "--n-steps", N_STEPS,
                  "--max-rows", rows], [out])
    return out


def cf_quality(y_cf, c) -> tuple[float, str]:
    """cf rmse against the oracle counterfactual, and what is wrong with it if anything."""
    got = metrics.rmse(y_cf, c.ycf)
    bound = 0.35 * float(np.std(c.ycf))
    copy = metrics.rmse(c.y, c.ycf)
    bad = not (got <= bound and got < copy)
    return got, bad and f"cf rmse {got:.3f} vs bound {bound:.3f}, factual copy {copy:.3f}"


def cate_quality(tau_hat, c) -> tuple[float, str]:
    tau = c.mu1 - c.mu0
    got = metrics.pehe(tau_hat, tau)
    const = metrics.pehe(np.full(c.n, float(np.mean(tau_hat))), tau)
    bound = 0.5 * float(np.std(tau))
    bad = not (got <= bound and got < const)
    return got, bad and f"pehe {got:.3f} vs bound {bound:.3f}, constant effect {const:.3f}"


def density_quality(logp, c) -> tuple[float, str]:
    """Mean NLL of the factual outcomes against the true law N(mu_a, 1)."""
    nll_rows = -np.asarray(logp)
    nll = float(nll_rows.mean())
    mu = np.where(c.a == 1, c.mu1, c.mu0)
    true_nll = float(np.mean(0.5 * math.log(2 * math.pi) + 0.5 * (c.y - mu) ** 2))
    se = float(nll_rows.std(ddof=1) / math.sqrt(c.n))
    if nll - true_nll > 0.25:
        return nll, f"nll {nll:.4f} exceeds the true law's {true_nll:.4f} by more than 0.25"
    if nll < ENTROPY_UNIT_NORMAL - 4 * se:
        return nll, f"nll {nll:.4f} below the entropy minus 4 se"
    return nll, ""


def _dedup_check(ops: list, key, check) -> None:
    """Run check once per distinct output key; mark every op it covers."""
    verdicts: dict = {}
    for op in ops:
        if not op.ok:
            continue
        k = key(op)
        if k not in verdicts:
            try:
                check(op)
                verdicts[k] = ""
            except CheckFailed as exc:
                verdicts[k] = str(exc)
        if verdicts[k]:
            op.ok, op.error = False, verdicts[k]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _rate(ops: list) -> float:
    """Work completed per CPU second over the window's operations."""
    return sum(op.rows for op in ops) / sum(op.seconds for op in ops)


def _read_rows(path) -> list[list[str]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


# ------------------------------------------------------------------ train

class Train:
    """`causalflow train` at batch 200: tape, loss and Adam, no integration."""

    name = "train"
    min_rounds = 1

    def round(self, env: Env, ops: list, r: int) -> None:
        out = env.work / f"train-{r}.json"

        def op():
            run_cli(env, ["train", "--data", env.files["train"], "--out", out,
                          "--train-config", env.files["train_round_cfg"],
                          "--seed", env.seed], [out, out.with_suffix(".loss.csv")])
            return out

        timed(env, ops, "train", TRAIN_ROUND_ITERS, op)

    def finish(self, env: Env, ops: list) -> dict:
        train_std = scm_data.standardize(scm_data.load_csv(env.files["train"]))[0]

        def check(op):
            path = op.out
            rows = _read_rows(path.with_suffix(".loss.csv"))
            _require(len(rows) == TRAIN_ROUND_ITERS, f"{len(rows)} loss rows")
            first, last = float(rows[0][1]), float(rows[-1][1])
            _require(last < 0.5 * first, f"loss {first:.4g} -> {last:.4g}, not halved")
            model = velocity_net.load_model(path)
            worst = gradient_check(model.net, train_std, env.seed)
            _require(worst <= 1e-4, f"tape gradient rel err {worst:.2e} > 1e-4")
            te = env.test
            y_std = model.scaler.transform_y(te.y)
            x_std = model.scaler.transform_x(te.x)
            cfg = ode_engine.OdeConfig(n_steps=N_STEPS)
            z = ode_engine.encode_batch(model.net, y_std, x_std, te.a, cfg)
            back = ode_engine.decode_batch(model.net, z, x_std, te.a, cfg)
            err = float(np.max(np.abs(back - y_std)))
            _require(err <= 1e-3, f"decode(encode(y)) error {err:.2e} > 1e-3")

        _dedup_check(ops, lambda op: (_sha(op.out), _sha(op.out.with_suffix(".loss.csv"))),
                     check)
        return {"train_iters_per_s": _rate(ops)}


def gradient_check(net, ds, seed: int, n: int = 64, coords: int = 12) -> float:
    """Worst relative gap between tape gradients and central differences."""
    rng = np.random.default_rng([seed, 11])
    idx = rng.integers(0, ds.n, n)
    y1, ts = rng.standard_normal(n), rng.random(n)
    args = (ds.y[idx], ds.x[idx], ds.a[idx], y1, ts)
    _, tape = cfm_train.cfm_loss(net, *args)
    grads = numkit.tape_backward(tape)
    names = sorted(net.params)
    worst, h = 0.0, 1e-5
    for _ in range(coords):
        name = names[rng.integers(len(names))]
        t = net.params[name]
        i, j = rng.integers(t.shape[0]), rng.integers(t.shape[1])
        saved = t[i, j]
        t[i, j] = saved + h
        up, _ = cfm_train.cfm_loss(net, *args)
        t[i, j] = saved - h
        down, _ = cfm_train.cfm_loss(net, *args)
        t[i, j] = saved
        fd = (up - down) / (2 * h)
        # the floor keeps round-off on a near-zero gradient from reading as an error
        worst = max(worst, abs(grads[name][i, j] - fd) / max(abs(fd), 1e-6))
    return worst


# ----------------------------------------------------------------- cohort

class Cohort:
    """`causalflow predict` in modes po, cate, cf and density over cohort CSVs."""

    name = "cohort"
    min_rounds = 1

    def round(self, env: Env, ops: list, r: int) -> None:
        for mode, rows in COHORT_ROWS.items():
            out = env.work / f"{mode}-{r}.csv"
            timed(env, ops, mode, rows,
                  lambda: predict(env, mode, env.files[f"cohort_{mode}"], out))

    def finish(self, env: Env, ops: list) -> dict:
        cohort, model = env.extra["cohort"], env.model
        found: dict = {}

        def values(op, n_expected, width):
            rows = _read_rows(op.out)
            _require(len(rows) == n_expected, f"{op.kind}: {len(rows)} rows, "
                                              f"expected {n_expected}")
            _require(all(len(r) == width for r in rows), f"{op.kind}: ragged rows")
            vals = np.array([[float(v) for v in r[2:]] for r in rows])
            _require(bool(np.all(np.isfinite(vals))), f"{op.kind}: non-finite output")
            return vals

        def check(op):
            n = COHORT_ROWS[op.kind]
            c = cohort.take(np.arange(n))
            if op.kind == "po":
                vals = values(op, n * N_SAMPLES, 4)
                y, lp = vals[:, 0].reshape(n, N_SAMPLES), vals[:, 1].reshape(n, N_SAMPLES)
                # re-evaluate four samples of every row with the density query
                again = causal_api.log_density_batch(
                    model, y[:, :4].reshape(-1), np.repeat(c.x, 4, axis=0),
                    np.repeat(c.a, 4), ode_engine.OdeConfig(n_steps=N_STEPS))
                gap = float(np.max(np.abs(again - lp[:, :4].reshape(-1))))
                _require(gap <= 1e-6, f"po log p vs density re-evaluation gap {gap:.2e}")
                return
            if op.kind == "cate":
                got, problem = cate_quality(values(op, n, 3)[:, 0], c)
                found["pehe"] = got
            elif op.kind == "cf":
                got, problem = cf_quality(values(op, n, 3)[:, 0], c)
                found["cf_rmse"] = got
            else:
                vals = values(op, n, 4)
                _require(bool(np.array_equal(vals[:, 0], c.y)), "density: y column altered")
                got, problem = density_quality(vals[:, 1], c)
                found["density_nll"] = got
            _require(not problem, problem)

        _dedup_check(ops, lambda op: (op.kind, _sha(op.out)), check)
        out = {f"{mode}_rows_per_s": _rate([op for op in ops if op.kind == mode])
               for mode in COHORT_ROWS}
        out.update(found)
        return out


# ------------------------------------------------------------------- unit

class Unit:
    """Single-patient causal_api calls: per-call overhead dominates."""

    name = "unit"
    min_rounds = UNIT_MIN_ROUNDS

    def round(self, env: Env, ops: list, r: int) -> None:
        m, cfg = env.model, ode_engine.OdeConfig(n_steps=N_STEPS)
        i = int(env.extra["patients"][r % UNIT_PATIENTS])
        y, x, a = float(env.test.y[i]), env.test.x[i], int(env.test.a[i])
        y_cf = timed(env, ops, "cf", 1,
                     lambda: (i, causal_api.predict_counterfactual(m, y, x, a, cfg)))
        if y_cf is not None:
            timed(env, ops, "cf", 1,  # cf applied twice returns the factual outcome
                  lambda: (i, causal_api.predict_counterfactual(m, y_cf[1], x, 1 - a, cfg)))
        timed(env, ops, "density", 1,
              lambda: (i, causal_api.log_density(m, y, x, a, cfg)))
        timed(env, ops, "po", 1, lambda: (i, causal_api.sample_po(
            m, x, a, n_samples=N_SAMPLES, ode_cfg=cfg, seed=env.seed)))

    def finish(self, env: Env, ops: list) -> dict:
        m, te, cfg = env.model, env.test, ode_engine.OdeConfig(n_steps=N_STEPS)
        idx = env.extra["patients"]
        cf_batch = dict(zip(idx, causal_api.predict_counterfactual_batch(
            m, te.y[idx], te.x[idx], te.a[idx], cfg)))
        lp_batch = dict(zip(idx, causal_api.log_density_batch(
            m, te.y[idx], te.x[idx], te.a[idx], cfg)))
        po_batch = {}
        for k, i in enumerate(idx):
            pair = [i, idx[(k + 1) % len(idx)]]  # the patient as row 0 of a batch
            y, lp = causal_api.sample_po_batch(m, te.x[pair], te.a[pair], N_SAMPLES,
                                               cfg, env.seed)
            po_batch[i] = (y[0], lp[0])

        def close(got, want, tol):
            want = np.asarray(want)
            return bool(np.all(np.abs(np.asarray(got) - want)
                               <= tol * np.maximum(1.0, np.abs(want))))

        back = False  # the second cf of a round maps the first one back
        for op in ops:
            if not op.ok:
                back = False
                continue
            i, got = op.out
            if op.kind == "cf" and back:
                ok, why = close(got, te.y[i], 1e-6), "cf applied twice is not the factual y"
            elif op.kind == "cf":
                ok, why = close(got, cf_batch[i], 1e-12), "single cf differs from its batch row"
            elif op.kind == "density":
                ok, why = close(got, lp_batch[i], 1e-12), "single log p differs from its batch row"
            else:
                ok = close(got.y, po_batch[i][0], 1e-12) and close(got.log_p, po_batch[i][1], 1e-12)
                why = "single po draw differs from row 0 of a batch"
            back = op.kind == "cf" and not back
            if not ok:
                op.ok, op.error = False, f"patient {i}: {why}"

        def ms(kind):
            return [op.seconds * 1e3 for op in ops if op.kind == kind]

        return {"unit_cf_ms_p50": stats.median(ms("cf")),
                "unit_cf_ms_p90": stats.percentile(ms("cf"), 90),
                "unit_density_ms_p50": stats.median(ms("density")),
                "unit_po_ms_p50": stats.median(ms("po"))}


# --------------------------------------------------------------- adequacy

class Adequacy:
    """`causalflow a3test`: the (n, n, d) MMD arrays dominate."""

    name = "adequacy"
    min_rounds = 1

    def round(self, env: Env, ops: list, r: int) -> None:
        for rows in A3_ROWS:
            out = env.work / f"a3-{rows}-{r}.json"
            timed(env, ops, "a3", rows, lambda: a3test(env, rows, out))

    def finish(self, env: Env, ops: list) -> dict:
        ds, model = env.extra["a3"], env.model
        null_sd, mmd_gap = {}, {}
        for n in A3_ROWS:
            x = model.scaler.transform_x(ds.x[:n])
            a = ds.a[:n]
            z1 = model.scaler.transform_y(ds.y[:n])
            z2 = np.random.default_rng([env.seed, 7]).standard_normal(n)
            want, _ = gram_mmd(z1, x, a, z2, x, a)
            got = metrics.mmd_squared(z1, x, a, z2, x, a)
            mmd_gap[n] = abs(got - want) / abs(want)
            fresh = np.random.default_rng([env.seed, 8]).standard_normal((2, n))
            null_sd[n] = mmd_null_sd(fresh[0], fresh[1], x, a)

        def check(op):
            n = op.rows
            _require(mmd_gap[n] <= 1e-9, f"mmd_squared vs Gram expansion rel gap "
                                         f"{mmd_gap[n]:.2e} at {n} rows")
            res = json.loads(Path(op.out).read_text(encoding="utf-8"))
            vals = [res["mmd_model"], res["mmd_truth_baseline"]]
            _require(all(math.isfinite(v) for v in vals), "non-finite mmd")
            base = res["mmd_truth_baseline"]
            _require(abs(base) <= NULL_SDS * null_sd[n],
                     f"truth baseline {base:.2e} beyond {NULL_SDS} sd "
                     f"({NULL_SDS * null_sd[n]:.2e}) of 0")

        _dedup_check(ops, lambda op: _sha(op.out), check)
        return {"a3test_rows_per_s": _rate(ops)}


def _gram_sq(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    sq = (A * A).sum(1)[:, None] + (B * B).sum(1)[None, :] - 2.0 * (A @ B.T)
    return np.maximum(sq, 0.0)


def _gram_kernels(z1, x1, a1, z2, x2, a2):
    z1, z2 = np.reshape(z1, (-1, 1)), np.reshape(z2, (-1, 1))

    def bandwidth(v):
        sq = _gram_sq(v, v)
        iu = np.triu_indices(v.shape[0], k=1)
        return max(0.5 * float(np.median(np.sqrt(sq[iu]))), 1e-12)

    bz = bandwidth(np.vstack([z1, z2]))
    bx = bandwidth(np.vstack([x1, x2]))

    def k(za, xa, aa, zb, xb, ab):
        return (np.exp(-_gram_sq(za, zb) / (2 * bz * bz))
                * np.exp(-_gram_sq(xa, xb) / (2 * bx * bx))
                * (aa[:, None] == ab[None, :]))

    return k(z1, x1, a1, z1, x1, a1), k(z2, x2, a2, z2, x2, a2), k(z1, x1, a1, z2, x2, a2)


def _offdiag_mean(k: np.ndarray) -> float:
    n = k.shape[0]
    return (float(k.sum()) - float(np.trace(k))) / (n * (n - 1))


def gram_mmd(z1, x1, a1, z2, x2, a2):
    """Unbiased squared MMD with the same kernels as causalflow, by Gram expansion."""
    k11, k22, k12 = _gram_kernels(z1, x1, a1, z2, x2, a2)
    return _offdiag_mean(k11) + _offdiag_mean(k22) - 2 * _offdiag_mean(k12), (k11, k22, k12)


def mmd_null_sd(z1, z2, x, a) -> float:
    """Standard deviation of the unbiased MMD^2 under the null, from its U-statistic kernel."""
    k11, k22, k12 = _gram_kernels(z1, x, a, z2, x, a)
    h = k11 + k22 - k12 - k12.T
    n = h.shape[0]
    return math.sqrt(2.0 * _offdiag_mean(h * h) / (n * (n - 1)))


WORKLOADS = {w.name: w for w in (Train(), Cohort(), Unit(), Adequacy())}
