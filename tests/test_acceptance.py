"""Release gates: one test per gate, each printing a PASS/FAIL line.

Gates 3-11 and 13 share one trained model: default generator (n=2000,
d_x=10, unit noise, seed 0), 90/10 split, 500 training iterations at
batch 200, lr 5e-3. Everything is seeded, so verdicts are reproducible.
The CATE quadrature check beside gate 05 and the monotone-decode check
reuse that model; they are not gates.
"""

import itertools
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from causalflow import causal_api as api
from causalflow import cli
from causalflow import numkit as nk
from causalflow import metrics as mt
from causalflow.cfm_train import TrainConfig, cfm_loss, train
from causalflow.ode_engine import (OdeConfig, decode_batch, encode_batch,
                                   encode_with_logdensity_batch)
from causalflow.scm_data import (default_config, generate_ihdp_like, split,
                                 standardize)
from causalflow.velocity_net import (FlowModel, NetConfig, block_evaluators, forward_batch,
                                     init)
from helpers import integrate_end_state as _integrate

ODE = OdeConfig(n_steps=64)


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[gate {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def bench():
    cfg = default_config(n=2000, d_x=10, seed=0)
    ds = generate_ihdp_like(cfg)
    train_ds, test_ds = split(ds, 0.1, seed=0)
    std_train, scaler = standardize(train_ds)
    t0 = time.perf_counter()
    net, history = train(std_train, NetConfig(d_x=10),
                        TrainConfig(max_iters=500, lr=5e-3, seed=0))
    train_seconds = time.perf_counter() - t0
    model = FlowModel(net=net, scaler=scaler)
    return SimpleNamespace(
        cfg=cfg, train_ds=train_ds, test_ds=test_ds, model=model, net=net,
        scaler=scaler, history=history, train_seconds=train_seconds,
        x_std=scaler.transform_x(test_ds.x),
        y_std=scaler.transform_y(test_ds.y))


def test_gate_01_tape_gradients_match_finite_differences():
    t0 = time.perf_counter()
    net = init(NetConfig(d_x=10, init_seed=0))
    rng = np.random.default_rng(1)
    n = 32
    y0, y1 = rng.standard_normal(n), rng.standard_normal(n)
    ts, x = rng.random(n), rng.standard_normal((n, 10))
    a = rng.integers(0, 2, n)
    _, tape = cfm_loss(net, y0, x, a, y1, ts)
    grads = nk.tape_backward(tape)

    worst = 0.0
    names = list(net.params)
    pick = np.random.default_rng(2)
    for _ in range(20):
        name = names[pick.integers(len(names))]
        t = net.params[name]
        i, j = pick.integers(t.shape[0]), pick.integers(t.shape[1])
        h = 1e-5

        def at(delta):
            saved = t[i, j]
            t[i, j] = saved + delta
            val, _ = cfm_loss(net, y0, x, a, y1, ts)
            t[i, j] = saved
            return val

        fd = (at(h) - at(-h)) / (2 * h)
        rel = abs(grads[name][i, j] - fd) / max(abs(fd), 1e-8)
        worst = max(worst, rel)
    took = time.perf_counter() - t0
    _verdict(1, worst < 1e-4 and took < 10.0,
             f"worst rel err {worst:.2e} (< 1e-4), {took:.2f}s (< 10s)")


def test_gate_02_rk4_is_fourth_order():
    t0 = time.perf_counter()
    f = lambda y, t: y

    def err(n_steps):
        y, _ = _integrate(f, np.array([1.0]), 0.0, 1.0, n_steps)
        return abs(y[0] - math.e)

    e32 = err(32)
    ratio = err(16) / e32
    took = time.perf_counter() - t0
    _verdict(2, 12.0 <= ratio <= 20.0 and e32 < 1e-6 and took < 1.0,
             f"halving ratio {ratio:.2f} (in [12, 20]), "
             f"32-step error {e32:.2e} (< 1e-6), {took:.2f}s (< 1s)")


def test_gate_03_flow_inverts_after_training(bench):
    z = encode_batch(bench.net, bench.y_std, bench.x_std, bench.test_ds.a, ODE)
    back = decode_batch(bench.net, z, bench.x_std, bench.test_ds.a, ODE)
    worst = float(np.max(np.abs(back - bench.y_std)))
    ok = worst <= 1e-3 and bench.test_ds.n == 200 and bench.train_seconds < 300
    _verdict(3, ok, f"max roundtrip err {worst:.2e} over {bench.test_ds.n} "
                    f"rows (<= 1e-3), training took {bench.train_seconds:.1f}s "
                    f"(< 300s)")


def test_gate_04_counterfactuals_beat_factual_copy(bench):
    te = bench.test_ds
    y_cf = api.predict_counterfactual_batch(bench.model, te.y, te.x, te.a, ODE)
    got = mt.rmse(y_cf, te.ycf)
    bound = 0.35 * float(np.std(te.ycf))
    copy_rmse = mt.rmse(te.y, te.ycf)
    _verdict(4, got <= bound and got < copy_rmse,
             f"cf rmse {got:.3f} (<= {bound:.3f} and < factual-copy "
             f"{copy_rmse:.3f})")


def test_gate_05_cate_beats_constant_effect(bench):
    te = bench.test_ds
    tau = te.mu1 - te.mu0
    cate = api.estimate_cate(bench.model, te.x, ode_cfg=ODE)
    got = mt.pehe(cate, tau)
    bound = 0.5 * float(np.std(tau))
    const = mt.pehe(np.full(te.n, float(np.mean(cate))), tau)
    _verdict(5, got <= bound and got < const,
             f"sqrt-pehe {got:.3f} (<= {bound:.3f} and < constant-effect "
             f"{const:.3f})")


def test_cate_quadrature_is_within_1e3_of_a_gh64_reference(bench):
    x = bench.test_ds.x[:64]
    z, w = hermegauss(64)
    w = w / w.sum()
    x_std = np.repeat(bench.x_std[:64], z.size, axis=0)
    arms = [bench.scaler.inverse_y(decode_batch(bench.net, np.tile(z, 64), x_std,
                                                np.full(64 * z.size, arm), ODE))
            .reshape(64, z.size) for arm in (1, 0)]
    want = (arms[0] - arms[1]) @ w
    err = float(np.max(np.abs(api.estimate_cate(bench.model, x, ODE) - want)))
    assert err <= 1e-3, f"max |GH16 - GH64| = {err:.2e}"


def test_decode_is_strictly_increasing_in_z(bench):
    # quantile-node W1 and the grid MAP rest on this
    for arm in (0, 1):
        y = api.decode_nodes(bench.model, bench.test_ds.x, arm, api.MAP_GRID, ODE)
        assert y.shape == (200, api.MAP_GRID.size)
        worst = float(np.min(np.diff(y, axis=1)))
        assert worst > 0.0, f"arm {arm}: smallest step between grid decodes {worst:.2e}"


def test_gate_06_kl_against_known_outcome_law(bench):
    te = bench.test_ds
    m = 64
    mu = np.where(te.a[:m] == 1, te.mu1[:m], te.mu0[:m])
    y16, log_p16 = api.decode_nodes(bench.model, te.x[:m], te.a[:m], api.GAUSS_HERMITE[0],
                                    ODE, log_p=True)
    kl = mt._gh_kl(y16, log_p16, mu, 1.0)
    z, w = hermegauss(64)
    y, log_p = api.decode_nodes(bench.model, te.x[:m], te.a[:m], z, ODE, log_p=True)
    log_truth = -0.5 * math.log(2.0 * math.pi) - 0.5 * (y - mu[:, None]) ** 2
    ref = float(np.mean((log_p - log_truth) @ (w / w.sum())))
    gap = abs(kl - ref)
    _verdict(6, -1e-3 <= kl <= 0.25 and gap <= 1e-3,
             f"kl {kl:.4f} (in [-1e-3, 0.25]), |GH16 - GH64| {gap:.1e} (<= 1e-3)")


def test_gate_07_density_normalizes(bench):
    rng = np.random.default_rng(7)
    grid = np.linspace(-8.0, 8.0, 201)
    masses = []
    for _ in range(5):
        i = int(rng.integers(0, bench.test_ds.n))
        a = int(rng.integers(0, 2))
        _, lp = encode_with_logdensity_batch(
            bench.net, grid, np.tile(bench.x_std[i], (201, 1)), np.full(201, a), ODE)
        masses.append(float(np.trapezoid(np.exp(lp), grid)))
    ok = all(0.98 <= v <= 1.02 for v in masses)
    _verdict(7, ok, "masses " + ", ".join(f"{v:.4f}" for v in masses)
             + " (all in [0.98, 1.02])")


def test_gate_08_jvp_divergence_matches_central_difference(bench):
    rng = np.random.default_rng(8)
    s = 1e-4
    worst = 0.0
    for _ in range(50):
        y = float(rng.standard_normal() * 2)
        t = float(rng.random())
        i = int(rng.integers(0, bench.test_ds.n))
        a = int(rng.integers(0, 2))
        x = bench.x_std[i]
        hi, lo = forward_batch(bench.net, [y + s, y - s], t, np.tile(x, (2, 1)), a)
        [(_, f)] = block_evaluators(bench.net, x.reshape(1, -1), np.array([a]), tangent=True)
        _, jvp = f(np.array([y]), t)
        worst = max(worst, abs(float(jvp[0]) - (hi - lo) / (2.0 * s)))
    _verdict(8, worst <= 1e-6, f"worst |jvp - central difference| {worst:.2e} "
                               f"(<= 1e-6, 50 points, step 1e-4)")


def test_gate_09_w1_oracle_and_per_arm_gap(bench):
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        u, v = rng.standard_normal(n), rng.standard_normal(n)
        best = min(np.mean(np.abs(u - v[list(p)]))
                   for p in itertools.permutations(range(n)))
        worst = max(worst, abs(mt.wasserstein1(u, v) - best))

    te = bench.test_ds
    n = min(te.n, 128)
    w1_rng = np.random.default_rng([0, 777])
    gaps = {}
    for arm, mu_arm in ((0, te.mu0[:n]), (1, te.mu1[:n])):
        samp, _ = api.sample_po_batch(bench.model, te.x[:n], arm, 16, ODE,
                                      seed=arm + 1)
        truth = mu_arm[:, None] + w1_rng.standard_normal((n, 16))
        gaps[arm] = mt.wasserstein1(samp.reshape(-1), truth.reshape(-1))
    ok = worst <= 1e-12 and gaps[0] <= 0.5 and gaps[1] <= 0.5
    _verdict(9, ok, f"brute-force gap {worst:.1e} (<= 1e-12), per-arm w1 "
                    f"{gaps[0]:.3f}/{gaps[1]:.3f} (<= 0.5)")


def test_gate_10_map_selection_beats_sample_mean(bench):
    te = bench.test_ds
    n = min(te.n, 128)
    y_s, _ = api.sample_po_batch(bench.model, te.x[:n], te.a[:n], 100, ODE, seed=0)
    mean_rmse = mt.rmse(np.mean(y_s, axis=1), te.y[:n])
    map_rmse = mt.rmse(api.map_po_batch(bench.model, te.x[:n], te.a[:n], ODE), te.y[:n])
    _verdict(10, map_rmse <= mean_rmse,
             f"grid map rmse {map_rmse:.4f} <= mean-sample rmse {mean_rmse:.4f} "
             f"({api.MAP_GRID.size} grid nodes; 100 draws per row)")


def test_gate_11_abducted_noise_passes_mmd_check(bench):
    res = mt.mmd_a3_test(bench.model, bench.test_ds, ODE, seed=0)
    ok_model = res["mmd_model"] <= 2.0 * res["mmd_truth_baseline"]

    te = bench.test_ds
    n = min(te.n, 128)
    x_std = bench.x_std[:n]
    vals = []
    for rep in range(100):
        rng = np.random.default_rng([5000, rep])
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        vals.append(mt.mmd_squared(z1, x_std, te.a[:n], z2, x_std, te.a[:n]))
    vals = np.array(vals)
    se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    centred = abs(float(np.mean(vals))) <= 3.0 * se
    _verdict(11, ok_model and centred,
             f"mmd_model {res['mmd_model']:.2e} <= 2x baseline "
             f"{2 * res['mmd_truth_baseline']:.2e}; truth-vs-truth mean "
             f"{np.mean(vals):.2e} within 3 se ({3 * se:.2e})")


def test_gate_12_cli_runs_are_byte_identical(tmp_path):
    dgp = tmp_path / "dgp.cfg"
    dgp.write_text("n = 60\nd_x = 3\nseed = 2\n", encoding="utf-8")
    trc = tmp_path / "train.cfg"
    trc.write_text("max_iters = 20\nbatch_size = 30\nseed = 3\n",
                   encoding="utf-8")

    def run(tag):
        d = str(tmp_path / f"d{tag}.csv")
        m = str(tmp_path / f"m{tag}.json")
        r = str(tmp_path / f"r{tag}.json")
        assert cli.main(["generate", "--config", str(dgp), "--out", d]) == 0
        assert cli.main(["train", "--data", d, "--out", m,
                         "--train-config", str(trc)]) == 0
        assert cli.main(["eval", "--model", m, "--train-data", d,
                         "--test-data", d, "--out", r, "--n-steps", "8",
                         "--max-rows", "8"]) == 0
        return [(tmp_path / f"{p}{tag}{ext}").read_bytes()
                for p, ext in (("d", ".csv"), ("m", ".json"),
                               ("m", ".loss.csv"), ("r", ".json"))]

    same = run("A") == run("B")
    _verdict(12, same, "generate/train/eval artifacts byte-identical "
                       "across reruns")


def test_gate_13_training_loss_halves(bench):
    hist = bench.history
    it1, l1 = hist[0]
    it_last, l_last = hist[-1]
    ok = it1 == 1 and it_last == 500 and l_last < 0.5 * l1
    _verdict(13, ok, f"loss {l1:.4f} (iter 1) -> {l_last:.4f} (iter 500), "
                     f"ratio {l_last / l1:.2f} (< 0.5)")
