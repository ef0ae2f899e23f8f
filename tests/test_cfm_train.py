import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalflow import cfm_train as ct
from causalflow import numkit as nk
from causalflow import scm_data as sd
from causalflow import velocity_net as vn
from causalflow.errors import ContractError, FitError, TrainingError

reals = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@given(y0=reals, y1=reals)
@settings(max_examples=40, deadline=None)
def test_interpolant_endpoints(y0, y1):
    assert ct.interpolant(y0, y1, 0.0) == y0
    assert ct.interpolant(y0, y1, 1.0) == y1
    mid = ct.interpolant(y0, y1, 0.5)
    np.testing.assert_allclose(mid, 0.5 * (y0 + y1), rtol=1e-14, atol=1e-14)


@given(y0=reals, y1=reals, t=st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=40, deadline=None)
def test_reference_velocity_is_path_derivative(y0, y1, t):
    v = ct.reference_velocity(y0, y1)
    h = 1e-6
    fd = (ct.interpolant(y0, y1, t + h) - ct.interpolant(y0, y1, t - h)) / (2 * h)
    np.testing.assert_allclose(v, fd, rtol=1e-6, atol=1e-6)
    assert v == y1 - y0


def _tiny_net(seed=0, d_x=2):
    return vn.init(vn.NetConfig(d_x=d_x, init_seed=seed))


def test_loss_single_row_matches_forward():
    net = _tiny_net(seed=3)
    y0, y1, t = np.array([0.4]), np.array([-1.1]), np.array([0.3])
    x, a = np.array([[0.2, -0.7]]), np.array([1])
    phi = ct.interpolant(y0, y1, t)
    v = vn.forward_batch(net, phi, t[0], x, a)[0]
    expect = (v - (y1[0] - y0[0])) ** 2
    loss, _ = ct.cfm_loss(net, y0, x, a, y1, t)
    assert abs(loss - expect) <= 1e-12


def test_loss_zero_for_zero_net_and_matched_noise():
    net = _tiny_net()
    net.params = {k: np.zeros_like(v) for k, v in net.params.items()}
    y0 = np.array([0.3, -0.8, 1.2])
    x = np.zeros((3, 2))
    a = np.array([0, 1, 0])
    loss, _ = ct.cfm_loss(net, y0, x, a, y0.copy(), np.array([0.2, 0.5, 0.9]))
    assert loss == 0.0


def test_loss_matches_independent_batch_average():
    net = _tiny_net(seed=8)
    rng = np.random.default_rng(1)
    n = 17
    y0, y1 = rng.standard_normal(n), rng.standard_normal(n)
    ts, x = rng.random(n), rng.standard_normal((n, 2))
    a = rng.integers(0, 2, n)
    phi = ct.interpolant(y0, y1, ts)
    c = vn.cond_features(x, a, ts, net.cfg)
    both = vn.core_forward(vn._NumpyOps, net.params, phi.reshape(-1, 1), c, net.cfg)
    v = vn._arm(both, a == 1)
    expect = np.mean((v - (y1 - y0)) ** 2)
    loss, _ = ct.cfm_loss(net, y0, x, a, y1, ts)
    assert abs(loss - expect) <= 1e-12


def test_loss_gradients_match_finite_differences():
    net = _tiny_net(seed=4)
    rng = np.random.default_rng(3)
    n = 6
    y0, y1 = rng.standard_normal(n), rng.standard_normal(n)
    ts, x = rng.random(n), rng.standard_normal((n, 2))
    a = rng.integers(0, 2, n)

    _, tape = ct.cfm_loss(net, y0, x, a, y1, ts)
    grads = nk.tape_backward(tape)

    rng2 = np.random.default_rng(9)
    names = list(net.params)
    for _ in range(20):
        name = names[rng2.integers(len(names))]
        t = net.params[name]
        i, j = rng2.integers(t.shape[0]), rng2.integers(t.shape[1])
        h = 1e-5

        def at(delta):
            saved = t[i, j]
            t[i, j] = saved + delta
            val, _ = ct.cfm_loss(net, y0, x, a, y1, ts)
            t[i, j] = saved
            return val

        fd = (at(h) - at(-h)) / (2 * h)
        denom = max(abs(fd), 1e-8)
        assert abs(grads[name][i, j] - fd) / denom < 1e-4, (name, i, j)


def test_loss_rejects_bad_batches():
    net = _tiny_net()
    with pytest.raises(ContractError):
        ct.cfm_loss(net, np.zeros(0), np.zeros((0, 2)), np.zeros(0, dtype=int),
                    np.zeros(0), np.zeros(0))
    with pytest.raises(ContractError):
        ct.cfm_loss(net, np.zeros(3), np.zeros((3, 2)), np.zeros(3, dtype=int),
                    np.zeros(2), np.zeros(3))
    with pytest.raises(ContractError):
        ct.cfm_loss(net, np.zeros(2), np.zeros((2, 2)), np.zeros(2, dtype=int),
                    np.zeros(2), np.array([0.5, 1.5]))


@pytest.mark.parametrize("a", [[0, 1, 1, -1], [0, 1, 1, 0.5], [0, 1, 1, 2]])
def test_loss_rejects_treatments_other_than_0_and_1(a):
    net, rng = _tiny_net(), np.random.default_rng(0)
    with pytest.raises(ContractError, match="treatment must be 0 or 1"):
        ct.cfm_loss(net, rng.standard_normal(4), rng.standard_normal((4, 2)), a,
                    rng.standard_normal(4), rng.random(4))


@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1, np.inf])
def test_loss_rejects_times_outside_0_1_including_nan(bad):
    net, rng = _tiny_net(), np.random.default_rng(0)
    with pytest.raises(ContractError, match="times outside"):
        ct.cfm_loss(net, rng.standard_normal(4), rng.standard_normal((4, 2)), [0, 1, 1, 0],
                    rng.standard_normal(4), [0.5, 0.2, bad, 0.9])


def _batch(rng, n, d_x):
    return (rng.standard_normal(n), rng.standard_normal((n, d_x)), rng.integers(0, 2, n),
            rng.standard_normal(n), rng.random(n))


@pytest.mark.parametrize("net_cfg", [
    vn.NetConfig(d_x=3), vn.NetConfig(d_x=3, time_encoding="sinusoidal", time_frequencies=3),
    vn.NetConfig(d_x=1, hidden_dim=4)], ids=["scalar-append", "sinusoidal", "d_x=1"])
def test_replayed_tape_equals_a_fresh_recording_bit_for_bit(net_cfg):
    net = vn.init(net_cfg)
    rng = np.random.default_rng(5)
    tape = None
    for it in range(5):
        batch = _batch(rng, 9, net_cfg.d_x)
        loss, tape = ct.cfm_loss(net, *batch, tape)
        grads = nk.tape_backward(tape)
        fresh_loss, fresh_tape = ct.cfm_loss(net, *batch)
        assert (fresh_tape is not tape) and loss == fresh_loss, it
        for name, g in nk.tape_backward(fresh_tape).items():
            assert g.tobytes() == grads[name].tobytes(), (it, name)
        for t in net.params.values():  # new values, the same arrays
            t += 0.1 * rng.standard_normal(t.shape)


def test_replay_needs_the_recorded_parameters_and_batch_size():
    net = _tiny_net()
    rng = np.random.default_rng(2)
    _, tape = ct.cfm_loss(net, *_batch(rng, 4, 2))
    with pytest.raises(ContractError, match=r"shape \(4, 4\), not \(5, 4\)"):
        ct.cfm_loss(net, *_batch(rng, 5, 2), tape)
    with pytest.raises(ContractError, match=r"shape \(4, 4\), not \(4, 5\)"):
        ct.cfm_loss(_tiny_net(d_x=3), *_batch(rng, 4, 3), tape)
    net.params = {k: v.copy() for k, v in net.params.items()}
    with pytest.raises(ContractError, match="parameter arrays"):
        ct.cfm_loss(net, *_batch(rng, 4, 2), tape)


def test_train_records_one_tape(monkeypatch):
    made = []

    class CountingTape(nk.Tape):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(nk, "Tape", CountingTape)
    ds, _ = _standardized(n=60)
    ct.train(ds, vn.NetConfig(d_x=3), ct.TrainConfig(batch_size=16, max_iters=3))
    assert len(made) == 1


def test_adam_first_step_is_sign_scaled():
    cfg = ct.TrainConfig(lr=0.1)
    theta = np.array([1.0, -2.0])
    state = ct._AdamState(theta.size)
    ct._adam_step(theta, np.array([0.3, -0.7]), state, cfg)
    # with zero moment history the update is -lr * g/(|g|+eps)
    np.testing.assert_allclose(theta, [1.0 - 0.1, -2.0 + 0.1], atol=1e-8)


def test_adam_zero_lr_keeps_params():
    ds, _ = _standardized(n=50)
    net, _ = ct.train(ds, vn.NetConfig(d_x=ds.d_x), ct.TrainConfig(max_iters=5, lr=0.0))
    fresh = vn.init(vn.NetConfig(d_x=ds.d_x))
    for name, t in fresh.params.items():
        np.testing.assert_array_equal(net.params[name], t)


def _standardized(n=400, seed=0):
    ds = sd.generate_ihdp_like(sd.default_config(n=n, d_x=3, seed=seed))
    return sd.standardize(ds)


def test_train_is_bit_deterministic():
    ds, _ = _standardized()
    cfg = ct.TrainConfig(batch_size=32, max_iters=40)
    net1, history1 = ct.train(ds, vn.NetConfig(d_x=3), cfg)
    net2, history2 = ct.train(ds, vn.NetConfig(d_x=3), cfg)
    assert history1 == history2
    for name, t in net1.params.items():
        assert np.array_equal(t, net2.params[name])


def _reference_train(ds, net_cfg, cfg):
    """train's loop with Adam applied tensor by tensor, as separate arrays."""
    net = vn.init(net_cfg)
    m = {k: np.zeros_like(p) for k, p in net.params.items()}
    v = {k: np.zeros_like(p) for k, p in net.params.items()}
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    rng = np.random.default_rng(cfg.seed)
    history = []
    for it in range(1, cfg.max_iters + 1):
        idx = rng.integers(0, ds.n, size=cfg.batch_size)
        y1 = rng.standard_normal(cfg.batch_size)
        ts = rng.random(cfg.batch_size)
        loss, tape = ct.cfm_loss(net, ds.y[idx], ds.x[idx], ds.a[idx], y1, ts)
        grads = nk.tape_backward(tape)
        c1, c2 = 1.0 - b1 ** it, 1.0 - b2 ** it
        for name, p in net.params.items():
            g = grads[name]
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * g * g
            p -= cfg.lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + cfg.adam_eps)
        if it == 1 or it % cfg.loss_log_every == 0 or it == cfg.max_iters:
            history.append((it, loss))
    return net, history


def test_flat_adam_matches_per_tensor_adam_bit_for_bit():
    ds, _ = _standardized(n=400)
    net_cfg = vn.NetConfig(d_x=3)
    cfg = ct.TrainConfig(max_iters=40, lr=5e-3, seed=2)
    net, got = ct.train(ds, net_cfg, cfg)
    ref, history = _reference_train(ds, net_cfg, cfg)
    assert list(net.params) == list(ref.params)
    for name, t in net.params.items():
        assert np.array_equal(t, ref.params[name]), name
    assert got == history and len(history) == 40


def test_trained_params_are_views_of_one_flat_vector():
    ds, _ = _standardized(n=100)
    net, _ = ct.train(ds, vn.NetConfig(d_x=3), ct.TrainConfig(batch_size=16, max_iters=2))
    flat = net.params["embed_w"].base
    assert flat.ndim == 1 and flat.size == vn.param_count(net.cfg)
    assert all(t.base is flat for t in net.params.values())


def test_train_reduces_loss():
    ds, _ = _standardized(n=800)
    cfg = ct.TrainConfig(batch_size=100, max_iters=300, seed=1)
    _, history = ct.train(ds, vn.NetConfig(d_x=3), cfg)
    assert history[-1][1] < history[0][1]
    assert history[0][0] == 1
    assert len(history) == 300


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_aborts_on_nonfinite_loss():
    ds, _ = _standardized(n=60)
    ds.y[:] = 1e200  # every batch row explodes the squared residual
    with pytest.raises(TrainingError, match="iteration 1"):
        ct.train(ds, vn.NetConfig(d_x=3), ct.TrainConfig(batch_size=16, max_iters=5))


def test_train_requires_both_arms():
    ds, _ = _standardized(n=60)
    ds.a[:] = 1
    with pytest.raises(FitError):
        ct.train(ds, vn.NetConfig(d_x=3), ct.TrainConfig(max_iters=2))


def test_train_config_validation():
    with pytest.raises(ContractError):
        ct.TrainConfig(batch_size=0)
    with pytest.raises(ContractError):
        ct.TrainConfig(lr=-1.0)


@pytest.mark.parametrize("key, value", [
    ("lr", float("nan")), ("lr", float("inf")),
    ("adam_beta1", 1.0), ("adam_beta1", -0.1), ("adam_beta1", float("nan")),
    ("adam_beta2", 1.0), ("adam_beta2", float("nan")),
    ("adam_eps", 0.0), ("adam_eps", float("nan")), ("adam_eps", float("inf")),
])
def test_train_config_rejects_non_finite_or_out_of_range_optimizer_constants(key, value):
    with pytest.raises(ContractError, match=key):
        ct.TrainConfig(**{key: value})
