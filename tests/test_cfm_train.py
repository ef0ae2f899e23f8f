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
    v = vn.forward_batch(net, phi, t, x, a)[0]
    expect = (v - (y1[0] - y0[0])) ** 2
    loss, _ = ct.cfm_loss(net, y0, x, a, y1, t)
    assert abs(loss - expect) <= 1e-12


def test_loss_weighted_single_row():
    net = _tiny_net(seed=3)
    y0, y1, t = np.array([0.4]), np.array([-1.1]), np.array([0.3])
    x, a = np.array([[0.2, -0.7]]), np.array([0])
    base, _ = ct.cfm_loss(net, y0, x, a, y1, t)
    weighted, _ = ct.cfm_loss(net, y0, x, a, y1, t, weights=np.array([2.5]))
    assert abs(weighted - 2.5 * base) <= 1e-12


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
    w = rng.random(n) + 0.5
    phi = ct.interpolant(y0, y1, ts)
    v = vn.forward_batch(net, phi, ts, x, a)
    expect = np.mean(w * (v - (y1 - y0)) ** 2)
    loss, _ = ct.cfm_loss(net, y0, x, a, y1, ts, w)
    assert abs(loss - expect) <= 1e-12


def test_doubled_weights_double_loss():
    net = _tiny_net(seed=5)
    rng = np.random.default_rng(2)
    n = 9
    args = (rng.standard_normal(n), rng.standard_normal((n, 2)),
            rng.integers(0, 2, n), rng.standard_normal(n), rng.random(n))
    w = rng.random(n) + 0.1
    l1, _ = ct.cfm_loss(net, *args, weights=w)
    l2, _ = ct.cfm_loss(net, *args, weights=2.0 * w)
    assert abs(l2 - 2.0 * l1) <= 1e-12


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


def test_ipw_weight_values():
    x = np.zeros((2, 1))
    ds = sd.CausalDataset(x, np.array([1, 0]), np.zeros(2))
    pm = sd.PropensityModel((0.0, 0.0))  # w(x) = 0.5 everywhere
    np.testing.assert_allclose(ct.ipw_weights(ds, pm), [2.0, 2.0])

    class Fixed:
        def predict(self, x):
            return np.full(x.shape[0], 0.25)

    np.testing.assert_allclose(ct.ipw_weights(ds, Fixed()), [4.0, 4.0 / 3.0])


def test_ipw_mean_near_two_on_balanced_data():
    ds = sd.generate_ihdp_like(sd.default_config(n=4000, d_x=3, seed=21))
    w = ct.ipw_weights(ds, sd.fit_propensity(ds))
    assert abs(w.mean() - 2.0) / 2.0 < 0.05


def test_adam_first_step_is_sign_scaled():
    cfg = ct.TrainConfig(lr=0.1)
    params = {"w": np.array([[1.0, -2.0]])}
    grads = {"w": np.array([[0.3, -0.7]])}
    state = ct._AdamState()
    ct._adam_step(params, grads, state, cfg)
    # with zero moment history the update is -lr * g/(|g|+eps)
    np.testing.assert_allclose(params["w"], [[1.0 - 0.1, -2.0 + 0.1]], atol=1e-8)


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
    net1, rep1 = ct.train(ds, vn.NetConfig(d_x=3), cfg)
    net2, rep2 = ct.train(ds, vn.NetConfig(d_x=3), cfg)
    assert rep1.loss_history == rep2.loss_history
    for name, t in net1.params.items():
        assert np.array_equal(t, net2.params[name])


def test_train_reduces_loss():
    ds, _ = _standardized(n=800)
    cfg = ct.TrainConfig(batch_size=100, max_iters=300, seed=1)
    _, rep = ct.train(ds, vn.NetConfig(d_x=3), cfg)
    first = rep.loss_history[0][1]
    assert rep.final_loss < first
    assert rep.loss_history[0][0] == 1
    assert len(rep.loss_history) == 300


def test_train_ipw_runs_and_differs():
    ds, _ = _standardized(n=300, seed=4)
    base, _ = ct.train(ds, vn.NetConfig(d_x=3), ct.TrainConfig(batch_size=32, max_iters=20))
    ipw, _ = ct.train(ds, vn.NetConfig(d_x=3),
                      ct.TrainConfig(batch_size=32, max_iters=20, ipw=True))
    assert any(not np.array_equal(base.params[k], ipw.params[k]) for k in base.params)


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
