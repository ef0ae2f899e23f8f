import tracemalloc

import numpy as np
import pytest

from helpers import linear_net as _linear_net

from causalflow import ode_engine as oe
from causalflow import velocity_net as vn
from causalflow.errors import ContractError, DimensionError, IntegrationError


def test_linear_net_construction():
    net = _linear_net(slope=3.0, intercept=-0.5)
    ys = np.array([-1.0, 0.0, 2.0])
    out = vn.forward_batch(net, ys, 0.3, np.zeros((3, 2)), np.array([0, 1, 1]))
    np.testing.assert_allclose(out, 3.0 * ys - 0.5, atol=1e-12)


def test_rk4_step_zero_field_keeps_state():
    assert oe.rk4_step(lambda y, t: 0.0 * y, np.array([1.25]), 0.0, 0.125)[0] == 1.25


def test_rk4_exponential_accuracy_and_order():
    f = lambda y, t: y

    def err(n_steps):
        y = oe._integrate(f, np.array([1.0]), 0.0, 1.0, n_steps)
        return abs(y[0] - np.e)

    assert err(32) < 1e-6
    ratio = err(16) / err(32)
    assert 12.0 <= ratio <= 20.0


def test_rk4_step_rejects_zero_h():
    with pytest.raises(ContractError):
        oe.rk4_step(lambda y, t: y, 1.0, 0.0, 0.0)


def test_zero_field_encode_decode_identity():
    net = _linear_net()
    x = np.zeros(2)
    assert oe.encode_batch(net, [0.7], x, 1)[0] == 0.7
    assert oe.decode_batch(net, [-1.3], x, 0)[0] == -1.3


def test_constant_field_shifts_by_c():
    net = _linear_net(intercept=0.8)
    x = np.ones(2)
    z = oe.encode_batch(net, [0.5], x, 1)
    np.testing.assert_allclose(z, [1.3], atol=1e-12)
    np.testing.assert_allclose(oe.decode_batch(net, z, x, 1), [0.5], atol=1e-12)


def test_linear_field_matches_exponential_flow():
    net = _linear_net(slope=1.0)
    z = oe.encode_batch(net, [1.0], np.zeros(2), 0, oe.OdeConfig(n_steps=64))
    np.testing.assert_allclose(z, [np.e], atol=1e-7)


def test_round_trip_random_net():
    net = vn.init(vn.NetConfig(d_x=3, init_seed=2))
    rng = np.random.default_rng(0)
    ys = rng.standard_normal(40)
    x = rng.standard_normal((40, 3))
    a = rng.integers(0, 2, 40)
    cfg = oe.OdeConfig(n_steps=64)
    z = oe.encode_batch(net, ys, x, a, cfg)
    back = oe.decode_batch(net, z, x, a, cfg)
    assert np.max(np.abs(back - ys)) <= 1e-4


def test_decode_monotone_in_z():
    net = vn.init(vn.NetConfig(d_x=2, init_seed=7))
    zs = np.linspace(-3, 3, 41)
    ys = oe.decode_batch(net, zs, np.array([0.3, -0.2]), 1)
    assert np.all(np.diff(ys) > 0)


def _divergence(net, y, t, x, a):
    """dv/dy at one state, from the forward-mode evaluator."""
    _, d = vn.evaluator(net, 1, x, a, tangent=True)(np.array([y]), t)
    return float(d[0])


def test_divergence_linear_field_is_exact():
    net = _linear_net(slope=3.0, intercept=0.2)
    assert _divergence(net, 0.4, 0.5, np.zeros(2), 1) == 3.0


def test_divergence_constant_field_is_zero():
    net = _linear_net(intercept=5.0)
    assert abs(_divergence(net, 1.1, 0.25, np.zeros(2), 0)) <= 1e-9


def test_jvp_divergence_matches_central_difference():
    net = vn.init(vn.NetConfig(d_x=3, init_seed=5))
    rng = np.random.default_rng(4)
    s = 1e-4
    for _ in range(50):
        y, t = rng.standard_normal() * 2, rng.random()
        x, a = rng.standard_normal(3), int(rng.integers(0, 2))
        hi, lo = vn.forward_batch(net, [y + s, y - s], t, np.tile(x, (2, 1)), a)
        assert abs(_divergence(net, y, t, x, a) - (hi - lo) / (2.0 * s)) <= 1e-6


def test_logdensity_zero_field_standard_normal():
    net = _linear_net()
    y, logp = oe.decode_with_logdensity_batch(net, np.array([0.0]), np.zeros(2), 1)
    assert y[0] == 0.0
    np.testing.assert_allclose(logp[0], -0.5 * np.log(2 * np.pi), atol=1e-12)
    ys = np.array([-1.7, 0.3, 2.2])
    _, logp2 = oe.encode_with_logdensity_batch(net, ys, np.zeros(2), 0)
    np.testing.assert_allclose(logp2, -0.5 * np.log(2 * np.pi) - 0.5 * ys * ys,
                               atol=1e-12)


def test_logdensity_linear_field_adds_constant_divergence():
    net = _linear_net(slope=3.0)
    zs = np.array([-0.9, 0.0, 1.4])
    _, logp = oe.decode_with_logdensity_batch(net, zs, np.ones(2), 0)
    expect = -0.5 * np.log(2 * np.pi) - 0.5 * zs * zs + 3.0
    np.testing.assert_allclose(logp, expect, atol=1e-9)


def test_encode_decode_logdensity_path_consistency():
    net = vn.init(vn.NetConfig(d_x=3, init_seed=11))
    rng = np.random.default_rng(6)
    ys = rng.standard_normal(25)
    x = rng.standard_normal((25, 3))
    a = rng.integers(0, 2, 25)
    z, logp_enc = oe.encode_with_logdensity_batch(net, ys, x, a)
    back, logp_dec = oe.decode_with_logdensity_batch(net, z, x, a)
    assert np.max(np.abs(back - ys)) <= 1e-4
    assert np.max(np.abs(logp_dec - logp_enc)) <= 1e-4


def test_density_normalizes_on_random_net():
    net = vn.init(vn.NetConfig(d_x=2, init_seed=3))
    grid = np.linspace(-8.0, 8.0, 201)
    x = np.array([0.4, -1.2])
    for a in (0, 1):
        _, logp = oe.encode_with_logdensity_batch(net, grid, x, a)
        mass = np.trapezoid(np.exp(logp), grid)
        assert 0.98 <= mass <= 1.02


@pytest.mark.parametrize("t0, t1", [(0.0, 1.0), (1.0, 0.0)])
def test_integrate_is_repeated_rk4_steps_on_the_time_grid(t0, t1):
    net = vn.init(vn.NetConfig(d_x=2, init_seed=1))
    x = np.array([[0.1, 0.2]])
    f = vn.evaluator(net, 1, x, 1)
    y, h = np.array([0.5]), (t1 - t0) / 16
    for k in range(16):
        y = oe.rk4_step(f, y, t0 + k * h, h)
    assert oe._integrate(f, [0.5], t0, t1, 16).tobytes() == y.tobytes()
    flow = oe.encode_batch if t0 == 0.0 else oe.decode_batch
    assert flow(net, [0.5], x, 1, oe.OdeConfig(n_steps=16)).tobytes() == y.tobytes()


def test_config_validation():
    with pytest.raises(ContractError):
        oe.OdeConfig(n_steps=0)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_exploding_field_raises_integration_error():
    net = _linear_net(slope=3000.0)
    with pytest.raises(IntegrationError):
        oe.encode_batch(net, [1.0], np.zeros(2), 1)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("flow", [oe.encode_batch, oe.decode_batch,
                                  oe.encode_with_logdensity_batch,
                                  oe.decode_with_logdensity_batch])
def test_integration_error_names_the_rows(flow):
    net = _linear_net(slope=3000.0)
    # v = 3000 y: row 1 stays exactly 0, rows 0 and 2 blow up
    with pytest.raises(IntegrationError, match=r"in 2 row\(s\), first rows \[0, 2\]"):
        flow(net, np.array([1.0, 0.0, 2.0]), np.zeros((3, 2)), 1)


def test_batch_matches_scalar_calls():
    net = vn.init(vn.NetConfig(d_x=2, init_seed=13))
    rng = np.random.default_rng(8)
    ys = rng.standard_normal(10)
    x = rng.standard_normal((10, 2))
    a = rng.integers(0, 2, 10)
    batch = oe.encode_batch(net, ys, x, a)
    singles = np.array([oe.encode_batch(net, ys[i:i + 1], x[i:i + 1], a[i:i + 1])[0]
                        for i in range(10)])
    np.testing.assert_allclose(batch, singles, atol=1e-12)


def test_logdensity_paths_match_plain_integration_on_single_rows():
    net = vn.init(vn.NetConfig(d_x=3, init_seed=12))
    rng = np.random.default_rng(20)
    cfg = oe.OdeConfig(n_steps=16)
    for _ in range(20):
        y, x, a = rng.standard_normal(1), rng.standard_normal((1, 3)), rng.integers(0, 2, 1)
        z, _ = oe.encode_with_logdensity_batch(net, y, x, a, cfg)
        assert z.tobytes() == oe.encode_batch(net, y, x, a, cfg).tobytes()
        back, _ = oe.decode_with_logdensity_batch(net, y, x, a, cfg)
        assert back.tobytes() == oe.decode_batch(net, y, x, a, cfg).tobytes()


_ENTRY_POINTS = [
    lambda net, ys, x, a: oe.encode_batch(net, ys, x, a),
    lambda net, ys, x, a: oe.decode_batch(net, ys, x, a),
    lambda net, ys, x, a: oe.encode_with_logdensity_batch(net, ys, x, a),
    lambda net, ys, x, a: oe.decode_with_logdensity_batch(net, ys, x, a),
    lambda net, ys, x, a: vn.evaluator(net, 1, x, a, tangent=True),
]


@pytest.mark.parametrize("call", _ENTRY_POINTS)
def test_entry_points_check_conditioning(call):
    net = vn.init(vn.NetConfig(d_x=2, init_seed=1))
    ys = np.array([0.3])
    with pytest.raises(ContractError, match="treatment must be 0 or 1"):
        call(net, ys, np.zeros(2), 2)
    with pytest.raises(DimensionError, match=r"x has shape \(1, 3\), expected \(1, 2\)"):
        call(net, ys, np.zeros(3), 1)


def _reference_flow(net, ys, x, a, t0, t1, n_steps, logdet):
    """RK4 written out over a fresh all-rows core_forward at every stage."""
    cfg, n = net.cfg, ys.shape[0]
    sign = 1.0 if t1 > t0 else -1.0

    def f(s, t):
        c = vn.cond_features(x, a, np.full(n, min(max(t, 0.0), 1.0)), cfg)
        y_col = (s[0] if logdet else s).reshape(-1, 1)
        if not logdet:
            both = vn.core_forward(vn._NumpyOps, net.params, y_col, c, cfg)
            return np.where(a == 1, both[:, 1], both[:, 0])
        both, dboth = vn.core_forward(vn.DualOps, net.params, (y_col, np.ones_like(y_col)),
                                      c, cfg)
        return np.stack([np.where(a == 1, both[:, 1], both[:, 0]),
                         sign * np.where(a == 1, dboth[:, 1], dboth[:, 0])])

    h = (t1 - t0) / n_steps
    y = np.stack([ys, np.zeros_like(ys)]) if logdet else ys.copy()
    for k in range(n_steps):
        t = t0 + (k * (t1 - t0)) / n_steps
        k1 = f(y, t)
        k2 = f(y + 0.5 * h * k1, t + 0.5 * h)
        k3 = f(y + 0.5 * h * k2, t + 0.5 * h)
        k4 = f(y + h * k3, t + h)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not logdet:
        return y
    z = y[0] if t1 > t0 else ys
    return y[0], -0.5 * oe.LOG_2PI - 0.5 * z * z + y[1]


@pytest.mark.parametrize("n_steps", [10, 16])
@pytest.mark.parametrize("flow, t0, t1, logdet", [
    (oe.encode_batch, 0.0, 1.0, False),
    (oe.decode_batch, 1.0, 0.0, False),
    (oe.encode_with_logdensity_batch, 0.0, 1.0, True),
    (oe.decode_with_logdensity_batch, 1.0, 0.0, True),
])
def test_blocked_flows_match_per_stage_core_forward_bitwise(flow, t0, t1, logdet, n_steps):
    net = vn.init(vn.NetConfig(d_x=3, init_seed=4, time_encoding="sinusoidal"))
    n = 5 * vn._ROW_BLOCK // 2
    rng = np.random.default_rng(9)
    ys, x, a = rng.standard_normal(n), rng.standard_normal((n, 3)), rng.integers(0, 2, n)
    got = flow(net, ys, x, a, oe.OdeConfig(n_steps=n_steps))
    want = _reference_flow(net, ys, x, a, t0, t1, n_steps, logdet)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _count_cond_projections(monkeypatch):
    calls = []
    inner = vn.cond_projections

    def counting(ops, p, c):
        calls.append(c.shape[0])
        return inner(ops, p, c)

    monkeypatch.setattr(vn, "cond_projections", counting)
    return calls


@pytest.mark.parametrize("flow", [oe.encode_batch, oe.decode_with_logdensity_batch])
def test_each_block_projects_the_conditioning_once_per_stage_time(monkeypatch, flow):
    net = vn.init(vn.NetConfig(d_x=2, init_seed=3))
    n = 5 * vn._ROW_BLOCK // 2
    rng = np.random.default_rng(1)
    ys, x, a = rng.standard_normal(n), rng.standard_normal((n, 2)), rng.integers(0, 2, n)
    want = flow(net, ys, x, a, oe.OdeConfig(n_steps=64))
    calls = _count_cond_projections(monkeypatch)
    got = flow(net, ys, x, a, oe.OdeConfig(n_steps=64))
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # 64 steps of 4 stages: the shared midpoint and the shared step ends
    # leave 1 + 2 * 64 distinct times on the power-of-two grid
    assert calls == [vn._ROW_BLOCK] * 129 + [vn._ROW_BLOCK] * 129 + [n - 2 * vn._ROW_BLOCK] * 129


def test_inexact_time_grids_recompute_projections_and_stay_exact(monkeypatch):
    net = vn.init(vn.NetConfig(d_x=2, init_seed=3))
    rng = np.random.default_rng(2)
    ys, x, a = rng.standard_normal(7), rng.standard_normal((7, 2)), rng.integers(0, 2, 7)
    calls = _count_cond_projections(monkeypatch)
    got = oe.encode_batch(net, ys, x, a, oe.OdeConfig(n_steps=10))
    assert 1 + 2 * 10 < len(calls) <= 1 + 3 * 10
    assert got.tobytes() == _reference_flow(net, ys, x, a, 0.0, 1.0, 10, False).tobytes()


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("flow", [oe.encode_batch, oe.decode_with_logdensity_batch])
def test_integration_error_names_global_rows_of_a_later_block(flow):
    net = _linear_net(slope=3000.0)
    n = 5 * vn.block_rows(net.cfg) // 2
    ys = np.zeros(n)
    ys[vn.block_rows(net.cfg) + 7] = 1.0  # v = 3000 y blows up this row alone
    with pytest.raises(IntegrationError,
                       match=rf"in 1 row\(s\), first rows \[{vn.block_rows(net.cfg) + 7}\]"):
        flow(net, ys, np.zeros((n, 2)), 1)


def _encode_peak_bytes(net, n):
    rng = np.random.default_rng(0)
    ys, x, a = rng.standard_normal(n), rng.standard_normal((n, net.cfg.d_x)), rng.integers(0, 2, n)
    tracemalloc.start()
    try:
        oe.encode_batch(net, ys, x, a, oe.OdeConfig(n_steps=2))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_encode_memory_does_not_grow_with_rows():
    net = vn.init(vn.NetConfig(d_x=10, init_seed=1))
    two_blocks = _encode_peak_bytes(net, 2 * vn.block_rows(net.cfg))
    peak = _encode_peak_bytes(net, 20_000)
    # a query holds at most two blocks' state at once; beyond that only the
    # 8-byte output entry (and the treatment check's booleans) may grow with
    # the rows, where all-rows stage temporaries would add over 100 bytes
    assert peak < two_blocks + 16 * 20_000
    assert peak < 3.5 * 2**20
