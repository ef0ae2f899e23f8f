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
        y, _ = oe._integrate(f, np.array([1.0]), 0.0, 1.0, n_steps)
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
    assert oe.encode(net, 0.7, x, 1) == 0.7
    assert oe.decode(net, -1.3, x, 0) == -1.3


def test_constant_field_shifts_by_c():
    net = _linear_net(intercept=0.8)
    x = np.ones(2)
    z = oe.encode(net, 0.5, x, 1)
    np.testing.assert_allclose(z, 1.3, atol=1e-12)
    np.testing.assert_allclose(oe.decode(net, z, x, 1), 0.5, atol=1e-12)


def test_linear_field_matches_exponential_flow():
    net = _linear_net(slope=1.0)
    z = oe.encode(net, 1.0, np.zeros(2), 0, oe.OdeConfig(n_steps=64))
    np.testing.assert_allclose(z, np.e, atol=1e-7)


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


def test_divergence_linear_field_is_exact():
    net = _linear_net(slope=3.0, intercept=0.2)
    assert oe.divergence(net, 0.4, 0.5, np.zeros(2), 1) == 3.0


def test_divergence_constant_field_is_zero():
    net = _linear_net(intercept=5.0)
    assert abs(oe.divergence(net, 1.1, 0.25, np.zeros(2), 0)) <= 1e-9


def test_jvp_divergence_matches_central_difference():
    net = vn.init(vn.NetConfig(d_x=3, init_seed=5))
    rng = np.random.default_rng(4)
    s = 1e-4
    for _ in range(50):
        y, t = rng.standard_normal() * 2, rng.random()
        x, a = rng.standard_normal(3), int(rng.integers(0, 2))
        hi, lo = vn.forward_batch(net, [y + s, y - s], t, np.tile(x, (2, 1)), a)
        assert abs(oe.divergence(net, y, t, x, a) - (hi - lo) / (2.0 * s)) <= 1e-6


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


def test_trajectory_endpoints():
    net = vn.init(vn.NetConfig(d_x=2, init_seed=1))
    cfg = oe.OdeConfig(n_steps=16, save_trajectory=True)
    x = np.array([0.1, 0.2])
    res = oe.integrate(net, [0.5], x, 1, cfg, direction="encode")
    assert len(res.trajectory) == 17
    t_first, y_first = res.trajectory[0]
    t_last, y_last = res.trajectory[-1]
    assert t_first == 0.0 and y_first[0] == 0.5
    assert t_last == 1.0 and y_last[0] == res.y_end[0]
    assert res.y_end[0] == oe.encode(net, 0.5, x, 1, oe.OdeConfig(n_steps=16))


def test_config_validation():
    with pytest.raises(ContractError):
        oe.OdeConfig(n_steps=0)
    with pytest.raises(ContractError):
        oe.integrate(vn.init(vn.NetConfig(d_x=2)), [0.0], np.zeros(2), 1,
                     direction="sideways")


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_exploding_field_raises_integration_error():
    net = _linear_net(slope=3000.0)
    with pytest.raises(IntegrationError):
        oe.encode(net, 1.0, np.zeros(2), 1)


def test_batch_matches_scalar_calls():
    net = vn.init(vn.NetConfig(d_x=2, init_seed=13))
    rng = np.random.default_rng(8)
    ys = rng.standard_normal(10)
    x = rng.standard_normal((10, 2))
    a = rng.integers(0, 2, 10)
    batch = oe.encode_batch(net, ys, x, a)
    singles = np.array([oe.encode(net, ys[i], x[i], int(a[i])) for i in range(10)])
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
    lambda net, ys, x, a: oe.encode(net, ys[0], x, a),
    lambda net, ys, x, a: oe.decode(net, ys[0], x, a),
    lambda net, ys, x, a: oe.integrate(net, ys, x, a),
    lambda net, ys, x, a: oe.encode_with_logdensity_batch(net, ys, x, a),
    lambda net, ys, x, a: oe.decode_with_logdensity_batch(net, ys, x, a),
    lambda net, ys, x, a: oe.divergence(net, ys[0], 0.5, x, a),
]


@pytest.mark.parametrize("call", _ENTRY_POINTS)
def test_entry_points_check_conditioning(call):
    net = vn.init(vn.NetConfig(d_x=2, init_seed=1))
    ys = np.array([0.3])
    with pytest.raises(ContractError, match="treatment must be 0 or 1"):
        call(net, ys, np.zeros(2), 2)
    with pytest.raises(DimensionError, match=r"x has shape \(1, 3\), expected \(1, 2\)"):
        call(net, ys, np.zeros(3), 1)
