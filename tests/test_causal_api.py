import math
import warnings

import numpy as np
import pytest
from helpers import linear_net, symmetrize_arms

from causalflow import causal_api as api
from causalflow import ode_engine as oe
from causalflow import scm_data as sd
from causalflow import velocity_net as vn
from causalflow.errors import ContractError, DimensionError
from causalflow.scm_data import Scaler

LOG_N01 = lambda z: -0.5 * math.log(2 * math.pi) - 0.5 * z * z


def _model(net, scaler=None):
    return vn.FlowModel(net=net, scaler=scaler or Scaler.identity(net.cfg.d_x))


_A_ENTRY_POINTS = {
    "sample_po": lambda m, a: api.sample_po(m, [0.1, 0.2], a, n_samples=3),
    "sample_po_batch": lambda m, a: api.sample_po_batch(m, np.zeros((2, 2)), a, 3),
    "map_po": lambda m, a: api.map_po_batch(m, [0.1, 0.2], a),
    "map_po_batch": lambda m, a: api.map_po_batch(m, np.zeros((2, 2)), a),
    "decode_nodes": lambda m, a: api.decode_nodes(m, np.zeros((2, 2)), a, [-1.0, 0.5]),
    "predict_counterfactual": lambda m, a: api.predict_counterfactual(m, 0.4, [0.1, 0.2], a),
    "predict_counterfactual_batch":
        lambda m, a: api.predict_counterfactual_batch(m, [0.4, 0.5], np.zeros((2, 2)), a),
    "log_density": lambda m, a: api.log_density(m, 0.4, [0.1, 0.2], a),
    "log_density_batch": lambda m, a: api.log_density_batch(m, [0.4, 0.5], np.zeros((2, 2)), a),
}


@pytest.mark.parametrize("name", sorted(_A_ENTRY_POINTS))
@pytest.mark.parametrize("a", [0.5, [0, 0.5]])
def test_fractional_treatment_is_rejected(name, a):
    m = _model(vn.init(vn.NetConfig(d_x=2, init_seed=1)))
    with pytest.raises(ContractError):
        _A_ENTRY_POINTS[name](m, a)
    _A_ENTRY_POINTS[name](m, 0)  # the same call with a valid arm runs


# every public query as f(model, x, a); estimate_cate takes no treatment
_QUERIES = {
    "po": lambda m, x, a: api.sample_po_batch(m, x, a, n_samples=3),
    "po_single": lambda m, x, a: api.sample_po(m, x, a, n_samples=3),
    "cf": lambda m, x, a: api.predict_counterfactual_batch(m, [0.3], x, a),
    "cf_single": lambda m, x, a: api.predict_counterfactual(m, 0.3, x, a),
    "cate": lambda m, x, a: api.estimate_cate(m, x),
    "density": lambda m, x, a: api.log_density_batch(m, [0.3], x, a),
    "density_single": lambda m, x, a: api.log_density(m, 0.3, x, a),
    "map": lambda m, x, a: api.map_po_batch(m, x, a),
    "decode_nodes": lambda m, x, a: api.decode_nodes(m, x, a, [-1.0, 0.5]),
}


@pytest.mark.parametrize("name", sorted(_QUERIES))
def test_queries_check_conditioning(name):
    m = _model(vn.init(vn.NetConfig(d_x=2, init_seed=1)))
    if name != "cate":
        with pytest.raises(ContractError, match="treatment must be 0 or 1"):
            _QUERIES[name](m, np.zeros(2), 2)
    with pytest.raises(DimensionError, match=r"x has shape \(1, 3\), expected \(1, 2\)"):
        _QUERIES[name](m, np.zeros(3), 1)


@pytest.mark.parametrize("name", sorted(_QUERIES))
def test_each_query_checks_x_and_a_once(monkeypatch, name):
    calls = {"check_treatment": 0, "_check_x": 0}
    for fn in calls:
        for module in (sd, vn, oe, api):
            inner = getattr(module, fn, None)
            if inner is not None:
                def counting(*args, fn=fn, inner=inner):
                    calls[fn] += 1
                    return inner(*args)

                monkeypatch.setattr(module, fn, counting)
    m = _model(vn.init(vn.NetConfig(d_x=2, init_seed=1)))
    _QUERIES[name](m, np.zeros((1, 2)), 1)
    assert calls == {"check_treatment": int(name != "cate"), "_check_x": 1}


def _fails_before_integrating(monkeypatch, call, match):
    # the boundary rejects the input before any integration starts and with no
    # numpy warning on the way
    def no_integration(*args, **kwargs):
        raise AssertionError("integrated a query with non-finite input")

    for fn in ("encode_batch", "decode_batch", "encode_with_logdensity_batch",
               "decode_with_logdensity_batch"):
        monkeypatch.setattr(oe, fn, no_integration)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ContractError, match=match):
            call()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", sorted(_QUERIES))
def test_queries_reject_non_finite_x_naming_the_first_bad_row(monkeypatch, name, bad):
    m = _model(vn.init(vn.NetConfig(d_x=2, init_seed=1)))
    x = np.zeros((3, 2))
    x[2, 1] = x[1, 0] = bad
    one_row = name.endswith("_single")
    _fails_before_integrating(monkeypatch, lambda: _QUERIES[name](m, x[1] if one_row else x, 1),
                              f"x is not finite in query row {0 if one_row else 1}$")


def test_estimate_cate_on_one_inf_row_names_query_row_0(monkeypatch):
    m = _model(vn.init(vn.NetConfig(d_x=2, init_seed=1)))
    _fails_before_integrating(monkeypatch, lambda: api.estimate_cate(m, [[np.inf, 0.0]]),
                              "x is not finite in query row 0$")


@pytest.mark.parametrize("call, row", [
    (lambda m: api.predict_counterfactual(m, np.inf, [0.1, 0.2], 1), 0),
    (lambda m: api.predict_counterfactual_batch(m, [0.4, np.nan], np.zeros((2, 2)), [0, 1]), 1),
    (lambda m: api.log_density(m, -np.inf, [0.1, 0.2], 0), 0),
    (lambda m: api.log_density_batch(m, [0.4, np.inf], np.zeros((2, 2)), [1, 1]), 1),
])
def test_cf_and_density_reject_non_finite_outcomes(monkeypatch, call, row):
    m = _model(vn.init(vn.NetConfig(d_x=2, init_seed=1)))
    _fails_before_integrating(monkeypatch, lambda: call(m), f"y is not finite in query row {row}$")


@pytest.mark.parametrize("z, row", [([0.5, np.nan], 0), ([[0.5, 0.1], [0.2, -np.inf]], 1)])
def test_decode_nodes_rejects_non_finite_nodes(monkeypatch, z, row):
    m = _model(vn.init(vn.NetConfig(d_x=2, init_seed=1)))
    _fails_before_integrating(monkeypatch, lambda: api.decode_nodes(m, np.zeros((2, 2)), 1, z),
                              f"z is not finite in query row {row}$")


def test_sample_po_zero_field_returns_noise_draws():
    m = _model(linear_net(d_x=2))
    ps = api.sample_po(m, [0.0, 0.0], a=1, n_samples=50, seed=3)
    z = np.random.default_rng([3, 0]).standard_normal(50)
    np.testing.assert_array_equal(ps.y, z)
    np.testing.assert_allclose(ps.log_p, LOG_N01(z), atol=1e-14)
    assert ps.a == 1 and ps.seed == 3


def test_sample_po_scaler_shifts_and_rescales():
    sc = Scaler((0.0, 0.0), (1.0, 1.0), y_mean=2.0, y_sd=3.0)
    m = _model(linear_net(d_x=2), sc)
    ps = api.sample_po(m, [0.5, -0.5], a=0, n_samples=20, seed=1)
    z = np.random.default_rng([1, 0]).standard_normal(20)
    np.testing.assert_allclose(ps.y, 2.0 + 3.0 * z, atol=1e-14)
    np.testing.assert_allclose(ps.log_p, LOG_N01(z) - math.log(3.0), atol=1e-14)


def test_sample_po_batch_rows_are_stream_independent():
    m = _model(vn.init(vn.NetConfig(d_x=2, init_seed=4)))
    x = np.array([[0.2, -1.0], [1.5, 0.3]])
    y_b, lp_b = api.sample_po_batch(m, x, a=1, n_samples=8, seed=7)
    ps = api.sample_po(m, x[0], a=1, n_samples=8, seed=7)
    np.testing.assert_array_equal(y_b[0], ps.y)
    np.testing.assert_array_equal(lp_b[0], ps.log_p)
    for a in ([1], np.array([1]), True):  # any treatment that check_treatment takes for one row
        again = api.sample_po(m, x[0], a=a, n_samples=8, seed=7)
        assert again.a == 1 and type(again.a) is int
        np.testing.assert_array_equal(again.y, ps.y)


def test_counterfactual_arm_blind_net_returns_factual():
    net = symmetrize_arms(vn.init(vn.NetConfig(d_x=3, init_seed=2)))
    sc = Scaler((0.0,) * 3, (1.0,) * 3, y_mean=1.0, y_sd=2.0)
    m = _model(net, sc)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((12, 3))
    a = rng.integers(0, 2, 12)
    y = 1.0 + 2.0 * rng.standard_normal(12)
    y_cf = api.predict_counterfactual_batch(m, y, x, a)
    np.testing.assert_allclose(y_cf, y, atol=1e-3)


def test_counterfactual_double_flip_recovers_factual():
    m = _model(vn.init(vn.NetConfig(d_x=3, init_seed=9)))
    rng = np.random.default_rng(5)
    x = rng.standard_normal((10, 3))
    a = rng.integers(0, 2, 10)
    y = rng.standard_normal(10)
    once = api.predict_counterfactual_batch(m, y, x, a)
    twice = api.predict_counterfactual_batch(m, once, x, 1 - a)
    np.testing.assert_allclose(twice, y, atol=1e-3)


def test_counterfactual_scalar_matches_batch():
    m = _model(vn.init(vn.NetConfig(d_x=2, init_seed=6)))
    x = np.array([0.4, -0.9])
    got = api.predict_counterfactual(m, 0.7, x, 1)
    batch = api.predict_counterfactual_batch(m, [0.7], x, [1])
    assert got == batch[0]


def test_cate_zero_when_arms_identical():
    net = symmetrize_arms(vn.init(vn.NetConfig(d_x=2, init_seed=3)))
    m = _model(net)
    x = np.random.default_rng(1).standard_normal((4, 2))
    cate = api.estimate_cate(m, x)
    np.testing.assert_array_equal(cate, np.zeros(4))


def test_cate_constant_offset_heads():
    # v = -0.5 on arm 0, v = 1.5 on arm 1; decoding subtracts the drift,
    # so y1 - y0 = -2 in model space, times y_sd = 3 in original units
    net = linear_net(d_x=2)
    net.params["proj_b"][0, 0] = -0.5
    net.params["proj_b"][0, 1] = 1.5
    sc = Scaler((0.0, 0.0), (1.0, 1.0), y_mean=0.5, y_sd=3.0)
    m = _model(net, sc)
    x = np.zeros((3, 2))
    cate = api.estimate_cate(m, x)
    np.testing.assert_allclose(cate, np.full(3, -6.0), atol=1e-9)
    assert np.mean(cate) == pytest.approx(-6.0)


def test_cate_of_a_row_ignores_its_batch():
    sc = Scaler((0.2, -0.1), (1.3, 0.7), y_mean=0.4, y_sd=2.5)
    m = _model(vn.init(vn.NetConfig(d_x=2, init_seed=6)), sc)
    x = np.random.default_rng(4).standard_normal((64, 2))
    batch = api.estimate_cate(m, x, oe.OdeConfig(n_steps=8))
    for i in (0, 17, 63):
        alone = api.estimate_cate(m, x[i], oe.OdeConfig(n_steps=8))
        np.testing.assert_allclose(alone, batch[i:i + 1], rtol=1e-12, atol=0)


def test_map_po_zero_field_picks_the_node_at_zero():
    sc = Scaler((0.0, 0.0), (1.0, 1.0), y_mean=2.0, y_sd=3.0)
    m = _model(linear_net(d_x=2), sc)
    assert api.MAP_GRID[16] == 0.0
    np.testing.assert_array_equal(api.map_po_batch(m, np.zeros((3, 2)), [0, 1, 0]),
                                  np.full(3, 2.0))


def test_map_po_constant_drift_shifts_the_mode():
    # v = 0.5 decodes z to z - 0.5 with unit Jacobian: the mode sits at z = 0
    sc = Scaler((0.0, 0.0), (1.0, 1.0), y_mean=1.0, y_sd=2.0)
    m = _model(linear_net(d_x=2, intercept=0.5), sc)
    np.testing.assert_array_equal(api.map_po_batch(m, [0.3, -0.2], 1), [1.0 + 2.0 * -0.5])


def test_decode_nodes_shared_or_per_row_nodes():
    sc = Scaler((0.2, -0.1), (1.3, 0.7), y_mean=0.4, y_sd=2.5)
    m = _model(vn.init(vn.NetConfig(d_x=2, init_seed=5)), sc)
    x = np.random.default_rng(2).standard_normal((3, 2))
    z = np.array([-1.0, 0.0, 0.5, 2.0])
    cfg = oe.OdeConfig(n_steps=8)
    shared = api.decode_nodes(m, x, 1, z, cfg)
    assert shared.shape == (3, 4)
    np.testing.assert_array_equal(api.decode_nodes(m, x, 1, np.tile(z, (3, 1)), cfg), shared)
    y, log_p = api.decode_nodes(m, x, 1, z, cfg, log_p=True)
    np.testing.assert_array_equal(y, shared)
    ld = api.log_density_batch(m, y.reshape(-1), np.repeat(x, 4, axis=0), 1, cfg)
    np.testing.assert_allclose(log_p.reshape(-1), ld, atol=1e-4)
    with pytest.raises(DimensionError, match="nodes have shape"):
        api.decode_nodes(m, x, 1, np.zeros((2, 4)), cfg)
    with pytest.raises(DimensionError, match=r"nodes have shape \(\), expected \(k,\)"):
        api.decode_nodes(m, x, 1, 0.5, cfg)
    with pytest.raises(DimensionError, match=r"nodes have shape \(1, 3, 4\)"):
        api.decode_nodes(m, x, 1, np.zeros((1, 3, 4)), cfg)


def test_log_density_zero_field():
    m = _model(linear_net(d_x=2))
    got = api.log_density(m, 0.8, [0.0, 0.0], 1)
    assert got == pytest.approx(LOG_N01(0.8), abs=1e-12)
    sc = Scaler((0.0, 0.0), (1.0, 1.0), y_mean=1.0, y_sd=2.0)
    m2 = _model(linear_net(d_x=2), sc)
    got2 = api.log_density(m2, 1.0, [0.0, 0.0], 0)
    assert got2 == pytest.approx(LOG_N01(0.0) - math.log(2.0), abs=1e-12)


def test_log_density_consistent_with_sample_logp():
    sc = Scaler((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), y_mean=-0.4, y_sd=1.7)
    m = _model(vn.init(vn.NetConfig(d_x=3, init_seed=12)), sc)
    x = np.array([0.3, -0.6, 1.1])
    ps = api.sample_po(m, x, a=1, n_samples=10, seed=4)
    ld = api.log_density_batch(m, ps.y, np.tile(x, (10, 1)), 1)
    np.testing.assert_allclose(ld, ps.log_p, atol=1e-4)


def test_dimension_mismatch_names_both_sizes():
    m = _model(vn.init(vn.NetConfig(d_x=3)))
    with pytest.raises(DimensionError, match="2.*3|3.*2"):
        api.sample_po(m, [0.0, 0.0], a=1, n_samples=2)
    with pytest.raises(DimensionError):
        api.predict_counterfactual_batch(m, [1.0, 2.0], np.zeros((3, 3)), 1)
    with pytest.raises(DimensionError, match=r"x has shape \(1, 1, 3\), expected \(n, 3\)"):
        api.estimate_cate(m, np.zeros((1, 1, 3)))


def test_argument_validation():
    m = _model(vn.init(vn.NetConfig(d_x=2)))
    with pytest.raises(ContractError):
        api.sample_po(m, [0.0, 0.0], a=2, n_samples=2)
    with pytest.raises(ContractError):
        api.sample_po(m, [0.0, 0.0], a=1, n_samples=0)
    with pytest.raises(DimensionError):
        api.estimate_cate(m, np.zeros((2, 3)))


def test_sampling_is_deterministic():
    m = _model(vn.init(vn.NetConfig(d_x=2, init_seed=1)))
    a = api.sample_po(m, [0.3, 0.4], 1, n_samples=6, seed=9)
    b = api.sample_po(m, [0.3, 0.4], 1, n_samples=6, seed=9)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.log_p, b.log_p)
