import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalflow import causal_api as api
from causalflow import numkit as nk
from causalflow import velocity_net as vn
from causalflow.errors import ConfigError, ContractError, DimensionError
from causalflow.scm_data import Scaler


def _net(d_x=3, **over):
    return vn.init(vn.NetConfig(d_x=d_x, **over))


def _reference(net, ys, ts, x, a):
    """The selected arm's velocity at a time per row, in one pass of core_forward."""
    c = vn.cond_features(x, a, ts, net.cfg)
    both = vn.core_forward(vn._NumpyOps, net.params, ys.reshape(-1, 1), c, net.cfg)
    return vn._arm(both, a == 1)


def _rand_inputs(net, n, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n), rng.random(n),
            rng.standard_normal((n, net.cfg.d_x)), rng.integers(0, 2, n))


def test_hidden_dim_defaults_to_dx_plus_one():
    cfg = vn.NetConfig(d_x=7)
    assert cfg.hidden == 8
    assert vn.NetConfig(d_x=7, hidden_dim=3).hidden == 3


def test_param_count_closed_form():
    cfg = vn.NetConfig(d_x=25, hidden_dim=26)
    c, h = 25 + 1 + 1, 26
    embed = h + h
    film = 2 * (c * h + h)
    per_part = c * h + h * h + h + h * h + h
    blocks = 2 * 2 * per_part
    proj = h * 2 + 2
    assert vn.param_count(cfg) == embed + film + blocks + proj
    net = vn.init(cfg)
    assert sum(t.size for t in net.params.values()) == vn.param_count(cfg)


def test_init_seeded_and_glorot_bounded():
    n1, n2 = _net(init_seed=5), _net(init_seed=5)
    n3 = _net(init_seed=6)
    for name, t in n1.params.items():
        assert np.array_equal(t, n2.params[name])
    assert any(not np.array_equal(t, n3.params[k]) for k, t in n1.params.items())
    for name, (rows, cols), is_bias in vn.layer_shapes(n1.cfg):
        t = n1.params[name]
        assert t.shape == (rows, cols)
        if is_bias:
            assert np.all(t == 0.0)
        else:
            assert np.all(np.abs(t) <= np.sqrt(6.0 / (rows + cols)))


def test_zero_params_zero_velocity():
    net = _net()
    net.params = {k: np.zeros_like(v) for k, v in net.params.items()}
    ys, ts, x, a = _rand_inputs(net, 20)
    assert np.array_equal(_reference(net, ys, ts, x, a), np.zeros(20))


def test_heads_differ_and_are_isolated():
    net = _net(init_seed=3)
    ys, ts, x, _ = _rand_inputs(net, 50, seed=1)
    v0 = _reference(net, ys, ts, x, np.zeros(50, dtype=int))
    v1 = _reference(net, ys, ts, x, np.ones(50, dtype=int))
    # conditioning and the projection head both depend on a
    assert not np.allclose(v0, v1)
    # perturbing head 1 cannot leak into arm-0 outputs
    net.params["proj_w"][:, 1] += 100.0
    net.params["proj_b"][0, 1] -= 3.0
    np.testing.assert_array_equal(
        _reference(net, ys, ts, x, np.zeros(50, dtype=int)), v0)


def test_batched_matches_single_rows():
    net = _net(init_seed=2)
    ys, ts, x, a = _rand_inputs(net, 100, seed=4)
    batched = _reference(net, ys, ts, x, a)
    singles = np.array([vn.forward_batch(net, ys[i:i + 1], ts[i], x[i:i + 1], a[i:i + 1])[0]
                        for i in range(100)])
    np.testing.assert_allclose(batched, singles, atol=1e-12)


def test_forward_deterministic():
    net = _net(init_seed=9)
    ys, ts, x, a = _rand_inputs(net, 30, seed=5)
    assert np.array_equal(_reference(net, ys, ts, x, a), _reference(net, ys, ts, x, a))


def test_empty_batch():
    net = _net()
    out = vn.forward_batch(net, np.zeros(0), 0.5, np.zeros((0, 3)), np.zeros(0, dtype=int))
    assert out.shape == (0,)


def test_domain_and_dimension_errors():
    net = _net()
    with pytest.raises(ContractError, match="t outside"):
        vn.forward_batch(net, [0.0], 1.5, np.zeros((1, 3)), 1)
    with pytest.raises(ContractError, match="t outside"):
        vn.forward_batch(net, [0.0], -0.2, np.zeros((1, 3)), 0)
    with pytest.raises(ContractError, match="t outside"):
        vn.forward_batch(net, [0.0], float("nan"), np.zeros((1, 3)), 0)
    # within the tolerance, t is clamped to [0, 1]
    assert vn.forward_batch(net, [0.3], 1.0 + 1e-10, np.ones((1, 3)), 1) == \
        vn.forward_batch(net, [0.3], 1.0, np.ones((1, 3)), 1)
    with pytest.raises(DimensionError, match=r"t has shape \(1,\), expected a scalar"):
        vn.forward_batch(net, [0.0], [0.5], np.zeros((1, 3)), 0)
    with pytest.raises(DimensionError):
        vn.forward_batch(net, [0.0], 0.5, np.zeros((1, 4)), 1)
    with pytest.raises(ContractError):
        vn.forward_batch(net, [0.0], 0.5, np.zeros((1, 3)), 2)


def test_per_row_vector_length_mismatch_names_argument():
    net = _net(d_x=2)
    model = vn.FlowModel(net, Scaler.identity(2))
    calls = [
        ("a has shape \\(2,\\), expected \\(1,\\)",
         lambda: api.predict_counterfactual_batch(model, [0.3], np.zeros((1, 2)), [0, 1])),
        ("t has shape \\(3,\\), expected a scalar",
         lambda: vn.forward_batch(net, [0.1, 0.2], [0.1, 0.2, 0.3], np.zeros((2, 2)), 1)),
        ("a has shape \\(2,\\), expected \\(3,\\)",
         lambda: api.log_density_batch(model, [0.1, 0.2, 0.3], np.zeros((3, 2)), [0, 1])),
    ]
    for needle, call in calls:
        with pytest.raises(DimensionError, match=needle):
            call()


def test_time_encoding_dimensions():
    assert vn.NetConfig(d_x=3).cond_dim == 5
    cfg = vn.NetConfig(d_x=3, time_encoding="sinusoidal", time_frequencies=4)
    assert cfg.t_dim == 8 and cfg.cond_dim == 12
    enc = vn.encode_time(np.array([0.0, 0.25, 1.0]), cfg)
    assert enc.shape == (3, 8)
    assert np.allclose(enc[0, 0::2], 0.0) and np.allclose(enc[0, 1::2], 1.0)
    net = vn.init(cfg)
    ys, ts, x, a = _rand_inputs(net, 10)
    assert _reference(net, ys, ts, x, a).shape == (10,)


def test_time_frequencies_capped():
    top = vn.NetConfig(d_x=1, time_encoding="sinusoidal",
                       time_frequencies=vn.MAX_TIME_FREQUENCIES)
    assert np.isfinite(vn.encode_time(np.array([0.5]), top)).all()
    for encoding in ("sinusoidal", "scalar-append"):
        for bad in (-7, 0, vn.MAX_TIME_FREQUENCIES + 1, 1100):
            with pytest.raises(ContractError, match="time_frequencies"):
                vn.NetConfig(d_x=1, time_encoding=encoding, time_frequencies=bad)


def test_model_file_res_blocks_fixed_at_two(tmp_path):
    path = tmp_path / "model.json"
    vn.save_model(vn.FlowModel(_net(), Scaler.identity(3), {}), path)
    doc = json.loads(path.read_text())
    assert doc["net_config"]["n_res_blocks"] == 2
    for bad in (3, 2.0, True, "2"):
        doc["net_config"]["n_res_blocks"] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="n_res_blocks"):
            vn.load_model(path)
    del doc["net_config"]["n_res_blocks"]
    path.write_text(json.dumps(doc))
    assert vn.load_model(path).cfg == _net().cfg


def test_model_file_round_trip(tmp_path):
    net = _net(d_x=4, init_seed=11)
    scaler = Scaler((0.5, -1.0, 0.0, 2.0), (1.5, 2.0, 1.0, 0.25), 3.0, 0.125)
    model = vn.FlowModel(net, scaler, {"seed": 7, "iters": 12})
    path = tmp_path / "model.json"
    vn.save_model(model, path)
    back = vn.load_model(path)
    assert back.cfg == net.cfg
    for name, t in net.params.items():
        np.testing.assert_array_equal(back.net.params[name], t)
    assert back.scaler == scaler
    assert back.train_meta == {"seed": 7, "iters": 12}
    doc = json.loads(path.read_text())
    del doc["scaler"]
    path.write_text(json.dumps(doc))
    assert vn.load_model(path).scaler == Scaler.identity(4)


def test_save_model_failing_halfway_keeps_previous_file(tmp_path):
    path = tmp_path / "model.json"
    vn.save_model(vn.FlowModel(_net(), Scaler.identity(3), {"seed": 0}), path)
    before = path.read_bytes()
    # json.dump writes the params before it reaches the unserializable meta
    with pytest.raises(TypeError):
        vn.save_model(vn.FlowModel(_net(init_seed=1), Scaler.identity(3),
                                   {"z": object()}), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


def test_model_file_save_is_deterministic(tmp_path):
    model = vn.FlowModel(_net(init_seed=1), Scaler.identity(3), {"seed": 0})
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    vn.save_model(model, p1)
    vn.save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_model_file_version_and_tensor_errors(tmp_path):
    model = vn.FlowModel(_net(), Scaler.identity(3), {})
    path = tmp_path / "model.json"
    vn.save_model(model, path)
    doc = json.loads(path.read_text())

    doc_bad = dict(doc, format_version=99)
    path.write_text(json.dumps(doc_bad))
    with pytest.raises(ConfigError, match="format_version"):
        vn.load_model(path)

    doc_missing = json.loads(json.dumps(doc))
    del doc_missing["params"]["proj_w"]
    path.write_text(json.dumps(doc_missing))
    with pytest.raises(ConfigError, match="proj_w"):
        vn.load_model(path)

    doc_shape = json.loads(json.dumps(doc))
    doc_shape["params"]["proj_b"]["shape"] = [2, 2]
    path.write_text(json.dumps(doc_shape))
    with pytest.raises(ConfigError, match="proj_b"):
        vn.load_model(path)


def _assembled(net, n, x, a, tangent=False):
    """f(ys, t) over all n rows, each block's result written into one array."""
    blocks = list(vn.block_evaluators(net, x, a, tangent))

    def f(ys, t):
        v, dv = np.empty(n), np.empty(n)
        for rows, g in blocks:
            if tangent:
                v[rows], dv[rows] = g(ys[rows], t)
            else:
                v[rows] = g(ys[rows], t)
        return (v, dv) if tangent else v

    return f


def _busy_net(d_x=3, seed=9, **over):
    """Seeded net with nonzero biases, so every primitive sees varied input."""
    net = _net(d_x=d_x, **over)
    rng = np.random.default_rng(seed)
    for name, t in net.params.items():
        net.params[name] = t + rng.standard_normal(t.shape)
    return net


def test_forward_batch_blocks_match_one_pass():
    net = _busy_net()
    n = 5 * vn._ROW_BLOCK // 2
    ys, _, x, a = _rand_inputs(net, n, seed=3)
    got = vn.forward_batch(net, ys, 0.37, x, a)
    want = _reference(net, ys, np.full(n, 0.37), x, a)
    assert got.shape == (n,)
    assert got.tobytes() == want.tobytes()


def test_wide_nets_pass_fewer_rows_per_block():
    assert vn.block_rows(vn.NetConfig(d_x=10)) == vn._ROW_BLOCK
    net = _busy_net(d_x=20, seed=5)
    rows = vn.block_rows(net.cfg)
    assert rows < vn._ROW_BLOCK
    assert rows * 8 * max(net.cfg.hidden, net.cfg.cond_dim) <= vn._PASS_BYTES
    n = 5 * rows // 2
    ys, _, x, a = _rand_inputs(net, n, seed=4)
    want = _reference(net, ys, np.full(n, 0.25), x, a).tobytes()
    assert vn.forward_batch(net, ys, 0.25, x, a).tobytes() == want
    assert _assembled(net, n, x, a)(ys, 0.25).tobytes() == want


def test_numpy_and_tape_backends_agree_bitwise():
    net = _busy_net(d_x=4, seed=2)
    ys, ts, x, a = _rand_inputs(net, 300, seed=5)
    c = vn.cond_features(x, a, ts, net.cfg)
    y_col = ys.reshape(-1, 1)
    want = vn.core_forward(vn._NumpyOps, net.params, y_col, c, net.cfg)
    tape = nk.Tape()
    p = {name: tape.param(name, t) for name, t in net.params.items()}
    got = vn.core_forward(tape, p, y_col, c, net.cfg)
    assert got.value.tobytes() == want.tobytes()


def test_dual_backend_values_match_numpy_bitwise():
    net = _busy_net(d_x=4, seed=3)
    ys, ts, x, a = _rand_inputs(net, 300, seed=6)
    c = vn.cond_features(x, a, ts, net.cfg)
    y_col = ys.reshape(-1, 1)
    want = vn.core_forward(vn._NumpyOps, net.params, y_col, c, net.cfg)
    value, tangent = vn.core_forward(vn.DualOps, net.params,
                                     (y_col, np.ones_like(y_col)), c, net.cfg)
    assert value.tobytes() == want.tobytes()
    assert tangent.shape == want.shape


def test_tangent_matches_central_difference():
    net = _busy_net(d_x=3, seed=4)
    ys, ts, x, a = _rand_inputs(net, 200, seed=7)
    f, fd = _assembled(net, 200, x, a), _assembled(net, 200, x, a, tangent=True)
    s = 3e-6
    for t in ts[:5]:
        v, dv = fd(ys, t)
        assert v.tobytes() == f(ys, t).tobytes()
        cd = (f(ys + s, t) - f(ys - s, t)) / (2.0 * s)
        np.testing.assert_allclose(dv, cd, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("time_encoding", ["scalar-append", "sinusoidal"])
def test_block_evaluators_match_one_dual_pass_bitwise(time_encoding):
    net = _busy_net(time_encoding=time_encoding)
    n = 5 * vn._ROW_BLOCK // 2
    ys, _, x, a = _rand_inputs(net, n, seed=8)
    f = _assembled(net, n, x, a)
    fd = _assembled(net, n, x, a, tangent=True)
    y_col = ys.reshape(-1, 1)
    for t in (0.0, 0.37, 1.0 + 1e-10):
        c = vn.cond_features(x, a, np.full(n, min(t, 1.0)), net.cfg)
        both, dboth = vn.core_forward(vn.DualOps, net.params, (y_col, np.ones_like(y_col)),
                                      c, net.cfg)
        want = np.where(a == 1, both[:, 1], both[:, 0])
        want_d = np.where(a == 1, dboth[:, 1], dboth[:, 0])
        assert f(ys, t).tobytes() == want.tobytes()
        got, got_d = fd(ys, t)
        assert got.tobytes() == want.tobytes()
        assert got_d.tobytes() == want_d.tobytes()


@pytest.mark.parametrize("edit, needle", [
    (lambda d: d.pop("net_config"), "net_config"),
    (lambda d: d.pop("params"), "params"),
    (lambda d: d["net_config"].update(banana=1), "banana"),
    (lambda d: d["net_config"].pop("d_x"), "d_x"),
    (lambda d: d["net_config"].update(d_x="3"), "d_x"),
    (lambda d: d["net_config"].update(hidden_dim=2.5), "hidden_dim"),
    (lambda d: d["net_config"].update(time_encoding=7), "time_encoding"),
    (lambda d: d["net_config"].update(d_x=0), "d_x"),
    (lambda d: d["params"]["proj_w"].pop("data"), "proj_w"),
    (lambda d: d["params"]["embed_b"].update(data=["x"] * 4), "embed_b"),
    (lambda d: d["params"]["proj_b"].update(data=[float("nan"), 0.0]), "proj_b"),
    (lambda d: d["params"]["proj_b"].update(data=[10 ** 400, 0.0]), "proj_b"),
    (lambda d: d.update(scaler={"x_mean": [0.0]}), "scaler"),
    (lambda d: d["scaler"].update(x_sd=[1.0]), "scaler"),
    (lambda d: d["scaler"].update(x_mean=["a", "b", "c"]), "scaler"),
    (lambda d: d["scaler"].update(y_sd=0.0), "scaler"),
    (lambda d: d["scaler"].update(y_sd=10 ** 400), "scaler"),
    (lambda d: d.update(scaler=None), "scaler"),
    (lambda d: d.update(scaler={}), "scaler"),
    (lambda d: d.update(scaler=[]), "scaler"),
    (lambda d: d.update(scaler=0), "scaler"),
    (lambda d: d.update(scaler=""), "scaler"),
])
def test_load_model_rejects_malformed_documents(tmp_path, edit, needle):
    path = tmp_path / "model.json"
    vn.save_model(vn.FlowModel(_net(), Scaler.identity(3), {}), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=needle):
        vn.load_model(path)


_JSON_LEAF = st.one_of(
    st.sampled_from([None, True, 0, -1, 10 ** 400, float("nan"), float("inf"), "", [], {}]),
    st.integers(), st.floats(), st.text(max_size=4))
_JSON = st.recursive(_JSON_LEAF, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


@pytest.fixture(scope="module")
def model_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    vn.save_model(vn.FlowModel(_net(d_x=2, hidden_dim=4),
                               Scaler((0.5, -1.0), (1.5, 2.0), 3.0, 0.5), {"seed": 1}), path)
    return path, path.read_bytes()


def _paths(node, path=()):
    """Every key path in a JSON document; a list's first element stands for all of them."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list) and node:
        yield from _paths(node[0], path + (0,))


def _mutated_json(data, raw: bytes) -> bytes:
    """One key deleted or one value replaced, anywhere in the document."""
    doc = json.loads(raw)
    *head, key = data.draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for k in head:
        parent = parent[k]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(_JSON)
    return json.dumps(doc).encode()


def _mutated_bytes(data, raw: bytes) -> bytes:
    """A slice of the file replaced by arbitrary bytes, or arbitrary bytes alone."""
    if data.draw(st.booleans()):
        return data.draw(st.binary(max_size=64))
    i = data.draw(st.integers(0, len(raw)))
    j = data.draw(st.integers(i, min(len(raw), i + 16)))
    return raw[:i] + data.draw(st.binary(max_size=8)) + raw[j:]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_load_model_loads_or_raises_config_error(model_doc, data):
    path, raw = model_doc
    mutate = data.draw(st.sampled_from([_mutated_json, _mutated_bytes]))
    bad = path.with_name("mutated.json")
    bad.write_bytes(mutate(data, raw))
    try:
        vn.load_model(bad)
    except ConfigError:
        pass
