import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalflow import numkit as nk
from causalflow.errors import ContractError, DimensionError


def _mlp_loss(p, c):
    # two-layer tanh regression head; c = [x, neg_target]
    x, neg_t = c
    h = nk.tanh(nk.badd(nk.matmul(x, p["w1"]), p["b1"]))
    out = nk.badd(nk.matmul(h, p["w2"]), p["b2"])
    return nk.mean(nk.square(nk.add(out, neg_t)))


def _mlp_params(rng, d_in=3, d_h=4):
    return {
        "w1": rng.standard_normal((d_in, d_h)),
        "b1": rng.standard_normal((1, d_h)),
        "w2": rng.standard_normal((d_h, 1)),
        "b2": rng.standard_normal((1, 1)),
    }


def _fd_grad(build, params, consts, name, i, j, h=1e-5):
    def ev(delta):
        p2 = {k: v.copy() for k, v in params.items()}
        p2[name] = p2[name].copy()
        p2[name][i, j] += delta
        val, _ = nk.tape_forward(build, p2, consts)
        return val

    return (ev(h) - ev(-h)) / (2.0 * h)


def test_mean_square_hand_value():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    val, _ = nk.tape_forward(lambda p, c: nk.mean(nk.square(c[0])), {}, [m])
    assert val == 7.5


def test_mean_empty_errors():
    tape = nk.Tape()
    empty = tape.const(np.zeros((0, 2)))
    with pytest.raises(ContractError):
        nk.mean(empty)


def test_forward_matches_straight_line_evaluation():
    rng = np.random.default_rng(0)
    params = _mlp_params(rng)
    x = rng.standard_normal((5, 3))
    target = rng.standard_normal((5, 1))

    val, _ = nk.tape_forward(_mlp_loss, params, [x, -target])

    h = np.tanh(x @ params["w1"] + params["b1"])
    out = h @ params["w2"] + params["b2"]
    expect = np.mean((out - target) ** 2)
    assert abs(val - expect) <= 1e-12


def test_backward_hand_value_1x1():
    # loss = (w*x)^2 at w=2, x=3 -> d/dw = 2*w*x^2 = 36
    def build(p, c):
        return nk.mean(nk.square(nk.matmul(p["w"], c[0])))

    _, tape = nk.tape_forward(build, {"w": np.array([[2.0]])}, [np.array([[3.0]])])
    grads = nk.tape_backward(tape)
    assert grads["w"].shape == (1, 1)
    assert abs(grads["w"][0, 0] - 36.0) <= 1e-12


def test_constant_loss_zero_gradients():
    def build(p, c):
        return nk.mean(nk.square(c[0]))

    _, tape = nk.tape_forward(build, {"w": np.eye(2)}, [np.ones((2, 2))])
    grads = nk.tape_backward(tape)
    assert grads.keys() == {"w"}
    assert np.array_equal(grads["w"], np.zeros((2, 2)))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    params = _mlp_params(rng)
    x = rng.standard_normal((6, 3))
    target = rng.standard_normal((6, 1))
    consts = [x, -target]

    _, tape = nk.tape_forward(_mlp_loss, params, consts)
    grads = nk.tape_backward(tape)

    for name, g in grads.items():
        for i in range(g.shape[0]):
            for j in range(g.shape[1]):
                fd = _fd_grad(_mlp_loss, params, consts, name, i, j)
                denom = max(abs(fd), 1e-8)
                assert abs(g[i, j] - fd) / denom < 1e-4, (name, i, j)


def test_tanh_sigmoid_mul_gradients_match_finite_differences():
    def build(p, c):
        h = nk.tanh(nk.badd(nk.matmul(c[0], p["w1"]), p["b1"]))
        g = nk.sigmoid(nk.matmul(h, p["w2"]))
        return nk.mean(nk.mul(g, nk.matmul(h, p["w3"])))

    rng = np.random.default_rng(11)
    params = {
        "w1": rng.standard_normal((3, 5)),
        "b1": rng.standard_normal((1, 5)) + 0.7,
        "w2": rng.standard_normal((5, 2)),
        "w3": rng.standard_normal((5, 2)),
    }
    consts = [rng.standard_normal((4, 3))]
    _, tape = nk.tape_forward(build, params, consts)
    grads = nk.tape_backward(tape)
    for name, g in grads.items():
        for i in range(g.shape[0]):
            for j in range(g.shape[1]):
                fd = _fd_grad(build, params, consts, name, i, j)
                denom = max(abs(fd), 1e-8)
                assert abs(g[i, j] - fd) / denom < 1e-4, (name, i, j)


def test_reused_node_accumulates_gradient():
    # loss = mean(square(w + w)) -> d/dw = 8w
    def build(p, c):
        return nk.mean(nk.square(nk.add(p["w"], p["w"])))

    w = np.array([[1.5, -0.5]])
    _, tape = nk.tape_forward(build, {"w": w}, [])
    grads = nk.tape_backward(tape)
    np.testing.assert_allclose(grads["w"], 8.0 * w / 2.0, rtol=1e-14)


def test_matmul_shape_error_names_primitive():
    tape = nk.Tape()
    a = tape.const(np.ones((2, 3)))
    b = tape.const(np.ones((2, 3)))
    with pytest.raises(DimensionError, match="matmul"):
        nk.matmul(a, b)
    with pytest.raises(DimensionError, match="add"):
        nk.add(a, tape.const(np.ones((3, 2))))
    with pytest.raises(DimensionError, match="badd"):
        nk.badd(a, tape.const(np.ones((1, 2))))
    with pytest.raises(DimensionError, match="mul"):
        nk.mul(a, tape.const(np.ones((3, 3))))


def test_backward_requires_scalar_root():
    def build(p, c):
        return nk.square(c[0])

    with pytest.raises(ContractError):
        nk.tape_forward(build, {}, [np.ones((2, 2))])
    tape = nk.Tape()
    tape.const(np.ones((1, 1)))
    with pytest.raises(ContractError):
        nk.tape_backward(tape)


def test_duplicate_param_name_rejected():
    tape = nk.Tape()
    tape.param("w", np.ones((1, 1)))
    with pytest.raises(ContractError):
        tape.param("w", np.ones((1, 1)))


small = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)


@st.composite
def _mats(draw, rows, cols):
    data = draw(st.lists(small, min_size=rows * cols, max_size=rows * cols))
    return np.array(data).reshape(rows, cols)


@given(w=_mats(2, 2), x=_mats(3, 2), scale=st.floats(min_value=0.25, max_value=4.0))
@settings(max_examples=50, deadline=None)
def test_gradient_scales_linearly(w, x, scale):
    def build_scaled(s):
        def build(p, c):
            loss = nk.mean(nk.square(nk.matmul(c[0], p["w"])))
            return nk.mul(loss, c[1])

        return build

    _, t1 = nk.tape_forward(build_scaled(1.0), {"w": w}, [x, np.array([[1.0]])])
    _, t2 = nk.tape_forward(build_scaled(scale), {"w": w}, [x, np.array([[scale]])])
    g1 = nk.tape_backward(t1)["w"]
    g2 = nk.tape_backward(t2)["w"]
    np.testing.assert_allclose(g2, scale * g1, rtol=1e-10, atol=1e-12)


@given(w=_mats(3, 3), x=_mats(2, 3))
@settings(max_examples=50, deadline=None)
def test_forward_backward_deterministic_and_finite(w, x):
    def build(p, c):
        h = nk.tanh(nk.matmul(c[0], p["w"]))
        return nk.mean(nk.square(h))

    v1, t1 = nk.tape_forward(build, {"w": w}, [x])
    v2, t2 = nk.tape_forward(build, {"w": w}, [x])
    assert v1 == v2 and np.isfinite(v1)
    g1, g2 = nk.tape_backward(t1)["w"], nk.tape_backward(t2)["w"]
    assert np.array_equal(g1, g2)
    assert np.all(np.isfinite(g1))


@given(x=_mats(4, 3))
@settings(max_examples=30, deadline=None)
def test_stable_sigmoid_matches_reference(x):
    big = np.array([[800.0, -800.0, 0.0]])
    vals = nk.sigmoid_kernel(np.vstack([x, big]))
    assert np.all(np.isfinite(vals))
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    with np.errstate(over="ignore"):
        ref = 1.0 / (1.0 + np.exp(-x))
    np.testing.assert_allclose(vals[:4], ref, rtol=1e-12)


def _masked_sigmoid(x):
    # The boolean-mask formula sigmoid_kernel replaced, kept as the reference.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_kernel_bitwise_equals_masked_formula():
    rng = np.random.default_rng(11)
    extremes = [800.0, -800.0, 0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                709.8, -745.2, 5e-324, -5e-324, 36.8, -36.8]
    x = np.concatenate([rng.standard_normal(3990) * 30.0, extremes]).reshape(-1, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = nk.sigmoid_kernel(x)
    assert got.dtype == np.float64 and got.shape == x.shape
    assert got.tobytes() == _masked_sigmoid(x).tobytes()
