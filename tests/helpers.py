"""Hand-wired nets with known closed-form behaviour, shared across test modules."""

import numpy as np

from causalflow import ode_engine as oe
from causalflow import velocity_net as vn


def integrate_end_state(f, y0, t0, t1, n_steps):
    """ode_engine's RK4 loop, its end state paired as (state, None).

    The pair is the shape gate 02 unpacks; the loop itself returns the
    state alone.
    """
    return oe._integrate(f, y0, t0, t1, n_steps), None


def linear_net(d_x=2, slope=0.0, intercept=0.0):
    """Zero out a fresh net, then wire v(y) = slope*y + intercept on both heads.

    Path: embed passes y through coordinate 0, FiLM scale keeps it, the two
    residual blocks halve it twice (zero gates), so the projection needs a
    factor of 4 to undo that. proj_b enters after the blocks, unhalved.
    """
    cfg = vn.NetConfig(d_x=d_x)
    net = vn.init(cfg)
    net.params = {k: np.zeros_like(t) for k, t in net.params.items()}
    net.params["embed_w"][0, 0] = 1.0
    net.params["film_scale_b"][0, 0] = 1.0
    net.params["proj_w"][0, :] = 4.0 * slope
    net.params["proj_b"][0, :] = intercept
    return net


def symmetrize_arms(net):
    """Make the velocity field ignore the treatment arm entirely.

    Zeroes the arm feature's row in every matrix that consumes the
    conditioning vector and ties the two projection heads together.
    """
    d_x = net.cfg.d_x
    consume_cond = ["film_scale_w", "film_shift_w"]
    for i in range(2):
        for part in ("gate", "value"):
            consume_cond.append(f"block{i}_{part}_w1c")
    for name in consume_cond:
        net.params[name][d_x, :] = 0.0
    net.params["proj_w"][:, 1] = net.params["proj_w"][:, 0]
    net.params["proj_b"][0, 1] = net.params["proj_b"][0, 0]
    return net
