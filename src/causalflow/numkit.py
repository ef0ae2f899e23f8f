"""Reverse-mode differentiation as an ops backend for core_forward.

Tape is the reverse-mode twin of the numpy backend: its primitives matmul,
add, badd (row-broadcast add), mul, tanh, sigmoid and halve, plus mean and
square for a loss, compute their values with the numpy backend's
expressions. A Var is a value that carries a gradient; a bare ndarray is a
constant. For each Var operand, a primitive records a pullback that maps
the gradient of its output to that operand's share. tape_backward runs the
pullbacks in reverse order and sums the shares for every parameter. Each
primitive also keeps a step that recomputes its value in place; a replay
runs them all, so values and pullbacks see the arrays' current contents.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import ContractError


def sigmoid_kernel(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic; finite for every finite input.

    Evaluates 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) otherwise, both from
    e = e^-|x|, so exp never overflows and no boolean-mask indexing is
    needed. min(x, -x) rather than -|x| keeps the sign bit of a nan input.
    """
    e = np.exp(np.minimum(x, -x))
    return np.divide(np.maximum(e, x >= 0), 1.0 + e, out=out)


class Var:
    """A value on a tape; idx is the tape node that holds its pullbacks."""

    __slots__ = ("value", "idx")

    def __init__(self, value: np.ndarray, idx: int):
        self.value = value
        self.idx = idx


def _value(u) -> np.ndarray:
    return u.value if type(u) is Var else u


def _identity(g):
    return g


_col_sum = partial(np.add.reduce, axis=0, keepdims=True)


def _mean(v, out=None):
    """v.mean() as a 1x1 array: np.mean's sum, then its division by the count."""
    return np.divide(np.add.reduce(v, axis=None, keepdims=True, out=out), v.size, out=out)


def _step(fn, *args):
    """fn(*args), and the step that recomputes it in place: fn(*args, value), as for a ufunc."""
    value = fn(*args)
    return value, partial(fn, *args, value)


class Tape:
    """Forward-ordered nodes, one per Var: its (parent node, pullback) pairs.

    A leaf, such as a parameter, has no pairs. steps holds the forward step
    of every primitive call, one on constants alone too.
    """

    def __init__(self):
        self.nodes: list[tuple] = []
        self.steps: list = []
        self.params: dict[str, Var] = {}
        self.root: Var | None = None
        # arrays the recorded steps read, which a caller rewrites before a replay
        self.inputs: tuple = ()

    def _push(self, value: np.ndarray, node: tuple) -> Var:
        self.nodes.append(node)
        return Var(value, len(self.nodes) - 1)

    def _record(self, value: np.ndarray, step, *edges):
        """value as a Var with the pullbacks of its Var operands; step is kept for replay.

        edges are (operand, pullback) pairs. When no operand is a Var,
        value is a constant and comes back as a bare array, with no node.
        """
        self.steps.append(step)
        node = tuple((u.idx, pull) for u, pull in edges if type(u) is Var)
        return self._push(value, node) if node else value

    def param(self, name: str, value: np.ndarray) -> Var:
        """Register a parameter leaf; tape_backward reports its gradient."""
        if name in self.params:
            raise ContractError(f"parameter {name!r} registered twice")
        self.params[name] = var = self._push(value, ())
        return var

    def matmul(self, a, b):
        av, bv = _value(a), _value(b)
        return self._record(*_step(np.matmul, av, bv),
                            (a, lambda g: g @ bv.T), (b, lambda g: av.T @ g))

    def add(self, a, b):
        return self._record(*_step(np.add, _value(a), _value(b)), (a, _identity), (b, _identity))

    def badd(self, m, bias):
        """Add a 1-row bias to every row of m."""
        return self._record(*_step(np.add, _value(m), _value(bias)),
                            (m, _identity), (bias, _col_sum))

    def mul(self, a, b):
        av, bv = _value(a), _value(b)
        return self._record(*_step(np.multiply, av, bv),
                            (a, lambda g: g * bv), (b, lambda g: g * av))

    def tanh(self, u):
        t, step = _step(np.tanh, _value(u))
        return self._record(t, step, (u, lambda g: g * (1.0 - t * t)))

    def sigmoid(self, u):
        s, step = _step(sigmoid_kernel, _value(u))
        return self._record(s, step, (u, lambda g: g * s * (1.0 - s)))

    def halve(self, u):
        return self._record(*_step(np.multiply, _value(u), 0.5), (u, lambda g: g * 0.5))

    def mean(self, u):
        v = _value(u)
        if v.size == 0:
            raise ContractError("mean: empty matrix")
        return self._record(*_step(_mean, v),
                            (u, lambda g: np.full(v.shape, g[0, 0] / v.size)))

    def square(self, u):
        v = _value(u)
        return self._record(*_step(np.multiply, v, v), (u, lambda g: g * 2.0 * v))


def tape_forward(build, params: dict[str, np.ndarray], tape: Tape | None = None
                 ) -> tuple[float, Tape]:
    """Run build(tape, vars) on a fresh tape; vars maps each name in params to a Var.

    build must return a 1x1 loss; its float value and the populated tape
    come back for a later tape_backward. Given a tape that an earlier call
    recorded, tape_forward replays its steps instead of calling build.
    params must then hold the arrays that call recorded, changed in place,
    as must every constant that build read.
    """
    if tape is not None:
        if tape.root is None or tape.params.keys() != params.keys() or any(
                v.value is not params[name] for name, v in tape.params.items()):
            raise ContractError("replay needs a recorded tape and the parameter arrays it recorded")
        for step in tape.steps:
            step()
        return float(tape.root.value[0, 0]), tape
    tape = Tape()
    out = build(tape, {name: tape.param(name, value) for name, value in params.items()})
    if type(out) is not Var:  # no parameter reaches the loss: every gradient is zero
        out = tape._push(out, ())
    if out.value.shape != (1, 1):
        raise ContractError(f"root must be scalar, got shape {out.value.shape}")
    tape.root = out
    return float(out.value[0, 0]), tape


def tape_backward(tape: Tape) -> dict[str, np.ndarray]:
    """Gradients of the scalar root with respect to every parameter leaf."""
    if tape.root is None:
        raise ContractError("tape has no recorded scalar root")
    grads: list[np.ndarray | None] = [None] * len(tape.nodes)
    grads[tape.root.idx] = np.ones((1, 1))
    for idx in range(len(tape.nodes) - 1, -1, -1):
        g = grads[idx]
        if g is None:
            continue
        for parent, pull in tape.nodes[idx]:
            share = pull(g)
            # never +=: an identity pullback hands g itself to each parent
            grads[parent] = share if grads[parent] is None else grads[parent] + share
    return {name: grads[v.idx] if grads[v.idx] is not None else np.zeros_like(v.value)
            for name, v in tape.params.items()}
