"""Dense float64 matrices plus a tape for reverse-mode differentiation.

Matrices are plain 2-D numpy arrays. A Tape records every primitive
application in forward order; tape_backward replays it in reverse and
accumulates gradients for the leaves that were registered as parameters.
The primitive set is closed: matmul, add, badd (row-broadcast add), mul,
tanh, sigmoid, relu, mean, square.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError

Matrix = np.ndarray


def as_matrix(value, name: str = "value") -> Matrix:
    """Coerce to a 2-D float64 array; scalars become 1x1."""
    m = np.asarray(value, dtype=np.float64)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    elif m.ndim == 1:
        m = m.reshape(1, -1)
    elif m.ndim != 2:
        raise DimensionError(f"{name}: expected at most 2 dimensions, got {m.ndim}")
    return m


def sigmoid_kernel(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic; finite for every finite input.

    Evaluates 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) otherwise, both from
    e = e^-|x|, so exp never overflows and no boolean-mask indexing is
    needed. min(x, -x) rather than -|x| keeps the sign bit of a nan input.
    """
    e = np.exp(np.minimum(x, -x))
    return np.maximum(e, x >= 0) / (1.0 + e)


@dataclass
class _Node:
    op: str
    parents: tuple[int, ...]
    value: Matrix
    param: str | None = None


class Ref:
    """Handle to one node on a tape."""

    __slots__ = ("tape", "idx")

    def __init__(self, tape: "Tape", idx: int):
        self.tape = tape
        self.idx = idx

    @property
    def value(self) -> Matrix:
        return self.tape.nodes[self.idx].value

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape


@dataclass
class Tape:
    """Forward-ordered record of primitive applications."""

    nodes: list[_Node] = field(default_factory=list)
    root: int | None = None

    def _push(self, op: str, parents: tuple[int, ...], value: Matrix,
              param: str | None = None) -> Ref:
        self.nodes.append(_Node(op, parents, value, param))
        return Ref(self, len(self.nodes) - 1)

    def param(self, name: str, value) -> Ref:
        """Register a parameter leaf; tape_backward reports its gradient."""
        if any(n.param == name for n in self.nodes):
            raise ContractError(f"parameter {name!r} registered twice")
        return self._push("leaf", (), as_matrix(value, name), param=name)

    def const(self, value) -> Ref:
        """Register a data leaf; it receives no gradient entry."""
        return self._push("leaf", (), as_matrix(value))


def _same_tape(*refs: Ref) -> Tape:
    tape = refs[0].tape
    if any(r.tape is not tape for r in refs):
        raise ContractError("operands live on different tapes")
    return tape


def matmul(a: Ref, b: Ref) -> Ref:
    tape = _same_tape(a, b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dims differ, {a.shape} vs {b.shape}")
    return tape._push("matmul", (a.idx, b.idx), a.value @ b.value)


def add(a: Ref, b: Ref) -> Ref:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes differ, {a.shape} vs {b.shape}")
    return tape._push("add", (a.idx, b.idx), a.value + b.value)


def badd(m: Ref, bias: Ref) -> Ref:
    """Add a 1-row bias to every row of m."""
    tape = _same_tape(m, bias)
    if bias.shape[0] != 1 or bias.shape[1] != m.shape[1]:
        raise DimensionError(f"badd: bias {bias.shape} does not broadcast over {m.shape}")
    return tape._push("badd", (m.idx, bias.idx), m.value + bias.value)


def mul(a: Ref, b: Ref) -> Ref:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise DimensionError(f"mul: shapes differ, {a.shape} vs {b.shape}")
    return tape._push("mul", (a.idx, b.idx), a.value * b.value)


def tanh(a: Ref) -> Ref:
    return a.tape._push("tanh", (a.idx,), np.tanh(a.value))


def sigmoid(a: Ref) -> Ref:
    return a.tape._push("sigmoid", (a.idx,), sigmoid_kernel(a.value))


def relu(a: Ref) -> Ref:
    return a.tape._push("relu", (a.idx,), np.maximum(a.value, 0.0))


def mean(a: Ref) -> Ref:
    if a.value.size == 0:
        raise ContractError("mean: empty matrix")
    return a.tape._push("mean", (a.idx,), np.array([[a.value.mean()]]))


def square(a: Ref) -> Ref:
    return a.tape._push("square", (a.idx,), a.value * a.value)


def tape_forward(build, params: dict[str, Matrix], consts=()) -> tuple[float, Tape]:
    """Run build(params_refs, const_refs) on a fresh tape.

    build must return a scalar Ref (shape 1x1); its float value and the
    populated tape come back for a later tape_backward.
    """
    tape = Tape()
    p = {name: tape.param(name, value) for name, value in params.items()}
    c = [tape.const(v) for v in consts]
    out = build(p, c)
    if out.tape is not tape:
        raise ContractError("build returned a ref from a different tape")
    if out.shape != (1, 1):
        raise ContractError(f"root must be scalar, got shape {out.shape}")
    tape.root = out.idx
    return float(out.value[0, 0]), tape


def tape_backward(tape: Tape) -> dict[str, Matrix]:
    """Gradients of the scalar root with respect to every parameter leaf."""
    if tape.root is None:
        raise ContractError("tape has no recorded scalar root")
    root = tape.nodes[tape.root]
    if root.value.shape != (1, 1):
        raise ContractError(f"root must be scalar, got shape {root.value.shape}")

    grads: list[Matrix | None] = [None] * len(tape.nodes)
    grads[tape.root] = np.ones((1, 1))

    def _acc(idx: int, g: Matrix) -> None:
        if grads[idx] is None:
            grads[idx] = g.copy()
        else:
            grads[idx] += g

    for idx in range(len(tape.nodes) - 1, -1, -1):
        g = grads[idx]
        if g is None:
            continue
        node = tape.nodes[idx]
        op, parents = node.op, node.parents
        if op == "leaf":
            continue
        pvals = [tape.nodes[p].value for p in parents]
        if op == "matmul":
            _acc(parents[0], g @ pvals[1].T)
            _acc(parents[1], pvals[0].T @ g)
        elif op == "add":
            _acc(parents[0], g)
            _acc(parents[1], g)
        elif op == "badd":
            _acc(parents[0], g)
            _acc(parents[1], g.sum(axis=0, keepdims=True))
        elif op == "mul":
            _acc(parents[0], g * pvals[1])
            _acc(parents[1], g * pvals[0])
        elif op == "tanh":
            _acc(parents[0], g * (1.0 - node.value * node.value))
        elif op == "sigmoid":
            _acc(parents[0], g * node.value * (1.0 - node.value))
        elif op == "relu":
            _acc(parents[0], g * (pvals[0] > 0.0))
        elif op == "mean":
            _acc(parents[0], np.full(pvals[0].shape, g[0, 0] / pvals[0].size))
        elif op == "square":
            _acc(parents[0], g * 2.0 * pvals[0])
        else:  # pragma: no cover
            raise ContractError(f"unknown primitive {op!r}")

    out = {}
    for i, node in enumerate(tape.nodes):
        if node.param is not None:
            out[node.param] = grads[i] if grads[i] is not None else np.zeros_like(node.value)
    return out
