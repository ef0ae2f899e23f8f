"""What the benchmark reaches inside the package.

bench/tracing.py patches public functions by name, times each primitive
of the numpy backend and counts tape nodes; bench/workloads.py calls the
package's modules by attribute. Both are read here, not edited, so a
refactor of src/ that would break a benchmark run fails tier-1.
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from causalflow import (causal_api, cfm_train, cli, metrics, numkit, ode_engine,
                        scm_data, velocity_net)

_BENCH = Path(__file__).resolve().parent.parent / "bench"
_TRACING = _BENCH / "tracing.py"
_MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in
            (causal_api, cfm_train, cli, metrics, numkit, ode_engine, scm_data, velocity_net)}


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_reaches_what_it_names():
    tracing = _tracing()
    for module, name, _, _ in tracing.TARGETS:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    for backend in (velocity_net._NumpyOps, velocity_net.DualOps, numkit.Tape()):
        for op in tracing.PRIM_OPS:
            assert callable(getattr(backend, op, None)), f"{backend!r} lacks {op}"

    net = velocity_net.init(velocity_net.NetConfig(d_x=2))
    rng = np.random.default_rng(0)
    loss, tape = cfm_train.cfm_loss(net, rng.standard_normal(4), rng.standard_normal((4, 2)),
                                    [0, 1, 1, 0], rng.standard_normal(4), rng.random(4))
    assert np.isfinite(loss)
    assert isinstance(tape.nodes, list) and tape.nodes
    grads = numkit.tape_backward(tape)
    assert {k: g.shape for k, g in grads.items()} == {k: p.shape for k, p in net.params.items()}


def _check_module_references(path: Path) -> int:
    """Every <module>.<name> that a bench file uses exists, and every call binds.

    Returns the number of calls checked.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = 0
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in _MODULES):
            where = f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
            assert hasattr(_MODULES[node.value.id], node.attr), where
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in _MODULES):
            continue
        sig = inspect.signature(getattr(_MODULES[node.func.value.id], node.func.attr))
        where = f"{path.name}:{node.lineno} {node.func.value.id}.{node.func.attr}{sig}"
        keywords = {k.arg: None for k in node.keywords if k.arg is not None}
        if any(isinstance(a, ast.Starred) for a in node.args) or None in (
                k.arg for k in node.keywords):
            # a *args or **kwargs call: only its named keywords can be checked
            assert set(keywords) <= set(sig.parameters), where
        else:
            try:
                sig.bind(*node.args, **keywords)
            except TypeError as exc:
                raise AssertionError(f"{where}: {exc}") from None
        calls += 1
    return calls


def test_bench_workloads_reach_what_they_name():
    # the workloads still reach the package through these names
    assert _check_module_references(_BENCH / "workloads.py") > 20


def test_bench_tracing_reaches_what_it_names():
    # the primitive timings and the call-overhead probe: cond_features,
    # core_forward twice and forward_batch
    assert _check_module_references(_TRACING) >= 4


def _count_calls(monkeypatch, calls: dict, module, name: str) -> None:
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_train_reaches_loss_and_tape_through_module_attributes(monkeypatch):
    # the tracer patches these three attributes to split training time by layer
    calls = {}
    for module, name in ((cfm_train, "cfm_loss"), (numkit, "tape_forward"),
                         (numkit, "tape_backward")):
        _count_calls(monkeypatch, calls, module, name)
    ds = scm_data.generate_ihdp_like(scm_data.default_config(n=60, d_x=2, seed=0))
    cfm_train.train(ds, velocity_net.NetConfig(d_x=2),
                    cfm_train.TrainConfig(batch_size=16, max_iters=3))
    assert calls == {"cfm_loss": 3, "tape_forward": 3, "tape_backward": 3}


def test_a3_test_reaches_mmd_through_the_module_attribute(monkeypatch):
    # the tracer patches metrics.mmd_squared for the a3test time and peak memory
    calls = {}
    _count_calls(monkeypatch, calls, metrics, "mmd_squared")
    ds = scm_data.generate_ihdp_like(scm_data.default_config(n=40, d_x=2, seed=0))
    model = velocity_net.FlowModel(net=velocity_net.init(velocity_net.NetConfig(d_x=2)),
                                   scaler=scm_data.standardize(ds)[1])
    metrics.mmd_a3_test(model, ds, ode_engine.OdeConfig(n_steps=2))
    assert calls == {"mmd_squared": 2}
