"""What the benchmark's tracer reaches inside the package.

bench/tracing.py patches public functions by name, times each primitive
of the numpy backend and counts tape nodes. It is read here, not edited,
so a refactor of src/ that would break a benchmark run fails tier-1.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from causalflow import cfm_train, numkit, velocity_net

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
