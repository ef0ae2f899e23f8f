"""Spans around the public functions of causalflow's layers, taken from outside.

The tracer replaces a public function by a wrapper in every causalflow
module that holds it, so a caller that imported the name (cli imports
``load_model``, ode_engine imports ``forward_batch``) reaches the wrapper
too. A wrapper returns exactly what the wrapped function returns. Spans stay
in memory; the runner writes them out when the run ends. Nothing under
``src/`` changes.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from causalflow import (causal_api, cfm_train, cli, metrics, numkit, ode_engine,
                        scm_data, velocity_net)

LAYERS = ("scm_data", "numkit", "velocity_net", "cfm_train", "ode_engine",
          "causal_api", "metrics", "cli")
QUERY_KINDS = ("po", "cate", "cf", "density", "a3")
PRIM_OPS = ("matmul", "badd", "add", "mul", "tanh", "sigmoid", "halve")
PRIM_ROWS = {"r3": (3, 300), "r2k": (2000, 40), "r38k": (38400, 5)}  # rows, repeats
CLI_COMMANDS = ("generate", "train", "predict", "a3test")


def _rows(args, kwargs, result):
    return {"rows": int(np.size(args[1]))}


def _nodes(args, kwargs, result):
    return {"nodes": len(result[1].nodes)}


def _command(args, kwargs, result):
    return {"command": args[0][0]}


# (module, public name, probe run on the call's arguments and result,
#  whether to record the tracemalloc peak inside the call)
TARGETS = (
    (scm_data, "generate_ihdp_like", None, False),
    (scm_data, "load_csv", None, False),
    (scm_data, "write_csv", None, False),
    (scm_data, "standardize", None, False),
    (numkit, "tape_forward", _nodes, False),
    (numkit, "tape_backward", None, False),
    (velocity_net, "forward_batch", _rows, False),
    (velocity_net, "load_model", None, False),
    (velocity_net, "save_model", None, False),
    (cfm_train, "train", None, False),
    (cfm_train, "cfm_loss", None, False),
    (ode_engine, "encode_batch", _rows, False),
    (ode_engine, "decode_batch", _rows, False),
    (ode_engine, "encode_with_logdensity_batch", _rows, False),
    (ode_engine, "decode_with_logdensity_batch", _rows, False),
    (causal_api, "sample_po_batch", None, False),
    (causal_api, "sample_po", None, False),
    (causal_api, "predict_counterfactual_batch", None, False),
    (causal_api, "predict_counterfactual", None, False),
    (causal_api, "estimate_cate", None, False),
    (causal_api, "log_density_batch", None, False),
    (causal_api, "log_density", None, False),
    (metrics, "mmd_a3_test", None, False),
    (metrics, "mmd_squared", None, True),
    (cli, "main", _command, False),
)


@dataclass
class Span:
    id: int
    name: str  # "<layer>.<function>", or "bench.<kind>" for a root
    # start and end are process CPU times, like every timing of the benchmark
    parent: int | None
    query: int  # id of the root span, one per timed operation
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans plus the patches that produce them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = Span(sid, name, parent.id if parent else None,
                    parent.query if parent else sid, time.process_time())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.process_time()
        self._stack.pop()

    @contextmanager
    def root(self, kind: str):
        """One timed operation (or the set-up); every span inside shares its id."""
        span = self._open("bench." + kind)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn, probe=None, peak_memory: bool = False):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            if peak_memory:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if peak_memory:
                    span.info["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._close(span)
            if probe is not None:
                span.info.update(probe(args, kwargs, result))
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        if self._patches:
            return
        holders = [m for name, m in sys.modules.items()
                   if name == "causalflow" or name.startswith("causalflow.")]
        for module, name, probe, peak in TARGETS:
            original = getattr(module, name)
            layer = module.__name__.rsplit(".", 1)[-1]
            wrapper = self.wrap(f"{layer}.{name}", original, probe, peak)
            for holder in holders:
                if getattr(holder, name, None) is original:
                    setattr(holder, name, wrapper)
                    self._patches.append((holder, name, original))

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered(s.start, s.end, children[s.id]) for s in spans}


class TimingOps:
    """The package's numpy backend with a stopwatch around each primitive.

    core_forward takes it in place of the numpy backend and runs unchanged.
    """

    def __init__(self, base):
        self.us = dict.fromkeys(PRIM_OPS, 0.0)
        for op in PRIM_OPS:
            setattr(self, op, self._timed(op, getattr(base, op)))

    def _timed(self, op: str, fn):
        def call(*args):
            t0 = time.perf_counter()
            out = fn(*args)
            self.us[op] += (time.perf_counter() - t0) * 1e6
            return out

        return call


def prim_timings(net, x_std: np.ndarray, a: np.ndarray) -> tuple[dict, bool]:
    """Wall-clock microseconds per forward pass in each primitive, median over repeats.

    Returns the metrics and whether every timed pass equalled the untimed
    numpy pass bitwise.
    """
    base = velocity_net._NumpyOps
    rng = np.random.default_rng(0)
    out, exact = {}, True
    for tag, (rows, repeats) in PRIM_ROWS.items():
        pick = rng.integers(0, x_std.shape[0], rows)
        c = velocity_net.cond_features(x_std[pick], a[pick], np.full(rows, 0.5), net.cfg)
        y_col = rng.standard_normal((rows, 1))
        want = velocity_net.core_forward(base, net.params, y_col, c, net.cfg)
        samples = defaultdict(list)
        for _ in range(repeats):
            ops = TimingOps(base)
            got = velocity_net.core_forward(ops, net.params, y_col, c, net.cfg)
            exact = exact and np.array_equal(got, want)
            for op, us in ops.us.items():
                samples[op].append(us)
        for op in PRIM_OPS:
            out[f"velocity_net.prim.{op}.{tag}_us"] = float(np.median(samples[op]))
    return out, exact


def forward_call_us(net, x_row: np.ndarray, a: int, repeats: int = 300) -> float:
    """Median CPU microseconds of one untraced forward_batch call on a single row."""
    times = []
    for _ in range(repeats):
        t0 = time.process_time()
        velocity_net.forward_batch(net, [0.1], 0.5, x_row, a)
        times.append((time.process_time() - t0) * 1e6)
    return float(np.median(times))


def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def layer_metrics(spans: list[Span], counters: dict, call_us: float) -> dict[str, float]:
    """Per-layer metrics from the spans; a layer the workload never reaches reads 0.

    call_us is the cost of a 1-row forward_batch call, the per-call overhead
    that every network call pays whatever its row count.
    """
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    kind = {s.id: by_id[s.query].name.split(".", 1)[1] for s in spans}
    roots = [s for s in spans if s.parent is None]
    timed_roots = [s for s in roots if kind[s.id] != "setup"]
    n_kind = defaultdict(int)
    for s in roots:
        n_kind[kind[s.id]] += 1
    timed = [s for s in spans if s.parent is not None and kind[s.id] != "setup"]

    def named(name, pool=timed):
        return [s for s in pool if s.name == name]

    def per_query(values, q):
        return float(sum(values)) / n_kind[q] if n_kind[q] else 0.0

    m: dict[str, float] = {}
    ms = 1e3
    m["numkit.tape_forward_ms"] = _mean(s.duration for s in named("numkit.tape_forward")) * ms
    m["numkit.tape_backward_ms"] = _mean(s.duration for s in named("numkit.tape_backward")) * ms
    m["numkit.tape_nodes"] = _mean(s.info["nodes"] for s in named("numkit.tape_forward"))
    m["cfm_train.cfm_loss_self_ms"] = _mean(selfs[s.id] for s in named("cfm_train.cfm_loss")) * ms
    iters = len(named("cfm_train.cfm_loss"))
    m["cfm_train.train_self_ms"] = (
        sum(selfs[s.id] for s in named("cfm_train.train")) / iters * ms if iters else 0.0)

    fwd = named("velocity_net.forward_batch")
    for q in QUERY_KINDS:
        mine = [s for s in fwd if kind[s.id] == q]
        m[f"velocity_net.forward_calls.{q}"] = per_query([1] * len(mine), q)
        m[f"velocity_net.forward_rows.{q}"] = per_query([s.info["rows"] for s in mine], q)
    fwd_rows = sum(s.info["rows"] for s in fwd)
    fwd_time = sum(s.duration for s in fwd)
    m["velocity_net.forward_us_per_row"] = fwd_time / fwd_rows * 1e6 if fwd_rows else 0.0
    m["velocity_net.forward_us_per_call"] = fwd_time / len(fwd) * 1e6 if fwd else 0.0
    root_time = sum(s.duration for s in timed_roots)
    m["velocity_net.call_overhead_share"] = (
        len(fwd) * call_us * 1e-6 / root_time if root_time else 0.0)
    for name in ("load_model", "save_model"):
        m[f"velocity_net.{name}_ms"] = _mean(
            s.duration for s in spans if s.name == f"velocity_net.{name}") * ms

    ode = [s for s in timed if s.layer == "ode_engine"]
    for q in ("po", "cate", "cf", "density"):
        m[f"ode_engine.{q}_self_ms"] = per_query(
            [selfs[s.id] for s in ode if kind[s.id] == q], q) * ms
    queries = sum(n_kind[q] for q in QUERY_KINDS)
    m["ode_engine.nfe_per_query"] = (
        sum(1 for s in fwd if kind[s.id] in QUERY_KINDS) / queries if queries else 0.0)
    ode_ids = {s.id: s for s in ode}
    state_rows = sum(ode_ids[s.parent].info["rows"] for s in fwd if s.parent in ode_ids)
    net_rows = sum(s.info["rows"] for s in fwd if s.parent in ode_ids)
    m["ode_engine.net_rows_per_state_row"] = net_rows / state_rows if state_rows else 0.0

    api = [s for s in timed if s.layer == "causal_api"]
    for q in ("po", "cate", "cf", "density"):
        m[f"causal_api.{q}_self_ms"] = per_query(
            [selfs[s.id] for s in api if kind[s.id] == q], q) * ms

    mmd = named("metrics.mmd_squared")
    m["metrics.mmd_squared_ms"] = per_query([s.duration for s in mmd], "a3") * ms
    m["metrics.mmd_squared_peak_mb"] = max(
        (s.info["peak_bytes"] for s in mmd), default=0) / 2**20
    a3_ids = {s.id for s in named("metrics.mmd_a3_test")}
    m["metrics.a3_encode_ms"] = per_query(
        [s.duration for s in named("ode_engine.encode_batch") if s.parent in a3_ids], "a3") * ms

    for name in ("generate_ihdp_like", "load_csv", "write_csv", "standardize"):
        short = "generate" if name == "generate_ihdp_like" else name
        m[f"scm_data.{short}_ms"] = _mean(
            s.duration for s in spans if s.name == f"scm_data.{name}") * ms

    cli_spans = [s for s in spans if s.name == "cli.main"]
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_self_ms"] = _mean(
            selfs[s.id] for s in cli_spans if s.info["command"] == cmd) * ms
    timed_cli = [s for s in cli_spans if kind[s.id] != "setup"]
    m["cli.bytes_written"] = counters.get("cli_bytes", 0.0) / len(timed_cli) if timed_cli else 0.0

    for layer in LAYERS:
        busy = sum(selfs[s.id] for s in timed if s.layer == layer)
        m[f"{layer}.self_share"] = busy / root_time if root_time else 0.0
    return m
