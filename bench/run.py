"""Run one causalflow benchmark workload and print its metrics.

    python3 bench/run.py --workload cohort --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of BENCHMARK.json with ``--trace 0``, every per-layer metric with
``--trace 1``. The line before it carries the run's machine facts and the
reference-loop timings. Result files and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import os

# One BLAS thread: on a small machine, a pool of BLAS threads adds more
# run-to-run noise than speed for these matrix sizes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPS = 3
# Probes of the other workloads' operations, run between the workload's own
# operations, give the metrics outside its rounds. They take up to this share
# of the window, spread evenly over it.
PROBE_SHARE = 0.35
MAX_PROBES = 16


def reference_ms(np) -> dict:
    """A fixed pure-numpy loop; it drifts with the machine, not with causalflow."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2000, 11))
    w = 0.3 * rng.standard_normal((11, 11))
    wall, cpu = [], []
    for _ in range(5):
        t0, c0 = time.perf_counter(), time.process_time()
        v = a
        for _ in range(200):
            v = np.tanh(v @ w)
        wall.append((time.perf_counter() - t0) * 1e3)
        cpu.append((time.process_time() - c0) * 1e3)
    return {"wall": float(np.median(wall)), "cpu": float(np.median(cpu))}


def machine_facts(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        out_dir: Path, setup_reps: int = SETUP_REPS) -> tuple[dict, dict]:
    """One run; returns (result line, details for the result file)."""
    import numpy as np

    import stats
    import tracing
    import workloads as wl

    import_s = time.process_time()  # CPU since process start: interpreter and imports
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    workload = wl.WORKLOADS[workload_name]
    work = out_dir / f"work-{workload_name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    try:
        env = wl.Env(work=work, seed=seed, tracer=tracer)
        setup_times = []
        for _ in range(setup_reps):
            t0 = wl.clock()
            if tracer:
                tracer.install()
                with tracer.root("setup"):
                    wl.common_setup(env)
                tracer.uninstall()
            else:
                wl.common_setup(env)
            setup_times.append(wl.clock() - t0)
        env.tracer = None
        t0 = wl.clock()
        wl.probe(env)  # warm-up: every operation once
        warm_s = wl.clock() - t0

        ref_before = reference_ms(np)
        ops: list = []
        probes: list = []
        round_s = {True: [], False: []}
        others = tuple(g for g in wl.PROBE_GROUPS if g != workload_name)
        probe_wall = probe_cpu = 0.0

        def probe_when_due():
            nonlocal probe_wall, probe_cpu
            now, cpu = time.perf_counter(), wl.clock()
            if len(probes) < MAX_PROBES and probe_wall < PROBE_SHARE * (now - t_window):
                tracer_was, env.tracer, env.between = env.tracer, None, None
                if tracer_was:
                    tracer.uninstall()
                probes.append(wl.probe(env, others))
                if tracer_was:
                    tracer.install()
                env.tracer, env.between = tracer_was, probe_when_due
                probe_wall += time.perf_counter() - now
                probe_cpu += wl.clock() - cpu

        env.between = probe_when_due
        rounds, t_window = 0, time.perf_counter()
        while time.perf_counter() - t_window < seconds or rounds < workload.min_rounds:
            traced = bool(tracer) and rounds % 2 == 0  # alternate, for the overhead
            if traced:
                tracer.install()
                env.tracer = tracer
            t0, p0 = wl.clock(), probe_cpu
            workload.round(env, ops, rounds)
            round_s[traced].append(wl.clock() - t0 - (probe_cpu - p0))  # without probes
            if traced:
                tracer.uninstall()
                env.tracer = None
            rounds += 1
        env.between = None
        window_s = time.perf_counter() - t_window
        ref_after = reference_ms(np)

        own = workload.finish(env, ops)
        values = {name: (stats.pooled_rate if name.endswith("_per_s") else stats.median)(
            [p[name] for p in probes]) for name in probes[0]}
        values.update(own)
        values["setup_s"] = import_s + stats.median(setup_times) + warm_s
        correct = all(op.ok for op in ops)
        if tracer:
            te = env.test
            x_std = env.model.scaler.transform_x(te.x)
            prims, exact = tracing.prim_timings(env.model.net, x_std, te.a)
            correct = correct and exact
            call_us = tracing.forward_call_us(env.model.net, x_std[0], int(te.a[0]))
            values = tracing.layer_metrics(tracer.spans, tracer.counters, call_us)
            values.update(prims)
            values["bench.trace_overhead_pct"] = 100.0 * (
                stats.median(round_s[True]) / stats.median(round_s[False]) - 1.0
                if round_s[False] else 0.0)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = {
            "correct": bool(correct),
            "attempted": len(ops),
            "failed": sum(1 for op in ops if not op.ok),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        }
        errors = sorted({f"{op.kind}: {op.error}" for op in ops if not op.ok})
        kinds = sorted({op.kind for op in ops})
        details = {
            "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "machine": machine_facts(np),
            "reference_ms": {"before": ref_before, "after": ref_after},
            "rounds": rounds, "probes": len(probes), "window_s": window_s,
            "setup_reps_s": setup_times, "warm_up_s": warm_s,
            "import_s": import_s,
            "ops": {k: sum(1 for op in ops if op.kind == k) for k in kinds},
            "wall_ms_median": {k: stats.median(op.wall * 1e3 for op in ops if op.kind == k)
                               for k in kinds},
            "errors": errors, "probe_values": probes,
        }
        if tracer:
            details["round_s"] = {"traced": round_s[True], "untraced": round_s[False]}
            spans_path = out_dir / f"spans-{workload_name}-seed{seed}.json"
            spans_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
        return result, details
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["train", "cohort", "unit", "adequacy"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "causalflow" / "__init__.py").is_file():
        print(f"error: no causalflow package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    for error in details["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({"result": result, **details}, indent=1),
                                encoding="utf-8")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
