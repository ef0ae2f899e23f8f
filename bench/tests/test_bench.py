"""Tests of the benchmark's own arithmetic, plus a tiny smoke run of each workload.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_median_and_quartiles():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5
    assert stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (2.75, 5.5, 8.25)
    assert stats.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(5.5 / 5.5)


def test_pooled_rate_is_total_work_over_total_time():
    # three operations of 10 rows taking 1, 2 and 5 seconds
    assert stats.pooled_rate([10 / 1, 10 / 2, 10 / 5]) == pytest.approx(30 / 8)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(range(1, 100), 90) is None  # 99 samples: 9 beyond the p90
    assert stats.percentile(range(1, 101), 90) == 90  # 100 samples: 10 beyond
    assert stats.percentile(range(1, 21), 50) == 10
    assert stats.percentile(range(1, 20), 50) is None


def _span(sid, parent, start, end, name="x.f"):
    return tracing.Span(sid, name, parent, 0, start, end)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, None, 0.0, 10.0, "bench.q"),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 5.0),    # overlaps the first child: counted once
        _span(3, 0, 8.0, 12.0),   # runs past its parent: clipped at 10
        _span(4, 1, 1.5, 2.5),    # a grandchild does not reduce the root
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_covered_handles_disjoint_nested_and_empty_intervals():
    assert tracing.covered(0, 10, []) == 0.0
    assert tracing.covered(0, 10, [(1, 2), (4, 6)]) == pytest.approx(3.0)
    assert tracing.covered(0, 10, [(1, 9), (2, 3)]) == pytest.approx(8.0)
    assert tracing.covered(0, 10, [(-5, -1), (11, 12)]) == 0.0


def test_wrappers_reach_imported_names_and_return_the_same_object():
    from causalflow import cli, ode_engine, velocity_net
    original = velocity_net.forward_batch
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ode_engine.forward_batch is velocity_net.forward_batch is not original
        assert cli.load_model is velocity_net.load_model
        sentinel = object()
        wrapped = tracer.wrap("t.f", lambda: sentinel)
        with tracer.root("q"):
            assert wrapped() is sentinel
    finally:
        tracer.uninstall()
    assert ode_engine.forward_batch is original
    names = [s.name for s in tracer.spans]
    assert names == ["bench.q", "t.f"]
    assert tracer.spans[1].parent == 0 and tracer.spans[1].query == 0


def test_gram_mmd_matches_the_package():
    import numpy as np
    from causalflow import metrics
    rng = np.random.default_rng(0)
    n = 40
    z1, z2 = rng.standard_normal(n) + 0.3, rng.standard_normal(n)
    x, a = rng.standard_normal((n, 3)), rng.integers(0, 2, n)
    want = metrics.mmd_squared(z1, x, a, z2, x, a)
    got, _ = workloads.gram_mmd(z1, x, a, z2, x, a)
    assert got == pytest.approx(want, rel=1e-9)
    assert workloads.mmd_null_sd(z1, z2, x, a) > 0


@pytest.mark.parametrize("name,trace", [("train", False), ("cohort", False),
                                        ("unit", False), ("adequacy", False),
                                        ("unit", True)])
def test_smoke_run(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.WORKLOADS["unit"], "min_rounds", 2)
    result, details = run.run(name, seed=3, seconds=0.0, trace=trace,
                              out_dir=tmp_path, setup_reps=1)
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert details["errors"] == []
    if not trace:
        assert all(m["value"] > 0 for n, m in result["metrics"].items()
                   if n != "unit_cf_ms_p90" or name != "unit")
    assert not any(p.name.startswith("work-") for p in tmp_path.iterdir())
