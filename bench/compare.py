"""Summarise one set of benchmark result files, or compare two sets.

    python3 bench/compare.py SET_A [SET_B]

A set is a directory of result files as run.py writes them to .bench_out/
(``<workload>-seed<n>-trace0.json``). For each workload and end-to-end
metric it prints the median, the quartiles and the spread (interquartile
distance over the median) of set A. Given set B, it adds B's median, the
change from A in the metric's worse direction as a share of A's median,
and a verdict against the bound in BENCHMARK.json: ``ok``, ``WORSE``
(worse by more than the bound), or ``unresolved`` (a spread wider than the
bound, so the sets cannot tell a change of that size).
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory: Path) -> dict:
    """workload -> {"values": metric -> [values], "failed": [...], "attempted": [...]}"""
    out: dict = defaultdict(lambda: {"values": defaultdict(list), "failed": [], "attempted": []})
    for path in sorted(directory.glob("*-trace0.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        entry = out[doc["workload"]]
        result = doc["result"]
        entry["failed"].append(result["failed"])
        entry["attempted"].append(result["attempted"])
        for name, m in result["metrics"].items():
            entry["values"][name].append(m["value"])
    return out


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load_set(Path(d)) for d in argv]
    worst = 0
    for workload in (w["name"] for w in spec["workloads"]):
        a = sets[0].get(workload)
        if not a:
            continue
        fail_share = sum(a["failed"]) / sum(a["attempted"])
        print(f"\n## {workload}  runs={len(a['attempted'])}  failed share={fail_share:.4f}")
        head = f"{'metric':22} {'unit':8} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7}"
        if len(sets) == 2:
            head += f" {'B median':>11} {'B spread':>8} {'worse':>7} {'bound':>6} verdict"
        print(head)
        for name, meta in metrics.items():
            va = a["values"].get(name)
            if not va or len(va) < 2:
                continue
            q1, med, q3 = stats.quartiles(va)
            line = (f"{name:22} {meta['unit']:8} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                    f"{stats.spread(va):7.3f}")
            b = sets[1].get(workload) if len(sets) == 2 else None
            if b and len(b["values"].get(name, [])) > 1:
                vb = b["values"][name]
                med_b = stats.median(vb)
                sign = 1.0 if meta["better"] == "lower" else -1.0
                worse = sign * (med_b - med) / abs(med)
                bound = meta["bound"]
                unresolved = name != "setup_s" and max(stats.spread(va), stats.spread(vb)) > bound
                verdict = "WORSE" if worse > bound else "unresolved" if unresolved else "ok"
                worst = max(worst, verdict == "WORSE")
                line += (f" {med_b:11.5g} {stats.spread(vb):8.3f} {worse:7.3f} "
                         f"{bound:6.2f} {verdict}")
            print(line)
        if len(sets) == 2 and workload in sets[1]:
            b = sets[1][workload]
            share_b = sum(b["failed"]) / sum(b["attempted"])
            print(f"failed share A={fail_share:.6f} B={share_b:.6f} "
                  f"{'same' if share_b == fail_share else 'DIFFERENT'}")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
