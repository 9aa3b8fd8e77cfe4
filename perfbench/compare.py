#!/usr/bin/env python3
"""Compare benchmark results with the committed baseline.

    python3 perfbench/compare.py [RESULT.json ...]
    python3 perfbench/compare.py --record [RESULT.json ...]

Results default to every ``perfbench/out/*-trace[01].json`` written by
``run.py``. Several runs of one workload and trace mode reduce to the
median of each metric. The first form prints, workload by workload, each
metric's baseline, current value, delta and ratio (current / baseline),
and marks an end-to-end metric ``WORSE`` when it is worse than the
baseline by more than its bound in ``BENCHMARK.json``. ``--record``
writes those medians to ``perfbench/baseline.json`` instead: the
trajectory point of the commit that produced the results.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
SPEC = HERE.parent / "BENCHMARK.json"


def load(paths: list[Path]) -> tuple[dict, dict]:
    """``({workload: {trace: {metric: {value, unit, runs}}}}, env)``; the
    env is the first file's, with the seeds of all of them."""
    runs: dict = {}
    env: dict = {}
    seeds = set()
    for path in paths:
        res = json.loads(path.read_text())
        env = env or dict(res["env"])
        seeds.add(res["env"]["seed"])
        per = runs.setdefault(res["workload"], {}) \
            .setdefault(f"trace{res['trace']}", {})
        for name, m in res["metrics"].items():
            per.setdefault(name, (m["unit"], []))[1].append(m["value"])
    table = {wl: {mode: {name: {"value": statistics.median(vals),
                                "unit": unit, "runs": len(vals)}
                         for name, (unit, vals) in metrics.items()}
                  for mode, metrics in modes.items()}
             for wl, modes in runs.items()}
    env.pop("seed", None)
    env["seeds"] = sorted(seeds)
    return table, env


def compare(current: dict, baseline: dict, spec: dict) -> list[str]:
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    lines = []
    for wl in sorted(current):
        for mode in sorted(current[wl]):
            base = baseline.get("workloads", {}).get(wl, {}).get(mode, {})
            lines.append(f"== {wl} ({mode})")
            lines.append(f"{'metric':28s} {'unit':6s} {'baseline':>13s} "
                         f"{'current':>13s} {'delta':>13s} {'ratio':>8s}")
            for name, cur in current[wl][mode].items():
                b = base.get(name)
                if b is None:
                    lines.append(f"{name:28s} {cur['unit']:6s} "
                                 f"{'-':>13s} {cur['value']:13.6g}")
                    continue
                delta = cur["value"] - b["value"]
                ratio = cur["value"] / b["value"] if b["value"] else \
                    float("nan")
                flag = ""
                if name in bounds:
                    bound, direction = bounds[name]
                    worse = delta if direction == "lower" else -delta
                    if b["value"] and worse / abs(b["value"]) > bound:
                        flag = f"  WORSE (bound {bound:.0%})"
                elif name not in better:
                    flag = "  (not in BENCHMARK.json)"
                lines.append(f"{name:28s} {cur['unit']:6s} "
                             f"{b['value']:13.6g} {cur['value']:13.6g} "
                             f"{delta:+13.6g} {ratio:8.4f}{flag}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("results", nargs="*", type=Path)
    ap.add_argument("--record", action="store_true",
                    help="write the medians to perfbench/baseline.json")
    args = ap.parse_args(argv)
    paths = args.results or sorted((HERE / "out").glob("*-trace[01].json"))
    if not paths:
        print("compare: no result files (run perfbench/run.py first)",
              file=sys.stderr)
        return 2
    current, env = load(paths)
    if args.record:
        BASELINE.write_text(json.dumps(
            {"env": env, "workloads": current}, indent=1) + "\n")
        print(f"wrote {BASELINE} from {len(paths)} result files")
        return 0
    baseline = json.loads(BASELINE.read_text())
    print(f"baseline: commit {baseline['env'].get('git_commit')}, "
          f"source {baseline['env']['source_sha256'][:12]}")
    print("\n".join(compare(current, baseline,
                            json.loads(SPEC.read_text()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
