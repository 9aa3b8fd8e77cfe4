#!/usr/bin/env python3
"""The repository's benchmark: one workload per process, closed loop.

Run from the repository root::

    python3 perfbench/run.py --workload numeric_refactor --seed 1 \\
        --seconds 40 --trace 0

Workloads (``perfbench/workloads.py``): ``numeric_refactor`` and
``service_mix`` (the two in ``BENCHMARK.json``), and ``costonly_plan``
(runnable, not gated; see its docstring).

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` is the separate traced run: half the time untraced, half
with :class:`tracer.Tracer` wrapping each layer's public functions; it
reports the per-layer metrics and the tracing overhead (traced vs
untraced warm median). Every output is checked (see ``workloads.py``);
the last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``. A fuller result — environment, sample counts,
failures — goes to ``perfbench/out/<workload>-seed<n>-trace<t>.json``,
and a traced run also writes Chrome trace-event JSON next to it.

BLAS is pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import os
import time

T_START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import tracer  # noqa: E402  (imports no library code)

#: Number of processes that set up a workload for ``setup_s`` (this one
#: plus probes); the median is reported.
SETUP_SAMPLES = 3

#: Whole request cycles an untraced run makes at least, so that every
#: run has more than one cold sample even where a cycle is long.
MIN_CYCLES = 2

#: (name, unit) of the end-to-end metrics (``--trace 0``).
END_TO_END = [
    ("setup_s", "s"), ("cold_s", "ref_s"), ("warm_s", "ref_s"),
    ("throughput_rps", "1/ref_s"), ("peak_rss_mb", "MB"),
    ("model_words_max", "words"), ("model_msgs_max", "count"),
    ("model_mem_peak_words", "words"), ("model_makespan_s", "sim_s"),
]

#: Spans reported per traced request (``<span>.self_s``, ``<span>.calls``).
SPANS = list(tracer.SPAN_SITES)

#: Counters, per traced request.
COUNTERS = ["lu2d.trsm_calls", "solve.trsm_calls", "comm.compute_calls",
            "comm.compute_batch_calls", "comm.send_calls",
            "comm.sendrecv_batch_calls", "comm.alloc_calls",
            "comm.free_calls"]

#: (name, unit) of the per-layer metrics (``--trace 1``).
PER_LAYER = (
    [(f"{s}.self_s", "s") for s in SPANS]
    + [(f"{s}.calls", "count") for s in SPANS]
    + [(c, "count") for c in COUNTERS]
    + [("comm.sim_calls", "count"), ("plan.tasks", "count"),
       ("plan.dispatches", "count"), ("lu2d.batched_gemms", "count"),
       ("lu2d.perturbed_pivots", "count"), ("refine.steps", "count"),
       ("refine.berr_max", "ratio"), ("service.hit_ratio", "ratio"),
       ("service.evictions", "count"), ("service.queue_wait_s", "s"),
       ("service.build_s", "s"), ("request.cold_p90_s", "s"),
       ("request.warm_p90_s", "s"), ("request.cold_n", "count"),
       ("request.warm_n", "count"), ("request.fail_frac", "ratio"),
       ("trace.coverage", "ratio"), ("trace.unattributed_s", "s"),
       ("trace.overhead_frac", "ratio"), ("reference.splu_s", "s"),
       ("host.probe_s", "s")])

#: Spans each workload must reach in its traced phase; a zero count
#: means a wrapped name is no longer on the request path.
REQUIRED_SPANS = {
    "numeric_refactor": ["ordering", "symbolic", "symbolic.fill",
                         "tree.partition", "lu3d.setup", "lu3d.storage",
                         "lu3d.scatter", "plan.build", "plan.compile",
                         "interpret.grid", "interpret.reduce",
                         "solve.forward", "solve.backward", "refine"],
    "costonly_plan": ["ordering", "symbolic", "symbolic.fill",
                      "tree.partition", "lu3d.setup", "lu3d.storage",
                      "plan.build", "plan.compile", "interpret.grid",
                      "interpret.reduce"],
    "service_mix": ["service.job", "ordering", "symbolic", "symbolic.fill",
                    "symbolic.blocking", "tree.partition", "lu3d.setup",
                    "lu3d.storage", "lu3d.scatter", "plan.build",
                    "interpret.grid", "interpret.reduce", "solve.forward",
                    "solve.backward", "refine"],
}


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def p90(xs) -> float:
    """90th percentile (linear interpolation); meaningful only when at
    least ten samples lie beyond it, i.e. ``len(xs) >= 100``."""
    if not xs:
        return 0.0
    return float(statistics.quantiles(xs, n=10, method="inclusive")[-1]) \
        if len(xs) > 1 else float(xs[0])


def environment(seed: int) -> dict:
    import numpy
    import scipy
    commit = None  # outside a git checkout the source digest identifies it
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": commit,
            "source_sha256": digest.hexdigest(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def import_library():
    """Import the library from this checkout's ``src`` — never from
    anywhere else on the path."""
    import repro
    where = Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"repro imported from {where}, not {SRC}")
    import workloads
    return workloads


def setup_probes(args) -> list[float]:
    """Set the workload up in fresh processes; their setup times."""
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def split(records, scaled=False):
    """Latencies of the successful cold and warm requests, in wall
    seconds or (``scaled``) in reference-host seconds."""
    ok = [r for r in records if r.error is None]

    def lat(r):
        return r.latency_s * r.host_scale if scaled else r.latency_s
    return ([lat(r) for r in ok if r.kind == "cold"],
            [lat(r) for r in ok if r.kind == "warm"])


def end_to_end(wl, records, wall, setup_s) -> dict:
    """Latency and throughput are scaled to the reference host speed by
    the host probe of each request's cycle (``workloads.host_probe``);
    wall-clock values go to the results file."""
    cold, warm = split(records, scaled=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    done = sum(1 for r in records if r.error is None)
    scale = median([r.host_scale for r in records])
    return {"setup_s": median(setup_s), "cold_s": median(cold),
            "warm_s": median(warm), "throughput_rps": done / (wall * scale),
            "peak_rss_mb": rss_mb, **wl.model()}


def per_layer(wl, untraced, traced, tr, splu_s) -> dict:
    roots, root_s, attributed = tr.coverage()
    n = max(roots, 1)
    spans = tr.spans()
    missing = [s for s in REQUIRED_SPANS[wl.name] if spans[s].calls == 0]
    if missing:
        raise RuntimeError(f"traced run never reached {missing}: the "
                           "tracer's site list no longer matches the code")
    out = {}
    for s in SPANS:
        out[f"{s}.self_s"] = spans[s].self_s / n
        out[f"{s}.calls"] = spans[s].calls / n
    counts = tr.counts()
    for c in COUNTERS:
        out[c] = counts[c] / n
    out["comm.sim_calls"] = sum(counts[c] for c in COUNTERS
                                if c.startswith("comm.")) / n
    out["plan.tasks"] = float(sum(t for t, _ in wl.plans.values()))
    out["plan.dispatches"] = float(sum(d for _, d in wl.plans.values()))

    ok = [r for r in traced if r.error is None]
    readings = [r.readings for r in ok]

    def mean(key):
        vals = [rd[key] for rd in readings if key in rd]
        return sum(vals) / len(vals) if vals else 0.0

    out["lu2d.batched_gemms"] = mean("batched_gemms")
    out["lu2d.perturbed_pivots"] = mean("perturbed_pivots")
    out["refine.steps"] = mean("refine_steps")
    out["refine.berr_max"] = max((rd["berr"] for rd in readings
                                  if "berr" in rd), default=0.0)
    st = wl.service_stats
    looked_up = st.get("hits", 0) + st.get("misses", 0)
    out["service.hit_ratio"] = st["hits"] / looked_up if looked_up else 0.0
    out["service.evictions"] = float(st.get("evictions", 0))
    out["service.queue_wait_s"] = median(
        [rd["queue_wait_s"] for rd in readings if "queue_wait_s" in rd])
    out["service.build_s"] = median(
        [rd["build_s"] for r, rd in zip(ok, readings)
         if r.kind == "cold" and "build_s" in rd])

    cold_u, warm_u = split(untraced)
    _, warm_us = split(untraced, scaled=True)
    _, warm_ts = split(traced, scaled=True)
    out["request.cold_p90_s"] = p90(cold_u)
    out["request.warm_p90_s"] = p90(warm_u)
    out["request.cold_n"] = float(len(cold_u))
    out["request.warm_n"] = float(len(warm_u))
    records = untraced + traced
    out["request.fail_frac"] = sum(r.error is not None for r in records) \
        / len(records)
    out["trace.coverage"] = attributed / root_s if root_s else 0.0
    out["trace.unattributed_s"] = (root_s - attributed) / n
    out["trace.overhead_frac"] = median(warm_ts) / median(warm_us) - 1.0 \
        if warm_us and warm_ts else 0.0
    out["reference.splu_s"] = median(splu_s)
    out["host.probe_s"] = median([r.probe_s for r in untraced + traced])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print the setup time and exit")
    args = ap.parse_args(argv)

    try:
        workloads = import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        wl.setup()
        setup_s = [time.perf_counter() - T_START]
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s[0]}))
            return 0
        if args.trace == 0:
            setup_s += setup_probes(args)
            records, wall = wl.run(args.seconds, min_cycles=MIN_CYCLES)
            metrics = end_to_end(wl, records, wall, setup_s)
            untraced, traced = records, []
        else:
            untraced, _ = wl.run(args.seconds / 2)
            tr = tracer.Tracer()
            tr.install()
            try:
                traced, _ = wl.run(args.seconds / 2, tracer=tr)
            finally:
                tr.uninstall()
            records = untraced + traced
    finally:
        wl.close()

    splu_s = wl.check(records)
    if args.trace == 1:
        metrics = per_layer(wl, untraced, traced, tr, splu_s)
        units = dict(PER_LAYER)
    else:
        units = dict(END_TO_END)
    failed = [r for r in records if r.error is not None]
    reported = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cold, warm = split(records)
    probe = median([r.probe_s for r in records])
    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "trace": args.trace,
        "seconds": args.seconds, "env": environment(args.seed),
        "metrics": reported,
        "samples": {"cold": len(cold), "warm": len(warm),
                    "setup": len(setup_s)},
        "wall": {"cold_s": median(cold), "warm_s": median(warm),
                 "probe_s": probe},
        "latencies_s": {"cold": cold, "warm": warm, "setup": setup_s,
                        "probe": [r.probe_s for r in records]},
        "reference_splu_s": median(splu_s),
        "attempted": len(records), "failed": len(failed),
        "failures": [f"{r.kind} {r.pattern}: {r.error}"
                     for r in failed[:20]],
    }, indent=1))
    if args.trace == 1:
        (OUT / f"{args.workload}-seed{args.seed}.trace.json").write_text(
            json.dumps(tr.chrome_trace()))

    print(json.dumps({
        "correct": not failed, "attempted": len(records),
        "failed": len(failed), "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
