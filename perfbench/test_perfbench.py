"""Tiny-scale self-test of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

Covers the metric-name contract, the tracer's self-time arithmetic and
site checks, and the correctness gate tripping on a corrupted answer or
ledger.
"""

from __future__ import annotations

import json
import re
import sys
import types

import numpy as np
import pytest

import run  # noqa: F401  (pins BLAS threads and puts src/ on the path)
import tracer as tracing
import workloads
from repro.sparse.generators import grid2d_5pt, grid3d_7pt

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_the_spec():
    doc = spec()
    for group, declared in (("end_to_end", run.END_TO_END),
                            ("per_layer", run.PER_LAYER)):
        entries = doc[group]
        assert [(m["name"], m["unit"]) for m in entries] == declared
        for m in entries:
            assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
            assert m["better"] in ("lower", "higher")
    names = [m["name"] for g in ("end_to_end", "per_layer") for m in doc[g]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert {w["name"] for w in doc["workloads"]} <= set(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    assert set(run.REQUIRED_SPANS) == set(workloads.WORKLOADS)
    assert all(s in tracing.SPAN_SITES
               for spans in run.REQUIRED_SPANS.values() for s in spans)


@pytest.fixture
def toy_module():
    """A module with ``outer -> (inner, inner)`` and a fake clock that
    advances one tick per reading."""
    mod = types.ModuleType("perfbench_toy")

    def inner():
        return 1

    def outer():
        return mod.inner() + mod.inner()

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_self_time_is_span_minus_children(toy_module):
    ticks = iter(range(1000))
    tr = tracing.Tracer(
        span_sites={"outer": ((tracing.Site("perfbench_toy", "outer"),),
                              False),
                    "inner": ((tracing.Site("perfbench_toy", "inner"),),
                              False)},
        counter_sites={}, clock=lambda: float(next(ticks)))
    tr.install()
    try:
        with tr.request():               # clock 0 .. 9
            assert toy_module.outer() == 2  # 1 .. 6, inners 2-3 and 4-5
            toy_module.inner()           # 7 .. 8
    finally:
        tr.uninstall()
    spans = tr.spans()
    assert (spans["outer"].calls, spans["outer"].total_s,
            spans["outer"].self_s) == (1, 5.0, 3.0)
    assert (spans["inner"].calls, spans["inner"].total_s,
            spans["inner"].self_s) == (3, 3.0, 3.0)
    requests, request_s, attributed = tr.coverage()
    assert (requests, request_s, attributed) == (1, 9.0, 6.0)
    events = tr.chrome_trace()["traceEvents"]
    assert [e["name"] for e in events] == \
        ["request", "outer", "inner", "inner", "inner"]
    assert json.loads(json.dumps(events))[0]["dur"] == 9e6
    # uninstall restored the originals
    assert not hasattr(toy_module.outer, "__wrapped__")


def test_missing_site_fails_loudly_and_installs_nothing(toy_module):
    sites = {"outer": ((tracing.Site("perfbench_toy", "outer"),), False),
             "gone": ((tracing.Site("perfbench_toy", "renamed_away"),),
                      False)}
    tr = tracing.Tracer(span_sites=sites, counter_sites={})
    with pytest.raises(tracing.TraceSiteMissing, match="renamed_away"):
        tr.install()
    assert not hasattr(toy_module.outer, "__wrapped__")


def test_every_library_site_resolves_and_restores():
    import scipy.linalg

    from repro.sparse.blockmatrix import BlockMatrix
    before = (scipy.linalg.solve_triangular, BlockMatrix.__dict__["from_csr"])
    tr = tracing.Tracer()
    tr.install()
    tr.uninstall()
    assert (scipy.linalg.solve_triangular,
            BlockMatrix.__dict__["from_csr"]) == before


def small_numeric(seed=0):
    wl = workloads.NumericRefactor(seed)
    wl.A, wl.geom = grid3d_7pt(5)
    wl.grid = dict(px=2, py=1, pz=2, leaf_size=8)
    return wl


def test_gate_passes_a_clean_run_and_trips_on_a_corrupted_answer():
    wl = small_numeric()
    tr = tracing.Tracer()
    tr.install()
    try:
        records, _ = wl.run(0.0, tracer=tr)   # one cycle
    finally:
        tr.uninstall()
    assert [r.kind for r in records] == ["cold"] + ["warm"] * wl.warm_per_cycle
    assert wl.check(records) and all(r.error is None for r in records)
    assert tr.coverage()[0] == len(records)
    assert tr.counts()["lu2d.trsm_calls"] > 0
    assert tr.counts()["solve.trsm_calls"] > 0

    records[3].x = records[3].x.copy()
    records[3].x[0] += 1e-6
    records[5].ledger.words = records[5].ledger.words + 1.0
    wl.check(records)
    assert [i for i, r in enumerate(records) if r.error] == [3, 5]
    assert "backward error" in records[3].error
    assert "ledger" in records[5].error


def test_same_seed_same_inputs_and_ledgers_are_seed_free():
    a, b, c = small_numeric(1), small_numeric(1), small_numeric(2)
    (A1, b1), (A2, b2), (A3, _) = (w.system((4,)) for w in (a, b, c))
    assert (A1 != A2).nnz == 0 and np.array_equal(b1, b2)
    assert (A1 != A3).nnz > 0
    assert np.array_equal(A1.indptr, A3.indptr) and \
        np.array_equal(A1.indices, A3.indices)
    for w in (a, c):
        w.run(0.0)
    assert a.model() == c.model()


def test_cost_only_replay_ledgers_match_cold():
    wl = workloads.CostOnlyPlan(0)
    wl.A, wl.geom = grid2d_5pt(16)
    wl.grid = dict(px=2, py=2, pz=2, leaf_size=8, numeric=False)
    records, _ = wl.run(0.0)
    wl.check(records)
    assert [r.kind for r in records] == ["cold"] + ["warm"] * wl.warm_per_cycle
    assert all(r.error is None for r in records)
    assert wl.plans[wl.pattern][0] > 0
