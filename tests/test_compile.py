"""Plan-compilation conformance tests.

The compile layer's (:mod:`repro.plan.compile`) contract is observational
equivalence: running the fused plan books ledgers bit-identical to the
unfused plan and produces bit-equal factors, across all four drivers (2D
LU, 3D LU, merged 3D, Cholesky), under the randomized-schedule fuzzer, and
the static analyzer stays clean on the rewritten DAG. The mutation
self-test drops a dep edge *from a fused task* and demands the race
detector fire — fusion must not blind it.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.analysis import format_compile_summary
from repro.cholesky import factor_chol_3d
from repro.comm import Machine, ProcessGrid2D, ProcessGrid3D, Simulator
from repro.lu2d.factor2d import FactorOptions, factor_2d
from repro.lu3d import factor_3d
from repro.lu3d.merged import factor_3d_merged
from repro.plan import CompiledPlan, FusedTask, compile_plan
from repro.sparse import grid2d_5pt
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition
from repro.verify import analyze_plan, drop_dep_edge, fuzz_2d, fuzz_3d
from repro.verify.oracle import ledger_state


@pytest.fixture(autouse=True)
def _own_the_toggles(monkeypatch):
    """This suite drives compilation through FactorOptions and sets the
    env toggle explicitly where it tests it; an ambient REPRO_COMPILE=0
    (e.g. CI's uncompiled tier-1 run) must not silently hollow out the
    compiled-mode assertions."""
    monkeypatch.delenv("REPRO_COMPILE", raising=False)


@pytest.fixture(scope="module")
def planar():
    A, geom = grid2d_5pt(14)
    sf = symbolic_factorize(A, geom, leaf_size=16)
    return sf, greedy_partition(sf, 4)


@pytest.fixture(scope="module")
def spd():
    A, geom = grid2d_5pt(14)
    S = (A + A.T) * 0.5
    S = (S + sp.eye(A.shape[0]) * (abs(S).sum(axis=1).max() + 1.0)).tocsr()
    sf = symbolic_factorize(S, geom, leaf_size=16)
    return sf, greedy_partition(sf, 2)


def _opts(**kw) -> FactorOptions:
    return FactorOptions(**kw)


def assert_equivalent(run, compare_factors=True):
    """Run ``run(opts)`` compiled and uncompiled; demand bit-identity."""
    sim_c, res_c = run(_opts(compile_plan=True))
    sim_u, res_u = run(_opts(compile_plan=False))
    assert ledger_state(sim_c) == ledger_state(sim_u)
    if compare_factors:
        Fc = res_c.factors().to_dense()
        Fu = res_u.factors().to_dense()
        assert np.array_equal(Fc, Fu), "factors diverged under fusion"
    return res_c, res_u


class TestCompiledBitIdentity:
    """Fused and unfused plans are observationally indistinguishable."""

    def test_lu2d(self, planar):
        sf, _ = planar
        grid = ProcessGrid2D(2, 3)

        def run(opts):
            sim = Simulator(grid.size, Machine.edison_like())
            res = factor_2d(sf, grid, sim, options=opts)
            return sim, res

        res_c, res_u = assert_equivalent(run, compare_factors=False)
        compiled = res_c.extras["compiled"]
        assert isinstance(compiled, CompiledPlan)
        assert compiled.stats.n_fused > 0
        assert compiled.stats.dispatch_reduction > 1.0
        assert "compiled" not in res_u.extras

    @pytest.mark.parametrize("numeric", [False, True])
    def test_lu3d(self, planar, numeric):
        sf, tf = planar
        grid3 = ProcessGrid3D(2, 2, 4)

        def run(opts):
            sim = Simulator(grid3.size, Machine.edison_like())
            res = factor_3d(sf, tf, grid3, sim, numeric=numeric,
                            options=opts)
            return sim, res

        res_c, res_u = assert_equivalent(run, compare_factors=numeric)
        assert isinstance(res_c.compiled, CompiledPlan)
        assert res_u.compiled is None
        # The original (unfused) plan stays the public artifact.
        assert not any(isinstance(t, FusedTask)
                       for t in res_c.plan.iter_tasks())
        assert any(isinstance(t, FusedTask)
                   for t in res_c.compiled.plan.iter_tasks())

    def test_merged(self, planar):
        sf, tf = planar
        grid3 = ProcessGrid3D(2, 2, 4)

        def run(opts):
            sim = Simulator(grid3.size, Machine.edison_like())
            res = factor_3d_merged(sf, tf, grid3, sim, numeric=True,
                                   options=opts)
            return sim, res

        res_c, _ = assert_equivalent(run, compare_factors=False)
        assert isinstance(res_c.compiled, CompiledPlan)

    def test_cholesky(self, spd):
        sf, tf = spd
        grid3 = ProcessGrid3D(2, 2, 2)

        def run(opts):
            sim = Simulator(grid3.size, Machine.edison_like())
            res = factor_chol_3d(sf, tf, grid3, sim, numeric=True,
                                 options=opts)
            return sim, res

        res_c, _ = assert_equivalent(run)
        assert isinstance(res_c.compiled, CompiledPlan)

    def test_fused_deps_point_backwards(self, planar):
        sf, tf = planar
        from repro.plan.build import build_3d_plan
        plan3 = build_3d_plan(sf, tf, ProcessGrid3D(2, 2, 4), _opts())
        compiled = compile_plan(plan3, sf, _opts())
        seen: set = set()
        for t in compiled.plan.iter_tasks():
            assert all(d in seen for d in t.deps), \
                "fused plan has a forward or dangling dep"
            seen.add(t.tid)


class TestCompiledStatic:
    """PR-5 static analyzer holds on fused plans — including its own
    non-vacuousness proof (the mutation self-test)."""

    def _compiled_2d(self, planar) -> tuple:
        sf, _ = planar
        from repro.plan.build import build_grid_plan
        plan = build_grid_plan(sf, list(range(sf.nb)), ProcessGrid2D(2, 3),
                               _opts())
        return compile_plan(plan, sf, _opts()), sf

    def test_analyzer_clean_on_compiled_2d(self, planar):
        compiled, sf = self._compiled_2d(planar)
        report = analyze_plan(compiled.plan, sf)
        assert report.ok, report.summary()

    def test_analyzer_clean_on_compiled_3d(self, planar):
        sf, tf = planar
        from repro.plan.build import build_3d_plan
        plan3 = build_3d_plan(sf, tf, ProcessGrid3D(2, 2, 4), _opts())
        compiled = compile_plan(plan3, sf, _opts())
        report = analyze_plan(compiled.plan, sf)
        assert report.ok, report.summary()

    def test_mutation_trips_race_detector(self, planar):
        """Dropping a dep edge off a *fused* task must surface a race —
        fusion unions member edges precisely so this still holds."""
        compiled, sf = self._compiled_2d(planar)
        mutated, desc = drop_dep_edge(compiled.plan, seed=3)
        report = analyze_plan(mutated, sf)
        assert not report.ok, f"analyzer missed mutation: {desc}"
        assert any(i.kind == "race" for i in report.issues), desc

    def test_fuzz_2d_compiled(self, planar):
        sf, _ = planar
        grid = ProcessGrid2D(2, 3)
        rep_u = fuzz_2d(sf, grid, numeric=True, n_orders=6)
        rep_c = fuzz_2d(sf, grid, numeric=True, n_orders=6, compile=True)
        assert rep_c.ok, rep_c.summary()
        # Fusion serializes the single-grid pipeline into a chain, so the
        # identity order may be the only legal one here; the load-bearing
        # assertion is that the compiled canonical run books the same
        # ledgers as the uncompiled driver.
        assert rep_c.canonical_ledger == rep_u.canonical_ledger

    def test_fuzz_3d_compiled(self, planar):
        sf, tf = planar
        grid3 = ProcessGrid3D(2, 2, 4)
        rep_u = fuzz_3d(sf, tf, grid3, numeric=True, n_orders=6)
        rep_c = fuzz_3d(sf, tf, grid3, numeric=True, n_orders=6,
                        compile=True)
        assert rep_c.ok, rep_c.summary()
        assert rep_c.n_perturbed > 0, "3D compiled fuzz was vacuous"
        assert rep_c.canonical_ledger == rep_u.canonical_ledger


class TestCompileGating:
    def test_env_toggle_disables(self, planar, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE", "0")
        sf, tf = planar
        grid3 = ProcessGrid3D(2, 2, 4)
        sim = Simulator(grid3.size)
        res = factor_3d(sf, tf, grid3, sim, numeric=False)
        assert res.compiled is None

    def test_env_toggle_ledger_identity(self, planar, monkeypatch):
        sf, tf = planar
        grid3 = ProcessGrid3D(2, 2, 4)
        sim_on = Simulator(grid3.size)
        factor_3d(sf, tf, grid3, sim_on, numeric=False)
        monkeypatch.setenv("REPRO_COMPILE", "off")
        sim_off = Simulator(grid3.size)
        factor_3d(sf, tf, grid3, sim_off, numeric=False)
        assert ledger_state(sim_on) == ledger_state(sim_off)

    def test_faults_disable_compile(self, planar):
        from repro.resilience import FaultPlan
        sf, tf = planar
        grid3 = ProcessGrid3D(2, 2, 4)
        sim = Simulator(grid3.size)
        opts = _opts(fault_plan=FaultPlan.parse("slow:rank=0,factor=2"))
        res = factor_3d(sf, tf, grid3, sim, numeric=False, options=opts)
        assert res.compiled is None


class TestFormatting:
    def test_compile_summary_renders(self, planar):
        sf, _ = planar
        from repro.plan.build import build_grid_plan
        plan = build_grid_plan(sf, list(range(sf.nb)), ProcessGrid2D(2, 3),
                               _opts())
        out = format_compile_summary(compile_plan(plan, sf, _opts()))
        assert "dispatch reduction" in out
        assert "tasks before" in out
