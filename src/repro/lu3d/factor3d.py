"""Algorithm 1: the 3D sparse LU factorization driver.

Level-by-level schedule over the elimination tree-forest ``E_f``::

    for lvl in l .. 0:
        active grids g ≡ 0 (mod 2^{l-lvl}) run dSparseLU2D on E_f[lvl]
        if lvl > 0: pairwise Ancestor-Reduction along z

Since the :mod:`repro.plan` refactor, this module no longer encodes that
schedule imperatively: :func:`repro.plan.build.build_3d_plan` emits it
once as an explicit task DAG (grid plans, ``AncestorReduce`` tasks,
``LevelBarrier`` markers) and :func:`_execute_plan3d` — shared with the
merged-grid variant — walks it. Communication in the reduction step is
point-to-point between ranks with the same (x, y) coordinate in the
sender and receiver layers, booked under the ``'red'`` phase so the
benchmarks can split ``W_fact`` / ``W_red`` exactly as Fig. 10 does.

The active grids of a level run on disjoint rank sets, so the simulated
ledgers already model their concurrency; the host walks them one after
another.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.comm.grid import ProcessGrid2D, ProcessGrid3D
from repro.comm.simulator import Simulator
from repro.comm.volume import volume_for
from repro.lu2d.options import FactorOptions
from repro.lu2d.storage import node_blocks
from repro.lu3d.replication import ReplicaManager, replica_words_per_rank
from repro.plan.build import build_3d_plan
from repro.plan.compile import compile_enabled, compile_plan
from repro.plan.interpret import (
    execute_grid_plan,
    execute_reduce,
    execute_replicated,
)
from repro.plan.replay import PlanBundle, plan_options_key
from repro.plan.tasks import Plan3D
from repro.sparse.blockmatrix import BlockMatrix
from repro.symbolic.symbolic_factor import SymbolicFactorization
from repro.tree.treeforest import TreeForest

__all__ = ["Factor3DResult", "factor_3d"]


@dataclass
class Factor3DResult:
    """Outcome of a 3D factorization run."""

    tf: TreeForest
    perturbed_pivots: int = 0
    schur_block_updates: int = 0
    n_batched_gemms: int = 0
    reduction_messages: int = 0
    reduction_words: float = 0.0
    replicas: ReplicaManager | None = None
    per_level_makespan: list[float] = field(default_factory=list)
    #: The executed task-graph plan (:class:`repro.plan.Plan3D`); ``None``
    #: only for legacy ``factor_fn`` plug-ins' grid work, whose per-grid
    #: task lists are empty stubs.
    plan: Plan3D | None = None
    #: The :class:`repro.plan.CompiledPlan` actually executed when the plan
    #: compiler ran (``FactorOptions.compile_plan`` and the simulator allow
    #: it); ``None`` otherwise. ``plan`` always stays the uncompiled DAG.
    compiled: object | None = None
    #: :class:`repro.resilience.ResilienceStats` when the run went through
    #: the resilience engine (``FactorOptions.resilience_active()``);
    #: ``None`` for plain runs.
    resilience: object | None = None
    #: The :class:`repro.plan.PlanBundle` of pattern-only build products
    #: this run used (built cold or passed in via ``cached=``); feed it
    #: back as ``factor_3d(..., cached=result.bundle)`` to replay the plan
    #: against fresh values. ``None`` for legacy ``factor_fn`` runs.
    bundle: PlanBundle | None = None

    def factors(self) -> BlockMatrix:
        """Assembled L\\U factors (numeric runs only)."""
        if self.replicas is None:
            raise ValueError("cost-only run: no numeric factors")
        return self.replicas.home_view().to_block_matrix()


# -- data strategies -------------------------------------------------------
# What the interpreter reads/writes per grid: nothing (cost-only), the
# per-grid replica views (standard numeric), or one shared global store
# (merged numeric). Keeping this a small strategy object is what lets the
# standard and merged drivers share one plan executor.

class CostOnlyData:
    """No numeric content: every view is ``None``, reductions book only."""

    accumulate = None
    #: Whether z-replica crash recovery can rebuild a grid's state from
    #: sibling replicas. True here: with no numeric content there is
    #: nothing to rebuild, so the policy is trivially applicable.
    supports_zreplica = True

    def view(self, gp):
        return None

    def snapshot(self):
        return None

    def restore(self, snap) -> None:
        pass

    def restore_grid(self, g, snap) -> None:
        pass


class ReplicaData(CostOnlyData):
    """Standard numeric mode: per-grid replica views + z-axis summation."""

    def __init__(self, replicas: ReplicaManager):
        self.replicas = replicas
        self.accumulate = replicas.accumulate

    def view(self, gp):
        return self.replicas.view(gp.g)

    def snapshot(self):
        return self.replicas.snapshot()

    def restore(self, snap) -> None:
        self.replicas.restore(snap)

    def restore_grid(self, g, snap) -> None:
        self.replicas.restore_grid(g, snap)


class GlobalStoreData(CostOnlyData):
    """Merged numeric mode: one global block copy shared by every grid.

    The shared copy makes the reduction's numeric content a no-op — its
    messages remain, for the cost ledgers. It also rules out z-replica
    recovery: there are no sibling replicas to rebuild from, so crashes
    fall back to the restart policy.
    """

    supports_zreplica = False

    def __init__(self, store):
        self.store = store

    def view(self, gp):
        return self.store

    def snapshot(self):
        return {key: arr.copy() for key, arr in self.store.blocks.items()}

    def restore(self, snap) -> None:
        blocks = self.store.blocks
        for key, arr in snap.items():
            blocks[key][:] = arr


def factor_3d(sf: SymbolicFactorization, tf: TreeForest, grid3: ProcessGrid3D,
              sim: Simulator, numeric: bool = True,
              options: FactorOptions | None = None,
              charge_storage: bool = True, factor_fn=None, blocks_fn=None,
              matrix=None, backend: str = "lu",
              cached: PlanBundle | None = None,
              replicas: ReplicaManager | None = None) -> Factor3DResult:
    """Run Algorithm 1 on the 3D process grid.

    Parameters
    ----------
    sf:
        Symbolic factorization of the (permuted) matrix.
    tf:
        Tree-forest partition with ``tf.pz == grid3.pz``.
    grid3:
        The process grid; each z-layer is one 2D grid.
    sim:
        Simulator carrying the cost ledgers (shared across phases).
    numeric:
        Execute real block arithmetic (and enable :meth:`Factor3DResult.factors`).
    charge_storage:
        Charge static factor + replica storage to the memory ledgers.
    backend:
        Kernel backend executed by the shared plan interpreter: ``'lu'``
        (default) or ``'cholesky'`` (paper Section VII's "these principles
        could be applied to other variants"). Algorithm 1 itself — the
        level schedule and the pairwise reduction — is variant-independent,
        which the shared plan makes literal.

    ``factor_fn`` / ``blocks_fn`` remain as a legacy plug-in point for
    custom per-grid engines: when ``factor_fn`` is given, the 3D plan is
    built structure-only and each grid's work is delegated to the callable
    instead of the plan interpreter.

    ``cached`` replays a previous run's :class:`repro.plan.PlanBundle`
    (``result.bundle``): the build/compile/analyze phases are skipped and
    the cached DAG executes against the fresh values — same events, same
    order, so ledgers stay bit-identical to a cold run. The bundle is
    validated against (grid shape, backend, merged/accelerated mode,
    plan-relevant options) and refused loudly on mismatch. ``replicas``
    additionally reuses a previous run's :class:`ReplicaManager` storage
    (reset in place) instead of allocating a fresh one.

    With ``pz == 1`` this degenerates exactly to the baseline 2D algorithm
    (one layer, no reduction) — tests rely on that equivalence.
    """
    if tf.pz != grid3.pz:
        raise ValueError(f"tree-forest pz={tf.pz} != grid pz={grid3.pz}")
    opts = options or FactorOptions()
    custom = factor_fn is not None
    if opts.ancestor_replication > 1:
        if numeric:
            raise NotImplementedError(
                "2.5D ancestor factorization is a first-order cost study "
                "(Section VII); numeric execution uses factor_3d with "
                "ancestor_replication=1")
        if opts.resilience_active():
            raise ValueError(
                "ancestor_replication > 1 emits aggregate cost sweeps with "
                "no per-task recovery boundaries; resilience requires "
                "ancestor_replication=1")
    if cached is not None:
        if custom:
            raise ValueError(
                "cached plan replay drives the plan interpreter; it cannot "
                "replay through a custom factor_fn")
        cached.check(grid3, backend, False, sim.accelerator is not None, opts)
        blocks_fn = cached.blocks_fn
    if blocks_fn is None:
        if custom:
            blocks_fn = node_blocks
        else:
            from repro.plan.backends import get_backend
            blocks_fn = get_backend(backend).node_blocks
    result = Factor3DResult(tf=tf)
    volume = volume_for(sf, opts)

    if charge_storage:
        if cached is not None:
            words = cached.replica_words(sf, tf, grid3)
        else:
            words = replica_words_per_rank(sf, tf, grid3, blocks_fn=blocks_fn,
                                           volume=volume)
        for r in np.flatnonzero(words):
            sim.alloc(int(r), float(words[r]))

    if numeric:
        if cached is not None:
            pattern = cached.block_pattern(sf)
        else:
            pattern = {(i, j) for v in range(sf.nb)
                       for i, j, _w in blocks_fn(sf, v)}
        A_vals = sf.A_perm if matrix is None else matrix
        base = BlockMatrix.from_csr(A_vals, sf.layout, block_pattern=pattern)
        if replicas is not None:
            replicas.reset(base)
            result.replicas = replicas
        else:
            result.replicas = ReplicaManager(sf, tf, base,
                                             blocks_fn=blocks_fn)

    if cached is not None:
        bundle = cached
        plan3 = bundle.plan3
    else:
        t0 = time.perf_counter()
        plan3 = build_3d_plan(sf, tf, grid3, opts,
                              backend=None if custom else backend,
                              merged=False,
                              accelerated=sim.accelerator is not None,
                              blocks_fn=blocks_fn)
        bundle = None if custom else PlanBundle(
            backend=backend, merged=False,
            grid_shape=(grid3.px, grid3.py, grid3.pz),
            accelerated=sim.accelerator is not None,
            opts_key=plan_options_key(opts),
            blocks_fn=blocks_fn, plan3=plan3, volume=volume,
            build_seconds=time.perf_counter() - t0)
    result.plan = plan3
    result.bundle = bundle
    data = ReplicaData(result.replicas) if numeric else CostOnlyData()
    if opts.resilience_active():
        if custom:
            raise ValueError(
                "resilience (fault_plan / checkpoint_every) requires the "
                "plan interpreter; it cannot monitor a custom factor_fn")
        from repro.resilience.engine import (
            ResilienceEngine,
            execute_plan3d_resilient,
        )
        rengine = ResilienceEngine(opts, sim)
        execute_plan3d_resilient(plan3, sf, sim, result, opts, data,
                                 rengine, _absorb_2d)
        result.resilience = rengine.stats
        return result
    if compile_enabled(opts, sim):
        result.compiled = (bundle.compiled(sf, opts) if bundle is not None
                           else compile_plan(plan3, sf, opts))
    _execute_plan3d(result.compiled.plan if result.compiled else plan3,
                    sf, sim, result, opts, data, factor_fn=factor_fn)
    return result


def _absorb_2d(result: Factor3DResult, r2d) -> None:
    result.perturbed_pivots += r2d.perturbed_pivots
    result.schur_block_updates += r2d.schur_block_updates
    result.n_batched_gemms += r2d.n_batched_gemms


def _execute_plan3d(plan3: Plan3D, sf, sim: Simulator,
                    result: Factor3DResult, opts: FactorOptions, data,
                    factor_fn=None) -> None:
    """Walk the 3D plan level by level (shared by standard and merged).

    ``data`` is one of the data strategies above. Every grid plan runs
    inline through the shared interpreter (or the legacy ``factor_fn``
    for structure-only plans).
    """
    for step in plan3.levels:
        sim.set_phase("fact")
        for gp in step.grid_plans:
            grid = ProcessGrid2D(gp.px, gp.py, base=gp.base)
            if gp.backend is None:
                r2d = factor_fn(sf, gp.nodes, grid, sim,
                                data=data.view(gp), options=opts)
            else:
                r2d = execute_grid_plan(gp, sf, sim, data=data.view(gp),
                                        options=opts, grid=grid)
            _absorb_2d(result, r2d)
        for rep in step.replicated:
            execute_replicated(rep, sim)

        if step.level > 0:
            sim.set_phase("red")
            for red in step.reduces:
                execute_reduce(red, sim, result, accumulate=data.accumulate)
        result.per_level_makespan.append(sim.makespan)

    sim.set_phase("fact")
