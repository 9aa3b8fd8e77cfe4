"""Merged-grid ancestor factorization (paper Section VII, second idea).

    "Alternatively, for those levels, we can merge two 2D grids to make a
    larger 2D grid to factor denser blocks. However, doing so would
    require significant changes to the data structure."

In the standard Algorithm 1, a level-``q`` ancestor forest is factored by
its *home* 2D grid alone (``P_XY`` ranks) while the other ``2^{l-q} - 1``
grids of its range idle — the very effect that inflates ``T_scu`` for
non-planar matrices at large ``Pz`` (Fig. 9's Serena/nlpkkt80 retreat).
The merged variant instead factors the forest on the union of its range's
layers, a ``(2^{l-q}·P_x) × P_y`` grid. Because our rank numbering stacks
layers contiguously, the merged grid is just a taller 2D block-cyclic
grid over the same ranks — the "significant data-structure change" of the
paper reduces, in the simulator, to a redistribution step folded into the
ancestor reduction: both halves' copies of every ancestor block move to
their owner in the doubled layout and are summed there.

Structurally this is :func:`repro.plan.build.build_3d_plan` with
``merged=True``: the same level schedule, with grid plans on merged grids
and ``AncestorReduce`` tasks carrying explicit redistribution ops. The
executor is the one shared with the standard driver
(:func:`repro.lu3d.factor3d._execute_plan3d`).

Numeric mode works too, through a deliberately simple data strategy: one
*global* copy of every block. The driver is sequential, Schur updates are
pure accumulations, and merging means every rank of a range works on the
same logical ancestor copy anyway — so the per-layer replica machinery is
unnecessary here and the reduction's numeric content degenerates to a
no-op (its messages remain, for the cost ledgers).
"""

from __future__ import annotations

import time

import numpy as np

from repro.comm.grid import ProcessGrid3D
from repro.comm.simulator import Simulator
from repro.comm.volume import volume_for
from repro.lu2d.options import FactorOptions
from repro.lu2d.storage import node_blocks
from repro.lu3d.factor3d import (
    CostOnlyData,
    Factor3DResult,
    GlobalStoreData,
    _execute_plan3d,
)
from repro.lu3d.replication import replica_words_per_rank
from repro.plan.build import _merged_grid, build_3d_plan
from repro.plan.compile import compile_enabled
from repro.plan.replay import PlanBundle, plan_options_key
from repro.sparse.blockmatrix import BlockMatrix
from repro.symbolic.symbolic_factor import SymbolicFactorization
from repro.tree.treeforest import TreeForest

__all__ = ["factor_3d_merged", "_merged_grid"]


def factor_3d_merged(sf: SymbolicFactorization, tf: TreeForest,
                     grid3: ProcessGrid3D, sim: Simulator,
                     options: FactorOptions | None = None,
                     charge_storage: bool = True,
                     numeric: bool = False, matrix=None,
                     cached: PlanBundle | None = None) -> Factor3DResult:
    """Algorithm 1 with merged-grid ancestor levels.

    ``matrix`` overrides ``sf.A_perm`` as the numeric value source (same
    pattern, fresh values — the re-factorization workflow); ``cached``
    replays a previous run's :class:`repro.plan.PlanBundle` instead of
    rebuilding/recompiling the plan, exactly as in
    :func:`repro.lu3d.factor_3d`.
    """
    if tf.pz != grid3.pz:
        raise ValueError(f"tree-forest pz={tf.pz} != grid pz={grid3.pz}")
    opts = options or FactorOptions()
    if cached is not None:
        cached.check(grid3, "lu", True, sim.accelerator is not None, opts)
    result = Factor3DResult(tf=tf)
    volume = volume_for(sf, opts)
    store = None
    if numeric:
        A_vals = sf.A_perm if matrix is None else matrix
        store = BlockMatrix.from_csr(A_vals, sf.layout,
                                     block_pattern=sf.fill.all_blocks())
        result.merged_blocks = store  # global-copy store (numeric mode)

    if charge_storage:
        # Same static replica storage as the standard algorithm: merging
        # re-partitions ownership, it does not change what is stored.
        if cached is not None:
            words = cached.replica_words(sf, tf, grid3)
        else:
            words = replica_words_per_rank(sf, tf, grid3, volume=volume)
        for r in np.flatnonzero(words):
            sim.alloc(int(r), float(words[r]))

    if cached is not None:
        bundle = cached
        plan3 = bundle.plan3
    else:
        t0 = time.perf_counter()
        plan3 = build_3d_plan(sf, tf, grid3, opts, backend="lu", merged=True,
                              accelerated=sim.accelerator is not None)
        bundle = PlanBundle(
            backend="lu", merged=True,
            grid_shape=(grid3.px, grid3.py, grid3.pz),
            accelerated=sim.accelerator is not None,
            opts_key=plan_options_key(opts),
            blocks_fn=node_blocks, plan3=plan3, volume=volume,
            build_seconds=time.perf_counter() - t0)
    result.plan = plan3
    result.bundle = bundle
    data = GlobalStoreData(store) if numeric else CostOnlyData()
    if opts.resilience_active():
        from repro.lu3d.factor3d import _absorb_2d
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
        result.compiled = bundle.compiled(sf, opts)
    _execute_plan3d(result.compiled.plan if result.compiled else plan3,
                    sf, sim, result, opts, data)
    return result
