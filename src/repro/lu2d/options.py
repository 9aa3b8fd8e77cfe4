"""Shared driver options and per-grid result records.

These live in their own module (rather than in ``factor2d``) because both
the drivers and the :mod:`repro.plan` layer need them: the plan builders
read the options, the plan interpreter fills the result, and keeping them
here breaks the import cycle between the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FactorOptions", "Factor2DResult"]


@dataclass(frozen=True)
class FactorOptions:
    """Tunables of the factorization drivers.

    Attributes
    ----------
    lookahead:
        Pipeline window in supernodes; SuperLU_DIST uses 8-20 (Section
        II-F). ``0`` disables pipelining (strictly synchronous steps).
    pivot_eps:
        GESP threshold: diagonal pivots below ``pivot_eps * ||A_kk||_max``
        are perturbed to that magnitude.
    track_buffers:
        Charge transient panel receive buffers to the memory ledgers.
    sparse_bcast:
        Prune broadcast receiver sets to the ranks that actually own an
        update target (SuperLU_DIST builds its BC/RD trees over exactly
        those ranks). ``False`` broadcasts along whole process rows/
        columns — the flat model Section IV analyzes.
    batched_schur:
        Apply each supernode's Schur update as one gathered panel GEMM +
        scatter (:mod:`repro.lu2d.batched`) instead of one GEMM per block
        pair. Numerically identical to roundoff and books bit-identical
        simulator ledgers; automatically falls back to the per-block loop
        when an accelerator is attached (offload decisions are per block).
    batch_min_pairs:
        Hybrid cutoff: panels with fewer than this many (i, j) block pairs
        take the per-block loop even when ``batched_schur`` is on — below
        ~32 pairs the gather/scatter fixed overhead exceeds the per-event
        savings. Both paths book identical ledgers, so the cutoff affects
        wall-clock only. Set to ``0`` to batch every panel.
    compile_plan:
        Run the plan compiler (:mod:`repro.plan.compile`) on the built
        plan before executing it: maximal same-kind task runs are fused
        into single vectorized dispatches (one batched ledger booking per
        run/segment instead of one per task). Ledgers and factors are
        bit-identical either way; resilience, tracing and accelerator
        runs ignore the flag (they observe per-task boundaries). The
        ``REPRO_COMPILE=0`` environment variable forces it off globally
        (CI's uncompiled tier-1 run).
    fault_plan:
        A :class:`repro.resilience.FaultPlan` of deterministic faults to
        inject (``None`` / empty = fault-free: every ledger stays
        bit-identical to seed). A non-empty plan (or checkpointing)
        routes the run through the resilience engine's monitored walk.
    checkpoint_every:
        Take a coordinated checkpoint of the replica blocks and the plan
        walk position every this many interpreted tasks (``0`` = off).
        Checkpoint I/O cost is charged to the machine model
        (``io_alpha`` / ``io_beta``).
    recovery:
        Crash recovery policy: ``'restart'`` rolls every grid back to
        the last checkpoint; ``'z-replica'`` rebuilds only the crashed
        grid's state from the surviving sibling replicas along the z
        axis (the paper's ancestor replication, exploited for fault
        tolerance), falling back to restart where no replicas exist
        (2D runs, the merged variant's single global copy).
    compact_comm:
        Price every block message and block of factor/replica storage with
        the sparsity-aware compact model (:mod:`repro.comm.volume`):
        ``min(dense, 1.5 * nnz)`` words per block off the filled pattern's
        per-block nnz tables, instead of dense ``rows * cols``. Numerics
        are unaffected — only the booked word counts change. The ``REPRO_COMPACT`` environment
        variable overrides the flag either way (``1``/``0``).
    ancestor_replication:
        2.5D replication factor ``c`` for the dense common-ancestor levels
        (paper Section VII / Solomonik-Demmel). ``1`` (default) keeps
        Algorithm 1's schedule: each ancestor forest is factored by its
        home grid's 2D engine alone. ``c > 1`` factors each ancestor
        forest as one aggregate 2.5D sweep over ``min(c, 2^{l-q})`` of
        its replication range's grids — per-rank level volume drops from
        ``D/sqrt(Pxy)`` to ``D/(c*sqrt(Pxy))`` at ``c``-fold panel
        traffic. ``c = Pz`` is the Section VII 2.5D cost study (every
        ancestor level replicated across its whole range). A first-order
        *cost model*: ``c > 1`` requires cost-only runs
        (``numeric=False``, no resilience) on the standard (non-merged)
        LU driver.
    blocking:
        Supernode-boundary strategy for the symbolic phase: ``'uniform'``
        (the default — ``max_block``-capped equal chunks, SuperLU_DIST's
        ``maxsup`` behaviour) or ``'irregular'`` (pattern-driven
        boundaries from :mod:`repro.symbolic.blocking`: dense-row/
        arrowhead boundary snapping + similarity-gated amalgamation,
        floored by the uniform blocking so it never costs more words).
        Part of the plan/service cache key: different blockings never
        share a plan.
    """

    lookahead: int = 8
    pivot_eps: float = 1e-10
    track_buffers: bool = True
    sparse_bcast: bool = False
    batched_schur: bool = True
    batch_min_pairs: int = 32
    compile_plan: bool = True
    fault_plan: object | None = None   # repro.resilience.FaultPlan
    checkpoint_every: int = 0
    recovery: str = "restart"
    compact_comm: bool = False
    ancestor_replication: int = 1
    blocking: str = "uniform"

    def __post_init__(self):
        if self.blocking not in ("uniform", "irregular"):
            raise ValueError(f"unknown blocking strategy {self.blocking!r}; "
                             "expected 'uniform' or 'irregular'")
        if self.ancestor_replication < 1:
            raise ValueError("ancestor_replication must be >= 1")
        if self.lookahead < 0:
            raise ValueError("lookahead must be non-negative")
        if self.pivot_eps <= 0:
            raise ValueError("pivot_eps must be positive")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative (0 = off)")
        if self.recovery not in ("restart", "z-replica"):
            raise ValueError(f"unknown recovery policy {self.recovery!r}; "
                             "expected 'restart' or 'z-replica'")

    def resilience_active(self) -> bool:
        """Whether this run needs the monitored resilient walk."""
        return bool(self.fault_plan) or self.checkpoint_every > 0


@dataclass
class Factor2DResult:
    """Outcome of one per-grid (2D) factorization.

    ``buffer_peak_words`` is the peak *transient* panel-receive-buffer
    footprint on any rank — static L/U factor storage is excluded.
    ``n_batched_gemms`` counts gathered panel GEMMs issued by the batched
    Schur path; ``batch_fill_ratio`` is the fraction of the gathered
    ``W = L @ U`` products' entries that land in a destination block
    (1.0 for LU, < 1 for the symmetric Cholesky variant).
    """

    nodes: list[int]
    perturbed_pivots: int = 0
    panel_steps: int = 0
    schur_block_updates: int = 0
    buffer_peak_words: float = 0.0
    n_batched_gemms: int = 0
    batch_fill_ratio: float = 0.0
    extras: dict = field(default_factory=dict)
