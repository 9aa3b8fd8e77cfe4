"""`SparseCholesky3D` — solver facade for SPD systems.

Mirrors :class:`repro.solve.SparseLU3D` but factors ``A = L L^T`` and
solves with the two transposed sweeps over the same lower-panel blocks.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from repro.cholesky.factor import factor_chol_3d
from repro.comm.collectives import bcast
from repro.comm.grid import ProcessGrid3D
from repro.comm.machine import Machine
from repro.comm.simulator import Simulator
from repro.lu2d.factor2d import FactorOptions
from repro.solve.refine import RefinementResult, iterative_refinement
from repro.sparse.generators import GridGeometry
from repro.sparse.pattern import pattern_of, symmetrize_pattern
from repro.symbolic.symbolic_factor import symbolic_factorize
from repro.tree.partition import greedy_partition, naive_partition
from repro.utils import check_real_finite, check_square_sparse

__all__ = ["SparseCholesky3D"]


class SparseCholesky3D:
    """Communication-avoiding 3D sparse Cholesky on a simulated grid.

    Same constructor contract as :class:`repro.solve.SparseLU3D`; the input
    must be symmetric positive definite (mildly indefinite diagonals are
    absorbed by shifted-Cholesky + iterative refinement, and reported via
    ``result.perturbed_pivots``). Factorization runs through
    :func:`repro.lu3d.factor3d.factor_3d` with the Cholesky backend, on
    the same level executor as LU.
    """

    def __init__(self, A: sp.spmatrix, geometry: GridGeometry | None = None,
                 px: int = 1, py: int = 1, pz: int = 1, leaf_size: int = 64,
                 machine: Machine | None = None, partition: str = "greedy",
                 options: FactorOptions | None = None, numeric: bool = True,
                 nd_method: str = "bfs", max_block: int | None = 256,
                 relax: int = 0):
        self.A = check_real_finite(check_square_sparse(A))
        sym_err = abs(self.A - self.A.T).max()
        if sym_err > 1e-10 * max(abs(self.A).max(), 1e-300):
            raise ValueError("Cholesky requires a symmetric matrix "
                             f"(asymmetry {sym_err:.2e})")
        self.geometry = geometry
        self.grid = ProcessGrid3D(px, py, pz)
        self.machine = machine or Machine.edison_like()
        self.options = options or FactorOptions()
        self.numeric = numeric
        if partition not in ("greedy", "naive"):
            raise ValueError(f"unknown partition strategy {partition!r}")
        self._partition = partition
        self._leaf_size = leaf_size
        self._nd_method = nd_method
        self._max_block = max_block
        self._relax = relax

        self.sf = None
        self.tf = None
        self.sim: Simulator | None = None
        self.result = None
        self._L = None
        self._pattern = None
        self._bundle = None
        self._shared_symbolic = False

    def analyze(self) -> "SparseCholesky3D":
        tree = None
        if self._relax:
            if self.options.blocking != "uniform":
                raise ValueError(
                    "relax > 0 is a uniform-blocking relaxation; it cannot "
                    "be combined with blocking='irregular' (which runs its "
                    "own similarity-gated amalgamation)")
            from repro.ordering import nested_dissection, relax_supernodes
            tree = relax_supernodes(
                nested_dissection(self.A, self.geometry,
                                  leaf_size=self._leaf_size,
                                  method=self._nd_method,
                                  max_block=self._max_block),
                min_size=self._relax,
                max_block=self._max_block or 256)
        self.sf = symbolic_factorize(self.A, self.geometry,
                                     leaf_size=self._leaf_size,
                                     method=self._nd_method,
                                     max_block=self._max_block, tree=tree,
                                     blocking=self.options.blocking)
        part = greedy_partition if self._partition == "greedy" else naive_partition
        self.tf = part(self.sf, self.grid.pz)
        self._pattern = symmetrize_pattern(self.A, stored=True)
        self._bundle = None
        self._shared_symbolic = False
        return self

    def adopt(self, sf, tf, pattern=None, bundle=None) -> "SparseCholesky3D":
        """Attach a shared symbolic factorization + partition (read-only),
        mirroring :meth:`repro.solve.SparseLU3D.adopt` — the
        :mod:`repro.service` entry point."""
        self.sf = sf
        self.tf = tf
        self._pattern = pattern if pattern is not None else \
            symmetrize_pattern(self.A, stored=True)
        self._bundle = bundle
        self._shared_symbolic = True
        return self

    def _usable_bundle(self, sim: Simulator):
        if self._bundle is None:
            return None
        try:
            self._bundle.check(self.grid, "cholesky", False,
                               sim.accelerator is not None, self.options)
        except ValueError:
            return None
        return self._bundle

    def factorize(self) -> "SparseCholesky3D":
        if self.sf is None:
            self.analyze()
        self.sim = Simulator(self.grid.size, self.machine)
        cached = self._usable_bundle(self.sim)
        replicas = self.result.replicas if cached is not None \
            and self.result is not None else None
        matrix = self.sf.perm.apply_matrix(self.A) \
            if self._shared_symbolic else None
        self.result = factor_chol_3d(self.sf, self.tf, self.grid, self.sim,
                                     numeric=self.numeric,
                                     options=self.options, matrix=matrix,
                                     cached=cached, replicas=replicas)
        self._bundle = self.result.bundle or self._bundle
        if self.numeric:
            self._L = self.result.replicas.home_view()
        return self

    def refactorize(self, A_new: sp.spmatrix) -> "SparseCholesky3D":
        """Factor a new SPD matrix with the same sparsity pattern.

        Mirrors :meth:`repro.solve.SparseLU3D.refactorize` (SuperLU's
        ``SamePattern``): reuses ordering, symbolic fill and partition.
        """
        A_new = check_real_finite(check_square_sparse(A_new), "A_new")
        if A_new.shape != self.A.shape:
            raise ValueError(
                f"shape {A_new.shape} differs from original {self.A.shape}")
        sym_err = abs(A_new - A_new.T).max()
        if sym_err > 1e-10 * max(abs(A_new).max(), 1e-300):
            raise ValueError("Cholesky requires a symmetric matrix")
        if self.sf is None:
            self.A = A_new
            return self.factorize()
        if self._pattern is None:
            self._pattern = symmetrize_pattern(self.A, stored=True)
        new = pattern_of(A_new)  # eliminates explicitly-stored zeros
        outside = (new - new.multiply(self._pattern)).nnz
        if outside:
            raise ValueError(
                f"{outside} entries of the new matrix fall outside the "
                "original pattern; run a fresh analyze()+factorize()")
        self.A = A_new
        if not self._shared_symbolic:
            self.sf.A_perm = self.sf.perm.apply_matrix(A_new)
        return self.factorize()

    # -- solve -----------------------------------------------------------

    def _grid_of(self, k: int):
        return self.grid.layer(self.tf.home_grid(k))

    def _forward(self, b: np.ndarray) -> np.ndarray:
        """``L y = b`` over the distributed lower panels."""
        sf, sim = self.sf, self.sim
        layout = sf.layout
        y = b.copy()
        sim.set_phase("solve")
        for k in range(sf.nb):
            rk = layout.range_of(k)
            s = layout.block_size(k)
            grid = self._grid_of(k)
            diag_owner = grid.owner(k, k)
            y[rk] = la.solve_triangular(self._L[(k, k)], y[rk], lower=True)
            sim.compute(diag_owner, float(s * s), "solve")
            lp = sf.fill.lpanel[k]
            if len(lp) == 0:
                continue
            bcast(sim, diag_owner, grid.col_ranks(k), float(s))
            for i in lp:
                i = int(i)
                si = layout.block_size(i)
                o = grid.owner(i, k)
                y[layout.range_of(i)] -= self._L[(i, k)] @ y[rk]
                sim.compute(o, 2.0 * si * s, "solve")
                tgt = self._grid_of(i).owner(i, i)
                sim.send(o, tgt, float(si))
                sim.recv(tgt, o)
                sim.compute(tgt, float(si), "solve")
        return y

    def _backward(self, y: np.ndarray) -> np.ndarray:
        """``L^T x = y``: the forward sweep transposed (panels reused)."""
        sf, sim = self.sf, self.sim
        layout = sf.layout
        x = y.copy()
        sim.set_phase("solve")
        for k in range(sf.nb - 1, -1, -1):
            rk = layout.range_of(k)
            s = layout.block_size(k)
            grid = self._grid_of(k)
            diag_owner = grid.owner(k, k)
            for i in sf.fill.lpanel[k]:
                i = int(i)
                si = layout.block_size(i)
                o = grid.owner(i, k)
                x[rk] -= self._L[(i, k)].T @ x[layout.range_of(i)]
                sim.compute(o, 2.0 * si * s, "solve")
                if o != diag_owner:
                    sim.send(o, diag_owner, float(s))
                    sim.recv(diag_owner, o)
                sim.compute(diag_owner, float(s), "solve")
            x[rk] = la.solve_triangular(self._L[(k, k)], x[rk], lower=True,
                                        trans="T")
            sim.compute(diag_owner, float(s * s), "solve")
            if len(sf.fill.lpanel[k]):
                bcast(sim, diag_owner, grid.col_ranks(k), float(s))
        return x

    def solve(self, b: np.ndarray, refine: bool = True,
              tol: float = 1e-14) -> np.ndarray:
        """Solve ``A x = b`` via ``L L^T`` with optional refinement.

        ``b`` may be a vector or an ``(n, nrhs)`` matrix.
        """
        if self._L is None:
            raise RuntimeError(
                "solve requires factorize() with numeric=True first")
        b = np.asarray(b, dtype=np.float64)
        n = self.A.shape[0]
        if b.ndim not in (1, 2) or b.shape[0] != n:
            raise ValueError(
                f"b must have shape ({n},) or ({n}, nrhs), got {b.shape}")
        perm = self.sf.perm

        def factored_solve(rhs: np.ndarray) -> np.ndarray:
            yp = self._forward(perm.apply_vector(rhs))
            return perm.unapply_vector(self._backward(yp))

        x = factored_solve(b)
        if refine:
            res = iterative_refinement(self.A, b, x, factored_solve, tol=tol)
            self.last_refinement: RefinementResult | None = res
            return res.x
        self.last_refinement = None
        return x

    # -- evaluation accessors ---------------------------------------------

    @property
    def makespan(self) -> float:
        self._require_factored()
        return self.sim.makespan

    def comm_volume(self, phase: str | None = None) -> np.ndarray:
        self._require_factored()
        return self.sim.words_per_rank(phase)

    @property
    def peak_memory(self) -> np.ndarray:
        self._require_factored()
        return self.sim.mem_peak

    def _require_factored(self) -> None:
        if self.sim is None:
            raise RuntimeError("call factorize() first")
