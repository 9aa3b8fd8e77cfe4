"""Tests for equilibration, transpose solve, condition estimation, multi-RHS."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SparseCholesky3D, SparseLU3D
from repro.solve import condest, equilibrate, inverse_norm_est


def _graded(A, spread, seed=0):
    """Symmetrically badly-scaled version of A."""
    rng = np.random.default_rng(seed)
    D = sp.diags(10.0 ** rng.uniform(-spread, spread, A.shape[0]))
    return (D @ A @ D).tocsr()


class TestEquilibrate:
    def test_unit_max_norms(self, planar_small):
        A, _ = planar_small
        B = _graded(A, 4)
        eq = equilibrate(B)
        S = eq.apply(B)
        rows = np.asarray(abs(S).max(axis=1).todense()).ravel()
        cols = np.asarray(abs(S).max(axis=0).todense()).ravel()
        assert np.allclose(rows, 1.0)
        assert cols.max() <= 1.0 + 1e-12

    def test_rhs_solution_roundtrip(self, planar_small):
        """Solving the scaled system + unscaling equals solving directly."""
        A, _ = planar_small
        B = _graded(A, 2)
        eq = equilibrate(B)
        S = eq.apply(B)
        b = np.arange(B.shape[0], dtype=float) + 1.0
        y = sp.linalg.spsolve(S.tocsc(), eq.scale_rhs(b))
        x = eq.unscale_solution(y)
        assert np.allclose(B @ x, b, rtol=1e-8)

    def test_rejects_empty_row(self):
        A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="row|column"):
            equilibrate(A)

    def test_amax_ratio(self, planar_small):
        A, _ = planar_small
        assert equilibrate(_graded(A, 3)).amax_ratio > \
            equilibrate(A).amax_ratio

    def test_multirhs_scaling(self, planar_small):
        A, _ = planar_small
        eq = equilibrate(A)
        B = np.ones((A.shape[0], 3))
        assert eq.scale_rhs(B).shape == B.shape

    def test_solver_with_equil_beats_without_on_graded(self, planar_small):
        """On a badly graded matrix equilibration must not lose accuracy
        and typically gains it (fewer/smaller static-pivot perturbations)."""
        A, geom = planar_small
        B = _graded(A, 5, seed=3)
        b = np.ones(B.shape[0])
        res = {}
        for equil in (False, True):
            solver = SparseLU3D(B, geometry=geom, px=2, py=2, pz=2,
                                leaf_size=24, equil=equil)
            solver.factorize()
            x = solver.solve(b)
            res[equil] = np.linalg.norm(B @ x - b) / np.linalg.norm(b)
        assert res[True] <= res[False] * 10  # never catastrophically worse
        assert res[True] < 1e-6


class TestTransposeSolve:
    def test_matches_scipy(self, planar_small):
        A, geom = planar_small
        solver = SparseLU3D(A, geometry=geom, px=2, py=2, pz=2, leaf_size=24)
        solver.factorize()
        b = np.random.default_rng(0).random(A.shape[0])
        xt = solver.solve_transposed(b)
        ref = sp.linalg.spsolve(A.T.tocsc(), b)
        assert np.allclose(xt, ref, atol=1e-8)

    def test_unsymmetric_matrix(self):
        """Transpose solve differs from plain solve for unsymmetric A."""
        rng = np.random.default_rng(2)
        n = 30
        D = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        D += np.diag(np.abs(D).sum(axis=1) + 1.0)
        A = sp.csr_matrix(D)
        solver = SparseLU3D(A, px=1, py=2, pz=2, leaf_size=8)
        solver.factorize()
        b = rng.random(n)
        xt = solver.solve_transposed(b)
        assert np.allclose(A.T @ xt, b, atol=1e-8)
        assert not np.allclose(xt, solver.solve(b), atol=1e-6)

    def test_with_equilibration(self, planar_small):
        A, geom = planar_small
        B = _graded(A, 2, seed=1)
        solver = SparseLU3D(B, geometry=geom, px=2, py=2, pz=2,
                            leaf_size=24, equil=True)
        solver.factorize()
        b = np.ones(B.shape[0])
        xt = solver.solve_transposed(b)
        assert np.linalg.norm(B.T @ xt - b) / np.linalg.norm(b) < 1e-8

    def test_requires_numeric(self, planar_small):
        A, geom = planar_small
        solver = SparseLU3D(A, geometry=geom, numeric=False)
        solver.factorize()
        with pytest.raises(RuntimeError):
            solver.solve_transposed(np.ones(A.shape[0]))


class TestCondest:
    def test_identity(self):
        A = sp.identity(20, format="csr")
        assert condest(A, lambda b: b) == pytest.approx(1.0)

    def test_diagonal_exact(self):
        d = np.array([1.0, 10.0, 100.0, 0.1])
        A = sp.diags(d).tocsr()
        est = condest(A, lambda b: b / d)
        assert est == pytest.approx(100.0 / 0.1, rel=0.01)

    @given(st.integers(min_value=2, max_value=30),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_within_small_factor_of_truth(self, n, seed):
        rng = np.random.default_rng(seed)
        D = rng.random((n, n)) + n * np.eye(n)
        A = sp.csr_matrix(D)
        est = condest(A, lambda b: np.linalg.solve(D, b),
                      lambda b: np.linalg.solve(D.T, b))
        true = np.linalg.cond(D, 1)
        assert est <= true * (1 + 1e-8)      # Hager is a lower bound
        assert est >= true / 10.0            # and rarely off by much

    def test_facade_method(self, planar_small):
        A, geom = planar_small
        solver = SparseLU3D(A, geometry=geom, px=2, py=2, pz=2, leaf_size=24)
        solver.factorize()
        est = solver.condition_estimate()
        true = np.linalg.cond(A.toarray(), 1)
        assert true / 10 <= est <= true * 1.01

    def test_validation(self):
        with pytest.raises(ValueError):
            inverse_norm_est(0, lambda b: b)


class TestMultiRHS:
    @pytest.mark.parametrize("nrhs", [1, 3, 7])
    def test_lu_multirhs(self, planar_small, nrhs):
        A, geom = planar_small
        solver = SparseLU3D(A, geometry=geom, px=2, py=2, pz=2, leaf_size=24)
        solver.factorize()
        B = np.random.default_rng(nrhs).random((A.shape[0], nrhs))
        X = solver.solve(B)
        assert X.shape == B.shape
        assert np.linalg.norm(A @ X - B) / np.linalg.norm(B) < 1e-10

    def test_solve_volume_scales_with_nrhs(self, planar_small):
        A, geom = planar_small
        solver = SparseLU3D(A, geometry=geom, px=2, py=2, pz=2, leaf_size=24)
        solver.factorize()
        base = solver.sim.total_words_sent("solve")
        solver.solve(np.ones(A.shape[0]), refine=False)
        v1 = solver.sim.total_words_sent("solve") - base
        solver.solve(np.ones((A.shape[0], 4)), refine=False)
        v4 = solver.sim.total_words_sent("solve") - base - v1
        assert v4 == pytest.approx(4 * v1)

    def test_bad_shape_rejected(self, planar_small):
        A, geom = planar_small
        solver = SparseLU3D(A, geometry=geom, px=1, py=1, leaf_size=24)
        solver.factorize()
        with pytest.raises(ValueError, match="shape"):
            solver.solve(np.ones((3, A.shape[0])))


def _spd(A):
    S = (A + A.T) * 0.5
    return (S + sp.eye(A.shape[0]) * (abs(S).sum(axis=1).max() + 1.0)).tocsr()


@pytest.mark.parametrize("solver_cls", [SparseLU3D, SparseCholesky3D],
                         ids=["lu", "cholesky"])
class TestValueValidation:
    """Both facades refuse complex or non-finite values up front, instead
    of silently dropping imaginary parts or failing deep in a solve."""

    def test_complex_rejected(self, planar_small, solver_cls):
        A, geom = planar_small
        S = _spd(A)
        with pytest.raises(TypeError, match="A must have a real dtype"):
            solver_cls(S + 1j * S, geometry=geom, leaf_size=24)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, planar_small, solver_cls, bad):
        A, geom = planar_small
        S = _spd(A)
        S.data[0] = bad
        with pytest.raises(ValueError, match="A contains non-finite"):
            solver_cls(S, geometry=geom, leaf_size=24)

    def test_refactorize_checks_values(self, planar_small, solver_cls):
        A, geom = planar_small
        S = _spd(A)
        solver = solver_cls(S, geometry=geom, leaf_size=24)
        nan = S.copy()
        nan.data[0] = np.nan
        with pytest.raises(ValueError, match="A_new contains non-finite"):
            solver.refactorize(nan)
        assert solver.sf is None
        solver.factorize()
        with pytest.raises(TypeError, match="A_new must have a real dtype"):
            solver.refactorize(S * (1 + 1j))
