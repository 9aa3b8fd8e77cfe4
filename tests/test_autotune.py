"""Tests for the ledger-validated autotuning subsystem (repro.tune).

Covers the candidate space, the model-based evaluator, the search loop,
the on-disk cache, service auto-adoption, and the tier-1 model-vs-ledger
consistency contract: predicted 3D/2D communication ratios must move the
way the closed forms say and land within a fixed factor of measured
cost-only ledger totals.
"""

import numpy as np
import pytest

from repro.model import volume_3d_nonplanar, volume_3d_planar
from repro.sparse import grid2d_5pt, grid3d_7pt
from repro.tune import (
    Evaluator,
    MatrixProfile,
    TuneCache,
    TuneCandidate,
    TuneResult,
    autotune_grid,
    divisors,
    enumerate_candidates,
    factor_triples,
    predicted_words,
    tune_key,
)


class TestSpace:
    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(16) == [1, 2, 4, 8, 16]
        assert divisors(7) == [1, 7]

    def test_factor_triples_cover_and_multiply(self):
        for P in (12, 16, 24):
            triples = factor_triples(P)
            assert all(px * py * pz == P for px, py, pz in triples)
            assert all(px <= py for px, py, _ in triples)
            assert len(set(triples)) == len(triples)
            assert set(pz for _, _, pz in triples) == set(divisors(P))

    def test_enumerate_includes_non_pow2_pz(self):
        cands = enumerate_candidates(12)
        pzs = {c.pz for c in cands}
        assert {1, 2, 3, 4, 6, 12} <= pzs
        assert all(c.total == 12 for c in cands)
        # c ranges over powers of two up to pz, always including 1.
        assert {c.c for c in cands if c.pz == 4} == {1, 2, 4}
        assert {c.c for c in cands if c.pz == 3} == {1, 2}

    def test_executable_only_filter(self):
        cands = enumerate_candidates(12, executable_only=True)
        assert {c.pz for c in cands} == {1, 2, 4}

    def test_candidate_validation(self):
        with pytest.raises(ValueError):
            TuneCandidate(px=2, py=2, pz=2, c=4)  # c > pz
        with pytest.raises(ValueError):
            TuneCandidate(px=0, py=2, pz=2)
        with pytest.raises(ValueError):
            enumerate_candidates(12, c_values=(3,))  # non-pow2 c

    def test_candidate_roundtrip(self):
        c = TuneCandidate(px=2, py=3, pz=4, c=2, max_block=128)
        assert TuneCandidate.from_dict(c.to_dict()) == c
        assert c.label == "2x3x4 c=2 cap=128"
        assert not TuneCandidate(px=1, py=4, pz=3).executable
        assert TuneCandidate(px=1, py=4, pz=4).executable


class TestEvaluate:
    def test_profile_measures_regime(self):
        A, g = grid2d_5pt(48)
        prof = MatrixProfile.measure(A, geometry=g)
        assert prof.classification == "planar"
        A3, g3 = grid3d_7pt(12)
        prof3 = MatrixProfile.measure(A3, geometry=g3)
        assert prof3.classification == "non-planar"

    def test_replication_discounts_top_term(self):
        """Section VII: replicating ancestors by c divides the dense-top
        volume term by c, so predicted words fall as c grows."""
        prof = MatrixProfile(n=4096, sigma=0.67, classification="non-planar")
        base = TuneCandidate(px=2, py=2, pz=8)
        more = TuneCandidate(px=2, py=2, pz=8, c=8)
        assert predicted_words(more, prof) < predicted_words(base, prof)

    def test_skewed_layers_penalized(self):
        prof = MatrixProfile(n=4096, sigma=0.5, classification="planar")
        square = TuneCandidate(px=4, py=4, pz=2)
        skewed = TuneCandidate(px=1, py=16, pz=2)
        assert predicted_words(square, prof) < predicted_words(skewed, prof)

    def test_evaluator_reuses_bundles(self):
        A, g = grid3d_7pt(8)
        ev = Evaluator(A, geometry=g, leaf_size=32)
        cand = TuneCandidate(px=2, py=2, pz=2)
        r1 = ev.measure(cand)
        assert cand in ev._bundles  # first run deposits the plan bundle
        r2 = ev.measure(cand)       # second run replays it
        assert r1.w_total_max == r2.w_total_max
        assert ev.runs == 2
        # Symbolic + partition objects are shared across same-cap shapes.
        ev.measure(TuneCandidate(px=1, py=4, pz=2))
        assert len(ev._sf) == 1 and len(ev._tf) == 1

    def test_evaluator_rejects_non_executable(self):
        A, g = grid3d_7pt(8)
        ev = Evaluator(A, geometry=g, leaf_size=32)
        with pytest.raises(ValueError):
            ev.measure(TuneCandidate(px=1, py=4, pz=3))


class TestSearch:
    def test_autotune_beats_or_matches_naive(self):
        """The acceptance bar: on a non-planar matrix the tuned config's
        measured cost-only words must not lose to the naive Pz=1 grid."""
        A, g = grid3d_7pt(9)
        res = autotune_grid(A, 16, geometry=g, leaf_size=32, budget=5)
        assert res.baseline.candidate.pz == 1
        assert res.baseline.validated
        assert res.chosen_result.validated
        assert res.measured_improvement >= 1.0
        assert res.evaluations <= 5

    def test_result_roundtrip_and_summary(self):
        A, g = grid3d_7pt(8)
        res = autotune_grid(A, 8, geometry=g, leaf_size=32, budget=3)
        clone = TuneResult.from_dict(res.to_dict())
        assert clone.chosen == res.chosen
        assert clone.P == res.P
        assert "chose" in res.summary()

    def test_cache_roundtrip(self, tmp_path):
        A, g = grid3d_7pt(8)
        cache = TuneCache(tmp_path / "tune.json")
        res = autotune_grid(A, 8, geometry=g, leaf_size=32, budget=3,
                            cache=cache)
        assert len(cache) == 1
        again = autotune_grid(A, 8, geometry=g, leaf_size=32, budget=3,
                              cache=cache)
        assert again.chosen == res.chosen
        # Different pattern -> distinct entry.
        B, gb = grid2d_5pt(16)
        autotune_grid(B, 8, geometry=gb, budget=3, cache=cache)
        assert len(cache) == 2

    def test_cache_version_guard(self, tmp_path):
        p = tmp_path / "tune.json"
        p.write_text('{"version": 99, "results": {}}')
        with pytest.raises(ValueError, match="version"):
            TuneCache(p).get(grid3d_7pt(8)[0], 8)

    def test_tune_key_separates_options(self):
        from repro.lu2d.options import FactorOptions
        A, _ = grid3d_7pt(8)
        k1 = tune_key(A, 8)
        k2 = tune_key(A, 16)
        k3 = tune_key(A, 8, options=FactorOptions(compact_comm=True))
        assert len({k1, k2, k3}) == 3


class TestServiceAdoption:
    def test_warm_request_adopts_tuned_grid(self, tmp_path):
        from repro.service import FactorizationService
        A, g = grid3d_7pt(8)
        cache = TuneCache(tmp_path / "tune.json")
        res = autotune_grid(A, 8, geometry=g, leaf_size=32, budget=4,
                            cache=cache)
        with FactorizationService(px=2, py=2, pz=2, numeric=False,
                                  leaf_size=32, geometry=g,
                                  tune_cache=cache) as svc:
            job = svc.solve(A)
            assert job.tuned_grid == res.chosen.label
            # Explicit grid pins win over the tuning cache.
            pinned = svc.solve(A, px=2, py=2, pz=2)
            assert pinned.tuned_grid is None

    def test_no_cache_no_adoption(self):
        from repro.service import FactorizationService
        A, g = grid3d_7pt(8)
        with FactorizationService(px=2, py=2, pz=2, numeric=False,
                                  leaf_size=32, geometry=g) as svc:
            assert svc.solve(A).tuned_grid is None


class TestModelLedgerConsistency:
    """Satellite: predicted 3D/2D ratios vs measured cost-only ledgers."""

    def test_closed_form_terms_monotone_in_pz(self):
        """The replicated-top term grows with Pz while the subtree term
        shrinks — the tension behind Eq. (8)'s interior optimum."""
        n, P = 2**14, 256
        planar = [volume_3d_planar(n, P, pz) for pz in (2, 4, 8, 16)]
        # Planar W_3D is minimized strictly inside the sweep: not monotone.
        assert min(planar) not in (planar[0], planar[-1]) or \
            planar[0] > planar[1]
        nonpl = [volume_3d_nonplanar(n, P, pz) for pz in (2, 4, 8, 16)]
        assert all(np.isfinite(v) and v > 0 for v in planar + nonpl)

    @pytest.mark.parametrize("gen,P,pzs", [
        (lambda: grid2d_5pt(40), 16, (2, 4, 8)),
        (lambda: grid3d_7pt(9), 16, (2, 4, 8)),
    ])
    def test_predicted_ratio_tracks_measured(self, gen, P, pzs):
        """Predicted W_2D/W_3D(pz) and the measured cost-only ledger ratio
        must stay within a fixed factor of each other: the model is an
        asymptotic shape, not a word-exact oracle, but a ranking it gets
        wrong by >6x would make the tuner's pre-screen worthless."""
        A, g = gen()
        prof = MatrixProfile.measure(A, geometry=g)
        ev = Evaluator(A, geometry=g, leaf_size=32)
        base = ev.measure(TuneCandidate(px=4, py=4, pz=1))
        pred_base = predicted_words(TuneCandidate(px=4, py=4, pz=1), prof)
        for pz in pzs:
            px, py = {2: (2, 4), 4: (2, 2), 8: (1, 2)}[pz]
            cand = TuneCandidate(px=px, py=py, pz=pz)
            meas = ev.measure(cand)
            pred_ratio = pred_base / predicted_words(cand, prof)
            meas_ratio = base.w_total_max / meas.w_total_max
            assert pred_ratio > 0 and meas_ratio > 0
            assert pred_ratio / meas_ratio < 6.0
            assert meas_ratio / pred_ratio < 6.0

    def test_measured_totals_finite_and_positive(self):
        A, g = grid3d_7pt(8)
        ev = Evaluator(A, geometry=g, leaf_size=32)
        r = ev.measure(TuneCandidate(px=1, py=2, pz=4, c=4))
        assert np.isfinite(r.w_total_max) and r.w_total_max > 0
        assert r.makespan > 0
