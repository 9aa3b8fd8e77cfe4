"""Tests for the simulated runtime: machine model, simulator, grids, collectives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    CommError,
    Machine,
    ProcessGrid2D,
    ProcessGrid3D,
    Simulator,
    bcast,
    near_square_grid,
    reduce_pairwise,
)
from repro.comm.simulator import COMPUTE_KINDS, PHASES


class TestMachine:
    def test_defaults_positive(self):
        m = Machine.edison_like()
        assert m.alpha > 0 and m.beta > 0 and m.gamma_gemm > 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Machine(alpha=-1.0)

    def test_zero_variants(self):
        assert Machine.zero_compute().gamma_gemm == 0.0
        assert Machine.zero_comm().alpha == 0.0


class TestSimulatorBasics:
    def test_compute_advances_clock(self):
        sim = Simulator(2)
        sim.compute(0, 1e6, "schur")
        assert sim.clock[0] == pytest.approx(1e6 * sim.machine.gamma_gemm)
        assert sim.clock[1] == 0.0
        assert sim.flops["schur"][0] == 1e6

    def test_panel_kernel_slower_than_gemm(self):
        sim = Simulator(2)
        sim.compute(0, 1e6, "schur")
        sim.compute(1, 1e6, "panel")
        assert sim.clock[1] > sim.clock[0]

    def test_gemm_overhead_charged(self):
        sim = Simulator(1)
        sim.compute(0, 0.0, "schur", n_block_updates=3)
        assert sim.clock[0] == pytest.approx(3 * sim.machine.gemm_overhead)

    def test_unknown_kind_rejected(self):
        sim = Simulator(1)
        with pytest.raises(CommError, match="kind"):
            sim.compute(0, 1.0, "warp")

    def test_rank_range_checked(self):
        sim = Simulator(2)
        with pytest.raises(CommError, match="out of range"):
            sim.compute(5, 1.0, "schur")

    def test_negative_flops_rejected(self):
        sim = Simulator(1)
        with pytest.raises(CommError):
            sim.compute(0, -1.0, "schur")


class TestPointToPoint:
    def test_send_recv_volume_and_time(self):
        sim = Simulator(2)
        sim.send(0, 1, 1000)
        sim.recv(1, 0)
        m = sim.machine
        assert sim.clock[0] == pytest.approx(m.alpha + m.beta * 1000)
        assert sim.clock[1] == pytest.approx(sim.clock[0])
        assert sim.words_sent["fact"][0] == 1000
        assert sim.words_recv["fact"][1] == 1000
        assert sim.msgs_sent["fact"][0] == 1

    def test_recv_without_send_is_error(self):
        sim = Simulator(2)
        with pytest.raises(CommError, match="no pending"):
            sim.recv(1, 0)

    def test_self_message_free(self):
        sim = Simulator(1)
        sim.send(0, 0, 100)
        assert sim.clock[0] == 0.0
        assert sim.total_words_sent() == 0.0

    def test_fifo_ordering(self):
        sim = Simulator(2)
        sim.send(0, 1, 10)
        sim.send(0, 1, 20)
        assert sim.recv(1, 0) == 10
        assert sim.recv(1, 0) == 20

    def test_overlap_no_wait_when_busy(self):
        """A receiver busy past the arrival time pays no wait (lookahead)."""
        sim = Simulator(2)
        sim.send(0, 1, 1000)
        arrival = sim.clock[0]
        sim.compute(1, 1e9, "schur")  # receiver busy long past arrival
        busy_until = sim.clock[1]
        assert busy_until > arrival
        sim.recv(1, 0)
        assert sim.clock[1] == busy_until  # no added wait

    def test_idle_receiver_waits(self):
        sim = Simulator(2)
        sim.compute(0, 1e9, "schur")  # sender is late
        sim.send(0, 1, 10)
        sim.recv(1, 0)
        assert sim.clock[1] == pytest.approx(sim.clock[0])
        assert sim.comm_time(1) == pytest.approx(sim.clock[1])

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.integers(0, 10000)), min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_conservation_property(self, msgs):
        """Σ sent == Σ recv for any delivered message pattern."""
        sim = Simulator(6)
        for src, dst, words in msgs:
            sim.send(src, dst, words)
            sim.recv(dst, src)
        assert sim.total_words_sent() == pytest.approx(sim.total_words_recv())
        assert sim.pending_messages() == 0


class TestMemoryLedger:
    def test_peak_tracks_watermark(self):
        sim = Simulator(1)
        sim.alloc(0, 100)
        sim.alloc(0, 50)
        sim.free(0, 120)
        sim.alloc(0, 10)
        assert sim.mem_peak[0] == 150
        assert sim.mem_current[0] == pytest.approx(40)

    def test_over_free_detected(self):
        sim = Simulator(1)
        sim.alloc(0, 10)
        with pytest.raises(CommError, match="freed more"):
            sim.free(0, 20)


class TestBarrierAndPhases:
    def test_barrier_aligns_clocks(self):
        sim = Simulator(3)
        sim.compute(0, 1e9, "schur")
        sim.barrier([0, 1])
        assert sim.clock[1] == sim.clock[0]
        assert sim.clock[2] == 0.0

    def test_phase_attribution(self):
        sim = Simulator(2)
        sim.send(0, 1, 100)
        sim.recv(1, 0)
        sim.set_phase("red")
        sim.send(1, 0, 40)
        sim.recv(0, 1)
        assert sim.total_words_sent("fact") == 100
        assert sim.total_words_sent("red") == 40
        assert np.array_equal(sim.words_per_rank("red"), [40, 40])

    def test_unknown_phase_rejected(self):
        with pytest.raises(CommError):
            Simulator(1).set_phase("warmup")


class TestCollectives:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 8])
    def test_bcast_everyone_receives_once(self, p):
        sim = Simulator(p)
        bcast(sim, 0, list(range(p)), 100)
        # Every non-root receives the payload exactly once.
        assert np.array_equal(sim.words_recv["fact"][1:], [100] * (p - 1))
        assert sim.total_words_sent() == 100 * (p - 1)

    def test_bcast_log_depth(self):
        """Tree broadcast completes in ~log2(p) message times, not p."""
        p = 16
        sim = Simulator(p)
        bcast(sim, 0, list(range(p)), 0)  # latency-only
        assert sim.makespan == pytest.approx(4 * sim.machine.alpha)

    def test_bcast_nonmember_root_rejected(self):
        with pytest.raises(ValueError, match="root"):
            bcast(Simulator(4), 3, [0, 1], 10)

    def test_bcast_root_relabeling(self):
        sim = Simulator(4)
        bcast(sim, 2, [0, 1, 2, 3], 10)
        assert sim.words_recv["fact"][2] == 0
        assert sim.words_sent["fact"][2] > 0

    def test_reduce_pairwise_books_addition(self):
        sim = Simulator(2)
        reduce_pairwise(sim, src=1, dst=0, words=500)
        assert sim.words_sent["fact"][1] == 500
        assert sim.flops["reduce_add"][0] == 500


class TestGrids:
    def test_near_square(self):
        assert near_square_grid(96) == (8, 12)
        assert near_square_grid(24) == (4, 6)
        assert near_square_grid(7) == (1, 7)
        assert near_square_grid(16) == (4, 4)

    def test_grid2d_rank_coords_roundtrip(self):
        g = ProcessGrid2D(3, 4, base=10)
        for pi in range(3):
            for pj in range(4):
                assert g.coords(g.rank(pi, pj)) == (pi, pj)

    def test_grid2d_block_cyclic_owner(self):
        g = ProcessGrid2D(2, 3)
        assert g.owner(0, 0) == g.rank(0, 0)
        assert g.owner(2, 3) == g.rank(0, 0)
        assert g.owner(5, 4) == g.rank(1, 1)

    def test_grid2d_row_col_ranks(self):
        g = ProcessGrid2D(2, 3)
        assert g.row_ranks(4) == [g.rank(0, j) for j in range(3)]
        assert g.col_ranks(5) == [g.rank(i, 2) for i in range(2)]

    def test_grid2d_bounds(self):
        g = ProcessGrid2D(2, 2)
        with pytest.raises(ValueError):
            g.rank(2, 0)
        with pytest.raises(ValueError):
            g.coords(99)

    def test_grid3d_layers_disjoint_cover(self):
        g3 = ProcessGrid3D(2, 3, 4)
        ranks = []
        for z in range(4):
            ranks.extend(g3.layer(z).all_ranks())
        assert sorted(ranks) == list(range(24))

    def test_grid3d_zmate(self):
        g3 = ProcessGrid3D(2, 3, 4)
        r = g3.layer(2).rank(1, 2)
        mate = g3.zmate(r, 0)
        assert g3.layer(0).coords(mate) == (1, 2)

    def test_grid3d_pz_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            ProcessGrid3D(2, 2, 3)

    def test_from_total(self):
        g3 = ProcessGrid3D.from_total(96, 4)
        assert g3.pxy == 24 and g3.size == 96
        with pytest.raises(ValueError, match="divisible"):
            ProcessGrid3D.from_total(10, 4)


def _ledgers(sim):
    out = {"clock": sim.clock, "mem_current": sim.mem_current,
           "mem_peak": sim.mem_peak}
    for p in PHASES:
        out[f"ws:{p}"] = sim.words_sent[p]
        out[f"wr:{p}"] = sim.words_recv[p]
        out[f"ms:{p}"] = sim.msgs_sent[p]
        out[f"mr:{p}"] = sim.msgs_recv[p]
    for k in COMPUTE_KINDS:
        out[f"fl:{k}"] = sim.flops[k]
        out[f"tc:{k}"] = sim.t_compute[k]
    return out


def assert_ledgers_identical(sim_a, sim_b):
    la, lb = _ledgers(sim_a), _ledgers(sim_b)
    for key in la:
        assert np.array_equal(la[key], lb[key]), f"ledger {key} diverged"
    assert dict(sim_a.event_counts) == dict(sim_b.event_counts)


class TestSendrecvBatch:
    def _random_traffic(self, rng, n, nranks):
        srcs = rng.integers(0, nranks, n)
        dsts = rng.integers(0, nranks, n)
        words = rng.uniform(1.0, 500.0, n)
        return srcs, dsts, words

    def test_matches_per_event_loop(self):
        rng = np.random.default_rng(5)
        srcs, dsts, words = self._random_traffic(rng, 200, 12)
        sim_a, sim_b = Simulator(12), Simulator(12)
        sim_a.set_phase("red")
        sim_b.set_phase("red")
        for s, d, w in zip(srcs, dsts, words):
            reduce_pairwise(sim_a, int(s), int(d), float(w))
        sim_b.sendrecv_batch(srcs, dsts, words, reduce_kind="reduce_add")
        assert_ledgers_identical(sim_a, sim_b)

    def test_no_reduce_matches_sendrecv(self):
        rng = np.random.default_rng(11)
        srcs, dsts, words = self._random_traffic(rng, 100, 8)
        sim_a, sim_b = Simulator(8), Simulator(8)
        for s, d, w in zip(srcs, dsts, words):
            sim_a.sendrecv(int(s), int(d), float(w))
        sim_b.sendrecv_batch(srcs, dsts, words)
        assert_ledgers_identical(sim_a, sim_b)

    def test_subclass_hooks_still_observe(self):
        pairs = []

        class SpySim(Simulator):
            def send(self, src, dst, words):
                pairs.append((src, dst))
                super().send(src, dst, words)

        sim = SpySim(4)
        sim.sendrecv_batch([0, 2], [1, 3], [10.0, 20.0],
                           reduce_kind="reduce_add")
        assert pairs == [(0, 1), (2, 3)]

    def test_length_mismatch_rejected(self):
        sim = Simulator(4)
        with pytest.raises(CommError):
            sim.sendrecv_batch([0, 1], [1], [10.0, 20.0])


class TestOwnerPairs:
    def test_matches_scalar_owner(self):
        grid = ProcessGrid2D(3, 4, base=24)
        rng = np.random.default_rng(2)
        rows = rng.integers(0, 50, 100)
        cols = rng.integers(0, 50, 100)
        vec = grid.owner_pairs(rows, cols)
        scalar = [grid.owner(int(i), int(j)) for i, j in zip(rows, cols)]
        assert vec.tolist() == scalar
