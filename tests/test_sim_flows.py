"""Tests for the fluid network model (max-min fair sharing)."""

import pytest

from repro.fabric.base import RegionNetwork
from repro.sim.flows import Flow, FluidNetwork, total_path_bytes


def make_region():
    region = RegionNetwork(servers=[0, 1])
    region.add_link("a", capacity_gbps=8.0)  # 1e9 bytes/s
    region.add_link("b", capacity_gbps=8.0)
    region.add_link("c", capacity_gbps=4.0)  # 0.5e9 bytes/s
    region.intra_links = {0: "a", 1: "b"}
    return region


class TestFlow:
    def test_flow_initialisation(self):
        flow = Flow("f", 100.0, ["a"])
        assert flow.remaining_bytes == 100.0
        assert not flow.finished

    def test_invalid_flow(self):
        with pytest.raises(ValueError):
            Flow("f", -1.0, ["a"])
        with pytest.raises(ValueError):
            Flow("f", 1.0, [])


class TestRateAllocation:
    def test_single_flow_gets_link_capacity(self):
        net = FluidNetwork(make_region())
        net.add_flow(Flow("f1", 1e9, ["a"]))
        net.compute_rates()
        assert net.flows["f1"].rate == pytest.approx(1e9)

    def test_two_flows_share_fairly(self):
        net = FluidNetwork(make_region())
        net.add_flow(Flow("f1", 1e9, ["a"]))
        net.add_flow(Flow("f2", 1e9, ["a"]))
        net.compute_rates()
        assert net.flows["f1"].rate == pytest.approx(0.5e9)
        assert net.flows["f2"].rate == pytest.approx(0.5e9)

    def test_max_min_fairness_with_bottleneck(self):
        """A flow constrained elsewhere releases bandwidth to its competitors."""
        net = FluidNetwork(make_region())
        net.add_flow(Flow("narrow", 1e9, ["a", "c"]))  # bottlenecked by c
        net.add_flow(Flow("wide", 1e9, ["a"]))
        net.compute_rates()
        assert net.flows["narrow"].rate == pytest.approx(0.5e9)
        assert net.flows["wide"].rate == pytest.approx(0.5e9, rel=1e-6)

    def test_unknown_link_rejected(self):
        net = FluidNetwork(make_region())
        with pytest.raises(KeyError):
            net.add_flow(Flow("f", 10.0, ["nope"]))

    def test_duplicate_flow_id_rejected(self):
        net = FluidNetwork(make_region())
        net.add_flow(Flow("f", 10.0, ["a"]))
        with pytest.raises(ValueError):
            net.add_flow(Flow("f", 10.0, ["a"]))


class TestProgression:
    def test_time_to_next_completion(self):
        net = FluidNetwork(make_region())
        net.add_flow(Flow("f1", 1e9, ["a"]))
        net.add_flow(Flow("f2", 2e9, ["b"]))
        assert net.time_to_next_completion() == pytest.approx(1.0)

    def test_advance_completes_flows_in_order(self):
        net = FluidNetwork(make_region())
        net.add_flow(Flow("f1", 1e9, ["a"]))
        net.add_flow(Flow("f2", 2e9, ["b"]))
        finished = net.advance(1.0)
        assert [f.flow_id for f in finished] == ["f1"]
        finished = net.advance(net.time_to_next_completion())
        assert [f.flow_id for f in finished] == ["f2"]
        assert net.active_flow_count() == 0

    def test_rates_rebalance_after_completion(self):
        net = FluidNetwork(make_region())
        net.add_flow(Flow("f1", 0.5e9, ["a"]))
        net.add_flow(Flow("f2", 2e9, ["a"]))
        net.advance(net.time_to_next_completion())
        net.compute_rates()
        assert net.flows["f2"].rate == pytest.approx(1e9)

    def test_empty_network(self):
        net = FluidNetwork(make_region())
        assert net.time_to_next_completion() is None
        assert net.advance(1.0) == []

    def test_dark_link_blocks_progress(self):
        region = make_region()
        net = FluidNetwork(region)
        net.add_flow(Flow("f", 1e9, ["a"]))
        region.set_capacity("a", 0.0)
        net.mark_topology_changed()
        assert net.time_to_next_completion() is None

    def test_capacity_change_takes_effect(self):
        region = make_region()
        net = FluidNetwork(region)
        net.add_flow(Flow("f", 1e9, ["a"]))
        region.set_capacity("a", 16.0)
        net.mark_topology_changed()
        assert net.time_to_next_completion() == pytest.approx(0.5)

    def test_negative_advance_rejected(self):
        net = FluidNetwork(make_region())
        with pytest.raises(ValueError):
            net.advance(-0.1)

    def test_conservation_of_bytes(self):
        """The sum of transferred bytes equals the injected volume."""
        net = FluidNetwork(make_region())
        sizes = [0.3e9, 0.7e9, 1.1e9]
        for index, size in enumerate(sizes):
            net.add_flow(Flow(f"f{index}", size, ["a"]))
        transferred = 0.0
        for _ in range(10):
            dt = net.time_to_next_completion()
            if dt is None:
                break
            rates = {fid: flow.rate for fid, flow in net.flows.items()}
            finished = net.advance(dt)
            transferred += sum(rates[fid] * dt for fid in rates)
            if not net.active_flow_count():
                break
        assert transferred == pytest.approx(sum(sizes), rel=1e-6)


class TestHelpers:
    def test_total_path_bytes(self):
        flows = [Flow("f1", 10.0, ["a", "c"]), Flow("f2", 5.0, ["a"])]
        usage = total_path_bytes(flows)
        assert usage == {"a": 15.0, "c": 10.0}


class TestDenseRoundBoundary:
    """Cross-solver differential at the heap->dense switchover.

    The vectorized solver drives the bottleneck sequence with a share heap
    below DENSE_ROUND_THRESHOLD active flows and with dense numpy
    water-filling rounds at or above it; 511/512/513 flows straddle the
    switch, so all three regimes must agree with the scalar reference (and
    the native kernel, when compiled) on every rate.
    """

    @staticmethod
    def build_network(solver, num_flows):
        import random

        rng = random.Random(1234)
        region = RegionNetwork(servers=[0])
        num_links = 48
        link_ids = [f"l{i}" for i in range(num_links)]
        for link_id in link_ids:
            region.add_link(link_id, capacity_gbps=rng.choice([4.0, 8.0, 16.0]))
        net = FluidNetwork(region, solver=solver)
        for i in range(num_flows):
            hops = rng.sample(link_ids, rng.randint(1, 3))
            net.add_flow(Flow(f"f{i}", 1e6 * rng.randint(1, 50), hops))
        return net

    @pytest.mark.parametrize("num_flows", [511, 512, 513])
    def test_solvers_agree_at_boundary(self, num_flows):
        from repro.sim._native import native_available
        from repro.sim.flows import DENSE_ROUND_THRESHOLD

        assert DENSE_ROUND_THRESHOLD == 512  # the boundary this test straddles
        reference = self.build_network("scalar", num_flows)
        reference.compute_rates()
        solvers = ["vectorized"] + (["native"] if native_available() else [])
        for solver in solvers:
            candidate = self.build_network(solver, num_flows)
            candidate.compute_rates()
            for flow_id, ref_flow in reference.flows.items():
                rate = candidate.flows[flow_id].rate
                assert rate == pytest.approx(ref_flow.rate, rel=1e-9), (
                    solver, flow_id, num_flows,
                )

    @pytest.mark.parametrize("num_flows", [511, 513])
    def test_advance_matches_across_boundary(self, num_flows):
        """One completion step keeps the solvers in lockstep as retirements
        cross the threshold from either side."""
        reference = self.build_network("scalar", num_flows)
        candidate = self.build_network("vectorized", num_flows)
        for _ in range(3):
            dt_ref = reference.time_to_next_completion()
            dt_new = candidate.time_to_next_completion()
            assert dt_new == pytest.approx(dt_ref, rel=1e-9)
            done_ref = [f.flow_id for f in reference.advance(dt_ref)]
            done_new = [f.flow_id for f in candidate.advance(dt_new)]
            assert done_ref == done_new


class TestNativeOOMFallback:
    """WF_OOM must surface as a warning + Python fallback, never as silent
    all-zero rates (which used to reappear later as a bogus executor
    "deadlock" RuntimeError)."""

    class _OOMLib:
        """Proxies the real kernel but reports scratch OOM from every entry."""

        def __init__(self, real):
            self._real = real

        def __getattr__(self, name):
            return getattr(self._real, name)

        def waterfill(self, *args):
            return 1  # WF_OOM

        def waterfill_batch(self, *args):
            return 1  # WF_OOM

    @staticmethod
    def _native_network():
        from repro.sim._native import native_available

        if not native_available():
            pytest.skip("native kernel unavailable")
        net = FluidNetwork(make_region(), solver="native")
        assert net._native_ready()
        return net

    def test_solve_falls_back_with_warning(self):
        net = self._native_network()
        lib, ffi = net._native_loaded
        net._native_loaded = (self._OOMLib(lib), ffi)
        net.add_flow(Flow("f1", 1e9, ["a"]))
        net.add_flow(Flow("f2", 1e9, ["a"]))
        with pytest.warns(RuntimeWarning, match="could not allocate scratch"):
            net.compute_rates()
        # Correct rates from the Python solver, and the network is demoted so
        # the failing allocation is not retried every solve.
        assert net.flows["f1"].rate == pytest.approx(0.5e9)
        assert net.flows["f2"].rate == pytest.approx(0.5e9)
        assert net.solver == "vectorized"

    def test_batched_advance_falls_back_with_warning(self):
        from repro.sim.flows import FlowAdvanceRequest, service_advance_requests

        reference = self._native_network()
        reference.add_flow(Flow("f1", 1e9, ["a"]))
        reference.add_flow(Flow("f2", 2e9, ["b"]))
        expected = service_advance_requests(
            [FlowAdvanceRequest(reference, now=0.0, budget=None)]
        )[0]

        net = self._native_network()
        lib, ffi = net._native_loaded
        net._native_loaded = (self._OOMLib(lib), ffi)
        net.add_flow(Flow("f1", 1e9, ["a"]))
        net.add_flow(Flow("f2", 2e9, ["b"]))
        with pytest.warns(RuntimeWarning, match="could not allocate scratch"):
            outcome = service_advance_requests(
                [FlowAdvanceRequest(net, now=0.0, budget=None)]
            )[0]
        assert outcome.now == pytest.approx(expected.now, rel=1e-12)
        assert outcome.reason == expected.reason
        assert [f.flow_id for f in outcome.finished] == [
            f.flow_id for f in expected.finished
        ]

class TestWarmStartBoundary:
    """Warm-started waterfill_batch must replay the cold rounds exactly.

    The incremental mode rebuilds each event's water-filling bookkeeping from
    persistent per-block state (O(num_rows) memcpys) instead of from the CSR
    (O(nnz)); the rounds it then runs consume identical counts, residuals and
    bucket order, so every rate — and therefore every completion time and
    ordering — must be bit-identical, not merely close.  511/512/513 flows
    straddle the Python reference's heap->dense switch, pinning the native
    kernel against both reference regimes.
    """

    @pytest.fixture(autouse=True)
    def _reset_warm_start(self):
        from repro.sim.flows import set_warm_start

        yield
        set_warm_start(None)

    @staticmethod
    def _native_or_skip():
        from repro.sim._native import native_available

        if not native_available():
            pytest.skip("native kernel unavailable")

    @staticmethod
    def _drain(net):
        """Full solve → completion → advance drain through one batched call."""
        outcome = net.advance_through(0.0)
        return (
            outcome.now,
            [flow.flow_id for flow in outcome.finished],
            outcome.steps,
            outcome.reason,
        )

    @pytest.mark.parametrize("num_flows", [511, 512, 513])
    def test_warm_matches_cold_bit_exactly(self, num_flows):
        from repro.sim.flows import set_warm_start

        self._native_or_skip()
        build = TestDenseRoundBoundary.build_network
        set_warm_start(False)
        cold_now, cold_order, cold_steps, cold_reason = self._drain(
            build("native", num_flows)
        )
        set_warm_start(True)
        warm_now, warm_order, warm_steps, warm_reason = self._drain(
            build("native", num_flows)
        )
        assert warm_now == cold_now  # bit-exact, not approx
        assert warm_order == cold_order
        assert (warm_steps, warm_reason) == (cold_steps, cold_reason)
        # Every flow drained (ties retire several per step), so the event
        # count crossed the 512-active boundary from above.
        assert len(cold_order) == num_flows

    @pytest.mark.parametrize("num_flows", [511, 513])
    def test_warm_agrees_with_python_reference(self, num_flows):
        from repro.sim.flows import set_warm_start

        self._native_or_skip()
        build = TestDenseRoundBoundary.build_network
        ref_now, ref_order, ref_steps, ref_reason = self._drain(
            build("vectorized", num_flows)
        )
        set_warm_start(True)
        warm_now, warm_order, warm_steps, warm_reason = self._drain(
            build("native", num_flows)
        )
        assert warm_now == pytest.approx(ref_now, rel=1e-9)
        assert warm_order == ref_order
        assert (warm_steps, warm_reason) == (ref_steps, ref_reason)

    def test_flag_plumbing(self, monkeypatch):
        from repro.sim.flows import set_warm_start, warm_start_enabled

        assert warm_start_enabled()  # default on
        monkeypatch.setenv("REPRO_WATERFILL_WARM_START", "0")
        assert not warm_start_enabled()
        set_warm_start(True)  # explicit override beats the environment
        assert warm_start_enabled()
        set_warm_start(None)
        assert not warm_start_enabled()


class TestIncrementalReplay:
    """The freeze-level replay mode must retrace the warm-start solve exactly.

    Between consecutive events of a block only flow retirements change the
    water-filling inputs, and a retired flow was unfrozen during every round
    before its freeze level, so rounds below the minimum retired level are
    bit-identical and the kernel replays them from the recorded freeze order
    instead of re-running their argmin scans (DESIGN.md §10).  These tests
    pin the mode against the warm-start and cold paths and the Python
    references at the 511/512/513 heap->dense boundary, and check that the
    replay actually engages.
    """

    @pytest.fixture(autouse=True)
    def _reset_modes(self):
        from repro.sim.flows import set_incremental, set_warm_start

        yield
        set_incremental(None)
        set_warm_start(None)

    @staticmethod
    def _native_or_skip():
        from repro.sim._native import native_available

        if not native_available():
            pytest.skip("native kernel unavailable")

    @staticmethod
    def _drain(net):
        outcome = net.advance_through(0.0)
        return (
            outcome.now,
            [flow.flow_id for flow in outcome.finished],
            outcome.steps,
            outcome.reason,
            outcome.solve_rounds,
            outcome.rounds_replayed,
        )

    @pytest.mark.parametrize("num_flows", [511, 512, 513])
    def test_incremental_matches_warm_and_cold_bit_exactly(self, num_flows):
        from repro.sim.flows import set_incremental, set_warm_start

        self._native_or_skip()
        build = TestDenseRoundBoundary.build_network
        set_incremental(False)
        set_warm_start(False)
        cold = self._drain(build("native", num_flows))
        set_warm_start(True)
        warm = self._drain(build("native", num_flows))
        set_incremental(True)
        inc = self._drain(build("native", num_flows))
        # now / finish order / steps / reason all bit-exact across modes.
        assert inc[:4] == warm[:4] == cold[:4]
        assert len(cold[1]) == num_flows  # the whole block drained
        # The replay engaged and saved argmin scans: rounds inherited from
        # the freeze record are > 0 and executed rounds strictly fewer than
        # the warm-start path ran.
        assert cold[5] == warm[5] == 0
        assert inc[5] > 0
        assert inc[4] < warm[4]

    @pytest.mark.parametrize("num_flows", [511, 513])
    def test_incremental_agrees_with_python_reference(self, num_flows):
        from repro.sim.flows import set_incremental

        self._native_or_skip()
        build = TestDenseRoundBoundary.build_network
        ref = self._drain(build("vectorized", num_flows))
        set_incremental(True)
        inc = self._drain(build("native", num_flows))
        assert inc[0] == pytest.approx(ref[0], rel=1e-9)
        assert inc[1] == ref[1]
        assert inc[2:4] == ref[2:4]

    def test_incremental_survives_midstream_admission(self):
        """Admission between batched calls rebuilds the CSR; the freeze
        record is per-call state, so the second call must restart cold and
        still match the Python reference."""
        from repro.sim.flows import (
            FlowAdvanceRequest,
            service_advance_requests,
            set_incremental,
        )

        self._native_or_skip()
        set_incremental(True)
        net = TestDenseRoundBoundary.build_network("native", 64)
        reference = TestDenseRoundBoundary.build_network("vectorized", 64)
        traces = []
        for candidate in (net, reference):
            trace = []
            # First batched span stops mid-block on the step budget...
            outcome = service_advance_requests(
                [FlowAdvanceRequest(candidate, now=0.0, budget=20)]
            )[0]
            trace.append((outcome.now, [f.flow_id for f in outcome.finished],
                          outcome.steps, outcome.reason))
            # ...then an admission rebuilds the CSR mid-stream...
            candidate.add_flow(Flow("late", 5e7, ["l0", "l1"]))
            # ...and the rest drains through a second batched span.
            outcome = service_advance_requests(
                [FlowAdvanceRequest(candidate, now=outcome.now, budget=None)]
            )[0]
            trace.append((outcome.now, [f.flow_id for f in outcome.finished],
                          outcome.steps, outcome.reason))
            traces.append(trace)
        native_trace, ref_trace = traces
        for (now_n, done_n, steps_n, why_n), (now_r, done_r, steps_r, why_r) in zip(
            native_trace, ref_trace
        ):
            assert now_n == pytest.approx(now_r, rel=1e-9)
            assert done_n == done_r
            assert (steps_n, why_n) == (steps_r, why_r)
        assert "late" in native_trace[1][1]

    def test_flag_plumbing(self, monkeypatch):
        from repro.sim.flows import incremental_enabled, set_incremental

        assert incremental_enabled()  # default on
        monkeypatch.setenv("REPRO_WATERFILL_INCREMENTAL", "0")
        assert not incremental_enabled()
        set_incremental(True)  # explicit override beats the environment
        assert incremental_enabled()
        set_incremental(None)
        assert not incremental_enabled()


class TestCompileRace:
    """Two processes (here: threads, same flock semantics) entering
    _compile() concurrently must produce one build, not clobber each other:
    the loser blocks on the lock, re-checks, and adopts the winner's
    published artifact."""

    class _SlowFakeFFI:
        builds = []

        def cdef(self, *_args, **_kwargs):
            pass

        def set_source(self, _name, _source, **_kwargs):
            pass

        def compile(self, tmpdir, verbose=False):
            import os
            import time

            TestCompileRace._SlowFakeFFI.builds.append(tmpdir)
            time.sleep(0.3)  # hold the lock long enough for the loser to queue
            path = os.path.join(tmpdir, "_repro_waterfill.fake.so")
            with open(path, "wb") as handle:
                handle.write(b"fake shared object")
            return path

    def test_concurrent_compiles_build_once(self, monkeypatch, tmp_path):
        import threading

        import cffi

        from repro.sim import _native

        pytest.importorskip("fcntl")
        self._SlowFakeFFI.builds = []
        monkeypatch.setattr(cffi, "FFI", self._SlowFakeFFI)
        monkeypatch.setattr(
            _native, "_build_dir", lambda: str(tmp_path / "kernel")
        )

        outcomes = [None, None]

        def attempt(slot):
            outcomes[slot] = _native._compile()

        threads = [
            threading.Thread(target=attempt, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert outcomes[0] is not None and outcomes[0] == outcomes[1]
        import os

        assert os.path.exists(outcomes[0])
        assert len(self._SlowFakeFFI.builds) == 1  # loser adopted, not rebuilt


class TestFlowAdapter:
    """The Flow objects the network hands out are views onto its arrays.

    After interleaved admissions (array batches with generated ids and Flow
    objects with explicit ids), retirements and a capacity change, the ids,
    paths and attributes seen through ``flows``, ``advance()`` and
    ``FlowAdvanceOutcome.finished`` must agree with the scalar oracle's.
    """

    @staticmethod
    def _region():
        region = RegionNetwork(servers=[0, 1])
        for link_id, capacity in (("a", 8.0), ("b", 8.0), ("c", 4.0), ("d", 16.0)):
            region.add_link(link_id, capacity_gbps=capacity)
        return region

    @staticmethod
    def _batch(net, sizes, paths):
        import numpy as np

        from repro.sim.flows import FlowBatch

        sizes = np.array(sizes, dtype=np.float64)
        return FlowBatch(
            sizes=sizes,
            thresholds=np.maximum(1e-3, 1e-9 * sizes),
            route_of=np.array([0, 1, 0], dtype=np.int32),
            rows=[net.path_rows(path) for path in paths],
        )

    @staticmethod
    def _snapshot(flows):
        return [(f.flow_id, f.size_bytes, f.path, f.remaining_bytes, f.rate)
                for f in flows]

    @staticmethod
    def _assert_same(got, expected):
        assert [entry[:3] for entry in got] == [entry[:3] for entry in expected]
        for entry, reference in zip(got, expected):
            assert entry[3] == pytest.approx(reference[3], rel=1e-9, abs=1e-6)
            assert entry[4] == pytest.approx(reference[4], rel=1e-9)

    def _drive(self, solver):
        from repro.sim.flows import FlowAdvanceRequest, service_advance_requests

        region = self._region()
        net = FluidNetwork(region, solver=solver)
        seen = []
        # Paths are shared lists, as the executor shares one per route.
        ac, bd = ["a", "c"], ["b", "d"]
        net.add_flows(self._batch(net, [4e8, 6e8, 9e8], [ac, bd]), group="t1")
        net.add_flows([Flow("x", 5e8, ["a"]), Flow("y", 2e9, ["d"])], group="t2")
        seen.append(self._snapshot(net.flows.values()))
        seen.append(self._snapshot(net.advance(net.time_to_next_completion())))
        net.compute_rates()
        seen.append(self._snapshot(net.flows.values()))
        # A reconfiguration: capacities change under live flows.
        region.set_capacity("c", 16.0)
        net.mark_topology_changed()
        net.add_flows(self._batch(net, [1e8, 3e8, 2e8], [bd, ac]), group="t3")
        outcome = service_advance_requests(
            [FlowAdvanceRequest(net, now=0.0, budget=None)]
        )[0]
        seen.append((outcome.reason, outcome.steps,
                     self._snapshot(outcome.finished)))
        seen.append(net.consume_drained_groups())
        seen.append(self._snapshot(net.flows.values()))
        return seen

    @pytest.mark.parametrize("solver", ["vectorized", "native"])
    def test_views_agree_with_scalar_oracle(self, solver):
        reference = self._drive("scalar")
        got = self._drive(solver)
        assert reference[0][0][0] == "t1/f0"  # ids made on demand
        assert [entry[0] for entry in reference[0]] == [
            "t1/f0", "t1/f1", "t1/f2", "x", "y",
        ]
        assert reference[0][1][2] == ["b", "d"]  # route_of picks the path
        for index in (0, 1, 2, 5):
            self._assert_same(got[index], reference[index])
        assert got[3][:2] == reference[3][:2]
        self._assert_same(got[3][2], reference[3][2])
        assert got[4] == reference[4] and got[4]  # a group drained

    def test_duplicate_ids_rejected_across_batches(self):
        net = FluidNetwork(self._region())
        net.add_flows(self._batch(net, [1e8, 2e8, 3e8], [["a"], ["b"]]), group="t")
        with pytest.raises(ValueError, match="duplicate flow id 't/f1'"):
            net.add_flow(Flow("t/f1", 1e8, ["c"]))

    def test_stale_finished_views_fail_loudly(self):
        net = FluidNetwork(self._region())
        net.add_flow(Flow("f", 1e8, ["a"]), group="g")
        outcome = net.advance_through(0.0)
        assert [flow.flow_id for flow in outcome.finished] == ["f"]
        # The empty network restarts its slots on the next admission.
        net.add_flow(Flow("h", 1e8, ["b"]), group="g2")
        with pytest.raises(RuntimeError, match="stale"):
            outcome.finished


class TestArrayRetirement:
    """Retirement by mask and group counts, checked against the scalar
    oracle's per-event path: simultaneous group drains are reported in the
    order each group's last flow retired, and compaction (slots dropped
    once retired ones dominate) keeps flow order and group counts."""

    @staticmethod
    def _network(solver, num_links):
        region = RegionNetwork(servers=[0])
        for index in range(num_links):
            region.add_link(f"l{index}", capacity_gbps=8.0)  # 1e9 B/s
        return FluidNetwork(region, solver=solver)

    @pytest.mark.parametrize("solver", ["scalar", "vectorized", "native"])
    def test_simultaneous_drains_in_last_flow_order(self, solver):
        net = self._network(solver, 4)
        # Group A holds slots 0 and 3, group B slots 1 and 2; all four flows
        # finish in the same event, so B (last flow in slot 2) drains first.
        net.add_flow(Flow("a0", 1e8, ["l0"]), group="A")
        net.add_flows([Flow("b0", 1e8, ["l1"]), Flow("b1", 1e8, ["l2"])], group="B")
        net.add_flow(Flow("a1", 1e8, ["l3"]), group="A")
        outcome = net.advance_through(0.0)
        assert (outcome.reason, outcome.steps) == ("group", 1)
        assert [f.flow_id for f in outcome.finished] == ["a0", "b0", "b1", "a1"]
        assert net.consume_drained_groups() == ["B", "A"]

    def _trace(self, solver):
        net = self._network(solver, 11)
        net.add_flow(Flow("tiny", 1e6, ["l0"]), group="G0")
        net.add_flows(
            [Flow(f"g1.{i}", (i + 1) * 1e7, [f"l{i + 1}"]) for i in range(8)],
            group="G1",
        )
        net.add_flows([Flow("big0", 5e8, ["l9"]), Flow("big1", 6e8, ["l10"])],
                      group="G2")
        trace = []
        now = 0.0
        for max_steps in (5_000_000, 6, 5_000_000, 5_000_000):
            outcome = net.advance_through(now, max_steps=max_steps)
            now = outcome.now
            trace.append((outcome.now, [f.flow_id for f in outcome.finished],
                          outcome.reason, net.consume_drained_groups()))
        return net, trace

    @pytest.mark.parametrize("solver", ["vectorized", "native"])
    def test_compaction_keeps_order_and_groups(self, solver):
        _, reference = self._trace("scalar")
        net, got = self._trace(solver)
        assert [entry[2] for entry in reference] == ["group", "steps", "group", "group"]
        assert [entry[3] for entry in reference] == [["G0"], [], ["G1"], ["G2"]]
        for (now, done, reason, drained), expected in zip(got, reference):
            assert now == pytest.approx(expected[0], rel=1e-12)
            assert (done, reason, drained) == expected[1:]
        if net.solver == "native":
            # The third call compacted the 11 slots down to the 4 live
            # flows, dropping the drained G0 group slot.
            assert net._epoch == 2 and net._n == 4 and net._live == 0
