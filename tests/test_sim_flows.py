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


def random_network(num_flows):
    """``num_flows`` single-flow admissions over 48 links of mixed capacity:
    511/512/513 flows are the sizes the kernel tests drain."""
    import random

    rng = random.Random(1234)
    region = RegionNetwork(servers=[0])
    num_links = 48
    link_ids = [f"l{i}" for i in range(num_links)]
    for link_id in link_ids:
        region.add_link(link_id, capacity_gbps=rng.choice([4.0, 8.0, 16.0]))
    net = FluidNetwork(region)
    for i in range(num_flows):
        hops = rng.sample(link_ids, rng.randint(1, 3))
        net.add_flow(Flow(f"f{i}", 1e6 * rng.randint(1, 50), hops))
    return net


def native_or_skip():
    from repro.sim._native import native_available

    if not native_available():
        pytest.skip("native kernel unavailable")


class TestNativeOOMFallback:
    """WF_OOM must surface as a warning + scalar-oracle fallback, never as
    silent all-zero rates (which used to reappear later as a bogus executor
    "deadlock" RuntimeError)."""

    class _OOMLib:
        """Stands in for the kernel and reports scratch OOM."""

        def waterfill_batch(self, *args):
            return 1  # WF_OOM

    @pytest.fixture
    def oom_kernel(self, monkeypatch):
        from repro.sim import _native

        native_or_skip()
        _, ffi = _native.native_lib()
        monkeypatch.setattr(_native, "native_lib", lambda: (self._OOMLib(), ffi))

    @staticmethod
    def _network():
        net = FluidNetwork(make_region())
        net.add_flow(Flow("f1", 1e9, ["a"]))
        net.add_flow(Flow("f2", 2e9, ["b"]))
        net.add_flow(Flow("f3", 1e9, ["a"]))
        return net

    def test_solve_falls_back_with_warning(self, oom_kernel):
        net = self._network()
        with pytest.warns(RuntimeWarning, match="could not allocate scratch"):
            net.compute_rates()
        # Correct rates from the scalar oracle.
        assert net.flows["f1"].rate == pytest.approx(0.5e9)
        assert net.flows["f2"].rate == pytest.approx(1e9)
        assert net.flows["f3"].rate == pytest.approx(0.5e9)

    def test_batched_advance_falls_back_with_warning(self, request):
        from repro.sim.flows import FlowAdvanceRequest, service_advance_requests

        native_or_skip()
        expected = service_advance_requests(
            [FlowAdvanceRequest(self._network(), now=0.0, budget=None)]
        )[0]
        request.getfixturevalue("oom_kernel")
        net = self._network()
        with pytest.warns(RuntimeWarning, match="could not allocate scratch"):
            outcome = service_advance_requests(
                [FlowAdvanceRequest(net, now=0.0, budget=None)]
            )[0]
        assert outcome.now == pytest.approx(expected.now, rel=1e-12)
        assert outcome.reason == expected.reason
        assert [f.flow_id for f in outcome.finished] == [
            f.flow_id for f in expected.finished
        ]
        assert expected.solve_rounds > 0 and outcome.solve_rounds == 0


class TestIncrementalReplay:
    """The kernel's freeze-level replay must retrace a full solve.

    Between consecutive events of a block only flow retirements change the
    water-filling inputs, and a retired flow was unfrozen during every round
    before its freeze level, so rounds below the minimum retired level are
    bit-identical and the kernel replays them from the recorded freeze order
    instead of re-running their argmin scans (DESIGN.md §10).  These tests
    drain 511/512/513-flow blocks against the scalar oracle and check that
    the replay actually engages.
    """

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
    def test_incremental_agrees_with_python_reference(self, num_flows, without_kernel):
        native_or_skip()
        inc = self._drain(random_network(num_flows))
        with without_kernel():
            ref = self._drain(random_network(num_flows))
        assert inc[0] == pytest.approx(ref[0], rel=1e-9)
        assert inc[1] == ref[1]
        assert inc[2:4] == ref[2:4]
        assert len(inc[1]) == num_flows  # the whole block drained
        # The replay engaged: rounds were inherited from the freeze record.
        assert inc[5] > 0
        assert ref[4:] == (0, 0)

    def test_incremental_survives_midstream_admission(self, without_kernel):
        """Admission between batched calls rebuilds the CSR; the freeze
        record is per-call state, so the second call must restart cold and
        still match the scalar oracle."""
        from repro.sim.flows import FlowAdvanceRequest, service_advance_requests

        native_or_skip()

        def trace():
            candidate = random_network(64)
            steps = []
            # First batched span stops mid-block on the step budget...
            outcome = service_advance_requests(
                [FlowAdvanceRequest(candidate, now=0.0, budget=20)]
            )[0]
            steps.append((outcome.now, [f.flow_id for f in outcome.finished],
                          outcome.steps, outcome.reason))
            # ...then an admission rebuilds the CSR mid-stream...
            candidate.add_flow(Flow("late", 5e7, ["l0", "l1"]))
            # ...and the rest drains through a second batched span.
            outcome = service_advance_requests(
                [FlowAdvanceRequest(candidate, now=outcome.now, budget=None)]
            )[0]
            steps.append((outcome.now, [f.flow_id for f in outcome.finished],
                          outcome.steps, outcome.reason))
            return steps

        native_trace = trace()
        with without_kernel():
            ref_trace = trace()
        for (now_n, done_n, steps_n, why_n), (now_r, done_r, steps_r, why_r) in zip(
            native_trace, ref_trace
        ):
            assert now_n == pytest.approx(now_r, rel=1e-9)
            assert done_n == done_r
            assert (steps_n, why_n) == (steps_r, why_r)
        assert "late" in native_trace[1][1]


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


class TestKernelBuildFailure:
    """A host without a working C compiler gets one RuntimeWarning naming
    the build error, and the simulator runs on the scalar oracle."""

    SCRIPT = """
import json
import warnings

with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    from repro.sim._native import native_available
    from repro.sweep import FoldedSweepRunner, SweepSpec

    available = native_available()
    spec = SweepSpec(fabrics=["MixNet"], models=["Mixtral-8x7B"], num_servers=16)
    results = FoldedSweepRunner(spec).run()
print(json.dumps({
    "available": available,
    "warnings": [str(w.message) for w in caught
                 if issubclass(w.category, RuntimeWarning)],
    "iteration_time_s": [r.iteration_time_s for r in results],
    "solve_rounds": [r.solve_rounds for r in results],
}))
"""

    def test_build_failure_warns_once_and_falls_back(self, tmp_path):
        import json
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, CC="/nonexistent-cc", TMPDIR=str(tmp_path),
                   PYTHONPATH=src)
        env.pop("REPRO_NATIVE_CFLAGS", None)
        completed = subprocess.run(
            [sys.executable, "-c", self.SCRIPT], env=env, capture_output=True,
            text=True, timeout=300, check=True,
        )
        report = json.loads(completed.stdout.splitlines()[-1])
        assert report["available"] is False
        assert len(report["warnings"]) == 1, report["warnings"]
        warning = report["warnings"][0]
        assert "native fluid kernel unavailable" in warning
        assert "Error: " in warning  # the exception's type...
        assert "nonexistent-cc" in warning  # ...and its own message
        assert "scalar oracle" in warning
        assert len(report["iteration_time_s"]) == 1
        assert report["iteration_time_s"][0] > 0
        assert report["solve_rounds"] == [0]  # the oracle ran, not a kernel


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

    def _drive(self):
        from repro.sim.flows import FlowAdvanceRequest, service_advance_requests

        region = self._region()
        net = FluidNetwork(region)
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

    def test_views_agree_with_scalar_oracle(self, without_kernel):
        with without_kernel():
            reference = self._drive()
        got = self._drive()
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
    once retired ones dominate) keeps flow order and group counts.  The
    ``scalar`` legs run with the kernel unavailable."""

    @staticmethod
    def _network(num_links):
        region = RegionNetwork(servers=[0])
        for index in range(num_links):
            region.add_link(f"l{index}", capacity_gbps=8.0)  # 1e9 B/s
        return FluidNetwork(region)

    @pytest.mark.parametrize("solver", ["scalar", "native"])
    def test_simultaneous_drains_in_last_flow_order(self, solver, without_kernel):
        net = self._network(4)
        # Group A holds slots 0 and 3, group B slots 1 and 2; all four flows
        # finish in the same event, so B (last flow in slot 2) drains first.
        net.add_flow(Flow("a0", 1e8, ["l0"]), group="A")
        net.add_flows([Flow("b0", 1e8, ["l1"]), Flow("b1", 1e8, ["l2"])], group="B")
        net.add_flow(Flow("a1", 1e8, ["l3"]), group="A")
        with without_kernel(solver == "scalar"):
            outcome = net.advance_through(0.0)
        assert (outcome.reason, outcome.steps) == ("group", 1)
        assert [f.flow_id for f in outcome.finished] == ["a0", "b0", "b1", "a1"]
        assert net.consume_drained_groups() == ["B", "A"]

    def _trace(self):
        net = self._network(11)
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

    @pytest.mark.parametrize("solver", ["scalar", "native"])
    def test_compaction_keeps_order_and_groups(self, solver, without_kernel):
        with without_kernel():
            _, reference = self._trace()
        with without_kernel(solver == "scalar"):
            net, got = self._trace()
        assert [entry[2] for entry in reference] == ["group", "steps", "group", "group"]
        assert [entry[3] for entry in reference] == [["G0"], [], ["G1"], ["G2"]]
        for (now, done, reason, drained), expected in zip(got, reference):
            assert now == pytest.approx(expected[0], rel=1e-12)
            assert (done, reason, drained) == expected[1:]
        # The third call compacted the 11 slots down to the 4 live flows,
        # dropping the drained G0 group slot.
        assert net._epoch == 2 and net._n == 4 and net._live == 0
