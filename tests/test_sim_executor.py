"""Tests for the discrete-event executor."""

import pytest

from repro.fabric.base import RegionNetwork
from repro.sim.dag import FlowSpec, RouteKind, TaskGraph
from repro.sim.executor import Executor
from repro.sim.flows import service_advance_requests


def make_region(capacity_gbps: float = 8.0) -> RegionNetwork:
    """Two servers joined by dedicated directed links (1 GB/s at 8 Gbps)."""
    region = RegionNetwork(servers=[0, 1])
    region.add_link("nvs:s0", 100.0)
    region.add_link("nvs:s1", 100.0)
    region.add_link("link01", capacity_gbps)
    region.add_link("link10", capacity_gbps)
    region.intra_links = {0: "nvs:s0", 1: "nvs:s1"}
    for (src, dst, link) in ((0, 1, "link01"), (1, 0, "link10")):
        path = [f"nvs:s{src}", link, f"nvs:s{dst}"]
        region.ep_paths[(src, dst)] = path
        region.eps_paths[(src, dst)] = path
    return region


class TestComputeChains:
    def test_sequential_compute(self):
        graph = TaskGraph()
        graph.add_compute("a", 1.0)
        graph.add_compute("b", 2.0, deps=["a"])
        result = Executor(graph, make_region()).run()
        assert result.makespan == pytest.approx(3.0)
        assert result.task_finish_times["a"] == pytest.approx(1.0)

    def test_parallel_compute(self):
        graph = TaskGraph()
        graph.add_compute("a", 1.0)
        graph.add_compute("b", 2.0)
        result = Executor(graph, make_region()).run()
        assert result.makespan == pytest.approx(2.0)

    def test_barrier_and_zero_duration(self):
        graph = TaskGraph()
        graph.add_compute("a", 1.0)
        graph.add_compute("b", 0.5)
        graph.add_barrier("join", deps=["a", "b"])
        graph.add_compute("c", 1.0, deps=["join"])
        result = Executor(graph, make_region()).run()
        assert result.makespan == pytest.approx(2.0)


class TestCommunication:
    def test_single_flow_duration(self):
        graph = TaskGraph()
        # 1 GB over a 1 GB/s link -> 1 s.
        graph.add_comm("xfer", [FlowSpec(0, 1, 1e9)])
        result = Executor(graph, make_region()).run()
        assert result.makespan == pytest.approx(1.0, rel=1e-6)
        assert result.comm_bytes == pytest.approx(1e9)

    def test_contending_flows_share_bandwidth(self):
        graph = TaskGraph()
        graph.add_comm("xfer", [FlowSpec(0, 1, 1e9), FlowSpec(0, 1, 1e9)])
        result = Executor(graph, make_region()).run()
        assert result.makespan == pytest.approx(2.0, rel=1e-6)

    def test_comm_overlaps_with_compute(self):
        graph = TaskGraph()
        graph.add_compute("compute", 1.0)
        graph.add_comm("xfer", [FlowSpec(0, 1, 1e9)])
        result = Executor(graph, make_region()).run()
        assert result.makespan == pytest.approx(1.0, rel=1e-6)

    def test_empty_comm_completes_instantly(self):
        graph = TaskGraph()
        graph.add_comm("noop", [FlowSpec(0, 0, 0.0)])
        graph.add_compute("after", 1.0, deps=["noop"])
        result = Executor(graph, make_region()).run()
        assert result.makespan == pytest.approx(1.0)

    def test_intra_server_flow_uses_nvswitch(self):
        graph = TaskGraph()
        graph.add_comm("local", [FlowSpec(0, 0, 1e9, RouteKind.INTRA)])
        result = Executor(graph, make_region()).run()
        # NVSwitch is 100 Gbps = 12.5 GB/s -> 0.08 s.
        assert result.makespan == pytest.approx(0.08, rel=1e-6)

    def test_deadlock_detection_on_dark_path(self):
        region = make_region()
        region.set_capacity("link01", 0.0)
        graph = TaskGraph()
        graph.add_comm("xfer", [FlowSpec(0, 1, 1e9)])
        with pytest.raises(RuntimeError):
            Executor(graph, region).run()


class TestReconfiguration:
    def test_reconfig_callback_applied_before_dependent_comm(self):
        region = make_region(capacity_gbps=8.0)
        graph = TaskGraph()

        def upgrade() -> None:
            region.set_capacity("link01", 16.0)

        graph.add_reconfig("reconfig", 0.5, on_complete=upgrade)
        graph.add_comm("xfer", [FlowSpec(0, 1, 1e9)], deps=["reconfig"])
        result = Executor(graph, region).run()
        # 0.5 s reconfiguration + 0.5 s transfer at the doubled rate.
        assert result.makespan == pytest.approx(1.0, rel=1e-6)
        assert result.reconfig_time_total == pytest.approx(0.5)

    def test_hidden_reconfiguration_costs_nothing(self):
        region = make_region()
        graph = TaskGraph()
        graph.add_compute("compute", 1.0)
        graph.add_reconfig("reconfig", 0.2)
        graph.add_comm("xfer", [FlowSpec(0, 1, 1e9)], deps=["compute", "reconfig"])
        result = Executor(graph, region).run()
        assert result.makespan == pytest.approx(2.0, rel=1e-6)


class TestEventAccounting:
    """run()'s event budget, pinned.

    The executor delegates flow events to the batched driver, which charges
    them against ``max_events - events`` and reports steps consumed; the
    ``events`` counter on the result must not depend on how many executors
    share a batch or on which solver runs, and the budget must trip at
    exactly ``events``.
    """

    @staticmethod
    def _build():
        graph = TaskGraph()
        graph.add_compute("warmup", 0.1)
        graph.add_comm(
            "xfer",
            [FlowSpec(0, 1, 1e9), FlowSpec(0, 1, 5e8), FlowSpec(1, 0, 2e8)],
            deps=["warmup"],
        )
        graph.add_compute("cooldown", 0.2, deps=["xfer"])
        graph.add_comm("tail", [FlowSpec(1, 0, 1e8)], deps=["cooldown"])
        return Executor(graph, make_region())

    def test_run_and_folded_events_identical(self):
        """run() (a one-block batch) against two executors folded into one
        batch: identical events, times and kernel counters."""
        reference = self._build().run()
        generators = [self._build().iter_run() for _ in range(2)]
        requests = [next(generator) for generator in generators]
        folded = []
        while requests:
            outcomes = service_advance_requests(requests)
            pending = []
            for generator, outcome in zip(generators, outcomes):
                try:
                    pending.append((generator, generator.send(outcome)))
                except StopIteration as stop:
                    folded.append(stop.value)
            generators = [generator for generator, _ in pending]
            requests = [request for _, request in pending]
        assert len(folded) == 2
        for result in folded:
            assert result.events == reference.events > 0
            assert result.makespan == reference.makespan
            assert result.comm_bytes == reference.comm_bytes
            assert result.solve_rounds == reference.solve_rounds
            assert result.rounds_replayed == reference.rounds_replayed

    def test_max_events_budget_trips_at_same_threshold(self, without_kernel):
        events = self._build().run().events
        for oracle in (False, True):
            with without_kernel(oracle):
                # A budget of exactly `events` succeeds on kernel and oracle...
                assert self._build().run(max_events=events).events == events
                # ...and one fewer raises on both.
                with pytest.raises(RuntimeError, match="event budget"):
                    self._build().run(max_events=events - 1)


class TestErrorContext:
    """Deadlock and event-budget errors say where the run stood: simulated
    time, active flow count and the first unfinished tasks."""

    @staticmethod
    def _dark_path_executor():
        region = make_region()
        graph = TaskGraph()
        graph.add_compute("warmup", 0.25)
        graph.add_comm("xfer", [FlowSpec(0, 1, 1e9), FlowSpec(0, 1, 2e9)],
                       deps=["warmup"])
        graph.add_compute("after", 0.1, deps=["xfer"])
        graph.add_compute("last", 0.1, deps=["after"])
        graph.add_compute("final", 0.1, deps=["last"])

        def darken() -> None:
            region.set_capacity("link01", 0.0)

        graph.task("warmup").on_complete = darken
        return Executor(graph, region)

    @pytest.mark.parametrize("drive", ["run", "oracle"])
    def test_deadlock_names_time_flows_and_tasks(self, drive, without_kernel):
        with pytest.raises(RuntimeError) as info, without_kernel(drive == "oracle"):
            self._dark_path_executor().run()
        message = str(info.value)
        assert "deadlock" in message
        assert "t=0.25 s" in message
        assert "2 active flows" in message
        assert "unfinished tasks: xfer, after, last, ... (4 in all)" in message

    @pytest.mark.parametrize("drive", ["run", "oracle"])
    def test_event_budget_names_time_flows_and_tasks(self, drive, without_kernel):
        executor = TestEventAccounting._build()
        with pytest.raises(RuntimeError) as info, without_kernel(drive == "oracle"):
            executor.run(max_events=2)
        message = str(info.value)
        assert "maximum event budget (2)" in message
        assert "t=" in message and "active flows" in message
        assert "unfinished tasks: xfer" in message


class TestResultBookkeeping:
    def test_all_tasks_have_start_and_finish(self):
        graph = TaskGraph()
        graph.add_compute("a", 0.5)
        graph.add_comm("b", [FlowSpec(0, 1, 1e8)], deps=["a"])
        result = Executor(graph, make_region()).run()
        assert set(result.task_start_times) == {"a", "b"}
        assert set(result.task_finish_times) == {"a", "b"}
        assert result.duration_of("a") == pytest.approx(0.5)
        assert result.finished_tasks() == 2

    def test_cycle_rejected_at_construction(self):
        graph = TaskGraph()
        graph.add_compute("a", 1.0)
        # Manually create a cycle to bypass add-time validation.
        graph.task("a").deps.append("a")
        with pytest.raises(ValueError):
            Executor(graph, make_region())
