"""Property-based and differential tests for the fluid rate solvers.

Max–min fairness invariants checked on randomised topologies, against both
solvers — the compiled kernel and the scalar oracle (run with the kernel
unavailable):

* feasibility — no link carries more than its capacity;
* bottleneck structure — every finite-rate flow crosses a saturated link on
  which its rate is maximal (the defining property of max–min fairness);
* scale equivariance — scaling all capacities scales all rates;
* leximin monotonicity — raising one link's capacity can only improve the
  sorted rate vector lexicographically;
* differential agreement — the kernel agrees with the oracle to 1e-9
  relative on randomised topologies, for one solve and through a whole
  add/advance lifecycle.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fabric.base import RegionNetwork
from repro.sim.flows import Flow, FluidNetwork

#: The solvers under test.  Without a compiler both are the oracle, which
#: keeps the suite meaningful (and green) everywhere.
ALL_SOLVERS = ("scalar", "native")

RELATIVE_TOLERANCE = 1e-9

#: ``without_kernel`` only hands out a context manager, so sharing it across
#: hypothesis examples is safe.
FIXTURE_OK = [HealthCheck.function_scoped_fixture]


# --------------------------------------------------------------------- helpers
def build_network(capacities, paths):
    """A region with links l0..lN and one flow per path."""
    region = RegionNetwork(servers=[0])
    for index, capacity in enumerate(capacities):
        region.add_link(f"l{index}", capacity_gbps=capacity)
    network = FluidNetwork(region)
    for index, path in enumerate(paths):
        network.add_flow(Flow(f"f{index}", 1e9, [f"l{link}" for link in path]))
    return region, network


@pytest.fixture
def solved_rates(without_kernel):
    """``solved_rates(capacities, paths, solver)``: each flow's rate."""

    def solve(capacities, paths, solver):
        _, network = build_network(capacities, paths)
        with without_kernel(solver == "scalar"):
            network.compute_rates()
        return [network.flows[f"f{index}"].rate for index in range(len(paths))]

    return solve


def assert_close(left, right, context=""):
    for index, (a, b) in enumerate(zip(left, right)):
        assert a == pytest.approx(b, rel=RELATIVE_TOLERANCE, abs=1e-6), (
            f"flow {index} disagrees{context}: {a!r} vs {b!r}"
        )


# A topology: capacities (Gbps) for up to 8 links, flows as non-empty subsets.
topologies = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda seed: _random_topology(seed)
)


def _random_topology(seed):
    rng = np.random.default_rng(seed)
    num_links = int(rng.integers(1, 9))
    capacities = rng.uniform(0.5, 800.0, size=num_links)
    if rng.random() < 0.15:  # occasionally include a dark link
        capacities[int(rng.integers(0, num_links))] = 0.0
    num_flows = int(rng.integers(1, 13))
    paths = []
    for _ in range(num_flows):
        length = int(rng.integers(1, num_links + 1))
        paths.append(list(rng.choice(num_links, size=length, replace=False)))
    return capacities.tolist(), paths


# ------------------------------------------------------------------ invariants
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=FIXTURE_OK)
@given(topology=topologies, solver=st.sampled_from(ALL_SOLVERS))
def test_no_link_oversubscribed(solved_rates, topology, solver):
    capacities, paths = topology
    rates = solved_rates(capacities, paths, solver)
    load = {}
    for path, rate in zip(paths, rates):
        for link in path:
            load[link] = load.get(link, 0.0) + rate
    for link, total in load.items():
        capacity = capacities[link] * 1e9 / 8.0
        assert total <= capacity * (1 + RELATIVE_TOLERANCE) + 1e-3


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=FIXTURE_OK)
@given(topology=topologies, solver=st.sampled_from(ALL_SOLVERS))
def test_every_flow_has_a_saturated_bottleneck(solved_rates, topology, solver):
    capacities, paths = topology
    rates = solved_rates(capacities, paths, solver)
    load = {}
    for path, rate in zip(paths, rates):
        for link in path:
            load[link] = load.get(link, 0.0) + rate
    for path, rate in zip(paths, rates):
        if not np.isfinite(rate):
            continue
        has_bottleneck = False
        for link in path:
            capacity = capacities[link] * 1e9 / 8.0
            saturated = load[link] >= capacity * (1 - RELATIVE_TOLERANCE) - 1e-3
            max_on_link = max(
                r for p, r in zip(paths, rates) if link in p
            )
            if saturated and rate >= max_on_link * (1 - RELATIVE_TOLERANCE) - 1e-3:
                has_bottleneck = True
                break
        assert has_bottleneck, f"flow on {path} (rate {rate}) has no bottleneck"


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=FIXTURE_OK)
@given(
    topology=topologies,
    solver=st.sampled_from(ALL_SOLVERS),
    factor=st.floats(min_value=1.1, max_value=16.0),
)
def test_rates_scale_with_capacity(solved_rates, topology, solver, factor):
    capacities, paths = topology
    base = solved_rates(capacities, paths, solver)
    scaled = solved_rates([c * factor for c in capacities], paths, solver)
    for a, b in zip(base, scaled):
        if np.isfinite(a):
            assert b == pytest.approx(a * factor, rel=1e-9, abs=1e-3)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=FIXTURE_OK)
@given(
    topology=topologies,
    solver=st.sampled_from(ALL_SOLVERS),
    data=st.data(),
)
def test_leximin_monotone_under_capacity_increase(solved_rates, topology, solver, data):
    """Raising one link's capacity lexicographically improves sorted rates.

    (Individual rates are *not* monotone — a faster side link can steal share
    from a previously-dominant flow — but the max–min allocation is the
    leximin optimum over a feasible region that only grows, so the sorted
    rate vector cannot lexicographically decrease.)
    """
    capacities, paths = topology
    link = data.draw(st.integers(min_value=0, max_value=len(capacities) - 1))
    boost = data.draw(st.floats(min_value=1.1, max_value=10.0))
    before = sorted(solved_rates(capacities, paths, solver))
    bigger = list(capacities)
    bigger[link] = max(bigger[link], 0.5) * boost
    after = sorted(solved_rates(bigger, paths, solver))
    for a, b in zip(before, after):
        tolerance = max(1e-3, RELATIVE_TOLERANCE * max(abs(a), abs(b)))
        if b > a + tolerance:
            return  # strictly better at the first differing position
        assert b >= a - tolerance, f"sorted rates degraded: {before} -> {after}"


# ---------------------------------------------------------------- differential
@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=FIXTURE_OK)
@given(topology=topologies)
def test_solvers_agree_with_scalar_reference(solved_rates, topology):
    capacities, paths = topology
    assert_close(
        solved_rates(capacities, paths, "native"),
        solved_rates(capacities, paths, "scalar"),
        context=" (kernel vs oracle)",
    )


def test_differential_through_progression(without_kernel):
    """The kernel tracks the oracle through a whole add/advance lifecycle,
    not just a single solve."""
    rng = np.random.default_rng(1234)
    for trial in range(10):
        capacities, paths = _random_topology(int(rng.integers(0, 2**32)))
        networks = {
            solver: build_network(capacities, paths)[1] for solver in ALL_SOLVERS
        }
        for step in range(40):
            dts, finished, counts = {}, {}, {}
            for solver, network in networks.items():
                with without_kernel(solver == "scalar"):
                    dts[solver] = dt = network.time_to_next_completion()
                    if dt is not None:
                        finished[solver] = sorted(
                            f.flow_id for f in network.advance(dt)
                        )
                counts[solver] = network.active_flow_count()
            if dts["scalar"] is None:
                assert dts["native"] is None
                break
            assert dts["native"] == pytest.approx(dts["scalar"], rel=1e-9)
            assert finished["native"] == finished["scalar"]
            assert counts["native"] == counts["scalar"]
            if counts["scalar"] == 0:
                break
