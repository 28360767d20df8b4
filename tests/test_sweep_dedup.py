"""One simulation per simulation key (DESIGN.md §12).

Configs that differ only in the controller fields (first-all-to-all policy,
reconfiguration delay, Algorithm 1 engine) of a non-reconfigurable fabric
run the same simulation; :meth:`SweepRunner.run` simulates each key once and
gives every config its own copy.  These tests cover the key's soundness
(through :func:`run_config`, which never deduplicates), the boundary
validation the key relies on, the predicate shared by the key and the
simulator, the runner's copies and failures, and the result cache.
"""

import itertools
import json
import math
from dataclasses import fields

import pytest

import repro.sweep.runner as runner_mod
from repro.cluster import simulation_cluster
from repro.core.reconfigure import ENGINES
from repro.core.runtime import FIRST_A2A_POLICIES, TrainingSimulator
from repro.sweep import (
    FABRIC_BUILDERS,
    FoldedSweepRunner,
    SweepConfig,
    SweepResult,
    SweepRunError,
    SweepRunner,
    SweepSpec,
    build_fabric,
    resolve_model,
    run_config,
)
from repro.sweep.__main__ import main as sweep_main
from repro.sweep.phases import summarize_phases
from repro.sweep.registry import fabric_reconfigurable
from repro.sweep.spec import CONTROLLER_FIELDS

STATIC_FABRICS = [name for name in FABRIC_BUILDERS if not fabric_reconfigurable(name)]

#: Fields of a SweepResult that describe the simulation, not the run.
_RUN_FIELDS = {
    "config", "config_hash", "wall_time_s", "setup_s", "solve_s", "advance_s",
    "store_s", "template_source", "from_cache", "shared_from",
}
SIMULATED_FIELDS = [f.name for f in fields(SweepResult) if f.name not in _RUN_FIELDS]

#: Fat-tree and MixNet under two policies and two seeds: the two static
#: copilot configs share a key with their block twins.
POLICY_SPEC = SweepSpec(
    fabrics=["Fat-tree", "MixNet"],
    models=["Mixtral-8x7B"],
    first_a2a_policies=["block", "copilot"],
    seeds=[0, 1],
    num_servers=16,
)


def simulated(result):
    """The simulated values of a result, numbers as exact float hex."""
    values = []
    for name in SIMULATED_FIELDS:
        value = getattr(result, name)
        values.append(value if isinstance(value, str) else float(value).hex())
    return values


def shared_count(configs):
    return len(configs) - len({config.simulation_key() for config in configs})


class TestConfigValidation:
    """Bad values are rejected where a config is made.  The key drops the
    delay on static fabrics, so a bad delay must never reach it."""

    @staticmethod
    def config(**overrides):
        return SweepConfig(model="Mixtral-8x22B", num_servers=64, **overrides)

    def test_nan_bandwidth_rejected(self):
        # Used to end in an executor deadlock error at run time.
        with pytest.raises(ValueError, match="nic_bandwidth_gbps"):
            self.config(fabric="MixNet", nic_bandwidth_gbps=math.nan)

    @pytest.mark.parametrize("bandwidth", [math.inf, 0.0, -100.0])
    def test_bad_bandwidth_rejected(self, bandwidth):
        with pytest.raises(ValueError, match="nic_bandwidth_gbps"):
            self.config(fabric="Fat-tree", nic_bandwidth_gbps=bandwidth)

    def test_nan_delay_on_mixnet_rejected(self):
        # Used to burn the executor's whole 5M-event budget.
        with pytest.raises(ValueError, match="reconfiguration_delay_s"):
            self.config(fabric="MixNet", reconfiguration_delay_s=math.nan)

    def test_nan_delay_on_fat_tree_rejected(self):
        # Used to return 37.0 s silently: static fabrics never read it.
        with pytest.raises(ValueError, match="reconfiguration_delay_s"):
            self.config(fabric="Fat-tree", reconfiguration_delay_s=math.nan)

    def test_negative_delay_on_fat_tree_rejected(self):
        # Used to fail only at run time, from RuntimeOptions.
        with pytest.raises(ValueError, match="reconfiguration_delay_s"):
            self.config(fabric="Fat-tree", reconfiguration_delay_s=-1.0)

    def test_infinite_delay_rejected(self):
        with pytest.raises(ValueError, match="reconfiguration_delay_s"):
            self.config(fabric="MixNet", reconfiguration_delay_s=math.inf)

    def test_cli_reports_bad_delay_as_one_line(self, capsys):
        assert sweep_main(["--fabrics", "Fat-tree", "--delays", "nan"]) == 2
        assert capsys.readouterr().err.startswith("error: reconfiguration_delay_s")

    def test_valid_configs_keep_their_hashes(self):
        assert SweepConfig(
            fabric="MixNet", model="Mixtral-8x7B"
        ).config_hash() == "856b1bf17d1bb4e022f9df4c"
        assert SweepConfig(
            fabric="OverSub. Fat-tree", model="Qwen-MoE",
            first_a2a_policy="copilot", reconfiguration_delay_s=0.0,
            failure="gpu", nic_bandwidth_gbps=100.0, seed=3,
            reconfig_engine="scalar",
        ).config_hash() == "65efc4bfafaff784d6aa2ee4"


class TestReconfigurablePredicate:
    @pytest.mark.parametrize("name", list(FABRIC_BUILDERS))
    def test_controller_built_iff_reconfigurable(self, name):
        cluster = simulation_cluster(16)
        fabric = build_fabric(name, cluster)
        assert fabric_reconfigurable(name) == fabric.reconfigurable
        model = resolve_model("Mixtral-8x7B")
        prepared = TrainingSimulator(model, cluster, fabric)._prepare_iteration(
            None, None
        )
        assert (prepared.controller is not None) == fabric.reconfigurable

    def test_only_mixnet_is_reconfigurable(self):
        assert [n for n in FABRIC_BUILDERS if fabric_reconfigurable(n)] == ["MixNet"]


class TestSimulationKey:
    def test_static_key_drops_controller_fields(self):
        base = SweepConfig(fabric="Fat-tree", model="Qwen-MoE")
        twin = SweepConfig(fabric="Fat-tree", model="Qwen-MoE",
                           first_a2a_policy="reuse", reconfiguration_delay_s=1.0,
                           reconfig_engine="scalar")
        assert twin.simulation_key() == base.simulation_key()
        assert twin.config_hash() != base.config_hash()
        other_seed = SweepConfig(fabric="Fat-tree", model="Qwen-MoE", seed=1)
        assert other_seed.simulation_key() != base.simulation_key()

    @pytest.mark.parametrize("field", CONTROLLER_FIELDS)
    def test_mixnet_key_keeps_controller_fields(self, field):
        base = SweepConfig(fabric="MixNet", model="Qwen-MoE")
        value = {"first_a2a_policy": "copilot", "reconfiguration_delay_s": 1.0,
                 "reconfig_engine": "scalar"}[field]
        changed = SweepConfig(fabric="MixNet", model="Qwen-MoE", **{field: value})
        assert changed.simulation_key() != base.simulation_key()

    def test_key_is_a_tuple_of_every_field(self):
        config = SweepConfig(fabric="MixNet", model="Qwen-MoE")
        key = config.simulation_key()
        assert isinstance(key, tuple)
        assert key == tuple(config.to_dict().values())


class TestKeySoundness:
    """Through run_config, which never deduplicates: static fabrics give
    bit-identical results for every value of the dropped fields."""

    @pytest.mark.parametrize("failure", ["none", "gpu"])
    @pytest.mark.parametrize("fabric", STATIC_FABRICS)
    def test_static_fabrics_ignore_controller_fields(self, fabric, failure):
        results = [
            simulated(run_config(SweepConfig(
                fabric=fabric, model="Qwen-MoE", failure=failure,
                first_a2a_policy=policy, reconfiguration_delay_s=delay,
                reconfig_engine=engine,
            )))
            for policy, delay, engine in itertools.product(
                FIRST_A2A_POLICIES, (0.0, 0.025, 1.0), ENGINES
            )
        ]
        assert len(results) == 27
        assert all(result == results[0] for result in results)

    def test_mixnet_policies_differ(self):
        block, copilot = (
            SweepConfig(fabric="MixNet", model="Qwen-MoE", first_a2a_policy=policy)
            for policy in ("block", "copilot")
        )
        assert block.simulation_key() != copilot.simulation_key()
        assert simulated(run_config(block)) != simulated(run_config(copilot))


@pytest.mark.parametrize("runner_cls", [SweepRunner, FoldedSweepRunner])
class TestSharedResults:
    def test_each_key_simulated_once(self, monkeypatch, tmp_path, runner_cls):
        configs = POLICY_SPEC.expand()
        simulated_hashes = []
        real_run, real_iter = runner_mod.run_config, runner_mod.iter_run_config

        def counting_run(config, config_hash=None):
            simulated_hashes.append(config_hash)
            return real_run(config, config_hash=config_hash)

        def counting_iter(config, config_hash=None, template=None):
            simulated_hashes.append(config_hash)
            return real_iter(config, config_hash=config_hash, template=template)

        monkeypatch.setattr(runner_mod, "run_config", counting_run)
        monkeypatch.setattr(runner_mod, "iter_run_config", counting_iter)
        cache = tmp_path / "cache"
        results = runner_cls(configs, cache_dir=str(cache)).run()

        assert shared_count(configs) == 2
        assert len(simulated_hashes) == len(configs) - 2
        assert [r.config_hash for r in results] == [c.config_hash() for c in configs]
        by_hash = {r.config_hash: r for r in results}
        copies = [r for r in results if r.shared_from is not None]
        assert len(copies) == 2
        for config, result in zip(configs, results):
            assert result.config == config.to_dict()
            assert not result.from_cache
            assert json.loads((cache / f"{result.config_hash}.json").read_text())[
                "config_hash"
            ] == result.config_hash
        for copy in copies:
            origin = by_hash[copy.shared_from]
            assert origin.shared_from is None
            assert copy.config["fabric"] == "Fat-tree"
            assert copy.config["first_a2a_policy"] == "copilot"
            assert simulated(copy) == simulated(origin)
            assert copy.template_source == origin.template_source
            assert copy.wall_time_s == 0.0
            assert (copy.setup_s, copy.solve_s, copy.advance_s, copy.store_s) == (
                0.0, 0.0, 0.0, 0.0
            )
        summary = summarize_phases(results)
        assert summary["num_shared"] == 2
        assert summary["num_fresh"] == len(configs) - 2

    def test_matches_per_config_reference(self, runner_cls):
        configs = POLICY_SPEC.expand()
        results = runner_cls(configs).run()
        for config, result in zip(configs, results):
            assert simulated(result) == simulated(run_config(config))

    def test_representative_failure_fails_its_siblings(
        self, monkeypatch, runner_cls
    ):
        configs = POLICY_SPEC.expand()
        victim = configs[0]  # Fat-tree block seed 0, twin of copilot seed 0
        twin = next(
            c for c in configs[1:] if c.simulation_key() == victim.simulation_key()
        )
        real_run, real_iter = runner_mod.run_config, runner_mod.iter_run_config

        def bad_run(config, config_hash=None):
            if config == victim:
                raise RuntimeError("injected failure")
            return real_run(config, config_hash=config_hash)

        def bad_iter(config, config_hash=None, template=None):
            if config == victim:
                raise RuntimeError("injected failure")
            return real_iter(config, config_hash=config_hash, template=template)

        monkeypatch.setattr(runner_mod, "run_config", bad_run)
        monkeypatch.setattr(runner_mod, "iter_run_config", bad_iter)
        with pytest.raises(SweepRunError) as excinfo:
            runner_cls(configs).run()
        errors = excinfo.value.errors
        assert [e.config_hash for e in errors] == [
            victim.config_hash(), twin.config_hash()
        ]
        assert errors[1].config == twin.to_dict()
        assert errors[0].error == errors[1].error
        assert "injected failure" in errors[1].error


class TestSharedResultsParallel:
    def test_pool_matches_serial(self):
        configs = POLICY_SPEC.expand()
        serial = FoldedSweepRunner(configs).run()
        with FoldedSweepRunner(configs, workers=2) as runner:
            sharded = runner.run()
        assert [simulated(r) for r in sharded] == [simulated(r) for r in serial]
        assert [r.shared_from for r in sharded] == [r.shared_from for r in serial]


class TestResultCache:
    """ROADMAP item 5: a corrupt cache entry is recomputed and overwritten."""

    CONFIG = SweepConfig(fabric="MixNet", model="Mixtral-8x7B")

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda text: text[: len(text) // 2],  # truncated JSON
            lambda text: json.dumps([1, 2, 3]),  # not a dict
            lambda text: json.dumps({**json.loads(text), "config_hash": "0" * 24}),
            lambda text: json.dumps({**json.loads(text), "colour": "blue"}),
        ],
        ids=["truncated", "non-dict", "mismatched-hash", "unknown-field"],
    )
    def test_corrupt_entry_recomputed_and_overwritten(self, tmp_path, corrupt):
        cache = str(tmp_path)
        path = tmp_path / f"{self.CONFIG.config_hash()}.json"
        (first,) = SweepRunner([self.CONFIG], cache_dir=cache).run()
        path.write_text(corrupt(path.read_text()))
        (again,) = SweepRunner([self.CONFIG], cache_dir=cache).run()
        assert not again.from_cache
        assert simulated(again) == simulated(first)
        assert SweepResult.from_dict(json.loads(path.read_text())).config_hash == (
            self.CONFIG.config_hash()
        )
        (hit,) = SweepRunner([self.CONFIG], cache_dir=cache).run()
        assert hit.from_cache

    def test_rerun_of_deduped_sweep_is_all_hits(self, tmp_path):
        cache = str(tmp_path)
        first = FoldedSweepRunner(POLICY_SPEC, cache_dir=cache).run()
        second = FoldedSweepRunner(POLICY_SPEC, cache_dir=cache).run()
        assert all(r.from_cache for r in second)
        assert [simulated(r) for r in second] == [simulated(r) for r in first]
        assert [r.shared_from for r in second] == [r.shared_from for r in first]

    @pytest.mark.parametrize("runner_cls", [SweepRunner, FoldedSweepRunner])
    def test_deleted_sibling_served_from_cached_twin(
        self, monkeypatch, tmp_path, runner_cls
    ):
        configs = POLICY_SPEC.expand()
        first = runner_cls(configs, cache_dir=str(tmp_path)).run()
        victim = next(r for r in first if r.shared_from is not None)
        (tmp_path / f"{victim.config_hash}.json").unlink()

        def no_simulation(*args, **kwargs):
            raise AssertionError("a cached twin must serve this config")

        monkeypatch.setattr(runner_mod, "run_config", no_simulation)
        monkeypatch.setattr(runner_mod, "iter_run_config", no_simulation)
        second = runner_cls(configs, cache_dir=str(tmp_path)).run()
        assert all(r.from_cache for r in second)
        served = next(r for r in second if r.config_hash == victim.config_hash)
        assert served.shared_from == victim.shared_from
        assert simulated(served) == simulated(victim)
        assert (tmp_path / f"{victim.config_hash}.json").exists()


class TestProfile:
    def test_cli_profile_counts_shared_results(self, capsys):
        assert sweep_main([
            "--fabrics", "Fat-tree", "MixNet", "--models", "Mixtral-8x7B",
            "--policies", "block", "copilot", "--seeds", "0", "1", "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "shared results: 2" in out
        assert "phase means over 6 fresh config(s)" in out
        assert out.count("(shared)") == 2
