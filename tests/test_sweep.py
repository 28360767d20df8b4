"""Tests for the sweep engine: spec expansion, hashing, caching, worker
determinism, CLI, and equivalence with ``simulate_fabrics``."""

import json

import pytest

from repro.cluster import simulation_cluster
from repro.core.failures import FailureKind
from repro.core.runtime import simulate_fabrics
from repro.fabric import FatTreeFabric, MixNetFabric
from repro.moe.models import MIXTRAL_8x7B
from repro.sweep import (
    SweepConfig,
    SweepResult,
    SweepRunner,
    SweepSpec,
    parse_failure,
    resolve_model,
    run_config,
)
from repro.sweep.__main__ import main as sweep_main


class TestRegistry:
    def test_resolve_model_variants(self):
        assert resolve_model("Mixtral-8x7B").name == "Mixtral-8x7B"
        assert resolve_model("Qwen-MoE-EP32").ep_degree == 32
        with pytest.raises(KeyError):
            resolve_model("GPT-17")

    def test_parse_failure(self):
        assert parse_failure("none") is None
        nic = parse_failure("nic:2@1")
        assert nic.kind is FailureKind.NIC and nic.count == 2 and nic.server == 1
        assert parse_failure("gpu").kind is FailureKind.GPU
        assert parse_failure("server@3").server == 3
        with pytest.raises(ValueError):
            parse_failure("meteor")
        with pytest.raises(ValueError):
            parse_failure("gpu:2")


class TestSpec:
    def test_expand_is_cartesian_and_deterministic(self):
        spec = SweepSpec(
            fabrics=["MixNet", "Fat-tree"],
            models=["Mixtral-8x7B"],
            first_a2a_policies=["block", "copilot"],
            nic_bandwidths_gbps=[100.0, 400.0],
            num_servers=16,
        )
        configs = spec.expand()
        assert len(configs) == 8
        assert configs == spec.expand()
        assert len({c.config_hash() for c in configs}) == 8

    def test_auto_fit_servers(self):
        spec = SweepSpec(models=["Mixtral-8x22B"], num_servers=16)
        assert spec.servers_for("Mixtral-8x22B") == 64
        spec_fixed = SweepSpec(models=["Mixtral-8x22B"], num_servers=16,
                               auto_fit_servers=False)
        assert spec_fixed.servers_for("Mixtral-8x22B") == 16

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(fabric="Hypercube", model="Mixtral-8x7B")
        with pytest.raises(KeyError):
            SweepConfig(fabric="MixNet", model="GPT-17")
        with pytest.raises(ValueError):
            SweepConfig(fabric="MixNet", model="Mixtral-8x7B",
                        first_a2a_policy="magic")
        with pytest.raises(ValueError):
            SweepConfig(fabric="MixNet", model="Mixtral-8x7B", failure="meteor")
        with pytest.raises(ValueError):
            SweepConfig(fabric="MixNet", model="Mixtral-8x7B",
                        reconfig_engine="fpga")

    def test_reconfig_engine_axis(self):
        spec = SweepSpec(fabrics=["MixNet"], models=["Mixtral-8x7B"],
                         reconfig_engines=["scalar", "vectorized"],
                         num_servers=16)
        configs = spec.expand()
        assert [c.reconfig_engine for c in configs] == ["scalar", "vectorized"]
        assert configs[0].config_hash() != configs[1].config_hash()

    def test_hash_stability_and_roundtrip(self):
        config = SweepConfig(fabric="MixNet", model="Mixtral-8x7B", seed=3)
        clone = SweepConfig.from_dict(config.to_dict())
        assert clone == config
        assert clone.config_hash() == config.config_hash()
        assert config.config_hash() != SweepConfig(
            fabric="MixNet", model="Mixtral-8x7B", seed=4
        ).config_hash()


BASE_SPEC = SweepSpec(
    fabrics=["Fat-tree", "MixNet"],
    models=["Mixtral-8x7B"],
    first_a2a_policies=["block", "copilot"],
    num_servers=16,
)


class TestRunner:
    @pytest.fixture(scope="class")
    def serial_results(self):
        return SweepRunner(BASE_SPEC, workers=0).run()

    def test_results_shape(self, serial_results):
        assert len(serial_results) == 4
        for result in serial_results:
            assert result.iteration_time_s > 0
            assert result.config_hash
            assert not result.from_cache
            payload = json.dumps(result.to_dict())  # JSON-serializable
            assert SweepResult.from_dict(json.loads(payload)) == result

    def test_worker_count_does_not_change_results(self, serial_results):
        parallel = SweepRunner(BASE_SPEC, workers=2).run()
        assert [r.config_hash for r in parallel] == [
            r.config_hash for r in serial_results
        ]
        for a, b in zip(parallel, serial_results):
            assert a.iteration_time_s == b.iteration_time_s
            assert a.comm_bytes == b.comm_bytes

    def test_cache_round_trip(self, serial_results, tmp_path):
        cache = str(tmp_path / "cache")
        runner = SweepRunner(BASE_SPEC, workers=0, cache_dir=cache)
        first = runner.run()
        assert all(not r.from_cache for r in first)
        second = SweepRunner(BASE_SPEC, workers=0, cache_dir=cache).run()
        assert all(r.from_cache for r in second)
        for fresh, cached in zip(first, second):
            assert cached.iteration_time_s == fresh.iteration_time_s
        # Corrupt one entry: it must be recomputed, not crash the run.
        victim = first[0].config_hash
        (tmp_path / "cache" / f"{victim}.json").write_text("{not json")
        third = SweepRunner(BASE_SPEC, workers=0, cache_dir=cache).run()
        assert sum(not r.from_cache for r in third) == 1

    def test_failure_configs_run(self):
        spec = SweepSpec(fabrics=["MixNet"], models=["Mixtral-8x7B"],
                         failures=["none", "nic:1"], num_servers=16)
        results = SweepRunner(spec).run()
        baseline, failed = results
        assert failed.iteration_time_s >= baseline.iteration_time_s

    def test_oracle_matches_kernel(self, without_kernel):
        config = SweepConfig(fabric="MixNet", model="Mixtral-8x7B")
        default = run_config(config)
        with without_kernel():
            scalar = run_config(config)
        assert scalar.iteration_time_s == pytest.approx(
            default.iteration_time_s, rel=1e-9
        )
        assert default.solve_rounds > 0 and scalar.solve_rounds == 0

    def test_auto_engine_defers_to_process_default(self, monkeypatch):
        """A config's "auto" engine reaches Algorithm 1 as None (deferring to
        REPRO_RECONFIG_ENGINE / set_default_engine);
        an explicit engine pins it."""
        import repro.core.controller as controller_mod

        seen = []
        real = controller_mod.reconfigure_ocs

        def spy(*args, **kwargs):
            seen.append(kwargs.get("engine"))
            return real(*args, **kwargs)

        monkeypatch.setattr(controller_mod, "reconfigure_ocs", spy)
        run_config(SweepConfig(fabric="MixNet", model="Mixtral-8x7B"))
        assert seen and all(engine is None for engine in seen)
        seen.clear()
        run_config(SweepConfig(fabric="MixNet", model="Mixtral-8x7B",
                               reconfig_engine="scalar"))
        assert seen and all(engine == "scalar" for engine in seen)

    def test_reconfig_engines_produce_identical_results(self):
        """The engine axis is a differential-testing knob: both Algorithm 1
        engines yield the same simulated iteration."""
        scalar = run_config(SweepConfig(fabric="MixNet", model="Mixtral-8x7B",
                                        reconfig_engine="scalar"))
        vectorized = run_config(SweepConfig(fabric="MixNet", model="Mixtral-8x7B",
                                            reconfig_engine="vectorized"))
        assert scalar.iteration_time_s == vectorized.iteration_time_s
        assert scalar.comm_bytes == vectorized.comm_bytes
        assert scalar.config_hash != vectorized.config_hash


class TestSimulateFabricsEquivalence:
    def test_simulate_fabrics_matches_sweep(self):
        cluster = simulation_cluster(16, nic_bandwidth_gbps=400.0)
        direct = simulate_fabrics(
            MIXTRAL_8x7B, [FatTreeFabric(cluster), MixNetFabric(cluster)]
        )
        spec = SweepSpec(fabrics=["Fat-tree", "MixNet"], models=["Mixtral-8x7B"],
                         num_servers=16)
        swept = {r.fabric: r for r in SweepRunner(spec).run()}
        for name, result in direct.items():
            assert swept[name].iteration_time_s == pytest.approx(
                result.iteration_time_s, rel=1e-12
            )


class TestCli:
    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            sweep_main(["--help"])
        assert excinfo.value.code == 0
        assert "cartesian grid" in capsys.readouterr().out

    def test_list(self, capsys):
        assert sweep_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "MixNet" in out and "Mixtral-8x7B" in out

    def test_dry_run(self, capsys):
        assert sweep_main([
            "--dry-run", "--fabrics", "MixNet", "--models", "Mixtral-8x7B",
            "--failures", "none", "nic:1",
        ]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 2

    def test_small_run_with_output(self, tmp_path, capsys):
        output = tmp_path / "results.json"
        code = sweep_main([
            "--fabrics", "Fat-tree", "--models", "Mixtral-8x7B",
            "--servers", "16", "--output", str(output),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        payload = json.loads(output.read_text())
        assert len(payload) == 1
        assert payload[0]["fabric"] == "Fat-tree"
        assert payload[0]["iteration_time_s"] > 0
