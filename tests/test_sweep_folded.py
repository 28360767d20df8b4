"""Folded sweep execution: equivalence, fallback and crash-safety tests.

The folded runner must be a pure performance transformation: every result it
produces is bit-identical to the unfolded runner's, whatever mix of fabrics,
policies and failure scenarios the grid contains, and whatever goes wrong
mid-run (straggler generators, kernel OOM, worker crashes) the run must
degrade to slower-but-correct execution with structured error records.
"""

import json
import multiprocessing
import sys

import pytest

import repro.sweep.runner as runner_mod
from repro.sweep import SweepConfig, SweepSpec
from repro.sweep.runner import (
    FoldedSweepRunner,
    SweepError,
    SweepRunError,
    SweepRunner,
)

# Mixed grid: both fabrics, both policies, a failure scenario — every
# structural group the Figure 12/14 sweeps exercise.
MIXED_SPEC = SweepSpec(
    fabrics=["Fat-tree", "MixNet"],
    models=["Mixtral-8x7B"],
    first_a2a_policies=["block", "copilot"],
    failures=["none", "nic:1"],
    num_servers=16,
)

IDENTICAL_FIELDS = (
    "config_hash",
    "iteration_time_s",
    "stage_time_s",
    "dp_allreduce_s",
    "pp_transfer_s",
    "reconfig_blocking_s",
    "comm_bytes",
    "compute_time_s",
    "tokens_per_second",
    # Event and round counts are part of the equivalence contract: folded
    # and unfolded runs drive every config through the same kernel, one
    # block per config (only the phase timings differ).
    "events",
    "solve_rounds",
    "rounds_replayed",
)


def assert_bit_identical(unfolded, folded):
    assert len(unfolded) == len(folded)
    for a, b in zip(unfolded, folded):
        for name in IDENTICAL_FIELDS:
            assert getattr(a, name) == getattr(b, name), name


class TestFoldedEquivalence:
    @pytest.fixture(scope="class")
    def unfolded_results(self):
        return SweepRunner(MIXED_SPEC, workers=0).run()

    def test_bit_identical_on_mixed_grid(self, unfolded_results):
        folded = FoldedSweepRunner(MIXED_SPEC).run()
        assert_bit_identical(unfolded_results, folded)
        # The counters compared above are live: the replay engaged.
        assert sum(r.rounds_replayed for r in unfolded_results) > 0

    def test_fold_width_does_not_change_results(self, unfolded_results):
        for width in (1, 3):
            folded = FoldedSweepRunner(MIXED_SPEC, fold_width=width).run()
            assert_bit_identical(unfolded_results, folded)

    def test_scalar_solver_folds_through_python_loop(
        self, unfolded_results, without_kernel
    ):
        with without_kernel():
            folded = FoldedSweepRunner(MIXED_SPEC).run()
        for a, b in zip(unfolded_results, folded):
            assert a.config_hash == b.config_hash
            assert b.iteration_time_s == pytest.approx(
                a.iteration_time_s, rel=1e-9
            )
            assert b.events == a.events
            assert b.solve_rounds == 0  # the oracle ran, not the kernel

    def test_write_through_caching(self, unfolded_results, tmp_path):
        cache = str(tmp_path / "cache")
        first = FoldedSweepRunner(MIXED_SPEC, cache_dir=cache).run()
        assert all(not r.from_cache for r in first)
        second = FoldedSweepRunner(MIXED_SPEC, cache_dir=cache).run()
        assert all(r.from_cache for r in second)
        assert_bit_identical(unfolded_results, first)
        for a, b in zip(first, second):
            assert a.iteration_time_s == b.iteration_time_s

    def test_invalid_fold_width_rejected(self):
        with pytest.raises(ValueError):
            FoldedSweepRunner(MIXED_SPEC, fold_width=0)


class TestIncrementalEquivalence:
    """The kernel's freeze-level replay is a pure performance
    transformation: folded results on the mixed failure grid are
    bit-identical across fold widths, and the replay actually engages
    (rounds_replayed > 0) at every width."""

    @pytest.fixture(scope="class")
    def unfolded_results(self):
        return SweepRunner(MIXED_SPEC, workers=0).run()

    def test_fold_width_variance_with_incremental(self, unfolded_results):
        for width in (1, 3):
            folded = FoldedSweepRunner(MIXED_SPEC, fold_width=width).run()
            assert_bit_identical(unfolded_results, folded)
            assert sum(r.rounds_replayed for r in folded) > 0


class TestFoldedFallback:
    def test_straggler_falls_back_to_unfolded(self, monkeypatch):
        """A config whose generator blows up mid-fold still produces its
        (identical) result via the per-config path."""
        spec = SweepSpec(fabrics=["MixNet"], models=["Mixtral-8x7B"],
                         seeds=[0, 1], num_servers=16)
        expected = SweepRunner(spec, workers=0).run()
        victim = expected[1].config_hash
        real = runner_mod.iter_run_config

        def sabotaged(config, config_hash=None, template=None):
            if config_hash == victim:
                raise RuntimeError("injected straggler")
            return real(config, config_hash=config_hash, template=template)

        monkeypatch.setattr(runner_mod, "iter_run_config", sabotaged)
        folded = FoldedSweepRunner(spec).run()
        assert_bit_identical(expected, folded)

    def test_double_failure_is_a_structured_error(self, monkeypatch, tmp_path):
        """When the fallback fails too, the run finishes everything else,
        caches it, and raises one structured record per failed config."""
        spec = SweepSpec(fabrics=["MixNet"], models=["Mixtral-8x7B"],
                         seeds=[0, 1], num_servers=16)
        hashes = [c.config_hash() for c in spec.expand()]
        victim = hashes[0]

        real_iter = runner_mod.iter_run_config
        real_run = runner_mod.run_config

        def bad_iter(config, config_hash=None, template=None):
            if config_hash == victim:
                raise RuntimeError("injected fold failure")
            return real_iter(config, config_hash=config_hash, template=template)

        def bad_run(config, config_hash=None):
            if config_hash == victim:
                raise RuntimeError("injected fallback failure")
            return real_run(config, config_hash=config_hash)

        monkeypatch.setattr(runner_mod, "iter_run_config", bad_iter)
        monkeypatch.setattr(runner_mod, "run_config", bad_run)
        cache = tmp_path / "cache"
        with pytest.raises(SweepRunError) as excinfo:
            FoldedSweepRunner(spec, cache_dir=str(cache)).run()
        errors = excinfo.value.errors
        assert [e.config_hash for e in errors] == [victim]
        assert "injected fallback failure" in errors[0].error
        # The healthy config completed and was written through.
        assert (cache / f"{hashes[1]}.json").exists()
        assert not (cache / f"{victim}.json").exists()


class TestParallelCrashSafety:
    @pytest.mark.skipif(sys.platform == "win32", reason="requires fork")
    def test_one_crash_does_not_lose_completed_work(self, monkeypatch, tmp_path):
        """Completed results are cached as they arrive; the failure surfaces
        as a SweepRunError afterwards, and a rerun only repeats the failure."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("monkeypatched failure injection needs fork semantics")
        spec = SweepSpec(fabrics=["MixNet"], models=["Mixtral-8x7B"],
                         seeds=[0, 1], num_servers=16)
        hashes = [c.config_hash() for c in spec.expand()]
        victim = hashes[0]
        real_run = runner_mod.run_config

        def bad_run(config, config_hash=None):
            if config_hash == victim:
                raise RuntimeError("injected worker crash")
            return real_run(config, config_hash=config_hash)

        monkeypatch.setattr(runner_mod, "run_config", bad_run)
        cache = tmp_path / "cache"
        with pytest.raises(SweepRunError) as excinfo:
            SweepRunner(spec, workers=2, cache_dir=str(cache)).run()
        errors = excinfo.value.errors
        assert [e.config_hash for e in errors] == [victim]
        assert "injected worker crash" in errors[0].error
        assert isinstance(errors[0], SweepError)
        # The survivor's result was written through before the raise.
        survivor = cache / f"{hashes[1]}.json"
        assert survivor.exists()
        assert json.loads(survivor.read_text())["config_hash"] == hashes[1]


class TestHashOnce:
    @pytest.mark.parametrize("runner_cls", [SweepRunner, FoldedSweepRunner])
    def test_config_hash_computed_once_per_config(
        self, monkeypatch, tmp_path, runner_cls
    ):
        """The content hash keys the cache three times over (path, stale
        check, store); the run must compute it once per config and thread it
        through."""
        spec = SweepSpec(fabrics=["MixNet"], models=["Mixtral-8x7B"],
                         seeds=[0, 1], num_servers=16)
        configs = spec.expand()  # expand's duplicate check hashes too
        calls = {"n": 0}
        real_hash = SweepConfig.config_hash

        def counting_hash(self):
            calls["n"] += 1
            return real_hash(self)

        monkeypatch.setattr(SweepConfig, "config_hash", counting_hash)
        runner_cls(configs, cache_dir=str(tmp_path / "c")).run()
        assert calls["n"] == len(configs)
