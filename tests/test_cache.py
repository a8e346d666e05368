"""Tests for the content-addressed artifact cache (repro.cache).

Covers fingerprint stability (within and across processes), invalidation
when any input changes, lossless round-trips, LRU eviction under a size
bound, corrupted-entry recovery, end-to-end equality of cached vs
uncached experiment results, and keys that change with the package source.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import cache as cache_mod
from repro.arch.config import CoreConfig
from repro.arch.simulator import Simulator
from repro.cache import ArtifactCache, describe, fingerprint
from repro.core.model import EddieConfig, EddieModel
from repro.core.monitor import Monitor
from repro.core.stft import QF_ENERGY_OUTLIER
from repro.experiments.runner import Scale, build_detector, capture_traces
from repro.programs.workloads import injection_mix, sharp_loop_program

TINY = Scale(train_runs=2, clean_runs=1, injected_runs=1, group_sizes=(8, 16))


@pytest.fixture(autouse=True)
def isolated_cache():
    """Each test starts with caching off and leaves it off."""
    cache_mod.configure(None)
    yield
    cache_mod.configure(None)


def _core(clock_hz=1e8):
    return CoreConfig.iot_inorder(clock_hz=clock_hz)


class TestFingerprint:
    def test_stable_within_process(self):
        # Two independent constructions of "the same" inputs -- including
        # the lambdas inside the program IR -- fingerprint identically.
        a = fingerprint("model", sharp_loop_program(trips=6000), _core())
        b = fingerprint("model", sharp_loop_program(trips=6000), _core())
        assert a == b

    def test_stable_across_processes(self):
        # repr() of a lambda contains a memory address; the fingerprint
        # must not. A fresh interpreter must reproduce the parent's key.
        script = (
            "from repro.cache import fingerprint\n"
            "from repro.programs.workloads import sharp_loop_program\n"
            "from repro.arch.config import CoreConfig\n"
            "print(fingerprint('model', sharp_loop_program(trips=6000),"
            " CoreConfig.iot_inorder(clock_hz=1e8)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert out == fingerprint(
            "model", sharp_loop_program(trips=6000), _core()
        )

    def test_program_change_invalidates(self):
        a = fingerprint(sharp_loop_program(trips=6000))
        b = fingerprint(sharp_loop_program(trips=7000))
        assert a != b

    def test_core_change_invalidates(self):
        a = fingerprint(_core(1e8))
        b = fingerprint(_core(2e8))
        assert a != b

    def test_config_change_invalidates(self):
        a = fingerprint(EddieConfig())
        b = fingerprint(EddieConfig(alpha=0.03))
        assert a != b

    def test_seed_change_invalidates(self):
        simulator = Simulator(sharp_loop_program(trips=6000), _core())
        assert fingerprint("trace", simulator, 0) != fingerprint(
            "trace", simulator, 1
        )

    def test_injection_state_invalidates(self):
        simulator = Simulator(sharp_loop_program(trips=6000), _core())
        clean = fingerprint("trace", simulator, 0)
        simulator.set_loop_injection("L", injection_mix(4, 4), 1.0)
        injected = fingerprint("trace", simulator, 0)
        simulator.clear_injections()
        cleared = fingerprint("trace", simulator, 0)
        assert clean != injected
        assert cleared == clean

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            describe(object())


class TestArtifactCache:
    @pytest.fixture(scope="class")
    def trained(self):
        return build_detector(
            sharp_loop_program(trips=6000), TINY, source="power"
        )

    def test_model_round_trip(self, tmp_path, trained):
        cache = ArtifactCache(tmp_path)
        cache.put_model("k", trained.model)
        loaded = cache.get_model("k")
        assert loaded is not None
        # The serialized form is lossless: the reloaded model is
        # indistinguishable from the original at the fingerprint level.
        assert fingerprint(loaded) == fingerprint(trained.model)
        assert cache.stats.hits == 1 and cache.stats.puts == 1

    def test_trace_round_trip(self, tmp_path):
        simulator = Simulator(sharp_loop_program(trips=6000), _core())
        result = simulator.run(seed=3)
        cache = ArtifactCache(tmp_path)
        cache.put_trace("t", result)
        loaded = cache.get_trace("t")
        np.testing.assert_array_equal(loaded.power.samples, result.power.samples)
        assert loaded.power.sample_rate == result.power.sample_rate
        assert loaded.injected_spans == result.injected_spans
        assert loaded.cycles == result.cycles
        assert [
            (iv.region, iv.t_start, iv.t_end) for iv in loaded.timeline
        ] == [(iv.region, iv.t_start, iv.t_end) for iv in result.timeline]

    def test_miss_then_hit(self, tmp_path, trained):
        cache = ArtifactCache(tmp_path)
        assert cache.get_model("absent") is None
        assert cache.stats.misses == 1
        cache.put_model("absent", trained.model)
        assert cache.get_model("absent") is not None
        assert cache.stats.hits == 1

    def test_corrupted_entry_recovers(self, tmp_path, trained):
        cache = ArtifactCache(tmp_path)
        cache.put_model("k", trained.model)
        path = cache._path("model", "k")
        path.write_bytes(b"this is not an npz file")
        assert cache.get_model("k") is None  # corrupted -> miss
        assert not path.exists()  # ... and dropped
        cache.put_model("k", trained.model)  # recompute path re-caches
        assert cache.get_model("k") is not None

    def test_lru_eviction_under_bound(self, tmp_path, trained):
        unbounded = ArtifactCache(tmp_path / "probe")
        unbounded.put_model("probe", trained.model)
        entry_size = unbounded.total_bytes()
        # Room for roughly two entries: the third put must evict the
        # least recently used one.
        cache = ArtifactCache(tmp_path / "lru", max_bytes=int(entry_size * 2.5))
        cache.put_model("a", trained.model)
        cache.put_model("b", trained.model)
        # Pin mtimes so LRU order does not depend on filesystem timestamp
        # resolution; the hit below re-touches "a" to the present.
        os.utime(cache._path("model", "a"), (1.0, 1.0))
        os.utime(cache._path("model", "b"), (2.0, 2.0))
        assert cache.get_model("a") is not None  # touch: b is now LRU
        cache.put_model("c", trained.model)
        assert cache.stats.evictions >= 1
        assert cache.total_bytes() <= cache.max_bytes
        assert cache.get_model("b") is None  # the untouched entry went

    def test_sts_key_follows_the_energy_reference(self, tmp_path, trained):
        """A gated STS entry stores quality flags, which depend on the
        model's energy reference: two models that differ only there do
        not share one."""
        gated = trained.model.with_quality_gating(True)
        median, scale = gated.energy_reference
        shifted = EddieModel(
            gated.program_name, gated.config, gated.profiles,
            gated.successors, gated.initial_regions, gated.sample_rate,
            energy_reference=(median + 100 * scale, scale),
        )
        signal = trained.source.run(seed=TINY.monitor_seed(0)).power
        expected = Monitor(shifted).run_signal(signal).quality
        assert np.all(expected & QF_ENERGY_OUTLIER)
        cache_mod.configure(tmp_path)
        Monitor(gated).run_signal(signal)
        cached = Monitor(shifted).run_signal(signal).quality
        assert cache_mod.get_cache().stats.hits == 0
        np.testing.assert_array_equal(cached, expected)

    def test_cached_results_identical_end_to_end(self, tmp_path):
        program_factory = lambda: sharp_loop_program(trips=6000)

        def run_once():
            detector = build_detector(program_factory(), TINY, source="power")
            simulator = detector.source
            simulator.set_loop_injection("L", injection_mix(4, 4), 1.0)
            traces = capture_traces(detector, [TINY.injected_seed(0)])
            simulator.clear_injections()
            report = detector.monitor(traces[0])
            return report.metrics

        uncached = run_once()
        cache_mod.configure(tmp_path / "cache")
        cold = run_once()
        stats = cache_mod.get_cache().stats
        assert stats.puts == 3  # one model + one trace + one STS stream
        warm = run_once()
        stats = cache_mod.get_cache().stats
        assert stats.hits == 3
        assert cold == uncached
        assert warm == uncached


    def test_code_change_turns_a_hit_into_a_miss(self, tmp_path):
        # A copy of the package puts an STS artifact from one process,
        # and this process (same sources) finds it; after one source byte
        # of the copy changes, the same key misses.
        package = tmp_path / "src" / "repro"
        shutil.copytree(
            Path(cache_mod.__file__).parent, package,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.cache import ArtifactCache\n"
            "cache = ArtifactCache(sys.argv[1])\n"
            "if sys.argv[2] == 'put':\n"
            "    cache.put_sts('key', np.arange(3.0), np.arange(3.0))\n"
            "print(cache.get_sts('key') is not None)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(package.parent))

        def run(action):
            return subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / "cache"), action],
                capture_output=True, text=True, check=True, env=env,
            ).stdout.strip()

        assert run("put") == "True"
        assert ArtifactCache(tmp_path / "cache").get_sts("key") is not None
        source = package / "types.py"
        source.write_bytes(source.read_bytes() + b"\n")
        assert run("get") == "False"


class TestProcessWideConfiguration:
    def test_configure_and_disable(self, tmp_path):
        cache = cache_mod.configure(tmp_path)
        assert cache_mod.get_cache() is cache
        cache_mod.disable()
        assert cache_mod.get_cache() is None

    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache_mod._configured = False  # force a re-read of the env
        cache = cache_mod.get_cache()
        assert cache is not None
        assert cache.dir == tmp_path
