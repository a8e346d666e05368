"""Unit tests for repro.arch.cache (the analytic model) and the functional
LRU cache oracle it is validated against."""

import numpy as np
import pytest

from oracle import Cache, CacheHierarchy
from repro.arch.cache import stream_miss_profile
from repro.arch.config import CacheConfig, MemoryConfig
from repro.programs.ir import MemRef


def tiny_cache(size=1024, assoc=2, line=64) -> Cache:
    return Cache(CacheConfig(size=size, assoc=assoc, line_size=line))


class TestFunctionalCache:
    def test_cold_miss_then_hit(self):
        cache = tiny_cache()
        assert cache.access(0) is False
        assert cache.access(0) is True
        assert cache.access(63) is True  # same line
        assert cache.access(64) is False  # next line

    def test_lru_eviction(self):
        # Direct-mapped-like: 1 set via assoc == size/line.
        cache = Cache(CacheConfig(size=128, assoc=2, line_size=64))  # 1 set, 2 ways
        cache.access(0)      # line 0
        cache.access(64)     # line 1
        cache.access(0)      # touch line 0 (now MRU)
        cache.access(128)    # evicts line 1 (LRU)
        assert cache.access(0) is True
        assert cache.access(64) is False  # was evicted

    def test_miss_rate_counters(self):
        cache = tiny_cache()
        for _ in range(3):
            cache.access(0)
        assert cache.hits == 2
        assert cache.misses == 1
        assert cache.miss_rate == pytest.approx(1 / 3)

    def test_reset_stats(self):
        cache = tiny_cache()
        cache.access(0)
        cache.reset_stats()
        assert cache.miss_rate == 0.0

    def test_working_set_fits(self):
        cache = tiny_cache(size=4096, assoc=4)
        addrs = list(range(0, 2048, 4))
        for a in addrs:
            cache.access(a)
        cache.reset_stats()
        for a in addrs:
            cache.access(a)
        assert cache.miss_rate == 0.0

    def test_streaming_larger_than_cache(self):
        cache = tiny_cache(size=1024, assoc=2, line=64)
        # Walk 64 KiB twice: second pass should still miss once per line.
        cache.reset_stats()
        for _ in range(2):
            for a in range(0, 65536, 4):
                cache.access(a)
        # one miss per 16 accesses (64-byte line / 4-byte stride)
        assert cache.miss_rate == pytest.approx(1 / 16, rel=0.05)


class TestCacheHierarchy:
    def test_levels(self):
        mem = MemoryConfig(
            l1=CacheConfig(1024, 2, hit_latency=2),
            l2=CacheConfig(8192, 4, hit_latency=12),
            dram_latency=100,
        )
        h = CacheHierarchy(mem)
        first = h.access(0)
        assert first.level == "dram"
        assert first.latency == 100
        second = h.access(0)
        assert second.level == "l1"
        assert second.latency == 2

    def test_l2_hit_after_l1_eviction(self):
        mem = MemoryConfig(
            l1=CacheConfig(128, 2, line_size=64, hit_latency=2),  # 1 set, 2 ways
            l2=CacheConfig(8192, 4, hit_latency=12),
            dram_latency=100,
        )
        h = CacheHierarchy(mem)
        h.access(0)
        h.access(64)
        h.access(128)  # evicts line 0 from L1; L2 still has it
        result = h.access(0)
        assert result.level == "l2"


class TestAnalyticMissModel:
    def test_fitting_stream_never_misses(self):
        mem = MemoryConfig()
        ref = MemRef("small", footprint=4096, stride=4, pattern="seq")
        profile = stream_miss_profile(ref, mem)
        assert profile.l1_miss == 0.0
        assert profile.mean_penalty(mem) == 0.0

    def test_streaming_misses_once_per_line(self):
        mem = MemoryConfig()
        ref = MemRef("big", footprint=1 << 24, stride=4, pattern="seq")
        profile = stream_miss_profile(ref, mem)
        assert profile.l1_miss == pytest.approx(4 / 64)

    def test_random_large_footprint(self):
        mem = MemoryConfig()
        ref = MemRef("heap", footprint=1 << 20, pattern="rand")
        profile = stream_miss_profile(ref, mem)
        expected = 1.0 - (32 * 1024) / (1 << 20)
        assert profile.l1_miss == pytest.approx(expected)

    def test_none_ref_hits(self):
        profile = stream_miss_profile(None, MemoryConfig())
        assert profile.l1_miss == 0.0
        assert profile.l2_miss == 0.0

    def test_mean_penalty_increases_with_footprint(self):
        mem = MemoryConfig()
        small = stream_miss_profile(MemRef("a", footprint=1 << 18, pattern="rand"), mem)
        large = stream_miss_profile(MemRef("a", footprint=1 << 26, pattern="rand"), mem)
        assert large.mean_penalty(mem) > small.mean_penalty(mem)

    def test_analytic_matches_functional_for_streaming(self):
        """The analytic steady-state rate should track the real LRU cache."""
        mem = MemoryConfig(
            l1=CacheConfig(1024, 2, line_size=64, hit_latency=2),
            l2=CacheConfig(65536, 4, hit_latency=12),
        )
        ref = MemRef("s", footprint=1 << 20, stride=4, pattern="seq")
        cache = Cache(mem.l1)
        # Warm then measure one full pass.
        for a in range(0, 1 << 16, 4):
            cache.access(a)
        cache.reset_stats()
        for a in range(1 << 16, 1 << 17, 4):
            cache.access(a)
        profile = stream_miss_profile(ref, mem)
        assert cache.miss_rate == pytest.approx(profile.l1_miss, rel=0.05)

    def test_analytic_matches_functional_for_random(self):
        rng = np.random.default_rng(7)
        mem = MemoryConfig(
            l1=CacheConfig(4096, 4, line_size=64, hit_latency=2),
            l2=CacheConfig(65536, 4, hit_latency=12),
        )
        footprint = 1 << 16
        ref = MemRef("r", footprint=footprint, pattern="rand")
        cache = Cache(mem.l1)
        addrs = rng.integers(0, footprint, size=30000)
        for a in addrs[:10000]:
            cache.access(int(a))
        cache.reset_stats()
        for a in addrs[10000:]:
            cache.access(int(a))
        profile = stream_miss_profile(ref, mem)
        assert cache.miss_rate == pytest.approx(profile.l1_miss, abs=0.05)
