"""The analytic steady-state cache miss model of the composition engine.

:func:`stream_miss_profile` predicts the *steady-state* miss rates of a
:class:`~repro.programs.ir.MemRef` stream so the loop engine can sample
per-iteration miss counts without simulating every address (DESIGN.md
D1). The functional LRU cache it is validated against lives with the
test oracles (``tests/oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.arch.config import CacheConfig, MemoryConfig
from repro.programs.ir import MemRef

__all__ = ["MissProfile", "stream_miss_profile"]


@dataclass(frozen=True)
class MissProfile:
    """Steady-state miss probabilities of one memory-reference stream.

    ``l1_miss`` is the probability an access misses L1; ``l2_miss`` is the
    *conditional* probability an L1 miss also misses L2.
    """

    l1_miss: float
    l2_miss: float

    def mean_penalty(self, mem: MemoryConfig) -> float:
        """Expected extra cycles over an L1 hit, per access."""
        l2_extra = mem.l2.hit_latency - mem.l1.hit_latency
        dram_extra = mem.dram_latency - mem.l2.hit_latency
        return self.l1_miss * (l2_extra + self.l2_miss * dram_extra)


def _level_miss(ref: MemRef, cache: CacheConfig) -> float:
    """Steady-state miss probability of ``ref`` against one cache level.

    - Sequential streams whose footprint fits in cache: after the first
      pass every access hits (compulsory misses amortize to ~0).
    - Sequential streams larger than the cache: each new line misses, i.e.
      one miss per ``line_size/stride`` accesses.
    - Random streams: an access hits iff its line happens to be resident;
      with a footprint of F bytes competing for a cache of C bytes the
      resident fraction is ~min(1, C/F).
    """
    if ref.footprint <= cache.size:
        return 0.0
    if ref.pattern == "seq":
        accesses_per_line = max(1, cache.line_size // ref.stride)
        return 1.0 / accesses_per_line
    return max(0.0, 1.0 - cache.size / ref.footprint)


def stream_miss_profile(ref: Optional[MemRef], mem: MemoryConfig) -> MissProfile:
    """Analytic steady-state miss profile of a memory stream.

    ``ref=None`` (e.g. a synthetic instruction with no stream) is treated
    as always hitting L1.
    """
    if ref is None:
        return MissProfile(0.0, 0.0)
    l1 = _level_miss(ref, mem.l1)
    l2 = _level_miss(ref, mem.l2)
    # l2 as computed is the unconditional miss probability of the stream
    # against L2 capacity; conditioned on an L1 miss it can only be higher,
    # but for the stream patterns we model the unconditional value is the
    # right conditional estimate (misses are the novel-line accesses).
    return MissProfile(l1_miss=l1, l2_miss=l2 if l1 > 0 else 0.0)
