"""The benchmark's workloads and what they share.

A workload is driven in these steps by ``run.py``: ``import_program`` +
``train`` + ``start`` (timed together as set-up), ``prepare`` (untimed
input generation and correctness references, derived from the seed),
``phase`` (the timed work, in units each paired with a reference slice),
``check`` (untimed correctness) and ``layer_metrics`` (traced runs).

``phase`` returns a dict with ``windows`` (scored in timed units),
``wall`` and ``latency`` (raw and normalized), ``attempted`` and
``failed`` operation counts, and the ``timer`` whose units it timed.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

import host

#: Chunk size every streaming workload feeds.
CHUNK_SAMPLES = 4096

#: A timed phase that has not scored its windows by then stops, and the
#: run fails its window-count check instead of overrunning its budget
#: (a traced run holds two phases and must still end within 180 s).
PHASE_DEADLINE_S = 60.0


def chunked(samples: np.ndarray) -> List[np.ndarray]:
    return [samples[s:s + CHUNK_SAMPLES]
            for s in range(0, len(samples), CHUNK_SAMPLES)]


def phase_result(timer: host.PairedTimer, latency_units, windows: int,
                 **extra) -> Dict[str, object]:
    """Package a timed phase: wall over every unit, latency over the
    units listed in ``latency_units``."""
    raw = timer.raw()
    norm = timer.normalized()
    idx = np.asarray(latency_units, dtype=int)
    result = {
        "windows": int(windows),
        "wall": (float(raw.sum()), float(norm.sum())),
        "latency": (raw[idx], norm[idx]),
        "timer": timer,
    }
    result.update(extra)
    return result


def timed_unit(timer: host.PairedTimer, tracer, index: int, fn, *args):
    """Run ``fn(*args)`` as timed unit ``index`` -- and, when tracing, as
    the root span the unit's layer spans nest in."""
    if tracer is None:
        with timer.unit():
            return fn(*args)
    with tracer.unit(index), timer.unit():
        return fn(*args)


def layer_time(acct, name: str, key: str = "self_norm_s") -> float:
    entry = acct["layers"].get(name)
    return float(entry[key]) if entry else 0.0


def layer_calls(acct, name: str) -> int:
    entry = acct["layers"].get(name)
    return int(entry["calls"]) if entry else 0


def ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def counter_value(snapshot, key: str) -> int:
    return int(snapshot.get("counters", {}).get(key, 0))


class Workload:
    """Defaults for the steps a workload does not need."""

    name = ""

    def start(self, obs: bool = False) -> None:
        pass

    def restart(self, obs: bool) -> None:
        pass

    def stop(self) -> None:
        pass

    def rss_mb(self) -> float:
        return host.peak_rss_mb()

