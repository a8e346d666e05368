"""repro.serve -- networked EM-monitoring service (DESIGN.md D18).

Four layers, each usable alone:

- :mod:`repro.serve.protocol` -- length-prefixed binary framing for IQ
  chunks and JSON control messages, one protocol revision (D26);
- :mod:`repro.serve.registry` -- versioned on-disk model registry with
  content addressing and a shared in-memory LRU;
- :mod:`repro.serve.server` -- asyncio TCP server multiplexing sessions
  onto a :class:`~repro.stream.FleetScheduler` with backpressure and
  load shedding;
- :mod:`repro.serve.client` -- synchronous client + replay helper whose
  remote reports are bit-identical to a local
  :class:`~repro.stream.StreamingMonitor` run.

Plus the resilience pieces (DESIGN.md D19): sessions checkpoint and
resume with exactly-once report delivery, clients
reconnect transparently with capped backoff, servers drain gracefully,
and :mod:`repro.serve.chaos` provides the deterministic fault-injection
proxy the resilience suite and recovery benchmark drive it all with.

And the scale-out layer (DESIGN.md D21): :mod:`repro.serve.shard` runs
N worker processes behind a consistent-hash :class:`ShardRouter`, with
per-worker spill namespaces, spill adoption on worker death, rolling
drain, and fleet-wide STATS aggregation.
"""

from repro.serve.chaos import ChaosConfig, ChaosProxy, ChaosStats
from repro.serve.client import EddieClient, replay
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    Frame,
    FrameDecoder,
    FrameType,
    decode_chunk,
    encode_chunk,
    encode_frame,
    error_frame,
    json_frame,
    negotiate_version,
    parse_json,
)
from repro.serve.registry import ModelRegistry, RegistryEntry, model_fingerprint
from repro.serve.server import (
    EddieServer,
    ServerConfig,
    ServerHandle,
    ServerStats,
    serve_in_thread,
)
from repro.serve.shard import (
    ShardCluster,
    ShardRouter,
    WorkerSpec,
    merge_stats_payloads,
    place,
)

__all__ = [
    "ChaosConfig",
    "ChaosProxy",
    "ChaosStats",
    "EddieClient",
    "EddieServer",
    "Frame",
    "FrameDecoder",
    "FrameType",
    "ModelRegistry",
    "PROTOCOL_VERSION",
    "RegistryEntry",
    "ServerConfig",
    "ServerHandle",
    "ServerStats",
    "ShardCluster",
    "ShardRouter",
    "WorkerSpec",
    "decode_chunk",
    "encode_chunk",
    "encode_frame",
    "error_frame",
    "json_frame",
    "merge_stats_payloads",
    "model_fingerprint",
    "negotiate_version",
    "parse_json",
    "place",
    "replay",
    "serve_in_thread",
]
