"""Streaming monitoring: chunked online scoring and fleet multiplexing.

This package is the online serving shape of the reproduction
(DESIGN.md D17):

- :class:`StreamingMonitor` -- Algorithm 1 over arbitrary-size sample
  chunks with O(1) steady-state memory, bit-identical to the batch
  :meth:`~repro.core.monitor.Monitor.run_signal` path.
- :class:`FleetScheduler` / :class:`FleetSession` -- many concurrent
  device sessions in one process, sharing trained models by reference,
  with round-robin chunk dispatch and bounded aggregate memory.
- :class:`FleetKernel` -- the cross-session batch kernel behind
  :meth:`FleetScheduler.feed_many`: one vectorized STFT / peak / K-S
  pass over every isomorphic session of a round (DESIGN.md D20).
- :class:`StreamSummary` -- the closing statistics of one stream.
- :class:`StreamSnapshot` -- a stream's full resumable state
  (:meth:`StreamingMonitor.snapshot` / :meth:`StreamingMonitor.restore`),
  serialized by :mod:`repro.serialize` for the serving layer's
  checkpoint/resume path (DESIGN.md D19).

The stateful STFT front end lives in :mod:`repro.core.stft`
(:class:`~repro.core.stft.StreamingStft`, and
:class:`~repro.core.stft.StreamingQuality`, the quality gate batch runs
and training share).
"""

from repro.stream.batchkernel import FleetKernel
from repro.stream.engine import StreamingMonitor, StreamSnapshot, StreamSummary
from repro.stream.fleet import FleetScheduler, FleetSession

__all__ = [
    "StreamingMonitor",
    "StreamSnapshot",
    "StreamSummary",
    "FleetKernel",
    "FleetScheduler",
    "FleetSession",
]
