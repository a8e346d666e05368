"""Front-end chains through the full detector stack (DESIGN.md D22).

The contract -- an ``EddieConfig(frontend=...)`` chain behaves
identically on every execution path (batch, any chunking, snapshot
resume, a fleet mixed with frontend-less sessions, served, sharded),
including the windows produced by flushing the chain's buffered tail at
finish() -- is checked by the equivalence suite
(``tests/test_equivalence.py``, the ``frontend`` cases). This module
adds a chunking sweep against the batch monitor on a second capture, and
covers the rest: the chain changes what is scored, a model keeps its
chain (tamper-evident) through save/load, and a served session killed
and resumed mid-stream loses zero windows.
"""

import functools
import json

import numpy as np
import pytest
from conftest import (
    assert_matches_local,
    frontend_chain,
    local_reference,
    shared_tiny_detector,
    stream_in_chunks,
    tiny_scale,
)

from oracle import assert_results_equal
from repro.core.monitor import Monitor, MonitorResult
from repro.errors import ConfigurationError
from repro.serialize import config_fingerprint, load_model, save_model
from repro.serve import (
    ChaosProxy,
    EddieClient,
    ModelRegistry,
    ServerConfig,
    serve_in_thread,
)
from repro.stream import FleetScheduler

TINY = tiny_scale()


def frontend_detector():
    return shared_tiny_detector("bitcount", frontend=True)


@functools.lru_cache(maxsize=None)
def batch_run():
    """``(signal, batch result)`` for the chunking sweep's capture."""
    detector = frontend_detector()
    signal = detector.source.capture(seed=TINY.monitor_seed(1)).iq
    return signal, Monitor(detector.model).run_signal(signal)


class TestBatchStreamingParity:
    @pytest.mark.parametrize("chunk_samples", [997, 2048, 4099, 10**9])
    def test_any_chunking_matches_batch(self, chunk_samples):
        signal, batch = batch_run()
        monitor = stream_in_chunks(
            frontend_detector().model, signal.samples, chunk_samples
        )
        assert_results_equal(monitor.result(), batch)
        # The chain buffers samples, so finish() must flush the tail
        # through the STFT: no window the batch path scores may be lost.
        assert monitor.windows_seen == len(batch.times)

    def test_frontend_actually_changes_the_stream(self):
        # Guard against the chain silently not running: the same capture
        # scored by a frontend-less model must see different windows.
        detector = frontend_detector()
        plain = shared_tiny_detector("bitcount")
        # Training saw the processed stream: the reference profiles must
        # diverge from the frontend-less model's, and the fingerprint
        # the serving/fleet layers group by must differ too.
        assert detector.model.profiles != plain.model.profiles
        assert config_fingerprint(detector.model.config) != (
            config_fingerprint(plain.model.config)
        )


class TestFleetCloseDeliversTail:
    def test_push_consumers_see_the_drained_tail(self):
        # Closing a session flushes the chain's buffered tail through
        # scoring; those windows must reach on_result and the session
        # history like any fed chunk's, not only the summary's count.
        detector = frontend_detector()
        iq = detector.source.capture(seed=TINY.monitor_seed(0)).iq
        seen = []
        fleet = FleetScheduler(
            keep_history=True,
            on_result=lambda session_id, result: seen.append(result),
        )
        session = fleet.add_session("s", detector.model, t0=iq.t0)
        for chunk in iq.iter_chunks(4096):
            fleet.feed("s", chunk)
        summary = fleet.close_session("s")
        assert sum(len(r.times) for r in seen) == summary.windows
        assert sum(len(r.times) for r in session.results) == summary.windows
        assert_results_equal(
            MonitorResult.concat(seen), Monitor(detector.model).run_signal(iq)
        )


class TestModelRoundTrip:
    def test_save_load_preserves_the_chain(self, tmp_path):
        detector = frontend_detector()
        path = tmp_path / "fe_model.npz"
        save_model(detector.model, path)
        loaded = load_model(path)
        assert loaded.config.frontend == frontend_chain()
        assert config_fingerprint(loaded.config) == config_fingerprint(
            detector.model.config
        )

    def test_tampered_stage_is_rejected(self, tmp_path):
        detector = frontend_detector()
        path = tmp_path / "fe_model.npz"
        save_model(detector.model, path)
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            arrays = {k: data[k] for k in data.files if k != "meta"}
        # Quietly weaken the gate: the recorded fingerprint no longer
        # matches the rebuilt config, so the load must refuse.
        meta["config"]["frontend"][0]["cutoff"] = 0.9
        tampered = tmp_path / "tampered.npz"
        with open(tampered, "wb") as handle:
            np.savez_compressed(handle, meta=json.dumps(meta), **arrays)
        with pytest.raises(ConfigurationError, match="fingerprint"):
            load_model(tampered)

    def test_unknown_stage_type_is_rejected(self, tmp_path):
        detector = frontend_detector()
        path = tmp_path / "fe_model.npz"
        save_model(detector.model, path)
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            arrays = {k: data[k] for k in data.files if k != "meta"}
        meta["config"]["frontend"][0] = {"type": "not_a_stage"}
        tampered = tmp_path / "unknown.npz"
        with open(tampered, "wb") as handle:
            np.savez_compressed(handle, meta=json.dumps(meta), **arrays)
        with pytest.raises(ConfigurationError):
            load_model(tampered)


class TestServeResumeWithFrontend:
    def test_kill_and_resume_loses_zero_windows(self, tmp_path):
        detector = frontend_detector()
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(detector.model)
        trace = detector.source.capture(seed=TINY.monitor_seed(2))
        chunks = list(trace.iq.iter_chunks(4096))
        assert len(chunks) >= 4

        local_reports, local_summary = local_reference(
            detector.model, trace, 4096
        )

        config = ServerConfig(
            max_sessions=4, worker_threads=2, checkpoint_interval=2
        )
        with serve_in_thread(registry, config) as handle:
            with ChaosProxy(handle.address, seed=11) as proxy:
                host, port = proxy.address
                with EddieClient(
                    host, port, window=4, connect_timeout=5.0,
                    io_timeout=10.0, max_retries=8,
                    backoff_base=0.02, backoff_max=0.25,
                ) as client:
                    client.open(detector.model.program_name, t0=trace.iq.t0)
                    reports = []
                    for i, chunk in enumerate(chunks):
                        reports.extend(client.send(chunk))
                        if i == len(chunks) // 2:
                            reports.extend(client.drain())
                            assert proxy.kill_connections() == 1
                    reports.extend(client.drain())
                    summary = client.close()
                    assert client.reconnects >= 1
                    # Zero windows lost across the kill: the resumed
                    # session scored exactly what the local run did,
                    # drained chain tail included.
                    assert_matches_local(
                        reports, summary, client,
                        local_reports, local_summary,
                    )
            assert handle.stats.sessions_resumed >= 1
