"""repro.serve: protocol framing, registry, and loopback serving.

That a served session is bit-identical to the scalar oracle and to a
local :class:`StreamingMonitor` run on the same chunking is checked by
the equivalence suite (``tests/test_equivalence.py``, ``test_served``).
Here: replays of every served program, and of an odd chunking with one
chunk in flight, against local streams; the framing and registry units,
concurrent clients against one server, typed refusals, load shedding at
capacity as a typed ``at_capacity`` ERROR that leaves surviving sessions
untouched, ``evict_idle`` displacing the stalest session with a typed
``evicted`` notification, and a session whose CHUNK seqs skip or repeat
refused with ``bad_frame`` while its neighbours finish bit-identically.
"""

import dataclasses
import json
import socket
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import shared_tiny_detector as detector_for
from conftest import SERVED_PROGRAMS, local_reference, tiny_scale

from repro.errors import (
    ConfigurationError,
    MonitoringError,
    ProtocolError,
    RegistryError,
    ServeError,
)
from repro.serve import (
    EddieClient,
    FrameDecoder,
    FrameType,
    ModelRegistry,
    PROTOCOL_VERSION,
    ServerConfig,
    decode_chunk,
    encode_chunk,
    encode_frame,
    json_frame,
    model_fingerprint,
    negotiate_version,
    parse_json,
    serve_in_thread,
)
from repro.serve.client import replay
from repro.serve.protocol import (
    HEADER,
    MAX_PAYLOAD,
    recv_frame,
    report_from_json,
    report_to_json,
    send_frame,
    summary_from_json,
    summary_to_json,
)
from repro.stream import FleetScheduler

TINY = tiny_scale()


# -- protocol units -----------------------------------------------------------


class TestFraming:
    def test_roundtrip_through_dribbled_bytes(self):
        wire = json_frame(FrameType.OPEN, {"model": "bitcount", "t0": 0.25})
        wire += encode_frame(FrameType.CLOSE)
        decoder = FrameDecoder()
        frames = []
        for i in range(len(wire)):  # worst case: one byte at a time
            frames.extend(decoder.feed(wire[i:i + 1]))
        assert [f.type for f in frames] == [FrameType.OPEN, FrameType.CLOSE]
        assert parse_json(frames[0]) == {"model": "bitcount", "t0": 0.25}
        assert frames[1].payload == b""
        assert decoder.pending_bytes == 0

    def test_bad_magic_raises(self):
        with pytest.raises(ProtocolError, match="magic"):
            FrameDecoder().feed(b"XX" + bytes(HEADER.size - 2))

    def test_unknown_frame_type_raises(self):
        wire = HEADER.pack(b"ED", 200, 0, 0)
        with pytest.raises(ProtocolError, match="frame type"):
            FrameDecoder().feed(wire)

    def test_oversized_payload_refused_without_allocating(self):
        wire = HEADER.pack(b"ED", int(FrameType.CHUNK), 0, MAX_PAYLOAD + 1)
        with pytest.raises(ProtocolError, match="limit"):
            FrameDecoder().feed(wire)
        with pytest.raises(ProtocolError, match="limit"):
            encode_frame(FrameType.CHUNK, bytes(MAX_PAYLOAD + 1))

    @pytest.mark.parametrize(
        "dtype", ["complex64", "complex128", "float32", "float64"]
    )
    def test_chunk_preserves_dtype_and_bits(self, dtype):
        rng = np.random.default_rng(0)
        if np.dtype(dtype).kind == "c":
            samples = (rng.standard_normal(257)
                       + 1j * rng.standard_normal(257)).astype(dtype)
        else:
            samples = rng.standard_normal(257).astype(dtype)
        decoder = FrameDecoder()
        (frame,) = decoder.feed(encode_chunk(7, samples))
        seq, decoded = decode_chunk(frame)
        assert seq == 7
        assert decoded.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(decoded, samples)
        assert decoded.flags.writeable

    def test_chunk_rejects_unsupported_dtype_and_shape(self):
        with pytest.raises(ProtocolError, match="dtype"):
            encode_chunk(0, np.arange(4, dtype=np.int32))
        with pytest.raises(ProtocolError, match="1-D"):
            encode_chunk(0, np.zeros((2, 2), dtype=np.complex64))

    def test_chunk_rejects_torn_body(self):
        from repro.serve.protocol import CHUNK_HEADER, Frame

        # 5 payload bytes is not a whole number of complex64 samples.
        torn = Frame(FrameType.CHUNK, CHUNK_HEADER.pack(1, 1) + bytes(5))
        with pytest.raises(ProtocolError, match="whole number"):
            decode_chunk(torn)

    def test_negotiate_version(self):
        assert negotiate_version([PROTOCOL_VERSION]) == PROTOCOL_VERSION
        # What a client of an older build offers still negotiates.
        assert negotiate_version([1, 2, 3]) == 3
        assert negotiate_version([99, 1]) is None
        assert negotiate_version([99]) is None
        with pytest.raises(ProtocolError):
            negotiate_version("not-a-list-of-ints")

    def test_report_and_summary_json_roundtrip_is_exact(self):
        from repro.core.monitor import AnomalyReport
        from repro.stream.engine import StreamSummary

        # An awkward double that only survives repr-exact JSON.
        t = float(np.nextafter(0.0058368, 1.0))
        report = AnomalyReport(time=t, region="loop:x", streak=3)
        assert report_from_json(
            json.loads(json.dumps(report_to_json(report)))
        ) == report
        summary = StreamSummary(
            session_id="s1", chunks=3, samples=12288, windows=48,
            reports=[report], unscorable_fraction=1.0 / 3.0,
            status="degraded", stopped_early=True,
        )
        assert summary_from_json(
            json.loads(json.dumps(summary_to_json(summary)))
        ) == summary


# -- registry units -----------------------------------------------------------


class TestRegistry:
    def test_publish_resolve_versions(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        model = detector_for("bitcount").model
        first = reg.publish(model)
        assert (first.name, first.version) == ("bitcount", 1)
        second = reg.publish(model, "bitcount")
        assert second.version == 2
        assert reg.resolve("bitcount").version == 2
        assert reg.resolve("bitcount@latest").version == 2
        assert reg.resolve("bitcount@1").version == 1
        assert reg.resolve(f"fp:{first.fingerprint[:12]}").name == "bitcount"
        assert [e.spec for e in reg.list_entries()] == [
            "bitcount@1", "bitcount@2"
        ]

    def test_publish_refuses_bad_names_and_republish(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        model = detector_for("bitcount").model
        reg.publish(model, version=3)
        with pytest.raises(RegistryError, match="immutable"):
            reg.publish(model, version=3)
        with pytest.raises(RegistryError, match="invalid model name"):
            reg.publish(model, "../escape")
        assert reg.publish(model).version == 4

    def test_resolve_errors_are_typed(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        with pytest.raises(RegistryError) as excinfo:
            reg.resolve("missing")
        assert excinfo.value.code == "unknown_model"
        with pytest.raises(RegistryError, match="too short"):
            reg.resolve("fp:abc")
        with pytest.raises(RegistryError):
            reg.resolve("bitcount@not-a-version")

    def test_lru_shares_one_instance_across_loads(self, tmp_path):
        reg = ModelRegistry(tmp_path, cache_size=2)
        entry = reg.publish(detector_for("bitcount").model)
        model_a, _ = reg.load("bitcount")
        model_b, _ = reg.load(f"fp:{entry.fingerprint[:16]}")
        assert model_a is model_b
        assert (reg.cache_misses, reg.cache_hits) == (1, 1)

    def test_corrupt_artifact_is_refused(self, tmp_path):
        reg = ModelRegistry(tmp_path, cache_size=0)
        entry = reg.publish(detector_for("bitcount").model)
        entry.path.write_bytes(b"not an npz at all")
        with pytest.raises(RegistryError) as excinfo:
            reg.load("bitcount")
        assert excinfo.value.code == "model_corrupt"

    def test_mislabeled_sidecar_is_refused(self, tmp_path):
        reg = ModelRegistry(tmp_path, cache_size=0)
        entry = reg.publish(detector_for("bitcount").model)
        sidecar = entry.path.with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        meta["fingerprint"] = "0" * 64
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(RegistryError, match="fingerprint mismatch"):
            reg.load("bitcount")

    def test_fingerprint_is_content_addressed(self):
        model = detector_for("bitcount").model
        assert model_fingerprint(model) == model_fingerprint(model)
        assert model_fingerprint(model) != model_fingerprint(
            detector_for("sha").model
        )


# -- loopback serving ---------------------------------------------------------


class TestLoopbackBitIdentity:
    @pytest.mark.parametrize("name", SERVED_PROGRAMS)
    def test_remote_replay_equals_local_streaming(self, server, name):
        detector = detector_for(name)
        trace = detector.source.capture(seed=TINY.monitor_seed(0))
        local_reports, local_summary = local_reference(
            detector.model, trace, 4096
        )
        host, port = server.address
        reports, summary = replay(
            host, port, f"{name}@latest", trace, chunk_samples=4096
        )
        assert reports == local_reports
        # The server assigns the session id; everything else -- counts,
        # report list, status -- must match bit for bit.
        assert dataclasses.replace(
            summary, session_id=local_summary.session_id
        ) == local_summary

    def test_concurrent_clients_are_clean_and_bit_identical(self, server):
        """Four client threads replay twice each against one server."""
        detector = detector_for("bitcount")
        trace = detector.source.capture(seed=TINY.monitor_seed(0))
        local_reports, local_summary = local_reference(
            detector.model, trace, 4096
        )
        host, port = server.address
        with ThreadPoolExecutor(max_workers=4) as pool:
            outcomes = list(pool.map(
                lambda _: replay(
                    host, port, "bitcount", trace, chunk_samples=4096
                ),
                range(8),
            ))
        for reports, summary in outcomes:
            assert summary.status == "ok"
            assert reports == local_reports
            assert dataclasses.replace(
                summary, session_id=local_summary.session_id
            ) == local_summary

    def test_odd_chunking_and_single_flight_window(self, server):
        detector = detector_for("bitcount")
        trace = detector.source.capture(seed=TINY.monitor_seed(1))
        local_reports, local_summary = local_reference(
            detector.model, trace, 997
        )
        host, port = server.address
        reports, summary = replay(
            host, port, "bitcount", trace, chunk_samples=997, window=1
        )
        assert reports == local_reports
        assert summary.windows == local_summary.windows

    def test_unknown_model_open_is_typed(self, server):
        host, port = server.address
        with EddieClient(host, port) as client:
            with pytest.raises(ServeError) as excinfo:
                client.open("no-such-model")
        assert excinfo.value.code == "unknown_model"

    def test_stats_frame_any_time(self, server):
        host, port = server.address
        with EddieClient(host, port) as client:
            stats = client.stats()  # before OPEN
        assert stats["max_sessions"] == 8
        assert stats["sessions_opened"] >= 1
        assert stats["registry"]["lru_misses"] >= 1

    @pytest.mark.parametrize(
        "offered", [[99], [1], [1, 2]], ids=["v99", "v1", "v1-v2"]
    )
    def test_version_negotiation_refuses_unsupported_offers(
        self, server, offered
    ):
        # A future revision and the retired revisions 1 and 2 alike.
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            send_frame(sock, json_frame(
                FrameType.HELLO, {"versions": offered}
            ))
            frame = recv_frame(sock)
        assert frame.type == FrameType.ERROR
        assert parse_json(frame)["code"] == "unsupported_version"

    def test_garbage_bytes_do_not_kill_the_server(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
            sock.settimeout(10)
            try:
                while sock.recv(4096):
                    pass
            except OSError:
                pass
        # The server survived and still serves sessions.
        with EddieClient(host, port) as client:
            assert client.stats()["protocol_errors"] >= 1


class TestChunkSequencing:
    def refuse_second_chunk(self, registry, seq, samples_of, message):
        """A raw session whose second chunk (sequence number ``seq``,
        samples ``samples_of(chunk)``) is refused with ``bad_frame``
        naming ``message``, while a neighbour session streams on."""
        detector = detector_for("bitcount")
        trace = detector.source.capture(seed=TINY.monitor_seed(0))
        chunks = list(trace.iq.iter_chunks(4096))
        local_reports, local_summary = local_reference(
            detector.model, trace, 4096
        )
        half = len(chunks) // 2
        with serve_in_thread(
            registry, ServerConfig(max_sessions=4, worker_threads=2)
        ) as handle:
            host, port = handle.address
            with EddieClient(host, port, window=4) as neighbour:
                neighbour.open("bitcount", t0=trace.iq.t0)
                reports = []
                for chunk in chunks[:half]:
                    reports.extend(neighbour.send(chunk))
                with socket.create_connection((host, port), timeout=10) as sock:
                    sock.settimeout(10)
                    send_frame(sock, json_frame(FrameType.HELLO, {
                        "versions": [PROTOCOL_VERSION],
                    }))
                    assert recv_frame(sock).type == FrameType.HELLO
                    send_frame(sock, json_frame(FrameType.OPEN, {
                        "model": "bitcount", "t0": trace.iq.t0,
                    }))
                    assert recv_frame(sock).type == FrameType.OPEN
                    send_frame(sock, encode_chunk(1, chunks[0].samples))
                    assert recv_frame(sock).type == FrameType.REPORT
                    send_frame(
                        sock, encode_chunk(seq, samples_of(chunks[1]))
                    )
                    error = recv_frame(sock)
                    assert error.type == FrameType.ERROR
                    assert parse_json(error)["code"] == "bad_frame"
                    assert message in parse_json(error)["message"]
                    assert recv_frame(sock) is None  # the server hung up
                for chunk in chunks[half:]:
                    reports.extend(neighbour.send(chunk))
                reports.extend(neighbour.drain())
                summary = neighbour.close()
            assert handle.stats.protocol_errors == 1
        assert reports == local_reports
        assert dataclasses.replace(
            summary, session_id=local_summary.session_id
        ) == local_summary

    @pytest.mark.parametrize("bad_seq", [3, 1], ids=["skipped", "repeated"])
    def test_out_of_order_chunk_is_refused_and_neighbour_unharmed(
        self, registry, bad_seq
    ):
        self.refuse_second_chunk(
            registry, bad_seq, lambda chunk: chunk.samples, "out of order"
        )

    def test_nonfinite_chunk_is_refused_and_neighbour_unharmed(
        self, registry
    ):
        """An ungated model's session refuses a chunk holding NaN."""

        def poisoned(chunk):
            samples = chunk.samples.copy()
            samples[100:200] = np.nan
            return samples

        self.refuse_second_chunk(registry, 2, poisoned, "NaN or inf")


class TestLoadShedding:
    def test_over_capacity_open_is_shed_and_survivor_unaffected(
        self, registry
    ):
        detector = detector_for("bitcount")
        trace = detector.source.capture(seed=TINY.monitor_seed(0))
        local_reports, local_summary = local_reference(
            detector.model, trace, 4096
        )
        chunks = list(trace.iq.iter_chunks(4096))
        with serve_in_thread(
            registry, ServerConfig(max_sessions=1, worker_threads=1)
        ) as handle:
            host, port = handle.address
            with EddieClient(host, port) as survivor:
                survivor.open("bitcount", t0=trace.iq.t0)
                survivor.send(chunks[0])
                # Capacity is 1: the second OPEN must be refused with the
                # typed at_capacity error, not a crash or a hang.
                with EddieClient(host, port) as shed:
                    with pytest.raises(ServeError) as excinfo:
                        shed.open("bitcount")
                assert excinfo.value.code == "at_capacity"
                # The surviving session streams on, bit-identically.
                reports = []
                for chunk in chunks[1:]:
                    reports.extend(survivor.send(chunk))
                reports.extend(survivor.drain())
                summary = survivor.close()
            assert reports == local_reports
            assert summary.chunks == local_summary.chunks
            assert summary.reports == local_summary.reports
            assert handle.stats.sessions_shed == 1
            # After the survivor closed, its slot frees up again.
            with EddieClient(host, port) as client:
                client.open("bitcount")
                client.close()

    def test_evict_idle_displaces_stalest_session(self, registry):
        detector = detector_for("bitcount")
        trace = detector.source.capture(seed=TINY.monitor_seed(0))
        chunks = list(trace.iq.iter_chunks(4096))
        with serve_in_thread(
            registry,
            ServerConfig(max_sessions=1, evict_idle=True, worker_threads=1),
        ) as handle:
            host, port = handle.address
            stale = EddieClient(host, port).connect()
            try:
                stale.open("bitcount", t0=trace.iq.t0)
                stale.send(chunks[0])
                stale.drain()
                # Admitting a newcomer at capacity evicts the stale
                # session instead of shedding the newcomer.
                with EddieClient(host, port) as fresh:
                    fresh.open("bitcount", t0=trace.iq.t0)
                    fresh.send(chunks[0])
                    fresh.drain()
                    summary = fresh.close()
                assert summary.chunks == 1
                # The evicted peer finds out through a typed ERROR (or
                # its closed transport, depending on timing). A client
                # that auto-resumes instead finds its checkpoint
                # deliberately dropped: unknown_session.
                with pytest.raises((ServeError, OSError)) as excinfo:
                    for chunk in chunks[1:]:
                        stale.send(chunk)
                    stale.drain()
                    stale.close()
                if isinstance(excinfo.value, ServeError):
                    assert excinfo.value.code in (
                        "evicted", "connection_closed", "unknown_session"
                    )
            finally:
                stale.disconnect()
            assert handle.stats.sessions_evicted == 1
            assert handle.stats.sessions_shed == 0


class TestFleetEviction:
    """Satellite: FleetScheduler's opt-in idle eviction."""

    def _fleet_with(self, n, **kwargs):
        model = detector_for("bitcount").model
        fleet = FleetScheduler(max_sessions=n, **kwargs)
        for i in range(n):
            fleet.add_session(f"dev-{i}", model)
        return fleet, model

    def test_default_still_raises_at_capacity(self):
        fleet, model = self._fleet_with(2)
        with pytest.raises(ConfigurationError, match="capacity"):
            fleet.add_session("overflow", model)
        assert sorted(fleet.session_ids) == ["dev-0", "dev-1"]

    def test_evict_idle_closes_least_recently_fed(self):
        evicted = []
        fleet, model = self._fleet_with(
            3, evict_idle=True,
            on_evict=lambda sid, summary: evicted.append((sid, summary)),
        )
        chunk = np.zeros(1024, dtype=np.complex128)
        fleet.feed("dev-0", chunk)
        fleet.feed("dev-2", chunk)
        fleet.add_session("newcomer", model)  # displaces dev-1
        assert [sid for sid, _ in evicted] == ["dev-1"]
        assert evicted[0][1].chunks == 0
        assert sorted(fleet.session_ids) == ["dev-0", "dev-2", "newcomer"]
        # Freshly admitted sessions are not instantly stale.
        fleet.add_session("another", model)
        assert [sid for sid, _ in evicted] == ["dev-1", "dev-0"]

    def test_evict_stalest_requires_an_open_session(self):
        fleet = FleetScheduler(max_sessions=2, evict_idle=True)
        with pytest.raises(MonitoringError, match="no open session"):
            fleet.evict_stalest()
