"""Serving resilience (DESIGN.md D19): checkpoint/resume under fire.

The load-bearing assertions: a session interrupted mid-stream -- by a
chaos proxy resetting/truncating connections, by a scripted kill, or by
a full server stop/start -- finishes with reports and a summary
bit-identical to an uninterrupted local :class:`StreamingMonitor` run,
with zero windows lost and zero windows scored twice. Around that:
graceful drain, typed I/O deadlines, and resume-token authentication.
"""

import socket
import threading

import pytest
from conftest import shared_tiny_detector as detector_for
from conftest import assert_matches_local, local_reference, tiny_scale

from repro.errors import ProtocolError, ServeError, ServeTimeoutError
from repro.serve import (
    ChaosConfig,
    ChaosProxy,
    EddieClient,
    ModelRegistry,
    ServerConfig,
    serve_in_thread,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    FrameType,
    json_frame,
    parse_json,
    recv_frame,
    send_frame,
)

TINY = tiny_scale()


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    reg = ModelRegistry(tmp_path_factory.mktemp("registry"))
    reg.publish(detector_for("bitcount").model)
    return reg


def resilient_config(**overrides):
    base = dict(
        max_sessions=4,
        worker_threads=2,
        checkpoint_interval=2,
    )
    base.update(overrides)
    return ServerConfig(**base)


def resilient_client(host, port, **overrides):
    base = dict(
        window=4,
        connect_timeout=5.0,
        io_timeout=10.0,
        max_retries=8,
        backoff_base=0.02,
        backoff_max=0.25,
    )
    base.update(overrides)
    return EddieClient(host, port, **base)


class TestCheckpointAcks:
    def test_acks_prune_the_replay_buffer(self, registry):
        detector = detector_for("bitcount")
        trace = detector.source.capture(seed=TINY.monitor_seed(0))
        with serve_in_thread(registry, resilient_config()) as handle:
            host, port = handle.address
            with resilient_client(host, port) as client:
                client.open("bitcount", t0=trace.iq.t0)
                assert client.resumable  # token granted at OPEN
                for chunk in trace.iq.iter_chunks(4096):
                    client.send(chunk)
                client.drain()
                # Checkpoints every 2 chunks: by drain time the server
                # has acked most of the stream and the buffer is small.
                assert client.acked_seq > 0
                assert client.unacked_chunks <= 2 * 2
                assert client.reconnects == 0
                client.close()
            assert handle.stats.checkpoints > 0
        spills = list(registry.root.glob(".sessions/*.npz"))
        assert spills == []  # clean CLOSE deletes the spill

    def test_checkpointing_disabled_means_no_token(self, registry):
        with serve_in_thread(
            registry, resilient_config(checkpoint_interval=0)
        ) as handle:
            host, port = handle.address
            with resilient_client(host, port) as client:
                client.open("bitcount")
                assert not client.resumable
                assert client.unacked_chunks == 0
                client.close()


class TestKillAndResume:
    def test_scripted_kill_resumes_bit_identically(self, registry):
        detector = detector_for("bitcount")
        trace = detector.source.capture(seed=TINY.monitor_seed(1))
        chunks = list(trace.iq.iter_chunks(4096))
        assert len(chunks) >= 4
        local_reports, local_summary = local_reference(
            detector.model, trace, 4096
        )
        with serve_in_thread(registry, resilient_config()) as handle:
            with ChaosProxy(handle.address, seed=7) as proxy:
                host, port = proxy.address
                with resilient_client(host, port) as client:
                    client.open("bitcount", t0=trace.iq.t0)
                    reports = []
                    for i, chunk in enumerate(chunks):
                        reports.extend(client.send(chunk))
                        if i == len(chunks) // 2:
                            reports.extend(client.drain())
                            assert proxy.kill_connections() == 1
                    reports.extend(client.drain())
                    summary = client.close()
                    assert client.reconnects >= 1
                    assert_matches_local(
                        reports, summary, client,
                        local_reports, local_summary,
                    )
            assert handle.stats.sessions_resumed >= 1
            assert handle.stats.sessions_suspended >= 1

    @pytest.mark.slow
    def test_random_chaos_resumes_bit_identically(self, registry):
        detector = detector_for("bitcount")
        trace = detector.source.capture(seed=TINY.monitor_seed(2))
        local_reports, local_summary = local_reference(
            detector.model, trace, 2048
        )
        chaos = ChaosConfig(
            reset_rate=0.05,
            truncate_rate=0.05,
            delay_rate=0.10,
            delay_seconds=0.002,
            grace_bytes=4096,
        )
        with serve_in_thread(registry, resilient_config()) as handle:
            with ChaosProxy(handle.address, config=chaos, seed=3) as proxy:
                host, port = proxy.address
                with resilient_client(host, port) as client:
                    client.open("bitcount", t0=trace.iq.t0)
                    reports = []
                    for chunk in trace.iq.iter_chunks(2048):
                        reports.extend(client.send(chunk))
                    reports.extend(client.drain())
                    summary = client.close()
                    faults = (
                        proxy.stats.resets
                        + proxy.stats.truncations
                        + proxy.stats.stalls
                    )
                    assert faults >= 1, "chaos seed injected no faults"
                    assert client.reconnects >= 1
                    assert_matches_local(
                        reports, summary, client,
                        local_reports, local_summary,
                    )


class TestServerRestart:
    def test_graceful_drain_and_successor_resume(self, registry):
        detector = detector_for("bitcount")
        trace = detector.source.capture(seed=TINY.monitor_seed(3))
        chunks = list(trace.iq.iter_chunks(4096))
        local_reports, local_summary = local_reference(
            detector.model, trace, 4096
        )
        first = serve_in_thread(registry, resilient_config())
        host, port = first.address
        client = resilient_client(host, port).connect()
        try:
            client.open("bitcount", t0=trace.iq.t0)
            reports = []
            half = len(chunks) // 2
            for chunk in chunks[:half]:
                reports.extend(client.send(chunk))
            reports.extend(client.drain())
            final_stats = first.drain()
            assert final_stats["draining"] is True
            assert final_stats["sessions_suspended"] == 1
            first.stop()
            with serve_in_thread(
                registry, resilient_config(port=port)
            ) as second:
                for chunk in chunks[half:]:
                    reports.extend(client.send(chunk))
                reports.extend(client.drain())
                summary = client.close()
                assert client.reconnects == 1
                assert second.stats.sessions_resumed == 1
                assert_matches_local(
                    reports, summary, client, local_reports, local_summary
                )
        finally:
            client.disconnect()
            first.stop()

    def test_hard_stop_and_successor_resume(self, registry):
        # No drain at all: the periodic checkpoint alone must be enough
        # to survive a crash, replaying from the last durable ack.
        detector = detector_for("bitcount")
        trace = detector.source.capture(seed=TINY.monitor_seed(4))
        chunks = list(trace.iq.iter_chunks(4096))
        local_reports, local_summary = local_reference(
            detector.model, trace, 4096
        )
        first = serve_in_thread(registry, resilient_config())
        host, port = first.address
        client = resilient_client(host, port).connect()
        try:
            client.open("bitcount", t0=trace.iq.t0)
            reports = []
            half = len(chunks) // 2
            for chunk in chunks[:half]:
                reports.extend(client.send(chunk))
            reports.extend(client.drain())
            assert client.acked_seq > 0, "need a durable checkpoint first"
            first.stop()
            with serve_in_thread(
                registry, resilient_config(port=port)
            ) as second:
                for chunk in chunks[half:]:
                    reports.extend(client.send(chunk))
                reports.extend(client.drain())
                summary = client.close()
                assert client.reconnects >= 1
                assert second.stats.sessions_resumed >= 1
                assert_matches_local(
                    reports, summary, client, local_reports, local_summary
                )
        finally:
            client.disconnect()
            first.stop()

    def test_draining_server_refuses_new_sessions(self, registry):
        with serve_in_thread(registry, resilient_config()) as handle:
            host, port = handle.address
            bystander = resilient_client(host, port).connect()
            try:
                handle.drain()
                with pytest.raises(ServeError) as excinfo:
                    bystander.open("bitcount")
                assert excinfo.value.code == "draining"
            finally:
                bystander.disconnect()


class TestProtocolCompat:
    def test_resume_with_bad_token_is_rejected(self, registry):
        detector = detector_for("bitcount")
        trace = detector.source.capture(seed=TINY.monitor_seed(0))
        with serve_in_thread(registry, resilient_config()) as handle:
            host, port = handle.address
            client = resilient_client(host, port).connect()
            client.open("bitcount", t0=trace.iq.t0)
            for chunk in list(trace.iq.iter_chunks(4096))[:4]:
                client.send(chunk)
            client.drain()
            session_id = client.session_id
            client.disconnect()  # server abort-checkpoints the session
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.settimeout(5)
                send_frame(sock, json_frame(FrameType.HELLO, {
                    "versions": [PROTOCOL_VERSION],
                }))
                assert recv_frame(sock).type == FrameType.HELLO
                send_frame(sock, json_frame(FrameType.RESUME, {
                    "session": session_id,
                    "token": "f" * 32,
                    "delivered": 0,
                    "window": 4,
                }))
                reply = recv_frame(sock)
                assert reply.type == FrameType.ERROR
                assert parse_json(reply)["code"] == "resume_rejected"

    def test_resume_of_unknown_session_is_rejected(self, registry):
        with serve_in_thread(registry, resilient_config()) as handle:
            host, port = handle.address
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.settimeout(5)
                send_frame(sock, json_frame(FrameType.HELLO, {
                    "versions": [PROTOCOL_VERSION],
                }))
                assert recv_frame(sock).type == FrameType.HELLO
                send_frame(sock, json_frame(FrameType.RESUME, {
                    "session": "s00000000-999999",
                    "token": "f" * 32,
                }))
                reply = recv_frame(sock)
                assert reply.type == FrameType.ERROR
                assert parse_json(reply)["code"] == "unknown_session"


class TestTimeouts:
    @pytest.fixture()
    def silent_server(self):
        """Accepts connections and never says a word."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        accepted = []
        stop = threading.Event()

        def run():
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                accepted.append(conn)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        try:
            yield listener.getsockname()[:2]
        finally:
            stop.set()
            listener.close()
            for conn in accepted:
                conn.close()
            thread.join(timeout=2)

    def test_io_deadline_surfaces_typed_error(self, silent_server):
        host, port = silent_server
        client = EddieClient(
            host, port,
            connect_timeout=5.0, io_timeout=0.2, reconnect=False,
        )
        with pytest.raises(ServeTimeoutError) as excinfo:
            client.connect()  # HELLO never answered
        assert isinstance(excinfo.value, ServeError)
        assert excinfo.value.code == "timeout"
        client.disconnect()

    def test_connect_and_io_deadlines_are_separate(self):
        split = EddieClient(
            "127.0.0.1", 1, connect_timeout=1.5, io_timeout=20.0
        )
        assert split.connect_timeout == 1.5
        assert split.io_timeout == 20.0

    def test_replay_buffer_must_hold_a_window(self):
        with pytest.raises(ServeError, match="replay_buffer_chunks"):
            EddieClient(
                "127.0.0.1", 1, window=8, replay_buffer_chunks=4
            )
