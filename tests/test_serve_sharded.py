"""Sharded serving conformance (DESIGN.md D21): placement + the router.

That a replay through a multi-worker :class:`ShardCluster` (real worker
processes) is bit-identical to the scalar oracle -- and so to a
single-worker replay and a local run -- is checked by the equivalence
suite (``tests/test_equivalence.py``, ``test_sharded``). The
load-bearing assertions here, one hop out from the resilience suite: a
session's placement is stable under reconnect; SIGKILL of the owning
worker mid-stream, and a SIGTERM drain of it, lose zero windows and
double-score none (the survivor adopts the orphaned spill). Around
that: rendezvous-hashing properties (hypothesis), typed REDIRECT
validation, the router's version refusal, typed worker start failures,
workers inheriting the registry's LRU size, exact fleet-wide STATS
merging, and the drain/eviction checkpoint races.
"""

import json
import shutil
import socket
import threading

import pytest
from conftest import (
    SERVED_PROGRAMS,
    assert_matches_local,
    local_reference,
    serve_config,
)
from conftest import shared_tiny_detector as detector_for
from conftest import tiny_scale
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolError, ServeError
from repro.serve import (
    EddieClient,
    ModelRegistry,
    ShardCluster,
    merge_stats_payloads,
    place,
    serve_in_thread,
)
from repro.serve.protocol import (
    ERR_BAD_REDIRECT,
    Frame,
    FrameType,
    json_frame,
    parse_json,
    parse_redirect,
    recv_frame,
    send_frame,
)

TINY = tiny_scale()


def sharded_client(host, port, **overrides):
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


def key_owned_by(worker_id, worker_ids=(0, 1)):
    """A shard key that rendezvous-places onto ``worker_id``."""
    for i in range(1000):
        key = f"owned-{worker_id}-{i}"
        if place(key, list(worker_ids)) == worker_id:
            return key
    raise AssertionError("rendezvous hash never picked the worker")


# -- placement properties -----------------------------------------------------


worker_sets = st.lists(
    st.integers(min_value=0, max_value=512),
    min_size=1, max_size=8, unique=True,
)


class TestPlacement:
    @given(key=st.text(min_size=1, max_size=32), worker_ids=worker_sets)
    def test_deterministic_and_order_independent(self, key, worker_ids):
        owner = place(key, worker_ids)
        assert owner in worker_ids
        assert place(key, worker_ids) == owner
        assert place(key, list(reversed(worker_ids))) == owner
        assert place(key, sorted(worker_ids)) == owner

    @given(
        key=st.text(min_size=1, max_size=32),
        worker_ids=st.lists(
            st.integers(min_value=0, max_value=512),
            min_size=2, max_size=8, unique=True,
        ),
    )
    def test_removing_a_bystander_never_moves_the_key(self, key, worker_ids):
        # The minimal-disruption property rendezvous hashing buys over
        # modulo hashing: only the removed worker's keys re-place.
        owner = place(key, worker_ids)
        for removed in worker_ids:
            if removed == owner:
                continue
            rest = [w for w in worker_ids if w != removed]
            assert place(key, rest) == owner

    def test_balanced_across_1k_session_ids(self):
        worker_ids = [0, 1, 2, 3]
        loads = {w: 0 for w in worker_ids}
        for i in range(1000):
            loads[place(f"session-{i:04d}", worker_ids)] += 1
        assert sum(loads.values()) == 1000
        # Expected 250 per worker, sigma ~14: these bounds are >5 sigma
        # out, and the assignment is deterministic anyway.
        for worker_id, load in loads.items():
            assert 175 <= load <= 325, (worker_id, loads)

    def test_empty_worker_set_is_typed(self):
        with pytest.raises(ServeError) as excinfo:
            place("anything", [])
        assert excinfo.value.code == "no_workers"


# -- REDIRECT validation ------------------------------------------------------


def redirect_frame(payload):
    return Frame(FrameType.REDIRECT, json.dumps(payload).encode())


class TestRedirectValidation:
    def test_well_formed_redirect_parses(self):
        frame = redirect_frame({"host": "10.0.0.7", "port": 4000, "worker": 3})
        assert parse_redirect(frame) == ("10.0.0.7", 4000, 3)
        # worker is advisory; a frame without it still routes.
        frame = redirect_frame({"host": "h", "port": 1})
        assert parse_redirect(frame) == ("h", 1, -1)

    @pytest.mark.parametrize("frame", [
        Frame(FrameType.OPEN, b"{}"),                   # wrong frame type
        Frame(FrameType.REDIRECT, b"\xff\xfe"),         # not UTF-8 JSON
        Frame(FrameType.REDIRECT, b"[1, 2]"),           # not an object
        redirect_frame({"port": 4000}),                 # host missing
        redirect_frame({"host": "", "port": 4000}),     # host empty
        redirect_frame({"host": 7, "port": 4000}),      # host not a str
        redirect_frame({"host": "h"}),                  # port missing
        redirect_frame({"host": "h", "port": "x"}),     # port not an int
        redirect_frame({"host": "h", "port": 0}),       # port out of range
        redirect_frame({"host": "h", "port": 70000}),   # port out of range
        redirect_frame({"host": "h", "port": 1, "worker": "w"}),
    ])
    def test_malformed_redirect_is_typed(self, frame):
        with pytest.raises(ProtocolError) as excinfo:
            parse_redirect(frame)
        assert excinfo.value.code == ERR_BAD_REDIRECT

    @pytest.fixture()
    def redirect_loop_server(self):
        """A hostile 'router' that redirects every OPEN back to itself."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        host, port = listener.getsockname()[:2]
        stop = threading.Event()

        def run():
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                with conn:
                    conn.settimeout(5)
                    try:
                        recv_frame(conn)  # HELLO
                        send_frame(conn, json_frame(
                            FrameType.HELLO, {"version": 3}
                        ))
                        recv_frame(conn)  # OPEN
                        send_frame(conn, json_frame(FrameType.REDIRECT, {
                            "host": host, "port": port, "worker": 0,
                        }))
                    except (OSError, ProtocolError):
                        pass

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        try:
            yield (host, port)
        finally:
            stop.set()
            listener.close()
            thread.join(timeout=2)

    def test_redirect_loop_is_cut_off_with_typed_error(
        self, redirect_loop_server
    ):
        host, port = redirect_loop_server
        with sharded_client(host, port, max_redirects=3) as client:
            with pytest.raises(ServeError) as excinfo:
                client.open("bitcount")
        assert excinfo.value.code == ERR_BAD_REDIRECT


# -- sharded bit-identity -----------------------------------------------------


class TestShardedBitIdentity:
    def test_session_stays_pinned_under_reconnect(self, cluster):
        detector = detector_for("bitcount")
        trace = detector.source.capture(seed=TINY.monitor_seed(1))
        chunks = list(trace.iq.iter_chunks(4096))
        local_reports, local_summary = local_reference(
            detector.model, trace, 4096
        )
        host, port = cluster.address
        with sharded_client(host, port, shard_key="pin-me") as client:
            client.open("bitcount", t0=trace.iq.t0)
            first_worker = client.worker_id
            assert first_worker is not None
            reports = []
            half = len(chunks) // 2
            for chunk in chunks[:half]:
                reports.extend(client.send(chunk))
            reports.extend(client.drain())
            # Sever the worker connection mid-stream: the resume goes
            # back through the router, and the unchanged shard key must
            # land it on the same worker.
            client._sock.shutdown(socket.SHUT_RDWR)
            for chunk in chunks[half:]:
                reports.extend(client.send(chunk))
            reports.extend(client.drain())
            summary = client.close()
            assert client.reconnects >= 1
            assert client.worker_id == first_worker
            assert_matches_local(
                reports, summary, client, local_reports, local_summary
            )

    @staticmethod
    def resume_after_losing_owner(registry, tmp_path, lose_owner, seed):
        """Stream half a capture, take the owning worker down with
        ``lose_owner(cluster, owner)``, finish: exactly once, on the
        survivor, which adopts the orphaned spill."""
        detector = detector_for("bitcount")
        trace = detector.source.capture(seed=TINY.monitor_seed(seed))
        chunks = list(trace.iq.iter_chunks(4096))
        local_reports, local_summary = local_reference(
            detector.model, trace, 4096
        )
        with ShardCluster(
            registry, workers=2, config=serve_config(),
            spill_root=str(tmp_path / "spills"),
        ) as doomed:
            host, port = doomed.address
            with sharded_client(host, port) as client:
                client.open("bitcount", t0=trace.iq.t0)
                owner = client.worker_id
                reports = []
                half = len(chunks) // 2
                for chunk in chunks[:half]:
                    reports.extend(client.send(chunk))
                reports.extend(client.drain())
                assert client.acked_seq > 0, "need a durable checkpoint"
                lose_owner(doomed, owner)
                for chunk in chunks[half:]:
                    reports.extend(client.send(chunk))
                reports.extend(client.drain())
                summary = client.close()
                assert client.reconnects >= 1
                assert client.worker_id is not None
                assert client.worker_id != owner  # adopted by the survivor
                assert_matches_local(
                    reports, summary, client, local_reports, local_summary
                )

    def test_worker_kill_mid_stream_resumes_on_survivor(
        self, registry, tmp_path
    ):
        # SIGKILL: no drain, no goodbye; the periodic checkpoints alone
        # carry the session.
        self.resume_after_losing_owner(
            registry, tmp_path, ShardCluster.kill_worker, seed=2
        )

    def test_worker_drain_mid_stream_resumes_on_survivor(
        self, registry, tmp_path
    ):
        # The rolling-restart step: SIGTERM makes the owner checkpoint
        # and suspend the session before it exits.
        def drain(cluster, owner):
            cluster.drain_worker(owner)
            assert cluster.worker_handle(owner).exitcode == 0

        self.resume_after_losing_owner(registry, tmp_path, drain, seed=3)


# -- cluster lifecycle --------------------------------------------------------


class TestClusterWorkers:
    @pytest.mark.parametrize(
        "offered", [[99], [1], [1, 2]], ids=["v99", "v1", "v1-v2"]
    )
    def test_router_refuses_unsupported_versions(self, cluster, offered):
        with socket.create_connection(cluster.address, timeout=10) as sock:
            sock.settimeout(10)
            send_frame(sock, json_frame(
                FrameType.HELLO, {"versions": offered}
            ))
            frame = recv_frame(sock)
        assert frame.type == FrameType.ERROR
        assert parse_json(frame)["code"] == "unsupported_version"

    def test_worker_dying_before_bind_is_typed(self, tmp_path):
        # The worker rebuilds the registry from its root; a root that
        # has become a file kills it before it reports an address.
        root = tmp_path / "registry"
        broken = ModelRegistry(root)
        shutil.rmtree(root)
        root.write_text("not a directory")
        cluster = ShardCluster(
            broken, workers=1, spill_root=str(tmp_path / "spills")
        )
        with pytest.raises(ServeError, match=r"worker 0 exited with code 1"):
            cluster.start()
        assert cluster.worker_addresses == []

    def test_workers_inherit_the_registry_lru_size(
        self, registry, tmp_path
    ):
        tiny_lru = ModelRegistry(registry.root, cache_size=1)
        with ShardCluster(
            tiny_lru, workers=1, config=serve_config(),
            spill_root=str(tmp_path / "spills"),
        ) as single_worker:
            host, port = single_worker.address
            for name in SERVED_PROGRAMS:
                with sharded_client(host, port) as client:
                    client.open(name)
                    assert client.worker_id == 0
                    client.close()
            (worker,) = single_worker.stats()["workers"]
        assert worker["registry"]["lru_misses"] == len(SERVED_PROGRAMS)
        assert worker["registry"]["cached"] == 1


# -- fleet-wide STATS ---------------------------------------------------------


class TestStatsAggregation:
    def test_merge_is_exact_on_synthetic_payloads(self):
        a = {
            "worker": 0, "sessions_open": 1, "max_sessions": 8,
            "sessions_opened": 3, "chunks": 10, "windows": 40,
            "draining": False, "evict_idle": False,
            "checkpoint_interval": 2,
            "registry": {"lru_hits": 3, "lru_misses": 1},
            "metrics": {
                "counters": {"repro.serve.chunks": 10},
                "gauges": {"repro.serve.depth": {"value": 2.0, "set": True}},
                "histograms": {"lat": {
                    "edges": [0.0, 1.0], "bins": [4, 6],
                    "count": 10, "sum": 7.5, "min": 0.1, "max": 1.9,
                }},
            },
        }
        b = {
            "worker": 1, "sessions_open": 2, "max_sessions": 8,
            "sessions_opened": 5, "chunks": 32, "windows": 128,
            "draining": True, "evict_idle": False,
            "checkpoint_interval": 2,
            "registry": {"lru_hits": 1, "lru_misses": 2},
            "metrics": {
                "counters": {"repro.serve.chunks": 32},
                "gauges": {"repro.serve.depth": {"value": 5.0, "set": True}},
                "histograms": {"lat": {
                    "edges": [0.0, 1.0], "bins": [1, 2],
                    "count": 3, "sum": 2.5, "min": 0.05, "max": 0.9,
                }},
            },
        }
        merged = merge_stats_payloads([a, b])
        assert merged["worker_count"] == 2
        assert merged["sessions_open"] == 3
        assert merged["max_sessions"] == 16
        assert merged["sessions_opened"] == 8
        assert merged["chunks"] == 42
        assert merged["windows"] == 168
        assert merged["draining"] is True  # any worker draining
        assert merged["checkpoint_interval"] == 2  # uniform echo
        assert merged["registry"] == {"lru_hits": 4, "lru_misses": 3}
        metrics = merged["metrics"]
        assert metrics["counters"]["repro.serve.chunks"] == 42
        assert metrics["gauges"]["repro.serve.depth"]["value"] == 5.0
        hist = metrics["histograms"]["lat"]
        assert hist["bins"] == [5, 8]
        assert hist["count"] == 13
        assert hist["sum"] == pytest.approx(10.0)
        assert (hist["min"], hist["max"]) == (0.05, 1.9)
        # The per-worker payloads ride along unmodified.
        assert [w["worker"] for w in merged["workers"]] == [0, 1]

    def test_merge_concatenates_session_listings(self):
        """Per-session model specs survive the merge, tagged by worker.

        ``obs stats`` shows which model spec (including ``+cal:``
        derivations) each live session runs; the fleet merge must keep
        every entry and record which worker holds it.
        """
        a = {
            "worker": 0, "sessions_open": 1,
            "sessions": [
                {"session": "s-beta", "model": "sha@1+cal:abcdef123456",
                 "fingerprint": "b" * 12},
            ],
        }
        b = {
            "worker": 1, "sessions_open": 1,
            "sessions": [
                {"session": "s-alpha", "model": "sha@1",
                 "fingerprint": "a" * 12},
            ],
        }
        merged = merge_stats_payloads([a, b])
        assert merged["sessions"] == [
            {"session": "s-alpha", "model": "sha@1",
             "fingerprint": "a" * 12, "worker": 1},
            {"session": "s-beta", "model": "sha@1+cal:abcdef123456",
             "fingerprint": "b" * 12, "worker": 0},
        ]

    def test_merge_of_nothing_is_zeroed(self):
        merged = merge_stats_payloads([])
        assert merged["worker_count"] == 0
        assert merged["chunks"] == 0
        assert merged["draining"] is False

    def test_cluster_stats_sum_worker_counters_exactly(self, cluster):
        detector = detector_for("bitcount")
        trace = detector.source.capture(seed=TINY.monitor_seed(5))
        host, port = cluster.address
        # One session pinned to each worker, so both contribute.
        for worker_id in (0, 1):
            key = key_owned_by(worker_id)
            with sharded_client(host, port, shard_key=key) as client:
                client.open("bitcount", t0=trace.iq.t0)
                assert client.worker_id == worker_id
                for chunk in trace.iq.iter_chunks(4096):
                    client.send(chunk)
                client.drain()
                client.close()
        merged = cluster.stats()
        workers = merged["workers"]
        assert {w["worker"] for w in workers} == {0, 1}
        for key in ("chunks", "windows", "sessions_opened", "samples",
                    "sessions_open", "bytes_in"):
            assert merged[key] == sum(w[key] for w in workers), key
        assert all(w["chunks"] > 0 for w in workers)
        router = merged["router"]
        assert router["workers_configured"] == 2
        assert router["workers_responding"] == 2
        assert router["redirects"] >= 2

    def test_stats_through_client_reaches_the_router(self, cluster):
        host, port = cluster.address
        with sharded_client(host, port) as client:
            merged = client.stats()  # served by the router pre-OPEN
        assert merged["router"]["workers_responding"] == 2
        assert merged["worker_count"] == 2


# -- drain / eviction checkpoint races ----------------------------------------


class TestDrainRaces:
    def record_checkpoints(self, handle):
        """Instrument the server to log every real spill write."""
        server = handle.server
        original = server._checkpoint_session
        recorded = []

        async def recording(state):
            recorded.append((state.session_id, state.last_seq))
            return await original(state)

        server._checkpoint_session = recording
        return recorded

    def test_drain_never_rewrites_a_fresh_checkpoint(self, registry):
        # checkpoint_interval=1: every scored chunk spills. A drain
        # landing right after must notice the session is already durable
        # at last_seq and not write the same checkpoint twice.
        detector = detector_for("bitcount")
        trace = detector.source.capture(seed=TINY.monitor_seed(0))
        with serve_in_thread(
            registry, serve_config(checkpoint_interval=1)
        ) as handle:
            recorded = self.record_checkpoints(handle)
            host, port = handle.address
            client = sharded_client(host, port).connect()
            try:
                client.open("bitcount", t0=trace.iq.t0)
                for chunk in list(trace.iq.iter_chunks(4096))[:6]:
                    client.send(chunk)
                client.drain()
                stats = handle.drain()
                assert stats["sessions_suspended"] == 1
            finally:
                client.disconnect()
        assert recorded, "periodic checkpoints never fired"
        assert len(recorded) == len(set(recorded)), (
            "a (session, seq) checkpoint was written twice"
        )

    def test_drain_mid_kernel_round_is_exactly_once(self, registry):
        # Drain while the batcher still has queued, unscored chunks in
        # flight: the checkpoint rolls forward to the last *scored*
        # chunk, nothing is scored after the spill is written, and the
        # client replays the rest onto a successor bit-identically.
        detector = detector_for("bitcount")
        trace = detector.source.capture(seed=TINY.monitor_seed(1))
        local_reports, local_summary = local_reference(
            detector.model, trace, 4096
        )
        first = serve_in_thread(registry, serve_config())
        recorded = self.record_checkpoints(first)
        host, port = first.address
        client = sharded_client(host, port).connect()
        try:
            client.open("bitcount", t0=trace.iq.t0)
            reports = []
            for chunk in trace.iq.iter_chunks(4096):
                reports.extend(client.send(chunk))
            # No client drain: the server-side queue is still busy when
            # the drain hits, mid kernel round.
            stats = first.drain()
            assert stats["sessions_suspended"] == 1
            first.stop()
            assert len(recorded) == len(set(recorded))
            with serve_in_thread(
                registry, serve_config(port=port)
            ) as second:
                reports.extend(client.drain())
                summary = client.close()
                assert client.reconnects >= 1
                assert second.stats.sessions_resumed == 1
                assert_matches_local(
                    reports, summary, client, local_reports, local_summary
                )
        finally:
            client.disconnect()
            first.stop()

    def test_checkpoint_of_evicted_session_leaves_no_spill(self, registry):
        # The eviction race: _on_evict drops the spill while a
        # checkpoint's pool-thread write is in flight; the write lands
        # afterwards and must be undone, not resurrect the session.
        import asyncio

        detector = detector_for("bitcount")
        trace = detector.source.capture(seed=TINY.monitor_seed(0))
        with serve_in_thread(registry, serve_config()) as handle:
            host, port = handle.address
            client = sharded_client(host, port).connect()
            try:
                client.open("bitcount", t0=trace.iq.t0)
                client.send(next(trace.iq.iter_chunks(4096)))
                client.drain()
                server = handle.server
                state = server._states[client.session_id]

                async def evicted_mid_checkpoint():
                    state.evicted = True
                    return await server._checkpoint_session(state)

                durable = asyncio.run_coroutine_threadsafe(
                    evicted_mid_checkpoint(), handle._loop
                ).result(timeout=10)
                assert durable is False
                assert not server._spill_path(client.session_id).exists()
            finally:
                client.disconnect()
