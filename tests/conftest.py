"""Shared pytest configuration.

``--update-golden`` regenerates the frozen run manifests under
``tests/golden/`` instead of comparing against them (see
``tests/test_golden_manifests.py`` for when that is legitimate).

The rest is shared by the equivalence suite (``tests/test_equivalence.py``)
and the serving, streaming and transfer suites, so each costly object
exists once per test session instead of once per module:

- :func:`shared_tiny_detector`, one TINY-scale trained detector per
  MiBench program (and per front-end choice);
- :func:`shared_calibration`, the sha model calibrated to one drifted
  device variant;
- the ``registry``, ``server`` and ``cluster`` fixtures: a model registry
  holding the served programs, a loopback server and a 2-worker shard
  cluster over it;
- the local references streamed and served runs are compared with:
  :func:`stream_in_chunks`, :func:`local_reference` and
  :func:`assert_matches_local`.
"""

import dataclasses

import pytest

_TINY_DETECTORS = {}
_CALIBRATION = []

#: The programs the shared registry publishes.
SERVED_PROGRAMS = ("bitcount", "sha", "dijkstra")


def tiny_scale():
    """The shared TINY training scale of the test suites."""
    from repro.experiments.runner import Scale

    return Scale(
        train_runs=2, clean_runs=1, injected_runs=1, group_sizes=(8, 16)
    )


def frontend_chain():
    """The preprocessing chain of the front-end detectors: a band gate
    feeding the SVD subspace projection (the bench_denoise "denoised"
    tier, with a smaller Hankel window to keep the tiny-scale suites
    fast)."""
    from repro.dsp import FirGateStage, SvdDenoiser

    return (
        FirGateStage(cutoff=0.5),
        SvdDenoiser(block_samples=2048, hankel_window=32, rank=8),
    )


def shared_tiny_detector(name, frontend=False):
    """One TINY-scale trained detector per program (trained with the
    :func:`frontend_chain` when ``frontend``) per test session."""
    key = (name, frontend)
    if key not in _TINY_DETECTORS:
        from repro.core.model import EddieConfig
        from repro.experiments.runner import build_detector
        from repro.programs.mibench import BENCHMARKS

        config = EddieConfig(frontend=frontend_chain()) if frontend else None
        _TINY_DETECTORS[key] = build_detector(
            BENCHMARKS[name](), tiny_scale(), source="em", config=config
        )
    return _TINY_DETECTORS[key]


def shared_calibration():
    """``(variant, scenario, capture, calibrated)``: the sha model
    calibrated from one short unlabeled capture (``capture``) of a
    drifted device variant, whose scenario is ``scenario``."""
    if not _CALIBRATION:
        from repro.transfer import DeviceVariant, calibrate_model

        variant = DeviceVariant(name="bench", clock_scale=1.02, l1_kib=16)
        scenario = variant.apply(shared_tiny_detector("sha").source)
        capture = scenario.capture(seed=9100)
        calibrated = calibrate_model(
            shared_tiny_detector("sha").model, capture,
            variant=variant.describe(),
        )
        _CALIBRATION.extend((variant, scenario, capture, calibrated))
    return tuple(_CALIBRATION)


def stream_in_chunks(model, samples, chunk_samples):
    """A finished ``keep_history`` stream fed ``samples`` alone, in
    ``chunk_samples``-sample slices."""
    from repro.stream import StreamingMonitor

    monitor = StreamingMonitor(model, keep_history=True)
    for start in range(0, len(samples), chunk_samples):
        monitor.feed(samples[start : start + chunk_samples])
    monitor.finish()
    return monitor


def local_reference(model, trace, chunk_samples):
    """``(reports, summary)`` of a local stream over the chunking a
    served replay of ``trace`` uses."""
    from repro.stream import StreamingMonitor

    monitor = StreamingMonitor(model, t0=trace.iq.t0)
    reports = []
    for chunk in trace.iq.iter_chunks(chunk_samples):
        for result in monitor.feed(chunk):
            reports.extend(result.reports)
    return reports, monitor.finish()


def assert_matches_local(reports, summary, client, local_reports,
                         local_summary):
    """Exactly-once, end to end: nothing lost, nothing double-scored."""
    assert reports == local_reports
    assert summary == dataclasses.replace(
        local_summary, session_id=summary.session_id
    )
    assert client.windows_seen == local_summary.windows


def serve_config(**overrides):
    """The server config of the shared server and cluster workers."""
    from repro.serve import ServerConfig

    base = dict(max_sessions=8, worker_threads=2, checkpoint_interval=2)
    base.update(overrides)
    return ServerConfig(**base)


@pytest.fixture(scope="session")
def registry(tmp_path_factory):
    """A registry with one published model per served program."""
    from repro.serve import ModelRegistry

    reg = ModelRegistry(tmp_path_factory.mktemp("registry"))
    for name in SERVED_PROGRAMS:
        reg.publish(shared_tiny_detector(name).model)
    return reg


@pytest.fixture(scope="session")
def server(registry):
    """A loopback server shared by the non-destructive serving tests."""
    from repro.serve import serve_in_thread

    with serve_in_thread(registry, serve_config()) as handle:
        yield handle


@pytest.fixture(scope="session")
def cluster(registry, tmp_path_factory):
    """Two worker processes behind a router, shared by the
    non-destructive tests (the kill and drain tests build their own)."""
    from repro.serve import ShardCluster

    with ShardCluster(
        registry,
        workers=2,
        config=serve_config(),
        spill_root=str(tmp_path_factory.mktemp("spills")),
    ) as shared:
        yield shared


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate tests/golden/*.json from the current pipeline "
             "instead of asserting against the frozen manifests",
    )
