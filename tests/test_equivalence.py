"""One equivalence suite: every execution path against one oracle.

EDDIE's verdict is Algorithm 1 (paper §4), and the repo computes it along
several execution paths. Their bit-identity is the spec (DESIGN.md D28):
batch = stream = fleet = served, sharded = single-worker, and resume =
uninterrupted. This module checks all of it from one place. Each case --
a MiBench capture under one model configuration -- runs through every
path, and each outcome is compared with one :class:`oracle.ScalarMonitor`
run per (capture, configuration).

Paths (one test function each):

- ``test_batch``: ``Monitor.run_signal``;
- ``test_stream_fixed_chunkings``: ``StreamingMonitor`` at sub-window
  primes, the hop, window ± 1, a larger prime and the whole signal;
- ``test_stream_random_chunking``: ``StreamingMonitor.run`` over random
  chunk sizes;
- ``test_fleet``: ``FleetScheduler.feed_many`` with the case at three
  chunkings, its model on a second capture, and a session of another
  model, all in one fleet;
- ``test_resume``: a snapshot at a random cut, through
  ``snapshot_to_bytes``, restored into a fresh stream;
- ``test_served``: a loopback served session, one chunk in flight;
- ``test_sharded``: a session through a 2-worker ``ShardCluster``.

Configurations (the prefix of each case id, see :data:`CASES`): ``plain``
(all ten programs), ``injected`` (a loop injection; gsm's and susan's go
through their peak-less regions), ``gated`` (quality gating on a capture
with drops, saturation and a NaN span; its second, clean capture runs in
the fleet, and on gsm its regions' log-energies lie far apart),
``frontend`` (a FIR + SVD
front-end chain), ``cal`` (a ``+cal:`` derivation on a drifted device
variant) and ``power`` (the simulator's real-valued power trace, with a
forced group size of 48).

References. A path's result must equal the oracle's on every window.
Gated streams are the exception: the quality gate's rail is a running
maximum, so its clipping flag depends on the chunking. There the oracle
scores the flags the path itself computed, and every other flag (gap,
dead, non-finite, energy outlier) must equal batch's;
``test_gate_random_chunkings`` checks those bits, and the window
energies, over random chunkings of a faulted capture.
Served and sharded sessions expose only a summary: its wire observables
(reports, window count, status) must equal the oracle's, and the rest of
it a local stream's over the same chunks.
"""

import dataclasses
import functools
import zlib
from typing import Optional, Tuple

import numpy as np
import pytest
from conftest import shared_calibration, shared_tiny_detector, tiny_scale
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import ScalarMonitor, assert_results_equal
from repro.core.model import EddieModel
from repro.core.monitor import Monitor, MonitorResult
from repro.core.peaks import peak_matrix
from repro.core.stft import (
    QF_DEAD,
    QF_ENERGY_OUTLIER,
    QF_GAPPED,
    QF_NONFINITE,
    StreamingQuality,
    stft,
)
from repro.dsp import apply_frontend
from repro.em.faults import (
    FaultInjector,
    NonFiniteFault,
    SampleDropFault,
    SaturationFault,
)
from repro.experiments.runner import build_detector
from repro.programs.mibench import BENCHMARKS, INJECTION_LOOPS
from repro.programs.workloads import injection_mix
from repro.serialize import snapshot_from_bytes, snapshot_to_bytes
from repro.serve.client import replay
from repro.stream import FleetScheduler, StreamingMonitor
from repro.types import Signal

pytestmark = pytest.mark.equivalence

TINY = tiny_scale()

CASES = (
    [f"plain-{name}" for name in sorted(BENCHMARKS)]
    + ["injected-bitcount", "injected-gsm", "injected-susan"]
    + ["gated-bitcount", "gated-gsm"]
    + ["frontend-bitcount", "cal-sha", "power-bitcount"]
)

#: Sub-window primes, the hop, window ± 1, a prime past the 4096
#: default, and the whole signal (the window is 512 samples). The other
#: paths add 997, 1021, 2048 and 4096.
CHUNKINGS = (97, 256, 509, 511, 513, 4099, 10**9)

#: Injected loops: bitcount's default; gsm's and susan's are the ones
#: whose injections run through the peak-less ``loop:lpc`` /
#: ``loop:edges`` regions (counting-only plans, DESIGN.md D25).
_INJECTED_LOOPS = {"gsm": "stf", "susan": "corners"}

#: Regions a case must visit, or it does not test what it is for.
_MUST_TRACK = {
    "plain-gsm": "loop:lpc",
    "plain-susan": "loop:edges",
    "injected-gsm": "loop:lpc",
    "injected-susan": "loop:edges",
}

#: Quality flags that streaming computes bit-identically to batch: all
#: but the clipped bit, the one causal flag (its rail is the running
#: maximum of the samples seen so far).
_EXACT_FLAGS = QF_GAPPED | QF_DEAD | QF_NONFINITE | QF_ENERGY_OUTLIER


@dataclasses.dataclass(frozen=True)
class Case:
    """One model configuration and its two captures (the second runs
    alongside the first in the fleet path)."""

    id: str
    model: EddieModel
    signals: Tuple[Signal, Signal]

    @property
    def signal(self) -> Signal:
        return self.signals[0]

    @property
    def gated(self) -> bool:
        return self.model.config.quality_gating


def _injected_capture(detector, loop, seed):
    simulator = detector.source.simulator
    simulator.set_loop_injection(loop, injection_mix(4, 4), 1.0)
    try:
        return detector.source.capture(seed=seed).iq
    finally:
        simulator.clear_injections()


@functools.lru_cache(maxsize=None)
def case_for(case_id: str) -> Case:
    config, program = case_id.split("-", 1)
    if config == "power":
        detector = build_detector(BENCHMARKS[program](), TINY, source="power")
        signals = tuple(
            detector.source.run(seed=TINY.monitor_seed(k)).power
            for k in (0, 1)
        )
        return Case(case_id, detector.model.with_group_size(48), signals)
    detector = shared_tiny_detector(program, frontend=config == "frontend")
    model = detector.model

    def capture(k):
        return detector.source.capture(seed=TINY.monitor_seed(k)).iq

    if config == "injected":
        loop = _INJECTED_LOOPS.get(program, INJECTION_LOOPS[program])
        signals = (
            _injected_capture(detector, loop, TINY.injected_seed(0)),
            capture(0),
        )
    elif config == "gated":
        model = model.with_quality_gating(True)
        clean = capture(0)
        d = clean.duration
        faults = FaultInjector(faults=(
            SampleDropFault(rate_per_s=400.0),
            SaturationFault(rate_per_s=400.0),
            NonFiniteFault(schedule=((0.3 * d, 0.45 * d),)),
        ), seed=7)
        signals = (faults.inject(clean)[0], clean)
    elif config == "cal":
        _, scenario, _, calibrated = shared_calibration()
        model = calibrated.model
        signals = tuple(
            scenario.capture(seed=TINY.monitor_seed(k)).iq for k in (3, 4)
        )
    else:
        signals = (capture(0), capture(1))
    return Case(case_id, model, signals)


@functools.lru_cache(maxsize=None)
def oracle_result(case_id: str, index: int = 0) -> MonitorResult:
    """The oracle's batch result for one of a case's captures."""
    case = case_for(case_id)
    return ScalarMonitor(case.model).run_signal(case.signals[index])


def expected(
    case: Case, quality: Optional[np.ndarray], index: int = 0
) -> MonitorResult:
    """The reference for a path that computed ``quality`` on capture
    ``index``: the oracle, scoring those flags when the case is gated."""
    batch = oracle_result(case.id, index)
    if not case.gated:
        return batch
    np.testing.assert_array_equal(
        quality & _EXACT_FLAGS, batch.quality & _EXACT_FLAGS
    )
    signal = case.signals[index]
    cfg = case.model.config
    if cfg.frontend:
        signal = apply_frontend(cfg.frontend, signal)
    spectra = stft(signal, cfg.window_samples, cfg.overlap)
    peaks = peak_matrix(
        spectra, cfg.energy_fraction, cfg.max_peaks, cfg.peak_prominence,
        cfg.diffuse_features,
    )
    return ScalarMonitor(case.model).run_peaks(peaks, spectra.times, quality)


def assert_summary(summary, reference: MonitorResult, local=None) -> None:
    """A summary's wire observables equal the reference's; with
    ``local``, the rest of it equals that local stream's summary."""
    assert summary.reports == reference.reports
    assert summary.windows == len(reference.times)
    assert summary.status == reference.status
    if local is not None:
        assert summary == dataclasses.replace(
            local, session_id=summary.session_id
        )


def local_stream(case: Case, chunks, index: int = 0):
    """One stream fed ``chunks`` alone: ``(result, summary)``."""
    monitor = StreamingMonitor(
        case.model, keep_history=True, t0=case.signals[index].t0
    )
    for chunk in chunks:
        monitor.feed(chunk)
    summary = monitor.finish()
    return monitor.result(), summary


def case_rng(case_id: str, path: str) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(f"{case_id}/{path}".encode()))


@pytest.mark.parametrize("case_id", CASES)
def test_batch(case_id):
    case = case_for(case_id)
    reference = oracle_result(case_id)
    assert_results_equal(Monitor(case.model).run_signal(case.signal), reference)
    # Guards: each case exercises what it is in the matrix for.
    assert len(reference.times) > 0
    if case_id in _MUST_TRACK:
        assert _MUST_TRACK[case_id] in reference.tracked
    if case_id.startswith("injected"):
        assert reference.reports, "the injection must be detected"
    if case.gated:
        assert reference.unscorable_flags.any(), "the faults must fire"


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(1, 6000), min_size=1, max_size=40))
def test_gate_random_chunkings(sizes):
    """Any chunking of a faulted capture gives the window energies and
    every exact flag bit of the gate fed the capture as one chunk."""
    case = case_for("gated-bitcount")
    samples = case.signal.samples
    cuts = np.cumsum(sizes)
    chunks = np.split(samples, cuts[cuts < len(samples)])

    def gate():
        return StreamingQuality.from_config(
            case.model.config, case.model.energy_reference
        )

    flags, energy = gate().measure(samples)
    assert np.any(flags & QF_ENERGY_OUTLIER) and np.any(flags & QF_GAPPED)
    streaming = gate()
    parts = [streaming.measure(chunk) for chunk in chunks]
    streamed = np.concatenate([f for f, _ in parts])
    np.testing.assert_array_equal(
        streamed & _EXACT_FLAGS, flags & _EXACT_FLAGS
    )
    assert np.concatenate([e for _, e in parts]).tobytes() == energy.tobytes()


@pytest.mark.parametrize("case_id", CASES)
def test_stream_fixed_chunkings(case_id):
    case = case_for(case_id)
    signal = case.signal
    for chunk in CHUNKINGS:
        result, summary = local_stream(case, signal.iter_chunks(chunk))
        reference = expected(case, result.quality)
        assert_results_equal(result, reference)
        assert_summary(summary, reference)
        assert summary.chunks == -(-len(signal.samples) // chunk)
        assert summary.samples == len(signal.samples)


@pytest.mark.parametrize("case_id", CASES)
def test_stream_random_chunking(case_id):
    case = case_for(case_id)
    samples = case.signal.samples
    rng = case_rng(case_id, "stream")
    cuts = np.cumsum(rng.integers(1, 8192, size=len(samples) // 2048 + 2))
    chunks = np.split(samples, cuts[cuts < len(samples)])
    monitor = StreamingMonitor(case.model, t0=case.signal.t0)
    result = monitor.run(chunks)
    reference = expected(case, result.quality)
    assert_results_equal(result, reference)
    assert_summary(monitor.finish(), reference)


@pytest.mark.parametrize("case_id", CASES)
def test_fleet(case_id):
    case = case_for(case_id)
    neighbour = case_for(
        "plain-sha" if case_id == "plain-bitcount" else "plain-bitcount"
    )
    # (session, case, capture index, chunking): the case's capture at
    # three chunkings, its model on its second capture, and another
    # model's session -- one fleet, pooled wherever they are isomorphic.
    sessions = [
        ("a", case, 0, 997),
        ("b", case, 0, 2048),
        ("c", case, 0, 4099),
        ("d", case, 1, 1021),
        ("e", neighbour, 0, 4096),
    ]
    fleet = FleetScheduler(max_sessions=len(sessions), keep_history=True)
    rounds = {}
    for sid, member, index, chunk in sessions:
        fleet.add_session(sid, member.model, t0=member.signals[index].t0)
        rounds[sid] = list(member.signals[index].iter_chunks(chunk))
    for r in range(max(len(chunks) for chunks in rounds.values())):
        fleet.feed_many([
            (sid, chunks[r]) for sid, chunks in rounds.items()
            if r < len(chunks)
        ])
    for sid, member, index, _ in sessions:
        monitor = fleet.session(sid).monitor
        summary = monitor.finish()
        result = monitor.result()
        reference = expected(member, result.quality, index)
        assert_results_equal(result, reference)
        assert_summary(summary, reference)


@pytest.mark.parametrize("case_id", CASES)
def test_resume(case_id):
    case = case_for(case_id)
    rng = case_rng(case_id, "resume")
    chunks = list(case.signal.iter_chunks(int(rng.choice((511, 997, 2048)))))
    cut = int(rng.integers(1, len(chunks)))
    interrupted = StreamingMonitor(case.model, t0=case.signal.t0)
    before = [r for chunk in chunks[:cut] for r in interrupted.feed(chunk)]
    blob = snapshot_to_bytes(interrupted.snapshot())
    resumed = StreamingMonitor.restore(case.model, snapshot_from_bytes(blob))
    after = resumed.run(chunks[cut:])
    result = MonitorResult.concat(
        before + [after],
        max_unscorable_fraction=case.model.config.max_unscorable_fraction,
    )
    reference = expected(case, result.quality)
    assert_results_equal(result, reference)
    _, straight = local_stream(case, chunks)
    assert_summary(resumed.finish(), reference, straight)


_PUBLISHED = {}


def served_spec(registry, case: Case) -> str:
    """The registry spec the case's model is served under."""
    if case.id not in _PUBLISHED:
        if case.model.calibration is not None:
            base = registry.publish(
                shared_tiny_detector(case.model.program_name).model, case.id
            )
            entry = registry.publish_derived(case.model, base)
        else:
            entry = registry.publish(case.model, case.id)
        _PUBLISHED[case.id] = entry.spec
    return _PUBLISHED[case.id]


def check_remote(case: Case, address, spec, chunk, window) -> None:
    reports, summary = replay(
        *address, spec, case.signal, chunk_samples=chunk, window=window
    )
    result, local = local_stream(case, case.signal.iter_chunks(chunk))
    reference = expected(case, result.quality)
    assert reports == reference.reports
    assert_summary(summary, reference, local)


@pytest.mark.parametrize("case_id", CASES)
def test_served(case_id, registry, server):
    case = case_for(case_id)
    check_remote(
        case, server.address, served_spec(registry, case), chunk=997,
        window=1,
    )


@pytest.mark.parametrize("case_id", CASES)
def test_sharded(case_id, registry, cluster):
    case = case_for(case_id)
    check_remote(
        case, cluster.address, served_spec(registry, case), chunk=4096,
        window=8,
    )
