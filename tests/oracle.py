"""Reference oracles the fast paths are checked against.

- :class:`ScalarMonitor`, the scalar reference monitor. Production
  monitoring has one execution path (DESIGN.md D24, D32): a chunk -- a
  whole batch signal, a stream chunk, or one fleet session's round --
  is planned by :func:`repro.core.monitor.plan_chunks_pooled`, its
  verdict table walked in bulk, and only what no table decides stepped
  through :meth:`Monitor.step`; even a testable window stepped on its
  own is a one-window plan. :class:`ScalarMonitor` is Algorithm 1
  without any of that: one :meth:`step` per window, and in a testable
  region one two-sample test per tested dimension and candidate probe
  on chronological history reads. Both share :meth:`Monitor._decide`,
  the counter machine the goldens pin, and the branches no table
  decides (unscorable windows, gaps and resyncs, peak-less regions).
  Every bit-identity suite compares the fast path against it
  (directly, or through isolated streams that the oracle suite pins).
- :func:`stft_power`, the Short-Term Spectra of a signal computed one
  temporary per step (detrend, taper, FFT, magnitude, square, fold).
  The production transform (:mod:`repro.core.stft`, DESIGN.md D34)
  gathers every frame into one array and overwrites it step by step;
  ``tests/test_streaming.py`` checks that both give the same bytes on
  narrow and wide dtypes.
- :func:`schedule_path` and :func:`waveform`, the simulator's compile
  kernels as a per-instruction loop over numpy arrays and a
  per-instruction slice loop. The production kernels
  (:mod:`repro.arch.pipeline`, :mod:`repro.arch.power`) run on Python
  ints and one ``np.add.at``; ``tests/test_sim_kernels.py`` checks that
  both give the same schedules and the same waveform bytes.
- :func:`render_leaf`, a leaf loop's iterations rendered by
  materializing each chunk's per-cycle power (a stall-filled array, the
  waveforms scattered into it, the refill energies added) and binning
  it in one call. The production renderer
  (:meth:`repro.arch.engine.CompositionEngine._render_leaf`, DESIGN.md
  D35) makes the same random draws and builds and bins the cycles in
  blocks from a lookup table; ``tests/test_engine.py`` checks that both
  give the same sample bytes.
- :class:`ReferenceInterpreter`, the slow simulator the fast
  composition engine (:mod:`repro.arch.engine`) is validated against,
  with the functional :class:`CacheHierarchy` (exact LRU over explicit
  addresses) and :class:`TwoBitPredictor` it drives. The engine samples
  the analytic :func:`~repro.arch.cache.stream_miss_profile` and
  :func:`~repro.arch.branch.two_bit_mispredict_rate` instead;
  ``tests/test_reference_validation.py``, ``tests/test_arch_cache.py``
  and ``tests/test_branch.py`` check both against these.
"""

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.arch import engine as arch_engine
from repro.arch import pipeline
from repro.arch.config import CacheConfig, CoreConfig, MemoryConfig
from repro.arch.isa import UNIT_OF, Unit, base_latency
from repro.arch.pipeline import _OOO_JITTER_RATE, PathSchedule, unit_pipes
from repro.arch.power import PowerModel
from repro.core.model import RegionProfile
from repro.core.monitor import AnomalyReport, Monitor, MonitorResult
from repro.core.stats import two_sample_reject
from repro.errors import ConfigurationError, SimulationError
from repro.programs.ir import (
    Branch,
    Halt,
    Instr,
    Jump,
    LoopBack,
    MemRef,
    OpClass,
    Program,
)
from repro.types import RegionInterval, RegionTimeline, Signal


class ScalarMonitor(Monitor):
    """Algorithm 1 one window at a time, with no fast path.

    - a window in a testable region is decided here
      (:meth:`_step_testable`), not by a one-window plan: the monitored
      set of a dimension is the chronological :meth:`_recent` slice, and
      each tested dimension and candidate probe is scored by its own
      :func:`two_sample_reject` call, not the pooled kernels;
    - :meth:`run_peaks` calls :meth:`step` once per window; nothing is
      planned or committed, and no step reads a plan's verdict table.
    """

    def _step_testable(self, row: np.ndarray, time: float):
        self._push_rows(row)
        profile = self.model.profile(self.current_region)
        candidates = self.model.candidate_regions(self.current_region)
        n = profile.group_size
        mons = {dim: self._recent(n, dim) for dim in profile.test_dims}
        rejected_dims = self._score_dims(profile, mons)
        explanations = [
            [
                name for name in candidates
                if self._candidate_accepts(self.model.profile(name), dim, n)
            ]
            for dim in profile.test_dims
            if rejected_dims[dim]
        ]
        missing = (
            profile.num_peaks > 0 and mons[0] is None and self._filled >= n
        )
        report, rejected, target = self._decide(time, missing, explanations)
        if target is not None:
            self._transition_to(target)
        return report, rejected

    def _score_dims(
        self,
        profile: RegionProfile,
        mons: Dict[int, Optional[np.ndarray]],
    ) -> Dict[int, bool]:
        rejected: Dict[int, bool] = {}
        for dim, mon in mons.items():
            ref = profile.reference_dim(dim)
            rejected[dim] = bool(
                mon is not None
                and len(ref) > 0
                and two_sample_reject(
                    ref, mon, self._cfg.alpha, self._cfg.statistic
                )
            )
        return rejected

    def _candidate_accepts(
        self, cand: RegionProfile, dim: int, n: int
    ) -> bool:
        """Whether a successor region's reference explains recent STSs of
        one dim that the current region (group size ``n``) rejected: its
        group bounded by ``n``, or the fresh suffix of the most recent
        ``min_mon_values`` STSs, accepts."""
        if not cand.testable() or dim not in cand.test_dims:
            return False
        mon = self._recent(min(cand.group_size, n), dim)
        if mon is not None and not self._rejects(cand, dim, mon):
            return True
        suffix = self._recent(max(2, self._cfg.min_mon_values), dim)
        return suffix is not None and not self._rejects(cand, dim, suffix)

    def run_peaks(
        self,
        peaks: np.ndarray,
        times: np.ndarray,
        quality: Optional[np.ndarray] = None,
    ) -> MonitorResult:
        n = len(times)
        tracked: List[str] = []
        reports: List[AnomalyReport] = []
        report_indices: List[int] = []
        rejection_flags = np.zeros(n, dtype=bool)
        unscorable_flags = np.zeros(n, dtype=bool)
        group_sizes = np.zeros(n, dtype=int)
        for i in range(n):
            q = int(quality[i]) if quality is not None else 0
            report, rejected = self.step(peaks[i], float(times[i]), quality=q)
            tracked.append(self.current_region)
            rejection_flags[i] = rejected
            unscorable_flags[i] = self.last_unscorable
            group_sizes[i] = self.model.profile(self.current_region).group_size
            if report is not None:
                reports.append(report)
                report_indices.append(i)
        status = "ok"
        if n and unscorable_flags.mean() >= self._cfg.max_unscorable_fraction:
            status = "degraded"
        return MonitorResult(
            times=np.asarray(times, dtype=float),
            tracked=tracked,
            reports=reports,
            rejection_flags=rejection_flags,
            group_sizes=group_sizes,
            unscorable_flags=unscorable_flags,
            quality=quality,
            report_indices=report_indices,
            status=status,
        )


def assert_results_equal(a: MonitorResult, b: MonitorResult) -> None:
    """Every observable of two monitoring results is bit-identical."""
    np.testing.assert_array_equal(a.times, b.times)
    assert a.tracked == b.tracked
    np.testing.assert_array_equal(a.rejection_flags, b.rejection_flags)
    np.testing.assert_array_equal(a.group_sizes, b.group_sizes)
    np.testing.assert_array_equal(a.unscorable_flags, b.unscorable_flags)
    assert a.reports == b.reports
    assert a.report_indices == b.report_indices
    assert a.status == b.status


def stft_power(samples: np.ndarray, window_samples: int) -> np.ndarray:
    """Hann-tapered, detrended, 50%-overlap power spectra of ``samples``:
    one-sided for real input, folded one-sided for complex input."""
    w = window_samples
    hop = int(round(w * 0.5))
    starts = np.arange(1 + (len(samples) - w) // hop) * hop
    frames = np.stack([samples[s:s + w] for s in starts])
    frames = frames - frames.mean(axis=1, keepdims=True)
    frames = frames * np.hanning(w)
    if not np.iscomplexobj(samples):
        return np.abs(np.fft.rfft(frames, axis=1)) ** 2
    power = np.abs(np.fft.fft(frames, axis=1)) ** 2
    # Bin k pairs with bin w - k; an even window's Nyquist bin has none.
    pairs = (w - 1) // 2
    folded = power[:, : w // 2 + 1].copy()
    folded[:, 1:pairs + 1] = (
        power[:, 1:pairs + 1] + power[:, w - 1: w - 1 - pairs: -1]
    )
    return folded


def render_leaf(engine, iter_paths, n_iters, rng, builder, injection):
    """Render a child-free loop's iterations the materializing way.

    The same draws, in the same order and sizes, as
    :meth:`CompositionEngine._render_leaf`; each ``_CHUNK_ITERS`` chunk
    is laid out as one per-cycle power array before it reaches the
    builder. Returns (instructions, injected instructions).
    """
    variants, family_probs, n_clean_variants = engine._iteration_variants(
        iter_paths, injection
    )
    k_variants = arch_engine._OOO_VARIANTS if engine.core.is_ooo else 1
    n_families = len(family_probs)
    family_probs = np.array(family_probs)
    family_probs = family_probs / family_probs.sum()
    base_len = np.array([v.cycles for v in variants])
    instr_counts = np.array([v.instr_count for v in variants])

    total_instrs = 0
    injected_instrs = 0
    injected_len = len(injection[0]) if injection else 0
    current_variant = int(rng.integers(k_variants))
    remaining = n_iters
    while remaining > 0:
        chunk = min(remaining, arch_engine._CHUNK_ITERS)
        remaining -= chunk
        family_idx = rng.choice(n_families, size=chunk, p=family_probs)
        if k_variants > 1:
            schedule_idx, current_variant = arch_engine._sticky_stream(
                chunk, k_variants, current_variant,
                1.0 / arch_engine._OOO_VARIANT_DWELL, rng,
            )
        else:
            schedule_idx = np.zeros(chunk, dtype=np.int64)
        idx = family_idx * k_variants + schedule_idx
        extra = np.zeros(chunk, dtype=np.int64)
        energy = np.zeros(chunk)
        for v, variant in enumerate(variants):
            mask = idx == v
            count = int(mask.sum())
            if not count:
                continue
            e, en = engine._sample_extras(variant, count, rng)
            extra[mask] = e
            energy[mask] = en
        lengths = base_len[idx] + extra
        offsets = np.zeros(chunk, dtype=np.int64)
        np.cumsum(lengths[:-1], out=offsets[1:])
        power = np.full(int(lengths.sum()), engine.power.stall_power)
        for v, variant in enumerate(variants):
            starts = offsets[idx == v]
            if not len(starts):
                continue
            positions = (starts[:, None] + np.arange(variant.cycles)).ravel()
            power[positions] = np.tile(variant.waveform, len(starts))
        gap_mask = extra > 0
        if gap_mask.any():
            gap_starts = (offsets + base_len[idx])[gap_mask]
            np.add.at(power, gap_starts, energy[gap_mask])
        builder.add_cycles(power)
        total_instrs += int(instr_counts[idx].sum())
        if injection is not None:
            n_injected_iters = int((idx >= n_clean_variants).sum())
            injected_instrs += n_injected_iters * injected_len
    return total_instrs, injected_instrs


class _UnitTracker:
    """Per-pipe availability of the functional units."""

    def __init__(self, core: CoreConfig) -> None:
        self._free: Dict[Unit, List[int]] = {
            unit: [0] * pipes for unit, pipes in unit_pipes(core).items()
        }

    def earliest(self, unit: Unit, not_before: int) -> int:
        return max(not_before, min(self._free[unit]))

    def occupy(self, unit: Unit, cycle: int, latency: int) -> None:
        pipes = self._free[unit]
        idx = min(range(len(pipes)), key=lambda i: pipes[i])
        if unit is Unit.DIV:
            pipes[idx] = cycle + latency  # unpipelined
        else:
            pipes[idx] = cycle + 1


def schedule_path(
    instrs: Sequence[Instr],
    core: CoreConfig,
    rng: Optional[np.random.Generator] = None,
    expected_cycles: Optional[int] = None,
) -> PathSchedule:
    """:func:`repro.arch.pipeline.schedule_path`, one numpy element at a
    time."""
    n = len(instrs)
    if n == 0:
        return PathSchedule((), np.array([], int), np.array([], int), np.array([], int), 0)

    l1_latency = core.mem.l1.hit_latency
    fetch = np.zeros(n, dtype=int)
    issue = np.zeros(n, dtype=int)
    complete = np.zeros(n, dtype=int)

    units = _UnitTracker(core)
    issued_in_cycle: Dict[int, int] = {}
    reg_ready: Dict[str, int] = {}

    jitter = rng if (rng is not None and core.is_ooo) else None
    delayed: Dict[int, int] = {}
    if jitter is not None:
        estimated_cycles = expected_cycles or max(1, n // core.issue_width)
        n_events = min(n, int(jitter.poisson(_OOO_JITTER_RATE * estimated_cycles)))
        max_delay = 1 + core.pipeline_depth // 10
        for index in jitter.choice(n, size=n_events, replace=False):
            delayed[int(index)] = int(jitter.integers(1, max_delay + 1))

    prev_issue = 0
    for i, instr in enumerate(instrs):
        latency = base_latency(instr, l1_latency)
        unit = UNIT_OF[instr.op]

        operand_ready = 0
        for src in instr.srcs:
            operand_ready = max(operand_ready, reg_ready.get(src, 0))

        if core.is_ooo:
            fetch[i] = i // core.issue_width
            earliest = max(fetch[i] + 1, operand_ready)
            if i >= core.rob_size:
                earliest = max(earliest, int(complete[i - core.rob_size]))
            if i in delayed:
                earliest += delayed[i]
        else:
            earliest = max(prev_issue, operand_ready)
            fetch[i] = max(0, earliest - 1)

        t = units.earliest(unit, earliest)
        while issued_in_cycle.get(t, 0) >= core.issue_width:
            t += 1
        issued_in_cycle[t] = issued_in_cycle.get(t, 0) + 1
        units.occupy(unit, t, latency)

        issue[i] = t
        complete[i] = t + latency
        if instr.dst is not None:
            reg_ready[instr.dst] = int(complete[i])
        prev_issue = t

    cycles = int(complete.max())
    if cycles <= 0:
        raise SimulationError("schedule produced a zero-length path")
    return PathSchedule(tuple(instrs), fetch, issue, complete, cycles)


def waveform(model: PowerModel, schedule: PathSchedule) -> np.ndarray:
    """:meth:`repro.arch.power.PowerModel.waveform`, one slice per
    instruction."""
    params = model.params
    n_cycles = schedule.cycles
    power = np.full(n_cycles, params.static_per_cycle)
    if not schedule.instrs:
        return power

    per_instr_front = params.frontend_per_instr
    if model.core.is_ooo:
        per_instr_front += params.ooo_window_per_instr

    fetch = np.minimum(schedule.fetch, n_cycles - 1)
    np.add.at(power, fetch, per_instr_front)

    for i, instr in enumerate(schedule.instrs):
        start = schedule.issue[i]
        end = schedule.complete[i]
        total = params.op_energy[instr.op]
        if instr.op.is_memory:
            total += params.l1_access
        span = max(1, end - start)
        power[start:min(end, n_cycles)] += total / span
    return power


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one hierarchy access."""

    level: str  # 'l1', 'l2', or 'dram'
    latency: int


class Cache:
    """A set-associative cache with true-LRU replacement."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets: List[Dict[int, int]] = [dict() for _ in range(config.num_sets)]
        self._tick = 0
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Access a byte address; returns True on hit. Fills on miss."""
        line = addr // self.config.line_size
        set_idx = line % self.config.num_sets
        tag = line // self.config.num_sets
        ways = self._sets[set_idx]
        self._tick += 1
        if tag in ways:
            ways[tag] = self._tick
            self.hits += 1
            return True
        self.misses += 1
        if len(ways) >= self.config.assoc:
            victim = min(ways, key=ways.get)  # least recently used
            del ways[victim]
        ways[tag] = self._tick
        return False

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0


class CacheHierarchy:
    """L1 + L2 + DRAM, returning the latency of each access."""

    def __init__(self, mem: MemoryConfig) -> None:
        self.mem = mem
        self.l1 = Cache(mem.l1)
        self.l2 = Cache(mem.l2)

    def access(self, addr: int) -> AccessResult:
        if self.l1.access(addr):
            return AccessResult("l1", self.mem.l1.hit_latency)
        if self.l2.access(addr):
            return AccessResult("l2", self.mem.l2.hit_latency)
        return AccessResult("dram", self.mem.dram_latency)


class TwoBitPredictor:
    """A single two-bit saturating counter.

    States 0/1 predict not-taken, 2/3 predict taken; the counter increments
    on taken outcomes and decrements on not-taken, saturating at 0 and 3.
    """

    def __init__(self, initial_state: int = 2) -> None:
        if not 0 <= initial_state <= 3:
            raise ConfigurationError(f"state must be 0..3, got {initial_state}")
        self.state = initial_state
        self.predictions = 0
        self.mispredictions = 0

    def predict(self) -> bool:
        return self.state >= 2

    def update(self, taken: bool) -> bool:
        """Record the outcome; returns True if the prediction was correct."""
        correct = self.predict() == taken
        self.predictions += 1
        if not correct:
            self.mispredictions += 1
        if taken:
            self.state = min(3, self.state + 1)
        else:
            self.state = max(0, self.state - 1)
        return correct

    @property
    def mispredict_rate(self) -> float:
        return self.mispredictions / self.predictions if self.predictions else 0.0


@dataclass
class ReferenceResult:
    """Output of one reference-interpreted run."""

    power: Signal
    cycles: int
    instr_count: int
    timeline: RegionTimeline
    l1_miss_rate: float
    mispredict_rate: float


class _StreamWalker:
    """Generates concrete byte addresses for a MemRef stream.

    On the first touch of a stream its lines are walked once through the
    hierarchy ("warm-up"): real programs write their data before the hot
    loops read it, so steady-state behaviour -- which is what the analytic
    model in :mod:`repro.arch.cache` predicts -- starts with the data
    resident in whatever levels it fits in.
    """

    def __init__(self, rng: np.random.Generator, hierarchy: CacheHierarchy) -> None:
        self._positions: Dict[str, int] = {}
        self._bases: Dict[str, int] = {}
        self._next_base = 0
        self._rng = rng
        self._hierarchy = hierarchy

    def address(self, ref: MemRef) -> int:
        base = self._bases.get(ref.stream)
        if base is None:
            # Give each stream its own non-overlapping address range and
            # warm the hierarchy with one pass over it.
            base = self._next_base
            self._bases[ref.stream] = base
            self._next_base += 2 * ref.footprint + (1 << 20)
            line = self._hierarchy.mem.l1.line_size
            for addr in range(base, base + ref.footprint, line):
                self._hierarchy.access(addr)
        if ref.pattern == "rand":
            return base + int(self._rng.integers(0, ref.footprint))
        pos = self._positions.get(ref.stream, 0)
        self._positions[ref.stream] = (pos + ref.stride) % ref.footprint
        return base + pos


class ReferenceInterpreter:
    """Direct block-by-block execution of a program on a core model.

    Every dynamic block traversal is scheduled afresh, every memory
    access resolves through the functional :class:`CacheHierarchy` with
    real addresses, and every conditional branch goes through a
    functional :class:`TwoBitPredictor`. It is O(dynamic instructions)
    in Python, so a run stops with a :class:`SimulationError` once it
    passes ``budget`` dynamic instructions.
    """

    def __init__(
        self, program: Program, core: CoreConfig, budget: int = 5_000_000
    ) -> None:
        self.program = program
        self.core = core
        self.budget = budget
        self.power_model = PowerModel(core)

    def run(
        self,
        seed: Optional[int] = None,
        inputs: Optional[Mapping[str, float]] = None,
    ) -> ReferenceResult:
        rng = np.random.default_rng(seed)
        resolved = dict(inputs) if inputs is not None else self.program.sample_input(rng)

        hierarchy = CacheHierarchy(self.core.mem)
        predictors: Dict[str, TwoBitPredictor] = {}
        streams = _StreamWalker(rng, hierarchy)
        loop_counters: Dict[str, int] = {}

        chunks: List[np.ndarray] = []
        cycle = 0
        instr_count = 0
        mem_accesses = 0
        l1_misses = 0
        branch_count = 0
        mispredicts = 0

        block_name = self.program.entry
        while True:
            if instr_count > self.budget:
                raise SimulationError(
                    "reference interpreter budget exceeded "
                    f"({self.budget} dynamic instructions); use the "
                    "fast engine for programs this large"
                )
            block = self.program.block(block_name)
            term = block.terminator
            instrs = list(block.instrs)
            if not isinstance(term, Halt):
                instrs.append(Instr(OpClass.BRANCH))

            if instrs:
                schedule = pipeline.schedule_path(instrs, self.core)
                power = np.array(self.power_model.waveform(schedule))
                extra_cycles = 0
                extra_energy = 0.0
                for instr in block.instrs:
                    if instr.mem is None:
                        continue
                    mem_accesses += 1
                    access = hierarchy.access(streams.address(instr.mem))
                    if access.level != "l1":
                        l1_misses += 1
                        exposure = 0.45 if self.core.is_ooo else 1.0
                        extra_cycles += int(
                            round((access.latency - self.core.mem.l1.hit_latency)
                                  * exposure)
                        )
                        extra_energy += self.power_model.miss_energy(
                            to_dram=access.level == "dram"
                        )
                if extra_cycles > 0:
                    tail = np.full(extra_cycles, self.power_model.stall_power)
                    tail[0] += extra_energy
                    power = np.concatenate([power, tail])

                instr_count += len(instrs)
                chunks.append(power)
                cycle += len(power)

            # Resolve the terminator (with the functional predictor for
            # conditional branches).
            if isinstance(term, Halt):
                break
            if isinstance(term, Jump):
                block_name = term.target
            elif isinstance(term, LoopBack):
                trips = self.program.resolve_trips(term.trips, resolved)
                count = loop_counters.get(block_name, 0) + 1
                if count < trips:
                    loop_counters[block_name] = count
                    block_name = term.header
                else:
                    loop_counters[block_name] = 0
                    block_name = term.exit
            elif isinstance(term, Branch):
                p_taken = self.program.resolve_prob(term.taken_prob, resolved)
                taken = bool(rng.random() < p_taken)
                predictor = predictors.setdefault(block_name, TwoBitPredictor())
                branch_count += 1
                if not predictor.update(taken):
                    mispredicts += 1
                    penalty = self.core.mispredict_penalty
                    chunks.append(np.full(penalty, self.power_model.stall_power))
                    cycle += penalty
                block_name = term.taken if taken else term.not_taken
            else:
                raise SimulationError(f"unhandled terminator {term!r}")

        timeline = RegionTimeline()
        timeline.append(RegionInterval("run", 0.0, cycle / self.core.clock_hz))
        power_cycles = np.concatenate(chunks) if chunks else np.empty(0)
        cps = self.core.cycles_per_sample
        n_full = len(power_cycles) // cps
        samples = power_cycles[: n_full * cps].reshape(n_full, cps).mean(axis=1)

        return ReferenceResult(
            power=Signal(samples, self.core.sample_rate),
            cycles=cycle,
            instr_count=instr_count,
            timeline=timeline,
            l1_miss_rate=l1_misses / mem_accesses if mem_accesses else 0.0,
            mispredict_rate=mispredicts / branch_count if branch_count else 0.0,
        )
