"""Vectorized composition of loop executions from memoized path schedules.

This module implements design decision D1 (DESIGN.md): rather than
interpreting every dynamic instruction, each distinct control path through a
loop body is scheduled cycle-accurately *once* (per OOO schedule variant),
yielding a per-cycle power waveform; a loop execution is then composed by
sampling a path variant per iteration, appending stochastic stall cycles for
cache misses and branch mispredictions, and reading each iteration's cycles
out of a table of the memoized waveforms, a block of iterations at a time
(D35) -- all vectorized with numpy.

The per-iteration *period* (which sets the loop's spectral peak) and its
*variance* (which sets the STS spread EDDIE's statistics must absorb) are
therefore cycle-accurate at the path level, at roughly 1000x the speed of an
instruction-by-instruction interpreter.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arch.branch import two_bit_mispredict_rate
from repro.arch.cache import stream_miss_profile
from repro.arch.config import CoreConfig
from repro.arch.pipeline import schedule_path
from repro.arch.power import PowerModel, PowerParams
from repro.cfg.loops import Loop, LoopForest
from repro.errors import SimulationError
from repro.obs import OBS, record_count
from repro.programs.ir import (
    Branch,
    Halt,
    Instr,
    Jump,
    LoopBack,
    OpClass,
    Program,
)

__all__ = ["CompositionEngine", "TraceBuilder", "LoopExecution", "Variant"]

# Number of perturbed schedule variants kept per path on OOO cores.
_OOO_VARIANTS = 4
# Fraction of a miss penalty an OOO core cannot hide with independent work.
_OOO_MISS_EXPOSURE = 0.45
# Mean dwell (iterations) of an OOO core in one schedule steady-state.
# Dynamic schedules exhibit hysteresis: replay/aliasing effects persist
# over stretches comparable to one STFT window, so each window's dominant
# schedule differs while long-run proportions stay stationary -- this is
# what makes OOO cores need larger K-S groups in the paper (Section 5.3,
# Figure 4) without destabilizing the reference distribution itself.
_OOO_VARIANT_DWELL = 75
# Iterations whose random draws are made per numpy chunk.
_CHUNK_ITERS = 65536
# Cycles a chunk is built and binned in at a time, cut at iteration
# boundaries (DESIGN.md D35): no per-cycle array grows with the chunk.
_BLOCK_CYCLES = 32768
# Compiled segments the process-wide variant memo keeps, least recently
# used first out (DESIGN.md D27). A quick-scale Table 2 protocol fills 154
# (0.4 MB of waveforms).
_VARIANT_MEMO_SIZE = 4096
# (context, segment key) -> (that segment key object, the segment's
# schedule variants).
_VARIANT_MEMO: "OrderedDict[Tuple, Tuple]" = OrderedDict()
# (core, power params) -> context number, resolved once per engine so a
# memo lookup hashes and compares no config objects.
_CONTEXTS: Dict[Tuple[CoreConfig, PowerParams], int] = {}
_VARIANT_MEMO_LOCK = threading.Lock()


class TraceBuilder:
    """Bins per-cycle power into samples as it arrives.

    The paper's SESC setup samples the power signal every 20 cycles; the
    builder takes cycles in pieces of any length (a segment's waveform,
    a leaf loop's blocks) and keeps only the samples -- the mean power
    of each ``cycles_per_sample`` bin -- plus the fewer than
    ``cycles_per_sample`` cycles of a partial bin, which the next piece
    completes. A bin is the same row mean of the same cycles however
    they were cut into pieces (DESIGN.md D35).
    """

    def __init__(self, cycles_per_sample: int) -> None:
        if cycles_per_sample < 1:
            raise SimulationError("cycles_per_sample must be >= 1")
        self.cycles_per_sample = cycles_per_sample
        self._carry = np.empty(0)
        self._sample_chunks: List[np.ndarray] = []
        self.total_cycles = 0

    def add_cycles(self, power: np.ndarray) -> None:
        """Append per-cycle power values."""
        self.total_cycles += len(power)
        cps = self.cycles_per_sample
        if len(self._carry):
            # Close the carried partial bin from the piece's head, then
            # bin the rest of the piece in place.
            need = cps - len(self._carry)
            head = np.concatenate([self._carry, power[:need]])
            if len(head) < cps:
                self._carry = head
                return
            self._sample_chunks.append(head.reshape(1, cps).mean(axis=1))
            power = power[need:]
        n_full = len(power) // cps
        if n_full:
            full = power[: n_full * cps].reshape(n_full, cps)
            self._sample_chunks.append(full.mean(axis=1))
        self._carry = power[n_full * cps:]

    def samples(self) -> np.ndarray:
        """All complete samples binned so far (drops a partial tail bucket)."""
        if not self._sample_chunks:
            return np.empty(0)
        return np.concatenate(self._sample_chunks)


@dataclass(frozen=True)
class Variant:
    """One memoized execution variant of a straight-line path.

    Variants are shared process-wide (DESIGN.md D27), so ``waveform`` is
    read-only.

    Attributes:
        waveform: per-cycle power, assuming L1 hits and correct prediction.
        cycles: base length.
        instr_count: dynamic instructions in the path.
        mem_groups: (accesses, l1_miss_prob, l2_miss_prob) per stream class.
        br_groups: (branches, mispredict_rate) per rate class.
    """

    waveform: np.ndarray
    cycles: int
    instr_count: int
    mem_groups: Tuple[Tuple[int, float, float], ...]
    br_groups: Tuple[Tuple[int, float], ...]


class _SegmentKey:
    """A segment's part of a variant-memo key: its instruction keys and
    branch probabilities as plain values, hashed once -- a tuple hashes
    its whole nesting again on every lookup -- and compared by content,
    so a segment rebuilt with the same content hits the same entry."""

    __slots__ = ("content", "_hash")

    def __init__(self, content: Tuple) -> None:
        self.content = content
        self._hash = hash(content)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, _SegmentKey)
            and self._hash == other._hash
            and self.content == other.content
        )


# Path elements produced by loop-body enumeration.
@dataclass(frozen=True)
class _Segment:
    instrs: Tuple[Instr, ...]
    branch_probs: Tuple[float, ...]  # taken-direction prob of each cond branch

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", _SegmentKey(
            (tuple(i.key for i in self.instrs), self.branch_probs)
        ))


@dataclass(frozen=True)
class _ChildLoop:
    header: str


@dataclass(frozen=True)
class _LoopPath:
    prob: float
    elements: Tuple[Union[_Segment, _ChildLoop], ...]
    exits_loop: bool
    exit_target: Optional[str]


@dataclass
class LoopExecution:
    """Result of rendering one loop-nest execution."""

    exit_block: str
    iterations: int
    instr_count: int
    injected_instr_count: int


class CompositionEngine:
    """Renders loop-nest executions into a :class:`TraceBuilder`.

    One engine instance serves one (program, core) pair. Compiled path
    schedules come from the process-wide variant memo (DESIGN.md D27), so
    every engine on the same core and power parameters shares them; the
    engine itself only memoizes its program's path enumeration. Per-run
    state (inputs, rng) is passed to :meth:`run_nest`.
    """

    def __init__(
        self,
        program: Program,
        core: CoreConfig,
        forest: LoopForest,
        power_model: Optional[PowerModel] = None,
    ) -> None:
        self.program = program
        self.core = core
        self.forest = forest
        self.power = power_model or PowerModel(core)
        if self.power.core != core:
            # The variant memo keys on one core; a power model for another
            # core would compile waveforms the key does not describe.
            raise SimulationError("the power model is for a different core")
        with _VARIANT_MEMO_LOCK:
            self._context = _CONTEXTS.setdefault(
                (core, self.power.params), len(_CONTEXTS)
            )
        self._path_cache: Dict[Tuple, Tuple] = {}
        # Injected instructions per loop header: (instrs, contamination).
        self.loop_injections: Dict[str, Tuple[Tuple[Instr, ...], float]] = {}

    # -- public API ----------------------------------------------------------

    def run_nest(
        self,
        loop: Loop,
        inputs: Mapping[str, float],
        rng: np.random.Generator,
        builder: TraceBuilder,
    ) -> LoopExecution:
        """Render one full execution of a top-level loop nest."""
        if OBS.enabled:
            record_count("arch.engine", "nest_compositions")
        return self._run_loop(loop, inputs, rng, builder)

    def run_straightline(
        self,
        instrs: Sequence[Instr],
        branch_probs: Sequence[float],
        rng: np.random.Generator,
        builder: TraceBuilder,
    ) -> int:
        """Render one execution of a straight-line stretch; returns instrs."""
        return self._run_segment(
            _Segment(tuple(instrs), tuple(branch_probs)), rng, builder
        )

    def _run_segment(
        self, segment: _Segment, rng: np.random.Generator, builder: TraceBuilder
    ) -> int:
        if not segment.instrs:
            return 0
        variants = self._compile_segment(segment)
        idx = int(rng.integers(len(variants)))
        variant = variants[idx]
        extra, energy = self._sample_extras(variant, 1, rng)
        chunk = variant.waveform
        if extra[0] > 0:
            tail = np.full(int(extra[0]), self.power.stall_power)
            tail[0] += energy[0]
            chunk = np.concatenate([chunk, tail])
        builder.add_cycles(chunk)
        return variant.instr_count

    def run_repeated(
        self,
        instrs: Sequence[Instr],
        n: int,
        rng: np.random.Generator,
        builder: TraceBuilder,
    ) -> int:
        """Render ``n`` back-to-back executions of a straight-line body.

        Used for burst injections (e.g. the paper's ~476k-instruction
        shellcode modelled as a spin loop); vectorized like a leaf loop.
        """
        if n <= 0 or not instrs:
            return 0
        path = _LoopPath(
            prob=1.0,
            elements=(_Segment(tuple(instrs), ()),),
            exits_loop=False,
            exit_target=None,
        )
        total, _ = self._render_leaf([path], n, rng, builder, injection=None)
        return total

    # -- loop rendering --------------------------------------------------------

    def _run_loop(
        self,
        loop: Loop,
        inputs: Mapping[str, float],
        rng: np.random.Generator,
        builder: TraceBuilder,
    ) -> LoopExecution:
        paths, trips_spec, counted_exit = self._enumerate_paths(loop, inputs)
        iter_paths = [p for p in paths if not p.exits_loop]
        exit_paths = [p for p in paths if p.exits_loop]
        if not iter_paths:
            raise SimulationError(
                f"loop {loop.header!r} has no iterating path"
            )

        max_trips: Optional[int] = None
        if trips_spec is not None:
            max_trips = self.program.resolve_trips(trips_spec, inputs)

        p_exit = sum(p.prob for p in exit_paths)
        if max_trips is None and p_exit <= 0:
            raise SimulationError(
                f"loop {loop.header!r} has neither a trip count nor an exit path"
            )

        # Number of completed iterations before leaving the loop.
        if p_exit > 0:
            n_iters = int(rng.geometric(p_exit))
            if max_trips is not None:
                n_iters = min(n_iters, max_trips)
            exited_early = max_trips is None or n_iters < max_trips
        else:
            n_iters = max_trips  # type: ignore[assignment]
            exited_early = False

        injection = self.loop_injections.get(loop.header)
        has_children = any(
            any(isinstance(el, _ChildLoop) for el in p.elements) for p in iter_paths
        )

        total_instrs = 0
        injected_instrs = 0
        if has_children:
            total_instrs, injected_instrs = self._render_nested(
                iter_paths, n_iters, inputs, rng, builder, injection
            )
        else:
            total_instrs, injected_instrs = self._render_leaf(
                iter_paths, n_iters, rng, builder, injection
            )

        # Leave the loop: either through a sampled exit path or the counted
        # exit edge.
        if exited_early and exit_paths:
            probs = np.array([p.prob for p in exit_paths])
            probs = probs / probs.sum()
            chosen = exit_paths[int(rng.choice(len(exit_paths), p=probs))]
            total_instrs += self._render_once(chosen, inputs, rng, builder)
            exit_block = chosen.exit_target
        else:
            exit_block = counted_exit
        if exit_block is None:
            raise SimulationError(f"loop {loop.header!r} has no exit target")

        return LoopExecution(
            exit_block=exit_block,
            iterations=n_iters,
            instr_count=total_instrs,
            injected_instr_count=injected_instrs,
        )

    def _render_leaf(
        self,
        iter_paths: List[_LoopPath],
        n_iters: int,
        rng: np.random.Generator,
        builder: TraceBuilder,
        injection: Optional[Tuple[Tuple[Instr, ...], float]],
    ) -> Tuple[int, int]:
        """Vectorized rendering of a child-free loop's iterations.

        Control-path (and injected/clean) choice is i.i.d. per iteration;
        on OOO cores the *schedule variant* within the chosen path follows
        a sticky Markov chain with mean dwell ``_OOO_VARIANT_DWELL`` (see
        that constant's comment). The draws are made per ``_CHUNK_ITERS``
        chunk; the chunk's cycles are then built and binned a block at a
        time by :func:`_render_blocks` (DESIGN.md D35).
        """
        variants, family_probs, n_clean_variants = self._iteration_variants(
            iter_paths, injection
        )
        k_variants = _OOO_VARIANTS if self.core.is_ooo else 1
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
            chunk = min(remaining, _CHUNK_ITERS)
            remaining -= chunk
            family_idx = rng.choice(n_families, size=chunk, p=family_probs)
            if k_variants > 1:
                schedule_idx, current_variant = _sticky_stream(
                    chunk, k_variants, current_variant,
                    1.0 / _OOO_VARIANT_DWELL, rng,
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
                e, en = self._sample_extras(variant, count, rng)
                extra[mask] = e
                energy[mask] = en
            lengths = base_len[idx] + extra
            table, row_start = _leaf_table(
                variants, int(extra.max()), self.power.stall_power
            )
            _render_blocks(table, row_start[idx], lengths, extra, energy, builder)
            chunk_instrs = int(instr_counts[idx].sum())
            total_instrs += chunk_instrs
            if injection is not None:
                n_injected_iters = int((idx >= n_clean_variants).sum())
                injected_instrs += n_injected_iters * injected_len
        return total_instrs, injected_instrs

    def _render_nested(
        self,
        iter_paths: List[_LoopPath],
        n_iters: int,
        inputs: Mapping[str, float],
        rng: np.random.Generator,
        builder: TraceBuilder,
        injection: Optional[Tuple[Tuple[Instr, ...], float]],
    ) -> Tuple[int, int]:
        """Iteration-by-iteration rendering of a loop containing child loops.

        Outer loops of a nest typically run a few thousand iterations at
        most, so a Python-level loop is acceptable; the child loops inside
        are rendered with the vectorized leaf path.
        """
        probs = np.array([p.prob for p in iter_paths])
        probs = probs / probs.sum()
        total_instrs = 0
        injected_instrs = 0
        contamination = injection[1] if injection else 0.0
        path_indices = rng.choice(len(iter_paths), size=n_iters, p=probs)
        for path_idx in path_indices:
            path = iter_paths[int(path_idx)]
            inject_here = injection is not None and rng.random() < contamination
            last_segment_idx = max(
                (i for i, el in enumerate(path.elements) if isinstance(el, _Segment)),
                default=-1,
            )
            for el_idx, element in enumerate(path.elements):
                if isinstance(element, _Segment):
                    segment = element
                    if inject_here and el_idx == last_segment_idx:
                        segment = _Segment(
                            element.instrs + injection[0], element.branch_probs
                        )
                        injected_instrs += len(injection[0])
                    total_instrs += self._run_segment(segment, rng, builder)
                else:
                    child = self.forest.by_header(element.header)
                    execution = self._run_loop(child, inputs, rng, builder)
                    total_instrs += execution.instr_count
                    injected_instrs += execution.injected_instr_count
        return total_instrs, injected_instrs

    def _render_once(
        self,
        path: _LoopPath,
        inputs: Mapping[str, float],
        rng: np.random.Generator,
        builder: TraceBuilder,
    ) -> int:
        """Render a single traversal of one path (used for exit paths)."""
        instrs = 0
        for element in path.elements:
            if isinstance(element, _Segment):
                instrs += self._run_segment(element, rng, builder)
            else:
                child = self.forest.by_header(element.header)
                execution = self._run_loop(child, inputs, rng, builder)
                instrs += execution.instr_count
        return instrs

    # -- path enumeration -------------------------------------------------------

    def _enumerate_paths(
        self, loop: Loop, inputs: Mapping[str, float]
    ) -> Tuple[List[_LoopPath], Optional[object], Optional[str]]:
        """Enumerate control paths of one iteration of ``loop``.

        Walks the loop body from the header. A path ends when it returns to
        the header (an iterating path) or leaves the loop (an exit path).
        Child loops encountered are collapsed into :class:`_ChildLoop`
        elements and resumed at their unique exit target.

        Returns (paths, trips_spec, counted_exit_target); the trip spec
        comes from the loop's LoopBack latch if it has one. Results are
        memoized per (loop, resolved inputs): deeply nested loops would
        otherwise re-enumerate on every execution of the inner loop.
        """
        cache_key = (loop.header, tuple(sorted(inputs.items())))
        cached = self._path_cache.get(cache_key)
        if cached is not None:
            return cached

        program = self.program
        paths: List[_LoopPath] = []
        trips_spec: List[object] = []
        counted_exit: List[str] = []

        def walk(
            block_name: str,
            prob: float,
            elements: List,
            current: List[Instr],
            branch_probs: List[float],
            depth: int,
        ) -> None:
            if depth > 64:
                raise SimulationError(
                    f"path enumeration in loop {loop.header!r} exceeded depth "
                    f"64; the loop body is too branchy for the engine"
                )
            child = self._child_loop_at(loop, block_name)
            if child is not None:
                if current:
                    elements = elements + [
                        _Segment(tuple(current), tuple(branch_probs))
                    ]
                elements = elements + [_ChildLoop(child.header)]
                exit_target = self._unique_exit(child, inputs)
                if exit_target == loop.header:
                    paths.append(_LoopPath(prob, tuple(elements), False, None))
                elif exit_target in loop.blocks:
                    walk(exit_target, prob, elements, [], [], depth + 1)
                else:
                    paths.append(
                        _LoopPath(prob, tuple(elements), True, exit_target)
                    )
                return

            block = program.block(block_name)
            current = current + list(block.instrs)
            branch_probs = list(branch_probs)
            term = block.terminator

            def finish(exits: bool, target: Optional[str]) -> None:
                elems = list(elements)
                if current:
                    elems.append(_Segment(tuple(current), tuple(branch_probs)))
                paths.append(_LoopPath(prob, tuple(elems), exits, target))

            if isinstance(term, Halt):
                raise SimulationError(
                    f"block {block_name!r} halts inside loop {loop.header!r}"
                )
            if isinstance(term, LoopBack):
                if term.header == loop.header:
                    # The canonical latch: ends an iteration.
                    trips_spec.append(term.trips)
                    counted_exit.append(term.exit)
                    current.append(Instr(OpClass.BRANCH))
                    finish(False, None)
                    return
                raise SimulationError(
                    f"block {block_name!r} has a LoopBack to {term.header!r}, "
                    f"which is not the enclosing loop header {loop.header!r}"
                )
            if isinstance(term, Jump):
                current.append(Instr(OpClass.BRANCH))
                if term.target == loop.header:
                    finish(False, None)
                elif term.target in loop.blocks:
                    walk(term.target, prob, elements, current, branch_probs, depth + 1)
                else:
                    finish(True, term.target)
                return
            if isinstance(term, Branch):
                p_taken = program.resolve_prob(term.taken_prob, inputs)
                current.append(Instr(OpClass.BRANCH))
                for target, p_dir in ((term.taken, p_taken), (term.not_taken, 1 - p_taken)):
                    if p_dir <= 0:
                        continue
                    bp = branch_probs + [p_taken]
                    if target == loop.header:
                        elems = list(elements)
                        elems.append(_Segment(tuple(current), tuple(bp)))
                        paths.append(
                            _LoopPath(prob * p_dir, tuple(elems), False, None)
                        )
                    elif target in loop.blocks:
                        walk(target, prob * p_dir, elements, list(current), bp, depth + 1)
                    else:
                        elems = list(elements)
                        elems.append(_Segment(tuple(current), tuple(bp)))
                        paths.append(
                            _LoopPath(prob * p_dir, tuple(elems), True, target)
                        )
                return
            raise SimulationError(f"unhandled terminator {term!r}")

        walk(loop.header, 1.0, [], [], [], 0)

        if trips_spec:
            spec = trips_spec[0]
            exit_target = counted_exit[0]
        else:
            spec, exit_target = None, None
        result = (paths, spec, exit_target)
        self._path_cache[cache_key] = result
        return result

    def _child_loop_at(self, loop: Loop, block_name: str) -> Optional[Loop]:
        """The immediate child loop headed at ``block_name``, if any."""
        if block_name == loop.header:
            return None
        for child in loop.children:
            if child.header == block_name:
                return child
        return None

    def _unique_exit(self, child: Loop, inputs: Mapping[str, float]) -> str:
        """The single block a child loop continues at after finishing."""
        targets = set()
        for block_name in child.blocks:
            term = self.program.block(block_name).terminator
            if isinstance(term, LoopBack) and term.header == child.header:
                targets.add(term.exit)
            elif isinstance(term, (Jump, Branch)):
                for succ in self.program.block(block_name).successors():
                    if succ not in child.blocks:
                        targets.add(succ)
        if len(targets) != 1:
            raise SimulationError(
                f"child loop {child.header!r} must have exactly one exit "
                f"target; found {sorted(targets)}"
            )
        return targets.pop()

    # -- compilation --------------------------------------------------------------

    def _iteration_variants(
        self,
        iter_paths: List[_LoopPath],
        injection: Optional[Tuple[Tuple[Instr, ...], float]],
    ) -> Tuple[List[Variant], List[float], int]:
        """Compile all iteration variants of a leaf loop, injection included.

        With a loop-body injection at contamination rate c, each iteration
        independently executes the injected variant with probability c
        (Section 5.4 of the paper); this is expressed by splitting every
        path's probability mass between its clean and injected variants.

        Returns the variants (each path's schedule variants in a row), the
        probability of each path's row, and how many variants are clean.
        """
        contamination = injection[1] if injection else 0.0
        variants: List[Variant] = []
        family_probs: List[float] = []
        for path in iter_paths:
            segment = self._single_segment(path)
            prob = path.prob * (1 - contamination)
            if prob > 0:
                variants.extend(self._compile_segment(segment))
                family_probs.append(prob)
        n_clean = len(variants)
        if injection is not None and contamination > 0:
            for path in iter_paths:
                segment = self._single_segment(path)
                injected = _Segment(segment.instrs + injection[0], segment.branch_probs)
                variants.extend(self._compile_segment(injected))
                family_probs.append(path.prob * contamination)
        return variants, family_probs, n_clean

    @staticmethod
    def _single_segment(path: _LoopPath) -> _Segment:
        if len(path.elements) != 1 or not isinstance(path.elements[0], _Segment):
            raise SimulationError("leaf rendering requires single-segment paths")
        return path.elements[0]

    def _compile_segment(self, segment: _Segment) -> Tuple[Variant, ...]:
        """The schedule variants of ``segment`` on this engine's core and
        power parameters: a memo hit, or a compile that fills the memo.

        On a hit the segment adopts the memo's key object, so its later
        lookups compare keys by identity instead of by content."""
        key = (self._context, segment.key)
        with _VARIANT_MEMO_LOCK:
            entry = _VARIANT_MEMO.get(key)
            if entry is not None:
                key = (self._context, entry[0])
                _VARIANT_MEMO.move_to_end(key)
        if entry is not None:
            object.__setattr__(segment, "key", entry[0])
            if OBS.enabled:
                record_count("arch.engine", "variant_memo_hits")
            return entry[1]
        if OBS.enabled:
            record_count("arch.engine", "variant_compiles")
        variants = self._compile(segment)
        with _VARIANT_MEMO_LOCK:
            _VARIANT_MEMO[key] = (segment.key, variants)
            if len(_VARIANT_MEMO) > _VARIANT_MEMO_SIZE:
                _VARIANT_MEMO.popitem(last=False)
        return variants

    def _compile(self, segment: _Segment) -> Tuple[Variant, ...]:
        """Schedule ``segment`` (plus its perturbed OOO variants) and
        render each schedule's waveform."""
        schedules = [schedule_path(segment.instrs, self.core)]
        if self.core.is_ooo:
            seed = _stable_seed((segment.instrs, segment.branch_probs))
            for k in range(1, _OOO_VARIANTS):
                schedules.append(schedule_path(
                    segment.instrs, self.core, np.random.default_rng(seed + k),
                    expected_cycles=schedules[0].cycles,
                ))
        mem_groups: Dict[Tuple[float, float], int] = {}
        for instr in segment.instrs:
            if instr.mem is None:
                continue
            profile = stream_miss_profile(instr.mem, self.core.mem)
            key = (profile.l1_miss, profile.l2_miss)
            if key == (0.0, 0.0):
                continue
            mem_groups[key] = mem_groups.get(key, 0) + 1
        br_groups: Dict[float, int] = {}
        for p_taken in segment.branch_probs:
            rate = two_bit_mispredict_rate(round(p_taken, 6))
            if rate > 0:
                br_groups[rate] = br_groups.get(rate, 0) + 1
        mem = tuple((n, k[0], k[1]) for k, n in mem_groups.items())
        br = tuple((n, rate) for rate, n in br_groups.items())
        variants = []
        for schedule in schedules:
            waveform = self.power.waveform(schedule)
            waveform.flags.writeable = False
            variants.append(
                Variant(waveform, schedule.cycles, len(segment.instrs), mem, br)
            )
        return tuple(variants)

    # -- stochastic extras ---------------------------------------------------------

    def _sample_extras(
        self, variant: Variant, size: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample per-iteration stall cycles and refill energy.

        Cache-miss penalties are partially hidden on OOO cores (independent
        work continues under a miss); mispredict penalties are exposed on
        both core kinds.
        """
        mem = self.core.mem
        l2_extra = mem.l2.hit_latency - mem.l1.hit_latency
        dram_extra = mem.dram_latency - mem.l2.hit_latency
        exposure = _OOO_MISS_EXPOSURE if self.core.is_ooo else 1.0

        extra = np.zeros(size, dtype=np.float64)
        energy = np.zeros(size)
        for count, l1p, l2p in variant.mem_groups:
            l1_misses = rng.binomial(count, l1p, size)
            extra += l1_misses * l2_extra * exposure
            energy += l1_misses * self.power.params.l2_access
            if l2p > 0:
                l2_misses = rng.binomial(l1_misses, l2p)
                extra += l2_misses * dram_extra * exposure
                energy += l2_misses * self.power.params.dram_access
        penalty = self.core.mispredict_penalty
        for count, rate in variant.br_groups:
            mispredicts = rng.binomial(count, rate, size)
            extra += mispredicts * penalty
        return np.round(extra).astype(np.int64), energy


def _leaf_table(
    variants: Sequence[Variant], pad: int, stall_power: float
) -> Tuple[np.ndarray, np.ndarray]:
    """The per-cycle lookup table of a leaf loop's iterations.

    Row ``v`` is variant ``v``'s waveform followed by ``pad`` cycles at
    stall power, so an iteration of variant ``v`` with up to ``pad``
    stall cycles reads its cycles from one contiguous run of the table.
    Returns the table and each row's start.
    """
    row_len = np.array([v.cycles + pad for v in variants], dtype=np.int64)
    row_start = np.zeros(len(variants), dtype=np.int64)
    np.cumsum(row_len[:-1], out=row_start[1:])
    table = np.full(int(row_len.sum()), stall_power)
    for start, variant in zip(row_start, variants):
        table[start:start + variant.cycles] = variant.waveform
    return table, row_start


def _render_blocks(
    table: np.ndarray,
    rows: np.ndarray,
    lengths: np.ndarray,
    extra: np.ndarray,
    energy: np.ndarray,
    builder: TraceBuilder,
) -> None:
    """Build and bin one chunk's cycles about ``_BLOCK_CYCLES`` at a time.

    Iteration ``i`` reads ``lengths[i]`` cycles from the table row that
    starts at ``rows[i]``, and its first stall cycle (there is one when
    ``extra[i] > 0``) also carries the refill energy ``energy[i]``.
    Blocks are cut at iteration boundaries, so a block is one iteration
    when that iteration alone exceeds the block size; the builder's
    carry joins the bins that straddle two blocks.
    """
    ends = np.cumsum(lengths)
    # Table index minus chunk cycle index, per iteration.
    shift = rows - (ends - lengths)
    gaps = extra > 0
    gap_at = (ends - extra)[gaps]
    gap_energy = energy[gaps]
    n = len(lengths)
    i0 = c0 = 0
    while i0 < n:
        i1 = max(
            i0 + 1,
            int(np.searchsorted(ends, c0 + _BLOCK_CYCLES, side="right")),
        )
        c1 = int(ends[i1 - 1])
        src = np.repeat(shift[i0:i1], lengths[i0:i1])
        src += np.arange(c0, c1)
        power = table[src]
        g0, g1 = np.searchsorted(gap_at, (c0, c1))
        if g1 > g0:
            np.add.at(power, gap_at[g0:g1] - c0, gap_energy[g0:g1])
        builder.add_cycles(power)
        i0, c0 = i1, c1


def _sticky_stream(
    n: int,
    n_states: int,
    initial: int,
    switch_prob: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, int]:
    """A length-n Markov stream over ``n_states`` with sticky dwell.

    Each step keeps the current state with probability ``1 - switch_prob``
    and otherwise jumps to a uniformly random state. Returns the stream
    and the final state (for cross-chunk continuity).
    """
    switches = rng.random(n) < switch_prob
    new_states = rng.integers(0, n_states, size=n)
    positions = np.arange(n)
    last_switch = np.where(switches, positions, -1)
    np.maximum.accumulate(last_switch, out=last_switch)
    stream = np.where(last_switch >= 0, new_states[np.maximum(last_switch, 0)], initial)
    return stream.astype(np.int64), int(stream[-1])


def _stable_seed(key: object) -> int:
    """A process-independent seed derived from a path's identity, the
    ``(instrs, branch_probs)`` pair.

    ``hash()`` is randomized per interpreter process; using it would make
    OOO schedule variants differ between runs of the same experiment. The
    seed depends on nothing else, so a segment evicted from the variant
    memo recompiles byte-identically.
    """
    return zlib.crc32(repr(key).encode()) & 0x7FFFFFFF

