"""Unit tests for the composition engine (repro.arch.engine)."""

import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.arch import engine as engine_mod
from repro.arch.config import CoreConfig
from repro.arch.engine import CompositionEngine, TraceBuilder, Variant
from repro.arch.power import PowerModel, PowerParams
from repro.arch.simulator import Simulator
from repro.cfg.graph import ControlFlowGraph
from repro.cfg.loops import find_loops
from repro.errors import SimulationError
from repro.experiments.runner import Scale
from repro.experiments.tables_common import evaluate_benchmark
from repro.programs.builder import ProgramBuilder
from repro.programs.ir import Instr, MemRef, OpClass
from repro.programs.mibench import BENCHMARKS

from oracle import render_leaf


def adds(n):
    return [Instr(OpClass.IADD, dst=f"r{i % 8}") for i in range(n)]


def make_engine(build, core=None):
    """build: callable(ProgramBuilder) configuring blocks; returns engine+forest."""
    b = ProgramBuilder("t")
    build(b)
    program = b.build(entry="init")
    cfg = ControlFlowGraph.from_program(program)
    forest = find_loops(cfg)
    core = core or CoreConfig(clock_hz=1e8)
    return CompositionEngine(program, core, forest), forest, program


class TestTraceBuilder:
    def test_binning_means(self):
        tb = TraceBuilder(cycles_per_sample=4)
        tb.add_cycles(np.array([1.0, 1.0, 3.0, 3.0, 5.0, 5.0, 7.0, 7.0]))
        assert np.allclose(tb.samples(), [2.0, 6.0])

    def test_carry_across_chunks(self):
        tb = TraceBuilder(cycles_per_sample=4)
        tb.add_cycles(np.array([2.0, 2.0]))
        assert len(tb.samples()) == 0
        tb.add_cycles(np.array([4.0, 4.0, 8.0]))
        assert np.allclose(tb.samples(), [3.0])
        assert tb.total_cycles == 5

    def test_invalid_cps(self):
        with pytest.raises(SimulationError):
            TraceBuilder(0)


class TestLeafLoopRendering:
    def build_counted(self, b):
        b.block("init", [], next_block="L")
        b.counted_loop("L", adds(30), trips=500, exit="out")
        b.halt("out")

    def test_iteration_count_and_cycles(self):
        engine, forest, program = make_engine(self.build_counted)
        tb = TraceBuilder(1)
        rng = np.random.default_rng(0)
        execution = engine.run_nest(forest.by_header("L"), {}, rng, tb)
        assert execution.iterations == 500
        assert execution.exit_block == "out"
        # 31 dynamic instrs per iteration (body + latch branch).
        assert execution.instr_count == 500 * 31
        assert tb.total_cycles > 500  # at least a cycle per iteration

    def test_periodicity_in_waveform(self):
        """A uniform counted loop must produce a strongly periodic signal."""
        engine, forest, program = make_engine(self.build_counted)
        tb = TraceBuilder(1)
        rng = np.random.default_rng(0)
        execution = engine.run_nest(forest.by_header("L"), {}, rng, tb)
        samples = tb.samples()
        period = tb.total_cycles / execution.iterations
        spec = np.abs(np.fft.rfft(samples - samples.mean())) ** 2
        freqs = np.fft.rfftfreq(len(samples))
        fundamental = 1.0 / period
        # The strongest spectral line must be a harmonic of the iteration
        # frequency (within-iteration structure makes harmonics strong, as
        # in the paper's Figure 1 sidebands and their harmonics).
        peak_freq = freqs[np.argmax(spec)]
        harmonic = peak_freq / fundamental
        assert harmonic == pytest.approx(round(harmonic), abs=0.05)
        # And the fundamental itself must stand far above the noise floor.
        fund_bin = int(round(fundamental * len(samples)))
        fund_power = spec[fund_bin - 1: fund_bin + 2].max()
        assert fund_power > 100 * np.median(spec)

    def test_deterministic_given_seed(self):
        engine, forest, _ = make_engine(self.build_counted)
        out = []
        for _ in range(2):
            tb = TraceBuilder(1)
            engine.run_nest(forest.by_header("L"), {}, np.random.default_rng(7), tb)
            out.append(tb.samples())
        assert np.array_equal(out[0], out[1])

    def test_branchy_loop_mixes_paths(self):
        def build(b):
            b.block("init", [], next_block="L")
            b.branchy_loop(
                "L",
                paths=[(0.5, adds(10)), (0.5, adds(40))],
                trips=2000,
                exit="out",
            )
            b.halt("out")

        engine, forest, _ = make_engine(build)
        tb = TraceBuilder(1)
        execution = engine.run_nest(
            forest.by_header("L"), {}, np.random.default_rng(1), tb
        )
        assert execution.iterations == 2000
        # Mean dynamic length must be between the two path extremes.
        per_iter = execution.instr_count / 2000
        assert 13 < per_iter < 45

    def test_param_trip_count(self):
        def build(b):
            b.param("n", "int", 100, 100)
            b.block("init", [], next_block="L")
            b.counted_loop("L", adds(5), trips="n", exit="out")
            b.halt("out")

        engine, forest, program = make_engine(build)
        tb = TraceBuilder(1)
        execution = engine.run_nest(
            forest.by_header("L"), {"n": 100}, np.random.default_rng(0), tb
        )
        assert execution.iterations == 100


class TestConditionalExitLoop:
    def test_geometric_trip_counts(self):
        """A while-style loop exits with the branch's exit probability."""

        def build(b):
            b.block("init", [], next_block="W")
            b.branch_block("W", adds(10), taken="W", not_taken="out", taken_prob=0.99)
            b.halt("out")

        engine, forest, _ = make_engine(build)
        counts = []
        for seed in range(60):
            tb = TraceBuilder(1)
            execution = engine.run_nest(
                forest.by_header("W"), {}, np.random.default_rng(seed), tb
            )
            assert execution.exit_block == "out"
            counts.append(execution.iterations)
        # Geometric with p = 0.01 -> mean 100.
        assert 50 < np.mean(counts) < 200

    def test_counted_loop_with_break(self):
        """A counted loop with an early-exit branch can leave both ways."""
        from repro.programs.ir import BasicBlock, LoopBack

        b = ProgramBuilder("t")
        b.block("init", [], next_block="L")
        b.branch_block("L", adds(10), taken="brk", not_taken="L.latch", taken_prob=0.0005)
        b.block("brk", adds(2), next_block="out_break")
        b.add(BasicBlock("L.latch", adds(2), LoopBack("L", "out_normal", 1000)))
        b.halt("out_break")
        b.halt("out_normal")
        program = b.build(entry="init")
        cfg = ControlFlowGraph.from_program(program)
        forest = find_loops(cfg)
        engine = CompositionEngine(program, CoreConfig(clock_hz=1e8), forest)
        exits = set()
        for seed in range(30):
            tb = TraceBuilder(1)
            execution = engine.run_nest(
                forest.by_header("L"), {}, np.random.default_rng(seed), tb
            )
            exits.add(execution.exit_block)
        # With p_break=0.002 and 5000 trips, both ways out should occur:
        # the break path (continuing at block "brk", outside the loop) and
        # the counted exit.
        assert exits == {"brk", "out_normal"}


class TestNestedLoopRendering:
    def test_nested_counts(self):
        def build(b):
            b.block("init", [], next_block="N")
            b.nested_loop(
                "N",
                inner_body=adds(20),
                inner_trips=50,
                outer_trips=10,
                exit="out",
                outer_pre=adds(3),
                outer_post=adds(2),
            )
            b.halt("out")

        engine, forest, _ = make_engine(build)
        tb = TraceBuilder(1)
        execution = engine.run_nest(
            forest.by_header("N"), {}, np.random.default_rng(0), tb
        )
        assert execution.exit_block == "out"
        assert execution.iterations == 10
        # inner: 50*(20+1) per outer iteration; outer adds pre 3+1(jump),
        # post 2+1(branch) -- exact bookkeeping checked loosely:
        assert execution.instr_count > 10 * 50 * 20

    def test_injection_into_inner_loop(self):
        def build(b):
            b.block("init", [], next_block="N")
            b.nested_loop(
                "N", inner_body=adds(20), inner_trips=50, outer_trips=10, exit="out"
            )
            b.halt("out")

        engine, forest, _ = make_engine(build)
        engine.loop_injections["N.inner"] = (tuple(adds(8)), 1.0)
        tb = TraceBuilder(1)
        execution = engine.run_nest(
            forest.by_header("N"), {}, np.random.default_rng(0), tb
        )
        assert execution.injected_instr_count == 10 * 50 * 8


class TestInjectionContamination:
    def build(self, b):
        b.block("init", [], next_block="L")
        b.counted_loop("L", adds(30), trips=10000, exit="out")
        b.halt("out")

    @pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
    def test_injected_fraction_tracks_contamination(self, rate):
        engine, forest, _ = make_engine(self.build)
        engine.loop_injections["L"] = (tuple(adds(8)), rate)
        tb = TraceBuilder(1)
        execution = engine.run_nest(
            forest.by_header("L"), {}, np.random.default_rng(5), tb
        )
        expected = 10000 * 8 * rate
        assert execution.injected_instr_count == pytest.approx(expected, rel=0.1, abs=10)

    def test_injection_lengthens_execution(self):
        engine, forest, _ = make_engine(self.build)
        tb_clean = TraceBuilder(1)
        engine.run_nest(forest.by_header("L"), {}, np.random.default_rng(0), tb_clean)
        engine.loop_injections["L"] = (tuple(adds(8)), 1.0)
        tb_injected = TraceBuilder(1)
        engine.run_nest(forest.by_header("L"), {}, np.random.default_rng(0), tb_injected)
        assert tb_injected.total_cycles > tb_clean.total_cycles


class TestRunRepeated:
    def test_instruction_count(self):
        engine, _, _ = make_engine(
            lambda b: (b.block("init", [], next_block="L"),
                       b.counted_loop("L", adds(5), trips=10, exit="out"),
                       b.halt("out"))
        )
        tb = TraceBuilder(1)
        executed = engine.run_repeated(adds(50), 100, np.random.default_rng(0), tb)
        assert executed == 5000
        assert tb.total_cycles > 0

    def test_zero_iterations(self):
        engine, _, _ = make_engine(
            lambda b: (b.block("init", [], next_block="L"),
                       b.counted_loop("L", adds(5), trips=10, exit="out"),
                       b.halt("out"))
        )
        tb = TraceBuilder(1)
        assert engine.run_repeated(adds(50), 0, np.random.default_rng(0), tb) == 0


@st.composite
def leaf_cases(draw):
    """A leaf loop's variants and draws, with block and chunk sizes small
    enough that one case spans several of each."""
    block = draw(st.sampled_from([8, 64, 500]))
    k_variants = 4 if draw(st.booleans()) else 1
    n_families = draw(st.integers(1, 3))
    n_injected = draw(st.integers(0, n_families - 1))
    waves = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    variants = []
    for _ in range(n_families):
        # Zero extras, mispredicts only, or misses all the way to DRAM.
        mem, br = draw(st.sampled_from([
            ((), ()),
            ((), ((3, 0.5),)),
            (((20, 1.0, 1.0), (2, 0.3, 0.0)), ((1, 0.25),)),
        ]))
        for _ in range(k_variants):
            cycles = draw(st.one_of(
                st.integers(1, 19),          # shorter than a bin
                st.integers(20, 100),        # a bin or more
                st.integers(block + 1, block + 300),  # longer than a block
            ))
            variants.append(Variant(
                waves.random(cycles) + 0.5, cycles,
                draw(st.integers(1, 40)), mem, br,
            ))
    family_probs = [draw(st.floats(0.1, 1.0)) for _ in range(n_families)]
    return {
        "block": block,
        "chunk_iters": draw(st.integers(1, 40)),
        "ooo": k_variants > 1,
        "variants": variants,
        "family_probs": family_probs,
        "n_clean": (n_families - n_injected) * k_variants,
        "injected": n_injected > 0,
        "n_iters": draw(st.integers(1, 150)),
        "carry": draw(st.integers(0, 19)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


class TestBlockedRendering:
    """``_render_leaf`` builds and bins a chunk in blocks (DESIGN.md D35);
    the materializing renderer in ``tests/oracle.py`` pins its bytes."""

    @staticmethod
    def assert_same_render(engine, paths, carry, seed, n_iters, injection):
        """Instruction counts, ``total_cycles``, sample bytes and the
        carried partial bin agree, after a builder carry of ``carry``."""
        rendered = []
        for renderer in (engine._render_leaf, partial(render_leaf, engine)):
            builder = TraceBuilder(20)
            builder.add_cycles(np.linspace(0.25, 1.0, carry))
            counts = renderer(paths, n_iters, np.random.default_rng(seed),
                              builder, injection)
            rendered.append((counts, builder.total_cycles,
                             builder.samples().tobytes(),
                             builder._carry.tobytes()))
        assert rendered[0] == rendered[1]

    @settings(max_examples=150, deadline=None)
    @given(leaf_cases())
    def test_matches_materializing_oracle(self, case):
        core = (CoreConfig.sim_ooo(clock_hz=1e8) if case["ooo"]
                else CoreConfig(clock_hz=1e8))
        engine, _, _ = make_engine(
            lambda b: (b.block("init", [], next_block="out"), b.halt("out")),
            core,
        )
        engine._iteration_variants = lambda paths, injection: (
            case["variants"], case["family_probs"], case["n_clean"])
        injection = (tuple(adds(3)), 0.5) if case["injected"] else None
        with mock.patch.object(engine_mod, "_BLOCK_CYCLES", case["block"]), \
                mock.patch.object(engine_mod, "_CHUNK_ITERS",
                                  case["chunk_iters"]):
            self.assert_same_render(
                engine, [], case["carry"], case["seed"], case["n_iters"],
                injection,
            )

    @pytest.mark.parametrize("core", [
        CoreConfig(clock_hz=1e8), CoreConfig.sim_ooo(clock_hz=1e8),
    ], ids=["inorder", "ooo"])
    def test_matches_oracle_over_real_chunks(self, core):
        """Two full ``_CHUNK_ITERS`` chunks and a partial one at the real
        block size, on a compiled body with cache misses and an injection."""
        body = adds(6) + [
            Instr(OpClass.LOAD, dst="m", srcs=("p",),
                  mem=MemRef("arr", footprint=1 << 22, pattern="rand"))
        ]

        def build(b):
            b.block("init", [], next_block="L")
            b.counted_loop("L", body, trips=10, exit="out")
            b.halt("out")

        engine, forest, _ = make_engine(build, core)
        paths = engine._enumerate_paths(forest.by_header("L"), {})[0]
        iter_paths = [p for p in paths if not p.exits_loop]
        injection = (tuple(adds(4)), 0.3)
        n_iters = 2 * engine_mod._CHUNK_ITERS + 77
        for carry in (0, 13):
            self.assert_same_render(
                engine, iter_paths, carry, 5, n_iters, injection)

    def test_peak_memory_does_not_grow_with_cycles(self):
        """A 65,536-iteration leaf loop allocates per-iteration draws and a
        few blocks, never an array per cycle of the chunk: ten times the
        cycles per iteration leaves the traced peak, net of the samples
        produced, where it was. (The materializing renderer, which holds a
        power array per cycle of the chunk, peaks at 13 MB and 84 MB
        here.)"""
        engine, _, _ = make_engine(
            lambda b: (b.block("init", [], next_block="out"), b.halt("out")),
            CoreConfig.sim_ooo(clock_hz=1e8),
        )
        n_iters = engine_mod._CHUNK_ITERS
        block_bytes = 8 * engine_mod._BLOCK_CYCLES
        net_peaks = []
        for n_adds in (40, 400):
            body = adds(n_adds)
            engine.run_repeated(body, 1, np.random.default_rng(0),
                                TraceBuilder(20))  # compile outside the trace
            builder = TraceBuilder(20)
            tracemalloc.start()
            try:
                engine.run_repeated(body, n_iters, np.random.default_rng(1),
                                    builder)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            net_peaks.append(peak - 8 * (builder.total_cycles // 20))
        assert max(net_peaks) < 14 * 8 * n_iters + 4 * block_bytes
        assert abs(net_peaks[1] - net_peaks[0]) < 2 * block_bytes


class TestOOOVariance:
    def test_ooo_iteration_time_varies_more(self):
        """Matches the paper: OOO cores produce more STS variation."""

        def build(b):
            b.block("init", [], next_block="L")
            body = adds(40) + [
                Instr(OpClass.LOAD, dst="m", srcs=("p",),
                      mem=MemRef("arr", footprint=1 << 22, pattern="rand"))
            ] * 4
            b.counted_loop("L", body, trips=4000, exit="out")
            b.halt("out")

        lengths = {}
        for kind in ("inorder", "ooo"):
            core = CoreConfig(kind=kind, issue_width=2, rob_size=64, clock_hz=1e8)
            engine, forest, _ = make_engine(build, core)
            per_iter = []
            for seed in range(10):
                tb = TraceBuilder(1)
                execution = engine.run_nest(
                    forest.by_header("L"), {}, np.random.default_rng(seed), tb
                )
                per_iter.append(tb.total_cycles / execution.iterations)
            lengths[kind] = np.std(per_iter) / np.mean(per_iter)
        assert lengths["ooo"] > 0


class TestVariantMemo:
    """The process-wide variant memo (DESIGN.md D27)."""

    CLOCK = 1e8

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        engine_mod._VARIANT_MEMO.clear()
        yield
        engine_mod._VARIANT_MEMO.clear()

    def simulate(self, core=None, params=None, seed=3):
        core = core or CoreConfig.sim_ooo(clock_hz=self.CLOCK)
        program = BENCHMARKS["bitcount"]()
        return Simulator(program, core, PowerModel(core, params)).run(seed=seed)

    @staticmethod
    def assert_same(a, b):
        assert a.power.samples.tobytes() == b.power.samples.tobytes()
        assert a.timeline.intervals == b.timeline.intervals
        assert (a.cycles, a.instr_count) == (b.cycles, b.instr_count)

    def test_cleared_memo_gives_identical_result(self):
        cold = self.simulate()
        warm = self.simulate()
        engine_mod._VARIANT_MEMO.clear()
        recompiled = self.simulate()
        self.assert_same(cold, warm)
        self.assert_same(cold, recompiled)

    def test_table2_row_same_cold_and_warm(self):
        scale = Scale(train_runs=2, clean_runs=1, injected_runs=1, group_sizes=(8, 16))

        def row():
            core = CoreConfig.sim_ooo(clock_hz=scale.clock_hz)
            return evaluate_benchmark("bitcount", scale, "power", core)

        cold = row()
        assert engine_mod._VARIANT_MEMO
        assert row() == cold

    @pytest.mark.parametrize("other", ["inorder_core", "power_params"])
    def test_core_and_power_params_key_the_memo(self, other):
        """A warm memo from the OOO core and default power parameters
        changes nothing for another core or parameter set."""
        if other == "inorder_core":
            kwargs = {"core": CoreConfig.iot_inorder(clock_hz=self.CLOCK)}
        else:
            kwargs = {"params": PowerParams(static_per_cycle=0.25, l1_access=0.3)}
        isolated = self.simulate(**kwargs)
        engine_mod._VARIANT_MEMO.clear()
        self.simulate()
        self.assert_same(self.simulate(**kwargs), isolated)

    def test_cached_waveforms_are_read_only(self):
        self.simulate()
        _, variants = next(iter(engine_mod._VARIANT_MEMO.values()))
        with pytest.raises(ValueError):
            variants[0].waveform[0] = 1.0

    def test_memo_never_exceeds_its_bound(self, monkeypatch):
        unbounded = self.simulate()
        engine_mod._VARIANT_MEMO.clear()
        monkeypatch.setattr(engine_mod, "_VARIANT_MEMO_SIZE", 3)
        sizes = []
        real = engine_mod.CompositionEngine._compile

        def compile_and_measure(engine, segment):
            sizes.append(len(engine_mod._VARIANT_MEMO))
            return real(engine, segment)

        monkeypatch.setattr(
            engine_mod.CompositionEngine, "_compile", compile_and_measure
        )
        bounded = self.simulate()
        assert len(engine_mod._VARIANT_MEMO) == 3
        assert max(sizes) == 3
        # Evicted segments recompile byte-identically.
        self.assert_same(bounded, unbounded)

    def test_power_model_must_match_the_core(self):
        core = CoreConfig.sim_ooo(clock_hz=self.CLOCK)
        other = CoreConfig.iot_inorder(clock_hz=self.CLOCK)
        with pytest.raises(SimulationError):
            Simulator(BENCHMARKS["bitcount"](), core, PowerModel(other))

    def test_second_identical_run_compiles_nothing(self):
        core = CoreConfig.sim_ooo(clock_hz=self.CLOCK)
        simulator = Simulator(BENCHMARKS["bitcount"](), core)
        obs.enable()
        obs.reset()
        try:
            simulator.run(seed=5)
            first = obs.snapshot()["counters"]
            obs.reset()
            simulator.run(seed=5)
            second = obs.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert first["arch.engine/variant_compiles"] > 0
        assert "arch.engine/variant_compiles" not in second
        assert second["arch.engine/variant_memo_hits"] > 0

    def test_segment_keys_match_by_content(self):
        """A segment key hashes once and compares by content: a key
        rebuilt from the same instruction keys finds the memo entry, and
        a segment that hits adopts the memo's key object."""
        self.simulate()
        (context, key), (stored, variants) = next(
            iter(engine_mod._VARIANT_MEMO.items())
        )
        assert stored is key
        rebuilt = engine_mod._SegmentKey(
            (tuple(list(key.content[0])), tuple(list(key.content[1])))
        )
        assert rebuilt is not key
        assert rebuilt == key and hash(rebuilt) == hash(key)
        assert engine_mod._VARIANT_MEMO[(context, rebuilt)][1] is variants
        different = engine_mod._SegmentKey((key.content[0], (0.123,)))
        assert different != key

        core = CoreConfig.sim_ooo(clock_hz=self.CLOCK)
        engine = Simulator(BENCHMARKS["bitcount"](), core).engine
        segment = engine_mod._Segment((), (0.5,))
        engine_mod._VARIANT_MEMO.clear()
        first = engine._compile_segment(segment)
        again = engine_mod._Segment((), (0.5,))
        assert again.key is not segment.key
        assert engine._compile_segment(again) is first
        assert again.key is segment.key
