"""Unit tests for the composition engine (repro.arch.engine)."""

import numpy as np
import pytest

from repro import obs
from repro.arch import engine as engine_mod
from repro.arch.config import CoreConfig
from repro.arch.engine import CompositionEngine, TraceBuilder
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

    def test_add_constant(self):
        tb = TraceBuilder(cycles_per_sample=2)
        tb.add_constant(1.5, 4)
        assert np.allclose(tb.samples(), [1.5, 1.5])

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
        variants = next(iter(engine_mod._VARIANT_MEMO.values()))
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
