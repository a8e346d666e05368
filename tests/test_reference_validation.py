"""Cross-validation: the fast composition engine vs the reference interpreter.

DESIGN.md D1 claims the vectorized engine preserves cycle-level semantics
at the path level. These tests check that claim against an independent
implementation (:class:`oracle.ReferenceInterpreter`) that interprets every dynamic
instruction, uses the *functional* LRU caches with concrete addresses, and
drives branches through a *functional* two-bit predictor.
"""

import numpy as np
import pytest

from oracle import ReferenceInterpreter
from repro.arch.config import CoreConfig
from repro.arch.simulator import Simulator
from repro.programs.builder import ProgramBuilder
from repro.programs.ir import Instr, MemRef, OpClass
from repro.programs.workloads import int_kernel, mem_kernel

CORE = CoreConfig.iot_inorder(clock_hz=1e8)


def run_both(program, seed=0, inputs=None):
    fast = Simulator(program, CORE).run(seed=seed, inputs=inputs)
    slow = ReferenceInterpreter(program, CORE).run(seed=seed, inputs=inputs)
    return fast, slow


def dominant_freq(power_signal):
    x = power_signal.samples - power_signal.samples.mean()
    spec = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(len(x), 1 / power_signal.sample_rate)
    mask = freqs > 1e4  # skip the near-DC noise concentration
    return freqs[mask][np.argmax(spec[mask])]


class TestEngineAgainstReference:
    def test_pure_alu_loop_exact_instr_count_close_cycles(self):
        b = ProgramBuilder("p")
        b.block("init", int_kernel(10, "i"), next_block="L")
        b.counted_loop("L", int_kernel(120, "x"), trips=2000, exit="done")
        b.halt("done", int_kernel(5, "d"))
        program = b.build(entry="init")
        fast, slow = run_both(program)
        assert fast.instr_count == slow.instr_count
        # No stochastic events in this program: cycles must agree closely
        # (the engine runs paths back-to-back, the interpreter identically).
        assert fast.cycles == pytest.approx(slow.cycles, rel=0.02)

    def test_loop_spectral_peak_agrees(self):
        b = ProgramBuilder("p")
        b.block("init", [], next_block="L")
        b.counted_loop("L", int_kernel(150, "x"), trips=4000, exit="done")
        b.halt("done")
        program = b.build(entry="init")
        fast, slow = run_both(program)
        f_fast = dominant_freq(fast.power)
        f_slow = dominant_freq(slow.power)
        assert f_fast == pytest.approx(f_slow, rel=0.03)

    def test_l2_resident_stream_timing_agrees(self):
        """Analytic steady-state misses vs real LRU: same mean timing."""
        body = int_kernel(60, "x") + mem_kernel(
            8, "x", "buf", footprint=128 * 1024, pattern="seq"
        )
        b = ProgramBuilder("p")
        b.block("init", [], next_block="L")
        b.counted_loop("L", body, trips=3000, exit="done")
        b.halt("done")
        program = b.build(entry="init")
        fast, slow = run_both(program)
        assert fast.instr_count == slow.instr_count
        # Stochastic misses: mean cycles agree within 10%.
        assert fast.cycles == pytest.approx(slow.cycles, rel=0.10)
        # And the analytic L1 miss probability matches the functional LRU.
        from repro.arch.cache import stream_miss_profile

        profile = stream_miss_profile(
            MemRef("buf", footprint=128 * 1024, pattern="seq"), CORE.mem
        )
        assert slow.l1_miss_rate == pytest.approx(profile.l1_miss, abs=0.02)

    def test_random_stream_miss_rates_agree(self):
        body = int_kernel(40, "x") + mem_kernel(
            6, "x", "heap", footprint=1 << 20, pattern="rand"
        )
        b = ProgramBuilder("p")
        b.block("init", [], next_block="L")
        b.counted_loop("L", body, trips=2000, exit="done")
        b.halt("done")
        program = b.build(entry="init")
        fast, slow = run_both(program)
        from repro.arch.cache import stream_miss_profile

        profile = stream_miss_profile(
            MemRef("heap", footprint=1 << 20, pattern="rand"), CORE.mem
        )
        assert slow.l1_miss_rate == pytest.approx(profile.l1_miss, abs=0.05)
        assert fast.cycles == pytest.approx(slow.cycles, rel=0.15)

    def test_branchy_loop_mispredict_rate_matches_analytic(self):
        b = ProgramBuilder("p")
        b.block("init", [], next_block="W")
        b.branch_block("W", int_kernel(50, "x"), taken="W", not_taken="done",
                       taken_prob=0.999)
        b.halt("done")
        program = b.build(entry="init")
        slow = ReferenceInterpreter(program, CORE).run(seed=3)
        from repro.arch.branch import two_bit_mispredict_rate

        # Near-always-taken branch: low but nonzero mispredict rate.
        assert slow.mispredict_rate == pytest.approx(
            two_bit_mispredict_rate(0.999), abs=0.01
        )

    def test_two_loop_program_cycles(self):
        b = ProgramBuilder("p")
        b.block("init", int_kernel(8, "i"), next_block="L1")
        b.counted_loop("L1", int_kernel(90, "a"), trips=1500, exit="mid")
        b.block("mid", int_kernel(20, "m"), next_block="L2")
        b.counted_loop("L2", int_kernel(160, "b"), trips=1000, exit="done")
        b.halt("done")
        program = b.build(entry="init")
        fast, slow = run_both(program)
        assert fast.instr_count == slow.instr_count
        assert fast.cycles == pytest.approx(slow.cycles, rel=0.02)

    def test_random_loop_chains_agree(self):
        """Property-style sweep: random loop-chain programs, both
        implementations agree on instruction counts exactly and cycle
        counts closely."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=12, deadline=None)
        @given(
            body_sizes=st.lists(
                st.integers(min_value=30, max_value=200), min_size=1, max_size=3
            ),
            trips=st.integers(min_value=50, max_value=800),
            inter_size=st.integers(min_value=0, max_value=30),
        )
        def check(body_sizes, trips, inter_size):
            b = ProgramBuilder("rand")
            b.block("init", int_kernel(5, "i"), next_block="L0")
            for k, size in enumerate(body_sizes):
                nxt = f"mid{k}" if k + 1 < len(body_sizes) else "done"
                b.counted_loop(f"L{k}", int_kernel(size, f"x{k}"),
                               trips=trips, exit=nxt)
                if k + 1 < len(body_sizes):
                    b.block(f"mid{k}", int_kernel(inter_size, f"m{k}"),
                            next_block=f"L{k + 1}")
            b.halt("done")
            program = b.build(entry="init")
            fast, slow = run_both(program)
            assert fast.instr_count == slow.instr_count
            assert fast.cycles == pytest.approx(slow.cycles, rel=0.03)

        check()

    def test_budget_guard(self):
        from repro.errors import SimulationError

        b = ProgramBuilder("p")
        b.block("init", [], next_block="L")
        b.counted_loop("L", int_kernel(200, "x"), trips=10_000_000, exit="done")
        b.halt("done")
        program = b.build(entry="init")
        assert ReferenceInterpreter(program, CORE).budget == 5_000_000
        with pytest.raises(SimulationError, match="budget exceeded \\(20000 "):
            ReferenceInterpreter(program, CORE, budget=20_000).run(seed=0)
