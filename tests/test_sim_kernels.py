"""Differential test of the simulator's compile kernels.

:func:`repro.arch.pipeline.schedule_path` and
:meth:`repro.arch.power.PowerModel.waveform` are checked against their
per-instruction reference loops in ``tests/oracle.py`` over random
instruction sequences: every op class, register dependencies, memory
references, in-order and out-of-order cores, with and without a jitter
``rng`` and ``expected_cycles``. The golden manifests cover only the
MiBench programs' few hundred segments; this covers the rest.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import schedule_path as oracle_schedule_path
from oracle import waveform as oracle_waveform
from repro.arch.config import CacheConfig, CoreConfig, MemoryConfig
from repro.arch.pipeline import schedule_path
from repro.arch.power import PowerModel, PowerParams
from repro.programs.ir import Instr, MemRef, OpClass

_REGS = [f"r{i}" for i in range(6)]


@st.composite
def instructions(draw):
    op = draw(st.sampled_from(list(OpClass)))
    mem = None
    if op.is_memory:
        mem = MemRef(
            draw(st.sampled_from(["a", "b"])),
            footprint=draw(st.sampled_from([256, 4096, 1 << 20])),
            stride=draw(st.sampled_from([4, 64])),
            pattern=draw(st.sampled_from(["seq", "rand"])),
        )
    return Instr(
        op,
        dst=draw(st.none() | st.sampled_from(_REGS)),
        srcs=tuple(draw(st.lists(st.sampled_from(_REGS), max_size=3))),
        mem=mem,
    )


@st.composite
def sequences(draw):
    # A uniform length: list strategies favour short lists, and jitter
    # events (one per ~40 cycles) need long paths to matter.
    n = draw(st.integers(min_value=1, max_value=200))
    return draw(st.lists(instructions(), min_size=n, max_size=n))


cores = st.builds(
    lambda kind, width, depth, rob, l1_latency: CoreConfig(
        kind=kind,
        issue_width=width,
        pipeline_depth=depth,
        rob_size=max(rob, width),
        mem=MemoryConfig(l1=CacheConfig(32 * 1024, 4, hit_latency=l1_latency)),
    ),
    st.sampled_from(["inorder", "ooo"]),
    st.sampled_from([1, 2, 4]),
    st.sampled_from([5, 12, 24]),
    st.sampled_from([4, 16, 128]),
    st.integers(min_value=1, max_value=4),
)


@pytest.mark.equivalence
@given(
    instrs=sequences(),
    core=cores,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    custom_params=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_kernels_match_oracle(instrs, core, seed, custom_params):
    base = oracle_schedule_path(instrs, core).cycles
    params = PowerParams(l1_access=0.37, static_per_cycle=0.3) if custom_params else None
    model = PowerModel(core, params)
    # Unperturbed, then jittered with an estimated and a given budget.
    for jitter, expected in ((False, None), (True, None), (True, base)):
        def rng():
            return np.random.default_rng(seed) if jitter else None

        ours = schedule_path(instrs, core, rng(), expected_cycles=expected)
        ref = oracle_schedule_path(instrs, core, rng(), expected_cycles=expected)
        for name in ("fetch", "issue", "complete"):
            np.testing.assert_array_equal(getattr(ours, name), getattr(ref, name))
            assert getattr(ours, name).dtype == getattr(ref, name).dtype
        assert ours.cycles == ref.cycles
        assert ours.instrs == ref.instrs
        assert model.waveform(ours).tobytes() == oracle_waveform(model, ref).tobytes()
