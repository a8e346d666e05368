"""The preprocessing-stage API: validation, registry, bit-identity.

The load-bearing contract (DESIGN.md D22): for any stage chain and ANY
chunking of the input stream, ``FrontendChain`` feed/flush produces
samples bit-identical to the batch ``process`` composition over the
whole array -- so the batch trainer, the streaming monitor, and a
checkpoint/resume cycle all see exactly the same front-end output. The
hypothesis sweep drives that across random signals, random chunk
boundaries, and random snapshot cut points.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp import (
    AgcStage,
    FirGateStage,
    FrontendChain,
    SvdDenoiser,
    apply_frontend,
    stage_from_dict,
    stage_to_dict,
    validate_frontend,
)
from repro.dsp.stage import fir_filter, fir_lowpass
from repro.dsp.svd import _hankel_gram
from repro.errors import ConfigurationError, SignalError
from repro.types import Signal

#: Stage sets the equivalence sweep exercises. Small block sizes keep
#: hypothesis examples fast while still spanning many block boundaries.
STAGE_SETS = {
    "agc": (AgcStage(block_samples=256),),
    "fir": (FirGateStage(cutoff=0.4, taps=33, block_samples=256),),
    "svd": (SvdDenoiser(block_samples=256, hankel_window=16, rank=4),),
    "chain": (
        AgcStage(block_samples=128),
        FirGateStage(cutoff=0.5, taps=17, block_samples=128),
        SvdDenoiser(block_samples=192, hankel_window=12, rank=3),
    ),
}


def make_signal(seed, n):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 1e4
    clean = np.exp(2j * np.pi * 400.0 * t) * (
        1.0 + 0.5 * np.cos(2 * np.pi * 60.0 * t)
    )
    return clean + 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def chunkings(samples, sizes):
    out, start = [], 0
    for size in sizes:
        if start >= len(samples):
            break
        out.append(samples[start : start + size])
        start += size
    if start < len(samples):
        out.append(samples[start:])
    return out


def batch_process(stages, samples):
    for stage in stages:
        samples = stage.process(samples)
    return samples


def stream_process(stages, samples, sizes):
    chain = FrontendChain(stages)
    parts = [chain.feed(c) for c in chunkings(samples, sizes)]
    parts.append(chain.flush())
    return np.concatenate([p for p in parts if len(p)] or [np.empty(0)])


def svd_oracle(stage, block):
    """Reference SvdDenoiser block: the explicit SVD of the gathered
    Hankel matrix, reconstructed and averaged per anti-diagonal.

    Returns ``(output, selected rank)``.
    """
    dtype = np.complex128 if np.iscomplexobj(block) else np.float64
    x = np.asarray(block, dtype=dtype)
    n = len(x)
    window = min(stage.hankel_window, n // 2)
    idx = np.arange(window)[:, None] + np.arange(n - window + 1)[None, :]
    hankel = x[idx]
    u, s, vh = np.linalg.svd(hankel, full_matrices=False)
    r = stage._select_rank(s)
    low_rank = ((u[:, :r] * s[:r]) @ vh[:r]).ravel()
    flat = idx.ravel()
    sums = np.bincount(flat, weights=low_rank.real, minlength=n)
    if dtype is np.complex128:
        sums = sums + 1j * np.bincount(flat, weights=low_rank.imag, minlength=n)
    return sums / np.bincount(flat, minlength=n), r


def oracle_block(kind, n, complex_):
    if kind == "structured":
        x = make_signal(5, n)
    elif kind == "noise":
        rng = np.random.default_rng(5)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        x = np.zeros(n, dtype=complex)
    return x if complex_ else x.real.copy()


@st.composite
def svd_cases(draw, max_impulse):
    """``(stage, block)``: one block of 4..4096 samples through a stage
    whose window and rank rule are drawn too.

    ``block_samples`` covers the whole block, so it is a full block when
    ``n >= 2 * hankel_window`` and a stream tail (window ``n // 2``)
    otherwise. Impulses of up to ``max_impulse`` times the unit noise
    floor land in the first or last ``window - 1`` samples, where the
    Gram recursion cancels them and the edge blocks read them back; the
    whole block is then scaled by ``10**-6 .. 10**6``.
    """
    n = draw(st.integers(4, 4096))
    hankel_window = draw(st.integers(2, 64))
    mode = draw(st.one_of(
        st.builds(dict, rank=st.integers(1, 80)),
        # Not up to 1: energy_keep=1 cuts where the remaining energy is
        # rounding, which the squared Gram spectrum and the SVD round
        # differently, so the rank may differ by directions with no energy.
        st.builds(dict, energy_keep=st.floats(0.05, 0.99)),
    ))
    stage = SvdDenoiser(
        block_samples=max(32, 2 * hankel_window, n),
        hankel_window=hankel_window,
        **mode,
    )
    kind = draw(st.sampled_from(["structured", "noise", "zero", "impulse"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "structured":
        x = make_signal(int(rng.integers(2**31)), n)
    elif kind == "zero":
        x = np.zeros(n, dtype=complex)
    else:
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kind == "impulse":
        edge = min(hankel_window, n // 2) - 1
        at = draw(st.integers(0, edge - 1))
        if draw(st.booleans()):
            at = n - 1 - at
        x[at] += draw(st.floats(1.0, max_impulse)) * np.exp(
            1j * draw(st.floats(0.0, 2 * np.pi))
        )
    x = x * 10.0 ** draw(st.integers(-6, 6))
    return stage, x if draw(st.booleans()) else x.real.copy()


class TestValidation:
    def test_stages_are_frozen(self):
        stage = AgcStage(block_samples=256)
        with pytest.raises(dataclasses.FrozenInstanceError):
            stage.block_samples = 1

    def test_stages_are_keyword_only(self):
        with pytest.raises(TypeError):
            FirGateStage(0.5)  # noqa -- positional must be rejected

    @pytest.mark.parametrize("bad", [
        lambda: AgcStage(block_samples=1),
        lambda: AgcStage(target=0.0),
        lambda: FirGateStage(cutoff=0.0),
        lambda: FirGateStage(cutoff=1.5),
        lambda: FirGateStage(cutoff=0.5, taps=64),  # even
        lambda: FirGateStage(cutoff=0.5, taps=65, block_samples=32),
        lambda: SvdDenoiser(rank=0),
        lambda: SvdDenoiser(energy_keep=0.0),
        lambda: SvdDenoiser(hankel_window=1),
        lambda: SvdDenoiser(block_samples=8, hankel_window=64),
    ])
    def test_invalid_parameters_raise_eagerly(self, bad):
        with pytest.raises(ConfigurationError):
            bad()

    def test_empty_chain_rejected(self):
        with pytest.raises(ConfigurationError):
            FrontendChain(())

    def test_validate_frontend_rejects_non_stage(self):
        with pytest.raises(ConfigurationError):
            validate_frontend(("not a stage",))


class TestRegistry:
    @pytest.mark.parametrize("stage", [s for ss in STAGE_SETS.values() for s in ss])
    def test_round_trip(self, stage):
        desc = stage_to_dict(stage)
        assert desc["type"] == stage.stage_type
        assert stage_from_dict(desc) == stage

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigurationError):
            stage_from_dict({"type": "definitely_not_registered"})

    def test_unknown_field_rejected(self):
        desc = stage_to_dict(AgcStage())
        desc["tampered_field"] = 1.0
        with pytest.raises(ConfigurationError):
            stage_from_dict(desc)


class TestBatchStreamingEquivalence:
    @given(
        key=st.sampled_from(sorted(STAGE_SETS)),
        seed=st.integers(0, 2**31),
        n=st.integers(1, 4000),
        sizes=st.lists(st.integers(1, 700), min_size=1, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_chunking_is_bit_identical(self, key, seed, n, sizes):
        stages = STAGE_SETS[key]
        samples = make_signal(seed, n)
        reference = batch_process(stages, samples)
        streamed = stream_process(stages, samples, sizes)
        assert streamed.dtype == reference.dtype
        assert np.array_equal(streamed, reference)

    @given(
        key=st.sampled_from(sorted(STAGE_SETS)),
        seed=st.integers(0, 2**31),
        cut=st.integers(0, 3000),
    )
    @settings(max_examples=30, deadline=None)
    def test_snapshot_restore_is_bit_identical(self, key, seed, cut):
        stages = STAGE_SETS[key]
        samples = make_signal(seed, 3000)
        cut = min(cut, len(samples))
        reference = batch_process(stages, samples)

        first = FrontendChain(stages)
        head = first.feed(samples[:cut])
        meta, arrays = first.export_state()

        second = FrontendChain(stages)
        second.restore_state(meta, arrays)
        tail = second.feed(samples[cut:])
        out = np.concatenate([head, tail, second.flush()])
        assert np.array_equal(out, reference)

    def test_empty_feed_is_inert(self):
        chain = FrontendChain(STAGE_SETS["chain"])
        samples = make_signal(7, 1000)
        reference = batch_process(STAGE_SETS["chain"], samples)
        parts = [chain.feed(samples[:400])]
        parts.append(chain.feed(np.empty(0, dtype=samples.dtype)))
        parts.append(chain.feed(samples[400:]))
        parts.append(chain.flush())
        assert np.array_equal(np.concatenate(parts), reference)


class TestSvdDenoiser:
    def test_reduces_noise_on_structured_signal(self):
        rng = np.random.default_rng(0)
        n = 8192
        t = np.arange(n) / 1e4
        clean = np.exp(2j * np.pi * 400.0 * t) * (
            1.0 + 0.5 * np.cos(2 * np.pi * 60.0 * t)
        )
        noisy = clean + 1.0 * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ) / np.sqrt(2)
        denoised = SvdDenoiser(
            block_samples=2048, hankel_window=64, rank=8
        ).process(noisy)
        mse_before = float(np.mean(np.abs(noisy - clean) ** 2))
        mse_after = float(np.mean(np.abs(denoised - clean) ** 2))
        assert mse_after < 0.25 * mse_before

    def test_short_input_passthrough_shape(self):
        stage = SvdDenoiser(block_samples=256, hankel_window=16, rank=4)
        out = stage.process(make_signal(3, 3))
        assert out.shape == (3,)

    def test_apply_frontend_preserves_signal_frame(self):
        samples = make_signal(11, 2000)
        signal = Signal(samples, 1e4, t0=1.25)
        out = apply_frontend(STAGE_SETS["svd"], signal)
        assert out.sample_rate == signal.sample_rate
        assert out.t0 == signal.t0
        assert len(out.samples) == len(samples)
        assert not np.array_equal(out.samples, samples)


class TestSvdOracle:
    """The structured Gram/eigh + FIR kernel against the explicit-SVD
    reference: the same rank, and the same samples to ``rtol=1e-9``."""

    @staticmethod
    def assert_matches_oracle(stage, block):
        expected, expected_rank = svd_oracle(stage, block)
        ranks = []
        select = SvdDenoiser._select_rank

        def spy(self, s):
            ranks.append(select(self, s))
            return ranks[-1]

        with mock.patch.object(SvdDenoiser, "_select_rank", spy):
            out = stage.process(block)
        assert ranks == [expected_rank]
        assert out.dtype == expected.dtype
        np.testing.assert_allclose(
            out, expected, rtol=1e-9, atol=1e-12 * np.linalg.norm(block)
        )

    @pytest.mark.parametrize("mode", [
        {"rank": 8},
        {"rank": 64},  # == the full-block window: identity projection
        {"rank": 200},  # > any window
        {"energy_keep": 0.92},
        {"energy_keep": 0.5},
    ], ids=lambda m: "-".join(f"{k}={v}" for k, v in m.items()))
    @pytest.mark.parametrize("n", [2048, 100], ids=["full", "tail"])
    @pytest.mark.parametrize("kind", ["structured", "noise", "zero"])
    @pytest.mark.parametrize("complex_", [True, False], ids=["complex", "real"])
    def test_matches_svd_oracle(self, mode, n, kind, complex_):
        stage = SvdDenoiser(block_samples=2048, hankel_window=64, **mode)
        self.assert_matches_oracle(stage, oracle_block(kind, n, complex_))

    # A rank cut through the cluster of near-equal singular values an
    # impulse makes is resolved only to eps * impulse**2 / gap by any
    # Gram route, so impulses of 1e3 and more can break rtol=1e-9
    # whatever the kernel. At 1e2 the worst of ~30,000 examples used a
    # quarter of the tolerance.
    @given(case=svd_cases(max_impulse=1e2))
    @settings(max_examples=120, deadline=None)
    def test_sweep_matches_svd_oracle(self, case):
        self.assert_matches_oracle(*case)

    @given(case=svd_cases(max_impulse=1e6))
    @settings(max_examples=120, deadline=None)
    def test_structured_gram_matches_dense(self, case):
        stage, block = case
        window = min(stage.hankel_window, len(block) // 2)
        hankel = np.lib.stride_tricks.sliding_window_view(
            block, len(block) - window + 1
        )
        dense = hankel @ hankel.conj().T
        gram = _hankel_gram(block, window)
        assert not np.triu(gram, 1).any()
        error = np.abs(np.tril(gram - dense)).max()
        assert error <= 1e-13 * np.abs(dense).max()
        assert np.array_equal(stage.process(block), stage.process(block))


class TestFirOracle:
    """The numpy FIR helpers against scipy.signal as the oracle: taps
    byte-equal to ``firwin``, outputs and carried state byte-equal to
    ``lfilter``, in the same dtype."""

    @given(
        taps=st.integers(1, 100).map(lambda k: 2 * k + 1),
        cutoff=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        n=st.integers(1, 9000),
        complex_=st.booleans(),
        with_zi=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_firwin_and_lfilter(
        self, taps, cutoff, n, complex_, with_zi, seed
    ):
        from scipy import signal

        h = fir_lowpass(taps, cutoff)
        expected_h = signal.firwin(taps, cutoff)
        assert h.dtype == expected_h.dtype
        assert h.tobytes() == expected_h.tobytes()

        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        zi = rng.standard_normal(taps - 1) if with_zi else None
        if complex_:
            x = x + 1j * rng.standard_normal(n)
            if with_zi:
                zi = zi + 1j * rng.standard_normal(taps - 1)
        if with_zi:
            out, zf = fir_filter(h, x, zi)
            expected, expected_zf = signal.lfilter(h, 1.0, x, zi=zi)
            assert zf.dtype == expected_zf.dtype
            assert zf.tobytes() == expected_zf.tobytes()
        else:
            out = fir_filter(h, x)
            expected = signal.lfilter(h, 1.0, x)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()


class TestNonFiniteInput:
    """A NaN/Inf sample raises SignalError naming the block offset, the
    same way in batch, streaming, and behind a FIR gate."""

    SVD = (SvdDenoiser(block_samples=256, hankel_window=16, rank=4),)
    GATED = (
        FirGateStage(cutoff=0.4, taps=33, block_samples=256),
        SvdDenoiser(block_samples=256, hankel_window=16, rank=4),
    )

    def poisoned(self, at, value):
        samples = make_signal(13, 1000)
        samples[at] = value
        return samples

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, np.nan)])
    @pytest.mark.parametrize("at,offset", [(0, 0), (600, 512), (990, 768)])
    def test_batch_raises_with_block_offset(self, value, at, offset):
        with pytest.raises(SignalError, match=f"sample offset {offset}$"):
            self.SVD[0].process(self.poisoned(at, value))

    @pytest.mark.parametrize("at", [5, 600, 990])  # 990: in the flushed tail
    @pytest.mark.parametrize("sizes", [[1000], [100] * 10, [300, 7, 450]])
    @pytest.mark.parametrize("key", ["SVD", "GATED"])
    def test_streaming_raises_like_batch(self, key, sizes, at):
        stages = getattr(self, key)
        samples = self.poisoned(at, np.nan)
        with pytest.raises(SignalError) as batch_err:
            batch_process(stages, samples)
        with pytest.raises(SignalError) as stream_err:
            stream_process(stages, samples, sizes)
        assert str(stream_err.value) == str(batch_err.value)
        assert "SVD denoiser" in str(batch_err.value)

    def test_resumed_stream_names_the_same_offset(self):
        samples = self.poisoned(600, np.nan)
        with pytest.raises(SignalError) as batch_err:
            batch_process(self.GATED, samples)
        first = FrontendChain(self.GATED)
        first.feed(samples[:550])
        resumed = FrontendChain(self.GATED)
        resumed.restore_state(*first.export_state())
        with pytest.raises(SignalError) as stream_err:
            resumed.feed(samples[550:])
            resumed.flush()
        assert str(stream_err.value) == str(batch_err.value)
