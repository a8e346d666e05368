"""Windowed-Hankel SVD denoising (spectral-subspace projection).

Following *Detecting Code Injections in Noisy Environments Through EM
Signal Analysis and SVD Denoising* (arXiv 2212.05643): program loops put
a handful of strong quasi-periodic components into each short stretch of
the IQ stream, so a trajectory (Hankel) matrix built from that stretch
is numerically low-rank -- its leading singular subspace spans the loop
emission while wideband receiver noise spreads thinly over *all*
singular directions. Projecting onto the leading subspace and reading
the signal back off the anti-diagonals therefore raises the SNR of
exactly the spectral lines EDDIE's K-S test monitors, recovering
detection accuracy at noise levels where the raw spectra bury the
peaks.

Per block of ``block_samples`` samples ``x[0..N)``:

1. view the block as the Hankel matrix ``H[i, j] = x[i + j]`` of shape
   ``(L, N - L + 1)`` with window ``L = hankel_window``;
2. find its leading left singular directions without an SVD: the
   eigenpairs of the ``L x L`` Gram matrix ``H H*`` are ``(s**2, U)``.
   Keep the leading ``r`` directions -- a fixed ``rank``, or the
   smallest ``r`` whose singular energy reaches ``energy_keep`` of the
   total (adaptive: clean blocks keep almost everything, noisy blocks
   shed the noise floor);
3. project, ``W = U_r* H``, and average the anti-diagonals of
   ``H_r = U_r W`` back into a length-``N`` sequence (each output sample
   is the mean of every ``H_r[i, j]`` with ``i + j = k``). The
   anti-diagonal sums of ``U_r W`` are ``sum_k conv(U_r[:, k], W[k])``,
   one length-``N`` FFT product, so ``H_r`` is never formed.

The result is the rank-``r`` SVD projection, to rounding (about 1e-12
relative; ``tests/test_dsp.py`` holds the SVD reference). Per block
this costs ``O(L**2 N + L**3 + r N log N)``. A non-finite sample raises
:class:`~repro.errors.SignalError` naming the block's sample offset.

Blocks are anchored at the start of the stream and processed
independently, so the streaming form (buffer to full blocks, flush the
final partial one) is bit-identical to batch for any chunking -- the
:class:`~repro.dsp.stage.BlockStage` contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.dsp.stage import BlockStage, register_stage
from repro.errors import ConfigurationError, SignalError

__all__ = ["SvdDenoiser"]


@register_stage("svd_denoiser")
@dataclass(frozen=True, kw_only=True)
class SvdDenoiser(BlockStage):
    """SVD/spectral-subspace denoising front-end stage.

    Attributes:
        block_samples: samples per independently denoised block. Larger
            blocks resolve closer spectral lines; a block costs
            ``O(L**2 N + L**3 + r N log N)`` for ``N`` samples.
        hankel_window: trajectory-matrix window ``L``; the subspace can
            hold at most ``L`` distinct complex exponentials. Blocks
            shorter than ``2 * hankel_window`` (the stream tail) use
            ``len // 2`` instead, so tiny tails still denoise.
        rank: keep exactly this many singular directions (``None`` to
            select by energy instead).
        energy_keep: when ``rank`` is ``None``, keep the smallest
            leading subspace holding at least this fraction of the total
            singular energy.

    Output dtype is float64/complex128 regardless of input width, so a
    mixed-precision stream cannot make batch and streaming disagree.
    """

    block_samples: int = 2048
    hankel_window: int = 64
    rank: Optional[int] = None
    energy_keep: float = 0.92

    def validate(self) -> "SvdDenoiser":
        if self.block_samples < 32:
            raise ConfigurationError(
                f"block_samples must be >= 32, got {self.block_samples}"
            )
        if self.hankel_window < 2:
            raise ConfigurationError(
                f"hankel_window must be >= 2, got {self.hankel_window}"
            )
        if 2 * self.hankel_window > self.block_samples:
            raise ConfigurationError(
                f"hankel_window {self.hankel_window} exceeds half the "
                f"block ({self.block_samples} samples)"
            )
        if self.rank is not None and self.rank < 1:
            raise ConfigurationError(
                f"rank must be >= 1 (or None), got {self.rank}"
            )
        if not 0 < self.energy_keep <= 1:
            raise ConfigurationError(
                f"energy_keep must be in (0, 1], got {self.energy_keep}"
            )
        return self

    def _select_rank(self, s: np.ndarray) -> int:
        if self.rank is not None:
            return min(self.rank, len(s))
        energy = s * s
        total = float(energy.sum())
        if total <= 0.0:
            return 1
        cum = np.cumsum(energy)
        return int(np.searchsorted(cum, self.energy_keep * total)) + 1

    def _process_block(self, block: np.ndarray, offset: int) -> np.ndarray:
        real = not np.iscomplexobj(block)
        x = np.asarray(block, dtype=np.float64 if real else np.complex128)
        finite = np.isfinite(x)
        if not finite.all():
            bad = offset + int(np.argmin(finite))
            raise SignalError(
                f"non-finite sample at {bad} in the SVD denoiser block "
                f"at sample offset {offset}"
            )
        n = len(x)
        window = min(self.hankel_window, n // 2)
        if window < 2:
            # A 1..3-sample tail has no trajectory structure; pass it
            # through (same path in batch and streaming).
            return x.copy() if x is block else x
        hankel = sliding_window_view(x, n - window + 1)
        w, v = np.linalg.eigh(hankel @ hankel.conj().T)
        r = self._select_rank(np.sqrt(np.clip(w[::-1], 0.0, None)))
        if r >= window:
            return x.copy() if x is block else x
        basis = v[:, ::-1][:, :r]
        proj = basis.conj().T @ hankel
        fft, ifft = (
            (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
        )
        sums = ifft((fft(basis.T, n) * fft(proj, n)).sum(axis=0), n)
        k = np.arange(n)
        return sums / np.minimum(np.minimum(k + 1, n - k), window)
