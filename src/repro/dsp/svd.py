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

Per block of ``block_samples`` samples ``x[0..N)``, with
``K = N - L + 1`` and ``m = L - 1``:

1. view the block as the Hankel matrix ``H[i, j] = x[i + j]`` of shape
   ``(L, K)`` with window ``L = hankel_window``;
2. find its leading left singular directions without an SVD: the
   eigenpairs of the ``L x L`` Gram matrix ``G = H H*`` are ``(s**2, U)``.
   ``G`` is never multiplied out. Its first column is one correlation,
   ``G[i, 0] = sum_t x[i + t] conj(x[t])``, and the rest follows the
   rank-1 diagonal recursion ``G[i+1, j+1] = G[i, j] + x[i+K] conj(x[j+K])
   - x[i] conj(x[j])``, a cumulative sum along each diagonal of the lower
   triangle (the only part ``eigh`` reads). Keep the leading ``r``
   directions -- a fixed ``rank``, or the smallest ``r`` whose singular
   energy reaches ``energy_keep`` of the total (adaptive: clean blocks
   keep almost everything, noisy blocks shed the noise floor);
3. average the anti-diagonals of the projected matrix ``P H``, with the
   projector ``P = U_r U_r*``, back into a length-``N`` sequence (each
   output sample is the mean of every ``(P H)[i, j]`` with
   ``i + j = k``). For ``m <= k < K`` every row of ``H`` meets
   anti-diagonal ``k``, so its sum is the FIR filter
   ``sum_d p[d] x[k + d]`` whose ``2L - 1`` taps ``p[d]`` are the sums of
   ``P``'s diagonals ``i' - i = d``. The first and last ``m`` sums come
   from the two ``L x m`` edge blocks ``P H[:, :m]`` and
   ``P H[:, K-m:]``. Neither ``P H`` nor ``H H*`` is formed.

The result is the rank-``r`` SVD projection, to rounding (about 1e-12
relative; ``tests/test_dsp.py`` holds the SVD reference). Per block
this costs ``O(L N + L**3)``. A non-finite sample raises
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
            ``O(L N + L**3)`` for ``N`` samples.
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
        w, v = np.linalg.eigh(_hankel_gram(x, window))
        r = self._select_rank(np.sqrt(np.clip(w[::-1], 0.0, None)))
        if r >= window:
            return x.copy() if x is block else x
        basis = v[:, ::-1][:, :r]
        proj = basis @ basis.conj().T
        m, cols = window - 1, n - window + 1
        hankel = sliding_window_view(x, cols)
        sums = np.empty(n, dtype=x.dtype)
        # Tap p[d] sums proj's diagonal i' - i = d. Listed d = m..-m (the
        # order np.convolve flips back), they are the anti-diagonal sums
        # of proj with its columns reversed.
        taps = _skew(proj[:, ::-1]).sum(axis=0)
        sums[m:cols] = np.convolve(x, taps, "valid")
        sums[:m] = _skew(proj @ hankel[:, :m]).sum(axis=0)[:m]
        sums[cols:] = _skew(proj @ hankel[:, cols - m:]).sum(axis=0)[m:]
        k = np.arange(n)
        return sums / np.minimum(np.minimum(k + 1, n - k), window)


def _skew(a: np.ndarray) -> np.ndarray:
    """``a`` with row ``i`` shifted right by ``i`` into a zero-filled
    ``(R, R + C - 1)`` array: ``out[i, i + c] = a[i, c]``.

    Column ``k`` of the result holds anti-diagonal ``k`` of ``a``, so
    ``_skew(a).sum(axis=0)`` is ``a``'s anti-diagonal sums.
    """
    rows, cols = a.shape
    padded = np.zeros((rows, rows + cols), dtype=a.dtype)
    padded[:, :cols] = a
    return padded.reshape(-1)[: rows * (rows + cols - 1)].reshape(rows, -1)


def _hankel_gram(x: np.ndarray, window: int) -> np.ndarray:
    """Lower triangle of ``H H*`` for the ``(window, N - window + 1)``
    Hankel view ``H`` of ``x``, with zeros above the diagonal.

    ``steps[j, d]`` is the ``j``-th term of diagonal ``d`` (entries
    ``(d + j, j)``): the correlation ``G[d, 0]`` for ``j = 0``, then the
    recursion's rank-1 increments. Their cumulative sum down each column
    is the diagonal, and :func:`_skew` moves it into place.
    """
    m, cols = window - 1, len(x) - window + 1

    def increments(edge):
        # Terms with d + j >= window fall outside the matrix: zero
        # padding keeps them finite, and _skew shifts them past the
        # slice below.
        padded = np.concatenate([edge, np.zeros(m, dtype=x.dtype)])
        return sliding_window_view(padded, window) * edge.conj()[:, None]

    steps = np.empty((window, window), dtype=x.dtype)
    steps[0] = np.correlate(x, x[:cols], "valid")
    steps[1:] = increments(x[cols:]) - increments(x[:m])
    return _skew(np.cumsum(steps, axis=0))[:, :window].T
