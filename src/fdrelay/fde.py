"""Cyclic-prefix frequency-domain equivalent channel and block rate rules."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelRealization, LinkSinrs
from .model import SYNCHRONOUS, SystemConfig


@dataclass(frozen=True)
class BinSpectrum:
    """Per-bin SINRs gamma_i = |lam_i|^2 and the tap vector they come from.

    taps holds the taps at lags 0..D (D < T) zero-padded to the length n < T
    the spectrum was formed at; where it was formed at T instead, the taps
    were transformed in place and taps holds lam itself.  lam, the complex
    per-bin gains, is formed on first read and kept.  The rate reads gamma
    only.
    """

    gamma: np.ndarray                   # (..., T) real
    taps: np.ndarray                    # (..., n) complex: the taps if n < T, else lam

    @cached_property
    def lam(self) -> np.ndarray:
        t_len = self.gamma.shape[-1]
        if self.taps.shape[-1] == t_len:
            return self.taps
        return np.fft.fft(self.taps, n=t_len, axis=-1)


def _check_mask(mask, relays) -> None:
    # an int array or an index tuple would act as per-relay weights
    if not (isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == relays.shape):
        raise ValueError("decode mask must be a boolean array shaped like the relay axis")


def lambda_spectrum(real: ChannelRealization, mask: np.ndarray, cfg: SystemConfig,
                    relay_power, out: np.ndarray | None = None) -> BinSpectrum:
    """Per-bin SINRs gamma_i = |lam_i|^2 of the combined direct-plus-relays channel.

    lam_i = sqrt(P_S) h_sd + sum_{k in mask} sqrt(P_R) h_rd_k e^{-j2pi i tau_k/T}.

    The cyclic prefix makes the block channel circulant, so lam is the DFT of
    its tap vector: sqrt(P_S) h_sd at lag 0 plus each relay's sqrt(P_R) h_rd_k
    added, in index order, at lag tau_k mod T (equal delays accumulate).
    gamma is then the length-T DFT of the taps' autocorrelation r, which
    spans lags -D..D only, D the largest delay mod T.  So the taps are
    transformed at the smallest power of two n >= 2D+1, r = ifft(|fft(taps)|^2)
    is exact there at lags 0..D, and gamma comes from those lags by one
    real-output transform; no complex T-bin spectrum is formed.  Where that
    n would not be below T, the taps are transformed in place at T and
    |lam|^2 is gamma itself, non-negative and to the ulp of each bin.  Else
    gamma is accurate to a few tens of ulp of r_0 = sum |tap|^2, its bin
    mean, not to the ulp of each bin: near a spectral null it is not >= 0 by
    construction and can fall a few ulp below zero.

    mask is the boolean forwarding set, shaped like real.h_rd; relays outside
    it contribute exactly zero, and an empty mask leaves the flat direct-only
    spectrum.  Taps are built column by column and every transform works on
    each row on its own, so every batch row agrees bit for bit with the same
    realization evaluated alone or in a batch of any size.  out, a
    C-contiguous float array shaped like gamma, receives gamma instead of a
    new array; its old contents are overwritten.
    """
    _check_mask(mask, real.h_rd)
    t_len = cfg.block_len
    span = max((d % t_len for d in cfg.delays), default=0)
    n = min(1 << (2 * span).bit_length(), t_len)
    coef = np.sqrt(np.asarray(relay_power))[..., None] * real.h_rd * mask
    base = np.sqrt(cfg.p_source) * real.h_sd
    taps = np.zeros(np.shape(base) + (n,), dtype=complex)
    taps[..., 0] = base
    for k, delay in enumerate(cfg.delays):
        taps[..., delay % t_len] += coef[..., k]
    if n == t_len:                      # circular: |lam|^2 is gamma itself
        lam = np.fft.fft(taps, axis=-1, out=taps)
        gamma = np.multiply(lam.real, lam.real, out=out)
        gamma += lam.imag * lam.imag
        return BinSpectrum(gamma, lam)
    f = np.fft.fft(taps, axis=-1)
    power = f.real * f.real
    power += f.imag * f.imag
    r = np.fft.ifft(power, axis=-1, out=f)[..., :span + 1]
    # hfft(r, n=T) is the same transform, but numpy's hfft ignores its out=
    gamma = np.fft.irfft(np.conjugate(r, out=r), n=t_len, axis=-1, norm="forward", out=out)
    return BinSpectrum(gamma, taps)


def exact_rate(spec: BinSpectrum, cfg: SystemConfig, out: np.ndarray | None = None):
    """Achievable rate of the equalized block: sum_i log2(1+gamma_i)/(T+cp);
    log2(1+gamma) is formed in place, in out (spec.gamma allowed) if given."""
    terms = np.add(1.0, spec.gamma, out=out)
    return np.log2(terms, out=terms).sum(axis=-1) / (cfg.block_len + cfg.cp_len)


def approx_rate(sinrs: LinkSinrs, mask: np.ndarray, cfg: SystemConfig):
    """High-SNR flat approximation of the block rate.

    Asynchronous relaying adds per-relay SNRs (the oscillating cross terms
    cancel across bins for staggered delays); synchronous relaying combines
    the relay amplitudes coherently first, from the h_rd of sinrs.real.
    """
    _check_mask(mask, sinrs.g_rd)
    if cfg.sync_mode == SYNCHRONOUS:
        h_sum = (sinrs.real.h_rd * mask).sum(axis=-1)
        relayed = sinrs.relay_tx_power * (h_sum.real * h_sum.real + h_sum.imag * h_sum.imag)
    else:
        relayed = (sinrs.g_rd * mask).sum(axis=-1)
    total = sinrs.g_sd + relayed
    return (cfg.block_len / (cfg.block_len + cfg.cp_len)) * np.log2(1.0 + total)
