"""Cyclic-prefix frequency-domain equivalent channel and block rate rules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .channel import ChannelRealization, LinkSinrs, gather_relay
from .model import SYNCHRONOUS, SystemConfig


@dataclass(frozen=True)
class BinSpectrum:
    """Per-bin SINRs gamma_i = |lam_i|^2 and the tap vector they come from.

    taps holds the taps at lags 0..D (D < T) zero-padded to the length n < T
    the spectrum was formed at; where it was formed at T instead, the taps
    were transformed in place and taps holds lam itself.  lam, the complex
    per-bin gains, is formed on first read and kept.  The rate reads gamma
    only.  A spectrum formed in a SpectrumWork or an out= buffer, as an
    estimate's chunks are, is valid only until the next chunk: read lam
    before then.
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


def _autocorrelation_length(cfg: SystemConfig) -> tuple[int, int]:
    # (span, n): D, the largest delay mod T, and the transform length of the taps
    span = max((d % cfg.block_len for d in cfg.delays), default=0)
    return span, min(1 << (2 * span).bit_length(), cfg.block_len)


class SpectrumWork(NamedTuple):
    """Scratch lambda_spectrum forms spectra in: the taps (..., n) and, where
    n < T, their transform (..., n) and the autocorrelation half-spectrum
    (..., T//2+1), whose lags past D stay zero."""

    taps: np.ndarray
    transform: np.ndarray | None
    half: np.ndarray | None


def _work_widths(cfg: SystemConfig) -> tuple[int, ...]:
    # complex entries per trial of each SpectrumWork array
    n = _autocorrelation_length(cfg)[1]
    return (n,) if n == cfg.block_len else (n, n, cfg.block_len // 2 + 1)


def spectrum_work_slots(cfg: SystemConfig) -> int:
    """float64 slots per trial of a SpectrumWork, two per complex entry."""
    return 2 * sum(_work_widths(cfg))


def spectrum_work(cfg: SystemConfig, batch: tuple, out: np.ndarray | None = None) -> SpectrumWork:
    """Scratch for lambda_spectrum over batches of shape batch, or of shape
    (size,), size <= batch[0], which use its leading rows.  out, a flat
    float64 array of at least prod(batch) * spectrum_work_slots(cfg)
    elements, holds it instead of a new array, each array in a contiguous
    block of its own; the half-spectrum is zeroed here, once, and its lags
    past D stay zero."""
    rows = math.prod(batch)
    if out is None:
        out = np.empty(rows * spectrum_work_slots(cfg))
    flat, arrays = out[:rows * spectrum_work_slots(cfg)].view(complex), []
    for width in _work_widths(cfg):
        arrays.append(flat[:rows * width].reshape(batch + (width,)))
        flat = flat[rows * width:]
    if len(arrays) == 1:
        return SpectrumWork(arrays[0], None, None)
    arrays[2].fill(0.0)
    return SpectrumWork(*arrays)


def lambda_spectrum(real: ChannelRealization, mask: np.ndarray, cfg: SystemConfig,
                    relay_power, out: np.ndarray | None = None,
                    work: SpectrumWork | None = None) -> BinSpectrum:
    """Per-bin SINRs gamma_i = |lam_i|^2 of the combined direct-plus-relays channel.

    lam_i = sqrt(P_S) h_sd + sum_{k in mask} sqrt(P_R) h_rd_k e^{-j2pi i tau_k/T}.

    The cyclic prefix makes the block channel circulant, so lam is the DFT of
    its tap vector: sqrt(P_S) h_sd at lag 0 plus each relay's sqrt(P_R) h_rd_k
    added, in index order, at lag tau_k mod T (equal delays accumulate).
    gamma is then the length-T DFT of the taps' autocorrelation r, which
    spans lags -D..D only, D the largest delay mod T.  So the taps are
    transformed at the smallest power of two n >= 2D+1, r = ifft(|fft(taps)|^2)
    is exact there at lags 0..D, and gamma comes from those lags, zero-padded
    to the T//2+1 lags of a real-output transform, by one irfft; no complex
    T-bin spectrum is formed.  Where that n would not be below T, the taps
    are transformed in place at T and |lam|^2 is gamma itself, non-negative
    and to the ulp of each bin.  Else gamma is accurate to a few tens of ulp
    of r_0 = sum |tap|^2, its bin mean, not to the ulp of each bin: near a
    spectral null it is not >= 0 by construction and can fall a few ulp
    below zero.

    mask is the boolean forwarding set, shaped like real.h_rd; relays outside
    it contribute exactly zero, and an empty mask leaves the flat direct-only
    spectrum.  Taps are built column by column and every transform works on
    each row on its own, so every batch row agrees bit for bit with the same
    realization evaluated alone or in a batch of any size.  out, a
    C-contiguous float array shaped like gamma, receives gamma instead of a
    new array; its old contents are overwritten.  work, from
    spectrum_work(cfg, (rows,)), holds the taps and transform scratch of a
    batch of shape (size,), size <= rows, in its leading rows instead of new
    arrays; the spectrum's taps are then valid only until work is next used,
    in an estimate until its next chunk.
    """
    _check_mask(mask, real.h_rd)
    t_len = cfg.block_len
    span, n = _autocorrelation_length(cfg)
    coef = np.sqrt(np.asarray(relay_power))[..., None] * real.h_rd * mask
    base = np.sqrt(cfg.p_source) * real.h_sd
    batch = np.shape(base)
    taps, f, half = spectrum_work(cfg, batch) if work is None else (
        a if a is None else a[:batch[0]] for a in work)
    taps.fill(0.0)
    taps[..., 0] = base
    for k, delay in enumerate(cfg.delays):
        taps[..., delay % t_len] += coef[..., k]
    if n == t_len:                      # circular: |lam|^2 is gamma itself
        lam = np.fft.fft(taps, axis=-1, out=taps)
        gamma = np.multiply(lam.real, lam.real, out=out)
        gamma += lam.imag * lam.imag
        return BinSpectrum(gamma, lam)
    f = np.fft.fft(taps, axis=-1, out=f)
    power = f.real * f.real
    power += f.imag * f.imag
    r = np.fft.ifft(power, axis=-1, out=f)[..., :span + 1]
    np.conjugate(r, out=half[..., :span + 1])
    # hfft(r, n=T) is the same transform, but numpy's hfft ignores its out=
    gamma = np.fft.irfft(half, n=t_len, axis=-1, norm="forward", out=out)
    return BinSpectrum(gamma, taps)


def exact_rate(spec: BinSpectrum, cfg: SystemConfig, out: np.ndarray | None = None):
    """Achievable rate of the equalized block: sum_i log2(1+gamma_i)/(T+cp);
    log2(1+gamma) is formed in place, in out (spec.gamma allowed) if given."""
    terms = np.add(1.0, spec.gamma, out=out)
    return np.log2(terms, out=terms).sum(axis=-1) / (cfg.block_len + cfg.cp_len)


def approx_rate(sinrs: LinkSinrs, mask: np.ndarray, cfg: SystemConfig, chosen=None):
    """High-SNR flat approximation of the block rate.

    Asynchronous relaying adds per-relay SNRs (the oscillating cross terms
    cancel across bins for staggered delays); synchronous relaying combines
    the relay amplitudes coherently first, from the h_rd of sinrs.real.

    chosen, an integer array of the batch shape, names a selection scheme's
    one candidate relay per trial; mask is then of the batch shape too and
    says whether that relay forwards.  Its link is gathered rather than
    summed over the relay axis, which is the same number: a masked row sum
    adds only zeros to it.
    """
    if chosen is None:
        _check_mask(mask, sinrs.real.h2_rd)
        forwarded = lambda a: (a * mask).sum(axis=-1)
    else:
        _check_mask(mask, np.asarray(chosen))
        forwarded = lambda a: gather_relay(a, chosen) * mask
    if cfg.sync_mode == SYNCHRONOUS:
        h_sum = forwarded(sinrs.real.h_rd)
        relayed = sinrs.relay_tx_power * (h_sum.real * h_sum.real + h_sum.imag * h_sum.imag)
    else:
        relayed = forwarded(sinrs.g_rd)
    total = sinrs.g_sd + relayed
    return (cfg.block_len / (cfg.block_len + cfg.cp_len)) * np.log2(1.0 + total)
