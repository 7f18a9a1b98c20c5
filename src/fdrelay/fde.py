"""Cyclic-prefix frequency-domain equivalent channel and block rate rules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, LinkSinrs
from .model import SYNCHRONOUS, SystemConfig
from .sfun import abs2


@dataclass(frozen=True)
class BinSpectrum:
    """Per-bin equivalent gains lam_i and SINRs gamma_i = |lam_i|^2."""

    lam: np.ndarray                     # (..., T) complex
    gamma: np.ndarray                   # (..., T) real, >= 0


def _check_mask(mask, relays) -> None:
    # an int array or an index tuple would act as per-relay weights
    if not (isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == relays.shape):
        raise ValueError("decode mask must be a boolean array shaped like the relay axis")


def lambda_spectrum(real: ChannelRealization, mask: np.ndarray, cfg: SystemConfig,
                    relay_power, out: BinSpectrum | None = None) -> BinSpectrum:
    """Equivalent per-bin gains of the combined direct-plus-relays channel.

    lam_i = sqrt(P_S) h_sd + sum_{k in mask} sqrt(P_R) h_rd_k e^{-j2pi i tau_k/T}.

    The cyclic prefix makes the block channel circulant, so lam is the FFT of
    its tap vector: sqrt(P_S) h_sd at lag 0 plus each relay's sqrt(P_R) h_rd_k
    added, in index order, at lag tau_k mod T (equal delays accumulate).
    mask is the boolean forwarding set, shaped like real.h_rd; relays outside
    it contribute exactly zero, and an empty mask leaves the flat direct-only
    spectrum.  Taps are built column by column and the FFT transforms each
    row on its own, so every batch row agrees bit for bit with the same
    realization evaluated alone or in a batch of any size.  out, a BinSpectrum
    of C-contiguous buffers shaped like the result, receives lam and gamma
    instead of new arrays; its old contents are overwritten.
    """
    _check_mask(mask, real.h_rd)
    t_len = cfg.block_len
    coef = np.sqrt(np.asarray(relay_power))[..., None] * real.h_rd * mask
    base = np.sqrt(cfg.p_source) * real.h_sd
    taps = np.empty(np.shape(base) + (t_len,), dtype=complex) if out is None else out.lam
    taps.fill(0.0)
    taps[..., 0] = base
    for k, delay in enumerate(cfg.delays):
        taps[..., delay % t_len] += coef[..., k]
    lam = np.fft.fft(taps, axis=-1, out=taps)
    return BinSpectrum(lam, abs2(lam, out=None if out is None else out.gamma))


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
        relayed = sinrs.relay_tx_power * abs2(h_sum)
    else:
        relayed = (sinrs.g_rd * mask).sum(axis=-1)
    total = sinrs.g_sd + relayed
    return (cfg.block_len / (cfg.block_len + cfg.cp_len)) * np.log2(1.0 + total)
