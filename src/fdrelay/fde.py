"""Cyclic-prefix frequency-domain equivalent channel and block rate rules."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import FRESH, ChannelRealization, LinkSinrs, Scratch, gather_relay
from .model import SYNCHRONOUS, SystemConfig


@dataclass(frozen=True)
class BinSpectrum:
    """Per-bin SINRs gamma_i = |lam_i|^2 and the tap vector they come from.

    taps holds the taps at lags 0..D (D < T) zero-padded to the length n < T
    the spectrum was formed at; where it was formed at T instead, the taps
    were transformed in place and taps holds lam itself.  lam, the complex
    per-bin gains, is formed on first read and kept.  The rate reads gamma
    only.  A spectrum formed in an estimate's scratch is valid only until
    the next chunk: read lam before then.
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


def spectrum_slots(cfg: SystemConfig) -> int:
    """float64 slots per trial lambda_spectrum and rate_bounds take for
    asynchronous multi under exact MI: gamma, then two per complex entry plus
    one of alignment padding for each of the taps and, where n < T, their
    transform and the T//2+1 half-spectrum; and the bounds' taps, transformed
    in place, and their |F|^2."""
    t_len, n = cfg.block_len, _autocorrelation_length(cfg)[1]
    widths = (n,) if n == t_len else (n, n, t_len // 2 + 1)
    return t_len + sum(2 * width + 1 for width in widths) + 3 * n + 1


def _taps(real: ChannelRealization, mask: np.ndarray, cfg: SystemConfig, relay_power,
          n: int, scratch: Scratch) -> np.ndarray:
    # sqrt(P_S) h_sd at lag 0 plus each relay's sqrt(P_R) h_rd_k added, in
    # index order, at lag tau_k mod T, column by column into a (..., n) take
    _check_mask(mask, real.h2_rd)
    t_len = cfg.block_len
    base = np.sqrt(cfg.p_source) * real.h_sd
    taps = scratch.take(np.shape(base) + (n,), complex)
    taps.fill(0.0)
    taps[..., 0] = base
    coef = np.sqrt(np.asarray(relay_power))[..., None] * real.h_rd * mask
    for k, delay in enumerate(cfg.delays):
        taps[..., delay % t_len] += coef[..., k]
    return taps


def lambda_spectrum(real: ChannelRealization, mask: np.ndarray, cfg: SystemConfig,
                    relay_power, scratch: Scratch = FRESH) -> BinSpectrum:
    """Per-bin SINRs gamma_i = |lam_i|^2 of the combined direct-plus-relays channel.

    lam_i = sqrt(P_S) h_sd + sum_{k in mask} sqrt(P_R) h_rd_k e^{-j2pi i tau_k/T}.

    The cyclic prefix makes the block channel circulant, so lam is the DFT of
    its tap vector: sqrt(P_S) h_sd at lag 0 plus each relay's sqrt(P_R) h_rd_k
    added, in index order, at lag tau_k mod T (equal delays accumulate: only
    direct callers, such as exact_rate_two_tap's oracle, reach that path).
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
    realization evaluated alone or in a batch of any size.  gamma, the taps,
    their transform and the half-spectrum are taken from scratch, and each
    is written in full, the half-spectrum's lags past D zeroed, on every call.
    """
    t_len = cfg.block_len
    span, n = _autocorrelation_length(cfg)
    taps = _taps(real, mask, cfg, relay_power, n, scratch)
    batch = taps.shape[:-1]
    if n == t_len:                      # circular: |lam|^2 is gamma itself
        lam = np.fft.fft(taps, axis=-1, out=taps)
        gamma = np.multiply(lam.real, lam.real, out=scratch.take(batch + (t_len,)))
        gamma += lam.imag * lam.imag
        return BinSpectrum(gamma, lam)
    f = np.fft.fft(taps, axis=-1, out=scratch.take(batch + (n,), complex))
    power = f.real * f.real
    power += f.imag * f.imag
    r = np.fft.ifft(power, axis=-1, out=f)[..., :span + 1]
    half = scratch.take(batch + (t_len // 2 + 1,), complex)
    np.conjugate(r, out=half[..., :span + 1])
    half[..., span + 1:] = 0
    # hfft(r, n=T) is the same transform, but numpy's hfft ignores its out=
    gamma = np.fft.irfft(half, n=t_len, axis=-1, norm="forward",
                         out=scratch.take(batch + (t_len,)))
    return BinSpectrum(gamma, taps)


# the bounds' margin per unit of 1 + r_0, many times the few tens of ulp of
# r_0 by which a bin, and so its log2 term, can stray in the spectrum
RATE_SLACK = 2.0 ** -30


def rate_bounds(real: ChannelRealization, mask: np.ndarray, cfg: SystemConfig,
                relay_power, scratch: Scratch = FRESH) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) per trial, between which exact_rate(lambda_spectrum(real,
    mask, cfg, relay_power)) lies, read from two moments of the bins alone:
    no T-bin spectrum is formed.

    The taps are transformed at lambda_spectrum's length n, F = fft(taps).
    mu = mean |F|^2 is r_0, the bins' mean, and s = mean((|F|^2/mu)^2) is
    mean(gamma_i^2)/mu^2 (Parseval over the lags -D..D, as n >= 2D+1; where
    n = T, |F|^2 is gamma itself).  log2(1+x) is concave, so the bins' mean
    of it is at most log2(1+mu) (Jensen); its third derivative is positive,
    so it lies on or above the quadratic through 0 that touches it at
    b = mu s, and a mean of it over bins of mean mu and mean square mu^2 s is
    at least log2(1+b)/s (the two-moment extremal bound; Karlin & Studden,
    Tchebycheff Systems, 1966).  Times T/(T+cp), each is widened by
    RATE_SLACK (1 + mu), far more than the rounding of the spectrum, the
    rate and the bounds, so the computed rate lies within them bit for bit.
    A row with mu = 0 gets s = 1 and a lower bound of minus the slack; a
    non-finite bound is returned as -inf (lower) or +inf (upper) and decides
    nothing.  The taps, transformed in place, and |F|^2 are taken from scratch.
    """
    taps = _taps(real, mask, cfg, relay_power, _autocorrelation_length(cfg)[1], scratch)
    f = np.fft.fft(taps, axis=-1, out=taps)
    power = np.multiply(f.real, f.real, out=scratch.take(taps.shape))
    power += f.imag * f.imag
    mu = power.mean(axis=-1)
    power /= np.where(mu > 0.0, mu, 1.0)[..., None]
    s = np.maximum(np.square(power, out=power).mean(axis=-1), 1.0)
    scale, slack = cfg.block_len / (cfg.block_len + cfg.cp_len), RATE_SLACK * (1.0 + mu)
    lower = scale * np.log2(1.0 + mu * s) / s - slack
    upper = scale * np.log2(1.0 + mu) + slack
    return np.where(lower < np.inf, lower, -np.inf), np.where(upper > -np.inf, upper, np.inf)


def exact_rate(spec: BinSpectrum, cfg: SystemConfig, out: np.ndarray | None = None):
    """Achievable rate of the equalized block: sum_i log2(1+gamma_i)/(T+cp);
    log2(1+gamma) is formed in place, in out (spec.gamma allowed) if given."""
    terms = np.add(1.0, spec.gamma, out=out)
    return np.log2(terms, out=terms).sum(axis=-1) / (cfg.block_len + cfg.cp_len)


def _coherent_tap(sinrs: LinkSinrs, mask: np.ndarray):
    # (P_R |h_sum|^2, h_sum), h_sum the forwarders' h_rd by numpy's C-order row sum
    _check_mask(mask, sinrs.real.h2_rd)
    h_sum = np.multiply(sinrs.real.h_rd, np.ascontiguousarray(mask), order="C").sum(axis=-1)
    return sinrs.relay_tx_power * (h_sum.real * h_sum.real + h_sum.imag * h_sum.imag), h_sum


def exact_rate_two_tap(sinrs: LinkSinrs, forwards: np.ndarray, cfg: SystemConfig, chosen=None):
    """exact_rate of a block with one relayed tap, in closed form per trial:
    no taps or spectrum is formed.  The arguments are approx_rate's.

    Given chosen (a selection scheme), the relayed tap is that relay's, of
    power g_rd * forwards and phase uniform u1_rd; else (synchronous multi,
    whose relays share one delay) it is P_R |h_sum|^2, h_sum the forwarding
    relays' h_rd summed as approx_rate sums them, of phase angle(h_sum)/2pi;
    so it reads a drawn realization's phase uniforms.  With p = sqrt(g_sd),
    q the relayed amplitude, x = 1 + g_sd + q^2 (approx_rate's total, the
    same operands), y = 2pq and phi = 2pi(u1_sd - the relayed phase), bin i
    has 1 + gamma_i = x + y cos(a_i), a_i = phi - 2pi i d/T, d the relayed
    delay mod T.  That is c (1 + 2 rho cos(a_i) + rho^2) with s = sqrt(x^2 -
    y^2) = sqrt(1+(p-q)^2) sqrt(1+(p+q)^2) (no cancellation or overflow),
    rho = y/(x+s) < 1 and c = (x+s)/2, formed as x - y rho/2 so that a trial
    with no relayed power gets approx_rate's flat rate bit for bit.  Over
    the T bins a_i takes each of the M = T/gcd(d, T) angles phi + 2pi k/M
    (mod 2pi) gcd(d, T) times, and the finite product
    prod_{k<M} (1 + 2 rho cos(phi + 2pi k/M) + rho^2) = 1 - 2(-rho)^M cos(M phi)
    + rho^2M (Gradshteyn & Ryzhik, 1.39), so

        sum_i log2(1 + gamma_i) = T (log2 c + log2(1 - 2(-rho)^M cos(M phi) + rho^2M)/M),

    exactly; the rate is that over T + cp.  M phi is taken as 2pi frac(M
    (u1_sd - the relayed phase)).  Every step is elementwise or approx_rate's
    row sum, so a trial's rate is the same bits alone or in a batch of any size.
    """
    t_len = cfg.block_len
    m = t_len // np.gcd([d % t_len for d in cfg.delays], t_len)
    u_sd, _, u_rd = sinrs.real.phases
    if chosen is None:
        relayed, h_sum = _coherent_tap(sinrs, forwards)
        m, u_relay = m[0], np.angle(h_sum) / (2.0 * np.pi)
    else:
        _check_mask(forwards, np.asarray(chosen))
        relayed = gather_relay(sinrs.g_rd, chosen) * forwards
        m, u_relay = m[chosen], gather_relay(u_rd, chosen)
    x = 1.0 + (sinrs.g_sd + relayed)
    p, q = np.sqrt(sinrs.g_sd), np.sqrt(relayed)
    y = 2.0 * p * q
    s = np.sqrt(1.0 + np.square(p - q)) * np.sqrt(1.0 + np.square(p + q))
    rho = y / (x + s)
    c = x - 0.5 * y * rho
    turns = np.remainder(m * (u_sd - u_relay), 1.0)
    r = np.power(np.negative(rho), m)
    w = 1.0 - 2.0 * r * np.cos((2.0 * np.pi) * turns) + r * r
    return (t_len / (t_len + cfg.cp_len)) * (np.log2(c) + np.log2(w) / m)


def approx_rate(sinrs: LinkSinrs, mask: np.ndarray, cfg: SystemConfig, chosen=None):
    """High-SNR flat approximation of the block rate.

    Asynchronous relaying adds per-relay SNRs (the oscillating cross terms
    cancel across bins for staggered delays), relay by relay in index order,
    one pass per relay column (contiguous in relay-major SINRs), or, for a
    batch of fewer trials than relays, by np.add.accumulate along each row,
    which adds in the same order; synchronous
    relaying combines the relay amplitudes coherently first, from the h_rd
    of sinrs.real, by numpy's sum over each C-order row.  Either order is
    fixed by the code, not by the batch, so a trial's rate is the same bits
    alone or in a chunk of any size.

    chosen, an integer array of the batch shape, names a selection scheme's
    one candidate relay per trial; mask is then of the batch shape too and
    says whether that relay forwards.  One relay's coherent sum is its own
    SNR, so in either mode its g_rd is gathered and added, the same number
    as a masked row sum, which adds only zeros to it.
    """
    if chosen is not None:
        _check_mask(mask, np.asarray(chosen))
        relayed = gather_relay(sinrs.g_rd, chosen) * mask
    elif cfg.sync_mode == SYNCHRONOUS:
        relayed = _coherent_tap(sinrs, mask)[0]
    else:
        _check_mask(mask, sinrs.real.h2_rd)
        g_rd, n = sinrs.g_rd, mask.shape[-1]
        if mask.size < n * n:
            relayed = np.add.accumulate(g_rd * mask, axis=-1)[..., -1]
        else:
            relayed = g_rd[..., 0] * mask[..., 0]
            for k in range(1, n):
                relayed += g_rd[..., k] * mask[..., k]
    total = sinrs.g_sd + relayed
    return (cfg.block_len / (cfg.block_len + cfg.cp_len)) * np.log2(1.0 + total)
