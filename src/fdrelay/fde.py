"""Cyclic-prefix frequency-domain equivalent channel and block rate rules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import FRESH, ChannelRealization, LinkSinrs, Scratch, gather_relay
from .model import SYNCHRONOUS, SystemConfig


@dataclass(frozen=True)
class BinSpectrum:
    """Per-bin SINRs gamma_i = |lam_i|^2 and the complex per-bin gains lam.

    The rate reads gamma only.  A spectrum formed in an estimate's scratch
    is valid until that scratch is rewound, at the next chunk or group.
    """

    gamma: np.ndarray                   # (..., T) real
    lam: np.ndarray                     # (..., T) complex


def _check_mask(mask, relays) -> None:
    # an int array or an index tuple would act as per-relay weights
    if not (isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == relays.shape):
        raise ValueError("decode mask must be a boolean array shaped like the relay axis")


def _bound_transform_length(cfg: SystemConfig) -> int:
    # rate_bounds' transform length: the smallest power of two n >= 2D+1, D
    # the largest delay mod T, or T where n would not be below T
    span = max((d % cfg.block_len for d in cfg.delays), default=0)
    return min(1 << (2 * span).bit_length(), cfg.block_len)


def bound_slots(cfg: SystemConfig) -> int:
    """float64 slots per trial a bound stage takes, each stage the same
    slots again: rate_bounds takes two per complex tap plus one of alignment
    padding for the taps, transformed in place at its transform length n,
    and n for their |F|^2; amplitude_bounds fits in them (n real taps and
    the n//2+1 complex bins of their real transform)."""
    return 3 * _bound_transform_length(cfg) + 1


def spectrum_slots(cfg: SystemConfig) -> int:
    """float64 slots per trial lambda_spectrum takes: two per complex tap
    plus one of alignment padding for the taps, transformed in place into
    lam, T for gamma and T for the im^2 it adds."""
    return 4 * cfg.block_len + 1


def _taps(base, coef, mask: np.ndarray, cfg: SystemConfig, n: int, scratch: Scratch) -> np.ndarray:
    # base at lag 0 plus each relay's coef (a column of the relay axis) added
    # where mask holds it, in index order, at lag tau_k mod T, column by
    # column into a (..., n) take of base's dtype
    _check_mask(mask, coef)
    t_len = cfg.block_len
    taps = scratch.take(np.shape(base) + (n,), base.dtype)
    taps.fill(0.0)
    taps[..., 0] = base
    np.multiply(coef, mask, out=coef)
    for k, delay in enumerate(cfg.delays):
        taps[..., delay % t_len] += coef[..., k]
    return taps


def _complex_taps(real: ChannelRealization, mask: np.ndarray, cfg: SystemConfig, relay_power,
                  n: int, scratch: Scratch) -> np.ndarray:
    # sqrt(P_S) h_sd at lag 0 plus each relay's sqrt(P_R) h_rd_k at lag tau_k mod T
    coef = np.sqrt(np.asarray(relay_power))[..., None] * real.h_rd
    return _taps(np.sqrt(cfg.p_source) * real.h_sd, coef, mask, cfg, n, scratch)


def lambda_spectrum(real: ChannelRealization, mask: np.ndarray, cfg: SystemConfig,
                    relay_power, scratch: Scratch = FRESH) -> BinSpectrum:
    """Per-bin SINRs gamma_i = |lam_i|^2 of the combined direct-plus-relays channel.

    lam_i = sqrt(P_S) h_sd + sum_{k in mask} sqrt(P_R) h_rd_k e^{-j2pi i tau_k/T}.

    The cyclic prefix makes the block channel circulant, so lam is the DFT of
    its tap vector: sqrt(P_S) h_sd at lag 0 plus each relay's sqrt(P_R) h_rd_k
    added, in index order, at lag tau_k mod T (equal delays accumulate: only
    direct callers, such as exact_rate_two_tap's oracle, reach that path).
    The taps are transformed in place at T into lam, and gamma is re^2 + im^2
    of that one transform: |lam|^2 to the rounding of each bin, never negative.
    lam stays readable, so im^2 is formed in a take of its own.

    mask is the boolean forwarding set, shaped like real.h_rd; relays outside
    it contribute exactly zero, and an empty mask leaves the flat direct-only
    spectrum.  Taps are built column by column and the transform works on
    each row on its own, so every batch row agrees bit for bit with the same
    realization evaluated alone or in a batch of any size.  The taps, gamma
    and im^2 are taken from scratch, and each is written in full on every call.
    """
    taps = _complex_taps(real, mask, cfg, relay_power, cfg.block_len, scratch)
    lam = np.fft.fft(taps, axis=-1, out=taps)
    gamma = np.multiply(lam.real, lam.real, out=scratch.take(lam.shape))
    gamma += np.multiply(lam.imag, lam.imag, out=scratch.take(lam.shape))
    return BinSpectrum(gamma, lam)


# the bounds' margin per unit of 1 + r_0, far more than the rounding of the
# spectrum, its log2 terms and the bounds themselves
RATE_SLACK = 2.0 ** -30


def _bounds(taps: np.ndarray, transform, f: np.ndarray, power: np.ndarray, cfg: SystemConfig):
    # (lower, upper) from two moments of |F|^2, F = transform(taps) along
    # the last axis written into f: fft's n bins, or rfft's leading m, the
    # others mirroring bins n-m..1; all n bins of |F|^2 are formed in power,
    # of the taps' shape.  Each moment is one einsum over its own row, a sum
    # whose bits do not depend on the batch (a BLAS product's would)
    n, m = taps.shape[-1], f.shape[-1]
    transform(taps, axis=-1, out=f)
    parts = np.square(f.view(float), out=f.view(float))    # re^2 and im^2 of each bin
    np.add(parts[..., 0::2], parts[..., 1::2], out=power[..., :m])
    power[..., m:] = power[..., n - m:0:-1]
    mu = np.einsum("...i->...", power) / n
    power *= (1.0 / np.where(mu > 0.0, mu, 1.0))[..., None]
    s = np.maximum(np.einsum("...i->...", np.square(power, out=power)) / n, 1.0)
    scale, one_mu = cfg.block_len / (cfg.block_len + cfg.cp_len), 1.0 + mu
    slack = RATE_SLACK * one_mu
    lower = scale * np.log2(1.0 + mu * s) / s - slack
    upper = scale * np.log2(one_mu) + slack
    return np.where(lower < np.inf, lower, -np.inf), np.where(upper > -np.inf, upper, np.inf)


def rate_bounds(real: ChannelRealization, mask: np.ndarray, cfg: SystemConfig,
                relay_power, scratch: Scratch = FRESH) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) per trial, between which exact_rate(lambda_spectrum(real,
    mask, cfg, relay_power)) lies, read from two moments of the bins alone:
    no T-bin spectrum is formed.

    The taps are transformed at the smallest power of two n >= 2D+1, D the
    largest delay mod T (at T where n would not be below T), F = fft(taps).
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
    nothing.  Each moment is a sum over its own row (einsum, no BLAS), so a
    row's bounds are the same bits alone or in a batch of any size.  The
    taps, transformed in place, and |F|^2 are taken from scratch.
    amplitude_bounds forms the same bounds, through the same
    transform-and-moments kernel, with every tap's phase aligned.
    """
    taps = _complex_taps(real, mask, cfg, relay_power, _bound_transform_length(cfg), scratch)
    return _bounds(taps, np.fft.fft, taps, scratch.take(taps.shape), cfg)


def amplitude_bounds(real: ChannelRealization, mask: np.ndarray, cfg: SystemConfig,
                     relay_power, scratch: Scratch = FRESH) -> tuple[np.ndarray, np.ndarray]:
    """rate_bounds' bounds with every tap's phase aligned: the same formula
    on the real amplitudes sqrt(P |h|^2) at the taps' lags, from the powers
    alone, with no phase plane and no complex gain.

    mu, sum_k |a_k|^2, is the phased bounds' mu, so the upper bound is
    theirs to the rounding.  Every lag l of the amplitudes' autocorrelation
    is sum_k |a_k||a_{k+l}| >= |r_l|, so s can only grow, and log2(1+mu s)/s
    falls as s grows: the lower bound is at or below the phased one, and
    both still hold the spectrum's rate.  That needs each tap at a lag of
    its own, as asynchronous delays are (distinct and nonzero mod T); taps
    at one lag would add their amplitudes.  The real taps are transformed
    by rfft at rate_bounds' length n, whose n//2+1 bins stand for all n,
    into a complex take, and |F|^2 is formed in the taps' take.
    """
    n = _bound_transform_length(cfg)
    f = scratch.take(np.shape(real.h2_sd) + (n // 2 + 1,), complex)
    coef = np.multiply(np.asarray(relay_power)[..., None], real.h2_rd)
    taps = _taps(np.sqrt(cfg.p_source * real.h2_sd), np.sqrt(coef, out=coef), mask, cfg, n,
                 scratch)
    return _bounds(taps, np.fft.rfft, f, taps, cfg)


def exact_rate(spec: BinSpectrum, cfg: SystemConfig, out: np.ndarray | None = None):
    """Achievable rate of the equalized block: sum_i log2(1+gamma_i)/(T+cp);
    log2(1+gamma) is formed in place, in out (spec.gamma allowed) if given."""
    terms = np.add(1.0, spec.gamma, out=out)
    return np.log2(terms, out=terms).sum(axis=-1) / (cfg.block_len + cfg.cp_len)


def _relayed_tap(sinrs: LinkSinrs, mask: np.ndarray, chosen):
    # (relayed power, relay at whose delay that one tap sits) of a two-tap
    # block: a selection's chosen relay, its g_rd where it forwards, or
    # synchronous multi's relays at relay 0's delay, which they all share,
    # P_R |h_sum|^2, h_sum the forwarders' h_rd by numpy's C-order row sum
    if chosen is not None:
        _check_mask(mask, np.asarray(chosen))
        return gather_relay(sinrs.g_rd, chosen) * mask, chosen
    _check_mask(mask, sinrs.real.h2_rd)
    h_sum = np.multiply(sinrs.real.h_rd, np.ascontiguousarray(mask), order="C").sum(axis=-1)
    return sinrs.relay_tx_power * (h_sum.real * h_sum.real + h_sum.imag * h_sum.imag), 0


# exact_rate_two_tap forms (-rho)^M and its cosine only where rho^M may reach
# 2^R_FLOOR_EXP: a term below 2^-55 leaves its log2 argument exactly 1
R_FLOOR_EXP = -56.0


def exact_rate_two_tap(sinrs: LinkSinrs, forwards: np.ndarray, cfg: SystemConfig, chosen=None):
    """exact_rate of a block with one relayed tap, in closed form per trial:
    no taps or spectrum is formed.  The arguments are approx_rate's.

    Given chosen (a selection scheme), the relayed tap is that relay's, of
    power g_rd * forwards; else (synchronous multi, whose relays share one
    delay) it is P_R |h_sum|^2, h_sum the forwarding relays' h_rd summed as
    approx_rate sums them.  With p = sqrt(g_sd), q the relayed amplitude,
    x = 1 + g_sd + q^2 (approx_rate's total, the same operands), y = 2pq
    and phi the relative phase of the two taps, bin i has 1 + gamma_i =
    x + y cos(a_i), a_i = phi - 2pi i d/T, d the relayed delay mod T.
    That is c (1 + 2 rho cos(a_i) + rho^2) with s = sqrt(x^2 -
    y^2) = sqrt(1+(p-q)^2) sqrt(1+(p+q)^2) (no cancellation or overflow),
    rho = y/(x+s) < 1 and c = (x+s)/2, formed as x - y rho/2 so that a trial
    with no relayed power gets approx_rate's flat rate bit for bit.  Over
    the T bins a_i takes each of the M = T/gcd(d, T) angles phi + 2pi k/M
    (mod 2pi) gcd(d, T) times, and the finite product
    prod_{k<M} (1 + 2 rho cos(phi + 2pi k/M) + rho^2) = 1 - 2(-rho)^M cos(M phi)
    + rho^2M (Gradshteyn & Ryzhik, 1.39), so

        sum_i log2(1 + gamma_i) = T (log2 c + log2(1 - 2(-rho)^M cos(M phi) + rho^2M)/M),

    exactly; the rate is that over T + cp.  phi enters only as M phi mod
    2pi, taken as 2pi times a turn.  The direct tap's phase is uniform and
    independent of the powers, of the relays' gains, of the mask and of the
    pick, so phi and its turn are too: every block's turn is the
    realization's turn, plane 0's spare uniform, so the rate reads no
    direct-link phase, and a selection's no phase plane.  (-rho)^M and
    cos(M phi) are formed only on the rows where rho >= 2^(R_FLOOR_EXP/M)
    (a masked ufunc, so every array has the batch's shape); below, |rho^M|
    < 2^-55 and 1 - 2(-rho)^M cos(M phi) + rho^2M rounds to 1 exactly, so
    r = 0 and a zero cosine there give w = 1, log2 w = 0 and the same bits.
    Every step is elementwise or approx_rate's row sum, so a trial's rate
    is the same bits alone or in a batch of any size.
    """
    relayed, relay = _relayed_tap(sinrs, forwards, chosen)
    t_len = cfg.block_len
    m = t_len // np.gcd([d % t_len for d in cfg.delays], t_len)
    m, least = m[relay], np.exp2(R_FLOOR_EXP / m)[relay]
    x = 1.0 + (sinrs.g_sd + relayed)
    p, q = np.sqrt(sinrs.g_sd), np.sqrt(relayed)
    y = 2.0 * p * q
    s = np.sqrt(1.0 + np.square(p - q)) * np.sqrt(1.0 + np.square(p + q))
    rho = y / (x + s)
    c = x - 0.5 * y * rho
    band = rho >= least
    r = np.power(np.negative(rho), m, out=np.zeros_like(rho), where=band)
    w = np.cos((2.0 * np.pi) * sinrs.real.turn, out=np.zeros_like(rho), where=band)
    w = 1.0 - 2.0 * r * w + r * r
    return (t_len / (t_len + cfg.cp_len)) * (np.log2(c) + np.log2(w) / m)


def approx_rate(sinrs: LinkSinrs, mask: np.ndarray, cfg: SystemConfig, chosen=None):
    """High-SNR flat approximation of the block rate.

    Asynchronous multi-relaying adds per-relay SNRs (the oscillating cross
    terms cancel across bins for staggered delays), relay by relay in index
    order, one pass per relay column (contiguous in relay-major SINRs), or,
    for a batch of fewer trials than relays, by np.add.accumulate along each
    row, which adds in the same order.  A block with one relayed tap adds
    that tap's power, as exact_rate_two_tap reads it: synchronous multi
    combines the relay amplitudes coherently first, from the h_rd of
    sinrs.real, by numpy's sum over each C-order row, and a selection
    scheme's one relay, its own coherent sum, has its g_rd gathered in
    either mode, the same number as a masked row sum, which adds only zeros
    to it.  Every order is fixed by the code, not by the batch, so a trial's
    rate is the same bits alone or in a chunk of any size.

    chosen, an integer array of the batch shape, names a selection scheme's
    one candidate relay per trial; mask is then of the batch shape too and
    says whether that relay forwards.
    """
    if chosen is not None or cfg.sync_mode == SYNCHRONOUS:
        relayed = _relayed_tap(sinrs, mask, chosen)[0]
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
