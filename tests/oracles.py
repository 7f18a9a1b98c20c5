"""Independent reference computations shared by the test modules."""

import math

import numpy as np

from fdrelay.analytic import TAIL_EPS
from fdrelay.channel import ChannelRealization, gather_relay
from fdrelay.model import FIXED_PER_RELAY, MI_EXACT, SCHEME_MULTI, SCHEME_OS, SYNCHRONOUS


def abs2(z):
    """Squared magnitude computed as re^2 + im^2, scalar or ndarray."""
    return z.real * z.real + z.imag * z.imag


def combine_by_enumeration(p_sd: float, p_sr: float, p_cond_by_size) -> float:
    """Total outage by walking all 2^N decode sets literally.

    Relay k decodes with probability 1 - p_sr, independently of the others;
    an empty set leaves the direct link (outage p_sd), and a set of size L
    fails with p_cond_by_size[L-1].  Exponential in N, so only for small N.
    """
    n = len(p_cond_by_size)
    total = 0.0
    for bits in range(1 << n):
        prob = 1.0
        size = 0
        for k in range(n):
            if bits >> k & 1:
                prob *= 1.0 - p_sr
                size += 1
            else:
                prob *= p_sr
        total += prob * (p_sd if size == 0 else p_cond_by_size[size - 1])
    return total


def combine_every_size(p_sd: float, p_sr: float, p_cond_by_size) -> float:
    """Binomial sum over every decode-set size L = 0..N, weights in floats.

    math.comb(N, L) turns into a float, so N is limited to about 1,000; each
    p_cond_by_size[L-1] enters however small its weight.
    """
    n = len(p_cond_by_size)
    total = p_sd * p_sr ** n
    for size in range(1, n + 1):
        w = math.comb(n, size) * (1.0 - p_sr) ** size * p_sr ** (n - size)
        total += w * p_cond_by_size[size - 1]
    return total


def top_down_sum_loop(n: int, x: float) -> float:
    """analytic._top_down_sum as one loop over both signs of x, |t| and |total|
    compared on every term: the form the library's sign split must match bit
    for bit, the same operations in the same order, stopping at the same term."""
    t = total = n / x
    ax = abs(x)
    for k in range(n - 1, 0, -1):
        if abs(t) * k <= TAIL_EPS * abs(total) * (ax - k):
            break
        t *= k / x
        total += t
    return total


def kummer_j_loop(n: int, x: float) -> float:
    """analytic.kummer_j with its series as one while loop over both signs
    of x, tested before each term; x <= -n goes through top_down_sum_loop."""
    if n == 1:
        return math.expm1(x) / x if x else 1.0
    if x <= -n:
        lead = math.exp(math.lgamma(n + 1) - n * math.log(-x) + x)
        return (-lead if n % 2 else lead) - top_down_sum_loop(n, x)
    t = total = 1.0
    k = n + 1
    while abs(t) > 1e-17 * total:
        t *= x / k
        total += t
        k += 1
    return total


def direct_spectrum(real, mask, cfg, relay_power):
    """Per-bin gains by summing each relay's phase ramp directly, O(T N).

    lam_i = sqrt(P_S) h_sd + sum_k mask_k sqrt(P_R) h_rd_k e^{-j2pi i tau_k/T},
    one exp phase vector per relay, added in index order.  Each phase i tau_k
    is reduced mod T in integers first, so no argument exceeds 2pi.
    """
    t_len = cfg.block_len
    coef = np.sqrt(np.asarray(relay_power))[..., None] * real.h_rd * mask
    base = np.sqrt(cfg.p_source) * real.h_sd
    i = np.arange(t_len)
    lam = np.zeros(np.shape(base) + (t_len,), dtype=complex)
    lam += np.asarray(base)[..., None]
    for k in range(cfg.n_relays):
        phase = np.exp((-2j * np.pi / t_len) * (cfg.delays[k] * i % t_len))
        lam += coef[..., k, None] * phase
    return lam


def polar_gains(u, variance):
    """Magnitudes and complex gains of uniform pairs u[..., 0:2] by the polar map.

    mag = sqrt(-variance*log1p(-u0)) and gain = mag*cos(2pi u1) + j*mag*sin(2pi u1),
    in this operation order, which is how every drawn gain was computed
    before realizations stored |h|^2; drawn gains must match it bit for bit.
    """
    mag = np.sqrt(-variance * np.log1p(-u[..., 0]))
    ang = (2.0 * np.pi) * u[..., 1]
    return mag, mag * np.cos(ang) + 1j * (mag * np.sin(ang))


def philox_planes(seed: int, trial: int, n_relays: int, size: int):
    """(u0, u1): the power and phase uniforms of trials trial.. read straight
    off Philox(key=seed), shaped (size, W).

    Each plane gives a trial W = 1+2N uniforms padded up to a multiple of 4
    (one counter block); trial t starts at block t*W/4, in plane 0 (counter
    word 2 is 0) for the powers and plane 1 (word 2 is 1, Philox's jump) for
    the phases.
    """
    width = 4 * -(-(1 + 2 * n_relays) // 4)
    return tuple(np.random.Generator(np.random.Philox(
        counter=[trial * width // 4, 0, plane, 0], key=seed)).random((size, width))
        for plane in (0, 1))


def simulate_trials(cfg, scheme: str, seed: int, trials: int) -> np.ndarray:
    """Block rates of trials 0..trials-1 at (seed, cfg, scheme), one trial at
    a time from the model README states; a trial is an outage where its rate
    is below cfg.rate.

    Uniforms come from philox_planes (Generator.random), gains from
    polar_gains and powers as -var*log1p(-u0).  The decode threshold is
    eta = 2^(R(T+cp)/T) - 1.  multi: relay k decodes where P_S|h_sr_k|^2 /
    (P_all (var_rsi + var_iri) + 1) >= eta, P_all the power of a relay when
    all N transmit, and the L that decode transmit at E_R/max(L, 1) each
    (E_R under the fixed policy).  os/ps: with every relay at E_R and no
    inter-relay interference, the first relay of largest min(g_sr, g_rd)
    (os) or g_sr (ps) is chosen, and forwards where it decodes.  The rate is
    T/(T+cp) log2(1 + P_S|h_sd|^2 + relayed), relayed the forwarders' P_R|h_rd|^2
    summed (multi, synchronous: P_R |sum h_rd|^2), under approximate MI, and
    sum_i log2(1 + |lam_i|^2)/(T+cp) under exact MI, lam_i = sqrt(P_S) h_sd +
    sum over forwarders of sqrt(P_R) h_rd_k e^{-j2pi i tau_k/T} by a direct
    DFT sum.  A block with one relayed tap (os/ps, or synchronous multi,
    whose relays share one delay d) has two taps, direct and relayed, which
    meet at a relative phase phi that the rate reads only as M phi mod 2pi,
    M = T/gcd(d, T) for the relayed delay d; that is 2pi times the trial's
    plane-0 uniform in slot 1+2N, the first padding slot, so under exact MI
    such a block takes h_sd = |h_sd| and turns every h_rd_k by the one phase
    that puts the forwarders' sum at angle -2pi u0[1+2N]/M_k.
    """
    n, t_len = cfg.n_relays, cfg.block_len
    width = 1 + 2 * n
    u0, u1 = philox_planes(seed, 0, n, trials)
    variance = np.repeat([cfg.var_sd, cfg.var_sr, cfg.var_rd], [1, n, n])
    eta = 2.0 ** (cfg.rate * (t_len + cfg.cp_len) / t_len) - 1.0
    scale = t_len / (t_len + cfg.cp_len)
    shares = cfg.relay_power_policy != FIXED_PER_RELAY
    ramps = np.exp(-2j * np.pi * (np.outer(cfg.delays, np.arange(t_len)) % t_len) / t_len)
    bins = t_len // np.gcd(np.asarray(cfg.delays) % t_len, t_len)
    rates = np.empty(trials)
    for t in range(trials):
        power = -variance * np.log1p(-u0[t, :width])
        gains = polar_gains(np.stack([u0[t, :width], u1[t, :width]], axis=-1), variance)[1]
        p_sd, p_sr, p_rd = power[0], power[1:1 + n], power[1 + n:]
        h_sd, h_rd = gains[0], gains[1 + n:]
        if scheme == SCHEME_MULTI:
            p_all = cfg.e_relay_budget / (n if shares else 1)
            g_sr = cfg.p_source * p_sr / (p_all * (cfg.var_rsi + cfg.var_iri) + 1.0)
            mask = g_sr >= eta
            p_r = cfg.e_relay_budget / (max(mask.sum(), 1) if shares else 1)
        else:
            p_r = cfg.e_relay_budget
            g_sr = cfg.p_source * p_sr / (p_r * cfg.var_rsi + 1.0)
            score = np.minimum(g_sr, p_r * p_rd) if scheme == SCHEME_OS else g_sr
            chosen = int(np.argmax(score))
            mask = (np.arange(n) == chosen) & (g_sr[chosen] >= eta)
        if cfg.mi_mode == MI_EXACT and (scheme != SCHEME_MULTI or cfg.sync_mode == SYNCHRONOUS):
            phase = np.angle(h_rd[mask].sum()) + 2.0 * np.pi * u0[t, width] / bins
            h_sd, h_rd = np.sqrt(p_sd), h_rd * np.exp(-1j * phase)
        if cfg.mi_mode == MI_EXACT:
            lam = np.sqrt(cfg.p_source) * h_sd + (np.sqrt(p_r) * h_rd * mask) @ ramps
            rates[t] = np.log2(1.0 + abs2(lam)).sum() / (t_len + cfg.cp_len)
            continue
        if scheme == SCHEME_MULTI and cfg.sync_mode == SYNCHRONOUS:
            relayed = p_r * abs2(h_rd[mask].sum())
        else:
            relayed = p_r * p_rd[mask].sum()
        rates[t] = scale * np.log2(1.0 + cfg.p_source * p_sd + relayed)
    return rates


def one_hot(chosen, forwards, n_relays: int) -> np.ndarray:
    """A selection scheme's forwarding mask over the relay axis: each trial's
    chosen relay where it forwards, no relay where it does not."""
    return (np.arange(n_relays) == np.asarray(chosen)[..., None]) & np.asarray(forwards)[..., None]


def from_gains(h_sd, h_sr, h_rd) -> ChannelRealization:
    """Realization of given complex gains, with powers abs2(h).

    The gains are stored where the realization keeps the gains it builds
    from phase uniforms on first read, so they are returned as given.
    """
    gains = [np.asarray(h, dtype=complex) for h in (h_sd, h_sr, h_rd)]
    real = ChannelRealization(*(abs2(h) for h in gains))
    real.__dict__.update(zip(("h_sd", "h_sr", "h_rd"), gains))
    return real


def batch_rows(real, index) -> ChannelRealization:
    """The trials a batch index (an int, for one unbatched trial, or a slice)
    picks from a drawn batch, as a realization of their complex gains."""
    return from_gains(real.h_sd[index], real.h_sr[index], real.h_rd[index])


def spare_turn_gains(real, cfg, mask=None) -> ChannelRealization:
    """A realization of real's powers whose complex gains place its turn, the
    spare uniform u, between the direct tap and the relayed one: h_sd =
    sqrt(h2_sd), h_sr = sqrt(h2_sr) and h_rd_k = sqrt(h2_rd_k) e^{-j2pi
    u/M_k}, M_k = T/gcd(d_k, T), so a selection block of the direct tap and
    relay k's has M_k phi = 2pi u, the relative phase its rate reads.  Given
    mask, over the relay axis (synchronous multi, whose relays share one
    delay), every h_rd_k is instead real's h_rd_k turned by the one phase
    that puts the forwarders' coherent sum h_sum at -2pi u/M: |h_sum|, the
    relayed tap's amplitude, is kept, and M phi = 2pi u again."""
    t_len = cfg.block_len
    bins = t_len // np.gcd(np.asarray(cfg.delays) % t_len, t_len)
    turn = np.asarray(real.turn)[..., None]
    if mask is None:
        h_rd = np.sqrt(real.h2_rd)
    else:
        h_rd = real.h_rd * np.exp(-1j * np.angle((real.h_rd * mask).sum(axis=-1, keepdims=True)))
    return from_gains(np.sqrt(real.h2_sd), np.sqrt(real.h2_sr),
                      h_rd * np.exp(-2j * np.pi * turn / bins))


def plane_one_realization(real, cfg, chosen) -> ChannelRealization:
    """real's powers, with as its turn a selection block's turn under the
    rule that read plane 1: frac(M (u1_sd - u1_rd,c)), M = T/gcd(d_c, T), c
    the chosen relay, from the drawn realization's phase uniforms, in that
    rule's operations, so fde.exact_rate_two_tap gives that rule's rates."""
    t_len = cfg.block_len
    m = (t_len // np.gcd([d % t_len for d in cfg.delays], t_len))[chosen]
    u_sd, _, u_rd = real.phases
    old = ChannelRealization(real.h2_sd, real.h2_sr, real.h2_rd)
    old.__dict__["turn"] = np.remainder(m * (u_sd - gather_relay(u_rd, chosen)), 1.0)
    return old


def coherent_plane_one_realization(real, cfg, mask) -> ChannelRealization:
    """real's powers and h_rd, with as its turn a synchronous multi block's
    turn under the rule that read plane 1: frac(M (u1_sd - angle(h_sum)/2pi)),
    M = T/gcd(d, T) for the relays' shared delay d, h_sum the forwarders'
    h_rd by numpy's C-order row sum, in that rule's operations, so
    fde.exact_rate_two_tap gives that rule's rates."""
    t_len = cfg.block_len
    m = t_len // math.gcd(cfg.delays[0] % t_len, t_len)
    h_sum = np.multiply(real.h_rd, np.ascontiguousarray(mask), order="C").sum(axis=-1)
    old = ChannelRealization(real.h2_sd, real.h2_sr, real.h2_rd)
    old.__dict__["h_rd"] = real.h_rd
    old.__dict__["turn"] = np.remainder(m * (real.phases[0] - np.angle(h_sum) / (2.0 * np.pi)), 1.0)
    return old
