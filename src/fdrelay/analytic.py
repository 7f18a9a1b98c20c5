"""Closed-form outage probabilities for the multi-relay scheme."""

from __future__ import annotations

import math
import warnings
from functools import partial

from .model import FIXED_PER_RELAY, SYNCHRONOUS, SystemConfig, _check_int
from .sfun import kummer_j, poisson_pmf, regularized_lower_gamma_int

# tolerated rounding spill outside [0, 1] before the clamp warns
CLAMP_SLACK = 1e-9


def eta(cfg: SystemConfig) -> float:
    """Decode threshold: SINR below which a block cannot carry cfg.rate bps/Hz.

    The cyclic prefix consumes cp_len of every block_len+cp_len channel uses,
    hence eta = 2^(rate*(T+cp)/T) - 1.
    """
    return 2.0 ** (cfg.rate * (cfg.block_len + cfg.cp_len) / cfg.block_len) - 1.0


def _exp_outage(gbar: float, e: float) -> float:
    # P(Exp(gbar) < e); a dead link (gbar = 0) is always in outage for e > 0
    if e <= 0.0:
        return 0.0
    if gbar <= 0.0:
        return 1.0
    return -math.expm1(-e / gbar)


def relay_tx_power(cfg: SystemConfig, n_forwarding):
    """Per-relay transmit power when n_forwarding >= 1 relays transmit.

    The one place that knows the relay power policy: the shared budget splits
    E_R over the forwarding relays, the fixed policy gives each relay E_R.
    n_forwarding is an int (the closed form, which stays in Python floats) or
    an array of per-trial counts (Monte-Carlo); mc.forwarding picks the count
    each scheme's relays transmit with.
    """
    if cfg.relay_power_policy == FIXED_PER_RELAY:
        return cfg.e_relay_budget
    return cfg.e_relay_budget / n_forwarding


def link_outages(cfg: SystemConfig) -> tuple[float, float]:
    """Rayleigh link outages (p_sd, p_sr) at threshold eta.

    p_sr folds the relay-input interference floor P_R*(var_rsi+var_iri)+1
    into the mean S->R SNR, P_R being the decode-stage power of all n_relays
    relays; all relays share it by symmetry.
    """
    e = eta(cfg)
    denom = relay_tx_power(cfg, cfg.n_relays) * (cfg.var_rsi + cfg.var_iri) + 1.0
    return (_exp_outage(cfg.p_source * cfg.var_sd, e),
            _exp_outage(cfg.p_source * cfg.var_sr / denom, e))


def _clamped(p: float, what: str) -> float:
    # a NaN fails the range test too, so it warns before it is mapped to 0
    if not -CLAMP_SLACK <= p <= 1.0 + CLAMP_SLACK:
        warnings.warn(f"{what} = {p!r} left [0, 1] beyond rounding slack; clamping",
                      RuntimeWarning, stacklevel=3)
    return min(1.0, max(0.0, p))


def _mrc_mix_outage(n_sum: int, gbar_sd: float, gbar_rd: float, e: float) -> float:
    """P(X + S < e), X ~ Exp(gbar_sd), S the sum of n_sum i.i.d. Exp(gbar_rd).

    With u = e/gbar_sd, v = e/gbar_rd and x = v - u, formed from the scale
    difference: P = P(n, v) - Pois(v; n) J_n(x), so equal scales give P(n+1, v).
    For x >= n, where J_n grows like e^x, the relayed term is e^{-u} (v/x)^n P(n, x)
    with v/x = 1/(1 - gbar_rd/gbar_sd), whose log weight is never positive there.
    """
    if e <= 0.0:
        return 0.0
    if gbar_rd <= 0.0:
        return _exp_outage(gbar_sd, e)
    v = e / gbar_rd
    if gbar_sd <= 0.0:
        return regularized_lower_gamma_int(n_sum, v)
    x = e * (gbar_sd - gbar_rd) / (gbar_rd * gbar_sd)
    if x >= n_sum:
        relayed = (math.exp(-e / gbar_sd - n_sum * math.log1p(-gbar_rd / gbar_sd))
                   * regularized_lower_gamma_int(n_sum, x))
    else:
        relayed = poisson_pmf(n_sum, v) * kummer_j(n_sum, x)
    return _clamped(regularized_lower_gamma_int(n_sum, v) - relayed, "combined outage")


def p_cond_async(n_decoding: int, cfg: SystemConfig) -> float:
    """Destination outage given n_decoding relays forward, asynchronous mode.

    The destination adds the direct SNR and the n_decoding independent relay
    SNRs, each exponential with mean relay_tx_power*var_rd.
    """
    _check_int("n_decoding", n_decoding)
    gbar_rd = relay_tx_power(cfg, n_decoding) * cfg.var_rd
    return _mrc_mix_outage(n_decoding, cfg.p_source * cfg.var_sd, gbar_rd, eta(cfg))


def p_cond_sync(n_decoding: int, cfg: SystemConfig) -> float:
    """Destination outage given n_decoding relays forward, synchronous mode.

    Equal delays make the relay amplitudes add coherently into one equivalent
    Rayleigh branch of mean relay_tx_power*n_decoding*var_rd, so under the
    shared budget the result does not depend on n_decoding at all, and
    total_outage evaluates it once, at n_decoding = 1.
    """
    _check_int("n_decoding", n_decoding)
    gbar_syn = relay_tx_power(cfg, n_decoding) * n_decoding * cfg.var_rd
    return _mrc_mix_outage(1, cfg.p_source * cfg.var_sd, gbar_syn, eta(cfg))


def combine_outage(p_sd: float, p_sr: float, n_relays: int, p_cond) -> float:
    """Total outage from link outages and the conditional outage p_cond(L).

    p_cond(L) is the destination outage given L >= 1 forwarding relays.
    Relays decode independently with probability q = 1 - p_sr, so the sum
    over all 2^N decode sets collapses to a binomial mixture over the set
    size, weights w_L = C(N, L) q^L p_sr^(N-L), with p_sd at L = 0.

    Window rule: start at the heaviest size, its weight formed in log space
    so C(N, L) never becomes a float, and walk outward by w_{L+1}/w_L,
    stopping each way at the first w_L <= 2^-54 * total/N, total being the
    partial sum.  Weights fall away from the mode and the partial sum grows,
    so the at most N sizes left out, each with outage <= 1, move the total
    by under 2^-54 of it.
    """
    q = 1.0 - p_sr
    mode = min(n_relays, int((n_relays + 1) * q))
    log_w = math.log(math.comb(n_relays, mode))
    if mode:
        log_w += mode * math.log(q)
    if mode < n_relays:
        log_w += (n_relays - mode) * math.log(p_sr)
    w = w_mode = math.exp(log_w)
    total = w * (p_cond(mode) if mode else p_sd)
    for size in range(mode + 1, n_relays + 1):
        w *= (n_relays - size + 1) * q / (size * p_sr)
        if w * n_relays <= 2.0 ** -54 * total:
            break
        total += w * p_cond(size)
    w = w_mode
    for size in range(mode - 1, -1, -1):
        w *= (size + 1) * p_sr / ((n_relays - size) * q)
        if w * n_relays <= 2.0 ** -54 * total:
            break
        total += w * (p_cond(size) if size else p_sd)
    return _clamped(total, "total outage")


def total_outage(cfg: SystemConfig) -> float:
    """Closed-form outage of the multi-relay scheme in cfg.sync_mode.

    The destination is modelled by the aggregate-SINR rate.  The exact
    per-bin rate never exceeds that rate on any realization (Jensen over the
    bins, whose mean SINR is the aggregate one), so this curve bounds the
    exact-MI outage from below; the excess grows where outage is rare.
    Conditional outages are evaluated only at decode-set sizes whose weight
    exceeds 2^-54 * total/N; the rest move the total by under 2^-54 of it.
    """
    p_sd, p_sr = link_outages(cfg)
    sync = cfg.sync_mode == SYNCHRONOUS
    cond = partial(p_cond_sync if sync else p_cond_async, cfg=cfg)
    if sync and cfg.relay_power_policy != FIXED_PER_RELAY:
        p_shared = cond(1)  # the same at every size under the shared budget
        cond = lambda size: p_shared
    return combine_outage(p_sd, p_sr, cfg.n_relays, cond)
