"""Closed-form outage probabilities of the multi-relay scheme and their special functions."""

from __future__ import annotations

import math
import warnings
from functools import partial
from itertools import count

from .model import (FIXED_PER_RELAY, SYNCHRONOUS, SystemConfig, _check_int, eta,
                    relay_interference_floor, relay_tx_power)

# tolerated rounding spill outside [0, 1] before the clamp warns
CLAMP_SLACK = 1e-9
# a top-down sum stops once its tail bound is within this share of the partial sum
TAIL_EPS = 2.0 ** -54


def _exp_outage(gbar: float, e: float) -> float:
    # P(Exp(gbar) < e); a dead link (gbar = 0) is always in outage for e > 0
    if e <= 0.0:
        return 0.0
    if gbar <= 0.0:
        return 1.0
    return -math.expm1(-e / gbar)


def link_outages(cfg: SystemConfig) -> tuple[float, float]:
    """Rayleigh link outages (p_sd, p_sr) at threshold eta.

    p_sr folds the relay-input interference floor P_R*(var_rsi+var_iri)+1
    into the mean S->R SNR, P_R being the decode-stage power of all n_relays
    relays; all relays share it by symmetry.
    """
    e = eta(cfg)
    denom = relay_interference_floor(cfg, relay_tx_power(cfg, cfg.n_relays))
    return (_exp_outage(cfg.p_source * cfg.var_sd, e),
            _exp_outage(cfg.p_source * cfg.var_sr / denom, e))


def poisson_pmf(n: int, x: float) -> float:
    """e^{-x} x^n/n! for x > 0, weighted in log space so no factor overflows."""
    return math.exp(n * math.log(x) - x - math.lgamma(n + 1))


def _top_down_sum(n: int, x: float) -> float:
    """sum_{i=1}^{n} n!/(n-i)! x^{-i} for |x| >= n, from n/x down by factors (n-i)/x.

    Past term i every factor is at most r = (n-i)/|x| < 1 in size, so the
    terms not yet added sum to at most |t| r/(1-r), t the last term added.
    The sum stops once that is within TAIL_EPS of the partial sum, which
    holds for the positive terms of x >= n and the alternating ones of
    x <= -n alike; it adds all n terms only where the tail stays heavy.
    """
    t = total = n / x
    if x > 0.0:     # every term positive
        for k in range(n - 1, 0, -1):   # k = n - i; rest <= t k/(x - k)
            if t * k <= TAIL_EPS * total * (x - k):
                break
            t *= k / x
            total += t
        return total
    ax = -x
    for k in range(n - 1, 0, -1):
        if abs(t) * k <= TAIL_EPS * abs(total) * (ax - k):
            break
        t *= k / x
        total += t
    return total


def kummer_j(n: int, x: float) -> float:
    """J_n(x) = 1F1(1; n+1; x) = sum_{k>=0} x^k/((n+1)...(n+k)) (DLMF 13.2.2), x < n.

    J_1(x) = expm1(x)/x exactly, 1 at x = 0.  For |x| < n the series terms
    shrink by |x|/(n+k) < 1; for x <= -n it is n! x^{-n} (e^x - sum_{m<n}
    x^m/m!), the polynomial summed from the top term down by _top_down_sum.
    Past x = n, J_n grows like e^x and P(n, x) covers the range.
    """
    if n == 1:
        return math.expm1(x) / x if x else 1.0
    if x <= -n:
        lead = math.exp(math.lgamma(n + 1) - n * math.log(-x) + x)
        return (-lead if n % 2 else lead) - _top_down_sum(n, x)
    t = total = 1.0
    if x >= 0.0:    # every term non-negative
        for k in count(n + 1):
            t *= x / k
            total += t
            if t <= 1e-17 * total:  # t underflows to 0.0 at the latest
                return total
    for k in count(n + 1):          # alternating terms; a NaN x stops after one
        t *= x / k
        total += t
        if not abs(t) > 1e-17 * total:
            return total


def regularized_lower_gamma_int(n: int, x: float) -> float:
    """P(n, x) = gamma(n, x)/(n-1)! for integer n >= 1 and finite x >= 0.

    P(1, x) = -expm1(-x) exactly.  Below x = n it is Pois(x; n) J_n(x)
    (DLMF 8.7.1), positive factors that stay accurate where P is tiny; from
    x = n on, the complement 1 - Pois(x; n) sum_{i=1}^{n} n!/(n-i)! x^{-i}
    (DLMF 8.4.10), whose subtrahend is below 1/2 and whose sum stops early
    once its tail cannot move it (_top_down_sum).  No form overflows at any
    finite x.
    """
    if type(n) is not int or n < 1:
        _check_int("order n", n)
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"x must be a finite non-negative real number, got {x!r}")
    if n == 1:
        return -math.expm1(-x)
    if x == 0.0:
        return 0.0
    if x < n:
        return poisson_pmf(n, x) * kummer_j(n, x)
    return 1.0 - poisson_pmf(n, x) * _top_down_sum(n, x)


def _clamped(p: float, what: str) -> float:
    # a NaN fails the range test too, so it warns before it is mapped to 0
    if not -CLAMP_SLACK <= p <= 1.0 + CLAMP_SLACK:
        warnings.warn(f"{what} = {p!r} left [0, 1] beyond rounding slack; clamping",
                      RuntimeWarning, stacklevel=3)
    return min(1.0, max(0.0, p))


def _gap_sum(n: int, x: float, v: float, w: float) -> float:
    """sum_{i=1}^{n} n!/(n-i)! (x^{-i} - v^{-i}) for n <= x < v, w = (v - x)/v.

    The terms d_i are built without a difference: d_1 = n w/x and
    d_{i+1} = (n-i)(d_i + c_i)/x, with c_i = w n!/(n-i)! v^{-i}.  Each ratio
    d_{j+1}/d_j is at most (n-j)(j+1)/(j x), so past term i the rest is at
    most d_i r/(1-r), r = (n-i)(i+1)/(i x), once r < 1; the sum stops once
    that is within TAIL_EPS of the partial sum.
    """
    d = total = n * w / x
    c = n * w / v
    for i in range(1, n):
        k = n - i
        m = k * (i + 1)
        if d * m <= TAIL_EPS * total * (x * i - m):   # never while r >= 1
            break
        d = k * (d + c) / x
        c *= k / v
        total += d
    return total


def _mrc_mix_outage(n_sum: int, gbar_sd: float, gbar_rd: float, e: float) -> float:
    """P(X + S < e), X ~ Exp(gbar_sd), S the sum of n_sum i.i.d. Exp(gbar_rd).

    With u = e/gbar_sd, v = e/gbar_rd and x = v - u, formed from the scale
    difference: P = P(n, v) - Pois(v; n) J_n(x), so equal scales give P(n+1, v).
    For x >= n, where J_n grows like e^x, both terms are written as
    complements, and their difference is the sum of two non-negative terms,
    -expm1(-u + n log1p(u/x)) + Pois(v; n) sum_{i=1}^{n} n!/(n-i)! (x^{-i} - v^{-i}),
    whose inner differences _gap_sum forms without subtraction, so the
    result keeps its digits where u is small.
    """
    if e <= 0.0:
        return 0.0
    v = e / gbar_rd if gbar_rd > 0.0 else math.inf
    if math.isinf(v):   # a dead relay link, or a relayed sum that adds nothing next to e
        return _exp_outage(gbar_sd, e)
    if gbar_sd <= 0.0:
        return regularized_lower_gamma_int(n_sum, v)
    x = v * ((gbar_sd - gbar_rd) / gbar_sd)
    if x >= n_sum:
        u = e / gbar_sd
        p = (-math.expm1(n_sum * math.log1p(u / x) - u)
             + poisson_pmf(n_sum, v) * _gap_sum(n_sum, x, v, gbar_rd / gbar_sd))
    else:
        p = regularized_lower_gamma_int(n_sum, v) - poisson_pmf(n_sum, v) * kummer_j(n_sum, x)
    if 0.0 < p <= 1.0:  # anything else, -0.0 too, goes through the clamp
        return p
    return _clamped(p, "combined outage")


def p_cond_async(n_decoding: int, cfg: SystemConfig) -> float:
    """Destination outage given n_decoding relays forward, asynchronous mode.

    The destination adds the direct SNR and the n_decoding independent relay
    SNRs, each exponential with mean relay_tx_power*var_rd.
    """
    if type(n_decoding) is not int or n_decoding < 1:
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
    if type(n_decoding) is not int or n_decoding < 1:
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
    if 0.0 < total <= 1.0:
        return total
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
