"""Block-fading channel realizations and per-link SINRs."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import SystemConfig
from .sfun import gains_from_uniforms

# Philox emits 4 doubles per counter block; a trial needs 2*(1+2N) uniforms,
# padded up to 4*(N+1) so every trial owns a whole number of counter blocks.
PHILOX_BLOCK = 4


def uniforms_per_trial(n_relays: int) -> int:
    """Uniform doubles actually used per realization: 2 per channel gain."""
    return 2 * (1 + 2 * n_relays)


def trial_block_uniforms(n_relays: int) -> int:
    """Uniform doubles consumed per realization, padded to whole Philox blocks."""
    need = uniforms_per_trial(n_relays)
    return PHILOX_BLOCK * ((need + PHILOX_BLOCK - 1) // PHILOX_BLOCK)


@dataclass(frozen=True)
class ChannelRealization:
    """Fading blocks: powers |h|^2 h2_sd of the batch shape, h2_sr and h2_rd
    with a trailing relay axis, e.g. (B,) and (B, N), or () and (N,) unbatched.
    Complex gains h_sd, h_sr, h_rd are built per link on first read from sqrt
    of the power and that link's phase uniforms, then kept.
    """

    h2_sd: np.ndarray
    h2_sr: np.ndarray
    h2_rd: np.ndarray
    phases: tuple = ()

    h_sd = cached_property(lambda self: gains_from_uniforms(self.h2_sd, self.phases[0]))
    h_sr = cached_property(lambda self: gains_from_uniforms(self.h2_sr, self.phases[1]))
    h_rd = cached_property(lambda self: gains_from_uniforms(self.h2_rd, self.phases[2]))


def draw_realization(cfg: SystemConfig, rng: np.random.Generator, size: int | None = None,
                     out: np.ndarray | None = None) -> ChannelRealization:
    """Draw one realization (size None) or a batch of size independent ones.

    Consumes exactly trial_block_uniforms(cfg.n_relays) doubles per
    realization in a fixed layout (h_sd, then h_sr, then h_rd, then padding),
    so a counter-based stream positioned at a trial boundary reproduces that
    trial regardless of batching.  Each gain owns a pair (u0, u1): its power
    -variance*log1p(-u0) is computed here, u1 is kept as its phase.  out, a
    C-contiguous float64 array of the drawn shape, receives the uniforms; the
    realization keeps copies, so out may be reused at once.
    """
    n = cfg.n_relays
    width = trial_block_uniforms(n)
    u = rng.random((width,) if size is None else (size, width), out=out)
    u = u[..., :uniforms_per_trial(n)]
    var = np.repeat([cfg.var_sd, cfg.var_sr, cfg.var_rd], [1, n, n])
    power, phase = -var * np.log1p(-u[..., 0::2]), u[..., 1::2].copy()
    links = (np.s_[..., 0], np.s_[..., 1:1 + n], np.s_[..., 1 + n:])
    return ChannelRealization(*(power[k] for k in links), phases=tuple(phase[k] for k in links))


@dataclass(frozen=True)
class LinkSinrs:
    """Instantaneous per-link SINRs under a given relay transmit power, with
    the realization they were computed from (synchronous combining adds its
    complex h_rd)."""

    g_sd: np.ndarray                    # P_S |h_sd|^2
    g_sr: np.ndarray                    # P_S |h_sr_k|^2 / (P_R * interference + 1)
    g_rd: np.ndarray                    # P_R |h_rd_k|^2
    relay_tx_power: float | np.ndarray
    real: ChannelRealization


def link_sinrs(real: ChannelRealization, cfg: SystemConfig, relay_power) -> LinkSinrs:
    """SINRs of the S->D, S->R_k, and R_k->D links.

    relay_power, a scalar or of the realization's batch shape, is the per-relay
    power P_R: it scales the relay-input interference floor and the R_k->D SNR.
    """
    denom = relay_power * (cfg.var_rsi + cfg.var_iri) + 1.0
    g_sd = cfg.p_source * real.h2_sd
    g_sr = cfg.p_source * real.h2_sr / np.asarray(denom)[..., None]
    g_rd = np.asarray(relay_power)[..., None] * real.h2_rd
    return LinkSinrs(g_sd, g_sr, g_rd, relay_power, real)

