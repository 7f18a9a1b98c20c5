"""Block-fading channel realizations and per-link SINRs."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .model import SystemConfig, relay_interference_floor

# Philox emits 4 doubles per counter block.  A trial's random slice has two
# planes: plane 0, the stream the trial's generator stands in, holds the power
# uniforms u0, and plane 1, that generator jumped (for Philox: counter word 2
# plus 1), the phase uniforms u1.  Each holds 1+2N of them in link order (sd,
# sr_1..N, rd_1..N), padded so every trial owns the same whole number of
# counter blocks at the same place in both planes.
PHILOX_BLOCK = 4


def uniforms_per_trial(n_relays: int) -> int:
    """Uniform doubles a realization reads from each plane: one per channel gain."""
    return 1 + 2 * n_relays


def trial_block_uniforms(n_relays: int) -> int:
    """Uniform doubles a realization occupies in each plane, padded to whole Philox blocks."""
    need = uniforms_per_trial(n_relays)
    return PHILOX_BLOCK * ((need + PHILOX_BLOCK - 1) // PHILOX_BLOCK)


def _links(a: np.ndarray, n_relays: int) -> tuple:
    # the sd, sr and rd slots of a plane's trailing axis
    return a[..., 0], a[..., 1:1 + n_relays], a[..., 1 + n_relays:1 + 2 * n_relays]


def gains_from_uniforms(power, u1):
    """CN(0, variance) draws by the polar method from uniform pairs (u0, u1).

    power = -variance*log(1-u0) is |h|^2, exponential with mean variance, and
    the phase 2*pi*u1 is uniform, which together give the circularly
    symmetric complex Gaussian (independent re/im parts of variance/2 each).
    u0 and u1 sit in the same slot of a trial's power and phase planes.
    """
    mag = np.sqrt(power)
    ang = (2.0 * np.pi) * u1
    return mag * np.cos(ang) + 1j * (mag * np.sin(ang))


@dataclass(frozen=True)
class ChannelRealization:
    """Fading blocks: powers |h|^2 h2_sd of the batch shape, h2_sr and h2_rd
    with a trailing relay axis, e.g. (B,) and (B, N), or () and (N,) unbatched.

    phase_plane returns the realization's phase (u1) plane, shaped like the
    drawn power plane.  It is called once, when the first complex gain is
    read, and the plane is kept; h_sd, h_sr, h_rd are then built per link on
    first read from sqrt of the power and that link's phases, and kept.
    """

    h2_sd: np.ndarray
    h2_sr: np.ndarray
    h2_rd: np.ndarray
    phase_plane: Callable[[], np.ndarray] | None = None

    phases = cached_property(lambda self: _links(self.phase_plane(), self.h2_sr.shape[-1]))
    h_sd = cached_property(lambda self: gains_from_uniforms(self.h2_sd, self.phases[0]))
    h_sr = cached_property(lambda self: gains_from_uniforms(self.h2_sr, self.phases[1]))
    h_rd = cached_property(lambda self: gains_from_uniforms(self.h2_rd, self.phases[2]))


def draw_realization(cfg: SystemConfig, rng: np.random.Generator, size: int | None = None,
                     out: np.ndarray | None = None) -> ChannelRealization:
    """Draw one realization (size None) or a batch of size independent ones.

    Fills only the power plane here: trial_block_uniforms(cfg.n_relays)
    doubles of rng per realization in link order (h_sd, h_sr, h_rd, then
    padding), so a counter-based stream positioned at a trial boundary
    reproduces that trial regardless of batching.  The powers are
    -variance*log1p(-u0).  out, a C-contiguous float64 array of the drawn
    shape, receives the uniforms; the realization keeps its own powers, so out
    may be reused at once.

    The phases come from rng's bit generator jumped where rng stood before
    the powers, the same layout in plane 1, generated in full on the first
    gain read.  They depend only on rng's state at the call, whatever the
    read order or later draws from rng; for a trial_stream, only on (seed,
    trial).  rng's bit generator must have jumped() (Philox, PCG64, MT19937).
    """
    n = cfg.n_relays
    width = trial_block_uniforms(n)
    shape = (width,) if size is None else (size, width)
    phases = np.random.Generator(rng.bit_generator.jumped())   # before the powers move rng
    u = rng.random(shape, out=out)[..., :uniforms_per_trial(n)]
    power = np.negative(u)
    np.log1p(power, out=power)
    power *= -np.repeat([cfg.var_sd, cfg.var_sr, cfg.var_rd], [1, n, n])
    return ChannelRealization(*_links(power, n), phase_plane=partial(phases.random, shape))


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
    denom = relay_interference_floor(cfg, relay_power)
    g_sd = cfg.p_source * real.h2_sd
    g_sr = cfg.p_source * real.h2_sr / np.asarray(denom)[..., None]
    g_rd = np.asarray(relay_power)[..., None] * real.h2_rd
    return LinkSinrs(g_sd, g_sr, g_rd, relay_power, real)

