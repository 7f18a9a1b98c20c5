"""Block-fading channel realizations and per-link SINRs."""

from __future__ import annotations

import math
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


def channel_slots(n_relays: int) -> int:
    """float64 slots per trial this module takes from an estimate's Scratch:
    both planes and the powers of draw_realization, and the link SINRs."""
    return 2 * trial_block_uniforms(n_relays) + 2 * uniforms_per_trial(n_relays)


class Scratch:
    """The per-chunk arrays of an estimate, taken from one float64 block.

    Scratch(rows, slots) allocates rows*slots slots once.  take(shape)
    reserves rows rows of shape[1:] after the chunk's earlier takes and
    returns the leading shape[0], a complex take 16-byte aligned at the cost
    of at most one slot, which a layer's declared slots per trial count; a
    take past the block raises ValueError.  order="F" lays the rows out in
    numpy's Fortran order, relay-major: a (size, N) take is then a transposed
    view whose relay columns each run contiguous over the chunk's trials.
    rewind() starts the next chunk, whose takes, the same shapes in the same
    order, get the same arrays; a zeroed take is zeroed on the first chunk
    only.  Freed, one block leaves glibc's heap trim threshold at its size,
    so the next estimate reuses its pages instead of faulting fresh ones in.
    FRESH takes new arrays of the same shapes and layouts.
    """

    def __init__(self, rows: int = 0, slots: int = 0):
        self.rows, self.used, self.first = rows, 0, True
        self.block = np.empty(rows * slots) if rows else None

    def take(self, shape: tuple, dtype=float, zeroed: bool = False,
             order: str = "C") -> np.ndarray:
        if self.block is None:
            return (np.zeros if zeroed else np.empty)(shape, dtype, order=order)
        width = np.dtype(dtype).itemsize // 8           # float64 slots per entry
        start = self.used + self.used % width           # malloc aligns the block to 16
        end = start + self.rows * math.prod(shape[1:]) * width
        if shape[0] > self.rows or end > self.block.size:
            raise ValueError(f"a take of {shape} {np.dtype(dtype)} overruns the scratch block")
        self.used = end
        a = self.block[start:end].view(dtype).reshape((self.rows,) + tuple(shape[1:]),
                                                      order=order)
        if zeroed and self.first:
            a.fill(0)
        return a[:shape[0]]

    def rewind(self) -> None:
        self.used, self.first = 0, False


FRESH = Scratch()


def _links(a: np.ndarray, n_relays: int) -> tuple:
    # the sd, sr and rd slots of a plane's trailing axis
    return a[..., 0], a[..., 1:1 + n_relays], a[..., 1 + n_relays:1 + 2 * n_relays]


def gather_relay(a: np.ndarray, index) -> np.ndarray:
    """a[..., index] per batch row: the entry of each trial's relay axis that
    index, an integer array of the batch shape, names."""
    return np.take_along_axis(a, np.asarray(index)[..., None], axis=-1)[..., 0]


def gains_from_uniforms(power, u1):
    """CN(0, variance) draws by the polar method from uniform pairs (u0, u1).

    power = -variance*log(1-u0) is |h|^2, exponential with mean variance, and
    the phase 2*pi*u1 is uniform, which together give the circularly
    symmetric complex Gaussian (independent re/im parts of variance/2 each).
    u0 and u1 sit in the same slot of a trial's power and phase planes.
    The gains take the C order of the phase plane, whatever the powers'.
    """
    mag = np.sqrt(power, order="C")
    ang = (2.0 * np.pi) * u1
    return mag * np.cos(ang) + 1j * (mag * np.sin(ang))


@dataclass(frozen=True)
class ChannelRealization:
    """Fading blocks: powers |h|^2 h2_sd of the batch shape, h2_sr and h2_rd
    with a trailing relay axis, e.g. (B,) and (B, N) as drawn.  Drawn, the
    powers are relay-major: each link's column is contiguous over the trials.

    phase_plane returns the realization's phase (u1) plane, shaped like the
    drawn power plane.  It is called once, when the phases (sd, sr, rd
    slots of the plane) or the first complex gain are read, and the plane is
    kept; h_sd, h_sr, h_rd are then built per link on
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

    def trials(self, rows: np.ndarray) -> ChannelRealization:
        """The realization of the trials that rows, integer indices into the
        batch axis, names: its powers and every complex gain already built
        here, indexed, never rebuilt.  It has no phase plane, so it can read
        no other gain."""
        sub = ChannelRealization(self.h2_sd[rows], self.h2_sr[rows], self.h2_rd[rows])
        for name in ("h_sd", "h_sr", "h_rd"):
            if name in self.__dict__:
                sub.__dict__[name] = self.__dict__[name][rows]
        return sub


def _phase_plane(kind, state: dict, shape: tuple, scratch: Scratch) -> np.ndarray:
    # plane 1: a bit generator of rng's kind at its state saved at draw time,
    # jumped; the seed only spares the constructor a read of OS entropy
    bitgen = kind(0)
    bitgen.state = state
    return np.random.Generator(bitgen.jumped()).random(shape, out=scratch.take(shape))


def draw_realization(cfg: SystemConfig, rng: np.random.Generator, size: int,
                     scratch: Scratch = FRESH) -> ChannelRealization:
    """Draw a batch of size independent realizations; one trial is a batch of one.

    Fills only the power plane here: trial_block_uniforms(cfg.n_relays)
    doubles of rng per realization in link order (h_sd, h_sr, h_rd, then
    padding), so a counter-based stream positioned at a trial boundary
    reproduces that trial regardless of batching.  The powers are
    -variance*log1p(-u0), formed in a relay-major take (one contiguous
    column per link) the uniforms are copied into.  The uniforms, the
    powers and, when it is generated, the phase plane are taken from
    scratch; a realization drawn in an estimate's scratch is valid only
    until its next chunk.

    The phases come from rng's bit generator jumped where rng stood before
    the powers, the same layout in plane 1, generated in full on the first
    gain read: the bit generator's state is saved here, and the jumped
    generator is built from it only then.  So the phases depend only on
    rng's state at the call, whatever the read order or later draws from
    rng; for a trial_stream, only on (seed, trial).  rng's bit generator
    must have jumped() (Philox, PCG64, MT19937).
    """
    n = cfg.n_relays
    shape = (size, trial_block_uniforms(n))
    bitgen = rng.bit_generator
    plane = partial(_phase_plane, type(bitgen), bitgen.state, shape, scratch)  # before the powers move rng
    u = rng.random(shape, out=scratch.take(shape))[..., :uniforms_per_trial(n)]
    power = scratch.take(u.shape, order="F")
    np.copyto(power, u)
    np.log1p(np.negative(power, out=power), out=power)
    power *= -np.repeat([cfg.var_sd, cfg.var_sr, cfg.var_rd], [1, n, n])
    return ChannelRealization(*_links(power, n), phase_plane=plane)


@dataclass(frozen=True)
class LinkSinrs:
    """Instantaneous per-link SINRs under relay transmit power relay_tx_power,
    with the realization they come from (synchronous multi-relay combining
    adds its complex h_rd).

    Each SINR array is formed on its first read, in an array taken from
    scratch (relay-major, as the powers are), and kept: g_sd = P_S |h_sd|^2,
    g_rd = P_R |h_rd_k|^2 and g_sr = P_S |h_sr_k|^2 / (P_R * interference + 1).
    In an estimate's scratch every link is formed at most once per chunk,
    uniforms_per_trial slots per trial in all, and the SINRs are valid only
    until the next chunk.
    """

    real: ChannelRealization
    cfg: SystemConfig
    relay_tx_power: float | np.ndarray
    scratch: Scratch = FRESH

    @cached_property
    def g_sd(self) -> np.ndarray:
        h2 = self.real.h2_sd
        return np.multiply(self.cfg.p_source, h2, out=self.scratch.take(np.shape(h2)))

    @cached_property
    def g_sr(self) -> np.ndarray:
        h2 = self.real.h2_sr
        g_sr = np.multiply(self.cfg.p_source, h2, out=self.scratch.take(h2.shape, order="F"))
        denom = relay_interference_floor(self.cfg, self.relay_tx_power)
        return np.divide(g_sr, np.asarray(denom)[..., None], out=g_sr)

    @cached_property
    def g_rd(self) -> np.ndarray:
        h2 = self.real.h2_rd
        return np.multiply(np.asarray(self.relay_tx_power)[..., None], h2,
                           out=self.scratch.take(h2.shape, order="F"))


def link_sinrs(real: ChannelRealization, cfg: SystemConfig, relay_power,
               scratch: Scratch = FRESH) -> LinkSinrs:
    """SINRs of the S->D, S->R_k, and R_k->D links, each formed on first read.

    relay_power, a scalar or of the realization's batch shape, is the per-relay
    power P_R: it scales the relay-input interference floor and the R_k->D SNR.
    scratch holds the SINRs (see LinkSinrs).
    """
    return LinkSinrs(real, cfg, relay_power, scratch)
