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
# counter blocks at the same place in both planes.  1+2N is odd, so plane 0
# always has a padding slot, 1+2N: every two-tap block's relative-phase turn.
PHILOX_BLOCK = 4

# bit generators whose Generator.random double is one raw 64-bit word w taken
# as u = (w >> 11) * 2**-53 (MT19937's doubles take two 32-bit words instead)
RAW_DOUBLE_KINDS = (np.random.Philox, np.random.PCG64)


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

    Scratch(size) allocates size slots once.  take(shape) returns an array
    of exactly shape where the last take ended, a complex take 16-byte
    aligned at the cost of at most one slot, which a layer's declared slots
    per trial count; a take past the block raises ValueError.  order="F"
    lays the take out in numpy's Fortran order, relay-major: a (size, N)
    take is then a transposed view whose relay columns each run contiguous
    over the chunk's trials.  rewind() starts the next takes at slot 0,
    overwriting the earlier ones; setting used back to a count read from it
    earlier takes the slots after it again, the same way.  A take holds
    whatever an earlier chunk, or an earlier user of the block, left there,
    so every take is written in full before it is read: a count never
    depends on what the block held.
    Freed, one block leaves glibc's heap trim threshold at its size, so the
    next estimate reuses its pages instead of faulting fresh ones in.
    FRESH, of size 0, takes new arrays of the same shapes and layouts.
    """

    def __init__(self, size: int = 0):
        self.used = 0
        self.block = np.empty(size) if size else None

    def take(self, shape: tuple, dtype=float, order: str = "C") -> np.ndarray:
        if self.block is None:
            return np.empty(shape, dtype, order=order)
        width = np.dtype(dtype).itemsize // 8           # float64 slots per entry
        start = self.used + self.used % width           # malloc aligns the block to 16
        end = start + math.prod(shape) * width
        if end > self.block.size:
            raise ValueError(f"a take of {shape} {np.dtype(dtype)} overruns the scratch block")
        self.used = end
        return self.block[start:end].view(dtype).reshape(shape, order=order)

    def rewind(self) -> None:
        self.used = 0


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
    The parts are written straight into one complex array, with no complex
    temporary.
    """
    mag = np.sqrt(power, order="C")
    ang = (2.0 * np.pi) * u1
    gains = np.empty(np.shape(ang), complex)
    re, im = gains.real, gains.imag     # mag*cos and mag*sin, written in place
    np.multiply(np.cos(ang, out=re), mag, out=re)
    np.multiply(np.sin(ang, out=im), mag, out=im)
    return gains[()]


@dataclass(frozen=True)
class ChannelRealization:
    """Fading blocks: powers |h|^2 h2_sd of the batch shape, h2_sr and h2_rd
    with a trailing relay axis, e.g. (B,) and (B, N) as drawn.  Drawn, the
    powers are relay-major: each link's column is contiguous over the trials.

    phase_plane returns the realization's phase (u1) plane, shaped like the
    drawn power plane.  It is called once, when the plane, the phases (sd,
    sr, rd slots of the plane) or the first complex gain are read, and the
    plane is kept; h_sd, h_sr, h_rd are then built per link on first read
    from sqrt of the power and that link's phases, and kept.

    spare, of the batch shape, holds the 53-bit integers k of plane 0's
    first padding slot, and turn, k * 2**-53, is formed from it on first
    read and kept: a uniform independent of the powers and of every gain,
    which every two-tap block takes as its relative-phase turn (see
    fde.exact_rate_two_tap), so a selection's rate reads no phase plane.
    """

    h2_sd: np.ndarray
    h2_sr: np.ndarray
    h2_rd: np.ndarray
    phase_plane: Callable[[], np.ndarray] | None = None
    spare: np.ndarray | None = None

    plane = cached_property(lambda self: self.phase_plane())
    phases = cached_property(lambda self: _links(self.plane, self.h2_sr.shape[-1]))
    h_sd = cached_property(lambda self: gains_from_uniforms(self.h2_sd, self.phases[0]))
    h_sr = cached_property(lambda self: gains_from_uniforms(self.h2_sr, self.phases[1]))
    h_rd = cached_property(lambda self: gains_from_uniforms(self.h2_rd, self.phases[2]))
    turn = cached_property(lambda self: self.spare * 2.0 ** -53)

    def trials(self, rows: np.ndarray) -> ChannelRealization:
        """The realization of the trials that rows, integer indices into the
        batch axis (copies) or a slice of it (views), names: its powers and
        every complex gain already built here, indexed, never rebuilt.  Its
        phase plane is a lazy view: read, it is the rows of this
        realization's plane, which is then drawn in full, in stream order,
        if it was not yet; a view of no rows is empty and draws nothing.
        It has no spare slot, so it reads no turn."""
        h2 = self.h2_sd[rows], self.h2_sr[rows], self.h2_rd[rows]
        shape = h2[1].shape[:-1] + (uniforms_per_trial(h2[1].shape[-1]),)
        view = (lambda: self.plane[rows]) if h2[0].size else partial(np.empty, shape)
        sub = ChannelRealization(*h2, phase_plane=view)
        for name in ("h_sd", "h_sr", "h_rd"):
            if name in self.__dict__:
                sub.__dict__[name] = self.__dict__[name][rows]
        return sub


def _words53(bitgen, shape: tuple, out=None) -> np.ndarray:
    # bitgen's next prod(shape) raw words w as the integers k = w >> 11, in
    # out (uint64) or in place, viewed as int64: Generator.random's doubles
    # are k * 2**-53, exactly, as k < 2**53
    words = bitgen.random_raw(math.prod(shape)).reshape(shape)
    return np.right_shift(words, 11, out=words if out is None else out).view(np.int64)


def _phase_plane(kind, state: dict, shape: tuple, scratch: Scratch) -> np.ndarray:
    # plane 1: a bit generator of rng's kind at its state saved at draw time,
    # jumped; the seed only spares the constructor a read of OS entropy
    bitgen = kind(0)
    bitgen.state = state
    u = scratch.take(shape)
    np.copyto(u, _words53(bitgen.jumped(), shape))
    u *= 2.0 ** -53
    return u


def draw_realization(cfg: SystemConfig, rng: np.random.Generator, size: int,
                     scratch: Scratch = FRESH) -> ChannelRealization:
    """Draw a batch of size independent realizations; one trial is a batch of one.

    Fills only the power plane here: trial_block_uniforms(cfg.n_relays)
    doubles of rng per realization in link order (h_sd, h_sr, h_rd, then
    padding), so a counter-based stream positioned at a trial boundary
    reproduces that trial regardless of batching.  Each uniform is formed
    from one raw word w of rng's bit generator as u = (w >> 11) * 2**-53,
    bit for bit the double rng.random would return, and rng's stream moves
    on as that call would move it.  The words' integers w >> 11 fill the
    first take, and -u is written from them straight into a relay-major take
    (one contiguous column per link), where the powers -variance*log1p(-u)
    are formed in place; the integers of the first padding slot, 1+2N, stay
    in the take as the realization's spare, of which its turn is formed on
    first read.  The integers, the powers and, when it is generated, the
    phase plane are taken from scratch; a realization drawn in an
    estimate's scratch is valid only until its next chunk.

    The phases come from rng's bit generator jumped where rng stood before
    the powers, the same layout in plane 1 and the same map from raw words,
    generated in full on the first gain read: the bit generator's state is
    saved here, and the jumped generator is built from it only then.  So the
    phases depend only on rng's state at the call, whatever the read order
    or later draws from rng; for a trial_stream, only on (seed, trial).
    rng's bit generator must be one of RAW_DOUBLE_KINDS (Philox, PCG64);
    any other raises ValueError.
    """
    bitgen = rng.bit_generator
    if not isinstance(bitgen, RAW_DOUBLE_KINDS):
        raise ValueError(f"draw_realization makes each uniform from one raw 64-bit word, as "
                         f"Philox and PCG64 make their doubles; {type(bitgen).__name__} does not")
    n = cfg.n_relays
    shape = (size, trial_block_uniforms(n))
    plane = partial(_phase_plane, type(bitgen), bitgen.state, shape, scratch)  # before the powers move rng
    words = _words53(bitgen, shape, scratch.take(shape, np.uint64))
    k = words[..., :uniforms_per_trial(n)]
    power = scratch.take(k.shape, order="F")
    np.copyto(power, k)
    power *= -2.0 ** -53
    np.log1p(power, out=power)
    power *= -np.repeat([cfg.var_sd, cfg.var_sr, cfg.var_rd], [1, n, n])
    return ChannelRealization(*_links(power, n), phase_plane=plane,
                              spare=words[..., uniforms_per_trial(n)])


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
