"""Monte-Carlo outage estimation for the multi-relay and selection schemes."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .channel import (FRESH, PHILOX_BLOCK, LinkSinrs, Scratch, channel_slots, draw_realization,
                      first_maximum, forwarding_count, gather_relay, link_sinrs,
                      trial_block_uniforms)
from .fde import (amplitude_bounds, approx_rate, bound_slots, exact_rate, exact_rate_two_tap,
                  lambda_spectrum, rate_bounds, spectrum_slots)
from .model import (MI_EXACT, SCHEME_MULTI, SCHEME_OS, SCHEME_PS, SCHEMES, SYNCHRONOUS,
                    OutageEstimate, SystemConfig, _check_int, eta, relay_tx_power)

CHUNK_BYTES = 4 << 20     # the most bytes a default chunk's Scratch block takes

SEED_BITS = 128        # a seed is a Philox key, an int in [0, 2**SEED_BITS)


def trial_stream(seed: int, trial: int, n_relays: int) -> np.random.Generator:
    """Generator positioned at the start of one trial's random substream.

    Every trial owns the same whole number of Philox counter blocks in each
    of two planes under key seed.  The generator stands at block
    trial*trial_block_uniforms(n_relays)/4 of plane 0, the powers;
    draw_realization takes the phases from the same blocks of plane 1, the
    generator jumped (counter word 2 plus 1).  So a batch of trials drawn in
    one call sees exactly the uniforms the trials would see drawn one at a
    time, and any chunking of the trial range is equivalent.
    """
    _check_int("seed", seed, 0, SEED_BITS)
    _check_int("trial", trial, 0)
    blocks = trial_block_uniforms(n_relays) // PHILOX_BLOCK
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(trial * blocks)
    return np.random.Generator(bitgen)


def select_relay(sinrs: LinkSinrs, kind: str):
    """Relay picked by a selection baseline: channel.first_maximum of its score,
    os's bottleneck hop min(g_sr, g_rd) or ps's first hop g_sr."""
    if kind == SCHEME_OS:
        score = np.minimum(sinrs.g_sr, sinrs.g_rd)
    elif kind == SCHEME_PS:
        score = sinrs.g_sr
    else:
        raise ValueError(f"unknown selection scheme {kind!r}")
    return first_maximum(score)


def selection_config(cfg: SystemConfig) -> SystemConfig:
    """The config a selection baseline's trials read: its lone relay forwards
    free of inter-relay interference, so cfg with var_iri = 0 (cfg itself
    where it already is).  Configs that differ only in var_iri give one
    selection estimate."""
    return cfg if cfg.var_iri == 0.0 else replace(cfg, var_iri=0.0)


def forwarding(real, cfg: SystemConfig, scheme: str, scratch: Scratch = FRESH):
    """(forwards, chosen, sinrs): who forwards, and the link SINRs at their
    per-trial transmit power sinrs.relay_tx_power, each formed only where
    read, in scratch.  multi: forwards is the mask, over the relay axis, of
    every relay that decodes at the all-relay power, sharing the budget, and
    chosen is None; os/ps: chosen, of the batch shape, is the selected relay
    and forwards whether it decodes; it forwards alone, so its SINRs are
    those of selection_config(cfg).  Given chosen, or synchronous, the rate
    reads one relay's P_R |h_RD|^2 and, under exact MI, the realization's
    turn, plane 0's spare uniform: no complex gain and no phase plane."""
    if scheme == SCHEME_MULTI:
        probe = link_sinrs(real, cfg, relay_tx_power(cfg, cfg.n_relays), scratch)
        decodes = probe.g_sr >= eta(cfg)
        p_relay = relay_tx_power(cfg, np.maximum(forwarding_count(decodes), 1))
        return decodes, None, link_sinrs(real, cfg, p_relay, scratch)
    sinrs = link_sinrs(real, selection_config(cfg), relay_tx_power(cfg, 1), scratch)
    chosen = np.asarray(select_relay(sinrs, scheme))
    return gather_relay(sinrs.g_sr, chosen) >= eta(cfg), chosen, sinrs


def _trial_outages(cfg: SystemConfig, scheme: str, real, scratch: Scratch):
    # every step broadcasts over the batch axis, so a trial's flag does not
    # depend on the batch it is drawn in; under exact MI a block with one
    # relayed tap (a selection scheme's one relay, or synchronous multi's
    # relays at their one shared delay), whose relative phase is the
    # realization's turn, has its rate in closed form.  Asynchronous multi
    # bounds its rate in stages, each on the rows the one before leaves
    # straddling the target rate (possibly none) and each taking the same
    # slots again: amplitude_bounds from the powers alone, then rate_bounds
    # from complex gains, built only for its rows (from the chunk's phase
    # plane, drawn only if some row reaches it).  The rows left are copied
    # out with those gains, so the spectrum runs in groups of as many rows
    # as its slots fit the whole block, each group rewinding it; every
    # chunk calls it at least once, on no rows if need be
    forwards, chosen, sinrs = forwarding(real, cfg, scheme, scratch)
    if cfg.mi_mode != MI_EXACT:
        return approx_rate(sinrs, forwards, cfg, chosen) < cfg.rate
    if chosen is not None or cfg.sync_mode == SYNCHRONOUS:
        return exact_rate_two_tap(sinrs, forwards, cfg, chosen) < cfg.rate
    flags = np.zeros(np.shape(real.h2_sd), bool)
    rows, power = np.arange(flags.size), np.broadcast_to(sinrs.relay_tx_power, flags.shape)
    mark = scratch.used
    for bounds in (amplitude_bounds, rate_bounds):
        scratch.used = mark
        lower, upper = bounds(real, forwards, cfg, power, scratch)
        outage = upper < cfg.rate
        flags[rows] = outage
        left = np.flatnonzero(~outage & (lower < cfg.rate))
        rows, real, forwards, power = rows[left], real.trials(left), forwards[left], power[left]
    step = scratch.block.size // spectrum_slots(cfg)
    for start in range(0, max(rows.size, 1), step):
        group = slice(start, start + step)
        scratch.rewind()
        spec = lambda_spectrum(real.trials(group), forwards[group], cfg, power[group], scratch)
        flags[rows[group]] = exact_rate(spec, cfg, out=spec.gamma) < cfg.rate
    return flags


def estimate_outage(cfg: SystemConfig, scheme: str, trials: int,
                    seed: int = 0, chunk: int | None = None) -> OutageEstimate:
    """Estimate outage probability over a fixed number of trials.

    Trial t always consumes the substream trial_stream(seed, t), and the
    aggregate is an integer count, so the result is bit-identical for any
    chunk size or worker split of the same (seed, trials); chunk=1 runs the
    trials one at a time.  One generator, trial_stream(seed, 0), serves
    every chunk: a chunk of size trials reads exactly size*W/4 whole counter
    blocks (W = trial_block_uniforms(N)), so it leaves the generator where
    trial_stream would put the next chunk's first trial.  Every per-chunk
    array a layer writes is taken from one Scratch allocated once per
    estimate: chunk times the float64 slots every trial takes
    (channel_slots, and bound_slots for asynchronous multi under exact MI,
    the one estimate that bounds its rate, whose two bound stages take the
    same slots one after the other), and rewound after every chunk.  That
    estimate builds complex gains, and draws the chunk's phase plane, only
    if some trial's amplitude bounds leave it undecided, and forms a
    spectrum only for the trials both bound stages leave undecided, in
    groups of as many trials as spectrum_slots each fit the same block,
    which holds at least one.  The default chunk is as many
    trials as fit CHUNK_BYTES (at least one), so the block is bounded for
    any block_len and relay count, unless one trial's spectrum alone
    outweighs it.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    _check_int("trials", trials)
    slots, spectrum = channel_slots(cfg.n_relays), 0
    if scheme == SCHEME_MULTI and cfg.mi_mode == MI_EXACT and cfg.sync_mode != SYNCHRONOUS:
        slots, spectrum = slots + bound_slots(cfg), spectrum_slots(cfg)
    if chunk is None:
        chunk = max(1, CHUNK_BYTES // (8 * slots))
    chunk = min(_check_int("chunk", chunk), trials)
    scratch = Scratch(max(chunk * slots, spectrum))
    rng = trial_stream(seed, 0, cfg.n_relays)
    count = 0
    for start in range(0, trials, chunk):
        size = min(chunk, trials - start)
        # alive into the next chunk, flags keep glibc from trimming reused heap pages
        real = draw_realization(cfg, rng, size=size, scratch=scratch)
        flags = _trial_outages(cfg, scheme, real, scratch)
        count += int(np.count_nonzero(flags))
        scratch.rewind()
    return OutageEstimate(count, trials)
