"""Monte-Carlo outage estimation for the multi-relay and selection schemes."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .analytic import eta, relay_tx_power
from .channel import (PHILOX_BLOCK, LinkSinrs, draw_realization, link_sinrs,
                      trial_block_uniforms)
from .fde import BinSpectrum, approx_rate, exact_rate, lambda_spectrum
from .model import MI_EXACT, SYNCHRONOUS, OutageEstimate, SystemConfig, _check_int

SCHEME_MULTI = "multi"
SCHEME_OS = "os"
SCHEME_PS = "ps"
SCHEMES = (SCHEME_MULTI, SCHEME_OS, SCHEME_PS)

# byte budget of the largest array of a chunk: the complex taps (16*block_len
# bytes per trial) under exact MI, else the uniforms (8*trial_block_uniforms(N)
# per plane): the power plane, and under synchronous combining, which reads
# h_rd, the phase plane too.  The default chunk fits it, so memory per chunk is
# bounded for any block_len and the buffers an estimate reuses across chunks
# stay small
CHUNK_BYTES = 2 << 20

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
    """Relay index picked by a selection baseline; ties go to the lowest index.

    os ranks relays by the bottleneck hop min(g_sr, g_rd); ps uses only the
    first hop g_sr.
    """
    if kind == SCHEME_OS:
        score = np.minimum(sinrs.g_sr, sinrs.g_rd)
    elif kind == SCHEME_PS:
        score = sinrs.g_sr
    else:
        raise ValueError(f"unknown selection scheme {kind!r}")
    return np.argmax(score, axis=-1)


def forwarding(real, cfg: SystemConfig, scheme: str) -> tuple[np.ndarray, LinkSinrs]:
    """(mask, sinrs): who forwards, and the link SINRs at their per-trial transmit power
    sinrs.relay_tx_power.  multi: every relay that decodes at the all-relay power, sharing
    the budget; os/ps: the selected relay alone, if it decodes, so with var_iri = 0."""
    if scheme == SCHEME_MULTI:
        mask = link_sinrs(real, cfg, relay_tx_power(cfg, cfg.n_relays)).g_sr >= eta(cfg)
        p_relay = relay_tx_power(cfg, np.maximum(mask.sum(axis=-1), 1))
        return mask, link_sinrs(real, cfg, p_relay)
    sinrs = link_sinrs(real, replace(cfg, var_iri=0.0), relay_tx_power(cfg, 1))
    chosen = np.asarray(select_relay(sinrs, scheme))
    return (np.arange(cfg.n_relays) == chosen[..., None]) & (sinrs.g_sr >= eta(cfg)), sinrs


def _trial_outages(cfg: SystemConfig, scheme: str, real, spec_out: BinSpectrum | None):
    # every step broadcasts over the batch axis, so a trial's flag does not
    # depend on the batch it is drawn in
    mask, sinrs = forwarding(real, cfg, scheme)
    if cfg.mi_mode == MI_EXACT:
        spec = lambda_spectrum(real, mask, cfg, sinrs.relay_tx_power, out=spec_out)
        rate = exact_rate(spec, cfg, out=spec.gamma)
    else:
        rate = approx_rate(sinrs, mask, cfg)
    return rate < cfg.rate


def estimate_outage(cfg: SystemConfig, scheme: str, trials: int,
                    seed: int = 0, chunk: int | None = None) -> OutageEstimate:
    """Estimate outage probability over a fixed number of trials.

    Trial t always consumes the substream trial_stream(seed, t), and the
    aggregate is an integer count, so the result is bit-identical for any
    chunk size or worker split of the same (seed, trials); chunk=1 runs the
    trials one at a time.  The default chunk fits CHUNK_BYTES, bounding memory
    per chunk for any block_len; the power-plane and (exact MI) spectrum buffers
    are allocated once and each chunk writes their leading size rows.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    _check_int("trials", trials)
    exact, width = cfg.mi_mode == MI_EXACT, trial_block_uniforms(cfg.n_relays)
    if chunk is None:
        planes = 2 if cfg.sync_mode == SYNCHRONOUS else 1
        chunk = max(1, CHUNK_BYTES // (16 * cfg.block_len if exact else 8 * planes * width))
    chunk = min(_check_int("chunk", chunk), trials)
    uniforms = np.empty((chunk, width))
    spec = BinSpectrum(np.empty((chunk, cfg.block_len), complex),
                       np.empty((chunk, cfg.block_len))) if exact else None
    count = 0
    for start in range(0, trials, chunk):
        size = min(chunk, trials - start)
        rng = trial_stream(seed, start, cfg.n_relays)
        real = draw_realization(cfg, rng, size=size, out=uniforms[:size])
        rows = None if spec is None else BinSpectrum(spec.lam[:size], spec.gamma[:size])
        count += int(np.count_nonzero(_trial_outages(cfg, scheme, real, rows)))
    return OutageEstimate(count, trials)
