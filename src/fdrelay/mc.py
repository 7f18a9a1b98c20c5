"""Monte-Carlo outage estimation for the multi-relay and selection schemes."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .channel import (PHILOX_BLOCK, LinkSinrs, draw_realization, link_sinrs,
                      trial_block_uniforms)
from .fde import approx_rate, exact_rate, lambda_spectrum
from .model import MI_EXACT, OutageEstimate, SystemConfig, _check_int, eta, relay_tx_power

SCHEME_MULTI = "multi"
SCHEME_OS = "os"
SCHEME_PS = "ps"
SCHEMES = (SCHEME_MULTI, SCHEME_OS, SCHEME_PS)

# byte budget of a default chunk, at 16 bytes per uniform slot of a trial (its
# two Philox planes, read or not) plus, under exact MI, 16 per bin: its 8-byte
# bin SINR and transform scratch, which is (chunk, n < T) except where the taps
# are transformed at T, 24 bytes per bin; the traced peak stays below four
# budgets either way
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


def _trial_outages(cfg: SystemConfig, scheme: str, real, gamma: np.ndarray | None):
    # every step broadcasts over the batch axis, so a trial's flag does not
    # depend on the batch it is drawn in
    mask, sinrs = forwarding(real, cfg, scheme)
    if cfg.mi_mode == MI_EXACT:
        spec = lambda_spectrum(real, mask, cfg, sinrs.relay_tx_power, out=gamma)
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
    per chunk for any block_len and relay count; the power-plane and (exact MI)
    bin-SINR buffers are allocated once and each chunk writes their leading
    size rows.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    _check_int("trials", trials)
    exact, width = cfg.mi_mode == MI_EXACT, trial_block_uniforms(cfg.n_relays)
    if chunk is None:
        chunk = max(1, CHUNK_BYTES // (16 * (width + (cfg.block_len if exact else 0))))
    chunk = min(_check_int("chunk", chunk), trials)
    uniforms = np.empty((chunk, width))
    gamma = np.empty((chunk, cfg.block_len)) if exact else None
    count = 0
    for start in range(0, trials, chunk):
        size = min(chunk, trials - start)
        rng = trial_stream(seed, start, cfg.n_relays)
        real = draw_realization(cfg, rng, size=size, out=uniforms[:size])
        rows = None if gamma is None else gamma[:size]
        count += int(np.count_nonzero(_trial_outages(cfg, scheme, real, rows)))
    return OutageEstimate(count, trials)
