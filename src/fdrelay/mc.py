"""Monte-Carlo outage estimation for the multi-relay and selection schemes."""

from __future__ import annotations

import numpy as np

from .analytic import eta, relay_tx_power
from .channel import (PHILOX_BLOCK, LinkSinrs, draw_realization, link_sinrs,
                      trial_block_uniforms)
from .fde import approx_rate, exact_rate, lambda_spectrum
from .model import MI_EXACT, SYNCHRONOUS, OutageEstimate, SystemConfig

SCHEME_MULTI = "multi"
SCHEME_OS = "os"
SCHEME_PS = "ps"
SCHEMES = (SCHEME_MULTI, SCHEME_OS, SCHEME_PS)

# trials per vectorized batch; exact mode materializes a (batch, block_len)
# complex spectrum, so it runs smaller batches
CHUNK_APPROX = 16384
CHUNK_EXACT = 2048


def trial_stream(seed: int, trial: int, n_relays: int) -> np.random.Generator:
    """Generator positioned at the start of one trial's random substream.

    Every trial owns a fixed whole number of counter blocks, so a batch of
    trials drawn in one call sees exactly the uniforms the trials would see
    drawn one at a time, and any chunking of the trial range is equivalent.
    """
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


def _trial_outages(cfg: SystemConfig, scheme: str, real):
    # every step broadcasts over the batch axis, so a trial's flag does not
    # depend on the batch it is drawn in
    e = eta(cfg.rate, cfg.block_len, cfg.cp_len)
    if scheme == SCHEME_MULTI:
        probe = link_sinrs(real, cfg, relay_tx_power(cfg, cfg.n_relays))
        mask = probe.g_sr >= e
        p_relay = relay_tx_power(cfg, np.maximum(mask.sum(axis=-1), 1))
    elif scheme in (SCHEME_OS, SCHEME_PS):
        # a lone transmitter sees no inter-relay interference
        p_relay = relay_tx_power(cfg, 1)
        probe = link_sinrs(real, cfg, p_relay, interference_var=cfg.var_rsi)
        chosen = np.asarray(select_relay(probe, scheme))
        mask = (np.arange(cfg.n_relays) == chosen[..., None]) & (probe.g_sr >= e)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    if cfg.mi_mode == MI_EXACT:
        rate = exact_rate(lambda_spectrum(real, mask, cfg, p_relay), cfg)
    else:
        tx = link_sinrs(real, cfg, p_relay)
        need = real if cfg.sync_mode == SYNCHRONOUS else None
        rate = approx_rate(tx, mask, cfg, real=need)
    return rate < cfg.rate


def estimate_outage(cfg: SystemConfig, scheme: str, trials: int,
                    seed: int = 0, chunk: int | None = None) -> OutageEstimate:
    """Estimate outage probability over a fixed number of trials.

    Trial t always consumes the substream trial_stream(seed, t), and the
    aggregate is an integer count, so the result is bit-identical for any
    chunk size or worker split of the same (seed, trials); chunk=1 runs the
    trials one at a time.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if chunk is None:
        chunk = CHUNK_EXACT if cfg.mi_mode == MI_EXACT else CHUNK_APPROX
    if chunk < 1:
        raise ValueError("chunk must be positive")
    count = 0
    for start in range(0, trials, chunk):
        size = min(chunk, trials - start)
        rng = trial_stream(seed, start, cfg.n_relays)
        real = draw_realization(cfg, rng, size=size)
        count += int(np.count_nonzero(_trial_outages(cfg, scheme, real)))
    return OutageEstimate.from_counts(count, trials)
