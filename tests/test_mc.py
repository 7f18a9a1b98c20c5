import functools
import json
import math
import re
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2, norm

from fdrelay import channel, fde, mc
from fdrelay.analytic import total_outage
from fdrelay.channel import LinkSinrs, gather_relay
from fdrelay.cli import PRESET_NAMES, _config_spec, build_preset
from fdrelay.mc import (SCHEME_MULTI, SCHEME_OS, SCHEME_PS, SCHEMES,
                        estimate_outage, select_relay, trial_stream)
from fdrelay.model import (ASYNCHRONOUS, FIXED_PER_RELAY, LINK_MEAN_MAX, MI_APPROXIMATE,
                           MI_EXACT, SHARED_BUDGET, SYNCHRONOUS, SystemConfig, apply_param,
                           validate_config)
from oracles import (batch_rows, coherent_plane_one_realization, coherent_power, law_tap_block,
                     one_hot, plane_one_realization, simulate_trials, spare_turn_gains)


def fig_config(**over):
    kwargs = dict(n_relays=5, p_source=10 ** 0.5, e_relay_budget=10 ** 0.5,
                  rate=2.0, var_sd=1.0, var_sr=10 ** 0.8, var_rd=10.0,
                  var_rsi=1.0, var_iri=1.0)
    kwargs.update(over)
    cfg = SystemConfig(**kwargs)
    validate_config(cfg)
    return cfg


def sinrs(g_sr, g_rd):
    # SINRs stored where LinkSinrs keeps those it forms on first read
    out = LinkSinrs(real=None, cfg=None, relay_tx_power=1.0)
    out.__dict__.update(g_sd=np.float64(1.0), g_sr=np.asarray(g_sr, dtype=float),
                        g_rd=np.asarray(g_rd, dtype=float))
    return out


def test_select_relay_rules():
    pick = sinrs([10.0, 2.0], [1.0, 8.0])
    assert select_relay(pick, SCHEME_OS) == 1     # bottleneck mins are [1, 2]
    assert select_relay(pick, SCHEME_PS) == 0
    tie = sinrs([5.0, 5.0], [3.0, 9.0])
    assert select_relay(tie, SCHEME_PS) == 0
    with pytest.raises(ValueError, match="unknown selection scheme"):
        select_relay(pick, "best")


def test_select_relay_batch():
    batch = sinrs([[10.0, 2.0], [1.0, 2.0]], [[1.0, 8.0], [9.0, 9.0]])
    assert select_relay(batch, SCHEME_OS).tolist() == [1, 1]
    assert select_relay(batch, SCHEME_PS).tolist() == [0, 1]


@pytest.mark.parametrize("scheme", [SCHEME_OS, SCHEME_PS])
def test_selection_forwards_one_relay_free_of_inter_relay_interference(scheme):
    # the lone selected relay transmits at the full budget and its SINRs are
    # those of the config with var_iri = 0; it forwards only if it decodes
    cfg = fig_config(n_relays=10, var_sr=1.0)
    real = channel.draw_realization(cfg, trial_stream(4, 0, 10), size=500)
    forwards, chosen, got = mc.forwarding(real, cfg, scheme)
    mask = one_hot(chosen, forwards, cfg.n_relays)
    assert mask.dtype == bool and mask.shape == (500, 10)
    assert mask.sum(axis=-1).max() <= 1
    assert 0 < mask.sum() < 500
    rows = mask.any(axis=-1)
    assert np.array_equal(mask.argmax(axis=-1)[rows], select_relay(got, scheme)[rows])
    want = channel.link_sinrs(real, replace(cfg, var_iri=0.0), cfg.e_relay_budget)
    for name in ("g_sd", "g_sr", "g_rd", "relay_tx_power"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.real is real


@pytest.mark.parametrize("mi", [MI_APPROXIMATE, MI_EXACT])
@pytest.mark.parametrize("scheme, calls", [(SCHEME_MULTI, 2), (SCHEME_OS, 1), (SCHEME_PS, 1)])
def test_link_sinrs_calls_per_chunk(monkeypatch, mi, scheme, calls):
    # multi probes at the decode-stage power, then transmits at the power of
    # its forwarding count; a selection relay's probe is already at its power
    seen, link = [], mc.link_sinrs
    monkeypatch.setattr(mc, "link_sinrs", lambda *a, **k: seen.append(a) or link(*a, **k))
    estimate_outage(fig_config(mi_mode=mi, block_len=32), scheme, 1000, seed=3, chunk=400)
    assert len(seen) == 3 * calls


def test_trial_stream_is_a_partition_of_one_stream():
    cfg = fig_config()
    pad = 12    # 1+2N = 11 power uniforms, padded to whole blocks of 4
    rng_all = trial_stream(0, 0, cfg.n_relays)
    whole = rng_all.uniform(size=3 * pad).reshape(3, pad)
    for t in range(3):
        part = trial_stream(0, t, cfg.n_relays).uniform(size=pad)
        assert np.array_equal(part, whole[t])


def test_trial_stream_determinism():
    a = trial_stream(42, 7, 5).uniform(size=8)
    b = trial_stream(42, 7, 5).uniform(size=8)
    assert np.array_equal(a, b)
    c = trial_stream(43, 7, 5).uniform(size=8)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_estimate_matches_scalar_trials(scheme):
    # chunk=1 runs each trial alone, as a batch of one drawn from
    # trial_stream(seed, t)
    cfg = fig_config()
    est = estimate_outage(cfg, scheme, trials=300, seed=5, chunk=64)
    one_by_one = estimate_outage(cfg, scheme, trials=300, seed=5, chunk=1)
    assert est.outage_count == one_by_one.outage_count
    assert est.trials == 300


def test_estimate_matches_scalar_trials_exact_and_sync():
    for cfg in (fig_config(mi_mode=MI_EXACT),
                fig_config(sync_mode=SYNCHRONOUS, delays=None)):
        est = estimate_outage(cfg, SCHEME_MULTI, trials=200, seed=9, chunk=48)
        one_by_one = estimate_outage(cfg, SCHEME_MULTI, trials=200, seed=9, chunk=1)
        assert est.outage_count == one_by_one.outage_count


def test_chunking_never_changes_counts():
    cfg = fig_config()
    for scheme in SCHEMES:
        counts = {estimate_outage(cfg, scheme, trials=400, seed=11,
                                  chunk=c).outage_count
                  for c in (1, 7, 64, 400, None)}
        assert len(counts) == 1, scheme


def test_same_seed_reproduces():
    cfg = fig_config(n_relays=10)
    a = estimate_outage(cfg, SCHEME_OS, trials=500, seed=2)
    b = estimate_outage(cfg, SCHEME_OS, trials=500, seed=2)
    assert a == b


def test_single_relay_schemes_coincide():
    # with one relay there is nothing to select: every scheme runs the same
    # decode test and the same transmission, so outcomes match trial by trial.
    # var_iri must be zero because the multi-relay decode stage charges it
    # even for a lone relay while selection never does.
    cfg = fig_config(n_relays=1, var_iri=0.0)
    counts = [estimate_outage(cfg, s, trials=500, seed=21).outage_count
              for s in SCHEMES]
    assert counts[0] == counts[1] == counts[2]


def test_exact_mi_never_beats_approximation():
    # the per-bin spectrum rate is pathwise at most the aggregate-SINR rate,
    # so with shared randomness the exact-MI outage count dominates
    base = fig_config()
    approx = estimate_outage(base, SCHEME_MULTI, trials=2000, seed=31)
    exact = estimate_outage(fig_config(mi_mode=MI_EXACT), SCHEME_MULTI,
                            trials=2000, seed=31)
    assert exact.outage_count >= approx.outage_count


def test_selection_trails_multi_relay_when_first_hop_is_weak():
    cfg = fig_config(n_relays=10, p_source=10.0, e_relay_budget=10.0,
                     var_sr=1.0, var_rd=10.0)
    multi = estimate_outage(cfg, SCHEME_MULTI, trials=4000, seed=3)
    ps = estimate_outage(cfg, SCHEME_PS, trials=4000, seed=3)
    assert ps.p_hat > multi.p_hat


def test_dead_first_hop_reduces_to_direct_link():
    cfg = fig_config(var_sr=0.0)
    p_direct = total_outage(cfg)  # no relay ever decodes
    for scheme in SCHEMES:
        est = estimate_outage(cfg, scheme, trials=20_000, seed=8)
        stderr = math.sqrt(p_direct * (1 - p_direct) / est.trials)
        assert abs(est.p_hat - p_direct) <= 4 * stderr


def test_zero_source_power_always_fails():
    cfg = fig_config(p_source=0.0)
    est = estimate_outage(cfg, SCHEME_MULTI, trials=100, seed=0)
    assert est.outage_count == 100 and est.p_hat == 1.0


def test_estimate_validates_arguments():
    cfg = fig_config()
    with pytest.raises(ValueError, match="unknown scheme"):
        estimate_outage(cfg, "round_robin", trials=10)
    with pytest.raises(ValueError, match="trials must be a positive integer"):
        estimate_outage(cfg, SCHEME_MULTI, trials=0)


@pytest.mark.parametrize("args, message", [
    (dict(trials=True), "trials must be a positive integer"),
    (dict(trials=2.5), "trials must be a positive integer"),
    (dict(trials=10, chunk=2.5), "chunk must be a positive integer"),
    (dict(trials=10, chunk=True), "chunk must be a positive integer"),
    (dict(trials=10, scheme="round_robin"), "unknown scheme"),
], ids=["bool-trials", "float-trials", "float-chunk", "bool-chunk", "unknown-scheme"])
def test_estimate_rejects_arguments_before_any_work(monkeypatch, args, message):
    # bools and floats are not counts; nothing is drawn or allocated first
    def refuse(*a, **k):
        raise AssertionError("worked before checking its arguments")

    monkeypatch.setattr(mc, "trial_stream", refuse)
    monkeypatch.setattr(mc, "draw_realization", refuse)
    monkeypatch.setattr(mc, "np", SimpleNamespace(empty=refuse))
    args = {"scheme": SCHEME_MULTI, **args}
    with pytest.raises(ValueError, match=message):
        estimate_outage(fig_config(mi_mode=MI_EXACT), **args)


BAD_SEEDS = pytest.mark.parametrize("seed", [-1, 2**128, 1.5, True],
                                    ids=["negative", "2**128", "float", "bool"])


def refuse(*args, **kwargs):
    raise AssertionError("drew before checking its arguments")


def seed_error(seed):
    return re.escape(f"seed must be a non-negative integer below 2**128, got {seed!r}")


@BAD_SEEDS
def test_estimate_rejects_seeds_before_any_draw(monkeypatch, seed):
    # a seed picks every draw, so 1.5 or True is never truncated to a key
    monkeypatch.setattr(mc, "draw_realization", refuse)
    with pytest.raises(ValueError, match=seed_error(seed)):
        estimate_outage(fig_config(), SCHEME_MULTI, trials=10, seed=seed)


@BAD_SEEDS
def test_trial_stream_rejects_seeds_before_any_draw(monkeypatch, seed):
    monkeypatch.setattr(mc, "np", SimpleNamespace(random=SimpleNamespace(
        Philox=refuse, Generator=refuse)))
    with pytest.raises(ValueError, match=seed_error(seed)):
        trial_stream(seed, 0, 3)


@pytest.mark.parametrize("trial", [-1, 1.0, True])
def test_trial_stream_rejects_trial_indices_before_any_draw(monkeypatch, trial):
    # trial -1 would otherwise wrap the counter to the end of the key's stream
    monkeypatch.setattr(mc, "np", SimpleNamespace(random=SimpleNamespace(
        Philox=refuse, Generator=refuse)))
    with pytest.raises(ValueError,
                       match=f"trial must be a non-negative integer, got {trial!r}"):
        trial_stream(0, trial, 3)


def test_seeds_span_the_whole_philox_key():
    top, skip = 2**128 - 1, 5 * channel.trial_block_uniforms(3)
    a = trial_stream(top, 5, 3).random(8)
    b = np.random.Generator(np.random.Philox(key=top)).random(skip + 8)[skip:]
    assert np.array_equal(a, b)
    cfg = fig_config()
    assert estimate_outage(cfg, SCHEME_PS, 50, top) == estimate_outage(cfg, SCHEME_PS, 50, top,
                                                                        chunk=7)


@pytest.mark.parametrize("over", [
    dict(),
    dict(sync_mode=SYNCHRONOUS, delays=None),
    dict(mi_mode=MI_EXACT),
    dict(mi_mode=MI_EXACT, sync_mode=SYNCHRONOUS, delays=None),
    dict(mi_mode=MI_EXACT, cp_len=31, delays=(3, 9, 17, 25, 31), p_source=30.0,
         e_relay_budget=30.0),
], ids=["async-approx", "sync-approx", "async-exact", "sync-exact", "circular-exact"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_reused_chunk_buffers_match_fresh_ones(over, scheme):
    # estimate_outage reuses one uniform block and, under exact MI, one gamma
    # block across chunks.  52 trials in chunks of 7 or 18 end on a ragged
    # chunk that writes only the block's leading slots; chunk=1 refills one row 52
    # times; chunk=None is a single fresh chunk.  Near-even outage odds make
    # stale rows show in the count.  Delays up to 31 of 32 bins make the
    # taps' autocorrelation circular (the long prefix needs more power).
    cfg = fig_config(rate=2.5, block_len=32, **over)
    counts = [estimate_outage(cfg, scheme, 52, seed=13, chunk=c).outage_count
              for c in (7, 1, None, 52 // 3 + 1)]
    assert len(set(counts)) == 1
    assert 5 < counts[0] < 47


class FirstChunkDone(Exception):
    pass


# fig4 under exact MI as fig_config overrides: at var_sr 10 dB the rate
# bounds decide every trial, so multi's spectrum runs on empty batches
FIG4_EXACT = dict(n_relays=10, p_source=10.0, e_relay_budget=10.0, var_rd=10.0, var_iri=1.0,
                  block_len=500, cp_len=10, mi_mode=MI_EXACT)


@pytest.mark.parametrize("over, chunk", [
    (dict(), 400),
    (dict(sync_mode=SYNCHRONOUS, delays=None), 400),
    (dict(mi_mode=MI_EXACT), 400),
    (dict(mi_mode=MI_EXACT, sync_mode=SYNCHRONOUS, delays=None), 400),
    (dict(mi_mode=MI_EXACT, cp_len=31, delays=(3, 9, 17, 25, 31), p_source=30.0,
          e_relay_budget=30.0), 400),
    (dict(n_relays=64, block_len=128, cp_len=64), 400),
    (dict(n_relays=64, block_len=100, cp_len=64, mi_mode=MI_EXACT), 400),
    (dict(n_relays=1), 400),
    (dict(n_relays=10), 400),
    (dict(n_relays=10, sync_mode=SYNCHRONOUS, delays=None), 400),
    (dict(n_relays=10, block_len=64, mi_mode=MI_EXACT), 400),
    (dict(n_relays=1, block_len=4096, mi_mode=MI_EXACT, sync_mode=SYNCHRONOUS,
          delays=None), 8),
    (dict(block_len=4096, cp_len=3000, delays=(3, 900, 1700, 2500, 3000),
          mi_mode=MI_EXACT), 8),
    (dict(n_relays=1, block_len=1 << 19, mi_mode=MI_EXACT), 1),
    (dict(FIG4_EXACT, var_sr=10.0), 400),
], ids=["async-approx", "sync-approx", "async-exact", "sync-exact", "circular-exact",
        "approx-N64", "circular-exact-N64", "approx-N1", "approx-N10", "sync-approx-N10",
        "exact-N10-T64", "sync-exact-N1-T4096", "circular-exact-T4096",
        "one-trial-over-budget", "fig4-exact-sr10dB"])
def test_chunks_take_their_arrays_from_one_declared_block(monkeypatch, over, chunk):
    # every array a layer takes lies in the estimate's one block, a complex
    # one 16-byte aligned; every chunk takes the same slots per trial (one of
    # padding counted per complex take) and they fit the slots each layer
    # module declares.  Gains are read right after each draw, as the
    # benchmark's trace reads them, so the phase plane is taken early and in
    # every case; then the schemes together take all that is declared.  Only
    # asynchronous multi under exact MI bounds its rate, so only its chunk
    # trials hold bound_slots: a block with one relayed tap (a selection
    # scheme's, or synchronous multi's) is its channel_slots alone.  It
    # bounds in two stages, amplitude_bounds then rate_bounds, each starting
    # at the slot the first started at, so its slots are those of its larger
    # stage, each within bound_slots.  Its spectrum runs in groups, at least
    # one a chunk, each rewinding the same block inside _trial_outages and
    # taking spectrum_slots per row for at most as many rows as fit it; the
    # block holds at least one trial's spectrum.  At the default chunk the
    # block fits CHUNK_BYTES and one more trial would not, or it is one
    # trial's spectrum that alone outweighs the budget
    cfg = fig_config(**{"block_len": 32, **over})
    n = cfg.n_relays
    spectrum = cfg.mi_mode == MI_EXACT and cfg.sync_mode == ASYNCHRONOUS
    declared = {"fdrelay.channel": channel.channel_slots(n),
                "fdrelay.fde": fde.bound_slots(cfg) if spectrum else 0}
    group_slots = fde.spectrum_slots(cfg)
    take, rewind = channel.Scratch.take, channel.Scratch.rewind
    draw, outages = mc.draw_realization, mc._trial_outages
    chunks, groups, sizes, scratches, most = [], [], [], [], Counter()
    stages = []             # per chunk: [bound function, its first slot, its slots per trial]
    grouping = [False]      # whether takes now serve a spectrum group

    def spy_take(self, shape, dtype=float, order="C"):
        taken = take(self, shape, dtype, order)
        # an empty take, a spectrum of no undecided trials, is a view of the block too
        assert np.shares_memory(taken, self.block) or (taken.size == 0 and taken.base is self.block)
        assert taken.dtype != complex or taken.ctypes.data % 16 == 0
        scratches.append(self)
        layer = sys._getframe(1).f_globals["__name__"]
        slots = math.prod(shape[1:]) * taken.itemsize // 8 + (taken.dtype == complex)
        if grouping[0]:
            assert layer == "fdrelay.fde"
            assert shape[0] <= self.block.size // group_slots
            groups[-1] += slots
        elif layer == "fdrelay.fde":
            stages[-1][-1][2] += slots
        else:
            chunks[-1][layer] += slots
        return taken

    def staged(bounds):
        def spy(real, mask, cfg, power, scratch):
            stages[-1].append([bounds.__name__, scratch.used, 0])
            return bounds(real, mask, cfg, power, scratch)
        return spy

    def spy_rewind(self):
        rewind(self)
        if sys._getframe(1).f_code is outages.__code__:     # a spectrum group starts
            grouping[0] = True
            groups.append(0)

    def spy_draw(*args, **kwargs):
        grouping[0] = False
        chunks.append(Counter())
        stages.append([])
        sizes.append(kwargs["size"])
        real = draw(*args, **kwargs)
        real.h_sd, real.h_sr, real.h_rd
        return real

    def first_chunk(*args):
        outages(*args)
        raise FirstChunkDone

    monkeypatch.setattr(channel.Scratch, "take", spy_take)
    monkeypatch.setattr(channel.Scratch, "rewind", spy_rewind)
    monkeypatch.setattr(mc, "draw_realization", spy_draw)
    for name in ("amplitude_bounds", "rate_bounds"):
        monkeypatch.setattr(mc, name, staged(getattr(mc, name)))
    for scheme in SCHEMES:
        chunks.clear()
        groups.clear()
        scratches.clear()
        stages.clear()
        # three chunks, the last ragged where chunk > 1
        estimate_outage(cfg, scheme, 2 * chunk + (chunk + 1) // 2, seed=3, chunk=chunk)
        grouped = spectrum and scheme == SCHEME_MULTI
        for chunk_stages, counts in zip(stages, chunks):
            assert [name for name, _, _ in chunk_stages] == (
                ["amplitude_bounds", "rate_bounds"] if grouped else []), scheme
            # each stage takes the first stage's slots again
            assert len({start for _, start, _ in chunk_stages}) <= 1, chunk_stages
            if chunk_stages:
                counts["fdrelay.fde"] = max(slots for _, _, slots in chunk_stages)
        assert len({tuple((name, slots) for name, _, slots in st) for st in stages}) == 1
        assert len(set(map(id, scratches))) == 1 and len({id(s.block) for s in scratches}) == 1
        assert len(chunks) == 3 and chunks[0] == chunks[1] == chunks[2], scheme
        layers = declared if scheme == SCHEME_MULTI else {"fdrelay.channel": declared["fdrelay.channel"]}
        assert set(chunks[0]) <= set(layers)
        for layer, slots in chunks[0].items():
            assert slots <= layers[layer], (scheme, layer)
            most[layer] = max(most[layer], slots)
        least = group_slots if grouped else 0
        assert scratches[0].block.size == max(chunk * sum(layers.values()), least), scheme
        if grouped:
            assert len(groups) >= 3 and set(groups) == {group_slots}
            assert scratches[0].block.size // group_slots >= 1
        else:
            assert not groups
    assert most["fdrelay.channel"] == declared["fdrelay.channel"]
    assert most["fdrelay.fde"] == declared["fdrelay.fde"]
    block = scratches[0]
    rewind(block)
    take(block, (block.block.size,))
    with pytest.raises(ValueError, match="overruns the scratch block"):
        take(block, (1,))

    monkeypatch.setattr(mc, "_trial_outages", first_chunk)
    for scheme in SCHEMES:
        scratches.clear()
        sizes.clear()
        stages.clear()
        with pytest.raises(FirstChunkDone):
            estimate_outage(cfg, scheme, 1 << 40, seed=5)
        block, rows = scratches[0].block, sizes[0]
        per_trial = declared["fdrelay.channel"] + (declared["fdrelay.fde"] if scheme == SCHEME_MULTI else 0)
        one_spectrum = spectrum and scheme == SCHEME_MULTI and 8 * group_slots > mc.CHUNK_BYTES
        assert block.size == (group_slots if one_spectrum else rows * per_trial)
        assert 8 * block.size <= mc.CHUNK_BYTES or one_spectrum
        assert 8 * (rows + 1) * per_trial > mc.CHUNK_BYTES


@pytest.mark.parametrize("cfg, trials", [
    (replace(build_preset("fig4").variants[0][1].base, mi_mode=MI_EXACT, block_len=4096), 300),
    (fig_config(n_relays=64, cp_len=64), 5000),
    (fig_config(n_relays=64, cp_len=64, sync_mode=SYNCHRONOUS, delays=None), 5000),
    (fig_config(n_relays=32, block_len=8, cp_len=8, sync_mode=SYNCHRONOUS, delays=None,
                mi_mode=MI_EXACT), 5000),
    (fig_config(n_relays=64, block_len=100, cp_len=64, mi_mode=MI_EXACT), 5000),
], ids=["exact-T4096", "approx-N64", "sync-approx-N64", "sync-exact-N32-T8", "exact-N64-T100"])
def test_estimate_memory_is_bounded_by_the_chunk_budget(cfg, trials):
    # the default chunk's block fits CHUNK_BYTES, so the traced peak, the
    # block and the chunk's temporaries, stays under two budgets however long
    # the block or many the relays, also where the relay axis outweighs the
    # taps (2N+1 > T)
    tracemalloc.start()
    try:
        estimate_outage(cfg, SCHEME_MULTI, trials, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * mc.CHUNK_BYTES


def test_estimate_agrees_with_closed_form():
    cfg = fig_config()
    p = total_outage(cfg)
    est = estimate_outage(cfg, SCHEME_MULTI, trials=200_000, seed=12)
    stderr = math.sqrt(p * (1 - p) / est.trials)
    assert abs(est.p_hat - p) <= 3 * stderr


# the closed form against multi MC over the accepted config space, under
# approximate MI: configs from the closed-form benchmark's ranges (N 1-64,
# rate 0.5-8, P_S and E_R 0-30 dB, every variance -20..20 dB, both modes and
# power policies), drawn by generator seed 1 and kept, by the closed form
# alone, while 1e-3 < p < 1 - 1e-3; config k runs SPACE_TRIALS at seed k.
# Configs, seeds, trials and bounds were fixed before the first run: a
# failure is a program fault, not a bound to move.
SPACE_CONFIGS = 60
SPACE_TRIALS = 20_000
SPACE_ALPHA = 1e-3          # false-alarm rate of each of the two combined tests


def space_configs(count: int) -> list:
    # (config, closed-form p) pairs
    rng = np.random.default_rng(1)
    kept = []
    while len(kept) < count:
        n = int(rng.integers(1, 65))
        rate = float(rng.uniform(0.5, 8.0))
        p_source, e_relay = (10.0 ** (rng.uniform(0.0, 30.0, 2) / 10.0)).tolist()
        var = (10.0 ** (rng.uniform(-20.0, 20.0, 5) / 10.0)).tolist()
        cfg = validate_config(SystemConfig(
            n_relays=n, p_source=p_source, e_relay_budget=e_relay, rate=rate,
            var_sd=var[0], var_sr=var[1], var_rd=var[2], var_rsi=var[3], var_iri=var[4],
            cp_len=max(10, n), sync_mode=SYNCHRONOUS if rng.random() < 0.5 else ASYNCHRONOUS,
            relay_power_policy=FIXED_PER_RELAY if rng.random() < 0.5 else SHARED_BUDGET,
            mi_mode=MI_APPROXIMATE))
        p = total_outage(cfg)
        if 1e-3 < p < 1.0 - 1e-3:
            kept.append((cfg, p))
    return kept


def test_closed_form_agrees_with_mc_over_the_config_space():
    z = []
    for k, (cfg, p) in enumerate(space_configs(SPACE_CONFIGS)):
        est = estimate_outage(cfg, SCHEME_MULTI, SPACE_TRIALS, seed=k)
        z.append((est.p_hat - p) / math.sqrt(p * (1.0 - p) / SPACE_TRIALS))
    z = np.array(z)
    assert np.sum(z * z) <= chi2.isf(SPACE_ALPHA, SPACE_CONFIGS)
    assert np.max(np.abs(z)) <= norm.isf(SPACE_ALPHA / (2 * SPACE_CONFIGS))     # Bonferroni


def test_async_approx_never_builds_complex_gains(monkeypatch):
    # the aggregate-SINR rule reads |h|^2 only, selection included
    def refuse(*args, **kwargs):
        raise AssertionError("complex gain built")

    monkeypatch.setattr(channel, "gains_from_uniforms", refuse)
    for scheme in SCHEMES:
        assert estimate_outage(fig_config(), scheme, 3000, seed=2).trials == 3000


def test_exact_mi_forms_a_spectrum_only_for_asynchronous_multi(monkeypatch):
    # a block with one relayed tap (os, ps, synchronous multi) has its exact
    # rate in closed form and forms no spectrum; asynchronous multi forms one
    # in every chunk, on the rows its rate bounds leave undecided
    spectrum, calls = mc.lambda_spectrum, []

    def refuse(*args, **kwargs):
        raise AssertionError("spectrum formed")

    async_cfg = fig_config(mi_mode=MI_EXACT, block_len=64)
    sync_cfg = fig_config(mi_mode=MI_EXACT, block_len=64, sync_mode=SYNCHRONOUS, delays=None)
    monkeypatch.setattr(mc, "lambda_spectrum", refuse)
    for cfg, scheme in [(async_cfg, SCHEME_OS), (async_cfg, SCHEME_PS), (sync_cfg, SCHEME_OS),
                        (sync_cfg, SCHEME_PS), (sync_cfg, SCHEME_MULTI)]:
        assert estimate_outage(cfg, scheme, 600, seed=4, chunk=256).trials == 600
    monkeypatch.setattr(mc, "lambda_spectrum", lambda *a: calls.append(a) or spectrum(*a))
    assert estimate_outage(async_cfg, SCHEME_MULTI, 600, seed=4, chunk=256).trials == 600
    assert len(calls) == 3


@pytest.mark.parametrize("over, links", [
    (dict(), {}),
    (dict(sync_mode=SYNCHRONOUS, delays=None), {}),
    (dict(mi_mode=MI_EXACT), {SCHEME_MULTI: ("sd", "rd")}),
    (dict(mi_mode=MI_EXACT, sync_mode=SYNCHRONOUS, delays=None), {}),
], ids=["async-approx", "sync-approx", "exact", "sync-exact"])
def test_complex_gains_built_only_where_read(monkeypatch, over, links):
    # count the gain builds of every chunk's realization, by the power array
    # each build starts from: each link the rate reads is built once per
    # chunk, and no gain is built from any other array; a block with one
    # relayed tap (a lone selected relay's, or synchronous multi's, drawn
    # from its law) reads |h|^2 and, under exact MI, the realization's turn,
    # so os, ps and synchronous multi build no complex gain in either MI
    # mode.  Asynchronous multi under
    # exact MI reads gains only in its second bound stage, so it builds them
    # for the realization rate_bounds reads: the chunk's trials its amplitude
    # bounds leave undecided, some but not all of them
    draw, build = mc.draw_realization, channel.gains_from_uniforms
    amplitude, phased = mc.amplitude_bounds, mc.rate_bounds
    links_of = ("sd", "sr", "rd")
    for scheme in SCHEMES:
        read = links.get(scheme, ())
        reals, built, undecided = [], [], []

        def stage_one(real, mask, cfg, *args):
            lower, upper = amplitude(real, mask, cfg, *args)
            undecided.append(np.flatnonzero(~(upper < cfg.rate) & (lower < cfg.rate)))
            return lower, upper

        def stage_two(real, *args):
            drawn = reals[-1]
            for link in links_of:
                want = getattr(drawn, "h2_" + link)[undecided[-1]]
                assert np.array_equal(getattr(real, "h2_" + link), want), link
            reals[-1] = real        # the realization whose gains the chunk builds
            return phased(real, *args)

        monkeypatch.setattr(mc, "draw_realization",
                            lambda *a, **k: reals.append(draw(*a, **k)) or reals[-1])
        monkeypatch.setattr(channel, "gains_from_uniforms",
                            lambda power, u1: built.append((reals[-1], power)) or build(power, u1))
        monkeypatch.setattr(mc, "amplitude_bounds", stage_one)
        monkeypatch.setattr(mc, "rate_bounds", stage_two)
        estimate_outage(fig_config(**over), scheme, 1000, seed=3, chunk=400)
        assert len(reals) == 3
        if undecided:
            assert len(undecided) == 3 and 0 < sum(map(len, undecided)) < 1000, scheme
        for real in reals:
            powers = [p for r, p in built if r is real]
            counts = {link: sum(p is getattr(real, "h2_" + link) for p in powers)
                      for link in links_of}
            assert counts == {link: int(link in read) for link in counts}, scheme
            gathered = [p.shape for p in powers
                        if not any(p is getattr(real, "h2_" + link) for link in links_of)]
            assert gathered == [], scheme
        assert len(built) == 3 * len(read)


@pytest.mark.parametrize("over, planes", [
    (dict(), {}),
    (dict(sync_mode=SYNCHRONOUS, delays=None), {}),
    (dict(mi_mode=MI_EXACT), {SCHEME_MULTI: 1}),
    (dict(mi_mode=MI_EXACT, sync_mode=SYNCHRONOUS, delays=None), {}),
], ids=["async-approx", "sync-approx", "exact", "sync-exact"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_phase_plane_drawn_once_per_chunk_where_read(monkeypatch, over, planes, scheme):
    # only asynchronous multi under exact MI generates a phase plane: a
    # rate that reads complex gains or phase uniforms generates its chunk's
    # plane once, however many links it reads; a block with one relayed tap
    # (os, ps and synchronous multi) reads the spare turn instead
    draw, drawn = mc.draw_realization, []

    def spy(*args, **kwargs):
        real = draw(*args, **kwargs)
        plane = real.phase_plane
        return replace(real, phase_plane=lambda: drawn.append(plane()) or drawn[-1])

    monkeypatch.setattr(mc, "draw_realization", spy)
    estimate_outage(fig_config(**over), scheme, 1000, seed=3, chunk=400)
    assert [u.shape for u in drawn] == [(400, 12), (400, 12), (200, 12)][:3 * planes.get(scheme, 0)]


def test_phase_plane_drawn_only_for_chunks_with_trials_the_amplitude_bounds_leave(monkeypatch):
    # at fig4 0 dB under exact MI the amplitude bounds decide 99.6% of
    # multi's trials, so most chunks of 7 leave none to the phased bounds:
    # those draw no phase plane and build no gain, and every other chunk
    # draws its whole plane, in stream order, once; the counts are the
    # default chunk's, whose one plane is drawn for a few rows
    cfg = apply_param(replace(build_preset("fig4").variants[0][1].base, mi_mode=MI_EXACT),
                      "var_sr_db", 0.0)
    draw, amplitude, drawn, left = mc.draw_realization, mc.amplitude_bounds, [], []

    def spy_draw(*args, **kwargs):
        real = draw(*args, **kwargs)
        plane = real.phase_plane
        return replace(real, phase_plane=lambda: drawn.append(plane()) or drawn[-1])

    def stage_one(real, mask, cfg, *args):
        lower, upper = amplitude(real, mask, cfg, *args)
        left.append((real.h2_sd.size, int(np.count_nonzero(~(upper < cfg.rate) & (lower < cfg.rate)))))
        return lower, upper

    monkeypatch.setattr(mc, "draw_realization", spy_draw)
    monkeypatch.setattr(mc, "amplitude_bounds", stage_one)
    count = estimate_outage(cfg, SCHEME_MULTI, 700, seed=3, chunk=7)
    reaching = [size for size, rows in left if rows]
    assert len(left) == 100 and 0 < len(reaching) < 20, left
    assert [u.shape for u in drawn] == [(size, 24) for size in reaching]
    drawn.clear()
    assert estimate_outage(cfg, SCHEME_MULTI, 700, seed=3) == count
    assert [u.shape for u in drawn] == [(700, 24)]


TOOLS = Path(__file__).resolve().parent.parent / "tools"


def exact_multi_points() -> list:
    # every point of the fig2-fig5 presets and of tools/scenario*.json
    # (scenario, scenario_ceiling, scenario_wide) under exact MI
    specs = [spec for name in PRESET_NAMES for _, spec in build_preset(name).variants]
    specs += [_config_spec(json.loads(path.read_text()))
              for path in sorted(TOOLS.glob("scenario*.json"))]
    return [apply_param(replace(spec.base, mi_mode=MI_EXACT), spec.param, value)
            for spec in specs for value in spec.values]


# oracle rates this close to the target rate may fall on either side of it
# in the engine, which forms the same rate in another operation order
TIE_BAND = 1e-9


@pytest.mark.parametrize("mi", [MI_APPROXIMATE, MI_EXACT])
def test_trial_flags_match_the_per_trial_oracle_at_every_preset_point(monkeypatch, mi):
    # every estimate's flags, drawn in three chunks by one generator, are the
    # per-trial oracle's at every fig2-fig5 point and scheme, which shares no
    # draw, gain, forwarding or rate code with the engine; a flag may differ
    # only where the oracle's rate lies within the tie band of the target,
    # and such ties are counted and reported
    outages, flags = mc._trial_outages, []
    monkeypatch.setattr(mc, "_trial_outages", lambda *a: flags.append(outages(*a)) or flags[-1])
    specs = [spec for name in PRESET_NAMES for _, spec in build_preset(name).variants]
    points = [apply_param(replace(spec.base, mi_mode=mi), spec.param, value)
              for spec in specs for value in spec.values]
    assert len(points) == 32
    trials, ties, outcomes = 300, [], Counter()
    for cfg in points:
        for scheme in SCHEMES:
            flags.clear()
            est = estimate_outage(cfg, scheme, trials, seed=13, chunk=128)
            got = np.concatenate(flags)
            rates = simulate_trials(cfg, scheme, 13, trials)
            want = rates < cfg.rate
            tied = np.abs(rates - cfg.rate) <= TIE_BAND * (1.0 + cfg.rate)
            ties += [(cfg, scheme, t, rates[t]) for t in np.flatnonzero(tied & (got != want))]
            assert np.array_equal(got[~tied], want[~tied]), (cfg, scheme)
            assert est.outage_count == np.count_nonzero(got)
            outcomes.update(want.tolist())
    print(f"{mi}: {len(ties)} flags differ inside the tie band: {ties}")
    assert outcomes[True] > 0 and outcomes[False] > 0


def link_mean():
    # a link mean from -30 to 60 dB, or the config ceiling itself
    return st.one_of(st.floats(-30.0, 60.0).map(lambda db: 10.0 ** (db / 10.0)),
                     st.just(LINK_MEAN_MAX))


def variance_of(mean, power):
    # the largest variance whose product with power stays at most mean
    var = mean / power
    while power * var > mean:
        var = math.nextafter(var, 0.0)
    return var


@st.composite
def small_configs(draw):
    # an accepted config of N <= 8 relays over a block of T <= 64: either
    # combining mode and power policy, every link mean (P_S var_sd, P_S
    # var_sr, E_R var_rd and E_R (var_rsi + var_iri)) up to LINK_MEAN_MAX,
    # asynchronous delays distinct mod T and some past the block, and a rate
    # T/(T+cp) log2(1 + level (P_S var_sd + E_R var_rd)), level 1e-3..10,
    # below the eta ceiling, so that outages are neither all nor none of the
    # trials
    sync = draw(st.booleans())
    n = draw(st.integers(1, 8))
    t_len = draw(st.integers(2 if sync else n + 1, 64))
    if sync:
        residues = [draw(st.integers(1, t_len - 1))] * n
    else:
        residues = draw(st.permutations(range(1, t_len)))[:n]
    laps = draw(st.integers(0, 2))
    delays = tuple(r + laps * t_len for r in residues)
    p_source, budget = draw(st.tuples(*[st.floats(-10.0, 30.0)] * 2))
    p_source, budget = 10.0 ** (p_source / 10.0), 10.0 ** (budget / 10.0)
    m_sd, m_sr, m_rd, m_int = draw(st.tuples(*[link_mean()] * 4))
    rsi_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    cp_len = max(delays) + draw(st.integers(0, 8))
    level = 10.0 ** draw(st.floats(-3.0, 1.0))
    scale = t_len / (t_len + cp_len)
    rate = scale * min(math.log2(1.0 + level * (m_sd + m_rd)), 1023.0)
    return validate_config(SystemConfig(
        n_relays=n, p_source=p_source, e_relay_budget=budget, rate=rate,
        var_sd=variance_of(m_sd, p_source), var_sr=variance_of(m_sr, p_source),
        var_rd=variance_of(m_rd, budget), var_rsi=rsi_share * variance_of(m_int, budget),
        var_iri=(1.0 - rsi_share) * variance_of(m_int, budget),
        block_len=t_len, cp_len=cp_len, delays=delays,
        sync_mode=SYNCHRONOUS if sync else ASYNCHRONOUS,
        relay_power_policy=draw(st.sampled_from([SHARED_BUDGET, FIXED_PER_RELAY]))))


@settings(max_examples=60, deadline=None)
@given(cfg=small_configs(), seed=st.integers(0, 2**32), chunk=st.integers(1, 48))
def test_trial_flags_match_the_per_trial_oracle_over_small_accepted_configs(cfg, seed, chunk):
    # the per-trial oracle's flags against every scheme's engine flags,
    # under both MI modes, over small accepted configs at any chunk; a flag
    # may differ only where the oracle's rate lies within the tie band of
    # the target (TIE_BAND, fixed before the first run), and such ties are
    # counted and reported
    trials, ties = 48, []
    outages, flags = mc._trial_outages, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mc, "_trial_outages", lambda *a: flags.append(outages(*a)) or flags[-1])
        for mi in (MI_APPROXIMATE, MI_EXACT):
            cfg = replace(cfg, mi_mode=mi)
            for scheme in SCHEMES:
                flags.clear()
                est = estimate_outage(cfg, scheme, trials, seed=seed, chunk=chunk)
                got = np.concatenate(flags)
                rates = simulate_trials(cfg, scheme, seed, trials)
                want = rates < cfg.rate
                tied = np.abs(rates - cfg.rate) <= TIE_BAND * (1.0 + cfg.rate)
                ties += [(scheme, mi, t) for t in np.flatnonzero(tied & (got != want))]
                assert np.array_equal(got[~tied], want[~tied]), (cfg, scheme)
                assert est.outage_count == np.count_nonzero(got)
    if ties:
        print(f"{len(ties)} flags differ inside the tie band at {cfg}: {ties}")


def test_bounded_multi_flags_match_every_trial_through_the_spectrum(monkeypatch):
    # multi under exact MI forms a spectrum only for the trials its rate
    # bounds leave undecided; every chunk's flags equal an oracle that forms
    # every trial's spectrum and exact rate, a synchronous trial's that of
    # its equivalent two-tap block, whose relayed tap is drawn from the law
    # of the coherent sum (law_tap_block).  The bounds decide most trials
    # (none at scenario_ceiling's link means, where the slack exceeds any
    # rate), and the spectrum still runs on some.  The oracle reads the
    # chunk's realization first, as the spectrum's groups may overwrite it
    outages, spectrum, rows = mc._trial_outages, mc.lambda_spectrum, Counter()

    def checked(cfg, scheme, real, scratch):
        forwards, _, sinrs = mc.forwarding(real, cfg, scheme)
        block = (law_tap_block(real, cfg, forwards) if cfg.sync_mode == SYNCHRONOUS
                 else (real, forwards))
        spec = spectrum(*block, cfg, sinrs.relay_tx_power)
        flags = outages(cfg, scheme, real, scratch)
        assert np.array_equal(flags, fde.exact_rate(spec, cfg) < cfg.rate), cfg
        rows["all"] += flags.size
        return flags

    monkeypatch.setattr(mc, "_trial_outages", checked)
    monkeypatch.setattr(mc, "lambda_spectrum", lambda real, *a: (
        rows.update(spectrum=real.h2_sd.size) or spectrum(real, *a)))
    points = exact_multi_points()
    assert len(points) == 42
    for cfg in points:
        estimate_outage(cfg, SCHEME_MULTI, 2000, seed=3)
    assert rows["all"] == 2000 * len(points)
    assert 3 * 2000 < rows["spectrum"] < rows["all"] // 5, rows


@pytest.mark.parametrize("cfg, trials, undecided", [
    (apply_param(replace(build_preset("fig5").variants[0][1].base, mi_mode=MI_EXACT),
                 "var_sr_db", 2.0), 2000, "some"),
    (fig_config(p_source=1.0, e_relay_budget=1.0, var_sd=LINK_MEAN_MAX, var_sr=LINK_MEAN_MAX,
                var_rd=LINK_MEAN_MAX, block_len=64, cp_len=8, rate=853.5, mi_mode=MI_EXACT),
     4000, "all"),
], ids=["fig5", "link-mean-max"])
def test_async_exact_multi_counts_do_not_depend_on_the_chunk_or_its_groups(monkeypatch, cfg,
                                                                           trials, undecided):
    # asynchronous multi under exact MI forms the spectrum of its undecided
    # trials in groups of as many as the block holds: at chunk 1 one trial
    # a group, at chunk 7 up to 3, and at the default one chunk of the whole
    # estimate, whose trials at every link mean LINK_MEAN_MAX the bounds
    # leave all undecided (their slack outweighs any rate), so it runs
    # several groups; the counts agree at every chunk
    spectrum, groups = mc.lambda_spectrum, []
    monkeypatch.setattr(mc, "lambda_spectrum", lambda real, *a: (
        groups.append(real.h2_sd.size) or spectrum(real, *a)))
    counts = []
    for chunk in (1, 7, None):
        groups.clear()
        counts.append(estimate_outage(cfg, SCHEME_MULTI, trials, seed=3, chunk=chunk).outage_count)
    assert len(set(counts)) == 1 and 0 < counts[0] < trials, counts
    if undecided == "all":
        assert sum(groups) == trials and len(groups) >= 3, groups
    else:
        assert len(groups) == 1 and 0 < groups[0] < trials // 10, groups


def test_pinned_outage_counts():
    # seed-0 outage counts of preset points under the two-plane draw (powers
    # in plane 0, phases in plane 1); counts rather than CSV bytes, which also
    # hold closed-form values that move with the host's libm.  fig3's
    # synchronous multi count is that of its relayed tap drawn from the law
    # of the coherent sum, which the law gates below check
    fig2 = apply_param(dict(build_preset("fig2").variants)["n10"].base, "var_iri_db", 10.0)
    for scheme, count in ((SCHEME_MULTI, 16), (SCHEME_OS, 13), (SCHEME_PS, 682)):
        assert estimate_outage(fig2, scheme, 20_000, seed=0).outage_count == count
    fig3 = apply_param(dict(build_preset("fig3").variants)["n10"].base, "var_iri_db", 0.0)
    assert estimate_outage(fig3, SCHEME_MULTI, 20_000, seed=0).outage_count == 704
    fig4 = apply_param(replace(build_preset("fig4").variants[0][1].base, mi_mode=MI_EXACT),
                       "var_sr_db", 0.0)
    assert estimate_outage(fig4, SCHEME_MULTI, 2000, seed=0).outage_count == 3
    assert estimate_outage(fig4, SCHEME_OS, 2000, seed=0).outage_count == 384


def test_counts_do_not_depend_on_what_the_block_held(monkeypatch):
    # every take is written in full before it is read, so a block filled
    # with NaN after each rewind, as if an earlier chunk or estimate had left
    # anything there, gives every scheme the clean run's count: at fig5's
    # exact-MI points, where 3% of multi's trials reach the spectrum, and
    # at one approximate (fig2) and one synchronous (fig3) point
    fig5 = replace(build_preset("fig5").variants[0][1].base, mi_mode=MI_EXACT)
    cfgs = [apply_param(fig5, "var_sr_db", db) for db in (0.0, 2.0, 4.0)]
    for name in ("fig2", "fig3"):
        cfgs.append(apply_param(dict(build_preset(name).variants)["n10"].base, "var_iri_db", 0.0))
    clean = [estimate_outage(cfg, s, 20_000, seed=3) for cfg in cfgs for s in SCHEMES]
    rewind = channel.Scratch.rewind

    def poisoned_rewind(self):
        rewind(self)
        self.block.fill(np.nan)

    monkeypatch.setattr(channel.Scratch, "rewind", poisoned_rewind)
    assert [estimate_outage(cfg, s, 20_000, seed=3) for cfg in cfgs for s in SCHEMES] == clean


def test_selection_outage_is_the_same_in_both_modes_at_any_iri():
    # under approximate MI a selection baseline forwards through one relay
    # free of inter-relay interference, whose coherent sum is its own SNR:
    # each relay count's os and ps counts are one number over every fig2
    # (asynchronous) and fig3 (synchronous) point
    for label in ("n5", "n10"):
        for scheme in (SCHEME_OS, SCHEME_PS):
            counts = set()
            for name in ("fig2", "fig3"):
                spec = dict(build_preset(name).variants)[label]
                for value in spec.values:
                    cfg = apply_param(spec.base, spec.param, value)
                    counts.add(estimate_outage(cfg, scheme, 10_000, seed=0).outage_count)
            assert len(counts) == 1, (label, scheme, counts)


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_selection_exact_mi_sits_below_its_approximation(preset):
    # Jensen over the bins: a lone relay at a delay no multiple of T puts
    # its cross term at M >= 2 equally spaced phases, whose cosines average
    # to zero whatever the turn, so the bins' mean of 1 + gamma is the
    # approximate-MI total and the exact rate is at most the approximate
    # one, trial by trial; at a shared seed every approximate-MI outage is
    # then an exact-MI outage, so at every preset point each os and ps
    # exact-MI count is at least its approximate-MI count (the exact_async
    # benchmark's check relies on it), and exceeds it somewhere
    gaps = []
    for _, spec in build_preset(preset).variants:
        for value in spec.values:
            cfg = mc.selection_config(apply_param(spec.base, spec.param, value))
            real = channel.draw_realization(cfg, trial_stream(7, 0, cfg.n_relays), size=2000)
            for scheme in (SCHEME_OS, SCHEME_PS):
                forwards, chosen, sinrs = mc.forwarding(real, cfg, scheme)
                exact = fde.exact_rate_two_tap(sinrs, forwards, cfg, chosen)
                approx = fde.approx_rate(sinrs, forwards, cfg, chosen)
                assert np.all(exact <= approx + 1e-13), (preset, value, scheme)
                approx_count, exact_count = (
                    estimate_outage(replace(cfg, mi_mode=mi), scheme, 4000, seed=11).outage_count
                    for mi in (MI_APPROXIMATE, MI_EXACT))
                gaps.append(exact_count - approx_count)
    assert min(gaps) >= 0 and max(gaps) > 0, gaps


# seeds, trials per seed and false-alarm rate of the gate on a two-tap
# block's turn source, fixed before its first run on selection blocks
TURN_SEEDS = range(101, 111)
TURN_TRIALS = 4000
TURN_ALPHA = 1e-3
# a short block whose relays sit at M = 4, 2 and 4 bins, comparable direct
# and relayed means and a rate near the median exact rate: the turn moves
# many flags here, where at T = 500 it moves almost none
TURN_SHORT_BLOCK = validate_config(SystemConfig(
    n_relays=3, p_source=10.0, e_relay_budget=10.0, rate=2.0, var_sd=1.0, var_sr=10.0,
    var_rd=1.0, block_len=4, cp_len=3, delays=(1, 2, 3), mi_mode=MI_EXACT))
# the same block with its three relays synchronous at M = 4 bins, fixed
# before the first run of the synchronous gate
TURN_SHORT_SYNC_BLOCK = validate_config(replace(TURN_SHORT_BLOCK, delays=(1, 1, 1),
                                                sync_mode=SYNCHRONOUS))


def assert_spare_turn_keeps_the_plane_one_law(cells):
    # a two-tap block's turn comes from plane 0's spare slot; under the rule
    # that read plane 1 it was another uniform independent of the powers,
    # the mask and the pick, so the outage counts keep their law.  At a
    # seed both rules see the same powers, masks and picks, so the two
    # samples are paired and McNemar's test compares them: over TURN_SEEDS
    # pooled, b trials are outages under the spare turn alone and c under
    # the plane-1 turn alone, z = (b - c)/sqrt(b + c), for every (cfg,
    # scheme) cell.  Each |z| <= 3, and the sum of z^2 over the cells with
    # any discordant trial is below chi^2's TURN_ALPHA quantile.  The
    # spare-turn flags are the engine's
    z = []
    for cfg, scheme in cells:
        b = c = 0
        for seed in TURN_SEEDS:
            real = channel.draw_realization(cfg, trial_stream(seed, 0, cfg.n_relays),
                                            size=TURN_TRIALS)
            forwards, chosen, sinrs = mc.forwarding(real, cfg, scheme)
            new = fde.exact_rate_two_tap(sinrs, forwards, cfg, chosen) < cfg.rate
            old_real = (coherent_plane_one_realization(real, cfg, forwards) if chosen is None
                        else plane_one_realization(real, cfg, chosen))
            old_sinrs = channel.link_sinrs(old_real, cfg, sinrs.relay_tx_power)
            old = fde.exact_rate_two_tap(old_sinrs, forwards, cfg, chosen) < cfg.rate
            count = estimate_outage(cfg, scheme, TURN_TRIALS, seed=seed).outage_count
            assert count == np.count_nonzero(new), (cfg, scheme, seed)
            b += np.count_nonzero(new & ~old)
            c += np.count_nonzero(old & ~new)
        if b + c:
            z.append((b - c) / math.sqrt(b + c))
        print(f"T {cfg.block_len} N {cfg.n_relays} {scheme}: b {b} c {c}")
    z = np.array(z)
    print(f"z over {z.size} cells with discordant trials: {np.round(z, 2).tolist()}")
    assert z.size > 0 and np.max(np.abs(z)) <= 3.0
    assert np.sum(z * z) <= chi2.isf(TURN_ALPHA, z.size)


def test_selection_turn_from_the_spare_slot_keeps_the_plane_one_counts():
    # the plane-1 rule of a selection block was frac(M (u1_sd - u1_rd,c));
    # the cells are os and ps at every fig4 and fig5 point, every
    # tools/scenario*.json point and TURN_SHORT_BLOCK, each distinct
    # selection config once.  At these seeds no T = 500 trial is
    # discordant: the turn moves no fig4 or fig5 flag
    specs = [build_preset(name).variants[0][1] for name in ("fig4", "fig5")]
    specs += [_config_spec(json.loads(path.read_text()))
              for path in sorted(TOOLS.glob("scenario*.json"))]
    cfgs = [apply_param(replace(spec.base, mi_mode=MI_EXACT), spec.param, value)
            for spec in specs for value in spec.values] + [TURN_SHORT_BLOCK]
    assert_spare_turn_keeps_the_plane_one_law(
        [(cfg, scheme) for cfg in dict.fromkeys(map(mc.selection_config, cfgs))
         for scheme in (SCHEME_OS, SCHEME_PS)])


def test_synchronous_multi_turn_from_the_spare_slot_keeps_the_plane_one_counts():
    # the plane-1 rule of a synchronous multi block was frac(M (u1_sd -
    # angle(h_sum)/2pi)); the cells are multi at every fig3 point (N 5 and
    # 10), every tools/scenario_wide.json point and TURN_SHORT_SYNC_BLOCK
    specs = [spec for _, spec in build_preset("fig3").variants]
    specs.append(_config_spec(json.loads((TOOLS / "scenario_wide.json").read_text())))
    cfgs = [apply_param(replace(spec.base, mi_mode=MI_EXACT), spec.param, value)
            for spec in specs for value in spec.values] + [TURN_SHORT_SYNC_BLOCK]
    assert all(cfg.sync_mode == SYNCHRONOUS for cfg in cfgs) and len(cfgs) == 14
    assert_spare_turn_keeps_the_plane_one_law([(cfg, SCHEME_MULTI) for cfg in cfgs])


# seeds and trials per seed of the gates on synchronous multi's law-drawn
# relayed tap, and the false-alarm rate of each gate's sum over its cells,
# fixed before their first run
LAW_SEEDS = range(101, 111)
LAW_TRIALS = 100_000
LAW_PAIRED_TRIALS = 20_000
LAW_ALPHA = 1e-3


def test_synchronous_multi_matches_its_closed_form_at_every_fig3_point():
    # synchronous multi draws its relayed tap from the law of the coherent
    # sum, Exp of mean L P_R var_rd given the mask, which is the step
    # p_cond_sync takes, so under approximate MI total_outage is exact.
    # Pooled over LAW_SEEDS at every fig3 point (N 5 and 10) and at fig3 N10
    # -10 dB under the fixed per-relay policy, whose tap grows with L, each
    # z = (count - n p)/sqrt(n p (1 - p)) lies within 3, and the sum of z^2
    # is below chi^2's LAW_ALPHA quantile
    specs = [spec for _, spec in build_preset("fig3").variants]
    cfgs = [apply_param(spec.base, spec.param, value) for spec in specs for value in spec.values]
    cfgs.append(replace(cfgs[5], relay_power_policy=FIXED_PER_RELAY))
    assert len(cfgs) == 11 and cfgs[5].n_relays == 10 and cfgs[5].var_iri == 0.1
    z = []
    for cfg in cfgs:
        count = sum(estimate_outage(cfg, SCHEME_MULTI, LAW_TRIALS, seed=seed).outage_count
                    for seed in LAW_SEEDS)
        n, p = LAW_TRIALS * len(LAW_SEEDS), total_outage(cfg)
        z.append((count - n * p) / math.sqrt(n * p * (1.0 - p)))
    z = np.array(z)
    print(f"z against total_outage: {np.round(z, 2).tolist()}")
    assert np.max(np.abs(z)) <= 3.0
    assert np.sum(z * z) <= chi2.isf(LAW_ALPHA, z.size)


def test_synchronous_multi_law_tap_keeps_the_coherent_sum_counts():
    # on the same draws, the engine's flags (its relayed tap the first
    # forwarder's g_rd times L) against the coherent-sum oracle's (P_R
    # |sum of the forwarders' h_rd|^2; under exact MI the spectrum of that
    # sum at the realization's turn): the two taps have one law given the
    # mask, so their outage counts agree in law.  The samples are paired, so
    # McNemar's test compares them: over LAW_SEEDS pooled, b trials are
    # outages under the law tap alone and c under the coherent sum alone,
    # z = (b - c)/sqrt(b + c), in both MI modes at fig3 N10 -10 and +10 dB
    # and at TURN_SHORT_SYNC_BLOCK, whose M = 4 bins make the finite-M band
    # matter.  Each |z| <= 3, and the sum of z^2 is below chi^2's LAW_ALPHA
    # quantile
    spec = dict(build_preset("fig3").variants)["n10"]
    cfgs = [apply_param(spec.base, spec.param, value) for value in (-10.0, 10.0)]
    cfgs.append(TURN_SHORT_SYNC_BLOCK)
    z = []
    for cfg in (replace(c, mi_mode=mi) for c in cfgs for mi in (MI_APPROXIMATE, MI_EXACT)):
        b = c = 0
        for seed in LAW_SEEDS:
            real = channel.draw_realization(cfg, trial_stream(seed, 0, cfg.n_relays),
                                            size=LAW_PAIRED_TRIALS)
            forwards, _, sinrs = mc.forwarding(real, cfg, SCHEME_MULTI)
            power = np.broadcast_to(sinrs.relay_tx_power, forwards.shape[:1])
            if cfg.mi_mode == MI_EXACT:
                new = fde.exact_rate_two_tap(sinrs, forwards, cfg) < cfg.rate
                gains, step = spare_turn_gains(real, cfg, forwards), LAW_PAIRED_TRIALS // 10
                old = np.concatenate([fde.exact_rate(fde.lambda_spectrum(
                    batch_rows(gains, rows), forwards[rows], cfg, power[rows]), cfg)
                    for rows in (slice(i, i + step) for i in range(0, LAW_PAIRED_TRIALS, step))])
                old = old < cfg.rate
            else:
                new = fde.approx_rate(sinrs, forwards, cfg) < cfg.rate
                total = sinrs.g_sd + power * coherent_power(real.h_rd, forwards)
                scale = cfg.block_len / (cfg.block_len + cfg.cp_len)
                old = scale * np.log2(1.0 + total) < cfg.rate
            count = estimate_outage(cfg, SCHEME_MULTI, LAW_PAIRED_TRIALS, seed=seed).outage_count
            assert count == np.count_nonzero(new), (cfg, seed)
            b += np.count_nonzero(new & ~old)
            c += np.count_nonzero(old & ~new)
        z.append((b - c) / math.sqrt(b + c))
        print(f"T {cfg.block_len} N {cfg.n_relays} {cfg.mi_mode}: b {b} c {c}")
    z = np.array(z)
    print(f"McNemar z: {np.round(z, 2).tolist()}")
    assert np.max(np.abs(z)) <= 3.0
    assert np.sum(z * z) <= chi2.isf(LAW_ALPHA, z.size)


def relay_major_views(a):
    # a's rows laid out relay-major: contiguous, as a chunk's Scratch takes
    # them, and strided, the leading rows of a larger array
    whole = np.asfortranarray(a)
    block = np.empty((a.shape[0] + 3,) + a.shape[1:], a.dtype, order="F")
    block[:a.shape[0]] = a
    assert whole.flags.f_contiguous and block[:a.shape[0]].strides[0] == a.itemsize
    return whole, block[:a.shape[0]]


@pytest.mark.parametrize("n", [1, 2, 5, 8, 10, 64])
@pytest.mark.parametrize("kind", [SCHEME_OS, SCHEME_PS])
def test_select_relay_is_the_first_maximum_on_either_layout(n, kind):
    # the column scan picks what np.argmax picks, on C-order and relay-major
    # SINRs alike: the first maximum, through ties, infinite scores and rows
    # whose every score is equal
    rng = np.random.default_rng(n)
    g_sr = rng.integers(0, 4, size=(400, n)).astype(float)   # ties in most rows
    g_rd = rng.integers(0, 4, size=(400, n)).astype(float)
    g_sr[:50] = rng.exponential(size=(50, n))
    g_sr[50:60, ::2] = np.inf
    g_rd[50:70, 1::3] = np.inf
    g_sr[70:80] = g_rd[70:80] = 2.0
    g_sr[80:90] = g_rd[80:90] = np.inf
    g_sr[90:95] = 0.0
    score = np.minimum(g_sr, g_rd) if kind == SCHEME_OS else g_sr
    want = np.argmax(score, axis=-1)
    for a, b in zip((g_sr,) + relay_major_views(g_sr), (g_rd,) + relay_major_views(g_rd)):
        got = select_relay(sinrs(a, b), kind)
        assert got.dtype == np.intp and np.array_equal(got, want)
    assert select_relay(sinrs(g_sr[60], g_rd[60]), kind) == want[60]


def assert_rates_independent_of_the_chunk(monkeypatch, cfg, scheme, trials, seed,
                                         chunks=(1, 7, None)):
    # every per-trial rate is the same bits at each chunk size (by default
    # chunk=1, chunk=7 and the default chunk), so the outage counts agree;
    # under exact MI the spy wraps asynchronous multi's amplitude bounds, on
    # every trial, its phased rate bounds, on the trials those leave
    # undecided, and the spectrum's rate of the trials both leave undecided,
    # and the closed-form two-tap rate, whichever the scheme reads, each
    # compared in trial order on its own
    names = (("amplitude_bounds", "rate_bounds", "exact_rate", "exact_rate_two_tap")
             if cfg.mi_mode == MI_EXACT else ("approx_rate",))
    rates = {}
    for name in names:
        monkeypatch.setattr(mc, name, lambda *a, name=name, rate=getattr(mc, name), **k:
                            rates[name].append(np.array(rate(*a, **k))) or rates[name][-1])
    counts, seen = [], []
    for chunk in chunks:
        rates.update((name, []) for name in names)
        counts.append(estimate_outage(cfg, scheme, trials, seed=seed, chunk=chunk).outage_count)
        seen.append({name: np.concatenate([np.atleast_1d(r) for r in got], axis=-1)
                     for name, got in rates.items() if got})
    assert len(set(counts)) == 1 and 0 < counts[0] < trials, counts
    for got in seen[1:]:
        assert got.keys() == seen[0].keys(), scheme
        assert all(np.array_equal(got[name], seen[0][name]) for name in got), scheme
    if scheme == SCHEME_MULTI and cfg.mi_mode == MI_EXACT and cfg.sync_mode == ASYNCHRONOUS:
        assert seen[0]["amplitude_bounds"].shape == (2, trials)
        assert seen[0]["rate_bounds"].shape[0] == 2
        assert seen[0]["rate_bounds"].shape[1] <= trials
    elif cfg.mi_mode == MI_EXACT:
        assert seen[0].keys() == {"exact_rate_two_tap"}, scheme
        assert seen[0]["exact_rate_two_tap"].shape == (trials,)


@pytest.mark.parametrize("n", [8, 10, 64])
@pytest.mark.parametrize("mode", [ASYNCHRONOUS, SYNCHRONOUS])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_batch_independent_where_numpy_reorders_a_row_sum(monkeypatch, n, mode, scheme):
    # numpy's row sum adds a contiguous row of 8 or more in pairwise blocks
    # and a strided axis in sequence, so a reduction over the relay axis
    # could round a trial alone (chunk=1, a row both C- and relay-major)
    # differently from the same trial in a chunk
    cfg = fig_config(n_relays=n, sync_mode=mode, delays=None, cp_len=64, var_sr=2.0,
                     var_rd=1.5, rate=2.5)
    assert_rates_independent_of_the_chunk(monkeypatch, cfg, scheme, 120, seed=19)


@pytest.mark.parametrize("n", [8, 10, 64])
def test_sync_exact_multi_batch_independent_where_numpy_reorders_a_row_sum(monkeypatch, n):
    # synchronous multi's exact rate reads the coherent sum of h_rd, which
    # numpy adds pairwise over each row of 8 or more: a trial alone gets its
    # chunk row's bits, and no rate bound or spectrum is formed
    def no_spectrum(*args):
        raise AssertionError("spectrum formed")

    monkeypatch.setattr(mc, "lambda_spectrum", no_spectrum)
    cfg = fig_config(n_relays=n, mi_mode=MI_EXACT, sync_mode=SYNCHRONOUS, delays=None,
                     cp_len=64, var_sr=2.0, var_rd=1.5, rate=2.5)
    assert_rates_independent_of_the_chunk(monkeypatch, cfg, SCHEME_MULTI, 120, seed=19)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_exact_mi_batch_independent_at_ten_relays(monkeypatch, scheme):
    cfg = fig_config(n_relays=10, mi_mode=MI_EXACT, block_len=16, cp_len=10, var_sr=2.0,
                     rate=1.5)
    assert_rates_independent_of_the_chunk(monkeypatch, cfg, scheme, 40, seed=23)


@pytest.mark.parametrize("over", [
    dict(n_relays=10, block_len=500, cp_len=10, var_sr=10 ** 0.2, rate=3.0),
    dict(block_len=15, cp_len=14, delays=(2, 5, 9, 12, 14), rate=2.0),
], ids=["n32-even", "n15-circular-odd"])
def test_amplitude_bounds_independent_of_the_chunk(monkeypatch, over):
    # the amplitude bounds' real transform at fig4's 500-bin block (n = 32,
    # bins 1..15 mirrored) and at an odd circular n = T = 15 (bins 1..7
    # mirrored): every stage's bits are the same at chunk 1, 7 and the
    # default chunk
    cfg = fig_config(mi_mode=MI_EXACT, **over)
    assert_rates_independent_of_the_chunk(monkeypatch, cfg, SCHEME_MULTI, 120, seed=37)


@pytest.mark.parametrize("mode", [ASYNCHRONOUS, SYNCHRONOUS])
@pytest.mark.parametrize("scheme", [SCHEME_OS, SCHEME_PS])
def test_selection_exact_mi_independent_of_the_chunk(monkeypatch, mode, scheme):
    # a selection scheme's exact rate is one elementwise closed form per
    # trial: a trial alone, in a chunk of 7 and in a default chunk (fig4's
    # 500-bin block, now sized by channel_slots alone) gets the same bits
    cfg = fig_config(n_relays=10, mi_mode=MI_EXACT, sync_mode=mode, delays=None, var_sr=2.0,
                     rate=3.0)
    assert_rates_independent_of_the_chunk(monkeypatch, cfg, scheme, 60, seed=29)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_chunks_of_fewer_trials_than_relays_pick_and_add_as_the_column_passes(monkeypatch,
                                                                              scheme):
    # at N = 64 a chunk of 8 trials picks by np.argmax and adds the
    # asynchronous relayed SNRs by np.add.accumulate; a chunk of 400 makes
    # one pass per relay column: the same picks and rate bits
    picks, select = [], mc.select_relay
    monkeypatch.setattr(mc, "select_relay", lambda *a: picks.append(select(*a)) or picks[-1])
    cfg = fig_config(n_relays=64, delays=None, cp_len=64, var_sr=2.0, var_rd=0.5)
    assert_rates_independent_of_the_chunk(monkeypatch, cfg, scheme, 400, seed=31, chunks=(8, 400))
    if scheme != SCHEME_MULTI:
        assert [p.shape for p in picks] == [(8,)] * 50 + [(400,)]
        assert np.array_equal(np.concatenate(picks[:50]), picks[50])


def test_selection_config_drops_only_the_inter_relay_interference():
    cfg = fig_config(var_iri=2.5)
    assert mc.selection_config(cfg) == replace(cfg, var_iri=0.0)
    quiet = fig_config(var_iri=0.0)
    assert mc.selection_config(quiet) is quiet


@pytest.mark.parametrize("scheme", [SCHEME_OS, SCHEME_PS])
def test_selection_trials_read_the_selection_config(monkeypatch, scheme):
    # every chunk's SINRs read the selection config, which forwarding builds
    seen, link = [], mc.link_sinrs
    monkeypatch.setattr(mc, "link_sinrs", lambda real, cfg, *a: seen.append(cfg) or link(real, cfg, *a))
    cfg = fig_config(var_iri=3.0)
    est = estimate_outage(cfg, scheme, 1000, seed=3, chunk=400)
    assert len(seen) == 3 and all(c == mc.selection_config(cfg) for c in seen)
    assert est == estimate_outage(mc.selection_config(cfg), scheme, 1000, seed=3, chunk=400)


@pytest.mark.parametrize("n", [1, 5, 8, 10, 64, 300])
def test_forwarding_count_is_the_bool_row_sum(n):
    rng = np.random.default_rng(n)
    mask = rng.random((1000, n)) < rng.random((1000, 1))
    mask[:3] = [[False] * n, [True] * n, np.arange(n) % 2 == 0]
    count = channel.forwarding_count(mask)
    assert count.dtype.kind == "i" and np.array_equal(count, mask.sum(axis=-1))
    assert channel.forwarding_count(mask[5]) == mask[5].sum()
    for view in relay_major_views(mask):
        assert np.array_equal(channel.forwarding_count(view), count)


@pytest.mark.parametrize("n", [1, 5, 8, 10, 64])
def test_selection_gather_equals_the_masked_row_sum(n):
    # os/ps read the chosen relay's SINRs by a gather; over a one-hot or
    # empty row the masked row sum adds only zeros, so the bits match
    rng = np.random.default_rng(n)
    g = rng.exponential(size=(700, n))
    chosen = rng.integers(0, n, size=700)
    forwards = rng.random(700) < 0.5
    mask = one_hot(chosen, forwards, n)
    assert not mask[~forwards].any() and mask[forwards].sum(axis=-1).min() == 1
    assert np.array_equal(channel.gather_relay(g, chosen) * forwards,
                          (g * mask).sum(axis=-1))
    assert channel.gather_relay(g[0], chosen[0]) == g[0, chosen[0]]


@pytest.mark.parametrize("over, formed", [
    (dict(), {SCHEME_MULTI: [{"g_sr"}, {"g_sd", "g_rd"}],
              SCHEME_OS: [{"g_sd", "g_sr", "g_rd"}], SCHEME_PS: [{"g_sd", "g_sr"}]}),
    (dict(sync_mode=SYNCHRONOUS, delays=None),
     {SCHEME_MULTI: [{"g_sr"}, {"g_sd"}],
      SCHEME_OS: [{"g_sd", "g_sr", "g_rd"}], SCHEME_PS: [{"g_sd", "g_sr"}]}),
    (dict(mi_mode=MI_EXACT), {SCHEME_MULTI: [{"g_sr"}, set()],
                              SCHEME_OS: [{"g_sd", "g_sr", "g_rd"}],
                              SCHEME_PS: [{"g_sd", "g_sr"}]}),
    (dict(mi_mode=MI_EXACT, sync_mode=SYNCHRONOUS, delays=None),
     {SCHEME_MULTI: [{"g_sr"}, {"g_sd"}],
      SCHEME_OS: [{"g_sd", "g_sr", "g_rd"}], SCHEME_PS: [{"g_sd", "g_sr"}]}),
], ids=["async-approx", "sync-approx", "exact", "sync-exact"])
def test_link_sinrs_formed_once_per_chunk_where_read(monkeypatch, over, formed):
    # multi's decode probe forms g_sr alone; its transmit pass forms only
    # what the rate reads, nothing under asynchronous exact MI, which reads
    # the power; a block with one relayed tap (synchronous multi, or a
    # selection scheme) reads g_sd and gathers one relay's P_R |h_RD|^2 from
    # the powers in either mode, so it forms no g_rd; os forms g_rd for its
    # bottleneck score alone
    made, forms, link = [], [], mc.link_sinrs
    monkeypatch.setattr(mc, "link_sinrs", lambda *a, **k: made.append(link(*a, **k)) or made[-1])
    for name in ("g_sd", "g_sr", "g_rd"):
        form = getattr(channel.LinkSinrs, name).func
        prop = functools.cached_property(
            lambda self, form=form, name=name: forms.append((self, name)) or form(self))
        prop.__set_name__(channel.LinkSinrs, name)
        monkeypatch.setattr(channel.LinkSinrs, name, prop)
    for scheme, want in formed.items():
        made.clear()
        forms.clear()
        estimate_outage(fig_config(**over), scheme, 1000, seed=3, chunk=400)
        assert len(made) == 3 * len(want)
        for i, sinrs in enumerate(made):
            links = [name for obj, name in forms if obj is sinrs]
            assert sorted(links) == sorted(want[i % len(want)]), (scheme, i)


def two_tap_points() -> list:
    # every fig3 and fig4 point, fig4's once more with its relays synchronous
    # (at one shared delay), and every tools/scenario_wide.json point, under
    # both power policies and both MI modes
    specs = [spec for name in ("fig3", "fig4") for _, spec in build_preset(name).variants]
    specs.append(_config_spec(json.loads((TOOLS / "scenario_wide.json").read_text())))
    cfgs = [apply_param(spec.base, spec.param, value) for spec in specs for value in spec.values]
    cfgs += [replace(cfg, sync_mode=SYNCHRONOUS, delays=None)
             for cfg in cfgs if cfg.sync_mode != SYNCHRONOUS]
    return [validate_config(replace(cfg, relay_power_policy=policy, mi_mode=mi))
            for cfg in cfgs for policy in (SHARED_BUDGET, FIXED_PER_RELAY)
            for mi in (MI_APPROXIMATE, MI_EXACT)]


@pytest.mark.parametrize("chunk, trials", [(1, 24), (None, 3000)], ids=["chunk1", "default"])
def test_two_tap_relayed_power_is_the_gathered_g_rd_bit_for_bit(monkeypatch, chunk, trials):
    # a block with one relayed tap (os, ps and synchronous multi) gathers
    # its relay's P_R |h_RD|^2 from the powers and weighs it; that is, bit
    # for bit, the relay's g_rd (the same operands) times the weight, at
    # the relay np.argmax picks on synchronous multi's mask (weight L, the
    # forwarder count) or at a selection's chosen relay (weight 1 where it
    # forwards)
    tap, calls = fde._relayed_tap, Counter()

    def checked(sinrs, mask, chosen):
        relayed, relay = tap(sinrs, mask, chosen)
        if chosen is None:
            want_relay, weight = np.argmax(mask, axis=-1), np.count_nonzero(mask, axis=-1)
        else:
            want_relay, weight = chosen, mask
        want = gather_relay(sinrs.g_rd, want_relay) * weight
        assert np.array_equal(relay, want_relay)
        assert relayed.dtype == want.dtype and relayed.tobytes() == want.tobytes()
        calls[chosen is None] += 1
        return relayed, relay

    monkeypatch.setattr(fde, "_relayed_tap", checked)
    for cfg in two_tap_points():
        schemes = SCHEMES if cfg.sync_mode == SYNCHRONOUS else (SCHEME_OS, SCHEME_PS)
        for scheme in schemes:
            estimate_outage(cfg, scheme, trials, seed=13, chunk=chunk)
    assert calls[True] and calls[False], calls


class Philox(np.random.Philox):
    # a Philox that counts its jumps; it keeps the name its state carries
    jumps = 0

    def jumped(self, jumps=1):
        Philox.jumps += 1
        return super().jumped(jumps)


@pytest.mark.parametrize("over, jumps", [
    (dict(), {}),
    (dict(sync_mode=SYNCHRONOUS, delays=None), {}),
    (dict(mi_mode=MI_EXACT), {SCHEME_MULTI: 3}),
    (dict(mi_mode=MI_EXACT, sync_mode=SYNCHRONOUS, delays=None), {}),
], ids=["async-approx", "sync-approx", "exact", "sync-exact"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_phase_generator_jumped_only_where_phases_are_read(monkeypatch, over, jumps, scheme):
    # only asynchronous multi under exact MI builds the phase generator; a
    # rate that reads complex gains builds it once per chunk, from the state
    # saved at the draw
    stream = mc.trial_stream

    def counting(seed, trial, n_relays):
        bitgen = Philox()
        bitgen.state = stream(seed, trial, n_relays).bit_generator.state
        return np.random.Generator(bitgen)

    cfg = fig_config(**over)
    want = estimate_outage(cfg, scheme, 1000, seed=3, chunk=400)
    monkeypatch.setattr(mc, "trial_stream", counting)
    Philox.jumps = 0
    assert estimate_outage(cfg, scheme, 1000, seed=3, chunk=400) == want
    assert Philox.jumps == jumps.get(scheme, 0)
