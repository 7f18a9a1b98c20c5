import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fdrelay import fde
from fdrelay.channel import (ChannelRealization, Scratch, channel_slots, draw_realization,
                             gather_relay, link_sinrs)
from fdrelay.fde import (RATE_SLACK, approx_rate, exact_rate, exact_rate_two_tap,
                         lambda_spectrum, rate_bounds, spectrum_slots)
from fdrelay.cli import _config_spec
from fdrelay.mc import SCHEME_MULTI, forwarding, trial_stream
from fdrelay.model import (ASYNCHRONOUS, FIXED_PER_RELAY, LINK_MEAN_MAX, MI_EXACT, SHARED_BUDGET,
                           SYNCHRONOUS, SystemConfig, apply_param, relay_tx_power,
                           validate_config)
from oracles import abs2, batch_rows, direct_spectrum, from_gains, one_hot, spare_turn_gains


def config(**over):
    kwargs = dict(n_relays=1, p_source=1.0, e_relay_budget=1.0, rate=2.0,
                  block_len=4, cp_len=3, delays=(1,))
    kwargs.update(over)
    return SystemConfig(**kwargs)


TOOLS = Path(__file__).resolve().parent.parent / "tools"

NONE = np.array([False])
ONE = np.array([True])


def test_empty_decode_set_gives_flat_spectrum():
    cfg = config(p_source=4.0)
    spec = lambda_spectrum(from_gains(1 + 0j, [0j], [5 + 5j]), NONE, cfg, 1.0)
    assert_allclose(spec.lam, np.full(4, 2.0 + 0j), atol=1e-15)
    assert_allclose(spec.gamma, np.full(4, 4.0), atol=1e-15)


def test_four_point_spectrum_example():
    # single relay, unit gains, one-sample delay: DFT of taps [1, 1, 0, 0]
    cfg = config()
    spec = lambda_spectrum(from_gains(1 + 0j, [1 + 0j], [1 + 0j]), ONE, cfg, 1.0)
    assert_allclose(spec.lam, [2, 1 - 1j, 0, 1 + 1j], atol=1e-12)
    assert_allclose(spec.gamma, [4, 2, 0, 2], atol=1e-12)


def test_spectrum_matches_circulant_eigenvalues():
    # oracle: eigenvalues of the explicitly built circulant channel matrix
    rng = np.random.default_rng(42)
    for trial in range(200):
        t_len = int(rng.choice([4, 8, 16]))
        n = int(rng.integers(1, min(5, t_len)))
        delays = tuple(sorted(rng.choice(range(1, t_len), size=n, replace=False).tolist()))
        cfg = SystemConfig(n_relays=n, p_source=float(rng.uniform(0.1, 5.0)),
                           e_relay_budget=float(rng.uniform(0.1, 5.0)), rate=1.0,
                           block_len=t_len, cp_len=t_len - 1, delays=delays)
        real = batch_rows(draw_realization(cfg, trial_stream(trial, 0, n), size=1), 0)
        p_r = cfg.e_relay_budget
        spec = lambda_spectrum(real, np.ones(n, bool), cfg, p_r)

        taps = np.zeros(t_len, complex)
        taps[0] = np.sqrt(cfg.p_source) * real.h_sd
        for k, d in enumerate(cfg.delays):
            taps[d] += np.sqrt(p_r) * real.h_rd[k]
        circulant = np.stack([np.roll(taps, i) for i in range(t_len)], axis=1)
        eig = np.sort_complex(np.linalg.eigvals(circulant))
        assert np.max(np.abs(np.sort_complex(spec.lam) - eig)) < 1e-9

        dft = np.fft.fft(taps)
        assert np.max(np.abs(spec.lam - dft)) < 1e-12

        total = spec.gamma.sum()
        expected = t_len * (cfg.p_source * abs(real.h_sd) ** 2
                            + p_r * np.sum(np.abs(real.h_rd) ** 2))
        assert abs(total - expected) <= 1e-9 * expected


def test_cross_terms_vanish():
    # sum over bins of cos(2 pi i tau / T + theta) is zero unless tau = 0 mod T
    for t_len in (4, 16, 500):
        i = np.arange(t_len)
        for tau in (1, 2, t_len - 1):
            for theta in (0.0, 0.7, 2.1):
                s = np.cos(2 * np.pi * i * tau / t_len + theta).sum()
                assert abs(s) < 1e-9
        assert abs(np.cos(2 * np.pi * i * t_len / t_len).sum() - t_len) < 1e-9


def test_exact_rate_values():
    cfg = SystemConfig(n_relays=1, p_source=1.0, e_relay_budget=1.0, rate=2.0,
                       block_len=500, cp_len=10, delays=(1,))
    spec = lambda_spectrum(from_gains(np.sqrt(3) + 0j, [0j], [0j]), NONE, cfg, 1.0)
    assert_allclose(exact_rate(spec, cfg), 1.9607843137254902, rtol=1e-12)

    small = config(cp_len=1, delays=(1,))
    spec4 = lambda_spectrum(from_gains(1 + 0j, [1 + 0j], [1 + 0j]), ONE, small, 1.0)
    assert_allclose(exact_rate(spec4, small), 1.0983706192659349, rtol=1e-12)

    dead = lambda_spectrum(from_gains(0j, [0j], [0j]), NONE, small, 1.0)
    assert exact_rate(dead, small) == 0.0


def test_approx_rate_values():
    cfg = SystemConfig(n_relays=1, p_source=1.0, e_relay_budget=1.0, rate=2.0,
                       block_len=500, cp_len=10, delays=(1,))
    real = from_gains(1 + 0j, [0j], [np.sqrt(2) + 0j])
    sinrs = link_sinrs(real, cfg, 1.0)
    assert_allclose(approx_rate(sinrs, ONE, cfg), 1.9607843137254902, rtol=1e-12)
    # empty decode set keeps only the direct SNR
    assert_allclose(approx_rate(sinrs, NONE, cfg),
                    (500 / 510) * np.log2(2.0), rtol=1e-12)


def test_sync_coherent_sum_and_destructive_case():
    cfg = SystemConfig(n_relays=2, p_source=1.0, e_relay_budget=1.0, rate=2.0,
                       block_len=8, cp_len=2, delays=(2, 2), sync_mode=SYNCHRONOUS)
    real = from_gains(1 + 0j, [0j, 0j], [1 + 0j, -1 + 0j])
    sinrs = link_sinrs(real, cfg, 1.0)
    got = approx_rate(sinrs, np.array([True, True]), cfg)
    assert_allclose(got, (8 / 10) * np.log2(2.0), rtol=1e-12)
    # equal-delay relays collapse to one relay with the summed gain
    a, b = 0.3 - 1.1j, 0.8 + 0.2j
    two = lambda_spectrum(from_gains(0.5 + 0j, [0j, 0j], [a, b]), np.array([True, True]), cfg, 1.0)
    one_cfg = SystemConfig(n_relays=1, p_source=1.0, e_relay_budget=1.0, rate=2.0,
                           block_len=8, cp_len=2, delays=(2,), sync_mode=SYNCHRONOUS)
    one = lambda_spectrum(from_gains(0.5 + 0j, [0j], [a + b]), ONE, one_cfg, 1.0)
    assert_allclose(two.lam, one.lam, rtol=1e-12)


def test_exact_rate_never_exceeds_approx():
    cfg = SystemConfig(n_relays=5, p_source=10 ** 0.5, e_relay_budget=10 ** 0.5,
                       rate=2.0, var_sr=10 ** 0.8, var_rd=10.0, var_rsi=1.0,
                       var_iri=1.0)
    real = draw_realization(cfg, trial_stream(77, 0, 5), size=10_000)
    sinrs = link_sinrs(real, cfg, cfg.e_relay_budget / 5)
    mask = sinrs.g_sr >= 3.112455306624266
    r_exact = exact_rate(lambda_spectrum(real, mask, cfg, cfg.e_relay_budget / 5), cfg)
    r_approx = approx_rate(sinrs, mask, cfg)
    assert np.all(r_exact <= r_approx + 1e-12)


def test_batch_matches_scalar_rates():
    cfg = SystemConfig(n_relays=3, p_source=2.0, e_relay_budget=1.5, rate=1.0,
                       var_rsi=0.3, var_iri=0.1)
    batch = draw_realization(cfg, trial_stream(13, 0, 3), size=5)
    sinrs_b = link_sinrs(batch, cfg, 0.5)
    mask_b = sinrs_b.g_sr >= 1.0
    spec_b = lambda_spectrum(batch, mask_b, cfg, 0.5)
    exact_b = exact_rate(spec_b, cfg)
    approx_b = approx_rate(sinrs_b, mask_b, cfg)
    for t in range(5):
        one = draw_realization(cfg, trial_stream(13, t, 3), size=1)
        sinrs = link_sinrs(one, cfg, 0.5)
        mask = sinrs.g_sr >= 1.0
        assert exact_rate(lambda_spectrum(one, mask, cfg, 0.5), cfg) == exact_b[t]
        assert approx_rate(sinrs, mask, cfg) == approx_b[t]


@pytest.mark.parametrize("mask", [
    np.array([1, 0, 2]),                   # int weights, not a decode set
    (0, 2),                                # index tuple
    [True, False, True],                   # list, not an array
    np.array([True, False]),               # wrong relay count
    np.array([[True, False, True]]),       # extra batch axis
], ids=["int-array", "index-tuple", "bool-list", "short", "extra-axis"])
def test_layers_reject_bad_masks(mask):
    cfg = SystemConfig(n_relays=3, p_source=1.0, e_relay_budget=1.0, rate=1.0)
    real = batch_rows(draw_realization(cfg, trial_stream(5, 0, 3), size=1), 0)
    sinrs = link_sinrs(real, cfg, 1.0)
    with pytest.raises(ValueError, match="decode mask"):
        lambda_spectrum(real, mask, cfg, 1.0)
    with pytest.raises(ValueError, match="decode mask"):
        approx_rate(sinrs, mask, cfg)


FIG4 = SystemConfig(n_relays=10, p_source=10.0, e_relay_budget=10.0, rate=2.0,
                    var_rd=10.0, var_rsi=1.0)


def multi_chunk(cfg, size, seed):
    # one exact-MI chunk as the multi scheme forwards it: decode mask and
    # per-trial relay power from the forwarding count
    real = draw_realization(cfg, trial_stream(seed, 0, cfg.n_relays), size=size)
    mask, _, sinrs = forwarding(real, cfg, SCHEME_MULTI)
    return real, mask, sinrs.relay_tx_power


# ten relays over a 16-bin block, delays past T/2: the autocorrelation wraps
CIRCULAR = replace(FIG4, block_len=16, cp_len=15, delays=(1, 3, 5, 7, 9, 11, 13, 15, 15, 2))


@pytest.mark.parametrize("mode", ["async", "sync", "circular"])
def test_spectrum_rows_independent_of_batch_size(mode):
    cfg = {"async": FIG4, "sync": replace(FIG4, sync_mode=SYNCHRONOUS, delays=None),
           "circular": CIRCULAR}[mode]
    real, mask, power = multi_chunk(cfg, 2048, seed=21)
    assert 0 < mask.sum() < mask.size
    full = lambda_spectrum(real, mask, cfg, power)
    for t in range(2048):
        one = lambda_spectrum(from_gains(real.h_sd[t], real.h_sr[t], real.h_rd[t]),
                              mask[t], cfg, power[t])
        assert np.array_equal(one.gamma, full.gamma[t])
        assert np.array_equal(one.lam, full.lam[t])
    for size in (1, 3, 7, 48, 200):
        for start in range(0, 2048, size):
            stop = start + size
            part = lambda_spectrum(batch_rows(real, slice(start, stop)), mask[start:stop],
                                   cfg, power[start:stop])
            assert np.array_equal(part.gamma, full.gamma[start:stop])
            assert np.array_equal(part.lam, full.lam[start:stop])


@pytest.mark.parametrize("delays", [(2, 2, 2), (0, 0, 0), (8, 8, 8)],
                         ids=["shared", "zero", "whole-block"])
def test_equal_delays_accumulate_taps(delays):
    # oracle: the explicit DFT matrix applied to taps accumulated one relay
    # at a time; a delay of 0 mod T shares the direct tap
    cfg = SystemConfig(n_relays=3, p_source=2.0, e_relay_budget=3.0, rate=1.0,
                       block_len=8, cp_len=8, delays=delays, sync_mode=SYNCHRONOUS)
    real = draw_realization(cfg, trial_stream(9, 0, 3), size=64)
    mask = np.ones((64, 3), bool)
    mask[::2, 1] = False
    spec = lambda_spectrum(real, mask, cfg, 0.7)

    t_len = cfg.block_len
    taps = np.zeros((64, t_len), complex)
    taps[:, 0] = np.sqrt(cfg.p_source) * real.h_sd
    for k, d in enumerate(delays):
        taps[:, d % t_len] += np.sqrt(0.7) * real.h_rd[:, k] * mask[:, k]
    lag = np.arange(t_len)
    dft = np.exp(-2j * np.pi * np.outer(lag, lag) / t_len)
    assert np.max(np.abs(spec.lam - taps @ dft)) <= 1e-12


def test_spectrum_matches_direct_phase_sum():
    real, mask, power = multi_chunk(FIG4, 2048, seed=5)
    lam = lambda_spectrum(real, mask, FIG4, power).lam
    assert np.max(np.abs(lam - direct_spectrum(real, mask, FIG4, power))) <= 1e-12


def test_spectrum_and_rate_into_used_buffers_match_fresh_ones():
    # a scratch block still holding other values: gamma and then log2(1+gamma)
    # are written over it, bit for bit as in new arrays
    for cfg in (FIG4, CIRCULAR):
        real, mask, power = multi_chunk(cfg, 64, seed=7)
        fresh = lambda_spectrum(real, mask, cfg, power)
        rate = exact_rate(fresh, cfg)
        scratch = Scratch(64 * spectrum_slots(cfg))
        scratch.block.fill(np.nan)
        spec = lambda_spectrum(real, mask, cfg, power, scratch)
        assert np.shares_memory(spec.gamma, scratch.block)
        assert np.array_equal(spec.gamma, fresh.gamma)
        assert np.array_equal(exact_rate(spec, cfg, out=spec.gamma), rate)
        assert np.array_equal(exact_rate(fresh, cfg), rate)     # no out: gamma kept


def test_spectrum_group_allocates_no_bin_array_outside_its_scratch():
    # a spectrum group of 255 fig4 rows run with its rate in a Scratch of
    # 255 rows of spectrum_slots: every (rows, T) array, im^2 included, is a take of
    # the block, so the traced peak stays below one such array
    rows = 255
    real, mask, power = multi_chunk(FIG4, rows, seed=5)
    real.h_sd, real.h_rd
    scratch = Scratch(rows * spectrum_slots(FIG4))
    tracemalloc.start()
    try:
        spec = lambda_spectrum(real, mask, FIG4, power, scratch)
        exact_rate(spec, FIG4, out=spec.gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * rows * FIG4.block_len


def assert_gamma_near_direct(real, mask, cfg, power):
    # gamma within 1e-13 of each row's mean bin SINR of |lam|^2 summed phase by phase
    spec = lambda_spectrum(real, mask, cfg, power)
    ref = abs2(direct_spectrum(real, mask, cfg, power))
    assert np.all(np.abs(spec.gamma - ref) <= 1e-13 * ref.mean(axis=-1, keepdims=True))
    return spec


@pytest.mark.parametrize("t_len", [4, 8, 16, 64])
def test_gamma_matches_direct_sum_with_delays_up_to_the_block(t_len):
    # delays anywhere in 0..T-1, shared ones included
    rng = np.random.default_rng(t_len)
    for trial in range(100):
        n = int(rng.integers(1, 7))
        cfg = SystemConfig(n_relays=n, p_source=float(rng.uniform(0.1, 5.0)),
                           e_relay_budget=float(rng.uniform(0.1, 5.0)), rate=1.0,
                           block_len=t_len, cp_len=t_len - 1,
                           delays=tuple(rng.integers(0, t_len, size=n).tolist()))
        real = draw_realization(cfg, trial_stream(trial, 0, n), size=16)
        mask = rng.random((16, n)) < 0.7
        assert_gamma_near_direct(real, mask, cfg, rng.uniform(0.1, 5.0, size=16))


@pytest.mark.parametrize("cfg", [
    replace(FIG4, n_relays=32, block_len=8, cp_len=8, sync_mode=SYNCHRONOUS, delays=None),
    replace(FIG4, n_relays=3, block_len=16, cp_len=15, delays=(6, 6, 6)),
    replace(FIG4, n_relays=64, block_len=100, cp_len=64, delays=None),
    FIG4,
], ids=["sync-N32-T8", "equal-delays", "circular-N64-T100", "fig4"])
def test_gamma_matches_direct_sum(cfg):
    real, mask, power = multi_chunk(cfg, 256, seed=17)
    assert 0 < mask.sum() < mask.size
    assert_gamma_near_direct(real, mask, cfg, power)


@pytest.mark.parametrize("cfg", [FIG4, CIRCULAR], ids=["fig4", "circular"])
def test_gamma_of_empty_mask_is_flat_and_of_dead_channel_zero(cfg):
    real, mask, power = multi_chunk(cfg, 64, seed=3)
    assert_gamma_near_direct(real, np.zeros_like(mask), cfg, power)
    dead = from_gains(np.zeros(64, complex), np.zeros(mask.shape, complex),
                      np.zeros(mask.shape, complex))
    assert np.array_equal(lambda_spectrum(dead, mask, cfg, power).gamma,
                          np.zeros((64, cfg.block_len)))


BLOCK_LENS = [8, 32, 64, 100, 101, 500, 511, 4096]


def seeded_async_config(t_len):
    # up to ten relays at distinct delays drawn from 1..T-1, the prefix as long as the largest
    rng = np.random.default_rng(t_len)
    n = int(rng.integers(1, min(11, t_len)))
    delays = tuple(int(d) for d in rng.choice(np.arange(1, t_len), size=n, replace=False))
    return replace(FIG4, n_relays=n, block_len=t_len, cp_len=max(delays), delays=delays)


@pytest.mark.parametrize("cfg", [
    CIRCULAR,
    replace(FIG4, n_relays=32, block_len=8, cp_len=8, sync_mode=SYNCHRONOUS, delays=(5,) * 32),
    replace(FIG4, n_relays=64, block_len=100, cp_len=64, delays=None),
    FIG4,
] + [seeded_async_config(t_len) for t_len in BLOCK_LENS],
    ids=["T16", "sync-N32-T8", "N64-T100", "fig4"] + [f"async-T{t}" for t in BLOCK_LENS])
def test_gamma_is_the_squared_spectrum_bit_for_bit(cfg):
    # the taps are transformed in place at T into lam, and gamma is re^2 + im^2
    # of that one transform: exact per bin, >= 0
    real, mask, power = multi_chunk(cfg, 256, seed=9)
    spec = lambda_spectrum(real, mask, cfg, power)
    assert spec.lam.shape[-1] == cfg.block_len
    assert np.array_equal(spec.gamma, abs2(spec.lam)) and spec.gamma.min() >= 0


@pytest.mark.parametrize("t_len", [64, 100, 500, 4096])
def test_gamma_is_never_negative_at_a_spectral_null(t_len):
    # the last relay's tap cancels the direct one and the other relays' at
    # bin 0, so every row has a null there, zero but for rounding, and
    # near-nulls around it; no bin falls below zero
    rng = np.random.default_rng(t_len)
    for n in (1, 2, 5):
        delays = tuple(int(d) for d in rng.choice(np.arange(1, 10), size=n, replace=False))
        cfg = replace(FIG4, n_relays=n, p_source=1.0, block_len=t_len, cp_len=9, delays=delays)
        gains = rng.normal(size=(2, 256, n + 1)) + 1j * rng.normal(size=(2, 256, n + 1))
        h_sd, h_sr, h_rd = gains[0, :, 0], gains[1, :, 1:], gains[0, :, 1:].copy()
        h_rd[:, -1] = -h_sd - h_rd[:, :-1].sum(axis=-1)
        real = from_gains(h_sd, h_sr, h_rd)
        gamma = lambda_spectrum(real, np.ones((256, n), bool), cfg, 1.0).gamma
        assert gamma.min() >= 0, n


@pytest.mark.parametrize("cfg", [FIG4, CIRCULAR], ids=["fig4", "circular"])
def test_spectrum_work_reused_across_batches_matches_fresh_spectra(cfg):
    # one scratch, rewound between batches as between an estimate's chunks
    # and filled with NaN as if an earlier user had left it so, serves
    # batches of any size up to the 64 rows it holds; stale taps and transforms of a
    # larger batch never reach a smaller one's gamma or lam
    scratch = Scratch(64 * spectrum_slots(cfg))
    for seed, size in ((3, 64), (4, 5), (5, 64), (6, 1)):
        real, mask, power = multi_chunk(cfg, size, seed=seed)
        fresh = lambda_spectrum(real, mask, cfg, power)
        scratch.block.fill(np.nan)
        into = lambda_spectrum(real, mask, cfg, power, scratch)
        assert np.array_equal(into.gamma, fresh.gamma)
        assert np.array_equal(into.lam, fresh.lam)
        scratch.rewind()


def test_one_scratch_serves_configs_of_different_spans():
    # one block_len, delay spans 6 and then 3: the second config's taps lie
    # where the first one's were, so its zero lags are right only if its own
    # call writes them
    cfgs = [replace(FIG4, n_relays=n, block_len=64, delays=None) for n in (6, 3)]
    scratch = Scratch(64 * max(map(spectrum_slots, cfgs)))
    for seed, cfg in enumerate(cfgs):
        real, mask, power = multi_chunk(cfg, 64, seed=seed)
        fresh = lambda_spectrum(real, mask, cfg, power)
        assert np.array_equal(lambda_spectrum(real, mask, cfg, power, scratch).gamma, fresh.gamma)
        scratch.rewind()


@pytest.mark.parametrize("sync", [False, True], ids=["async", "sync"])
@pytest.mark.parametrize("n", [1, 5, 8, 10, 64])
def test_gathered_selection_rate_equals_the_one_hot_masked_sum(sync, n):
    # a selection scheme's rate gathers its one relay's g_rd instead of
    # summing the relay axis under a one-hot mask: the same bits, for rows
    # that forward and for empty ones.  One relay's coherent sum is its own
    # SNR, so the synchronous rate is the asynchronous one, bit for bit, and
    # the coherent one-hot sum of the complex h_rd agrees to rounding
    cfg = replace(FIG4, n_relays=n, delays=None, sync_mode=SYNCHRONOUS if sync else FIG4.sync_mode)
    real = draw_realization(cfg, trial_stream(31, 0, n), size=500)
    sinrs = link_sinrs(real, cfg, 2.0)
    rng = np.random.default_rng(n)
    chosen = rng.integers(0, n, size=500)
    forwards = rng.random(500) < 0.6
    mask = one_hot(chosen, forwards, n)
    gathered = approx_rate(sinrs, forwards, cfg, chosen)
    asynchronous = replace(cfg, sync_mode=ASYNCHRONOUS)
    assert np.array_equal(gathered, approx_rate(sinrs, forwards, asynchronous, chosen))
    assert np.array_equal(gathered, approx_rate(sinrs, mask, asynchronous))
    assert_allclose(gathered, approx_rate(sinrs, mask, cfg), rtol=1e-14, atol=0)
    assert np.array_equal(gather_relay(sinrs.g_rd, chosen) * forwards,
                          (sinrs.g_rd * mask).sum(axis=-1))
    with pytest.raises(ValueError, match="decode mask"):
        approx_rate(sinrs, mask, cfg, chosen)


def chosen_relay_config(mode, n):
    # async: distinct delays 1..N; sync: one shared delay, so every relay's
    # tap lands on lag 1; zero-lag: delays 0..N-1, relay 0's tap on the
    # direct one; circular: delays 15, 8, 1, ... in 1..15 over a 16-bin
    # block, whose taps are transformed at T
    if mode == "circular":
        return replace(FIG4, n_relays=n, block_len=16, cp_len=15,
                       delays=tuple(15 - 7 * k % 15 for k in range(n)))
    cfg = replace(FIG4, n_relays=n, cp_len=64, delays=None,
                  sync_mode=SYNCHRONOUS if mode == "sync" else ASYNCHRONOUS)
    return replace(cfg, delays=tuple(range(n))) if mode == "zero-lag" else cfg


def unbatched_row(real, t):
    # trial t of a drawn batch alone, unbatched: its powers, its spare and
    # its row of the batch's phase uniforms, in their plane's slots
    u_sd, u_sr, u_rd = real.phases
    row = np.concatenate([u_sd[t, None], u_sr[t], u_rd[t]])
    return ChannelRealization(real.h2_sd[t], real.h2_sr[t], real.h2_rd[t],
                              phase_plane=lambda: row, spare=real.spare[t])


@pytest.mark.parametrize("mode", ["async", "sync", "zero-lag", "circular"])
@pytest.mark.parametrize("n", [1, 5, 8, 10, 64])
def test_chosen_relay_spectrum_equals_the_one_hot_masked_one(mode, n):
    # a selection scheme's closed-form exact rate is the exact rate of the
    # one-hot masked spectrum of gains that place the realization's turn
    # between the taps, on rows that forward, rows that do not and chunks
    # where none does, at scalar and per-trial power; zero-lag puts relay 0
    # (chosen in row 0) on the direct tap, where M = 1
    cfg = chosen_relay_config(mode, n)
    real = draw_realization(cfg, trial_stream(41, 0, n), size=64)
    gains = spare_turn_gains(real, cfg)
    rng = np.random.default_rng(n)
    chosen = rng.integers(0, n, size=64)
    chosen[:2] = 0, n - 1
    some = rng.random(64) < 0.6
    some[:2] = True
    for forwards in (some, np.zeros(64, bool)):
        for power in (0.7, rng.uniform(0.5, 2.0, size=64)):
            got = exact_rate_two_tap(link_sinrs(real, cfg, power), forwards, cfg, chosen)
            want = exact_rate(lambda_spectrum(gains, one_hot(chosen, forwards, n), cfg, power), cfg)
            assert got.shape == want.shape == (64,)
            assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=f"{mode} {n}")
    # one unbatched trial reads its row's bits
    batched = exact_rate_two_tap(link_sinrs(real, cfg, 0.7), some, cfg, chosen)
    for t in (0, 1, 5):
        alone = exact_rate_two_tap(link_sinrs(unbatched_row(real, t), cfg, 0.7),
                                     np.asarray(some[t]), cfg, chosen[t])
        assert np.shape(alone) == () and alone == batched[t]
    sinrs = link_sinrs(real, cfg, 0.7)
    with pytest.raises(ValueError, match="decode mask"):
        exact_rate_two_tap(sinrs, one_hot(chosen, some, n), cfg, chosen)
    with pytest.raises(ValueError, match="decode mask"):
        exact_rate_two_tap(sinrs, some.astype(int), cfg, chosen)


def test_chosen_relay_spectrum_into_a_used_scratch_matches_fresh_ones():
    # a selection chunk's draw and SINRs taken from a used scratch block (a
    # smaller chunk in a larger block, stale slots NaN) give each row the
    # rate of fresh arrays, the exact rate of the one-hot masked spectrum of
    # gains that place the realization's turn between the taps
    for cfg in (FIG4, CIRCULAR):
        n = cfg.n_relays
        scratch = Scratch(64 * channel_slots(n))
        scratch.block.fill(np.nan)
        for seed, size in ((3, 64), (4, 5), (6, 1)):
            real = draw_realization(cfg, trial_stream(seed, 0, n), size=size, scratch=scratch)
            fresh = draw_realization(cfg, trial_stream(seed, 0, n), size=size)
            rng = np.random.default_rng(seed)
            chosen, forwards = rng.integers(0, n, size=size), rng.random(size) < 0.7
            into = exact_rate_two_tap(link_sinrs(real, cfg, 0.7, scratch), forwards, cfg, chosen)
            want = exact_rate_two_tap(link_sinrs(fresh, cfg, 0.7), forwards, cfg, chosen)
            assert np.array_equal(into, want)
            oracle = exact_rate(lambda_spectrum(spare_turn_gains(fresh, cfg),
                                                one_hot(chosen, forwards, n), cfg, 0.7), cfg)
            assert_allclose(into, oracle, rtol=0, atol=1e-12)
            scratch.rewind()


GRID_BLOCKS = (8, 16, 64, 100, 500, 512, 1000)


def grid_config(rng, block_len, mode):
    # one seeded draw of the selection grid: N in 1..64; asynchronous
    # delays distinct in 0..3T+127 (some a multiple of T), or one shared
    # synchronous delay; powers -10..80 dB and variances -20..20 dB
    n = int(rng.integers(1, 65))
    if mode == ASYNCHRONOUS:
        delays = tuple(rng.choice(3 * block_len + 128, size=n, replace=False).tolist())
    else:
        delays = (int(rng.integers(0, 3 * block_len)),) * n
    p_db, v_db = rng.uniform(-10.0, 80.0, size=2), rng.uniform(-20.0, 20.0, size=4)
    p_source, budget = 10.0 ** (p_db / 10.0)
    var_sd, var_sr, var_rd, var_rsi = 10.0 ** (v_db / 10.0)
    return SystemConfig(n_relays=n, p_source=p_source, e_relay_budget=budget, rate=2.0,
                        var_sd=var_sd, var_sr=var_sr, var_rd=var_rd, var_rsi=var_rsi,
                        block_len=block_len, cp_len=int(rng.integers(0, 64)), delays=delays,
                        sync_mode=mode)


@pytest.mark.parametrize("mode", [ASYNCHRONOUS, SYNCHRONOUS])
@pytest.mark.parametrize("block_len", GRID_BLOCKS)
def test_one_relay_closed_form_rate_over_a_seeded_grid(block_len, mode):
    # the closed form against the exact rate of the one-hot spectrum of
    # gains that place the realization's turn between the taps (the FFT
    # oracle) within 1e-12, over every bin count M = T/gcd(d, T) the delays
    # give; a trial whose relay does not forward has approx_rate's flat rate
    # bit for bit; an unbatched trial is its batch row bit for bit
    rng = np.random.default_rng([block_len, mode == SYNCHRONOUS])
    for _ in range(4):
        cfg = grid_config(rng, block_len, mode)
        n = cfg.n_relays
        real = draw_realization(cfg, trial_stream(int(rng.integers(1 << 32)), 0, n), size=48)
        sinrs = link_sinrs(real, cfg, cfg.e_relay_budget)
        chosen = rng.integers(0, n, size=48)
        forwards = rng.random(48) < 0.75
        got = exact_rate_two_tap(sinrs, forwards, cfg, chosen)
        want = exact_rate(lambda_spectrum(spare_turn_gains(real, cfg), one_hot(chosen, forwards, n),
                                          cfg, cfg.e_relay_budget), cfg)
        assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=str(cfg))
        flat = approx_rate(sinrs, forwards, cfg, chosen)
        assert (~forwards).any() and np.array_equal(got[~forwards], flat[~forwards])
        for t in (0, 47):
            alone = link_sinrs(unbatched_row(real, t), cfg, cfg.e_relay_budget)
            assert exact_rate_two_tap(alone, np.asarray(forwards[t]), cfg, chosen[t]) == got[t]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("policy", [SHARED_BUDGET, FIXED_PER_RELAY])
@pytest.mark.parametrize("block_len", GRID_BLOCKS)
def test_two_tap_rate_of_synchronous_multi_over_a_seeded_grid(block_len, policy):
    # synchronous multi's relays share one delay, so its block has one
    # relayed tap, the coherent sum of the forwarding relays' h_rd: the
    # closed form against the exact rate of the spectrum of gains that place
    # the realization's turn between the direct tap and that sum (the FFT
    # oracle, its equal delays accumulated on one lag) within 1e-12, over
    # the bin counts M = T/gcd(d, T) grid_config's shared delays give, with
    # P_S = 0 and every link mean at LINK_MEAN_MAX besides; a quarter of the
    # rows have an empty mask and approx_rate's flat rate bit for bit; an
    # unbatched trial is its batch row bit for bit
    rng = np.random.default_rng([block_len, policy == SHARED_BUDGET, 2])
    cfgs = [replace(grid_config(rng, block_len, SYNCHRONOUS), relay_power_policy=policy)
            for _ in range(6)]
    cfgs[4] = replace(cfgs[4], p_source=0.0)
    cfgs[5] = replace(cfgs[5], p_source=1.0, e_relay_budget=1.0, var_sd=LINK_MEAN_MAX,
                      var_sr=LINK_MEAN_MAX, var_rd=LINK_MEAN_MAX)
    for cfg in cfgs:
        n = cfg.n_relays
        real = draw_realization(cfg, trial_stream(int(rng.integers(1 << 32)), 0, n), size=48)
        mask = rng.random((48, n)) < 0.6
        mask[::4] = False
        power = np.broadcast_to(relay_tx_power(cfg, np.maximum(mask.sum(axis=-1), 1)), (48,))
        sinrs = link_sinrs(real, cfg, power)
        got = exact_rate_two_tap(sinrs, mask, cfg)
        want = exact_rate(lambda_spectrum(spare_turn_gains(real, cfg, mask), mask, cfg, power), cfg)
        assert got.shape == (48,)
        assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=str(cfg))
        assert np.array_equal(got[::4], approx_rate(sinrs, mask, cfg)[::4])
        for t in (0, 1, 47):
            alone = link_sinrs(unbatched_row(real, t), cfg, power[t])
            assert exact_rate_two_tap(alone, mask[t], cfg) == got[t]


@pytest.mark.parametrize("n", [1, 5, 8, 10, 64])
def test_async_relayed_sum_adds_relays_in_index_order(n):
    # the asynchronous multi-relay rate adds the forwarding relays' SNRs in
    # index order, bit for bit, on C-order and relay-major SINRs and for a
    # trial alone, where numpy's row sum would add 8 or more pairwise
    cfg = replace(FIG4, n_relays=n, delays=None, cp_len=64)
    real = draw_realization(cfg, trial_stream(37, 0, n), size=300)
    sinrs = link_sinrs(real, cfg, 0.7)
    mask = np.random.default_rng(n).random((300, n)) < 0.7
    g_rd, g_sd = sinrs.g_rd, sinrs.g_sd
    assert g_rd.strides[0] == g_rd.itemsize        # relay-major as drawn
    total = []
    for t in range(300):
        relayed = 0.0
        for k in np.flatnonzero(mask[t]):
            relayed += float(g_rd[t, k])
        total.append(float(g_sd[t]) + relayed)
    want = (cfg.block_len / (cfg.block_len + cfg.cp_len)) * np.log2(1.0 + np.array(total))
    assert np.array_equal(approx_rate(sinrs, mask, cfg), want)
    c_order = link_sinrs(real, cfg, 0.7)
    c_order.__dict__.update(g_sd=g_sd, g_rd=np.ascontiguousarray(g_rd))
    assert np.array_equal(approx_rate(c_order, np.asfortranarray(mask), cfg), want)
    for t in (0, 7, 299):
        one = link_sinrs(draw_realization(cfg, trial_stream(37, t, n), size=1), cfg, 0.7)
        assert np.array_equal(approx_rate(one, mask[t:t + 1], cfg), want[t:t + 1])


BOUND_BLOCKS = (8, 16, 64, 500, 512, 4096)
BOUND_CASES = ("short", "circular", "no-source", "no-direct", "ceiling")


def bound_config(rng, block_len, mode, policy, case):
    # one seeded draw of the bound grid: N in 1..64 (at most T-1 asynchronous
    # relays); the largest delay up to T/4 or at T-1 (n = T, the circular
    # transform); powers -10..40 dB and variances -20..20 dB, or P_S = 0, or
    # var_sd = 0, or every link mean at LINK_MEAN_MAX
    n = int(rng.integers(1, 65)) if mode == SYNCHRONOUS else int(rng.integers(1, min(65, block_len)))
    low = n if mode == ASYNCHRONOUS else 1         # n distinct asynchronous residues
    span = block_len - 1 if case == "circular" else int(rng.integers(low, max(low, block_len // 4) + 1))
    if mode == ASYNCHRONOUS:
        delays = tuple(rng.choice(np.arange(1, span), size=n - 1, replace=False).tolist()) + (span,)
    else:
        delays = (span,) * n
    p_db, v_db = rng.uniform(-10.0, 40.0, size=2), rng.uniform(-20.0, 20.0, size=3)
    p_source, budget = (10.0 ** (p_db / 10.0)).tolist()
    var_sd, var_sr, var_rd = (10.0 ** (v_db / 10.0)).tolist()
    if case == "no-source":
        p_source = 0.0
    elif case == "no-direct":
        var_sd = 0.0
    elif case == "ceiling":
        p_source = budget = 1.0
        var_sd = var_sr = var_rd = LINK_MEAN_MAX
    return validate_config(SystemConfig(
        n_relays=n, p_source=p_source, e_relay_budget=budget, rate=2.0, var_sd=var_sd,
        var_sr=var_sr, var_rd=var_rd, block_len=block_len, cp_len=int(rng.integers(span, 2 * span + 1)),
        delays=delays, sync_mode=mode, relay_power_policy=policy))


def bound_grid(block_len, mode, policy):
    # (case, cfg, real, mask, power) of each case of the seeded bound grid:
    # one config and batch of draws per case, a quarter of the rows with an
    # empty mask, the relays' power shared by the forwarding ones
    rng = np.random.default_rng([block_len, mode == SYNCHRONOUS, policy == SHARED_BUDGET])
    size = 32 if block_len > 512 else 96
    for case in BOUND_CASES:
        cfg = bound_config(rng, block_len, mode, policy, case)
        n = cfg.n_relays
        real = draw_realization(cfg, trial_stream(int(rng.integers(1 << 32)), 0, n), size=size)
        mask = rng.random((size, n)) < 0.6
        mask[::4] = False
        yield case, cfg, real, mask, relay_tx_power(cfg, np.maximum(mask.sum(axis=-1), 1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("policy", [SHARED_BUDGET, FIXED_PER_RELAY])
@pytest.mark.parametrize("mode", [ASYNCHRONOUS, SYNCHRONOUS])
@pytest.mark.parametrize("block_len", BOUND_BLOCKS)
def test_rate_bounds_hold_the_spectrum_rate_over_a_seeded_grid(block_len, mode, policy):
    # row by row, lower <= exact_rate(lambda_spectrum(...)) <= upper, the
    # computed rate against the bounds as computed; a quarter of the rows
    # have an empty mask, whose flat spectrum (s = 1) leaves the bounds two
    # slacks apart; a row with no signal at all (mu = 0) has rate 0 and an
    # upper bound of one slack
    for case, cfg, real, mask, power in bound_grid(block_len, mode, policy):
        size = mask.shape[0]
        lower, upper = rate_bounds(real, mask, cfg, power)
        rate = exact_rate(lambda_spectrum(real, mask, cfg, power), cfg)
        assert lower.shape == upper.shape == rate.shape == (size,)
        assert np.all(lower <= rate) and np.all(rate <= upper), (case, cfg)
        assert np.isfinite(upper).all(), (case, cfg)
        flat = cfg.p_source * real.h2_sd[::4]
        assert np.all(upper[::4] - lower[::4] <= 2.5 * RATE_SLACK * (1.0 + flat)), (case, cfg)
        if case == "no-source":
            assert np.all(rate[::4] == 0.0) and np.all(upper[::4] == RATE_SLACK)


# how far the amplitude bounds' lower bound may lie above the phased one,
# per unit of 1 + |bound|: the two are formed from different transforms, and
# where the taps' phases are aligned, or only one tap is nonzero, they are
# one bound rounded twice
BOUND_ROUNDING = 2.0 ** -44


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("policy", [SHARED_BUDGET, FIXED_PER_RELAY])
@pytest.mark.parametrize("block_len", BOUND_BLOCKS)
def test_amplitude_bounds_hold_the_spectrum_rate_over_the_seeded_grid(block_len, policy):
    # on the asynchronous draws of the rate bounds' grid (every tap at a lag
    # of its own, n a power of two or T, even or odd), row by row: the
    # amplitude bounds hold the computed rate; their lower bound is at or
    # below the phased one, to the rounding; their upper bound is the phased
    # one within the slack RATE_SLACK (1 + mu); both are finite where the
    # phased ones are, at every link mean at LINK_MEAN_MAX too.  A row alone
    # gets its batch row's bits
    for case, cfg, real, mask, power in bound_grid(block_len, ASYNCHRONOUS, policy):
        power = np.broadcast_to(power, mask.shape[:1])     # a fixed per-relay power is a scalar
        lower, upper = fde.amplitude_bounds(real, mask, cfg, power)
        phased = rate_bounds(real, mask, cfg, power)
        rate = exact_rate(lambda_spectrum(real, mask, cfg, power), cfg)
        mu = cfg.p_source * real.h2_sd + (mask * power[:, None] * real.h2_rd).sum(axis=-1)
        assert lower.shape == upper.shape == rate.shape
        assert np.all(lower <= rate) and np.all(rate <= upper), (case, cfg)
        assert np.all(lower <= phased[0] + BOUND_ROUNDING * (1.0 + np.abs(phased[0]))), (case, cfg)
        assert np.all(np.abs(upper - phased[1]) <= RATE_SLACK * (1.0 + mu)), (case, cfg)
        assert np.array_equal(np.isfinite(lower), np.isfinite(phased[0])), (case, cfg)
        assert np.isfinite(upper).all(), (case, cfg)
        for t in (0, 1, mask.shape[0] - 1):
            one = fde.amplitude_bounds(real.trials(slice(t, t + 1)), mask[t:t + 1], cfg, power[t:t + 1])
            assert one[0] == lower[t] and one[1] == upper[t], (case, t)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_amplitude_bounds_are_finite_at_the_ceiling_scenario():
    # tools/scenario_ceiling.json's link means (P_S and E_R at 2880 dB, each
    # variance 8 dB) under exact MI, its three inter-relay interference
    # points: |F|^2 is normalized by mu before it is squared, so neither
    # stage's bounds overflow; both hold the spectrum's rate
    spec = _config_spec(json.loads((TOOLS / "scenario_ceiling.json").read_text()))
    for value in spec.values:
        cfg = apply_param(replace(spec.base, mi_mode=MI_EXACT), spec.param, value)
        real = draw_realization(cfg, trial_stream(7, 0, cfg.n_relays), size=64)
        mask, _, sinrs = forwarding(real, cfg, SCHEME_MULTI)
        power = sinrs.relay_tx_power
        rate = exact_rate(lambda_spectrum(real, mask, cfg, power), cfg)
        for bounds in (fde.amplitude_bounds, rate_bounds):
            lower, upper = bounds(real, mask, cfg, power)
            assert np.isfinite(lower).all() and np.isfinite(upper).all(), (bounds, value)
            assert np.all(lower <= rate) and np.all(rate <= upper), (bounds, value)


def two_tap_rho(g_sd, relayed):
    # exact_rate_two_tap's rho = y/(x+s) of a row's direct and relayed power
    p, q = np.sqrt(g_sd), np.sqrt(relayed)
    x, y = 1.0 + g_sd + relayed, 2.0 * p * q
    return y / (x + np.sqrt(1.0 + np.square(p - q)) * np.sqrt(1.0 + np.square(p + q)))


def straddles_the_power_floor(rho, m) -> bool:
    # rho = 0 rows, and rows within a factor 4 on either side of 2^(R_FLOOR_EXP/M)
    floor = 2.0 ** (fde.R_FLOOR_EXP / m)
    return bool((rho == 0.0).any() and ((rho < floor) & (rho > floor / 4)).any()
                and ((rho >= floor) & (rho < 4 * floor)).any())


@pytest.mark.parametrize("block_len", [16, 500, 4096])
def test_two_tap_rate_forms_the_power_only_where_it_can_change_the_rate(monkeypatch, block_len):
    # exact_rate_two_tap leaves r = 0 where rho < 2^(R_FLOOR_EXP/M); its
    # rates equal bit for bit those of the form that raises every rho to the
    # M-th power (R_FLOOR_EXP = -inf), for a selection scheme at every bin
    # count M = T/d, d a delay dividing T, and for synchronous multi at each
    # of those shared delays, in a batch and for a trial alone on either side
    # of the floor.  Per chosen relay, rows cross g_sd in {0, 1e-6,
    # 1, 1e6} with a relayed power of 0 or on a log grid over 1e-40..1e12, so
    # rho = 0 rows and rho on either side of each M's floor are among them
    delays = tuple(d for d in range(1, block_len) if block_len % d == 0)
    n = len(delays)
    g_rd = np.concatenate([[0.0], np.logspace(-40.0, 12.0, 521)])
    grid = 4 * g_rd.size
    size = n * grid
    h2_sd = np.tile(np.repeat([0.0, 1e-6, 1.0, 1e6], g_rd.size), n)
    h2_rd = np.repeat(np.tile(g_rd, 4 * n)[:, None], n, axis=1)
    rng = np.random.default_rng(block_len)
    plane = rng.random((size, 1 + 2 * n))
    real = ChannelRealization(h2_sd, np.ones((size, n)), h2_rd, phase_plane=lambda: plane,
                              spare=rng.integers(0, 2**53, size))
    cfg = SystemConfig(n_relays=n, p_source=1.0, e_relay_budget=1.0, rate=2.0,
                       block_len=block_len, cp_len=max(delays), delays=delays)

    def full_power_rate(*args):
        with monkeypatch.context() as patch:
            patch.setattr(fde, "R_FLOOR_EXP", -np.inf)
            return exact_rate_two_tap(*args)

    sinrs = link_sinrs(real, cfg, 1.0)
    chosen = np.repeat(np.arange(n), grid)
    forwards = (h2_sd > 0.0) | (rng.random(size) < 0.5)     # rho = 0 where g_sd = 0
    got = exact_rate_two_tap(sinrs, forwards, cfg, chosen)
    assert np.array_equal(got, full_power_rate(sinrs, forwards, cfg, chosen))
    rho = two_tap_rho(h2_sd, h2_rd[:, 0] * forwards)
    for k, delay in enumerate(delays):
        assert straddles_the_power_floor(rho[chosen == k], block_len // delay), delay
    # a trial alone, a batch of one, on either side of its floor
    inside = rho >= 2.0 ** (fde.R_FLOOR_EXP / (block_len // np.asarray(delays)[chosen]))
    for t in (np.flatnonzero(inside)[0], np.flatnonzero(~inside & (rho > 0.0))[0]):
        alone = link_sinrs(unbatched_row(real, t), cfg, 1.0)
        assert exact_rate_two_tap(alone, np.asarray(forwards[t]), cfg, chosen[t]) == got[t]
    for delay in delays:
        sync = replace(cfg, delays=(delay,) * n, sync_mode=SYNCHRONOUS)
        sinrs = link_sinrs(real, sync, 1.0)
        # one relay forwards, or none, where g_sd != 1; any subset where it is
        mask = one_hot(chosen, forwards, n)
        mask[h2_sd == 1.0] |= rng.random((grid // 4 * n, n)) < 0.5
        got = exact_rate_two_tap(sinrs, mask, sync)
        assert np.array_equal(got, full_power_rate(sinrs, mask, sync))
        rho = two_tap_rho(h2_sd, abs2((real.h_rd * mask).sum(axis=-1)))
        assert straddles_the_power_floor(rho, block_len // delay), delay
        inside = rho >= 2.0 ** (fde.R_FLOOR_EXP / (block_len // delay))
        for t in (np.flatnonzero(inside)[0], np.flatnonzero(~inside & (rho > 0.0))[0]):
            alone = link_sinrs(unbatched_row(real, t), sync, 1.0)
            assert exact_rate_two_tap(alone, mask[t], sync) == got[t]
