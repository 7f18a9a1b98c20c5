from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fdrelay.channel import (ChannelRealization, Scratch, channel_slots, draw_realization,
                             gather_relay, link_sinrs)
from fdrelay.fde import (RATE_SLACK, approx_rate, exact_rate, exact_rate_two_tap,
                         lambda_spectrum, rate_bounds, spectrum_slots)
from fdrelay.mc import SCHEME_MULTI, forwarding, trial_stream
from fdrelay.model import (ASYNCHRONOUS, FIXED_PER_RELAY, LINK_MEAN_MAX, SHARED_BUDGET,
                           SYNCHRONOUS, SystemConfig, relay_tx_power, validate_config)
from oracles import abs2, batch_rows, direct_spectrum, from_gains, one_hot


def config(**over):
    kwargs = dict(n_relays=1, p_source=1.0, e_relay_budget=1.0, rate=2.0,
                  block_len=4, cp_len=3, delays=(1,))
    kwargs.update(over)
    return SystemConfig(**kwargs)


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
        scratch = Scratch(64, spectrum_slots(cfg))
        scratch.block.fill(np.nan)
        spec = lambda_spectrum(real, mask, cfg, power, scratch)
        assert np.shares_memory(spec.gamma, scratch.block)
        assert np.array_equal(spec.gamma, fresh.gamma)
        assert np.array_equal(exact_rate(spec, cfg, out=spec.gamma), rate)
        assert np.array_equal(exact_rate(fresh, cfg), rate)     # no out: gamma kept


def test_hfft_ignores_out_so_gamma_is_written_by_irfft():
    # gamma is hfft(r, n=T) of the autocorrelation lags r, taken as
    # irfft(conj(r), norm="forward") because numpy's hfft returns a new array
    # and leaves its out= untouched; the two agree bit for bit
    rng = np.random.default_rng(8)
    r = rng.normal(size=(5, 11)) + 1j * rng.normal(size=(5, 11))
    buf = np.full((5, 500), np.nan)
    assert np.fft.hfft(r, n=500, out=buf) is not buf
    assert np.isnan(buf).all()
    assert np.fft.irfft(np.conj(r), n=500, norm="forward", out=buf) is buf
    assert np.array_equal(buf, np.fft.hfft(r, n=500))


def assert_gamma_near_direct(real, mask, cfg, power):
    # gamma within 1e-13 of each row's mean bin SINR of |lam|^2 summed phase by phase
    spec = lambda_spectrum(real, mask, cfg, power)
    ref = abs2(direct_spectrum(real, mask, cfg, power))
    assert np.all(np.abs(spec.gamma - ref) <= 1e-13 * ref.mean(axis=-1, keepdims=True))
    return spec


@pytest.mark.parametrize("t_len", [4, 8, 16, 64])
def test_gamma_matches_direct_sum_with_delays_up_to_the_block(t_len):
    # delays anywhere in 0..T-1, shared ones included: the taps are
    # transformed at T (circular) unless 2D+1 fits a power of two below T
    rng = np.random.default_rng(t_len)
    tap_lens = set()
    for trial in range(100):
        n = int(rng.integers(1, 7))
        cfg = SystemConfig(n_relays=n, p_source=float(rng.uniform(0.1, 5.0)),
                           e_relay_budget=float(rng.uniform(0.1, 5.0)), rate=1.0,
                           block_len=t_len, cp_len=t_len - 1,
                           delays=tuple(rng.integers(0, t_len, size=n).tolist()))
        real = draw_realization(cfg, trial_stream(trial, 0, n), size=16)
        mask = rng.random((16, n)) < 0.7
        spec = assert_gamma_near_direct(real, mask, cfg, rng.uniform(0.1, 5.0, size=16))
        tap_lens.add(spec.taps.shape[-1])
    assert t_len in tap_lens and min(tap_lens) < t_len        # both paths reached


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


@pytest.mark.parametrize("cfg", [
    CIRCULAR,
    replace(FIG4, n_relays=32, block_len=8, cp_len=8, sync_mode=SYNCHRONOUS, delays=(5,) * 32),
    replace(FIG4, n_relays=64, block_len=100, cp_len=64, delays=None),
], ids=["T16", "sync-N32-T8", "N64-T100"])
def test_circular_gamma_is_the_squared_spectrum_bit_for_bit(cfg):
    # where 2D+1 does not fit a power of two below T, the taps are transformed
    # at T and gamma is re^2 + im^2 of that one transform: exact per bin, >= 0
    real, mask, power = multi_chunk(cfg, 256, seed=9)
    spec = lambda_spectrum(real, mask, cfg, power)
    assert spec.taps.shape[-1] == cfg.block_len
    assert np.array_equal(spec.gamma, abs2(spec.lam)) and spec.gamma.min() >= 0


@pytest.mark.parametrize("t_len", [8, 32, 64, 100, 101, 500, 511, 4096])
def test_irfft_of_zero_padded_half_spectrum_is_the_short_input_transform(t_len):
    # lambda_spectrum hands irfft the autocorrelation lags 0..D zero-padded to
    # T//2+1, which numpy transforms faster than the short input it would
    # pad itself; the bins agree bit for bit for every span and batch size
    rng = np.random.default_rng(t_len)
    for span in range(min(31, t_len // 2) + 1):
        for batch in (1, 7, 250):
            r = rng.normal(size=(batch, span + 1)) + 1j * rng.normal(size=(batch, span + 1))
            half = np.zeros((batch, t_len // 2 + 1), complex)
            np.conjugate(r, out=half[:, :span + 1])
            short = np.fft.irfft(np.conjugate(r), n=t_len, axis=-1, norm="forward")
            padded = np.fft.irfft(half, n=t_len, axis=-1, norm="forward")
            assert np.array_equal(padded, short), (span, batch)


@pytest.mark.parametrize("cfg", [FIG4, CIRCULAR], ids=["fig4", "circular"])
def test_spectrum_work_reused_across_batches_matches_fresh_spectra(cfg):
    # one scratch, rewound between batches as between an estimate's chunks
    # and filled with NaN as if an earlier user had left it so, serves
    # batches of any size up to its rows; stale taps and transforms of a
    # larger batch never reach a smaller one's gamma, and every batch writes
    # its half-spectrum's padding lags past D zero
    scratch, halves = Scratch(64, spectrum_slots(cfg)), []
    span = max(d % cfg.block_len for d in cfg.delays)

    def take(shape, dtype=float, order="C"):
        taken = Scratch.take(scratch, shape, dtype, order)
        if taken.dtype == complex and shape[-1] == cfg.block_len // 2 + 1:
            halves.append(taken)
        return taken

    scratch.take = take
    for seed, size in ((3, 64), (4, 5), (5, 64), (6, 1)):
        real, mask, power = multi_chunk(cfg, size, seed=seed)
        fresh = lambda_spectrum(real, mask, cfg, power)
        scratch.block.fill(np.nan)
        into = lambda_spectrum(real, mask, cfg, power, scratch)
        assert np.array_equal(into.gamma, fresh.gamma)
        assert np.array_equal(into.taps, fresh.taps)
        assert not halves or not halves[-1][:, span + 1:].any()
        scratch.rewind()
    assert len(halves) == (4 if cfg is FIG4 else 0)


def test_one_scratch_serves_configs_of_different_spans():
    # one block_len, delay spans 6 and then 3: the second config's
    # half-spectrum lies where the first one's taps and transforms were,
    # so its padding is right only if its own call writes it
    cfgs = [replace(FIG4, n_relays=n, block_len=64, delays=None) for n in (6, 3)]
    scratch = Scratch(64, max(map(spectrum_slots, cfgs)))
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
    # trial t of a drawn batch alone, unbatched: its powers and its row of
    # the phase plane, whose uniforms are the ones the batch read
    plane = real.phase_plane()
    return ChannelRealization(real.h2_sd[t], real.h2_sr[t], real.h2_rd[t],
                              phase_plane=lambda: plane[t])


@pytest.mark.parametrize("mode", ["async", "sync", "zero-lag", "circular"])
@pytest.mark.parametrize("n", [1, 5, 8, 10, 64])
def test_chosen_relay_spectrum_equals_the_one_hot_masked_one(mode, n):
    # a selection scheme's closed-form exact rate is the exact rate of the
    # one-hot masked spectrum, on rows that forward, rows that do not and
    # chunks where none does, at scalar and per-trial power; zero-lag puts
    # relay 0 (chosen in row 0) on the direct tap, where M = 1
    cfg = chosen_relay_config(mode, n)
    real = draw_realization(cfg, trial_stream(41, 0, n), size=64)
    rng = np.random.default_rng(n)
    chosen = rng.integers(0, n, size=64)
    chosen[:2] = 0, n - 1
    some = rng.random(64) < 0.6
    some[:2] = True
    for forwards in (some, np.zeros(64, bool)):
        for power in (0.7, rng.uniform(0.5, 2.0, size=64)):
            got = exact_rate_two_tap(link_sinrs(real, cfg, power), forwards, cfg, chosen)
            want = exact_rate(lambda_spectrum(real, one_hot(chosen, forwards, n), cfg, power), cfg)
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
    # rate of fresh arrays, the one-hot masked spectrum's exact rate
    for cfg in (FIG4, CIRCULAR):
        n = cfg.n_relays
        scratch = Scratch(64, channel_slots(n))
        scratch.block.fill(np.nan)
        for seed, size in ((3, 64), (4, 5), (6, 1)):
            real = draw_realization(cfg, trial_stream(seed, 0, n), size=size, scratch=scratch)
            fresh = draw_realization(cfg, trial_stream(seed, 0, n), size=size)
            rng = np.random.default_rng(seed)
            chosen, forwards = rng.integers(0, n, size=size), rng.random(size) < 0.7
            into = exact_rate_two_tap(link_sinrs(real, cfg, 0.7, scratch), forwards, cfg, chosen)
            want = exact_rate_two_tap(link_sinrs(fresh, cfg, 0.7), forwards, cfg, chosen)
            assert np.array_equal(into, want)
            oracle = exact_rate(lambda_spectrum(fresh, one_hot(chosen, forwards, n), cfg, 0.7), cfg)
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
    # the closed form against the one-hot spectrum's exact rate (the FFT
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
        want = exact_rate(lambda_spectrum(real, one_hot(chosen, forwards, n), cfg,
                                          cfg.e_relay_budget), cfg)
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
    # closed form against the spectrum's exact rate (the FFT oracle, its
    # equal delays accumulated on one lag) within 1e-12, over the bin counts
    # M = T/gcd(d, T) grid_config's shared delays give, with P_S = 0 and
    # every link mean at LINK_MEAN_MAX besides; a quarter of the rows have an
    # empty mask and approx_rate's flat rate bit for bit; an unbatched trial
    # is its batch row bit for bit
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
        want = exact_rate(lambda_spectrum(real, mask, cfg, power), cfg)
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
    rng = np.random.default_rng([block_len, mode == SYNCHRONOUS, policy == SHARED_BUDGET])
    size = 32 if block_len > 512 else 96
    for case in BOUND_CASES:
        cfg = bound_config(rng, block_len, mode, policy, case)
        n = cfg.n_relays
        real = draw_realization(cfg, trial_stream(int(rng.integers(1 << 32)), 0, n), size=size)
        mask = rng.random((size, n)) < 0.6
        mask[::4] = False
        power = relay_tx_power(cfg, np.maximum(mask.sum(axis=-1), 1))
        lower, upper = rate_bounds(real, mask, cfg, power)
        rate = exact_rate(lambda_spectrum(real, mask, cfg, power), cfg)
        assert lower.shape == upper.shape == rate.shape == (size,)
        assert np.all(lower <= rate) and np.all(rate <= upper), (case, cfg)
        assert np.isfinite(upper).all(), (case, cfg)
        flat = cfg.p_source * real.h2_sd[::4]
        assert np.all(upper[::4] - lower[::4] <= 2.5 * RATE_SLACK * (1.0 + flat)), (case, cfg)
        if case == "no-source":
            assert np.all(rate[::4] == 0.0) and np.all(upper[::4] == RATE_SLACK)
