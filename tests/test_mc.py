import math
import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fdrelay import channel, mc
from fdrelay.analytic import total_outage
from fdrelay.channel import LinkSinrs
from fdrelay.cli import build_preset
from fdrelay.mc import (SCHEME_MULTI, SCHEME_OS, SCHEME_PS, SCHEMES,
                        estimate_outage, select_relay, trial_stream)
from fdrelay.model import (MI_APPROXIMATE, MI_EXACT, SYNCHRONOUS, SystemConfig,
                           apply_param, validate_config)


def fig_config(**over):
    kwargs = dict(n_relays=5, p_source=10 ** 0.5, e_relay_budget=10 ** 0.5,
                  rate=2.0, var_sd=1.0, var_sr=10 ** 0.8, var_rd=10.0,
                  var_rsi=1.0, var_iri=1.0)
    kwargs.update(over)
    cfg = SystemConfig(**kwargs)
    validate_config(cfg)
    return cfg


def sinrs(g_sr, g_rd):
    g_sr = np.asarray(g_sr, dtype=float)
    return LinkSinrs(g_sd=np.float64(1.0), g_sr=g_sr,
                     g_rd=np.asarray(g_rd, dtype=float),
                     relay_tx_power=1.0, real=None)


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
    mask, got = mc.forwarding(real, cfg, scheme)
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
], ids=["async-approx", "sync-approx", "async-exact", "sync-exact"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_reused_chunk_buffers_match_fresh_ones(over, scheme):
    # estimate_outage reuses one uniform block and, under exact MI, one tap and
    # one gamma block across chunks.  52 trials in chunks of 7 end on a ragged
    # chunk of 3 that writes only the leading rows; chunk=1 refills one row 52
    # times; chunk=None is a single fresh chunk.  Near-even outage odds make
    # leftover taps or stale rows show in the count.
    cfg = fig_config(rate=2.5, block_len=32, **over)
    counts = [estimate_outage(cfg, scheme, 52, seed=13, chunk=c).outage_count
              for c in (7, 1, None)]
    assert counts[0] == counts[1] == counts[2]
    assert 5 < counts[0] < 47


@pytest.mark.parametrize("cfg, trials", [
    (replace(build_preset("fig4").variants[0][1].base, mi_mode=MI_EXACT, block_len=4096), 300),
    (fig_config(n_relays=64, cp_len=64), 5000),
    (fig_config(n_relays=64, cp_len=64, sync_mode=SYNCHRONOUS, delays=None), 5000),
], ids=["exact-T4096", "approx-N64", "sync-approx-N64"])
def test_estimate_memory_is_bounded_by_the_chunk_budget(cfg, trials):
    # the default chunk fits CHUNK_BYTES, so the traced peak stays a small
    # multiple of it however long the block or many the relays
    tracemalloc.start()
    try:
        estimate_outage(cfg, SCHEME_MULTI, trials, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * mc.CHUNK_BYTES


def test_estimate_agrees_with_closed_form():
    cfg = fig_config()
    p = total_outage(cfg)
    est = estimate_outage(cfg, SCHEME_MULTI, trials=200_000, seed=12)
    stderr = math.sqrt(p * (1 - p) / est.trials)
    assert abs(est.p_hat - p) <= 3 * stderr


def test_async_approx_never_builds_complex_gains(monkeypatch):
    # the aggregate-SINR rule reads |h|^2 only, selection included
    def refuse(*args, **kwargs):
        raise AssertionError("complex gain built")

    monkeypatch.setattr(channel, "gains_from_uniforms", refuse)
    for scheme in SCHEMES:
        assert estimate_outage(fig_config(), scheme, 3000, seed=2).trials == 3000


@pytest.mark.parametrize("over, links", [
    (dict(), ()),
    (dict(sync_mode=SYNCHRONOUS, delays=None), ("rd",)),
    (dict(mi_mode=MI_EXACT), ("sd", "rd")),
], ids=["async-approx", "sync-approx", "exact"])
def test_complex_gains_built_only_where_read(monkeypatch, over, links):
    # count the gain builds of every drawn realization, by the power array
    # each build starts from: each link the rate reads is built once per chunk
    draw, build = mc.draw_realization, channel.gains_from_uniforms
    for scheme in SCHEMES:
        reals, built = [], []
        monkeypatch.setattr(mc, "draw_realization",
                            lambda *a, **k: reals.append(draw(*a, **k)) or reals[-1])
        monkeypatch.setattr(channel, "gains_from_uniforms",
                            lambda power, u1: built.append(power) or build(power, u1))
        estimate_outage(fig_config(**over), scheme, 1000, seed=3, chunk=400)
        assert len(reals) == 3
        for real in reals:
            counts = {link: sum(p is getattr(real, "h2_" + link) for p in built)
                      for link in ("sd", "sr", "rd")}
            assert counts == {link: int(link in links) for link in counts}, scheme
        assert len(built) == 3 * len(links)


@pytest.mark.parametrize("over, planes", [
    (dict(), 0),
    (dict(sync_mode=SYNCHRONOUS, delays=None), 1),
    (dict(mi_mode=MI_EXACT), 1),
], ids=["async-approx", "sync-approx", "exact"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_phase_plane_drawn_once_per_chunk_where_read(monkeypatch, over, planes, scheme):
    # asynchronous approximate MI never generates a phase plane; a rate that
    # reads complex gains generates its chunk's plane once, however many
    # links it reads
    draw, drawn = mc.draw_realization, []

    def spy(*args, **kwargs):
        real = draw(*args, **kwargs)
        plane = real.phase_plane
        return replace(real, phase_plane=lambda: drawn.append(plane()) or drawn[-1])

    monkeypatch.setattr(mc, "draw_realization", spy)
    estimate_outage(fig_config(**over), scheme, 1000, seed=3, chunk=400)
    assert [u.shape for u in drawn] == [(400, 12), (400, 12), (200, 12)][:3 * planes]


def test_pinned_outage_counts():
    # seed-0 outage counts of preset points under the two-plane draw (powers
    # in plane 0, phases in plane 1); counts rather than CSV bytes, which also
    # hold closed-form values that move with the host's libm
    fig2 = apply_param(dict(build_preset("fig2").variants)["n10"].base, "var_iri_db", 10.0)
    for scheme, count in ((SCHEME_MULTI, 16), (SCHEME_OS, 13), (SCHEME_PS, 682)):
        assert estimate_outage(fig2, scheme, 20_000, seed=0).outage_count == count
    fig3 = apply_param(dict(build_preset("fig3").variants)["n10"].base, "var_iri_db", 0.0)
    assert estimate_outage(fig3, SCHEME_MULTI, 20_000, seed=0).outage_count == 706
    fig4 = apply_param(replace(build_preset("fig4").variants[0][1].base, mi_mode=MI_EXACT),
                       "var_sr_db", 0.0)
    assert estimate_outage(fig4, SCHEME_MULTI, 2000, seed=0).outage_count == 3
    assert estimate_outage(fig4, SCHEME_OS, 2000, seed=0).outage_count == 384
