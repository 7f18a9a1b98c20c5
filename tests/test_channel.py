import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fdrelay.channel import (FRESH, Scratch, channel_slots, draw_realization, gains_from_uniforms,
                             gather_relay, link_sinrs, trial_block_uniforms, uniforms_per_trial)
from fdrelay.fde import exact_rate, exact_rate_two_tap, lambda_spectrum
from fdrelay.model import SystemConfig
from fdrelay.mc import trial_stream
from oracles import abs2, from_gains, philox_planes, polar_gains, spare_turn_gains


def config(**over):
    kwargs = dict(n_relays=3, p_source=1.0, e_relay_budget=1.0, rate=2.0)
    kwargs.update(over)
    return SystemConfig(**kwargs)


def test_uniform_budget_covers_block_padding():
    for n in (1, 2, 5, 10):
        need = uniforms_per_trial(n)
        padded = trial_block_uniforms(n)
        assert need == 1 + 2 * n
        assert padded >= need and padded % 4 == 0 and padded - need < 4


def test_draw_shapes_and_zero_variance():
    cfg = config(var_sd=0.0, var_sr=2.0, var_rd=1.0)
    real = draw_realization(cfg, trial_stream(0, 0, cfg.n_relays), size=1)
    assert real.h_sd.shape == (1,) and real.h_sd[0] == 0.0
    assert real.h_sr.shape == (1, 3) and real.h_rd.shape == (1, 3)
    batch = draw_realization(cfg, trial_stream(0, 0, cfg.n_relays), size=7)
    assert batch.h_sd.shape == (7,)
    assert batch.h_sr.shape == (7, 3) and batch.h_rd.shape == (7, 3)


def test_scalar_draw_equals_batch_row():
    cfg = config(var_sd=1.0, var_sr=2.0, var_rd=3.0)
    batch = draw_realization(cfg, trial_stream(9, 0, cfg.n_relays), size=4)
    for t in range(4):
        one = draw_realization(cfg, trial_stream(9, t, cfg.n_relays), size=1)
        assert one.h2_sd[0] == batch.h2_sd[t]
        assert np.array_equal(one.h2_sr[0], batch.h2_sr[t])
        assert np.array_equal(one.h2_rd[0], batch.h2_rd[t])
        assert one.h_sd[0] == batch.h_sd[t]
        assert np.array_equal(one.h_sr[0], batch.h_sr[t])
        assert np.array_equal(one.h_rd[0], batch.h_rd[t])


def test_scratch_takes_exactly_each_shape_where_the_last_take_ended():
    # Scratch(size) holds size float64 slots; each take is exactly its shape,
    # in either order, starting where the last one ended, a complex one moved
    # up to the next 16-byte boundary; a ragged relay-major take is
    # F-contiguous.  A take past the block raises naming its shape and takes
    # nothing; rewind() starts again at slot 0.  FRESH takes new arrays of
    # the asked shape and order
    scratch = Scratch(100)
    assert scratch.block.size == 100 and scratch.block.dtype == float
    a = scratch.take((3, 5))
    b = scratch.take((7, 2), order="F")
    c = scratch.take((4, 3), complex)
    d = scratch.take((2,), np.uint64)
    taken = [a, b, c, d]
    assert [x.shape for x in taken] == [(3, 5), (7, 2), (4, 3), (2,)]
    assert [x.dtype for x in taken] == [float, float, complex, np.uint64]
    assert a.flags.c_contiguous and c.flags.c_contiguous
    assert b.flags.f_contiguous and b.strides == (8, 56)
    base = scratch.block.ctypes.data
    assert [x.ctypes.data - base for x in taken] == [0, 8 * 15, 8 * 30, 8 * 54]
    assert c.ctypes.data % 16 == 0
    for i, x in enumerate(taken):
        assert np.shares_memory(x, scratch.block)
        assert not any(np.shares_memory(x, y) for y in taken[i + 1:])
    with pytest.raises(ValueError, match=r"take of \(45,\) float64 overruns the scratch block"):
        scratch.take((45,))
    assert scratch.take((44,)).ctypes.data - base == 8 * 56       # the block's last slots
    scratch.rewind()
    again = scratch.take((2, 2), complex)
    assert again.ctypes.data == base and np.shares_memory(again, a)
    for order in "CF":
        one, two = (FRESH.take((3, 4), complex, order) for _ in range(2))
        assert one.shape == (3, 4) and one.dtype == complex and not np.shares_memory(one, two)
        assert one.flags.c_contiguous if order == "C" else one.flags.f_contiguous
    assert FRESH.block is None and FRESH.take((1 << 10,)).size == 1 << 10


def test_draw_into_reused_buffer_matches_fresh_draw():
    # the realization keeps the powers, so refilling the uniforms cannot change it
    cfg = config(var_sd=1.0, var_sr=2.0, var_rd=3.0)
    scratch = Scratch(5 * channel_slots(cfg.n_relays))
    for start in (0, 5):
        fresh = draw_realization(cfg, trial_stream(9, start, cfg.n_relays), size=5)
        into = draw_realization(cfg, trial_stream(9, start, cfg.n_relays), size=5, scratch=scratch)
        scratch.block[:5 * trial_block_uniforms(cfg.n_relays)] = np.nan     # the first take
        for name in ("h2_sd", "h2_sr", "h2_rd", "h_sd", "h_sr", "h_rd"):
            assert np.array_equal(getattr(into, name), getattr(fresh, name)), name
        scratch.rewind()


@pytest.mark.parametrize("size", [1, 7])
def test_buffer_backed_draw_and_sinrs_match_fresh_ones(size):
    # powers, the phase plane and each link's SINRs taken from a scratch
    # block holding other values are bit for bit those of a fresh draw, and
    # live in that block; each relay power's LinkSinrs takes SINR slots of its
    # own, one set more than the channel declares for an estimate
    cfg = config(var_sd=1.0, var_sr=2.0, var_rd=3.0, var_rsi=0.5, var_iri=0.25)
    n, slots = cfg.n_relays, uniforms_per_trial(cfg.n_relays)
    scratch = Scratch(size * (channel_slots(n) + slots))
    scratch.block.fill(np.nan)
    for start in (0, 9):
        fresh = draw_realization(cfg, trial_stream(9, start, n), size=size)
        into = draw_realization(cfg, trial_stream(9, start, n), size=size, scratch=scratch)
        for name in ("h2_sd", "h2_sr", "h2_rd", "h_sd", "h_sr", "h_rd"):
            assert np.array_equal(getattr(into, name), getattr(fresh, name)), name
        assert np.shares_memory(into.h2_rd, scratch.block)
        assert np.shares_memory(into.phases[2], scratch.block)
        for power in (0.7, np.linspace(0.5, 2.0, size)):
            want = link_sinrs(fresh, cfg, power)
            got = link_sinrs(into, cfg, power, scratch)
            for name in ("g_sd", "g_sr", "g_rd"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
                assert np.shares_memory(getattr(got, name), scratch.block), name
        scratch.rewind()


def test_draw_statistics():
    cfg = config(n_relays=2, var_sd=1.0, var_sr=4.0, var_rd=10.0)
    real = draw_realization(cfg, trial_stream(17, 0, 2), size=1_000_000)
    power = np.abs(real.h_rd) ** 2
    for k in range(2):
        assert 9.95 <= power[:, k].mean() <= 10.05
    assert abs((np.abs(real.h_sr) ** 2).mean() - 4.0) < 0.02
    assert abs(real.h_sd.real.mean()) < 0.004
    # the stored powers are the same exponential draws
    for k in range(2):
        assert 9.95 <= real.h2_rd[:, k].mean() <= 10.05
    assert abs(real.h2_sr.mean() - 4.0) < 0.02
    assert abs(real.h2_sd.mean() - 1.0) < 0.005
    assert real.h2_sd.min() >= 0.0 and real.h2_sr.min() >= 0.0 and real.h2_rd.min() >= 0.0


@pytest.mark.parametrize("size", [1, 7, 4096])
def test_drawn_gains_match_polar_map(size):
    # complex gains bit for bit as the polar map of each gain's power and
    # phase uniforms, taken from the two Philox planes, their magnitude
    # exactly sqrt of the stored power, abs2 within a few ulp of it
    cfg = config(n_relays=5, var_sd=1.3, var_sr=10 ** 0.8, var_rd=10.0)
    n = cfg.n_relays
    real = draw_realization(cfg, trial_stream(4, 2, n), size=size)
    u = np.stack(philox_planes(4, 2, n, size), axis=-1)
    pairs = {"sd": (u[..., 0, :], cfg.var_sd),
             "sr": (u[..., 1:1 + n, :], cfg.var_sr),
             "rd": (u[..., 1 + n:1 + 2 * n, :], cfg.var_rd)}
    for link, (pair, var) in pairs.items():
        mag, gain = polar_gains(pair, var)
        power, h = getattr(real, "h2_" + link), getattr(real, "h_" + link)
        assert np.shape(power) == np.shape(h) == np.shape(gain)
        assert np.array_equal(h, gain), link
        assert np.array_equal(np.sqrt(power), mag), link
        assert np.all(np.abs(abs2(h) - power) <= 4 * np.spacing(power)), link


@pytest.mark.parametrize("n, seed, trial, size", [(1, 0, 0, 1), (3, 7, 5, 9), (10, 2, 1000, 64)])
def test_trial_uniforms_are_philox_plane_blocks(n, seed, trial, size):
    # the first array the draw takes holds plane 0 at block trial*W/4, as the
    # raw words' integers k = u0 * 2**53, the powers are -var*log1p(-u0), the
    # spare is the integers of plane 0's slot 1+2N and the turn its uniform,
    # read in place, and the phases are the same slots of plane 1
    cfg = config(n_relays=n, var_sd=1.3, var_sr=2.0, var_rd=0.7)
    u0, u1 = philox_planes(seed, trial, n, size)
    scratch, taken = Scratch(), []
    scratch.take = lambda *args, **kw: taken.append(Scratch.take(scratch, *args, **kw)) or taken[-1]
    real = draw_realization(cfg, trial_stream(seed, trial, n), size=size, scratch=scratch)
    assert taken[0].dtype == np.uint64 and np.array_equal(taken[0] * 2.0 ** -53, u0)
    slots = (u0[..., :1], u0[..., 1:1 + n], u0[..., 1 + n:1 + 2 * n])
    for power, u, var in zip((real.h2_sd, real.h2_sr, real.h2_rd), slots,
                             (cfg.var_sd, cfg.var_sr, cfg.var_rd)):
        assert np.array_equal(power, (-var * np.log1p(-u)).reshape(np.shape(power)))
    assert np.shares_memory(real.spare, taken[0]) and real.spare.shape == (size,)
    assert np.array_equal(real.turn, u0[..., 1 + 2 * n]) and "phases" not in real.__dict__
    for phase, u in zip(real.phases, (u1[..., 0], u1[..., 1:1 + n], u1[..., 1 + n:1 + 2 * n])):
        assert np.array_equal(phase, u)


def test_other_generators_take_phases_from_their_jump():
    cfg = config(var_sd=1.0, var_sr=2.0, var_rd=3.0)
    real = draw_realization(cfg, np.random.default_rng(5), size=4)
    twin = np.random.default_rng(5)
    u1 = np.random.Generator(twin.bit_generator.jumped()).random((4, 8))
    u0 = twin.random((4, 8))
    assert np.array_equal(real.h2_rd, -cfg.var_rd * np.log1p(-u0[:, 4:7]))
    assert np.array_equal(real.phases[2], u1[:, 4:7])


def mid_block_philox():
    rng = np.random.Generator(np.random.Philox(key=3))
    rng.random(1)
    return rng


RNGS = pytest.mark.parametrize("make_rng", [
    lambda: trial_stream(3, 5, 3),
    lambda: np.random.default_rng(5),
    mid_block_philox,
], ids=["trial-stream", "pcg64", "philox-mid-block"])


@RNGS
@pytest.mark.parametrize("size", [1, 6])
def test_draw_uniforms_are_generator_random_doubles(make_rng, size):
    # the draw forms its uniforms from raw words; they are bit for bit the
    # doubles Generator.random returns from a twin rng, powers from plane 0
    # and phases from its jump, and rng ends where the twin's random leaves it
    cfg = config(var_sd=1.3, var_sr=2.0, var_rd=0.7)
    rng, twin = make_rng(), make_rng()
    real = draw_realization(cfg, rng, size=size)
    u1 = np.random.Generator(twin.bit_generator.jumped()).random((size, 8))
    u0 = twin.random((size, 8))
    assert np.array_equal(rng.random(5), twin.random(5))
    for power, phase, var, slots in zip((real.h2_sd, real.h2_sr, real.h2_rd), real.phases,
                                        (cfg.var_sd, cfg.var_sr, cfg.var_rd),
                                        (slice(0, 1), slice(1, 4), slice(4, 7))):
        assert np.array_equal(power, (-var * np.log1p(-u0[:, slots])).reshape(np.shape(power)))
        assert np.array_equal(phase, u1[:, slots].reshape(np.shape(power)))


def test_draw_refuses_generators_whose_doubles_are_not_one_word():
    # MT19937 makes a double from two 32-bit words: the draw names it and
    # raises before it reads a word
    rng = np.random.Generator(np.random.MT19937(5))
    with pytest.raises(ValueError, match="MT19937"):
        draw_realization(config(), rng, size=4)
    assert np.array_equal(rng.random(5), np.random.Generator(np.random.MT19937(5)).random(5))


@RNGS
def test_gains_do_not_depend_on_later_draws(make_rng):
    # a gain read at once equals one read after further draws from rng,
    # also for a Philox stream standing inside a counter block
    cfg = config(var_sd=1.0, var_sr=2.0, var_rd=3.0)
    early = draw_realization(cfg, make_rng(), size=6)
    gains = (early.h_sd, early.h_sr, early.h_rd)
    late_rng = make_rng()
    late = draw_realization(cfg, late_rng, size=6)
    late_rng.random(1000)
    for gain, link in zip(gains, ("sd", "sr", "rd")):
        assert np.array_equal(getattr(late, "h_" + link), gain), link


def test_from_gains_powers_and_gains():
    h_sr = np.array([3 + 4j, -1j])
    real = from_gains(2j, h_sr, [0j, 1 + 1j])
    assert real.h_sd == 2j and real.h2_sd == 4.0
    assert np.array_equal(real.h_sr, h_sr) and real.h_sr.dtype == complex
    assert np.array_equal(real.h2_sr, [25.0, 1.0])
    assert np.array_equal(real.h2_rd, [0.0, 2.0])


def test_link_sinrs_direct_substitution():
    real = from_gains(1 + 0j, [1 + 0j, 0j, 0j], [0j, 0j, 0j])
    cfg = config(p_source=2.0, var_rsi=1.0, var_iri=1.0)
    sinrs = link_sinrs(real, cfg, 1.0)
    assert sinrs.g_sd == 2.0
    cfg1 = config(p_source=1.0, var_rsi=1.0, var_iri=1.0)
    sinrs1 = link_sinrs(real, cfg1, 1.0)
    assert_allclose(sinrs1.g_sr[0], 1.0 / 3.0, rtol=1e-15)


def test_link_sinr_interference_denominator():
    # P_S at 5 dB, interference floor P_R(var_rsi + var_iri) + 1 with
    # P_R = E_R/N at 5 dB over five relays
    p_s = 10.0 ** 0.5
    p_r = p_s / 5.0
    real = from_gains(0j, [1 + 0j], [0j])
    cfg = config(n_relays=1, p_source=p_s, var_rsi=1.0, var_iri=1.0)
    sinrs = link_sinrs(real, cfg, p_r)
    assert_allclose(sinrs.g_sr[0], 1.3962038997193678, rtol=1e-14)


def test_link_sinrs_power_scaling():
    cfg = config(var_rsi=0.5, var_iri=0.25)
    real = draw_realization(cfg, trial_stream(3, 0, cfg.n_relays), size=1)
    lo = link_sinrs(real, cfg, 1.0)
    hi_src = link_sinrs(real, config(p_source=2.0, var_rsi=0.5, var_iri=0.25), 1.0)
    assert hi_src.g_sd == 2.0 * lo.g_sd
    assert np.array_equal(hi_src.g_sr, 2.0 * lo.g_sr)
    hi_rel = link_sinrs(real, cfg, 2.0)
    assert np.array_equal(hi_rel.g_rd, 2.0 * lo.g_rd)
    assert np.all(hi_rel.g_sr < lo.g_sr)


def test_decode_set_threshold_rule():
    # relay k decodes when its S->R SINR meets the threshold: g_sr >= eta
    sinrs = link_sinrs(from_gains(0j, [2 + 0j, np.sqrt(2) + 0j, np.sqrt(5) + 0j],
                                  [0j, 0j, 0j]),
                       config(p_source=1.0), 1.0)
    assert sinrs.g_sr[0] == pytest.approx(4.0)
    assert (sinrs.g_sr >= 3.1125).tolist() == [True, False, True]
    assert (sinrs.g_sr >= 1e-12).tolist() == [True, True, True]
    zero = link_sinrs(from_gains(0j, [0j, 0j, 0j], [0j, 0j, 0j]),
                      config(p_source=1.0), 1.0)
    assert not np.any(zero.g_sr >= 3.1125)


def test_decode_set_monotone():
    cfg = config()
    real = draw_realization(cfg, trial_stream(5, 0, cfg.n_relays), size=200)
    sinrs = link_sinrs(real, cfg, 1.0)
    low = sinrs.g_sr >= 0.5
    high = sinrs.g_sr >= 2.0
    assert np.all(low[high])
    # raising the first-hop gains never removes a relay
    boosted = link_sinrs(from_gains(real.h_sd, real.h_sr * 2, real.h_rd), cfg, 1.0)
    assert np.all((boosted.g_sr >= 1.0)[sinrs.g_sr >= 1.0])


def test_abs2_matches_squared_magnitude():
    z = np.array([3 + 4j, -1j, 0.0, 2.5 - 0.5j])
    assert_allclose(abs2(z), np.abs(z) ** 2, rtol=1e-15)
    assert abs2(3 + 4j) == 25.0


def polar(u, variance):
    # the gain of each uniform pair, its power computed as draw_realization does
    return gains_from_uniforms(-variance * np.log1p(-u[..., 0]), u[..., 1])


def test_zero_variance_sample_is_exactly_zero():
    gains = polar(np.random.default_rng(7).random((10, 2)), 0.0)
    assert np.all(gains == 0.0)


def test_sample_statistics():
    draws = polar(np.random.default_rng(11).random((1_000_000, 2)), 4.0)
    mean_power = abs2(draws).mean()
    assert 3.98 <= mean_power <= 4.02
    unit = polar(np.random.default_rng(12).random((1_000_000, 2)), 1.0)
    assert abs(unit.real.mean()) < 0.004
    assert abs(unit.imag.mean()) < 0.004
    # real/imag parts carry half the variance each
    assert abs(unit.real.var() - 0.5) < 0.005
    assert abs(unit.imag.var() - 0.5) < 0.005


def test_gains_from_uniforms_layout():
    u = np.array([0.5, 0.25])
    got = polar(u, 2.0)
    mag = math.sqrt(-2.0 * math.log1p(-0.5))
    assert got.shape == ()          # one pair, no batch axis
    assert_allclose(got, mag * np.exp(2j * np.pi * 0.25), rtol=1e-14)
    batch = polar(np.tile(u, (6, 1)), 2.0)
    assert batch.shape == (6,)
    assert_allclose(batch, got, rtol=1e-15)
    assert polar(np.tile(u, (2, 3, 1)), 2.0).shape == (2, 3)


def test_gains_equal_the_complex_temporary_form_over_a_seeded_grid():
    # the parts are written straight into one complex array: the gains equal
    # mag*cos + 1j*(mag*sin), the form with complex temporaries, over powers
    # from zero to 1e200 (C-order and relay-major) and phases that include
    # quarter turns; only the sign of an exact zero part may differ
    rng = np.random.default_rng(29)
    power = rng.exponential(10.0 ** rng.uniform(-200.0, 200.0, (96, 1)), (96, 21))
    power[::5] = 0.0
    power[:, ::7] = 0.0
    u1 = rng.random((96, 21))
    u1[1::4, ::3] = np.resize([0.0, 0.25, 0.5, 0.75], u1[1::4, ::3].shape)
    for p in (power, np.asfortranarray(power)):
        got = gains_from_uniforms(p, u1)
        mag, ang = np.sqrt(p), (2.0 * np.pi) * u1
        want = mag * np.cos(ang) + 1j * (mag * np.sin(ang))
        assert got.dtype == complex and got.shape == want.shape and got.flags.c_contiguous
        assert np.array_equal(got, want)
        for part in ("real", "imag"):
            a, b = getattr(got, part), getattr(want, part)
            assert np.all((np.signbit(a) == np.signbit(b)) | (a == 0.0)), part
        assert (got == 0.0).sum() >= power.size // 5
    one = gains_from_uniforms(np.float64(2.0), np.float64(0.3))
    assert type(one) is np.complex128 and one == np.sqrt(2.0) * np.exp(0.6j * np.pi)


def test_gains_edge_uniform_zero():
    # u = 0 must map to a zero-magnitude gain, not -inf
    assert polar(np.array([0.0, 0.3]), 1.0) == 0.0


def relay_layouts(a):
    # a's values in C order, in a relay-major Scratch take, as a chunk
    # gathers them, in the leading rows of a larger relay-major array, whose
    # relay columns are strided, and in relay columns strided inside a wider
    # C-order plane
    rows, n = a.shape
    take = Scratch(a.nbytes // 8).take((rows, n), a.dtype, order="F")
    take[...] = a
    wider = np.empty((rows + 5, n), a.dtype, order="F")
    wider[:rows] = a
    plane = np.zeros((rows, 2 * n + 3), a.dtype)
    plane[:, 2:2 + n] = a
    out = [a, take, wider[:rows], plane[:, 2:2 + n]]
    assert out[1].flags.f_contiguous and out[2].strides[0] == a.itemsize
    assert out[3].strides[0] > a.itemsize
    return out


@pytest.mark.parametrize("dtype", [np.intp, np.uint8, np.uint16])
@pytest.mark.parametrize("n", [1, 5, 10, 64])
def test_gather_relay_on_every_layout(n, dtype):
    # each row's indexed entry, read one row at a time, on every layout a
    # chunk gathers from, for small unsigned index dtypes, real and complex
    # arrays, a batch of one and one unbatched trial
    rng = np.random.default_rng(n)
    index = rng.integers(0, n, size=300).astype(dtype)
    index[:2] = 0, n - 1
    for a in (rng.random((300, n)), rng.random((300, n)) + 1j * rng.random((300, n))):
        want = np.array([row[k] for row, k in zip(a, index)])
        for view in relay_layouts(a):
            got = gather_relay(view, index)
            assert got.dtype == a.dtype and np.array_equal(got, want)
            assert np.array_equal(gather_relay(view[:1], index[:1]), want[:1])
            assert np.array_equal(gather_relay(view[7:11], index[7:11]), want[7:11])
        assert gather_relay(a[3], index[3]) == a[3, index[3]]


@pytest.mark.parametrize("n", [1, 5, 10, 64])
def test_one_relay_gain_is_the_gathered_h_rd(n):
    # the closed-form selection rate, which builds no complex gain and no
    # phase plane, is the exact rate of a one-relay spectrum whose only
    # relay gain is the gathered h_rd, placed at the chosen relay's delay:
    # the gathered power and the realization's turn describe that one gain
    # (over a 16-bin block, where the turn moves the rate)
    cfg = config(n_relays=n, var_rd=3.0, block_len=16, cp_len=64)
    real = draw_realization(cfg, trial_stream(5, 0, n), size=200, scratch=Scratch(200 * channel_slots(n)))
    rng = np.random.default_rng(n)
    chosen, forwards = rng.integers(0, n, size=200), rng.random(200) < 0.8
    got = exact_rate_two_tap(link_sinrs(real, cfg, 0.7), forwards, cfg, chosen)
    assert not {"h_rd", "phases"} & real.__dict__.keys() and got.shape == (200,)
    gains = spare_turn_gains(real, cfg)
    h_rd = gather_relay(gains.h_rd, chosen)
    for k in range(n):
        rows = chosen == k
        alone = replace(cfg, n_relays=1, delays=(cfg.delays[k],))
        one = from_gains(gains.h_sd[rows], gains.h_sr[rows, k:k + 1], h_rd[rows, None])
        want = exact_rate(lambda_spectrum(one, forwards[rows, None], alone, 0.7), alone)
        assert_allclose(got[rows], want, rtol=0, atol=1e-12)
