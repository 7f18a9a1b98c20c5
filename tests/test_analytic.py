import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

import fdrelay.analytic as analytic
from fdrelay.analytic import (_clamped, _gap_sum, _mrc_mix_outage, _top_down_sum,
                              combine_outage, kummer_j, link_outages, p_cond_async,
                              p_cond_sync, regularized_lower_gamma_int, total_outage)
from fdrelay.cli import PRESET_NAMES, build_preset
from fdrelay.model import (ASYNCHRONOUS, FIXED_PER_RELAY, SHARED_BUDGET,
                           SYNCHRONOUS, SystemConfig, apply_param, eta,
                           relay_tx_power, validate_config)
from oracles import (combine_by_enumeration, combine_every_size, kummer_j_loop,
                     top_down_sum_loop)


def fig_config(**over):
    kwargs = dict(n_relays=5, p_source=10 ** 0.5, e_relay_budget=10 ** 0.5,
                  rate=2.0, var_sd=1.0, var_sr=10 ** 0.8, var_rd=10.0,
                  var_rsi=1.0, var_iri=1.0)
    kwargs.update(over)
    return SystemConfig(**kwargs)


def mix_quad(n_sum, gbar_sd, gbar_rd, e):
    # oracle: integrate the Erlang(n_sum) pdf against the exponential CDF
    def f(y):
        pdf = (y ** (n_sum - 1) * math.exp(-y / gbar_rd)
               / (math.factorial(n_sum - 1) * gbar_rd ** n_sum))
        return pdf * -math.expm1(-(e - y) / gbar_sd)
    val, _ = quad(f, 0.0, e, epsabs=1e-13, epsrel=1e-12)
    return val


def test_eta_values():
    def at(rate, block_len, cp_len):
        return eta(fig_config(rate=rate, block_len=block_len, cp_len=cp_len))

    assert_allclose(at(2.0, 500, 10), 3.112455306624266, rtol=1e-15)
    assert at(1.0, 500, 0) == 1.0
    assert at(1e-12, 500, 10) == pytest.approx(0.0, abs=1e-11)


def test_link_outages_fig_point():
    cfg = fig_config()
    p_sd, p_sr = link_outages(cfg)
    assert_allclose(p_sd, 0.62627864092127086, rtol=1e-14)
    assert_allclose(p_sr, 0.29763962753339062, rtol=1e-14)
    assert_allclose(eta(cfg), 3.112455306624266, rtol=1e-15)


def test_link_outages_limits():
    strong = fig_config(p_source=1e9)
    p_sd, p_sr = link_outages(strong)
    assert p_sd < 1e-8 and p_sr < 1e-8
    assert link_outages(fig_config(p_source=0.0)) == (1.0, 1.0)


def test_power_policies():
    cfg = fig_config()
    assert relay_tx_power(cfg, cfg.n_relays) == pytest.approx(10 ** 0.5 / 5)
    assert relay_tx_power(cfg, 2) == pytest.approx(10 ** 0.5 / 2)
    fixed = fig_config(relay_power_policy=FIXED_PER_RELAY)
    assert relay_tx_power(fixed, fixed.n_relays) == pytest.approx(10 ** 0.5)
    assert relay_tx_power(fixed, 2) == pytest.approx(10 ** 0.5)
    # a lone selected relay gets the whole budget under either policy
    assert relay_tx_power(cfg, 1) == relay_tx_power(fixed, 1) == 10 ** 0.5
    # the closed form stays in Python floats; Monte-Carlo passes per-trial counts
    assert type(relay_tx_power(cfg, 3)) is float
    counts = np.array([1, 2, 5])
    assert_allclose(relay_tx_power(cfg, counts), 10 ** 0.5 / counts, rtol=1e-15)


def test_two_branch_mix_frozen():
    got = _mrc_mix_outage(1, 1.0, 2.0, 1.0)
    assert_allclose(got, 0.15481812174617547, rtol=1e-13)
    # standard two-branch closed form as an independent expression
    want = 1.0 + (2.0 * math.exp(-0.5) - 1.0 * math.exp(-1.0)) / (1.0 - 2.0)
    assert_allclose(got, want, rtol=1e-13)
    # swapping the scales cannot change the distribution of the sum
    assert_allclose(_mrc_mix_outage(1, 2.0, 1.0, 1.0), got, rtol=1e-12)


def test_mix_degenerate_branch():
    assert_allclose(_mrc_mix_outage(2, 1.0, 1.0, 1.0),
                    0.080301397071394196, rtol=1e-13)
    # continuity across the equal-scale fallback
    near = _mrc_mix_outage(2, 1.0, 1.0 + 1e-10, 1.0)
    assert_allclose(near, 0.080301397071394196, rtol=1e-5)


def test_mix_negative_argument_branch():
    # gbar_rd > gbar_sd drives the incomplete gamma to a negative argument
    got = _mrc_mix_outage(3, 1.0, 3.0, 2.0)
    assert_allclose(got, 0.011475052299083867, rtol=1e-12)
    assert_allclose(got, mix_quad(3, 1.0, 3.0, 2.0), rtol=1e-9)
    assert 0.0 <= got <= 1.0


def test_mix_negative_branch_against_sampling():
    rng = np.random.default_rng(314)
    n = 10_000_000
    draws = rng.exponential(1.0, n) + rng.exponential(3.0, (n, 3)).sum(axis=1)
    p_hat = np.count_nonzero(draws < 2.0) / n
    p = _mrc_mix_outage(3, 1.0, 3.0, 2.0)
    stderr = math.sqrt(p * (1 - p) / n)
    assert abs(p_hat - p) <= 3 * stderr


def test_mix_quadrature_grid():
    for n_sum in (1, 2, 4, 7):
        for gsd, grd in [(1.0, 0.25), (0.5, 2.0), (3.0, 3.5), (2.0, 0.1)]:
            for e in (0.3, 1.0, 4.0):
                want = mix_quad(n_sum, gsd, grd, e)
                got = _mrc_mix_outage(n_sum, gsd, grd, e)
                assert math.isclose(got, want, rel_tol=1e-8, abs_tol=1e-12), \
                    (n_sum, gsd, grd, e)


def test_mix_zero_scale_edges():
    # no direct branch: outage is the pure Erlang CDF 1 - e^{-1}(1 + 1)
    assert _mrc_mix_outage(2, 0.0, 1.0, 1.0) == pytest.approx(
        1.0 - 2.0 * math.exp(-1.0), rel=1e-12)
    assert _mrc_mix_outage(2, 1.0, 0.0, 1.0) == pytest.approx(1 - math.exp(-1), rel=1e-12)
    assert _mrc_mix_outage(1, 1.0, 1.0, 0.0) == 0.0


def mix_mpmath(n_sum, gbar_sd, gbar_rd, e):
    # oracle: P(n, v) - e^{-u} v^n/n! 1F1(n; n+1; u - v) at 50 digits, from
    # the exact binary values of the double arguments
    with mpmath.workdps(50):
        u = mpmath.mpf(e) / mpmath.mpf(gbar_sd)
        v = mpmath.mpf(e) / mpmath.mpf(gbar_rd)
        return (mpmath.gammainc(n_sum, 0, v, regularized=True)
                - mpmath.exp(-u) * v ** n_sum / mpmath.factorial(n_sum)
                * mpmath.hyp1f1(n_sum, n_sum + 1, u - v))


# relayed-to-direct scale ratios from 1e-3 to 1e3, with 1 +- 1e-9 ... 1e-5
# on both sides of the equal-scale point
HARD_RATIOS = (1e-3, 1e-2, 0.1, 0.5, 1 - 1e-5, 1 - 1e-6, 1 - 1e-7, 1 - 1e-8,
               1 - 1e-9, 1.0, 1 + 1e-9, 1 + 1e-8, 1 + 1e-7, 1 + 1e-6, 1 + 1e-5,
               2.0, 10.0, 100.0, 1e3)


def test_mix_matches_mpmath_on_hard_grid():
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n_sum in (1, 2, 3, 5, 10, 16, 32, 64):
            for ratio in HARD_RATIOS:
                for e in (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 30.0, 100.0, 1e3):
                    got = _mrc_mix_outage(n_sum, 1.0, ratio, e)
                    assert 0.0 <= got <= 1.0, (n_sum, ratio, e, got)
                    want = mix_mpmath(n_sum, 1.0, ratio, e)
                    if want > 1e-30:
                        rel = float(abs(got - want) / want)
                        assert rel <= 1e-10, (n_sum, ratio, e, got, want)
                        checked += 1
    assert checked > 1000, checked


def relayed_sum_points():
    # (n, gbar_sd, gbar_rd, e) where _mrc_mix_outage forms x = v - u >= n: first
    # a point where P(n, v) minus the relayed complement loses 1.9e-10 relative,
    # then a grid of u = e/gbar_sd from 1e-9 up and x from n up, and points drawn
    # log-uniformly over the bench-like ranges
    points = [(41, 6901.237277472282, 0.010215847785181757, 0.4772739178632451)]
    for n in (1, 2, 5, 16, 41, 64):
        for x_over_n in (1.0, 1 + 1e-9, 1.01, 2.0, 10.0, 1e3):
            for u in (1e-9, 1e-5, 1e-2, 0.5, 10.0):
                points.append((n, 1.0, u / (n * x_over_n + u), u))
    rng = np.random.default_rng(20)
    while len(points) < 2000:
        n = int(rng.integers(1, 65))
        gbar_sd, gbar_rd, e = 10.0 ** rng.uniform([-3.0, -3.0, -3.0], [5.0, 3.0, 3.0])
        points.append((n, float(gbar_sd), float(gbar_rd), float(e)))
    return [(n, sd, rd, e) for n, sd, rd, e in points
            if (e / rd) * ((sd - rd) / sd) >= n]   # x as _mrc_mix_outage forms it


def test_mix_matches_mpmath_where_relayed_sum_reaches_n():
    points = relayed_sum_points()
    assert len(points) > 200, len(points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in points:
            got = _mrc_mix_outage(*args)
            want = mix_mpmath(*args)
            assert float(abs(got - want) / want) <= 1e-13, (args, got, want)


@pytest.mark.parametrize("args, want", [
    ((64, 1.0, 1 + 1e-6, 1.0), 4.5287352902569416e-92),
    ((64, 1.0, 1 - 1e-6, 1.0), 4.529306223372689e-92),
    ((64, 1.0, 5.0, 2000.0), 1.0),
    ((28, 0.3048466139104228, 32.370400892503845, 187.66978995675768),
     2.8139070908615658e-11),
], ids=["just-above-equal", "just-below-equal", "far-threshold", "bench-nan"])
def test_mix_pinned_values(args, want):
    # mpmath values (mix_mpmath): near-equal scales at n = 64 and a threshold
    # 2000 times the direct mean once overflowed; the last point is a
    # bench-grid config once read as NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _mrc_mix_outage(*args)
    assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("mode", [ASYNCHRONOUS, SYNCHRONOUS])
@pytest.mark.parametrize("policy", [SHARED_BUDGET, FIXED_PER_RELAY])
def test_total_outage_high_rate_weak_direct_link(mode, policy):
    cfg = validate_config(SystemConfig(
        n_relays=4, p_source=10.0, e_relay_budget=10.0, rate=8.0, var_sd=0.01,
        var_sr=10.0, var_rd=10.0, var_rsi=1.0, var_iri=1.0, sync_mode=mode,
        relay_power_policy=policy))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = total_outage(cfg)
    assert math.isfinite(p) and 0.0 <= p <= 1.0


def db_draw(lo, hi):
    return st.floats(lo, hi).map(lambda x: 10.0 ** (x / 10.0))


# (field, +1 if the outage may only rise with it, -1 if only fall, and
# whether that holds under asynchronous combining with the shared budget;
# rate does not there, see test_async_shared_outage_can_fall_with_rate)
MONOTONE = (("rate", 1, False), ("var_sd", -1, True), ("var_rd", -1, True),
            ("var_rsi", 1, False), ("var_iri", 1, False), ("var_sr", -1, False),
            ("p_source", -1, False))


@settings(max_examples=150, deadline=None)
@example(n=51, rate=1.75, powers=(1.0, 1.0),
         variances=(10 ** -0.7, 10 ** 0.2, 1.0, 1.0, 1.0), sync=False, fixed=False)
@given(n=st.integers(1, 64), rate=st.floats(0.5, 8.0),
       powers=st.tuples(db_draw(0.0, 30.0), db_draw(0.0, 30.0)),
       variances=st.tuples(*[db_draw(-20.0, 20.0)] * 5),
       sync=st.booleans(), fixed=st.booleans())
def test_total_outage_properties_on_bench_ranges(n, rate, powers, variances, sync, fixed):
    # under asynchronous combining with the shared budget, more decoders
    # split E_R and can raise the outage, so the rate, first-hop and
    # interference directions are only claimed for the other configs
    cfg = validate_config(SystemConfig(
        n_relays=n, p_source=powers[0], e_relay_budget=powers[1], rate=rate,
        var_sd=variances[0], var_sr=variances[1], var_rd=variances[2],
        var_rsi=variances[3], var_iri=variances[4], cp_len=max(10, n),
        sync_mode=SYNCHRONOUS if sync else ASYNCHRONOUS,
        relay_power_policy=FIXED_PER_RELAY if fixed else SHARED_BUDGET))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = total_outage(cfg)
        assert math.isfinite(p) and 0.0 <= p <= 1.0
        for field, sign, everywhere in MONOTONE:
            q = total_outage(replace(cfg, **{field: 1.3 * getattr(cfg, field)}))
            assert math.isfinite(q) and 0.0 <= q <= 1.0
            if everywhere or sync or fixed:
                assert sign * (q - p) >= -1e-10 * max(p, q), (field, p, q)


def test_async_shared_outage_can_fall_with_rate():
    # Under the shared budget, L decoders each send E_R/L, so the relayed
    # sum keeps its mean and loses variance as L grows; deep in outage that
    # raises p_cond(L).  A higher rate moves binomial weight to fewer
    # decoders, which here outweighs the rise of every p_cond(L).
    cfg = validate_config(SystemConfig(
        n_relays=51, p_source=1.0, e_relay_budget=1.0, rate=1.75,
        var_sd=10 ** -0.7, var_sr=10 ** 0.2, var_rd=1.0, var_rsi=1.0, var_iri=1.0,
        cp_len=51, sync_mode=ASYNCHRONOUS, relay_power_policy=SHARED_BUDGET))
    got = []
    for rate in (1.75, 1.3 * 1.75):
        c = replace(cfg, rate=rate)
        p_sd, p_sr = link_outages(c)
        e = eta(c)
        conds = [float(mix_mpmath(size, c.p_source * c.var_sd,
                                  c.e_relay_budget / size * c.var_rd, e))
                 for size in range(1, c.n_relays + 1)]
        assert all(b > a for a, b in zip(conds, conds[1:]))
        p = total_outage(c)
        assert_allclose(p, combine_every_size(p_sd, p_sr, conds), rtol=1e-12)
        got.append(p)
    assert got[1] < got[0] - 1e-4


def test_p_cond_async_fig_values():
    cfg = fig_config()
    assert_allclose(p_cond_async(2, cfg), 0.0045662324922726312, rtol=1e-11)
    assert_allclose(p_cond_async(5, cfg), 2.4226430108555221e-5, rtol=1e-11)
    with pytest.raises(ValueError):
        p_cond_async(0, cfg)
    for size in (2.5, 2.0, True):
        with pytest.raises(ValueError):
            p_cond_async(size, cfg)


@pytest.mark.parametrize("p_cond", [p_cond_async, p_cond_sync])
@pytest.mark.parametrize("size", [0, 2.0, True])
def test_p_cond_names_a_bad_decode_set_size(p_cond, size):
    with pytest.raises(ValueError, match=f"n_decoding must be a positive integer, got {size!r}"):
        p_cond(size, fig_config())


def test_p_cond_async_decreases_with_relays_at_fixed_power():
    cfg = fig_config(relay_power_policy=FIXED_PER_RELAY)
    vals = [p_cond_async(size, cfg) for size in range(1, 8)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_p_cond_sync_fig_value_and_l_independence():
    cfg = fig_config()
    assert_allclose(p_cond_sync(1, cfg), 0.034564448625716221, rtol=1e-12)
    assert p_cond_sync(3, cfg) == p_cond_sync(1, cfg)
    with pytest.raises(ValueError):
        p_cond_sync(0, cfg)
    for size in (2.5, 2.0, True):
        with pytest.raises(ValueError):
            p_cond_sync(size, cfg)


def test_sync_exponent_resolution():
    # P(gsd + gsyn < e) for two exponentials; the e^{-e/gbar_sd} factor
    # belongs to the direct branch.  Using the relayed scale there instead
    # is numerically distinguishable at unequal scales.
    cfg = fig_config(p_source=10 ** 0.5, var_rd=10.0)
    gsd = cfg.p_source * cfg.var_sd
    gsyn = cfg.e_relay_budget * cfg.var_rd
    e = eta(cfg)
    got = p_cond_sync(2, cfg)
    want = mix_quad(1, gsd, gsyn, e)
    assert_allclose(got, want, rtol=1e-9)
    wrong = (1 - math.exp(-e / gsyn)
             - math.exp(-e / gsyn) * (gsd / (gsd - gsyn))
             * (1 - math.exp(-e * (gsd - gsyn) / (gsyn * gsd))))
    assert abs(wrong - want) > 1e-3


def test_p_cond_sync_diversity_comparison():
    # with matched per-branch scales, summing L independent branches can
    # only help: async conditional outage is below the coherent single
    # branch once L >= 2
    cfg = fig_config(relay_power_policy=FIXED_PER_RELAY)
    for size in (2, 3, 5):
        assert p_cond_async(size, cfg) <= p_cond_sync(size, cfg)


def test_combine_stub_example():
    cond = [0.2, 0.1]
    assert_allclose(combine_outage(0.5, 0.5, 2, lambda size: cond[size - 1]), 0.25,
                    rtol=1e-15)
    assert_allclose(combine_by_enumeration(0.5, 0.5, [0.2, 0.1]), 0.25, rtol=1e-15)


def test_combine_edge_probabilities():
    cond = [0.9, 0.8, 0.7]
    assert combine_outage(0.37, 1.0, 3, lambda size: 0.9) == pytest.approx(0.37, rel=1e-12)
    assert combine_outage(0.37, 0.0, 3, lambda size: cond[size - 1]) == pytest.approx(
        0.7, rel=1e-12)


def test_combine_binomial_matches_enumeration():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        p_sd = float(rng.uniform(0, 1))
        p_sr = float(rng.uniform(0, 1))
        cond = rng.uniform(0, 1, size=n).tolist()
        a = combine_outage(p_sd, p_sr, n, lambda size: cond[size - 1])
        b = combine_by_enumeration(p_sd, p_sr, cond)
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-14)


def test_total_outage_methods_agree():
    # the binomial collapse against all 2^N decode sets, in both modes
    for n in (1, 3, 8):
        for cfg in (fig_config(n_relays=n),
                    fig_config(n_relays=n, sync_mode=SYNCHRONOUS)):
            p_sd, p_sr = link_outages(cfg)
            cond = p_cond_sync if cfg.sync_mode == SYNCHRONOUS else p_cond_async
            b = combine_by_enumeration(p_sd, p_sr, [cond(size, cfg) for size in range(1, n + 1)])
            assert math.isclose(total_outage(cfg), b, rel_tol=1e-12)


def bench_range_configs(seed, count):
    # the closed-form bench ranges: N 1..64, rate 0.5..8, P_S and E_R 0..30 dB,
    # every channel variance -20..20 dB, both modes and both power policies
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 65))
        powers = 10.0 ** (rng.uniform(0.0, 30.0, 2) / 10.0)
        var = 10.0 ** (rng.uniform(-20.0, 20.0, 5) / 10.0)
        yield validate_config(SystemConfig(
            n_relays=n, p_source=float(powers[0]), e_relay_budget=float(powers[1]),
            rate=float(rng.uniform(0.5, 8.0)), var_sd=float(var[0]), var_sr=float(var[1]),
            var_rd=float(var[2]), var_rsi=float(var[3]), var_iri=float(var[4]),
            cp_len=max(10, n), sync_mode=(SYNCHRONOUS, ASYNCHRONOUS)[rng.integers(2)],
            relay_power_policy=(SHARED_BUDGET, FIXED_PER_RELAY)[rng.integers(2)]))


def test_total_outage_window_matches_every_size_sum():
    # the window leaves out weights under 2^-54 of the total; under the shared
    # budget p_cond_sync is evaluated once, while the every-size sum sees
    # per-size values that differ from it by rounding in (E_R/L)*L
    for cfg in bench_range_configs(2026, 600):
        p_sd, p_sr = link_outages(cfg)
        sync = cfg.sync_mode == SYNCHRONOUS
        cond = p_cond_sync if sync else p_cond_async
        want = combine_every_size(p_sd, p_sr,
                                  [cond(size, cfg) for size in range(1, cfg.n_relays + 1)])
        tol = 1e-11 if sync and cfg.relay_power_policy == SHARED_BUDGET else 2e-13
        assert math.isclose(total_outage(cfg), want, rel_tol=tol), cfg


def test_order_one_forms_are_exact():
    for x in (0.0, 5e-324, 1e-300, 1e-12, 0.3, 1.0, 7.5, 700.0, 1e300):
        assert regularized_lower_gamma_int(1, x) == -math.expm1(-x)
    for x in (-1e300, -700.0, -3.0, -1.0, -1e-12, 5e-324, 1e-12, 0.5, 0.999):
        assert kummer_j(1, x) == math.expm1(x) / x
    assert kummer_j(1, 0.0) == 1.0 and kummer_j(1, -0.0) == 1.0


@pytest.mark.parametrize("n", (1, 2, 3, 5, 10, 32, 64))
def test_kummer_j_matches_mpmath(n):
    # J_n(x) = 1F1(1; n+1; x) from x = -3n up to just below n, through the
    # series (x > -n) and the top-down polynomial (x <= -n) alike
    xs = np.linspace(-3.0 * n, n, 121)[:-1].tolist()
    xs += [-n - 1e-9, float(-n), -n + 1e-9, -1e-12, 0.0, 1e-12, n - 1e-9]
    assert sum(x <= -n for x in xs) > 30 and sum(x > -n for x in xs) > 30
    for x in xs:
        with mpmath.workdps(40):
            want = mpmath.hyp1f1(1, n + 1, mpmath.mpf(x))
        got = kummer_j(n, x)
        assert float(abs(got - want) / want) <= 1e-14, (n, x, got)


def series_grid(seed):
    # (n, x) over every branch of kummer_j and _top_down_sum: x = 0, 0 < x < n,
    # -n < x < 0 and x <= -n (J_n); x >= n and x <= -n (the top-down sum)
    rng = np.random.default_rng(seed)
    for n in range(1, 65):
        edges = [0.0, -0.0, 5e-324, 1e-12, n - 1e-9, -1e-12, -n + 1e-9, float(-n),
                 -n - 1e-9, float(n), n + 1e-9, 1e300, -1e300]
        spread = n * np.concatenate([rng.uniform(0.0, 1.0, 12), rng.uniform(-1.0, 0.0, 12),
                                     -np.geomspace(1.0, 1e4, 12) * rng.uniform(1.0, 1.5, 12),
                                     np.geomspace(1.0, 1e4, 12) * rng.uniform(1.0, 1.5, 12)])
        for x in edges + spread.tolist():
            yield n, x


def test_series_match_their_loop_forms_bit_for_bit():
    # the sign-split loops perform the one-loop forms' operations in the same
    # order and stop at the same term, so every double is the same
    branches = dict.fromkeys(("x = 0", "0 < x < n", "-n < x < 0", "x <= -n", "x >= n"), 0)
    for n, x in series_grid(31):
        if x < n:
            assert analytic.kummer_j(n, x).hex() == kummer_j_loop(n, x).hex(), (n, x)
        if abs(x) >= n:
            assert analytic._top_down_sum(n, x).hex() == top_down_sum_loop(n, x).hex(), (n, x)
        branches["x = 0" if x == 0.0 else "0 < x < n" if 0.0 < x < n
                 else "-n < x < 0" if -n < x < 0.0 else "x <= -n" if x <= -n else "x >= n"] += 1
    assert min(branches.values()) >= 2 * 64, branches


def preset_points():
    # every point of every preset, in both combining modes
    for name in PRESET_NAMES:
        for _, spec in build_preset(name).variants:
            for value in spec.values:
                cfg = apply_param(spec.base, spec.param, value)
                for mode in (ASYNCHRONOUS, SYNCHRONOUS):
                    yield validate_config(replace(cfg, sync_mode=mode, delays=None))


def test_total_outage_matches_loop_forms_bit_for_bit(monkeypatch):
    cfgs = [*preset_points(), *bench_range_configs(31337, 1000)]
    assert len(cfgs) == 64 + 1000
    got = [total_outage(cfg) for cfg in cfgs]
    monkeypatch.setattr(analytic, "kummer_j", kummer_j_loop)
    monkeypatch.setattr(analytic, "_top_down_sum", top_down_sum_loop)
    for cfg, p in zip(cfgs, got):
        assert p.hex() == total_outage(cfg).hex(), cfg


@pytest.mark.parametrize("mode", [ASYNCHRONOUS, SYNCHRONOUS])
@pytest.mark.parametrize("policy", [SHARED_BUDGET, FIXED_PER_RELAY])
def test_total_outage_when_no_relay_decodes(mode, policy):
    # var_sr = 0 makes p_sr = 1: only the empty decode set has weight
    cfg = fig_config(var_sr=0.0, sync_mode=mode, relay_power_policy=policy)
    p_sd, p_sr = link_outages(cfg)
    assert p_sr == 1.0
    assert total_outage(cfg) == p_sd


def count_p_cond_calls(monkeypatch):
    sizes = []
    for name in ("p_cond_async", "p_cond_sync"):
        inner = getattr(analytic, name)
        monkeypatch.setattr(analytic, name, lambda size, cfg, inner=inner:
                            sizes.append(size) or inner(size, cfg))
    return sizes


def test_total_outage_sync_shared_evaluates_once(monkeypatch):
    sizes = count_p_cond_calls(monkeypatch)
    total_outage(fig_config(n_relays=10, sync_mode=SYNCHRONOUS))  # a fig3 point
    assert sizes == [1]


def test_total_outage_skips_negligible_sizes(monkeypatch):
    # p_sr ~ 0.987: the binomial mass sits on the smallest decode sets
    cfg = validate_config(SystemConfig(
        n_relays=64, p_source=10, e_relay_budget=10, rate=2, var_sr=0.1, var_rd=10,
        var_rsi=1, cp_len=64))
    sizes = count_p_cond_calls(monkeypatch)
    assert total_outage(cfg) == pytest.approx(0.14118958715546925, rel=1e-14)
    assert len(sizes) < 64 and len(set(sizes)) == len(sizes)


@pytest.mark.parametrize("n", [1030, 5000])
@pytest.mark.parametrize("mode", [ASYNCHRONOUS, SYNCHRONOUS])
@pytest.mark.parametrize("policy", [SHARED_BUDGET, FIXED_PER_RELAY])
def test_total_outage_thousands_of_relays(n, mode, policy):
    # C(N, N/2) exceeds the float range from N = 1030 on
    cfg = validate_config(fig_config(n_relays=n, var_rd=0.1, block_len=4 * n, cp_len=n,
                                     sync_mode=mode, relay_power_policy=policy))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = total_outage(cfg)
    assert math.isfinite(p) and 0.0 <= p <= 1.0


def test_total_outage_monotone_in_power_and_rate():
    powers = [10 ** (x / 10) for x in range(-2, 12, 2)]
    vals = [total_outage(fig_config(p_source=p, e_relay_budget=p)) for p in powers]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))
    rates = [0.5, 1.0, 2.0, 3.0, 4.0]
    vals_r = [total_outage(fig_config(rate=r)) for r in rates]
    assert all(b >= a for a, b in zip(vals_r, vals_r[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals + vals_r)


def test_total_outage_sync_mode():
    cfg = fig_config(sync_mode=SYNCHRONOUS, delays=None)
    sync = total_outage(cfg)
    async_p = total_outage(fig_config())
    assert sync > async_p
    # the mode comes from the config alone; delays do not enter the closed form
    assert total_outage(replace(fig_config(), sync_mode=SYNCHRONOUS, delays=None)) == sync


def test_total_outage_where_partial_sums_overflow():
    # every relay decodes (p_sr ~ 0) but both second-hop links are dead, so
    # the outage is ~1; the Erlang partial sum x^m/m! overflows at x ~ 2e8
    cfg = validate_config(SystemConfig(
        n_relays=64, p_source=1.0, e_relay_budget=1.0, rate=2.0, var_sd=1e-6,
        var_sr=1e6, var_rd=1e-6, cp_len=64))
    assert link_outages(cfg)[0] == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert 1.0 - 1e-12 < total_outage(cfg) <= 1.0


def test_clamp_warns_on_nan():
    with pytest.warns(RuntimeWarning, match="left \\[0, 1\\]"):
        assert _clamped(float("nan"), "combined outage") == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _clamped(1.0 + 1e-12, "total outage") == 1.0


def lower_gamma(n, x):
    # unregularized gamma(n, x) = (n-1)! P(n, x), the form the oracles give
    return math.factorial(n - 1) * regularized_lower_gamma_int(n, x)


def gamma_quad(n, x):
    # independent oracle: adaptive quadrature of the defining integral
    val, err = quad(lambda t: t ** (n - 1) * math.exp(-t), 0.0, x,
                    epsabs=1e-13, epsrel=1e-13)
    return val


def test_lower_gamma_frozen_values():
    assert_allclose(lower_gamma(1, 1.0),
                    0.63212055882855768, rtol=1e-14)
    assert lower_gamma(3, 0.0) == 0.0
    assert_allclose(lower_gamma(3, 2.0),
                    0.64664716763387308, rtol=1e-14)


def test_lower_gamma_matches_quadrature():
    xs = np.linspace(0.0, 40.0, 46)
    for n in range(1, 13):
        for x in xs:
            want = gamma_quad(n, float(x))
            got = lower_gamma(n, float(x))
            assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-13), (n, x)


def test_lower_gamma_saturates_where_partial_sum_overflows():
    # x^63/63! overflows beyond x ~ 2e6, where P(64, x) is 1 to double precision
    for x in (2e6, 1e7, 1e300):
        assert regularized_lower_gamma_int(64, x) == 1.0


@given(st.integers(1, 64), st.floats(0.0, 1e8))
@example(52, 2.87574887791883e-05)
@example(64, 1e-6)
@example(64, 5e-324)
@example(64, 3e6)
def test_lower_gamma_in_unit_interval(n, x):
    p = regularized_lower_gamma_int(n, x)
    assert math.isfinite(p) and 0.0 <= p <= 1.0


def test_lower_gamma_monotone_and_saturates():
    for n in (1, 2, 5, 12):
        xs = np.linspace(0.0, 30.0, 301)
        vals = [lower_gamma(n, float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert math.isclose(lower_gamma(n, 50.0 * n),
                            math.factorial(n - 1), rel_tol=1e-10)


def test_regularized_variant_scaling():
    # P(n+1, x) = P(n, x) - x^n e^{-x} / n!, across both evaluation branches
    for n in (1, 4, 9):
        for x in (0.3, 7.5):
            want = (regularized_lower_gamma_int(n, x)
                    - x ** n * math.exp(-x) / math.factorial(n))
            assert_allclose(regularized_lower_gamma_int(n + 1, x), want, rtol=1e-13)


def test_erlang_cdf_values():
    # the CDF of k summed exponentials of mean scale is P(k, x/scale)
    assert_allclose(regularized_lower_gamma_int(1, 2.0 / 2.0), 0.63212055882855768,
                    rtol=1e-14)
    assert regularized_lower_gamma_int(2, 0.0 / 1.0) == 0.0
    assert_allclose(regularized_lower_gamma_int(3, 2.0 / 1.0), 0.32332358381693654,
                    rtol=1e-14)


def test_erlang_cdf_against_summed_exponentials():
    # empirical CDF of k summed exponentials vs the closed form (KS distance)
    k, scale, n = 3, 2.0, 1_000_000
    rng = np.random.default_rng(2024)
    samples = rng.exponential(scale, size=(n, k)).sum(axis=1)
    samples.sort()
    model = np.array([regularized_lower_gamma_int(k, x / scale) for x in samples.tolist()])
    empirical_hi = np.arange(1, n + 1) / n
    empirical_lo = np.arange(0, n) / n
    ks = max(np.abs(empirical_hi - model).max(),
             np.abs(empirical_lo - model).max())
    assert ks < 0.002


@pytest.mark.parametrize("n", (1, 2, 3, 5, 10, 16, 32, 64))
def test_lower_gamma_from_n_on_matches_mpmath(n):
    # the complement branch, whose top-down sum stops once its tail is negligible
    xs = [float(n), math.nextafter(n, math.inf), n + 0.5]
    xs += (n * np.geomspace(1.01, 1e4, 60)).tolist() + [2e6]
    for x in xs:
        with mpmath.workdps(40):
            want = mpmath.gammainc(n, 0, mpmath.mpf(x), regularized=True)
        got = regularized_lower_gamma_int(n, x)
        assert float(abs(got - want) / want) <= 1e-13, (n, x, got)


def test_early_stopped_sums_match_every_term_summed_exactly():
    # the early stop leaves out at most 2**-54 of a sum, well inside the
    # rounding of the terms it adds (at most 6 units of 2**-53 on this grid);
    # the terms are positive (x > 0), or of falling size and alternating sign
    # (x < 0)
    bound = 16 * 2.0 ** -53
    for n in (1, 2, 5, 17, 64):
        for x in (n, n + 1e-9, 1.5 * n, 10.0 * n, 1e4 * n, 1e300):
            for sign in (1, -1):
                with mpmath.workdps(60):
                    want = mpmath.fsum(mpmath.ff(n, i) * mpmath.mpf(sign * x) ** -i
                                       for i in range(1, n + 1))
                got = _top_down_sum(n, sign * x)
                assert float(abs(got - want) / abs(want)) <= bound, (n, sign * x)
            v = 1.75 * x
            with mpmath.workdps(60):
                want = mpmath.fsum(mpmath.ff(n, i) * (mpmath.mpf(x) ** -i - mpmath.mpf(v) ** -i)
                                   for i in range(1, n + 1))
            got = _gap_sum(n, x, v, (v - x) / v)
            assert float(abs(got - want) / want) <= bound, (n, x)
