"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines; statistical checks use fixed seeds so reruns are exact.
"""

import math
import time
from dataclasses import replace
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from fdrelay.analytic import combine_outage, regularized_lower_gamma_int, total_outage
from fdrelay.channel import draw_realization
from fdrelay.cli import build_preset, main
from fdrelay.fde import approx_rate, exact_rate, lambda_spectrum
from fdrelay.mc import estimate_outage, forwarding, trial_stream
from fdrelay.model import MI_EXACT, SystemConfig, apply_param, eta
from oracles import batch_rows, combine_by_enumeration

TRIALS = 1_000_000
SEED = 0
IRI_CHECK = (-10.0, 0.0, 10.0)
IRI_ALL = (-10.0, -5.0, 0.0, 5.0, 10.0)
SR_ALL = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


@lru_cache(maxsize=None)
def preset_base(name: str, n=None) -> SystemConfig:
    want = "" if n is None else f"n{n}"
    for label, spec in build_preset(name).variants:
        if label == want:
            return spec.base
    raise KeyError((name, n))


@lru_cache(maxsize=None)
def point_config(name, n, param, value, mi=None) -> SystemConfig:
    cfg = apply_param(preset_base(name, n), param, value)
    return cfg if mi is None else replace(cfg, mi_mode=mi)


@lru_cache(maxsize=None)
def mc_point(name, n, param, value, scheme, trials=TRIALS, mi=None):
    return estimate_outage(point_config(name, n, param, value, mi),
                           scheme, trials, SEED)


@lru_cache(maxsize=None)
def analytic_point(name, n, param, value) -> float:
    return total_outage(point_config(name, n, param, value))


def _binom_sigma(p: float, trials: int) -> float:
    return math.sqrt(p * (1.0 - p) / trials)


def _null_z(est, p: float) -> float:
    stderr = _binom_sigma(p, est.trials)
    return (est.p_hat - p) / stderr if stderr > 0 else math.inf


def _combined_stderr(a, b) -> float:
    return math.sqrt(a.stderr ** 2 + b.stderr ** 2)


def test_criterion_1_special_function_oracle():
    t0 = time.perf_counter()
    worst, n_pts = 0.0, 0
    for n in range(1, 13):
        def integrand(t, n=n):
            return t ** (n - 1) * math.exp(-t)
        for x in np.linspace(0.0, 40.0, 45):
            want, _ = quad(integrand, 0.0, float(x),
                           epsabs=1e-300, epsrel=1e-12, limit=200)
            got = math.factorial(n - 1) * regularized_lower_gamma_int(n, float(x))
            worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
            n_pts += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and n_pts >= 500 and elapsed < 1.0
    detail = (f"incomplete-gamma vs quadrature on {n_pts} points: "
              f"worst rel err {worst:.2e} (limit 1e-10), {elapsed:.2f}s")
    _report(1, ok, detail)
    assert ok, detail


def test_criterion_2_circulant_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_eig, worst_par = 0.0, 0.0
    for trial in range(200):
        t_len = int(rng.choice([4, 8, 16]))
        n = int(rng.integers(1, min(5, t_len)))
        delays = tuple(sorted(
            rng.choice(range(1, t_len), size=n, replace=False).tolist()))
        cfg = SystemConfig(n_relays=n, p_source=float(rng.uniform(0.1, 5.0)),
                           e_relay_budget=float(rng.uniform(0.1, 5.0)),
                           rate=1.0, block_len=t_len, cp_len=t_len - 1,
                           delays=delays)
        real = batch_rows(draw_realization(cfg, trial_stream(trial, 0, n), size=1), 0)
        p_r = cfg.e_relay_budget
        spec = lambda_spectrum(real, np.ones(n, bool), cfg, p_r)

        taps = np.zeros(t_len, complex)
        taps[0] = np.sqrt(cfg.p_source) * real.h_sd
        for k, d in enumerate(cfg.delays):
            taps[d] += np.sqrt(p_r) * real.h_rd[k]
        circulant = np.stack([np.roll(taps, i) for i in range(t_len)], axis=1)
        eig = np.sort_complex(np.linalg.eigvals(circulant))
        worst_eig = max(worst_eig, float(
            np.max(np.abs(np.sort_complex(spec.lam) - eig))))

        total = float(spec.gamma.sum())
        expected = t_len * (cfg.p_source * abs(real.h_sd) ** 2
                            + p_r * float(np.sum(np.abs(real.h_rd) ** 2)))
        worst_par = max(worst_par, abs(total - expected) / expected)
    elapsed = time.perf_counter() - t0
    ok = worst_eig <= 1e-12 and worst_par <= 1e-9 and elapsed < 5.0
    detail = (f"200 realizations: eigenvalue mismatch {worst_eig:.2e} "
              f"(limit 1e-12), Parseval rel {worst_par:.2e} (limit 1e-9), "
              f"{elapsed:.2f}s")
    _report(2, ok, detail)
    assert ok, detail


def test_criterion_3_combination_law_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 11))
        p_sd = float(rng.uniform(0, 1))
        p_sr = float(rng.uniform(0, 1))
        cond = rng.uniform(0, 1, size=n).tolist()
        a = combine_outage(p_sd, p_sr, n, lambda size: cond[size - 1])
        b = combine_by_enumeration(p_sd, p_sr, cond)
        worst = max(worst, abs(a - b))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    detail = (f"binomial vs subset enumeration over 100 random configs: "
              f"worst abs diff {worst:.2e} (limit 1e-12), {elapsed:.2f}s")
    _report(3, ok, detail)
    assert ok, detail


def test_criterion_4_async_closed_form_vs_mc():
    t0 = time.perf_counter()
    worst_z, fails = 0.0, []
    for n in (5, 10):
        for iri in IRI_CHECK:
            p = analytic_point("fig2", n, "var_iri_db", iri)
            est = mc_point("fig2", n, "var_iri_db", iri, "multi")
            z = _null_z(est, p)
            worst_z = max(worst_z, abs(z))
            if abs(z) > 3:
                fails.append(f"N{n}@{iri:+.0f}dB z={z:+.2f}")
    elapsed = time.perf_counter() - t0
    ok = not fails and elapsed < 120.0
    detail = (f"6 points x 1e6 trials, async approximate MI: worst |z| "
              f"{worst_z:.2f} (limit 3), {elapsed:.1f}s"
              + (f"; outliers: {', '.join(fails)}" if fails else ""))
    _report(4, ok, detail)
    assert ok, detail


def test_criterion_5_sync_closed_form_and_ordering():
    worst_z, min_margin, fails = 0.0, math.inf, []
    for n in (5, 10):
        for iri in IRI_CHECK:
            p = analytic_point("fig3", n, "var_iri_db", iri)
            est = mc_point("fig3", n, "var_iri_db", iri, "multi")
            z = _null_z(est, p)
            worst_z = max(worst_z, abs(z))
            if abs(z) > 3:
                fails.append(f"sync N{n}@{iri:+.0f}dB z={z:+.2f}")
            if iri <= 0:
                a = mc_point("fig2", n, "var_iri_db", iri, "multi")
                margin = (est.p_hat - a.p_hat) / _combined_stderr(est, a)
                min_margin = min(min_margin, margin)
                if margin < 3:
                    fails.append(f"ordering N{n}@{iri:+.0f}dB margin={margin:.1f}")
    ok = not fails
    detail = (f"6 points x 1e6 trials: worst |z| {worst_z:.2f} (limit 3); "
              f"sync>=async margin >= {min_margin:.0f} sigma (limit 3)"
              + (f"; failures: {', '.join(fails)}" if fails else ""))
    _report(5, ok, detail)
    assert ok, detail


def _rate_pairs(cfg, n_samples: int, seed: int):
    """Approximate and exact multi-scheme block rates on the same draws.

    Returns (approx, exact, n_forwarding), one entry per draw.
    """
    rng = np.random.default_rng(seed)
    real = draw_realization(cfg, rng, size=n_samples)
    mask, _, sinrs = forwarding(real, cfg, "multi")
    approx = approx_rate(sinrs, mask, cfg)
    exact = exact_rate(lambda_spectrum(real, mask, cfg, sinrs.relay_tx_power), cfg)
    return approx, exact, mask.sum(axis=-1)


EXACT_TRIALS = 300_000
RATE_RTOL = 1e-12


def test_criterion_6_exact_mi_tracks_closed_form():
    # The closed form models the aggregate-SINR rate.  The exact rate is
    # T/(T+cp) * mean_i log2(1+gamma_i), and mean_i gamma_i is the aggregate
    # SINR (Parseval), so by Jensen the exact rate never exceeds the
    # approximation, with equality when no relay forwards (flat spectrum).
    # The closed form therefore bounds the exact-MI outage from below, and
    # the exact-MI curve inherits the orderings the closed form resolves.
    lines, fails = [], []
    closed, exact = {}, {}
    for n in (5, 10):
        for iri in IRI_CHECK:
            tag = f"N{n}@{iri:+.0f}dB"
            p = closed[n, iri] = analytic_point("fig2", n, "var_iri_db", iri)
            est = exact[n, iri] = mc_point("fig2", n, "var_iri_db", iri,
                                           "multi", trials=EXACT_TRIALS,
                                           mi=MI_EXACT)
            approx = mc_point("fig2", n, "var_iri_db", iri, "multi",
                              trials=EXACT_TRIALS)
            rel = (est.p_hat - p) / p
            below = -_null_z(est, p)
            a_rate, e_rate, n_fwd = _rate_pairs(
                point_config("fig2", n, "var_iri_db", iri), 10_000, 123)
            keep = a_rate > 0
            gap = float(np.median((a_rate[keep] - e_rate[keep]) / a_rate[keep]))
            lines.append(f"{tag} rel={rel * 100:+.0f}% gap={gap * 100:.1f}%")
            if below > 3:
                fails.append(f"{tag} below closed form by {below:.1f} sigma")
            if est.outage_count < approx.outage_count:
                fails.append(f"{tag} exact-MI outages {est.outage_count} < "
                             f"approx-MI outages {approx.outage_count}")
            tol = RATE_RTOL * a_rate
            above = np.count_nonzero(e_rate - a_rate > tol)
            if above:
                fails.append(f"{tag} exact rate above approx on {above} draws")
            idle = n_fwd == 0
            off = np.count_nonzero(np.abs(e_rate - a_rate)[idle] > tol[idle])
            if off:
                fails.append(f"{tag} exact != approx on {off} of "
                             f"{np.count_nonzero(idle)} direct-only draws")

    pairs = [((n, lo), (n, hi)) for n in (5, 10)
             for lo, hi in zip(IRI_CHECK, IRI_CHECK[1:])]
    pairs += [((5, iri), (10, iri)) for iri in IRI_CHECK]
    n_checked = 0
    for a, b in pairs:
        diff = closed[b] - closed[a]
        resolved = 5 * math.hypot(_binom_sigma(closed[a], EXACT_TRIALS),
                                  _binom_sigma(closed[b], EXACT_TRIALS))
        if abs(diff) < resolved:
            continue
        n_checked += 1
        ea, eb = exact[a], exact[b]
        margin = (math.copysign(1.0, diff) * (eb.p_hat - ea.p_hat)
                  / max(_combined_stderr(ea, eb), 1e-300))
        if margin < 3:
            fails.append(f"N{a[0]}@{a[1]:+.0f}dB vs N{b[0]}@{b[1]:+.0f}dB "
                         f"ordering margin {margin:.1f} sigma")
    ok = not fails
    detail = ("exact-MI outage vs closed form (3e5 trials) and median "
              "exact-vs-approx rate gap (1e4 draws): " + "; ".join(lines)
              + f"; {n_checked}/{len(pairs)} closed-form orderings resolved"
              + (f"; failures: {'; '.join(fails)}" if fails else ""))
    _report(6, ok, detail)
    assert ok, detail


def test_criterion_7_interference_regime_orderings():
    multi_hi = mc_point("fig2", 10, "var_iri_db", 10.0, "multi")
    os_hi = mc_point("fig2", 10, "var_iri_db", 10.0, "os")
    multi_lo = mc_point("fig2", 10, "var_iri_db", -10.0, "multi")
    os_lo = mc_point("fig2", 10, "var_iri_db", -10.0, "os")
    ps_lo = mc_point("fig2", 10, "var_iri_db", -10.0, "ps")

    z_os = (multi_hi.p_hat - os_hi.p_hat) / _combined_stderr(multi_hi, os_hi)
    z_ps = (ps_lo.p_hat - multi_lo.p_hat) / _combined_stderr(multi_lo, ps_lo)
    slack = multi_lo.p_hat - os_lo.p_hat - 3 * _combined_stderr(multi_lo, os_lo)
    ok = z_os >= 3 and z_ps >= 3 and slack <= 0
    detail = (f"N=10, 1e6 trials: high-interference os<multi by {z_os:.1f} "
              f"sigma; low-interference multi<ps by {z_ps:.1f} sigma, "
              f"multi-os slack {slack:+.2e} (<= 0)")
    _report(7, ok, detail)
    assert ok, detail


def _os_first_hop_floor(cfg) -> float:
    """Outage floor p_SD * (1 - q_os)^N of the os baseline.

    os tests decoding with the selected relay transmitting at the full budget
    E_R, so its input sees E_R*var_rsi + 1 and each relay decodes with
    probability q_os = exp(-eta (E_R var_rsi + 1) / (P_S var_sr)).  When no
    relay decodes only the direct link is left, which fails with p_SD.
    """
    e = eta(cfg)
    p_sd = -math.expm1(-e / (cfg.p_source * cfg.var_sd))
    q_os = math.exp(-e * (cfg.e_relay_budget * cfg.var_rsi + 1.0)
                    / (cfg.p_source * cfg.var_sr))
    return p_sd * (1.0 - q_os) ** cfg.n_relays


SWEEP_TRIALS = 200_000


def test_criterion_8_first_hop_sweep_orderings():
    # Residual self-interference grows with a relay's own power: os/ps decode
    # against E_R*var_rsi + 1, multi against (E_R/N)(var_rsi + var_iri) + 1.
    # So multi follows its closed form, os cannot drop below its first-hop
    # floor, and multi beats os wherever that floor clears the closed form.
    fails = []
    est = {}
    for name in ("fig4", "fig5"):
        for sr in SR_ALL:
            for scheme in ("multi", "os", "ps"):
                est[(name, sr, scheme)] = mc_point(
                    name, None, "var_sr_db", sr, scheme, trials=SWEEP_TRIALS)

    worst_z, n_resolved = 0.0, 0
    for name in ("fig4", "fig5"):
        for sr in SR_ALL:
            tag = f"{name}@{sr:.0f}dB"
            m, o = est[(name, sr, "multi")], est[(name, sr, "os")]
            p = analytic_point(name, None, "var_sr_db", sr)
            floor = _os_first_hop_floor(point_config(name, None, "var_sr_db", sr))
            z = _null_z(m, p)
            worst_z = max(worst_z, abs(z))
            if abs(z) > 3:
                fails.append(f"{tag} multi off closed form by {z:+.1f} sigma")
            if o.p_hat < floor - 3 * _binom_sigma(floor, SWEEP_TRIALS):
                fails.append(f"{tag} os={o.p_hat:.3g} below its first-hop "
                             f"floor {floor:.3g}")
            if m.p_hat > o.p_hat + 3 * _combined_stderr(m, o):
                fails.append(f"{tag} multi={m.p_hat:.3g} above os={o.p_hat:.3g}")
            resolved = 5 * math.hypot(_binom_sigma(floor, SWEEP_TRIALS),
                                      _binom_sigma(p, SWEEP_TRIALS))
            if floor - p >= resolved:
                n_resolved += 1
                if o.p_hat - m.p_hat < 3 * _combined_stderr(m, o):
                    fails.append(f"{tag} multi={m.p_hat:.3g} not below "
                                 f"os={o.p_hat:.3g}")
    for scheme in ("multi", "os"):
        a, b = est[("fig4", 10.0, scheme)], est[("fig4", 10.0, "ps")]
        if (b.p_hat - a.p_hat) / max(_combined_stderr(a, b), 1e-300) < 3:
            fails.append(f"fig4@10dB {scheme} not below ps")
    for sr in SR_ALL:
        m, p = est[("fig5", sr, "multi")], est[("fig5", sr, "ps")]
        if (p.p_hat - m.p_hat) / max(_combined_stderr(m, p), 1e-300) < 3:
            fails.append(f"fig5@{sr:.0f}dB multi !< ps")
    ok = not fails
    detail = (f"2e5 trials/point: multi vs closed form worst |z| "
              f"{worst_z:.2f} (limit 3); os >= first-hop floor and "
              f"multi <= os at {len(SR_ALL) * 2} points; multi < os at the "
              f"{n_resolved} points the floor resolves"
              + (f"; failures: {'; '.join(fails)}" if fails else "; all orderings hold"))
    _report(8, ok, detail)
    assert ok, detail


def test_criterion_9_more_relays_help():
    min_margin, fails = math.inf, []
    for iri in IRI_ALL:
        e5 = mc_point("fig2", 5, "var_iri_db", iri, "multi")
        e10 = mc_point("fig2", 10, "var_iri_db", iri, "multi")
        if e10.p_hat >= e5.p_hat:
            fails.append(f"IRI{iri:+.0f}dB N10={e10.p_hat:.3g} !< N5={e5.p_hat:.3g}")
        if e5.p_hat > 1e-4 and e10.p_hat > 1e-4:
            margin = (e5.p_hat - e10.p_hat) / _combined_stderr(e5, e10)
            min_margin = min(min_margin, margin)
            if margin < 3:
                fails.append(f"IRI{iri:+.0f}dB margin {margin:.1f} sigma")
    ok = not fails
    detail = (f"N=10 below N=5 at all {len(IRI_ALL)} sweep points, 1e6 "
              f"trials; strict margin >= {min_margin:.0f} sigma where both "
              f"exceed 1e-4"
              + (f"; failures: {', '.join(fails)}" if fails else ""))
    _report(9, ok, detail)
    assert ok, detail


def test_criterion_10_parallel_determinism(tmp_path):
    args = ["--preset", "fig2", "--trials", "10000", "--seed", "0"]
    out1, out8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
    assert main(args + ["--workers", "8", "--out", str(out8)]) == 0
    same = all(
        (tmp_path / f"w1_{label}.csv").read_bytes()
        == (tmp_path / f"w8_{label}.csv").read_bytes()
        for label in ("n5", "n10"))
    detail = ("interference preset at 1e4 trials: 1-worker and 8-worker "
              "CSV outputs byte-identical" if same else
              "worker count changed the CSV output")
    _report(10, same, detail)
    assert same, detail
