"""One benchmark workload, set up, measured and checked in its own process.

run.py starts this script once per set-up sample and once for the measured
run; it prints a single JSON object on its last stdout line.  The measured
part drives fdrelay only through cli.build_preset, cli.run_sweep (workers=1),
cli.emit, validate_config and total_outage, so deleting library internals
does not break the timed metrics.  The output checks use a few more public
names (apply_param, estimate_outage and the channel/fde layer calls).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import signal
import sys
import time
import traceback
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

import fdrelay
from fdrelay import cli
from layers import install, layer_metrics
from reference import host_speed
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build"

# the process caps its own address space so a runaway evaluation ends in a
# MemoryError instead of pressing on the rest of the machine
ADDRESS_SPACE_CAP = 2 << 30

# CPU-time deadline per closed-form evaluation; the slowest evaluation that
# terminates takes about 5 ms on the reference machine, and
# regularized_lower_gamma_int can loop forever once its term underflows
EVAL_DEADLINE_S = 0.025

# significance of each exact binomial test of MC against the closed form;
# a run makes about a hundred of them
ALPHA = 1e-6

# (normal, tiny) sizes; tiny exists for the smoke test only
SIZES = {
    "approx_trials": (32768, 256),
    "exact_trials": (2048, 32),
    "block": (2000, 40),
}

CLOSED_FORM_MAX_RELAYS = 64

# closed-form evaluations per second at nominal host speed; it sizes the
# seeded grid so that one pass over it takes about --seconds
CLOSED_FORM_NOMINAL_EVALS_PER_S = 2200


class EvalTimeout(Exception):
    """Raised from the SIGPROF handler when an evaluation overruns."""


def _on_deadline(signum, frame):
    raise EvalTimeout()


def unit_seed(seed: int, unit: int) -> int:
    return int(np.random.SeedSequence([seed, unit]).generate_state(1, np.uint64)[0])


def binom_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """P(X <= k) and P(X >= k) for X ~ Binomial(n, p), summed exactly."""
    if p <= 0.0:
        return 1.0, float(k == 0)
    if p >= 1.0:
        return float(k == n), 1.0
    j = np.arange(1, n + 1)
    logpmf = np.empty(n + 1)
    logpmf[0] = n * math.log1p(-p)
    logpmf[1:] = logpmf[0] + np.cumsum(np.log((n - j + 1) / j)) + j * math.log(p / (1 - p))
    pmf = np.exp(logpmf)
    return float(min(1.0, pmf[:k + 1].sum())), float(min(1.0, pmf[k:].sum()))


class Unit:
    """Result of one unit of work: a whole sweep, or one block of evaluations."""

    def __init__(self, work, wall, latencies, errors, data=None):
        self.work = work            # trials completed, or evaluations attempted
        self.wall = wall            # seconds
        self.latencies = np.asarray(latencies)  # seconds per operation
        self.errors = errors        # failures of this unit, by kind
        self.data = data
        self.speed = None           # host speed just before the unit (reference.py)


class Workload:
    """Failure and clamp-warning accounting shared by both kinds of workload."""

    ERRORS = ("overflow", "timeout", "other", "bad_value")

    def __init__(self):
        self.errors = dict.fromkeys(self.ERRORS, 0)
        self.clamp_warnings = 0
        self.first_error = None

    def count_clamps(self):
        """Count the closed form's clamp warnings instead of printing them."""
        warnings.simplefilter("always", RuntimeWarning)
        shown = warnings.showwarning

        def show(message, category, *rest, **kw):
            if issubclass(category, RuntimeWarning) and "clamping" in str(message):
                self.clamp_warnings += 1
            else:
                shown(message, category, *rest, **kw)

        warnings.showwarning = show

    def record_error(self, exc: BaseException) -> None:
        if isinstance(exc, EvalTimeout):
            self.errors["timeout"] += 1
        elif isinstance(exc, OverflowError):
            self.errors["overflow"] += 1
        else:
            self.errors["other"] += 1
            self.first_error = self.first_error or traceback.format_exc()

    def snapshot(self) -> dict:
        return {**self.errors, "clamp_warnings": self.clamp_warnings}

    def since(self, before: dict) -> dict:
        return {k: v - before[k] for k, v in self.snapshot().items()}


class SweepWorkload(Workload):
    """A preset sweep run point by point through cli.run_sweep, emitted per variant."""

    work_unit = "trials"

    def __init__(self, name, preset, mi_mode, trials, seed):
        super().__init__()
        self.name, self.preset, self.mi_mode = name, preset, mi_mode
        self.trials, self.seed = trials, seed

    def grid_units(self, seconds, trace):
        return None     # sweeps repeat until the window is spent

    def setup(self):
        self.count_clamps()
        self.variants = []
        for label, spec in cli.build_preset(self.preset).variants:
            base = fdrelay.validate_config(replace(spec.base, mi_mode=self.mi_mode))
            spec = replace(spec, base=base, trials=self.trials)
            points = [replace(spec, values=(v,), schemes=(s,))
                      for v in spec.values for s in spec.schemes]
            self.variants.append((label or "curve", spec, points))
        # one warm-up point per (relay count, scheme) shape
        warm = unit_seed(self.seed, 2**31)
        for _, spec, _ in self.variants:
            for scheme in spec.schemes:
                cli.run_sweep(replace(spec, values=spec.values[:1], schemes=(scheme,),
                                      seed=warm), workers=1)

    def unit(self, i: int) -> Unit:
        seed = unit_seed(self.seed, i)
        latencies, done, data = [], 0, []
        before = self.snapshot()
        t0 = time.perf_counter()
        for label, spec, points in self.variants:
            rows = []
            for point in points:
                t = time.perf_counter()
                try:
                    rows.extend(cli.run_sweep(replace(point, seed=seed), workers=1).rows)
                    done += point.trials
                except Exception as exc:  # a failing point is counted; the sweep goes on
                    self.record_error(exc)
                latencies.append(time.perf_counter() - t)
            cli.emit(fdrelay.SweepResult(replace(spec, seed=seed), tuple(rows)), "csv",
                     OUT / f"{self.name}_{label}.csv")
            data.append((label, spec, seed, rows))
        wall = time.perf_counter() - t0
        return Unit(done, wall, latencies, self.since(before), data)

    def check(self, units) -> tuple[int, dict]:
        """Statistical and determinism checks on the sweep outputs."""
        bad_points = 0
        notes = {"binomial_tests": 0, "binomial_failures": 0, "closed_form_out_of_range": 0}
        exact = self.mi_mode == fdrelay.MI_EXACT
        for unit in units:
            for _, _, _, rows in unit.data:
                for row in rows:
                    if row.scheme != fdrelay.SCHEME_MULTI:
                        continue
                    p = row.analytic_p
                    if p is None or not (math.isfinite(p) and 0.0 <= p <= 1.0):
                        notes["closed_form_out_of_range"] += 1
                        bad_points += 1
                        continue
                    lower, upper = binom_tails(row.estimate.outage_count, row.estimate.trials, p)
                    # exact MI only loses rate against the closed form's
                    # approximate rate, so only a deficit of outages is wrong
                    pval = lower if exact else min(1.0, 2.0 * min(lower, upper))
                    notes["binomial_tests"] += 1
                    if pval < ALPHA:
                        notes["binomial_failures"] += 1
                        bad_points += 1

        # one point recomputed at another chunk size must give the same count
        _, spec, seed, rows = units[0].data[-1]
        mid = len(spec.values) // 2
        row = [r for r in rows if r.scheme == fdrelay.SCHEME_MULTI][mid]
        cfg = fdrelay.apply_param(spec.base, spec.param, spec.values[mid])
        est = fdrelay.estimate_outage(cfg, fdrelay.SCHEME_MULTI, spec.trials, seed,
                                      chunk=spec.trials // 3 + 1)
        notes["rechunk_identical"] = est.outage_count == row.estimate.outage_count
        bad_points += not notes["rechunk_identical"]

        if exact:
            bad_points += self._check_exact_below_approx(units[0], notes)
        return bad_points, notes

    def _check_exact_below_approx(self, unit, notes) -> int:
        """Exact MI never beats the aggregate-SINR rate (Jensen over bins).

        Checked on a batch of realizations through the layer calls, and on
        the sweep itself: at a shared seed every approx-MI outage must also
        be an exact-MI outage, so approx counts never exceed exact counts.
        """
        exceeded = 0
        for _, spec, seed, rows in unit.data:
            twin = replace(spec, base=replace(spec.base, mi_mode=fdrelay.MI_APPROXIMATE), seed=seed)
            approx_rows = cli.run_sweep(twin, workers=1).rows
            for r_exact, r_approx in zip(rows, approx_rows):
                exceeded += r_approx.estimate.outage_count > r_exact.estimate.outage_count
        notes["approx_count_above_exact"] = exceeded

        _, spec, seed, _ = unit.data[0]
        cfg = fdrelay.apply_param(spec.base, spec.param, spec.values[len(spec.values) // 2])
        rng = np.random.Generator(np.random.Philox(key=seed))
        n = spec.trials
        real = fdrelay.draw_realization(cfg, rng, size=n)
        mask = rng.random((n, cfg.n_relays)) < 0.5
        p_relay = cfg.e_relay_budget / np.maximum(mask.sum(axis=-1), 1)
        r_exact = fdrelay.exact_rate(fdrelay.lambda_spectrum(real, mask, cfg, p_relay), cfg)
        r_approx = fdrelay.approx_rate(fdrelay.link_sinrs(real, cfg, p_relay), mask, cfg)
        above = int(np.count_nonzero(r_exact > r_approx * (1.0 + 1e-12)))
        notes["realizations_exact_above_approx"] = above
        notes["realizations_checked"] = n
        return exceeded + (above > 0)

    def context(self) -> dict:
        return {"csv_sha256": {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(OUT.glob(f"{self.name}_*.csv"))}}


class ClosedFormWorkload(Workload):
    """Every preset point plus a seeded draw of configs, one total_outage each."""

    work_unit = "evals"

    def __init__(self, name, block, seed):
        super().__init__()
        self.name, self.block_size, self.seed = name, block, seed

    def grid_units(self, seconds, trace) -> int:
        """Blocks in the seeded grid: about --seconds of evaluations at
        nominal speed (half as many when traced, as each block runs twice).

        The grid is fixed by the seed and evaluated once, so the attempted
        and failed counts repeat exactly across runs of one seed.
        """
        evals = seconds * CLOSED_FORM_NOMINAL_EVALS_PER_S / (2 if trace else 1)
        return max(1, round(evals / self.block_size))

    def setup(self):
        signal.signal(signal.SIGPROF, _on_deadline)
        self.count_clamps()
        self.presets = [fdrelay.apply_param(spec.base, spec.param, v)
                        for name in cli.PRESET_NAMES
                        for _, spec in cli.build_preset(name).variants
                        for v in spec.values]
        self.next_block = self.draw_block(0)
        # one warm-up evaluation per (relay count, combining, power policy)
        for n in range(1, CLOSED_FORM_MAX_RELAYS + 1):
            for mode in (fdrelay.ASYNCHRONOUS, fdrelay.SYNCHRONOUS):
                for policy in (fdrelay.SHARED_BUDGET, fdrelay.FIXED_PER_RELAY):
                    self.evaluate(fdrelay.validate_config(fdrelay.SystemConfig(
                        n_relays=n, p_source=10.0, e_relay_budget=10.0, rate=2.0,
                        var_sd=1.0, var_sr=10.0, var_rd=10.0, var_rsi=1.0, var_iri=1.0,
                        cp_len=max(10, n), sync_mode=mode, relay_power_policy=policy)))
        self.errors = dict.fromkeys(self.ERRORS, 0)
        self.clamp_warnings = 0

    def draw_block(self, j: int) -> list:
        """Configs for block j: N 1..64, rate 0.5..8, P_S/E_R 0..30 dB,
        every channel variance -20..20 dB, both modes and power policies."""
        rng = np.random.default_rng([self.seed, j])
        b = self.block_size
        n = rng.integers(1, CLOSED_FORM_MAX_RELAYS + 1, b)
        rate = rng.uniform(0.5, 8.0, b)
        power = 10.0 ** (rng.uniform(0.0, 30.0, (b, 2)) / 10.0)
        var = 10.0 ** (rng.uniform(-20.0, 20.0, (b, 5)) / 10.0)
        sync = rng.random(b) < 0.5
        fixed = rng.random(b) < 0.5
        cfgs = []
        for i in range(b):
            cfgs.append(fdrelay.validate_config(fdrelay.SystemConfig(
                n_relays=int(n[i]), p_source=float(power[i, 0]),
                e_relay_budget=float(power[i, 1]), rate=float(rate[i]),
                var_sd=float(var[i, 0]), var_sr=float(var[i, 1]), var_rd=float(var[i, 2]),
                var_rsi=float(var[i, 3]), var_iri=float(var[i, 4]),
                cp_len=max(10, int(n[i])),
                sync_mode=fdrelay.SYNCHRONOUS if sync[i] else fdrelay.ASYNCHRONOUS,
                relay_power_policy=(fdrelay.FIXED_PER_RELAY if fixed[i]
                                    else fdrelay.SHARED_BUDGET))))
        return cfgs

    def evaluate(self, cfg) -> float:
        """Seconds spent on one guarded total_outage call."""
        t = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_PROF, EVAL_DEADLINE_S)
                p = fdrelay.total_outage(cfg)
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0.0)
        except Exception as exc:  # every failure is counted and the grid goes on
            dt = time.perf_counter() - t
            self.record_error(exc)
            return dt
        dt = time.perf_counter() - t
        if not (math.isfinite(p) and 0.0 <= p <= 1.0):
            self.errors["bad_value"] += 1
        return dt

    def unit(self, j: int) -> Unit:
        cfgs = self.next_block if j == 0 else self.draw_block(j)
        if j == 0:
            cfgs = self.presets + cfgs
        before = self.snapshot()
        t0 = time.perf_counter()
        latencies = [self.evaluate(cfg) for cfg in cfgs]
        wall = time.perf_counter() - t0
        return Unit(len(cfgs), wall, latencies, self.since(before))

    def check(self, units) -> tuple[int, dict]:
        # each value is checked as it is produced, into errors["bad_value"]
        return 0, {}

    def context(self) -> dict:
        return {}


def make_workload(name: str, seed: int, tiny: bool):
    size = {k: v[tiny] for k, v in SIZES.items()}
    if name == "approx_async":
        return SweepWorkload(name, "fig2", fdrelay.MI_APPROXIMATE, size["approx_trials"], seed)
    if name == "exact_async":
        return SweepWorkload(name, "fig4", fdrelay.MI_EXACT, size["exact_trials"], seed)
    if name == "closed_form":
        return ClosedFormWorkload(name, size["block"], seed)
    raise ValueError(f"unknown workload {name!r}")


def run_window(wl, seconds: float, trace: bool):
    """Run units until the window is spent, or over the whole grid of a
    fixed-grid workload; traced runs pair each unit with a traced repeat of
    the same inputs.  The host speed is gauged just before each plain unit."""
    units, traced = [], []
    tracer = Tracer() if trace else None
    grid = wl.grid_units(seconds, trace)
    start = time.perf_counter()
    i = 0
    while True:
        speed = host_speed(wl.name)
        t = time.perf_counter()
        units.append(wl.unit(i))
        plain_wall = time.perf_counter() - t
        units[-1].speed = speed
        if tracer is not None:
            install(tracer)
            t = time.perf_counter()
            try:
                with tracer.unit(i):
                    units.append(wl.unit(i))
            finally:
                tracer.uninstall()
            traced.append((plain_wall, time.perf_counter() - t, units[-1]))
        i += 1
        if i >= grid if grid else time.perf_counter() - start >= seconds:
            return units, tracer, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    if not Path(fdrelay.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"fdrelay imported from {fdrelay.__file__}, not from this checkout")
    OUT.mkdir(exist_ok=True)

    wl = make_workload(args.workload, args.seed, args.tiny)
    wl.setup()
    setup_raw_s = time.monotonic() - args.t0
    speed = host_speed(args.workload)
    result = {"setup_s": setup_raw_s * speed, "setup_raw_s": setup_raw_s,
              "host_speed": speed, "numpy": np.__version__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    units, tracer, traced = run_window(wl, args.seconds, bool(args.trace))
    failed_checks, checks = wl.check(units)
    attempted = sum(len(u.latencies) for u in units)
    failed = sum(sum(v for k, v in u.errors.items() if k in Workload.ERRORS)
                 for u in units) + failed_checks

    plain = [u for u in units if u.speed is not None]   # traced repeats left out

    def per_unit(stat) -> float:
        # a median over units, so a host slow phase that covers a minority
        # of the window does not move the figure
        return float(np.median([stat(u) for u in plain]))

    result.update({
        "attempted": attempted,
        "failed": failed,
        "correct": failed_checks == 0 and wl.errors["bad_value"] == 0,
        "checks": checks,
        "units": len(units),
        "work_unit": wl.work_unit,
        "work_per_s": per_unit(lambda u: u.work / u.wall / u.speed),
        "raw_work_per_s": per_unit(lambda u: u.work / u.wall),
        "host_speed_p50": per_unit(lambda u: u.speed),
        "op_ms_p50": per_unit(lambda u: np.percentile(u.latencies, 50)) * 1e3,
        "op_ms_p90": per_unit(lambda u: np.percentile(u.latencies, 90)) * 1e3,
        "op_ms_p99": per_unit(lambda u: np.percentile(u.latencies, 99)) * 1e3,
        "ops_per_unit": per_unit(lambda u: len(u.latencies)),
        "unit_rates": [u.work / u.wall for u in plain],
        "unit_speeds": [u.speed for u in plain],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "errors": wl.errors,
        "clamp_warnings": wl.clamp_warnings,
        **wl.context(),
    })
    if wl.first_error:
        print(wl.first_error, file=sys.stderr)
    if tracer is not None:
        (OUT / "trace").mkdir(exist_ok=True)
        tracer.save(OUT / "trace" / f"{args.workload}.npz")
        result["layers"], result["absent"] = layer_metrics(tracer, traced, args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
