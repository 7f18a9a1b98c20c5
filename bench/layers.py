"""Layer map of the traced run: wrap points, work counters and metrics.

Each layer of src/fdrelay is measured at the names its callers look up.  The
table below is the single place that knows which library name feeds which
metric; a later library change that moves a call shows up as an absent
metric, never as 0 s.
"""

from __future__ import annotations

import importlib
import os

import numpy as np

from spans import ROOT


def _draws(c, args, kwargs, out):
    gains = np.size(out.h_sd) + np.size(out.h_sr) + np.size(out.h_rd)
    c["channel.draws"] += np.size(out.h_sd)
    c["channel.uniform_bytes"] += 16 * gains    # two float64 uniforms per complex gain


def _gains(c, args, kwargs, out):
    c["sfun.gains"] += np.size(out)


def _spectrum(c, args, kwargs, out):
    c["fde.lambda_spectrum.bins"] += out.gamma.size
    c["fde.spectrum_bytes"] += out.lam.nbytes + out.gamma.nbytes


def _estimate(c, args, kwargs, out):
    c["mc.trials"] += out.trials
    c["mc.outages"] += out.outage_count


def _emitted(c, args, kwargs, out):
    c["cli.emit.bytes"] += os.path.getsize(kwargs["path"] if "path" in kwargs else args[2])


# (span, module, attribute the caller looks up, work counter)
WRAPS = (
    ("cli.run_sweep", "fdrelay.cli", "run_sweep", None),
    ("cli.emit", "fdrelay.cli", "emit", _emitted),
    ("model.apply_param", "fdrelay.cli", "apply_param", None),
    ("analytic.total_outage", "fdrelay.cli", "total_outage", None),
    ("analytic.total_outage", "fdrelay", "total_outage", None),
    ("analytic.p_cond", "fdrelay.analytic", "p_cond_async", None),
    ("analytic.p_cond", "fdrelay.analytic", "p_cond_sync", None),
    ("sfun.regularized_lower_gamma_int", "fdrelay.analytic", "regularized_lower_gamma_int", None),
    ("mc.estimate_outage", "fdrelay.cli", "estimate_outage", _estimate),
    ("mc.trial_stream", "fdrelay.mc", "trial_stream", None),
    ("channel.draw_realization", "fdrelay.mc", "draw_realization", _draws),
    ("sfun.gains_from_uniforms", "fdrelay.channel", "gains_from_uniforms", _gains),
    ("channel.link_sinrs", "fdrelay.mc", "link_sinrs", None),
    ("mc.select_relay", "fdrelay.mc", "select_relay", None),
    ("fde.lambda_spectrum", "fdrelay.mc", "lambda_spectrum", _spectrum),
    ("fde.exact_rate", "fdrelay.mc", "exact_rate", None),
    ("fde.approx_rate", "fdrelay.mc", "approx_rate", None),
)

_MC_SPANS = {
    "cli.run_sweep", "cli.emit", "model.apply_param", "analytic.total_outage",
    "analytic.p_cond", "sfun.regularized_lower_gamma_int", "mc.estimate_outage",
    "mc.trial_stream", "channel.draw_realization", "sfun.gains_from_uniforms",
    "channel.link_sinrs", "mc.select_relay",
}

# spans that must record calls on each workload; a zero elsewhere is a
# measured zero (approx MI never builds a spectrum)
EXPECTED = {
    "approx_async": _MC_SPANS | {"fde.approx_rate"},
    "exact_async": _MC_SPANS | {"fde.lambda_spectrum", "fde.exact_rate"},
    "closed_form": {"analytic.total_outage", "analytic.p_cond",
                    "sfun.regularized_lower_gamma_int"},
}

# (metric, unit, better, span, source): source "self" is the span's self
# time, "calls" its call count, anything else a work counter of that name.
# A time named .s belongs to a span with no traced children, so its self
# time is its whole time.
SPAN_METRICS = (
    ("channel.draw_realization.self_s", "s", "lower", "channel.draw_realization", "self"),
    ("channel.draw_realization.calls", "count", "lower", "channel.draw_realization", "calls"),
    ("channel.link_sinrs.s", "s", "lower", "channel.link_sinrs", "self"),
    ("channel.draws", "count", "lower", "channel.draw_realization", "channel.draws"),
    ("channel.uniform_bytes", "B", "lower", "channel.draw_realization", "channel.uniform_bytes"),
    ("sfun.gains_from_uniforms.s", "s", "lower", "sfun.gains_from_uniforms", "self"),
    ("sfun.gains", "count", "lower", "sfun.gains_from_uniforms", "sfun.gains"),
    ("sfun.regularized_lower_gamma_int.s", "s", "lower", "sfun.regularized_lower_gamma_int", "self"),
    ("sfun.regularized_lower_gamma_int.calls", "count", "lower",
     "sfun.regularized_lower_gamma_int", "calls"),
    ("fde.lambda_spectrum.s", "s", "lower", "fde.lambda_spectrum", "self"),
    ("fde.lambda_spectrum.calls", "count", "lower", "fde.lambda_spectrum", "calls"),
    ("fde.lambda_spectrum.bins", "count", "lower", "fde.lambda_spectrum", "fde.lambda_spectrum.bins"),
    ("fde.spectrum_bytes", "B", "lower", "fde.lambda_spectrum", "fde.spectrum_bytes"),
    ("fde.exact_rate.s", "s", "lower", "fde.exact_rate", "self"),
    ("fde.approx_rate.s", "s", "lower", "fde.approx_rate", "self"),
    ("mc.estimate_outage.self_s", "s", "lower", "mc.estimate_outage", "self"),
    ("mc.select_relay.s", "s", "lower", "mc.select_relay", "self"),
    ("mc.trial_stream.s", "s", "lower", "mc.trial_stream", "self"),
    ("mc.chunks", "count", "lower", "mc.trial_stream", "calls"),
    ("mc.trials", "count", "higher", "mc.estimate_outage", "mc.trials"),
    ("mc.outages", "count", "lower", "mc.estimate_outage", "mc.outages"),
    ("analytic.total_outage.self_s", "s", "lower", "analytic.total_outage", "self"),
    ("analytic.total_outage.calls", "count", "lower", "analytic.total_outage", "calls"),
    ("analytic.p_cond.self_s", "s", "lower", "analytic.p_cond", "self"),
    ("model.apply_param.s", "s", "lower", "model.apply_param", "self"),
    ("cli.run_sweep.self_s", "s", "lower", "cli.run_sweep", "self"),
    ("cli.emit.s", "s", "lower", "cli.emit", "self"),
    ("cli.emit.bytes", "B", "lower", "cli.emit", "cli.emit.bytes"),
)

# measured by the harness itself, so never absent
HARNESS_METRICS = (
    ("analytic.errors.overflow", "count", "lower"),
    ("analytic.errors.timeout", "count", "lower"),
    ("analytic.errors.other", "count", "lower"),
    ("analytic.clamp_warnings", "count", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.units", "count", "higher"),
)


def install(tracer) -> None:
    for span, module_name, attr, count in WRAPS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        tracer.wrap(module, attr, span, count)


def layer_metrics(tracer, traced, workload: str) -> tuple[dict, list]:
    """Per-layer metrics averaged over the traced units, and the absent names.

    traced holds (untraced wall, traced wall, traced Unit) per unit pair.
    """
    n = len(traced)
    self_s, calls = tracer.totals()
    expected = EXPECTED[workload]
    out, absent = {}, []
    for metric, unit, _, span, source in SPAN_METRICS:
        lost = (span not in tracer.wrapped
                or (span in expected and calls.get(span, 0) == 0)
                or (source not in ("self", "calls") and span in tracer.broken_counters))
        if lost:
            absent.append(metric)
            continue
        if source == "self":
            value = self_s.get(span, 0.0)
        elif source == "calls":
            value = calls.get(span, 0)
        else:
            value = tracer.counters.get(source, 0)
        out[metric] = {"value": value / n, "unit": unit}
    errors = {k: sum(u.errors[k] for _, _, u in traced) / n
              for k in ("overflow", "timeout", "other", "clamp_warnings")}
    harness = {
        "analytic.errors.overflow": errors["overflow"],
        "analytic.errors.timeout": errors["timeout"],
        "analytic.errors.other": errors["other"],
        "analytic.clamp_warnings": errors["clamp_warnings"],
        "bench.self_s": self_s[ROOT] / n,
        "trace.wall_s": tracer.wall_ns / 1e9 / n,
        "trace.overhead_s": sum(t - p for p, t, _ in traced) / n,
        "trace.units": n,
    }
    for metric, unit, _ in HARNESS_METRICS:
        out[metric] = {"value": harness[metric], "unit": unit}
    return out, absent
