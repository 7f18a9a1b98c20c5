"""Experiment runner: presets, parameter sweeps, CSV/JSON curve output."""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from .analytic import total_outage
from .mc import SCHEME_MULTI, SCHEMES, estimate_outage
from .model import (ASYNCHRONOUS, DB_FIELDS, MI_APPROXIMATE, MI_EXACT,
                    SYNCHRONOUS, SweepResult, SweepRow, SweepSpec,
                    SystemConfig, apply_param, config_from_dict, db_to_linear,
                    linear_to_db, validate_config)

CSV_HEADER = "param,param_db,scheme,mode,analytic_p,mc_p,mc_stderr,trials,seed"

PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5")

IRI_SWEEP_DB = (-10.0, -5.0, 0.0, 5.0, 10.0)
SR_SWEEP_DB = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)


@dataclass(frozen=True)
class Preset:
    """Named experiment: one sweep per relay-count variant.

    A variant label distinguishes output files when the preset runs several
    relay counts ("n5", "n10"); a single-variant preset uses the empty label.
    """

    name: str
    variants: tuple[tuple[str, SweepSpec], ...]


def _preset_base(n_relays: int, power_db: float, var_sr_db: float,
                 var_rd_db: float, var_iri_db: float, sync_mode: str) -> SystemConfig:
    return validate_config(SystemConfig(
        n_relays=n_relays,
        p_source=db_to_linear(power_db),
        e_relay_budget=db_to_linear(power_db),
        rate=2.0,
        var_sd=1.0,
        var_sr=db_to_linear(var_sr_db),
        var_rd=db_to_linear(var_rd_db),
        var_rsi=1.0,
        var_iri=db_to_linear(var_iri_db),
        block_len=500,
        cp_len=10,
        sync_mode=sync_mode,
    ))


def build_preset(name: str) -> Preset:
    """Shipped experiment configurations.

    fig2/fig3 sweep the inter-relay interference level at N in {5, 10} for
    the asynchronous/synchronous destinations; fig4/fig5 sweep the first-hop
    quality at N = 10 with a strong/weak second hop to compare the schemes.
    """
    if name in ("fig2", "fig3"):
        mode = SYNCHRONOUS if name == "fig3" else ASYNCHRONOUS
        variants = []
        for n in (5, 10):
            base = _preset_base(n, 5.0, 8.0, 10.0, IRI_SWEEP_DB[0], mode)
            variants.append((f"n{n}", SweepSpec(base, "var_iri_db", IRI_SWEEP_DB)))
        return Preset(name, tuple(variants))
    if name in ("fig4", "fig5"):
        rd_db = 10.0 if name == "fig4" else 0.0
        base = _preset_base(10, 10.0, SR_SWEEP_DB[0], rd_db, 0.0, ASYNCHRONOUS)
        return Preset(name, (("", SweepSpec(base, "var_sr_db", SR_SWEEP_DB)),))
    raise ValueError(f"unknown preset {name!r}")


def _check_spec(spec: SweepSpec) -> None:
    if not spec.values:
        raise ValueError("sweep values must be non-empty")
    # apply_param owns the parameter-name rules
    apply_param(spec.base, spec.param, spec.values[0])
    pairs = list(zip(spec.values, spec.values[1:]))
    if pairs and not (all(a < b for a, b in pairs) or all(a > b for a, b in pairs)):
        raise ValueError("sweep values must be strictly monotone")
    if not spec.schemes:
        raise ValueError("schemes must be non-empty")
    for scheme in spec.schemes:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
    if spec.trials < 1:
        raise ValueError("trials must be positive")


def _sweep_task(task: tuple[SweepSpec, float, str]) -> SweepRow:
    spec, value, scheme = task
    cfg = apply_param(spec.base, spec.param, value)
    if spec.param.endswith("_db"):
        linear, in_db = db_to_linear(value), float(value)
    elif spec.param in DB_FIELDS:
        linear, in_db = float(value), linear_to_db(value)
    else:
        linear, in_db = float(value), float("nan")
    analytic_p = total_outage(cfg) if scheme == SCHEME_MULTI else None
    est = estimate_outage(cfg, scheme, spec.trials, spec.seed)
    mode = "sync" if cfg.sync_mode == SYNCHRONOUS else "async"
    return SweepRow(linear, in_db, scheme, mode, analytic_p, est)


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Run every (value, scheme) point of a sweep, rows in sweep order.

    Points are independent, so workers > 1 fans them out to a process pool;
    each point's estimate depends only on (spec, value, scheme), hence the
    result is identical for any worker count.
    """
    _check_spec(spec)
    tasks = [(spec, value, scheme)
             for value in spec.values for scheme in spec.schemes]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_task, tasks))
    else:
        rows = [_sweep_task(task) for task in tasks]
    return SweepResult(spec, tuple(rows))


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _rounded(x: float) -> float:
    # a 9-digit decimal survives the trip through a double, so formatting the
    # rounded value again gives back the same digits
    return float(_fmt(x))


def _records(result: SweepResult) -> list[dict]:
    """One record per row, keyed by CSV column, floats rounded to 9 digits."""
    recs = []
    for row in result.rows:
        recs.append({
            "param": _rounded(row.param),
            "param_db": None if math.isnan(row.param_db) else _rounded(row.param_db),
            "scheme": row.scheme,
            "mode": row.mode,
            "analytic_p": None if row.analytic_p is None else _rounded(row.analytic_p),
            "mc_p": _rounded(row.estimate.p_hat),
            "mc_stderr": _rounded(row.estimate.stderr),
            "trials": result.spec.trials,
            "seed": result.spec.seed,
        })
    return recs


def _csv_cell(v) -> str:
    if v is None:
        return ""
    return _fmt(v) if isinstance(v, float) else str(v)


def emit(result: SweepResult, fmt: str, path) -> None:
    """Write a sweep result as CSV or JSON with 9-significant-digit floats.

    The analytic column is populated only for the multi-relay scheme (no
    closed form exists for the selection baselines) and left empty/null
    otherwise; param_db is empty/null when the swept field has no dB scale.
    """
    recs = _records(result)
    path = Path(path)
    if fmt == "csv":
        columns = CSV_HEADER.split(",")
        lines = [CSV_HEADER] + [",".join(_csv_cell(r[c]) for c in columns) for r in recs]
        path.write_text("\n".join(lines) + "\n")
    elif fmt == "json":
        path.write_text(json.dumps(recs, indent=2) + "\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="fdrelay",
        description="Outage curves for a full-duplex multi-relay link: "
                    "closed forms plus Monte-Carlo, written as CSV or JSON.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=PRESET_NAMES,
                        help="shipped experiment configuration")
    source.add_argument("--config", metavar="FILE",
                        help="JSON scenario file (dB fields use a _db suffix; "
                             "optional sweep block {param, values})")
    parser.add_argument("--sweep-param", metavar="NAME",
                        help="field to sweep, e.g. var_iri_db (overrides source)")
    parser.add_argument("--sweep-values", metavar="V1,V2,...",
                        help="comma-separated sweep values (overrides source)")
    parser.add_argument("--scheme", choices=SCHEMES + ("all",), default="all",
                        help="forwarding scheme(s) to run (default: all)")
    parser.add_argument("--mode", choices=("async", "sync"),
                        help="override destination combining mode")
    parser.add_argument("--mi", choices=("exact", "approx"),
                        help="override mutual-information model for the MC engine")
    parser.add_argument("--trials", type=int, default=100_000,
                        help="Monte-Carlo trials per point (default: 100000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base RNG seed (default: 0)")
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool width for sweep points (default: 1)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default: csv)")
    parser.add_argument("--out", metavar="FILE",
                        help="output path (default: <preset>.<fmt> or sweep.<fmt>); "
                             "multi-variant presets insert _<label> before the suffix")
    return parser.parse_args(argv)


def _override_base(cfg: SystemConfig, args) -> SystemConfig:
    if args.mode is not None:
        want = SYNCHRONOUS if args.mode == "sync" else ASYNCHRONOUS
        if want != cfg.sync_mode:
            # delays were derived for the old mode; re-derive for the new one
            cfg = replace(cfg, sync_mode=want, delays=None)
    if args.mi is not None:
        cfg = replace(cfg, mi_mode=MI_EXACT if args.mi == "exact" else MI_APPROXIMATE)
    return validate_config(cfg)


def _variant_path(out: Path, label: str) -> Path:
    if not label:
        return out
    return out.with_name(f"{out.stem}_{label}{out.suffix}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        if args.preset is not None:
            preset = build_preset(args.preset)
            variants = list(preset.variants)
            default_out = f"{preset.name}.{args.format}"
        else:
            doc = json.loads(Path(args.config).read_text())
            if not isinstance(doc, dict):
                raise ValueError("config file must hold a JSON object")
            cfg = config_from_dict(doc)
            sweep_doc = doc.get("sweep")
            if sweep_doc is None:
                sweep_doc = {}
            elif not isinstance(sweep_doc, dict):
                raise ValueError("sweep block must be a JSON object")
            param = sweep_doc.get("param")
            values = tuple(float(v) for v in sweep_doc.get("values", ()))
            variants = [("", SweepSpec(cfg, param or "", values))]
            default_out = f"sweep.{args.format}"

        schemes = SCHEMES if args.scheme == "all" else (args.scheme,)
        out = Path(args.out) if args.out else Path(default_out)

        for i, (label, spec) in enumerate(variants):
            base = _override_base(spec.base, args)
            param, values = spec.param, spec.values
            if args.sweep_param is not None:
                param = args.sweep_param
            if args.sweep_values is not None:
                values = tuple(float(tok) for tok in args.sweep_values.split(","))
            if not param:
                raise ValueError("no sweep parameter given "
                                 "(use --sweep-param or a config sweep block)")
            variants[i] = (label, replace(
                spec, base=base, param=param, values=values,
                schemes=schemes, trials=args.trials, seed=args.seed))

        for label, spec in variants:
            result = run_sweep(spec, workers=args.workers)
            target = _variant_path(out, label)
            emit(result, args.format, target)
            print(f"wrote {target} ({len(result.rows)} rows)")
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
