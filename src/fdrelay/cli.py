"""Experiment runner: presets, parameter sweeps, CSV/JSON curve output."""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from .analytic import total_outage
from .mc import SCHEME_MULTI, SCHEMES, SEED_BITS, estimate_outage
from .model import (ASYNCHRONOUS, DB_FIELDS, MI_APPROXIMATE, MI_EXACT,
                    SYNCHRONOUS, SweepResult, SweepRow, SweepSpec, SystemConfig,
                    apply_param, _check_int, configure, linear_to_db)

CSV_HEADER = "param,param_db,scheme,mode,analytic_p,mc_p,mc_stderr,trials,seed"

PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5")

IRI_SWEEP_DB = (-10.0, -5.0, 0.0, 5.0, 10.0)
SR_SWEEP_DB = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)


@dataclass(frozen=True)
class Preset:
    """Shipped experiment: one sweep per relay-count variant.

    A variant label distinguishes output files when the preset runs several
    relay counts ("n5", "n10"); a single-variant preset uses the empty label.
    """

    variants: tuple[tuple[str, SweepSpec], ...]


def build_preset(name: str) -> Preset:
    """Shipped experiment configurations.

    fig2/fig3 sweep the inter-relay interference level at N in {5, 10} for
    the asynchronous/synchronous destinations; fig4/fig5 sweep the first-hop
    quality at N = 10 with a strong/weak second hop to compare the schemes.
    """
    common = {"rate": 2.0, "var_sd": 1.0, "var_rsi": 1.0, "block_len": 500, "cp_len": 10}
    if name in ("fig2", "fig3"):
        mode = SYNCHRONOUS if name == "fig3" else ASYNCHRONOUS
        variants = []
        for n in (5, 10):
            base = configure({
                **common, "n_relays": n, "p_source_db": 5.0, "e_relay_budget_db": 5.0,
                "var_sr_db": 8.0, "var_rd_db": 10.0, "var_iri_db": IRI_SWEEP_DB[0],
                "sync_mode": mode})
            variants.append((f"n{n}", SweepSpec(base, "var_iri_db", IRI_SWEEP_DB)))
        return Preset(tuple(variants))
    if name in ("fig4", "fig5"):
        base = configure({
            **common, "n_relays": 10, "p_source_db": 10.0, "e_relay_budget_db": 10.0,
            "var_sr_db": SR_SWEEP_DB[0], "var_rd_db": 10.0 if name == "fig4" else 0.0,
            "var_iri_db": 0.0})
        return Preset((("", SweepSpec(base, "var_sr_db", SR_SWEEP_DB)),))
    raise ValueError(f"unknown preset {name!r}")


def _sweep_task(task: tuple[float, SystemConfig, str, int, int]) -> SweepRow:
    param, cfg, scheme, trials, seed = task
    analytic_p = total_outage(cfg) if scheme == SCHEME_MULTI else None
    return SweepRow(param, scheme, analytic_p, estimate_outage(cfg, scheme, trials, seed))


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Run every (value, scheme) point of a sweep, rows in sweep order.

    Each value becomes a validated config (one apply_param call) and the
    whole spec is checked before any trial runs.  workers > 1 fans the points
    out to a process pool no wider than their number; each point depends only
    on (config, scheme, trials, seed), so the result is the same for any
    worker count.
    """
    if not spec.values:
        raise ValueError("sweep values must be non-empty")
    # apply_param owns the parameter-name and value rules
    configs = [apply_param(spec.base, spec.param, v) for v in spec.values]
    pairs = list(zip(spec.values, spec.values[1:]))
    if pairs and not (all(a < b for a, b in pairs) or all(a > b for a, b in pairs)):
        raise ValueError("sweep values must be strictly monotone")
    if not spec.schemes:
        raise ValueError("schemes must be non-empty")
    for scheme in spec.schemes:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
    _check_int("trials", spec.trials)
    _check_int("seed", spec.seed, 0, SEED_BITS)
    _check_int("workers", workers)
    field = spec.param.removesuffix("_db")
    tasks = [(float(getattr(cfg, field)), cfg, scheme, spec.trials, spec.seed)
             for cfg in configs for scheme in spec.schemes]
    workers = min(workers, len(tasks))
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
    """One record per row, keyed by CSV column, floats rounded to 9 digits;
    param_db (the swept field's dB form of row.param) and mode come from the spec."""
    spec = result.spec
    in_db = spec.param.removesuffix("_db") in DB_FIELDS
    mode = "sync" if spec.base.sync_mode == SYNCHRONOUS else "async"
    return [{
        "param": _rounded(row.param),
        "param_db": _rounded(linear_to_db(row.param)) if in_db and row.param > 0 else None,
        "scheme": row.scheme,
        "mode": mode,
        "analytic_p": None if row.analytic_p is None else _rounded(row.analytic_p),
        "mc_p": _rounded(row.estimate.p_hat),
        "mc_stderr": _rounded(row.estimate.stderr),
        "trials": result.spec.trials,
        "seed": result.spec.seed,
    } for row in result.rows]


def _csv_cell(v) -> str:
    if v is None:
        return ""
    return _fmt(v) if isinstance(v, float) else str(v)


def emit(result: SweepResult, fmt: str, path) -> None:
    """Write a sweep result as CSV or JSON with 9-significant-digit floats.

    The analytic column is populated only for the multi-relay scheme (no
    closed form exists for the selection baselines) and left empty/null
    otherwise; param_db is empty/null when the swept field has no dB scale
    or its value has no finite dB form (a linear 0).
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


def _config_spec(doc) -> SweepSpec:
    """SweepSpec of a parsed config file; its sweep block is read here, not by the model."""
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    sweep = doc.pop("sweep", {})
    if isinstance(sweep, dict) and set(sweep) <= {"param", "values"}:
        param, values = sweep.get("param", ""), sweep.get("values", [])
        if isinstance(param, str) and isinstance(values, list) and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            return SweepSpec(configure(doc), param, tuple(float(v) for v in values))
    raise ValueError('sweep block must be {"param": "<name>", "values": [<numbers>]}')


def _variant_path(out: Path, label: str) -> Path:
    return out.with_name(f"{out.stem}_{label}{out.suffix}") if label else out


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        if args.preset is not None:
            variants = build_preset(args.preset).variants
        else:
            variants = [("", _config_spec(json.loads(Path(args.config).read_text())))]

        schemes = SCHEMES if args.scheme == "all" else (args.scheme,)
        out = Path(args.out or f"{args.preset or 'sweep'}.{args.format}")
        named = {"async": ASYNCHRONOUS, "sync": SYNCHRONOUS,
                 "exact": MI_EXACT, "approx": MI_APPROXIMATE}
        overrides = {field: named[v] for field, v in (("sync_mode", args.mode),
                                                      ("mi_mode", args.mi)) if v}

        values = (None if args.sweep_values is None
                  else tuple(float(tok) for tok in args.sweep_values.split(",")))
        # every variant is checked before any runs
        variants = [(label, replace(
            spec, base=configure(overrides, spec.base),
            param=spec.param if args.sweep_param is None else args.sweep_param,
            values=spec.values if values is None else values,
            schemes=schemes, trials=args.trials, seed=args.seed))
            for label, spec in variants]
        if not all(spec.param for _, spec in variants):
            raise ValueError("no sweep parameter given "
                             "(use --sweep-param or a config sweep block)")
        # every variant writes beside out
        if not out.parent.is_dir():
            raise ValueError(f"output directory {out.parent} does not exist")

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
