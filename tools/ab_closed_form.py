#!/usr/bin/env python3
"""Closed-form speed and values of a git ref against the working tree, in one process.

    tools/ab_closed_form.py BASE_REF [--reps K]

Extracts BASE_REF and the working tree and imports both trees' fdrelay
packages side by side, as tools/ab_points.py does.  Each tree builds its own
configs: every preset point in both combining modes, then a seeded grid of
the closed-form benchmark's ranges (N 1-64, rate 0.5-8, P_S and E_R 0-30 dB,
every channel variance -20..20 dB, both modes and power policies).  Every
config then goes through total_outage in both trees, K times each, the two
trees interleaved with alternating order.  Prints each tree's evals/s (the
fastest of its K passes) and their ratio, then how many values differ
bitwise and how many at 9 significant digits, the precision of the CSVs.
A config that raises counts as its exception's name, and differs unless
the other tree raises the same.  Exits non-zero only if a tree cannot be
built or run.
"""

from __future__ import annotations

import argparse
import importlib
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from ab_points import extract, load_package

SEED = 31337    # the seeded grid, the same in both trees
GRID = 4000     # seeded configs on top of the preset points


def configs(fd) -> list:
    """Every preset point in both modes, then the seeded grid, built by fd."""
    cli = importlib.import_module(fd.__name__ + ".cli")
    out = []
    for name in cli.PRESET_NAMES:
        for _, spec in cli.build_preset(name).variants:
            for value in spec.values:
                cfg = fd.apply_param(spec.base, spec.param, value)
                out += [fd.validate_config(replace(cfg, sync_mode=mode, delays=None))
                        for mode in (fd.ASYNCHRONOUS, fd.SYNCHRONOUS)]
    rng = np.random.default_rng(SEED)
    n = rng.integers(1, 65, GRID)
    rate = rng.uniform(0.5, 8.0, GRID)
    power = 10.0 ** (rng.uniform(0.0, 30.0, (GRID, 2)) / 10.0)
    var = 10.0 ** (rng.uniform(-20.0, 20.0, (GRID, 5)) / 10.0)
    sync = rng.random(GRID) < 0.5
    fixed = rng.random(GRID) < 0.5
    for i in range(GRID):
        out.append(fd.validate_config(fd.SystemConfig(
            n_relays=int(n[i]), p_source=float(power[i, 0]), e_relay_budget=float(power[i, 1]),
            rate=float(rate[i]), var_sd=float(var[i, 0]), var_sr=float(var[i, 1]),
            var_rd=float(var[i, 2]), var_rsi=float(var[i, 3]), var_iri=float(var[i, 4]),
            cp_len=max(10, int(n[i])),
            sync_mode=fd.SYNCHRONOUS if sync[i] else fd.ASYNCHRONOUS,
            relay_power_policy=fd.FIXED_PER_RELAY if fixed[i] else fd.SHARED_BUDGET)))
    return out


def evaluate(fd, cfgs) -> tuple[float, list]:
    """Seconds for one pass of total_outage over cfgs, and its values."""
    values = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # a clamp warns; its value is compared
        t0 = time.perf_counter()
        for cfg in cfgs:
            try:
                values.append(fd.total_outage(cfg))
            except Exception as exc:    # compared by name, like a value
                values.append(type(exc).__name__)
        return time.perf_counter() - t0, values


def differs(a, b, show) -> bool:
    """Whether a and b, each a float or an exception's name, differ as shown."""
    if isinstance(a, float) and isinstance(b, float):
        return show(a) != show(b)
    return a != b


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_ref")
    parser.add_argument("--reps", type=int, default=10, help="passes per tree")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    repo = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True,
                               capture_output=True, text=True).stdout.strip())
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": extract(repo, args.base_ref, Path(tmp) / "base"),
                 "work": extract(repo, None, Path(tmp) / "work")}
        fds = {key: load_package(tree, f"fdrelay_{key}") for key, tree in trees.items()}
        cfgs = {key: configs(fd) for key, fd in fds.items()}
        best = dict.fromkeys(fds, float("inf"))
        values = {}
        for key, fd in fds.items():         # warm both trees once
            evaluate(fd, cfgs[key][:200])
        for rep in range(args.reps):
            for key in (("base", "work") if rep % 2 == 0 else ("work", "base")):
                t, values[key] = evaluate(fds[key], cfgs[key])
                best[key] = min(best[key], t)
    count = len(cfgs["base"])
    for key in fds:
        print(f"{key}  {count / best[key]:10.0f} evals/s  (fastest of {args.reps} passes "
              f"over {count} configs)")
    print(f"work/base evals/s ratio {best['base'] / best['work']:.3f}")
    pairs = list(zip(values["base"], values["work"]))
    bitwise = sum(differs(a, b, float.hex) for a, b in pairs)
    digits = sum(differs(a, b, "{:.9g}".format) for a, b in pairs)
    print(f"values: {len(pairs)} compared; {bitwise} differ bitwise, "
          f"{digits} differ at 9 significant digits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
