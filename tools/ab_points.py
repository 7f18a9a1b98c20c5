#!/usr/bin/env python3
"""Per-point Monte-Carlo speed of a git ref against the working tree, in one process.

    tools/ab_points.py BASE_REF (--preset P | --config FILE) [--mi exact] [--reps K] [--trials N]

Extracts BASE_REF (git archive) and the working tree (tracked and untracked,
non-ignored files) into a temporary directory, as tools/csv_identity.sh does,
and imports both trees' fdrelay packages side by side under two names.
Every (value, scheme) point of the preset's variants, or of the sweep of a
JSON config file as the CLI's --config reads it, then runs
estimate_outage in both trees, K times each, the two trees interleaved with
alternating order, so both see the same heap, caches and host load.  A
point's speedup is its base time over its working-tree time, each the
fastest of its K runs.  Prints one line per point, then the median speedup,
its quartiles and how many points got faster; it also names any point whose
outage count differs between the trees, which only an intended change of
the random stream may do.  Exits non-zero only if the trees cannot be
built or run.

It cannot see a change in how memory is allocated.  Both trees run in one
process on one heap, so pages one tree faults in serve the other, and
neither pays the faults a fresh process would.  With every per-chunk
buffer of estimate_outage dropped, it timed fig2 as 1.026x faster (25 of
30 points, 2 cores), while separate processes ran fig2 8%, fig3 5% and
exact-MI fig4 35% slower, with 7x, 11x and 54x the minor page faults.  So
check an allocation change across processes instead, with
tools/cli_runs.py, which times four CLI runs of each tree in child
processes and counts their minor faults.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from dataclasses import replace
from pathlib import Path

SEED = 11       # every tree runs every point on the same stream


def extract(repo: Path, ref: str | None, dest: Path) -> Path:
    """Write ref's tree (None: the working tree) under dest and return it."""
    dest.mkdir()
    if ref is not None:
        tar = subprocess.run(["git", "-C", str(repo), "archive", ref],
                             check=True, capture_output=True).stdout
    else:
        names = subprocess.run(["git", "-C", str(repo), "ls-files", "-z", "--cached",
                                "--others", "--exclude-standard"],
                               check=True, capture_output=True).stdout.split(b"\0")
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as out:
            for name in filter(None, names):
                path = repo / name.decode()
                if path.is_file():
                    out.add(path, arcname=name.decode())
        tar = buf.getvalue()
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def load_package(tree: Path, name: str):
    """Import tree/src/fdrelay as the top-level package name."""
    pkg = tree / "src" / "fdrelay"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def points(fd, preset: str | None, config: Path | None, mi: str | None):
    """(label, config, scheme) of every point of the preset or config file, in sweep order."""
    cli = importlib.import_module(fd.__name__ + ".cli")
    if preset is not None:
        name, variants = preset, cli.build_preset(preset).variants
    else:
        name, variants = config.stem, [("", cli._config_spec(json.loads(config.read_text())))]
    out = []
    for label, spec in variants:
        base = spec.base if mi is None else fd.validate_config(replace(spec.base, mi_mode=mi))
        for value in spec.values:
            cfg = fd.apply_param(base, spec.param, value)
            out += [(f"{label or name} {spec.param}={value:g}", cfg, s) for s in spec.schemes]
    return out


def timed(fd, cfg, scheme, trials):
    t0 = time.perf_counter()
    est = fd.estimate_outage(cfg, scheme, trials, SEED)
    return time.perf_counter() - t0, est.outage_count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_ref")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=("fig2", "fig3", "fig4", "fig5"))
    source.add_argument("--config", metavar="FILE", type=Path,
                        help="JSON scenario file, as the CLI's --config reads it")
    parser.add_argument("--mi", choices=("exact",), default=None,
                        help="run under exact MI instead of the points' own MI mode")
    parser.add_argument("--reps", type=int, default=3, help="runs per point and tree")
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per point (default: 20000, or 2000 under exact MI)")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    trials = args.trials or (2000 if args.mi else 20000)
    repo = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True,
                               capture_output=True, text=True).stdout.strip())
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": extract(repo, args.base_ref, Path(tmp) / "base"),
                 "work": extract(repo, None, Path(tmp) / "work")}
        fds = {key: load_package(tree, f"fdrelay_{key}") for key, tree in trees.items()}
        grids = {key: points(fd, args.preset, args.config, args.mi) for key, fd in fds.items()}
        for key, fd in fds.items():         # warm both trees once on every shape
            for _, cfg, scheme in grids[key][:3]:
                timed(fd, cfg, scheme, min(trials, 2000))
        speedups, differ = [], []
        for i, (label, _, scheme) in enumerate(grids["base"]):
            best = {"base": float("inf"), "work": float("inf")}
            counts = {}
            for rep in range(args.reps):
                order = ("base", "work") if (i + rep) % 2 == 0 else ("work", "base")
                for key in order:
                    t, counts[key] = timed(fds[key], grids[key][i][1], scheme, trials)
                    best[key] = min(best[key], t)
            speedups.append(best["base"] / best["work"])
            if counts["base"] != counts["work"]:
                differ.append(f"{label} {scheme}")
            print(f"{label:24s} {scheme:5s} base {best['base'] * 1e3:8.2f} ms  "
                  f"work {best['work'] * 1e3:8.2f} ms  speedup {speedups[-1]:.3f}", flush=True)
    q1, med, q3 = (statistics.quantiles(speedups, n=4) if len(speedups) > 1
                   else speedups * 3)
    wins = sum(s > 1.0 for s in speedups)
    name = args.preset or args.config.stem
    print(f"summary {name}{' exact' if args.mi else ''}: {len(speedups)} points, "
          f"{trials} trials, {args.reps} reps; median speedup {med:.3f} "
          f"(q1 {q1:.3f}, q3 {q3:.3f}); faster at {wins} of {len(speedups)}")
    print("outage counts identical at every point" if not differ
          else f"outage counts differ at {len(differ)} points: " + "; ".join(differ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
