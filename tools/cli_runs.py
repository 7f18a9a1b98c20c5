#!/usr/bin/env python3
"""Wall time and minor page faults of four CLI commands, a git ref against the working tree.

    tools/cli_runs.py BASE_REF [--reps K]

Extracts BASE_REF (git archive) and the working tree (tracked and untracked,
non-ignored files) into a temporary directory, as tools/ab_points.py does,
and runs `fdrelay --preset fig3 --trials 200000`, `fdrelay --preset fig4
--mi exact --trials 10000`, `fdrelay --preset fig5 --mi exact --trials
10000` and `fdrelay --preset fig2 --trials 200000` in each tree, each run in
a child process, K times per tree with the two trees in alternating order.
fig4's bound stages decide nearly every multi trial (its amplitude bounds
46-99.6% of them, from the powers alone, and its phased rate bounds nearly
all the rest), so its spectrum groups are nearly always empty; fig5's leave
3-4% of them to the groups, so only its run takes the grouped spectrum's
memory path.  Each command runs under
two argument spellings, as given and with the no-op `--workers 1 --seed 0`
appended: a child's minor-fault count follows its heap layout, which even
the length of its argument list moves, and a run can sit in either of two
fault modes (fig5-exact's differ by 3%).  A mode flip then shows as a
difference between the spellings of one tree, not as one between the trees.
Prints every run's wall time and minor page faults (getrusage
RUSAGE_CHILDREN, ru_minflt, around the child), then per command and
spelling each tree's medians and the working tree's over the base's.  A
change in how memory is allocated shows here and not in ab_points.py, whose
two trees share one heap.  Exits non-zero only if a tree cannot run.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ab_points import extract

RUNS = (
    ("fig3", ["--preset", "fig3", "--trials", "200000"]),
    ("fig4-exact", ["--preset", "fig4", "--mi", "exact", "--trials", "10000"]),
    ("fig5-exact", ["--preset", "fig5", "--mi", "exact", "--trials", "10000"]),
    ("fig2", ["--preset", "fig2", "--trials", "200000"]),
)

# the defaults spelled out: the same run, under a longer argument list
SPELLINGS = (("plain", []), ("spelled", ["--workers", "1", "--seed", "0"]))


def run(tree: Path, args: list[str]) -> tuple[float, int]:
    """(wall seconds, minor faults) of one CLI run from tree's source in a child process."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    t0 = time.perf_counter()
    # a two-variant preset writes one file per variant beside --out
    subprocess.run([sys.executable, "-m", "fdrelay.cli", *args, "--out", str(tree / "out.csv")],
                   cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    return wall, resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_ref")
    parser.add_argument("--reps", type=int, default=3, help="runs per command and tree")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    repo = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True,
                               capture_output=True, text=True).stdout.strip())
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": extract(repo, args.base_ref, Path(tmp) / "base"),
                 "work": extract(repo, None, Path(tmp) / "work")}
        for i, (name, cli_args) in enumerate(RUNS):
            for spelling, extra in SPELLINGS:
                label = f"{name} {spelling}"
                walls = {key: [] for key in trees}
                faults = {key: [] for key in trees}
                for rep in range(args.reps):
                    order = ("base", "work") if (i + rep) % 2 == 0 else ("work", "base")
                    for key in order:
                        wall, minflt = run(trees[key], cli_args + extra)
                        walls[key].append(wall)
                        faults[key].append(minflt)
                        print(f"{label:18s} {key} rep {rep + 1}: {wall:7.2f} s  "
                              f"{minflt:8d} minor faults", flush=True)
                wall = {key: statistics.median(v) for key, v in walls.items()}
                minflt = {key: statistics.median(v) for key, v in faults.items()}
                print(f"median {label}: base {wall['base']:.2f} s, {minflt['base']:.0f} faults; "
                      f"work {wall['work']:.2f} s, {minflt['work']:.0f} faults; "
                      f"work/base wall {wall['work'] / wall['base']:.3f}, "
                      f"faults {minflt['work'] / max(minflt['base'], 1):.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
