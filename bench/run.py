"""fdrelay benchmark: one workload per call, every metric printed with its unit.

    python3 bench/run.py --workload approx_async --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout.  Each workload runs in its own
single-threaded process (bench/workload.py) built from ./src.  With --trace 0
the last stdout line is a JSON object holding the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a separate traced run.  The lines
before it give the same figures under the names used in bench/README.md and
the run context.  A full result, context included, is also written to
.bench_build/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build"

WORKLOADS = ("approx_async", "exact_async", "closed_form")

# separate processes that each set up the workload and exit; set-up time is
# the median over these and the measured run's own set-up
SETUP_SAMPLES = 5

# each child must end well inside the 180 s a run may take
CHILD_TIMEOUT_S = 150

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# the gated times are scaled to nominal host speed (reference.py); the raw
# figures and the latency percentiles are printed but not gated: on a shared
# host they spread more across runs than any bound the benchmark may set
END_TO_END = (
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"   # every run imports the same way
    env["PYTHONHASHSEED"] = "0"            # and lays out its dicts and sets the same way
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args, env, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cache_sizes() -> dict:
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    sizes = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1] != "0":
            sizes[parts[0]] = int(parts[1])
    return sizes


def context(env: dict, numpy_version: str) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": cache_sizes(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
    }


def report_lines(workload: str, res: dict, setup_s: float, setup_raw_s: float) -> list[str]:
    """The figures under the names users know, each with its unit."""
    rows = [("setup_s", setup_s, "s at nominal host speed"),
            ("setup_raw_s", setup_raw_s, "s"),
            ("work_per_s", res["work_per_s"], f"{res['work_unit']}/s at nominal host speed"),
            ("host_speed", res["host_speed_p50"], "of nominal, median over units")]
    if res["work_unit"] == "trials":
        rows += [("trials_per_s", res["raw_work_per_s"], "trials/s"),
                 ("point_ms_p50", res["op_ms_p50"], "ms"),
                 ("point_ms_p90", res["op_ms_p90"], "ms")]
    else:
        rows += [("evals_per_s", res["raw_work_per_s"], "evals/s"),
                 ("eval_us_p50", res["op_ms_p50"] * 1e3, "us"),
                 ("eval_us_p99", res["op_ms_p99"] * 1e3, "us")]
    rows += [("error_rate", res["failed"] / res["attempted"], "failed/attempted"),
             ("peak_rss_mb", res["peak_rss_mb"], "MB")]
    lines = [f"{workload}  {name:<14} {value:.6g} {unit}" for name, value, unit in rows]
    lines.append(f"{workload}  samples        {res['attempted']} operations "
                 f"({res['failed']} failed) in {res['units']} units of about "
                 f"{res['ops_per_unit']:.0f}; rates and percentiles are per unit, "
                 f"median over units")
    lines.append(f"{workload}  errors         {json.dumps(res['errors'])} "
                 f"clamp_warnings={res['clamp_warnings']}")
    lines.append(f"{workload}  checks         {json.dumps(res['checks'])}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and fewer set-up samples, for the smoke test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    if not (ROOT / "src" / "fdrelay" / "__init__.py").is_file():
        print(f"error: no fdrelay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        setups = []
        if not args.trace:
            for _ in range((2 if args.tiny else SETUP_SAMPLES) - 1):
                setups.append(run_child(args, env, deadline, setup_only=True))
        res = run_child(args, env, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res)
    setup_s = statistics.median(s["setup_s"] for s in setups)
    setup_raw_s = statistics.median(s["setup_raw_s"] for s in setups)

    if args.trace:
        metrics = res["layers"]
        lines = [f"{args.workload}  {name:<40} {m['value']:.6g} {m['unit']}"
                 for name, m in metrics.items()]
        if res["absent"]:
            lines.append(f"{args.workload}  absent: {' '.join(res['absent'])}")
    else:
        values = {**res, "setup_s": setup_s}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        lines = report_lines(args.workload, res, setup_s, setup_raw_s)
    ctx = context(env, res["numpy"])
    if "csv_sha256" in res:
        ctx["csv_sha256"] = res["csv_sha256"]
    final = {"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
             "failed": int(res["failed"]), "metrics": metrics}

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "context": ctx, "setup_samples": [
            {k: s[k] for k in ("setup_s", "setup_raw_s", "host_speed")} for s in setups],
                    "child": res, "result": final}, indent=2) + "\n")
    for line in lines:
        print(line)
    print("context " + json.dumps(ctx, sort_keys=True))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
