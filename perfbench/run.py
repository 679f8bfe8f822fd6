"""hlra benchmark: seeded workloads through `hlra.cli.main`, timed end to end,
with a separate traced run for the per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, both runs

Run it from the root of a checkout; it imports hlra from the checkout's src.
The load is a closed loop with one caller: each workload runs in its own
fresh single-threaded child process (worker.py), one after another.  With
--trace 0 it reports the end-to-end metrics, with --trace 1 the per-layer
metrics.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Inputs, results and spans of the last run
of each workload stay in .perfbench_run/ for inspection.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# BENCHMARK.json gates enum-s2 and eigen-big.  wide-s3 and mixed-small run by
# name or with --workload all; their run-to-run spread on a shared host was
# too wide for the regression bounds.
WORKLOADS = ("enum-s2", "wide-s3", "eigen-big", "mixed-small")
END_TO_END = (
    ("wall_s", "s"),
    ("cmd_p50_ms", "ms"),
    ("cmd_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_RUNS = 16
CHILD_TIMEOUT_S = 170
IMPORT_CLI = "import time, hlra.cli; print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))"


def child_env():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hlra", "cli.py")):
        raise SystemExit(f"perfbench: {src}/hlra/cli.py not found; run from a checkout of the repository")
    # a fixed hash seed makes the traced call counts repeat exactly
    return dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")


def setup_times(env, runs):
    """Times from starting a fresh interpreter until `import hlra.cli`
    returns, one per interpreter."""
    times = []
    for _ in range(runs):
        t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_CLI], env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=60, check=True,
        )
        times.append((int(done.stdout) - t0) / 1e9)
    return times


def run_worker(env, workload, seed, seconds, traced):
    rundir = os.path.join(ROOT, ".perfbench_run", workload + ("-traced" if traced else ""))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), str(seconds), str(int(traced)), rundir]
    try:
        subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        raise SystemExit(f"perfbench: {workload} worker did not finish: {err}")
    with open(os.path.join(rundir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def tail(latencies):
    """Highest percentile with at least 10 samples beyond it, but never
    below p90 (nearest rank), as (value, percentile, samples beyond).  With
    fewer than 100 samples it has fewer than 10 beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - 10, math.ceil(0.9 * n))
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def end_to_end(res, setup_s):
    n = len(res["latencies"])
    tail_s, pct, beyond = tail(res["latencies"])
    values = {
        "wall_s": statistics.median(res["walls"]),
        "cmd_p50_ms": statistics.median(res["latencies"]) * 1000,
        "cmd_tail_ms": tail_s * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": res["maxrss_kb"] / 1024,
    }
    notes = {
        "wall_s": f"median of {len(res['walls'])} passes",
        "cmd_p50_ms": f"median of {n} calls",
        "cmd_tail_ms": f"p{pct:.1f} of {n} calls, {beyond} beyond",
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters, half of them after the timed passes",
        "peak_rss_mb": "ru_maxrss after the untimed pass",
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, notes


def run_one(env, workload, seed, seconds, traced):
    """(metrics, notes, result) for one workload run."""
    if traced:
        res = run_worker(env, workload, seed, seconds, True)
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in res["layer"].items()}
        return metrics, {}, res
    # half the interpreters start before the timed passes and half after,
    # so setup_s samples the host's speed at both ends of the run
    before = setup_times(env, SETUP_RUNS // 2)
    res = run_worker(env, workload, seed, seconds, False)
    setup_s = statistics.median(before + setup_times(env, SETUP_RUNS - SETUP_RUNS // 2))
    metrics, notes = end_to_end(res, setup_s)
    return metrics, notes, res


def report(workload, seed, traced, metrics, notes, res):
    kind = "traced" if traced else "untraced"
    print(f"{workload} seed {seed} ({kind}): {res['attempted']} calls, inputs built in {res['gen_s']:.4f} s")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} {m['value']:.6g} {m['unit']}{note}")
    frac = res["failed"] / res["attempted"]
    print(f"  fail_frac {frac:.6g} ({res['failed']} of {res['attempted']})")
    for problem in res["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="ignored with --workload all, which runs both")
    args = p.parse_args(argv)
    env = child_env()
    runs = (
        [(w, t) for w in WORKLOADS for t in (False, True)]
        if args.workload == "all"
        else [(args.workload, bool(args.trace))]
    )
    attempted = failed = 0
    combined = {}
    for workload, traced in runs:
        metrics, notes, res = run_one(env, workload, args.seed, args.seconds, traced)
        report(workload, args.seed, traced, metrics, notes, res)
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = f"{workload}." if args.workload == "all" else ""
        combined.update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}))


if __name__ == "__main__":
    main()
