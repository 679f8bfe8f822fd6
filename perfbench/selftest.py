"""Self-test of the benchmark, from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload in quick mode (one timed pass, then one traced pass)
and checks that every metric named in BENCHMARK.json is printed with its
unit, that each workload stresses the layer it was chosen for, that traced
call counters repeat exactly across two traced runs, that the span tree is
well formed, and that the checker counts a corrupted recorded digest and a
wrong expected exit code as failures.  Takes about two minutes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
from check import Checker  # noqa: E402
from run import WORKLOADS  # noqa: E402
from worker import Runner  # noqa: E402
from workloads import STRESSES, Call  # noqa: E402

problems = []


def require(ok, message):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        problems.append(message)


def bench(*args):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seconds", "0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def load_spans(workload):
    with open(os.path.join(ROOT, ".perfbench_run", f"{workload}-traced", "spans.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["names"], doc["spans"]


def check_metrics(spec, result, workloads):
    for w in workloads:
        named = spec["end_to_end"] + spec["per_layer"]
        missing = [
            m["name"] for m in named if result["metrics"].get(f"{w}.{m['name']}", {}).get("unit") != m["unit"]
        ]
        require(not missing, f"{w}: all {len(named)} metrics printed with their units" + (f"; not {missing}" if missing else ""))


def check_traces(result, workloads):
    for w in workloads:
        names, spans = load_spans(w)
        require(not tracing.malformed(spans), f"{w}: every span lies inside its parent")
        stats = tracing.summarize(names, spans)
        require(all(s["self_s"] >= 0 for s in stats.values()), f"{w}: every self_s >= 0")
        if w in STRESSES:
            metric = STRESSES[w]
            traced_wall = stats["cli.main"]["total_s"]
            share = result["metrics"][f"{w}.{metric}"]["value"] / traced_wall
            require(share > 0.5, f"{w}: {metric} is {share:.0%} of the traced calls")
    for w in ("wide-s3", "eigen-big"):
        calls = result["metrics"][f"{w}.decomposition.enumerate_ideals.calls"]["value"]
        require(calls == 0, f"{w}: enumerate_ideals.calls is 0")


def check_counts_repeat(first, workloads):
    for w in workloads:
        again = bench("--workload", w, "--trace", "1")
        same = all(
            again["metrics"][k]["value"] == first["metrics"][f"{w}.{k}"]["value"]
            for k in tracing.PER_LAYER
            if not k.endswith("_s")
        )
        require(same, f"{w}: traced counters repeat exactly across two runs")


def check_checker():
    """A corrupted recorded digest and a wrong expected exit code both fail."""
    from hlra import fixtures

    rundir = os.path.join(ROOT, ".perfbench_run", "selftest")
    os.makedirs(rundir, exist_ok=True)
    fixtures.write_bundled(rundir)
    good = Call(("validate", "fix_b.json", "--format", "json"), fixed=True)
    wrong_code = Call(("validate", "fix_e.json", "--strict", "--format", "json"), code=0, fixed=True)
    cwd = os.getcwd()
    os.chdir(rundir)
    try:
        honest = Runner([[good]], Checker(None, check_seeded=False))
        honest.one_pass()
        require(honest.failed == 0, "checker passes a correct call")
        corrupt = Runner([[good]], Checker({good.key: "0" * 64}, check_seeded=False))
        corrupt.one_pass()
        require(corrupt.failed == 1, "checker counts a corrupted recorded digest as a failure")
        coded = Runner([[wrong_code]], Checker(None, check_seeded=False))
        coded.one_pass()
        require(coded.failed == 1, "checker counts a wrong expected exit code as a failure")
    finally:
        os.chdir(cwd)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    require({w["name"] for w in spec["workloads"]} <= set(WORKLOADS), "BENCHMARK.json names only known workloads")
    check_checker()
    result = bench("--workload", "all")
    require(result["correct"] and result["failed"] == 0, "quick run of every workload is correct")
    check_metrics(spec, result, WORKLOADS)
    check_traces(result, WORKLOADS)
    check_counts_repeat(result, [w for w in WORKLOADS if w != "enum-s2"])
    if problems:
        raise SystemExit(f"{len(problems)} self-test checks failed")
    print("self-test passed")


if __name__ == "__main__":
    main()
