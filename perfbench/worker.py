"""One workload in a fresh single-threaded process: build the seeded inputs,
run one untimed pass, then timed passes through `hlra.cli.main` in-process,
and check every call.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE RUNDIR

`hlra` must be importable (run.py puts the checkout's src first on
PYTHONPATH).  Writes RUNDIR/result.json and, when TRACE is 1, the spans of
the first traced pass to RUNDIR/spans.json.
"""

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

from hlra import cli

import tracing
from check import Checker
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def invoke(argv):
    """(seconds, exit code, stdout, exception) of one in-process CLI call."""
    out = io.StringIO()
    code = exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
        except Exception as e:  # a traceback is a failed call, not a crash
            exc = e
        elapsed = time.perf_counter() - t0
    return elapsed, code, out.getvalue(), exc


class Runner:
    def __init__(self, cycle, checker):
        self.cycle = cycle
        self.checker = checker
        self.index = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, problems):
        self.failed += 1
        self.problems.extend(problems)

    def one_pass(self):
        """Run the next command list of the cycle; (pass seconds, call seconds)."""
        calls = self.cycle[self.index % len(self.cycle)]
        self.index += 1
        t0 = time.perf_counter()
        results = [invoke(call.argv) for call in calls]
        wall = time.perf_counter() - t0
        for call, (_dt, code, out, exc) in zip(calls, results):
            self.attempted += 1
            problems = self.checker.check(call, code, out, exc)
            if problems:
                self.fail(problems)
        return wall, [r[0] for r in results]

    def timed(self, seconds):
        """Passes until `seconds` have gone by, at least one."""
        walls, latencies = [], []
        deadline = time.perf_counter() + seconds
        while True:
            wall, lat = self.one_pass()
            walls.append(wall)
            latencies.extend(lat)
            if time.perf_counter() >= deadline:
                return walls, latencies


def load_golden(workload):
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def traced_passes(runner, seconds, rundir):
    """Traced passes for `seconds`; per-layer metrics and traced pass walls."""
    tracer = tracing.Tracer()
    tracer.install()
    per_pass, walls, counts, first = [], [], {}, None
    deadline = time.perf_counter() + seconds
    try:
        while True:
            slot = runner.index % len(runner.cycle)
            wall, _lat = runner.one_pass()
            spans = tracer.take()
            if first is None:
                first = spans
            metrics = tracing.layer_metrics(tracer.names, spans)
            got = {k: v for k, v in metrics.items() if not k.endswith("_s")}
            if counts.setdefault(slot, got) != got:
                runner.fail(["trace: counters differ between two runs of the same pass"])
            per_pass.append(metrics)
            walls.append(wall)
            if time.perf_counter() >= deadline:
                break
    finally:
        tracer.uninstall()
    with open(os.path.join(rundir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump({"names": tracer.names, "spans": first}, fh, separators=(",", ":"))
    layer = {}
    for metric in tracing.PER_LAYER:
        values = [m[metric] for m in per_pass]
        layer[metric] = statistics.median(values) if metric.endswith("_s") else values[0]
    return layer, walls


def main(workload, seed, seconds, traced, rundir):
    t0 = time.perf_counter()
    cycle = WORKLOADS[workload](seed, rundir)
    gen_s = time.perf_counter() - t0
    os.chdir(rundir)
    runner = Runner(cycle, Checker(load_golden(workload), check_seeded=seed == DEFAULT_SEED))
    runner.one_pass()  # untimed
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"gen_s": gen_s, "maxrss_kb": maxrss_kb}
    if traced:
        walls, _lat = runner.timed(seconds / 2)
        layer, traced_walls = traced_passes(runner, seconds / 2, rundir)
        layer["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1
        result.update(layer=layer)
    else:
        walls, latencies = runner.timed(seconds)
        result.update(walls=walls, latencies=latencies)
    result.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems[:20])
    with open(os.path.join(rundir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    name, seed, seconds, traced, rundir = sys.argv[1:]
    main(name, int(seed), float(seconds), traced == "1", rundir)
