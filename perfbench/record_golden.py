"""Record the stdout digest of every call of every workload at the default
seed into golden.json.

    PYTHONPATH=src python3 perfbench/record_golden.py

Run it on the commit whose reports are the reference.  The checker compares
every later run at the default seed, and every call whose input does not
depend on the seed at any seed, against these digests.  It refuses to record
when a call breaks an expected exit code or a fact known from construction.
"""

import json
import os
import shutil

from check import Checker, sha256
from worker import HERE, invoke
from workloads import DEFAULT_SEED, WORKLOADS


def main():
    rundir = os.path.join(os.path.dirname(HERE), ".perfbench_run", "record")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    golden = {}
    for workload, build in WORKLOADS.items():
        cycle = build(DEFAULT_SEED, rundir)
        checker = Checker(None, check_seeded=False)
        cwd = os.getcwd()
        os.chdir(rundir)
        try:
            digests = {}
            for calls in cycle:
                for call in calls:
                    _dt, code, out, exc = invoke(call.argv)
                    problems = checker.check(call, code, out, exc)
                    if problems:
                        raise SystemExit("\n".join(problems))
                    digests[call.key] = sha256(out.encode("utf-8"))
        finally:
            os.chdir(cwd)
        golden[workload] = digests
        print(f"{workload}: {len(digests)} calls")
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
