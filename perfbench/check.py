"""Output checks for benchmark calls.

A call fails on a wrong exit code, an exception escaping `cli.main`, stdout
that differs from an earlier repetition or from the digest recorded at the
seed commit, a JSON report whose input digest is not the benchmark's own
digest of the input bytes, or a fact known from construction that the
output contradicts.
"""

import hashlib
import json
from fractions import Fraction

# commands whose report states the sha256 of each input file
REPORT_COMMANDS = ("validate", "decompose", "analyze", "connect", "j", "morphism")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def _reported_roots(out, fmt):
    """(roots, dims, split) as the report states them."""
    if fmt == "json":
        doc = json.loads(out)
        return [r["root"] for r in doc["roots"]], [r["dim"] for r in doc["roots"]], doc["split"] is True
    roots, dims, split = [], [], False
    for line in out.splitlines():
        if line.startswith("roots ("):
            for item in line.split(": ", 1)[1].split("; "):
                root, dim = item.rsplit(" dim ", 1)
                roots.append(root)
                dims.append(int(dim))
        split = split or line == "split: yes"
    return roots, dims, split


def _reported_digests(out, fmt, command):
    if fmt == "json":
        doc = json.loads(out)
        keys = ("source_sha256", "target_sha256") if command == "morphism" else ("sha256",)
        return [doc[k] for k in keys]
    return [line[len("sha256: "):] for line in out.splitlines() if line.startswith("sha256: ")]


class Checker:
    """Checks call results.  `golden` maps call keys to recorded stdout
    digests (None while recording them); `check_seeded` says whether the
    recording applies to inputs that depend on the seed, which holds only
    at the recorded seed."""

    def __init__(self, golden, check_seeded):
        self.golden = golden
        self.check_seeded = check_seeded
        self.seen = {}
        self.input_digests = {}

    def _input_digest(self, name):
        if name not in self.input_digests:
            with open(name, "rb") as fh:
                self.input_digests[name] = sha256(fh.read())
        return self.input_digests[name]

    def check(self, call, code, out, exc):
        """Problems with one call's result; empty when everything holds."""
        if exc is not None:
            return [f"{call.key}: raised {type(exc).__name__}: {exc}"]
        problems = []
        if code != call.code:
            problems.append(f"exit {code}, expected {call.code}")
        digest = sha256(out.encode("utf-8"))
        if self.seen.setdefault(call.key, digest) != digest:
            problems.append("stdout differs from an earlier repetition")
        if self.golden is not None and (call.fixed or self.check_seeded):
            recorded = self.golden.get(call.key)
            if recorded is None:
                problems.append("no recorded stdout digest")
            elif recorded != digest:
                problems.append("stdout differs from the digest recorded at the seed commit")
        if code in (0, 1) and not problems:
            try:
                problems.extend(self._facts(call, out))
            except (ValueError, KeyError, TypeError) as err:
                problems.append(f"unreadable output: {err!r}")
        return [f"{call.key}: {p}" for p in problems]

    def _facts(self, call, out):
        fmt = call.argv[call.argv.index("--format") + 1] if "--format" in call.argv else None
        command = call.argv[0]
        if command in REPORT_COMMANDS:
            want = [self._input_digest(n) for n in call.files]
            if _reported_digests(out, fmt, command) != want:
                yield "reported sha256 differs from the digest of the input bytes"
        if call.roots is not None:
            roots, dims, split = _reported_roots(out, fmt)
            if len(roots) != len(call.roots) or set(roots) != call.roots:
                yield f"roots {sorted(roots)}, expected {sorted(call.roots)}"
            if any(d != 1 for d in dims):
                yield f"root space dims {dims}, expected all 1"
            if not split:
                yield "not reported split"
        if call.psi is not None:
            psi = [[Fraction(x) for x in row] for row in json.loads(out)["psi"]]
            if psi != [[Fraction(x) for x in row] for row in call.psi]:
                yield "twist emitted a psi other than the matrix passed in"
        if call.dim_l is not None and json.loads(out)["dimL"] != call.dim_l:
            yield f"dimL differs from {call.dim_l}"
