"""Byte-for-byte gate on the builder commands: `twist`, `fiber` and `morphism`.

tests/golden_builders.json maps each argv to the exit code, the sha256 of
stdout and the sha256 of stderr with its `elapsed:` line removed.  The calls
run in-process through `hlra.cli.main` from a directory holding the bundled
files and, for `random_instance` seeds 0-19, each seed's algebra and its
twist by the seed's own (g, f), all written through `hlra.fileio`:

- `twist` on fix_b with fix_d's pair and on every seed with its pair;
- `morphism` on the same pairs, source and target the same file, in text
  and json;
- `fiber` on every ordered pair of bundled files and on each seed's
  (algebra, twisted algebra).

A change to any of those bytes fails this test.  After an intended change,
re-record with

    PYTHONPATH=src python tests/test_golden_builders.py
"""

import contextlib
import hashlib
import importlib.resources
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from hlra import cli, fixtures
from hlra.fileio import dumps_algebra
from hlra.model import twist_by_endomorphism

GOLDEN = Path(__file__).with_name("golden_builders.json")
SEEDS = range(20)
FIX_D_PAIR = (((1,),), ((1, 0), (0, 2)))


def _matrix_text(m):
    return json.dumps([[str(c) for c in row] for row in m])


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _calls(workdir):
    """Write the input files into workdir and list every argv to run."""
    data = importlib.resources.files("hlra") / "data"
    names = sorted(f.name for f in data.iterdir() if f.name.endswith(".json"))
    for name in names:
        (Path(workdir) / name).write_text((data / name).read_text(), encoding="utf-8")
    pairs = [("fix_b.json", *FIX_D_PAIR)]
    fibers = [(a, b) for a in names for b in names]
    for seed in SEEDS:
        h, g, f = fixtures.random_instance(seed)
        plain, twisted = f"seed{seed}.json", f"seed{seed}_twisted.json"
        (Path(workdir) / plain).write_text(dumps_algebra(h), encoding="utf-8")
        (Path(workdir) / twisted).write_text(dumps_algebra(twist_by_endomorphism(h, g, f)), encoding="utf-8")
        pairs.append((plain, g, f))
        fibers.append((plain, twisted))
    calls = []
    for name, g, f in pairs:
        calls.append(["twist", name, "--psi", _matrix_text(f), "--phi", _matrix_text(g)])
        for fmt in ("text", "json"):
            calls.append(["morphism", name, name, "--g", _matrix_text(g), "--f", _matrix_text(f), "--format", fmt])
    calls += [["fiber", a, b] for a, b in fibers]
    return calls


def builder_digests(workdir):
    """{argv: [exit code, stdout sha256, stderr sha256 without elapsed:]}."""
    calls = _calls(workdir)
    out = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in calls:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            err = "".join(line for line in stderr.getvalue().splitlines(True) if not line.startswith("elapsed:"))
            out[" ".join(argv)] = [code, _sha256(stdout.getvalue()), _sha256(err)]
    finally:
        os.chdir(cwd)
    return out


def test_every_builder_output_is_unchanged(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = builder_digests(tmp_path)
    assert sorted(got) == sorted(golden)
    changed = sorted(k for k in golden if got[k] != golden[k])
    assert not changed, changed


if __name__ == "__main__":
    workdir = tempfile.mkdtemp()
    try:
        digests = builder_digests(workdir)
    finally:
        shutil.rmtree(workdir)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
