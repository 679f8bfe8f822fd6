"""Shared code of the golden gates: run CLI calls in-process, compare a
snapshot with its golden file, and re-record one."""

import contextlib
import hashlib
import importlib.resources
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from hlra import cli
from hlra.fileio import dumps_algebra


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def copy_bundled(workdir):
    """Copy the bundled files into workdir; returns their sorted names."""
    data = importlib.resources.files("hlra") / "data"
    names = sorted(f.name for f in data.iterdir() if f.name.endswith(".json"))
    for name in names:
        (Path(workdir) / name).write_text((data / name).read_text(), encoding="utf-8")
    return names


def write_inputs(workdir, inputs):
    """Write each {file name: algebra} into workdir through hlra.fileio."""
    for name, h in inputs.items():
        (Path(workdir) / name).write_text(dumps_algebra(h), encoding="utf-8")


def cli_digests(workdir, calls, stderr=False):
    """Run each argv through `hlra.cli.main` from workdir; returns
    {argv: [exit code, stdout sha256]}, with stderr also the sha256 of
    stderr with its `elapsed:` line removed."""
    out = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in calls:
            stdout, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            row = [code, sha256(stdout.getvalue())]
            if stderr:
                lines = err.getvalue().splitlines(True)
                row.append(sha256("".join(line for line in lines if not line.startswith("elapsed:"))))
            out[" ".join(argv)] = row
    finally:
        os.chdir(cwd)
    return out


def in_tempdir(snapshot):
    """snapshot(workdir) run in a fresh temporary directory."""
    with tempfile.TemporaryDirectory() as workdir:
        return snapshot(workdir)


def assert_unchanged(path, got):
    """Fail naming every key whose value differs from the golden file."""
    golden = json.loads(path.read_text())
    got = json.loads(json.dumps(got))
    assert sorted(got) == sorted(golden)
    changed = sorted(k for k in golden if got[k] != golden[k])
    assert not changed, changed


def record(path, got):
    """Re-record the golden file at path from the snapshot got."""
    path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(got)} entries to {path}", file=sys.stderr)
