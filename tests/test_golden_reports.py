"""Byte-for-byte report gate: every command's stdout on every bundled file.

tests/golden_reports.json maps "<command> <file> --format <fmt>" to the exit
code and the sha256 of stdout, run in-process through `hlra.cli.main` from a
directory holding copies of the bundled files, named relatively.  A change
to any report byte fails this test.  After an intended report change,
re-record with

    PYTHONPATH=src python tests/test_golden_reports.py
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

from hlra import cli

GOLDEN = Path(__file__).with_name("golden_reports.json")
COMMANDS = ("validate", "decompose", "analyze", "connect", "j")
FORMATS = ("text", "json")


def report_digests(workdir):
    """Copy the bundled files into workdir and run every command on them;
    returns {argv: [exit code, stdout sha256]}."""
    data = importlib.resources.files("hlra") / "data"
    names = sorted(f.name for f in data.iterdir() if f.name.endswith(".json"))
    for name in names:
        (Path(workdir) / name).write_text((data / name).read_text(), encoding="utf-8")
    out = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name in names:
            for command in COMMANDS:
                for fmt in FORMATS:
                    argv = [command, name, "--format", fmt]
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main(argv)
                    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
                    out[" ".join(argv)] = [code, digest]
    finally:
        os.chdir(cwd)
    return out


def test_every_bundled_report_is_unchanged(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = report_digests(tmp_path)
    assert sorted(got) == sorted(golden)
    changed = sorted(k for k in golden if got[k] != golden[k])
    assert not changed, changed


if __name__ == "__main__":
    workdir = tempfile.mkdtemp()
    try:
        digests = report_digests(workdir)
    finally:
        shutil.rmtree(workdir)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
