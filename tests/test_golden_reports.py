"""Byte-for-byte report gate: every command's stdout on every bundled file.

tests/golden_reports.json maps "<command> <file> --format <fmt>" to the exit
code and the sha256 of stdout, run in-process through `hlra.cli.main` from a
directory holding copies of the bundled files, named relatively.  A change
to any report byte fails this test.  After an intended report change,
re-record with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from pathlib import Path

from golden import assert_unchanged, cli_digests, copy_bundled, in_tempdir, record

GOLDEN = Path(__file__).with_name("golden_reports.json")
COMMANDS = ("validate", "decompose", "analyze", "connect", "j")
FORMATS = ("text", "json")


def report_digests(workdir):
    """Copy the bundled files into workdir and run every command on them;
    returns {argv: [exit code, stdout sha256]}."""
    names = copy_bundled(workdir)
    calls = [[command, name, "--format", fmt] for name in names for command in COMMANDS for fmt in FORMATS]
    return cli_digests(workdir, calls)


def test_every_bundled_report_is_unchanged(tmp_path):
    assert_unchanged(GOLDEN, report_digests(tmp_path))


if __name__ == "__main__":
    record(GOLDEN, in_tempdir(report_digests))
