"""Byte-for-byte gate on the report paths no bundled file reaches.

Every bundled file validates and splits, and tests/golden_reports.json
passes no `--cartan`, so that gate never sees the early exits of
`decompose`, `analyze` and `connect`.  This one runs, in text and JSON:

- `decompose`, `analyze` and `connect` on `fix_b` with one extra bracket
  entry, which breaks the Hom-Leibniz identity and so fails validation;
- the same three on `fix_b --cartan [[0,1]]`, whose bracket side does not
  split, and on `fix_b --cartan []`, a zero H;
- `validate`, relaxed and strict, and `j` on the broken `fix_b`.

tests/golden_paths.json maps each argv to the exit code and the sha256 of
stdout, run in-process through `hlra.cli.main` from a directory holding the
two files.  A change to any of those bytes fails this test.  After an
intended report change, re-record with

    PYTHONPATH=src python tests/test_golden_paths.py
"""

import importlib.resources
from pathlib import Path

from golden import assert_unchanged, cli_digests, in_tempdir, record

GOLDEN = Path(__file__).with_name("golden_paths.json")
FORMATS = ("text", "json")
SPLIT_COMMANDS = ("decompose", "analyze", "connect")
# [h, e] gains an h component
BROKEN = ('"bracket": [[0, 1, 1, "1"]', '"bracket": [[0, 1, 0, "1"], [0, 1, 1, "1"]')


def path_digests(workdir):
    """Write fix_b and its broken copy into workdir and run every call;
    returns {argv: [exit code, stdout sha256]}."""
    text = (importlib.resources.files("hlra") / "data" / "fix_b.json").read_text()
    broken = text.replace(*BROKEN, 1)
    assert broken != text
    (Path(workdir) / "fix_b.json").write_text(text, encoding="utf-8")
    (Path(workdir) / "fix_b_broken.json").write_text(broken, encoding="utf-8")
    argvs = [[command, "fix_b_broken.json"] for command in SPLIT_COMMANDS]
    argvs += [[command, "fix_b.json", "--cartan", H] for H in ("[[0,1]]", "[]") for command in SPLIT_COMMANDS]
    argvs += [["validate", "fix_b_broken.json"], ["validate", "fix_b_broken.json", "--strict"], ["j", "fix_b_broken.json"]]
    return cli_digests(workdir, [argv + ["--format", fmt] for argv in argvs for fmt in FORMATS])


def test_every_early_exit_report_is_unchanged(tmp_path):
    assert_unchanged(GOLDEN, path_digests(tmp_path))


if __name__ == "__main__":
    record(GOLDEN, in_tempdir(path_digests))
