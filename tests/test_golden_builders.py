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

import json
from pathlib import Path

from hlra import fixtures
from hlra.model import twist_by_endomorphism

from golden import assert_unchanged, cli_digests, copy_bundled, in_tempdir, record, write_inputs

GOLDEN = Path(__file__).with_name("golden_builders.json")
SEEDS = range(20)
FIX_D_PAIR = (((1,),), ((1, 0), (0, 2)))


def _matrix_text(m):
    return json.dumps([[str(c) for c in row] for row in m])


def _calls(workdir):
    """Write the input files into workdir and list every argv to run."""
    names = copy_bundled(workdir)
    pairs = [("fix_b.json", *FIX_D_PAIR)]
    fibers = [(a, b) for a in names for b in names]
    for seed in SEEDS:
        h, g, f = fixtures.random_instance(seed)
        plain, twisted = f"seed{seed}.json", f"seed{seed}_twisted.json"
        write_inputs(workdir, {plain: h, twisted: twist_by_endomorphism(h, g, f)})
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
    return cli_digests(workdir, _calls(workdir), stderr=True)


def test_every_builder_output_is_unchanged(tmp_path):
    assert_unchanged(GOLDEN, builder_digests(tmp_path))


if __name__ == "__main__":
    record(GOLDEN, in_tempdir(builder_digests))
