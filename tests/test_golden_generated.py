"""Byte-for-byte report gate on generated inputs: `decompose` and `analyze`.

The bundled files reach only the main path of the ideal enumeration.  These
inputs also reach the path past the subset cap, dense bases and root spaces
of dimension two:

- `product_sum([fix_s()] * 3)`, whose 12 roots are past the cap;
- `seeded_transport(fix_p2(), 1)` and `seeded_transport(fix_s(), 0)`, every
  tensor dense;
- `random_instance` seeds 8, 30, 60 and 92 twisted by their own (g, f),
  each with a two-dimensional root space;
- `random_instance` seeds 0-5 as built.

tests/golden_generated.json maps each argv to the exit code and the sha256
of stdout, run in-process through `hlra.cli.main` from a directory holding
the inputs written through `hlra.fileio`.  A change to any of those bytes
fails this test.  After an intended change, re-record with

    PYTHONPATH=src:tests python tests/test_golden_generated.py
"""

from pathlib import Path

from hlra import fixtures
from hlra.model import twist_by_endomorphism

from golden import assert_unchanged, cli_digests, in_tempdir, record, write_inputs
from oracles import seeded_transport

GOLDEN = Path(__file__).with_name("golden_generated.json")
COMMANDS = ("decompose", "analyze")
FORMATS = ("text", "json")


def _inputs():
    """{file name: algebra} for every generated input."""
    out = {
        "s_cubed.json": fixtures.product_sum([fixtures.fix_s()] * 3),
        "p2_transported1.json": seeded_transport(fixtures.fix_p2(), 1),
        "s_transported0.json": seeded_transport(fixtures.fix_s(), 0),
    }
    for seed in (8, 30, 60, 92):
        h, g, f = fixtures.random_instance(seed)
        out[f"seed{seed}_twisted.json"] = twist_by_endomorphism(h, g, f)
    for seed in range(6):
        out[f"seed{seed}.json"] = fixtures.random_instance(seed)[0]
    return out


def generated_digests(workdir):
    """Write the inputs into workdir and run every command on them; returns
    {argv: [exit code, stdout sha256]}."""
    inputs = _inputs()
    write_inputs(workdir, inputs)
    calls = [[command, name, "--format", fmt] for name in sorted(inputs) for command in COMMANDS for fmt in FORMATS]
    return cli_digests(workdir, calls)


def test_every_generated_report_is_unchanged(tmp_path):
    assert_unchanged(GOLDEN, generated_digests(tmp_path))


if __name__ == "__main__":
    record(GOLDEN, in_tempdir(generated_digests))
