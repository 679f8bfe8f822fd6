"""Claim snapshot: every verifier's verdicts on every split bundled file.

The report gate (tests/golden_reports.json) reaches the two-ideal split and
simple-component bodies only where their hypotheses hold, which among the
bundled files is fix_zero alone.  This snapshot also calls their verifiers
directly, which run whatever the hypotheses, so their PASS and FAIL branches
are pinned on every split bundled file:

- the (claim id, status, detail) triples of the decomposition and
  structure runs;
- the simple-component check with its components and scalar dimensions;
- the two-ideal split on every enumerated ideal inside J;
- the pairing counts under each criterion.

After an intended change to a verdict, re-record with

    PYTHONPATH=src python tests/test_golden_claims.py
"""

from pathlib import Path

from hlra import fixtures
from hlra.decomposition import run_decomposition
from hlra.roots import format_root, root_decomposition, weight_decomposition
from hlra.structure import Analysis, run_structure, verify_cor_5_13, verify_pairing_5_9, verify_theorem_5_12

from conftest import SPLIT_NAMES
from golden import assert_unchanged, record

GOLDEN = Path(__file__).with_name("golden_claims.json")


def triple(claim):
    return [claim.claim_id, claim.status, claim.detail]


def snapshot(h):
    rd = root_decomposition(h)
    wd = weight_decomposition(h, rd)
    a = Analysis(h, rd, wd)
    dec = run_decomposition(a)
    st = run_structure(a)
    cor = verify_cor_5_13(a)
    seeds = [ideal for ideal in a.enum.ideals if a.js.J.contains_space(ideal)]
    thm512 = [triple(verify_theorem_5_12(a, seed)[0]) for seed in seeds]
    pairing = {
        str(criterion): triple(verify_pairing_5_9(a, criterion=criterion).claim)
        for criterion in (None, "zero_unique", "nonzero_unique")
    }
    return {
        "decomposition": [triple(c) for c in dec.claims],
        "structure": [triple(c) for c in st.claims],
        "cor5.13_assumed": {
            "claim": triple(cor.claim),
            "components": [
                [[format_root(f) for f in c.cls], c.dim, c.simple_verdict, c.paired] for c in cor.components
            ],
            "weight_dims": list(cor.weight_dims),
        },
        "thm5.12_assumed": thm512,
        "prop5.9": pairing,
    }


def claim_snapshots():
    return {name: snapshot(fixtures.BUNDLED[name]()) for name in SPLIT_NAMES}


def test_every_claim_is_unchanged():
    assert_unchanged(GOLDEN, claim_snapshots())


if __name__ == "__main__":
    record(GOLDEN, claim_snapshots())
