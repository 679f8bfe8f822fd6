"""Stable claim identifiers and the result record the verifiers emit.

The identifiers are opaque catalog labels fixed by the external interface.
Downstream tooling keys on them, so they must not change; the titles here
describe what each check does in structural terms.
"""

from dataclasses import dataclass

PASS = "PASS"
FAIL = "FAIL"
REFUSED = "REFUSED"
INFO = "INFO"


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    status: str
    detail: str = ""

    @property
    def failed(self):
        return self.status == FAIL


CLAIM_TITLES = {
    "eq2.1": "brackets with the symmetrized-square ideal on the right all vanish",
    "lem2.11.1": "zero root space equals the chosen abelian subalgebra",
    "lem2.11.2": "twist maps each root space onto the twisted-root space, both directions",
    "lem2.11.3": "brackets of root spaces land in the twist-shifted sum root space",
    "lem2.11.4": "products of weight spaces land in the sum weight space",
    "lem2.11.5": "weight spaces act on root spaces into the sum root space",
    "lem2.11.6": "anchors of root spaces move weight spaces into the sum weight space",
    "prop3.3.1": "each root-class ideal is closed under the bracket",
    "prop3.3.2": "each root-class ideal is stable under the twist, with equal image",
    "prop3.3.3": "each root-class ideal absorbs the scalar action",
    "prop3.3.4": "anchors out of a root-class ideal push the scalars back into it",
    "prop3.3.5": "root-class ideals from different classes bracket to zero",
    "thm3.5.1": "each root-class ideal satisfies every defining ideal condition",
    "thm3.6": "the algebra is the chosen complement plus the sum of root-class ideals",
    "cor3.8": "with zero annihilator and generated subalgebra, the sum of root-class ideals is direct",
    "prop4.3.1": "each weight-class ideal is closed under multiplication",
    "prop4.3.2": "weight-class ideals from different classes multiply to zero",
    "thm4.4.1": "each weight-class ideal is an ideal of the scalar algebra",
    "thm4.4.2": "a simple scalar algebra forces one weight class and a generated zero-weight space",
    "thm4.5": "the scalar algebra is the chosen complement plus the sum of weight-class ideals",
    "cor4.6": "with zero scalar annihilator and generated zero-weight space, the weight sum is direct",
    "def3.4": "simplicity verdict from the bounded ideal enumeration",
    "lem5.1": "every enumerated ideal splits into its subalgebra part and root parts",
    "lem5.2": "with zero annihilator, no enumerated nonzero ideal sits inside the subalgebra",
    "def5.3.1": "nonzero brackets wherever two non-square-class roots sum into the root set",
    "def5.3.2": "nonzero brackets wherever square-class and non-square-class roots sum into the square class",
    "def5.3.3": "nonzero action wherever a weight and a root sum into the root set",
    "def5.3.4": "nonzero products wherever two weights sum into the weight set",
    "def5.4": "all root and weight spaces are one-dimensional",
    "prop5.5": "under the generation hypotheses, no enumerated ideal avoids the square part without being everything",
    "def5.6": "bracket-and-anchor annihilator of the non-square part",
    "tight.1": "the non-square annihilator vanishes",
    "tight.2": "the scalar annihilator vanishes",
    "tight.3": "the scalar algebra regenerates itself",
    "tight.4": "the scalars regenerate the whole algebra",
    "tight.5": "the subalgebra is generated by opposite-root products",
    "tight.6": "the zero-weight space is generated by anchor images and opposite-weight products",
    "thm5.12": "every ideal inside the square ideal is all of it or splits it in two",
    "cor5.13": "the algebra decomposes into simple pieces matched with weight pieces",
    "prop5.9": "pairing counts between weight-class ideals and root-class ideals",
}


# claims that describe which structural profile an instance has, as opposed
# to claims asserting a statement that must hold once its hypotheses do
DESCRIPTIVE_CLAIMS = frozenset(
    {
        "def5.3.1",
        "def5.3.2",
        "def5.3.3",
        "def5.3.4",
        "def5.4",
        "def5.6",
        "tight.1",
        "tight.2",
        "tight.3",
        "tight.4",
        "tight.5",
        "tight.6",
    }
)


def title(claim_id):
    return CLAIM_TITLES.get(claim_id, "")
