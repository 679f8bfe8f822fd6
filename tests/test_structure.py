"""J-split, structure profile, two-ideal split theorem, simple components."""

import dataclasses
from fractions import Fraction

import pytest

from hlra import fixtures, structure
from hlra.claims import CLAIM_TITLES, DESCRIPTIVE_CLAIMS, FAIL, PASS, ClaimResult
from hlra.decomposition import weight_inner_sum
from hlra.linalg import Subspace
from hlra.model import InputError, annihilator_Z, compute_J, twist_by_endomorphism
from hlra.roots import CartanError, RootDecomposition, root_decomposition, weight_decomposition
from hlra.structure import (
    Analysis,
    j_split,
    run_structure,
    verify_cor_5_13,
    verify_lemma_5_1,
    verify_pairing_5_9,
    verify_theorem_5_12,
)

from conftest import SPLIT_NAMES
from oracles import entry_bilinear, seeded_transport

F = Fraction

# name -> (root_multiplicative, tight, maximal_length, Z_Lie dim)
PROFILES = {
    "fix_a": ((1, 1, 1, 1), (0, 1, 1, 1, 0, 0), 1, 2),
    "fix_b": ((1, 1, 1, 1), (1, 1, 1, 1, 0, 0), 1, 0),
    "fix_d": ((1, 1, 1, 1), (1, 1, 1, 1, 0, 0), 1, 0),
    "fix_e": ((1, 1, 1, 1), (1, 1, 1, 1, 1, 0), 1, 0),
    "fix_c_split": ((1, 1, 1, 1), (1, 1, 1, 1, 0, 0), 1, 0),
    "fix_s": ((1, 1, 1, 1), (1, 1, 1, 1, 0, 0), 1, 0),
    "fix_w": ((1, 1, 1, 1), (1, 1, 1, 1, 0, 0), 1, 0),
    "fix_p": ((1, 1, 1, 1), (1, 1, 1, 1, 0, 0), 1, 0),
    "fix_t": ((1, 1, 0, 1), (1, 0, 0, 0, 0, 1), 1, 0),
    "fix_zero": ((1, 1, 1, 1), (1, 1, 1, 1, 1, 1), 1, 0),
    "fix_b2": ((1, 1, 1, 1), (1, 1, 1, 1, 0, 0), 1, 0),
    "fix_e2": ((1, 1, 1, 1), (1, 1, 1, 1, 1, 0), 1, 0),
    "fix_s2": ((1, 1, 1, 1), (1, 1, 1, 1, 0, 0), 1, 0),
    "fix_p2": ((1, 1, 1, 1), (1, 1, 1, 1, 0, 0), 1, 0),
}


def setup(bundled, name):
    h = bundled[name]
    rd = root_decomposition(h)
    wd = weight_decomposition(h, rd)
    js = j_split(rd, compute_J(h))
    return h, rd, wd, js


@pytest.fixture(scope="module")
def analyses(bundled):
    out = {}
    for name in SPLIT_NAMES:
        h = bundled[name]
        rd = root_decomposition(h)
        out[name] = Analysis(h, rd, weight_decomposition(h, rd))
    return out


@pytest.fixture(scope="module")
def reports(analyses):
    return {name: (a.h, a.rd, a.wd, run_structure(a)) for name, a in analyses.items()}


def test_profiles(analyses):
    for name, (rm, tight, ml, zdim) in PROFILES.items():
        prof = analyses[name].profile
        assert tuple(int(b) for b in prof.root_multiplicative) == rm, name
        assert tuple(int(b) for b in prof.tight) == tight, name
        assert int(prof.maximal_length) == ml, name
        assert prof.Z_Lie.dim == zdim, name


def test_annihilator_sits_inside_lie_annihilator(analyses):
    for name, a in analyses.items():
        assert a.profile.Z_Lie.contains_space(annihilator_Z(a.h)), name


def test_j_split_values(analyses):
    js = analyses["fix_s"].js
    assert js.gamma_J == ((F(-2),), (F(2),))
    assert js.gamma_notJ == ((F(-1),), (F(1),))
    assert js.clean and js.graded
    js = analyses["fix_c_split"].js
    assert js.gamma_J == ((F(2),),)
    assert js.gamma_notJ == ((F(1),),)
    js = analyses["fix_e"].js
    assert js.gamma_J == ()
    assert len(js.gamma_notJ) == 2


def test_j_split_covers_gamma(analyses):
    for name, a in analyses.items():
        both = sorted(a.js.gamma_J + a.js.gamma_notJ)
        assert both == a.rd.gamma, name
        assert not (set(a.js.gamma_J) & set(a.js.gamma_notJ)), name


def test_refusals_name_the_exact_clauses(reports):
    got = {c.claim_id: c for c in reports["fix_s"][3].claims}
    assert got["thm5.12"].status == "REFUSED"
    assert (
        got["thm5.12"].detail
        == "hypotheses not met: tightness clause 5 fails (tight.5); tightness clause 6 fails (tight.6)"
    )
    got = {c.claim_id: c for c in reports["fix_e"][3].claims}
    assert got["thm5.12"].detail == "hypotheses not met: tightness clause 6 fails (tight.6)"
    got = {c.claim_id: c for c in reports["fix_t"][3].claims}
    assert "root multiplicativity clause 3 fails (def5.3.3)" in got["thm5.12"].detail


def test_descriptive_failures_on_the_action_gap_fixture(reports):
    got = {c.claim_id: c for c in reports["fix_t"][3].claims}
    assert got["def5.3.3"].status == "FAIL"
    assert got["def5.3.3"].detail == "weight (1) acts as zero on root (-2)"
    assert got["tight.2"].status == "FAIL"
    assert got["tight.1"].status == "PASS"


def test_every_descriptive_claim_id_is_in_the_catalog():
    """analyze exits 0 on a failing descriptive clause, so a misspelt id here
    would silently turn that clause into a failed statement."""
    assert DESCRIPTIVE_CLAIMS and DESCRIPTIVE_CLAIMS <= CLAIM_TITLES.keys()


def test_zero_algebra_satisfies_everything_vacuously(reports, analyses):
    _, _, _, st = reports["fix_zero"]
    got = {c.claim_id: c for c in st.claims}
    assert not any(c.failed for c in st.claims)
    assert got["thm5.12"].status == "PASS"
    assert got["thm5.12"].detail == "1 seed ideals inside J, every branch verified"
    assert got["cor5.13"].status == "PASS"
    assert got["cor5.13"].detail == "0 simple components, scalar side 0, pairing well defined"
    assert all(analyses["fix_zero"].profile.tight)


def _tightness_inputs():
    """(label, algebra): the bundled files, `random_instance` seeds 0-39
    plain and twisted by their own pair, and four transported files."""
    out = [(name, make()) for name, make in sorted(fixtures.BUNDLED.items())]
    for seed in range(40):
        h, g, f = fixtures.random_instance(seed)
        out += [(f"seed{seed}", h), (f"seed{seed} twisted", twist_by_endomorphism(h, g, f))]
    for seed, name in enumerate(("fix_s", "fix_p2", "fix_e", "fix_t")):
        out.append((f"{name} transported {seed}", seeded_transport(fixtures.BUNDLED[name](), seed)))
    return out


def _nilpotent(h, a):
    """a^(dimA + 1) = 0, which holds exactly when a is nilpotent."""
    power = a
    for _ in range(h.dimA):
        power = entry_bilinear(h.mul, power, a, h.dimA)
    return not any(power)


def test_tight_3_and_6_together_force_the_zero_algebra():
    """On a split input every weight vector of nonzero weight is nilpotent,
    and so is the part of A0 that tight.6 asks to be all of A0; so tight.6
    makes A nilpotent, tight.3 (AA = A) then forces A = 0 and tight.4
    (A.L = L) forces L = 0."""
    split, both = [], []
    for label, h in _tightness_inputs():
        try:
            rd = root_decomposition(h)
            wd = weight_decomposition(h, rd)
        except (CartanError, InputError):
            continue
        if not (rd.split and wd.split):
            continue
        split.append(label)
        a = Analysis(h, rd, wd)
        generated = weight_inner_sum(h, rd, wd, wd.lam, set(a.js.gamma_notJ))
        for space in [wd.weights[w] for w in wd.lam] + [generated]:
            assert all(_nilpotent(h, v) for v in space.basis), label
        status = {c.claim_id: c.status for c in a.tight_claims}
        if status["tight.3"] == status["tight.6"] == PASS:
            assert (h.dimA, h.dimL) == (0, 0), label
            both.append(label)
    assert len(split) == 98
    assert both == ["fix_zero"]


def test_simple_core_escape_clause(reports):
    got = {c.claim_id: c for c in reports["fix_e"][3].claims}
    assert got["prop5.5"].status == "PASS"
    assert got["prop5.5"].detail == "1 enumerated ideals escape H+J, each equals L"


def test_bounded_search_is_flagged(reports):
    for name in SPLIT_NAMES:
        got = {c.claim_id: c for c in reports[name][3].claims}
        flagged = "(bounded search)" in got["lem5.1"].detail
        assert flagged == (name in {"fix_a", "fix_b2", "fix_s2", "fix_p2"}), name


def test_lemma_5_1_tests_the_seeds_only(bundled, monkeypatch):
    """One gradedness test per root: 8 on fix_s2, not one per each of its
    98 enumerated ideals, which the detail still counts."""
    h, rd, wd, _ = setup(bundled, "fix_s2")
    a = Analysis(h, rd, wd)
    assert len(a.enum.ideals) == 98
    calls = []
    graded = RootDecomposition.is_graded
    monkeypatch.setattr(RootDecomposition, "is_graded", lambda self, space: calls.append(space) or graded(self, space))
    claim = verify_lemma_5_1(a)
    assert calls == list(a.enum.seeds) and len(calls) == 8
    assert claim.status == "PASS"
    assert claim.detail == "98 enumerated ideals split into their H and root parts (bounded search)"


def test_lemma_5_1_names_a_seed_that_is_not_graded(bundled):
    h, rd, wd, _ = setup(bundled, "fix_s")
    a = Analysis(h, rd, wd)
    # h + e: the Cartan vector plus the root vector of root 1
    mixed = Subspace(5, [(1, 1, 0, 0, 0)])
    a.enum = dataclasses.replace(a.enum, seeds=(*a.enum.seeds, mixed))
    claim = verify_lemma_5_1(a)
    assert claim.status == "FAIL"
    assert claim.detail == "an ideal of dim 1 does not split into H and root parts"


def test_annihilator_refusal_for_lemma(reports):
    got = {c.claim_id: c for c in reports["fix_a"][3].claims}
    assert got["lem5.2"].status == "REFUSED"
    assert "the annihilator has dim 2" in got["lem5.2"].detail


# -- two-ideal split theorem ------------------------------------------------


def test_thm512_refuses_without_hypotheses(reports):
    st = reports["fix_s"][3]
    claim = next(c for c in st.claims if c.claim_id == "thm5.12")
    assert claim.status == "REFUSED" and st.thm512_runs == ()
    assert "tight.5" in claim.detail and "tight.6" in claim.detail


def test_run_structure_reports_what_the_verifiers_find_when_the_hypotheses_hold(bundled, monkeypatch):
    """fix_zero meets every hypothesis, so run_structure's two split claims
    are the direct verifiers' verdicts, with no assumed-hypotheses prefix,
    and it calls verify_theorem_5_12 once per seed inside J."""
    h, rd, wd, js = setup(bundled, "fix_zero")
    a = Analysis(h, rd, wd)
    seeds = [ideal for ideal in a.enum.ideals if js.J.contains_space(ideal)]
    calls = []
    direct = structure.verify_theorem_5_12
    monkeypatch.setattr(structure, "verify_theorem_5_12", lambda a, seed: calls.append(seed) or direct(a, seed))
    st = run_structure(a)
    assert calls == seeds and len(seeds) == 1
    got = {c.claim_id: c for c in st.claims}
    claims = [direct(a, seed)[0] for seed in seeds]
    assert [c.detail for c in claims] == ["[degenerate] zero seed: the whole of J serves as the complement"]
    status = PASS if all(c.status == PASS for c in claims) else FAIL
    assert got["thm5.12"] == ClaimResult("thm5.12", status, f"{len(seeds)} seed ideals inside J, every branch verified")
    cor = verify_cor_5_13(a)
    assert st.cor513 == cor and got["cor5.13"] == cor.claim
    assert not cor.claim.detail.startswith("hypotheses assumed by caller: ")


def test_only_run_structure_refuses_the_split_statements(bundled):
    h, rd, wd, js = setup(bundled, "fix_s")
    a = Analysis(h, rd, wd)
    st = run_structure(a)
    got = {c.claim_id: c for c in st.claims}
    for cid in ("thm5.12", "cor5.13"):
        assert got[cid].status == "REFUSED", cid
        assert "tight.5" in got[cid].detail and "tight.6" in got[cid].detail, cid
    assert st.cor513.components == () and st.cor513.weight_dims == ()
    claim, run = verify_theorem_5_12(a, js.J)
    assert claim.detail.startswith("hypotheses assumed by caller: ") and run.branch == "equal_J"
    assert verify_cor_5_13(a).claim.detail.startswith("hypotheses assumed by caller: ")


def test_thm512_runs_each_branch_under_assumed_hypotheses(bundled):
    h, rd, wd, js = setup(bundled, "fix_s")
    cases = [
        (Subspace.zero(5), "degenerate", "the whole of J serves as the complement"),
        (Subspace(5, ((0, 0, 0, 1, 0),)), "complement", "J = I + I' with dims 1+1=2"),
        (js.J, "equal_J", "expected I=J"),
    ]
    for seed, branch, phrase in cases:
        claim, run = verify_theorem_5_12(Analysis(h, rd, wd), seed)
        assert claim.status == "PASS", (branch, claim.detail)
        assert claim.detail.startswith("hypotheses assumed by caller: ")
        assert run.branch == branch
        assert phrase in claim.detail


def test_thm512_complement_sum_is_exact(bundled):
    h, rd, wd, js = setup(bundled, "fix_s")
    seed = Subspace(5, ((0, 0, 0, 1, 0),))
    claim, run = verify_theorem_5_12(Analysis(h, rd, wd), seed)
    assert run.I_prime is not None
    assert seed.add(run.I_prime) == js.J
    assert seed.intersect(run.I_prime).is_zero


def test_thm512_two_block_split(bundled):
    h, rd, wd, js = setup(bundled, "fix_s2")
    seed = Subspace(
        10,
        ((0, 0, 0, 1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0, 1, 0)),
    )
    claim, run = verify_theorem_5_12(Analysis(h, rd, wd), seed)
    assert claim.status == "PASS"
    assert "J = I + I' with dims 2+2=4" in claim.detail


# -- simple components ------------------------------------------------------


def test_cor513_assumed_on_two_block(bundled):
    h, rd, wd, js = setup(bundled, "fix_e2")
    cor = verify_cor_5_13(Analysis(h, rd, wd))
    assert cor.claim.detail.startswith("hypotheses assumed by caller: ")
    assert cor.claim.status == "FAIL"  # the pairing genuinely degenerates
    assert [(c.dim, c.simple_verdict) for c in cor.components] == [
        (3, "simple"),
        (3, "simple"),
    ]
    assert cor.weight_dims == (1, 1)
    assert sum(c.dim for c in cor.components) == h.dimL


def test_cor513_weight_sum_can_still_cover_a(bundled):
    h, rd, wd, js = setup(bundled, "fix_t")
    cor = verify_cor_5_13(Analysis(h, rd, wd))
    assert cor.claim.status == "FAIL"
    assert cor.weight_dims == (2,)
    assert sum(cor.weight_dims) == h.dimA


def test_cor513_pairing_when_it_works(bundled):
    h, rd, wd, js = setup(bundled, "fix_p2")
    cor = verify_cor_5_13(Analysis(h, rd, wd))
    assert [c.paired for c in cor.components] == [0, 1]
    assert "components span dim 4 of 6" in cor.claim.detail


# -- pairing counts ---------------------------------------------------------


def test_pairing_rows(reports):
    st = reports["fix_p2"][3]
    assert [(r.zero_classes, r.nonzero_classes) for r in st.pairing.rows] == [(1, 1), (1, 1)]
    st = reports["fix_e2"][3]
    assert [(r.zero_classes, r.nonzero_classes) for r in st.pairing.rows] == [(2, 0), (2, 0)]


def test_pairing_criterion_variants(bundled):
    h, rd, wd, js = setup(bundled, "fix_p2")
    rep = verify_pairing_5_9(Analysis(h, rd, wd), criterion="nonzero_unique")
    assert rep.claim.status == "PASS"
    rep = verify_pairing_5_9(Analysis(h, rd, wd), criterion="zero_unique")
    assert rep.claim.status == "PASS"
    h, rd, wd, js = setup(bundled, "fix_e")
    rep = verify_pairing_5_9(Analysis(h, rd, wd), criterion="zero_unique")
    assert rep.claim.status == "PASS"
    rep = verify_pairing_5_9(Analysis(h, rd, wd), criterion="nonzero_unique")
    assert rep.claim.status == "FAIL"
