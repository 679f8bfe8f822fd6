"""Acceptance gate.

One test per shipped guarantee, one printed pass/fail line each.  Every
comparison in here is exact rational equality; nothing is approximate.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from hlra import cli, fixtures
from hlra.connections import (
    root_partition,
    roots_connected,
    validate_root_chain,
    validate_weight_chain,
    weight_partition,
    weights_connected,
)
from hlra.decomposition import run_decomposition
from hlra.linalg import mat_inverse
from hlra.model import (
    STRICT,
    annihilator_Z,
    check_morphism,
    compute_J,
    twist_by_endomorphism,
    validate_hlr,
)
from hlra.roots import root_decomposition, verify_lemma_closures, weight_decomposition
from hlra.structure import Analysis, j_split, run_structure, verify_cor_5_13, verify_theorem_5_12

from conftest import SPLIT_NAMES
from oracles import brute_force_root_connected, brute_force_weight_connected, same_class

F = Fraction


def emit(capsys, num, title, problems, note=""):
    status = "pass" if not problems else "FAIL"
    tail = f" ({note})" if note else ""
    with capsys.disabled():
        print(f"criterion {num} [{status}] {title}{tail}")
    assert not problems, problems


@pytest.fixture(scope="module")
def decomps(bundled):
    out = {}
    for name in SPLIT_NAMES:
        h = bundled[name]
        rd = root_decomposition(h)
        wd = weight_decomposition(h, rd)
        out[name] = (h, rd, wd)
    return out


# -- 1: axiom soundness and mutation sensitivity ----------------------------


def tensor_mutations(h):
    for field in ("bracket", "mul", "action", "anchor"):
        t = getattr(h, field)
        for idx, v in sorted(t.items()):
            yield field, idx, dataclasses.replace(h, **{field: {**t, idx: v + 1}})


def detected(mut):
    if not validate_hlr(mut, strictness=STRICT).ok:
        return True
    jrep = compute_J(mut)
    return not (jrep.closure and jrep.L_bracket_J_zero and jrep.J_bracket_L_zero)


def test_criterion_1_axiom_and_mutation_sensitivity(capsys, bundled):
    problems = []
    for name in ("fix_a", "fix_b", "fix_c", "fix_d", "fix_e"):
        if not validate_hlr(bundled[name]).ok:
            problems.append(f"{name} does not validate")

    counts = {}
    escapes = []
    for name in ("fix_b", "fix_c"):
        counts[name] = 0
        for field, idx, mut in tensor_mutations(bundled[name]):
            counts[name] += 1
            if not detected(mut):
                escapes.append((name, field, idx))
    if counts != {"fix_b": 5, "fix_c": 4}:
        problems.append(f"unexpected constant counts {counts}")
    if escapes != [("fix_c", "bracket", (0, 0, 1))]:
        problems.append(f"unexpected escape set {escapes}")

    # the one escape is [x,x] = 2y, the same algebra written in the basis
    # x, 2y; prove that instead of pretending an axiom catches it
    c = bundled["fix_c"]
    _, _, mut = next(
        m for m in tensor_mutations(c) if m[0] == "bracket" and m[1] == (0, 0, 1)
    )
    f = ((F(1), F(0)), (F(0), F(2)))
    res = check_morphism(((F(1),),), f, c, mut)
    if not all(ck.status == "pass" for ck in res):
        problems.append("doubling map is not a morphism")
    if mat_inverse(f) is None:
        problems.append("doubling map is not invertible")

    emit(
        capsys,
        1,
        "every +1 structure-constant mutation is detected",
        problems,
        "9 constants, 1 escape proven isomorphic",
    )


# -- 2: twisting by endomorphism pairs preserves validity --------------------


def test_criterion_2_twisting_preserves_validity(capsys, bundled):
    problems = []
    rng = random.Random(97)

    def nz():
        return F(rng.randint(1, 5) * rng.choice((1, -1)), rng.randint(1, 4))

    for _ in range(3):
        tw = twist_by_endomorphism(
            bundled["fix_b"], ((F(1),),), ((F(1), F(0)), (F(0), nz()))
        )
        if not validate_hlr(tw, strictness=STRICT).ok:
            problems.append("twisted fix_b invalid")
    for _ in range(3):
        c = nz()
        f = ((F(1), 0, 0), (0, c, 0), (0, 0, 1 / c))
        g = ((F(1), 0), (0, nz()))
        if not validate_hlr(twist_by_endomorphism(bundled["fix_e"], g, f)).ok:
            problems.append("twisted fix_e invalid")
    for seed in range(20):
        h, g, f = fixtures.random_instance(seed)
        if not validate_hlr(h, strictness=STRICT).ok:
            problems.append(f"random instance {seed} invalid before twisting")
        tw = twist_by_endomorphism(h, g, f)
        if not validate_hlr(tw, strictness=STRICT).ok:
            problems.append(f"random instance {seed} invalid after twisting")

    emit(
        capsys,
        2,
        "twisted outputs all validate",
        problems,
        "fix_b, fix_e, 20 random instances",
    )


# -- 3: root and weight space closure identities -----------------------------


def test_criterion_3_closure_lemma(capsys, decomps):
    problems = []
    want = {f"lem2.11.{i}" for i in range(1, 7)}
    for name, (h, rd, wd) in decomps.items():
        claims = verify_lemma_closures(h, rd, wd)
        if {c.claim_id for c in claims} != want:
            problems.append(f"{name}: wrong claim set")
        for c in claims:
            if c.status != "PASS":
                problems.append(f"{name} {c.claim_id}: {c.status} {c.detail}")
    emit(
        capsys,
        3,
        "all six closure identities hold on every split fixture",
        problems,
        f"{len(decomps)} fixtures",
    )


# -- 4: walker agrees with brute-force search --------------------------------


def neg(f):
    return tuple(-x for x in f)


def vocab_max_len(rd, wd):
    vocab = set()
    for f in list(rd.gamma) + list(wd.lam):
        vocab.add(f)
        vocab.add(neg(f))
    return len(vocab) + 2


def test_criterion_4_connection_oracle_equivalence(capsys, decomps):
    problems = []
    pairs = 0
    for name, (h, rd, wd) in decomps.items():
        ml = vocab_max_len(rd, wd)
        for a in rd.gamma:
            for b in rd.gamma:
                pairs += 1
                w = roots_connected(a, b, rd, wd)
                if (w is not None) != brute_force_root_connected(a, b, rd, wd, ml):
                    problems.append(f"{name} roots {a}->{b}")
                if w is not None and w.kind == "chain":
                    ok, reason = validate_root_chain(a, b, w.elements, rd, wd)
                    if not ok:
                        problems.append(f"{name} root witness replay {a}->{b}: {reason}")
        for a in wd.lam:
            for b in wd.lam:
                pairs += 1
                w = weights_connected(a, b, rd, wd)
                if (w is not None) != brute_force_weight_connected(a, b, rd, wd, ml):
                    problems.append(f"{name} weights {a}->{b}")
                if w is not None and w.kind == "chain":
                    ok, reason = validate_weight_chain(a, b, w.elements, rd, wd)
                    if not ok:
                        problems.append(f"{name} weight witness replay {a}->{b}: {reason}")
    emit(
        capsys,
        4,
        "graph walker matches bounded brute force on every ordered pair",
        problems,
        f"{pairs} pairs",
    )


# -- 5: connection classes form equivalence relations ------------------------


def test_criterion_5_equivalence_relations(capsys, decomps):
    problems = []
    for name, (h, rd, wd) in decomps.items():
        for kind, part in (
            ("root", root_partition(rd, wd)),
            ("weight", weight_partition(rd, wd)),
        ):
            where = f"{name} {kind}"
            if not part.reflexive_ok:
                problems.append(f"{where}: not reflexive")
            if not part.raw_symmetric:
                problems.append(f"{where}: raw relation not symmetric")
            covered = sorted(f for cls in part.classes for f in cls)
            if covered != sorted(part.items):
                problems.append(f"{where}: classes do not partition the items")
            for a in part.items:
                for b in part.items:
                    if same_class(part, a, b) != same_class(part, b, a):
                        problems.append(f"{where}: asymmetric at {a},{b}")
                    for c in part.items:
                        if (
                            same_class(part, a, b)
                            and same_class(part, b, c)
                            and not same_class(part, a, c)
                        ):
                            problems.append(f"{where}: not transitive at {a},{b},{c}")
    emit(capsys, 5, "partitions are reflexive, symmetric, transitive", problems)


# -- 6: decomposition theorems on every split fixture ------------------------

CORE = (
    "prop3.3.1",
    "prop3.3.2",
    "prop3.3.3",
    "prop3.3.4",
    "prop3.3.5",
    "thm3.5.1",
    "thm3.6",
    "prop4.3.1",
    "prop4.3.2",
    "thm4.4.1",
    "thm4.5",
)


def test_criterion_6_decomposition_theorems(capsys, decomps):
    problems = []
    for name, (h, rd, wd) in decomps.items():
        a = Analysis(h, rd, wd)
        dec = run_decomposition(a)
        got = {c.claim_id: c for c in dec.claims}
        for cid in CORE:
            if got[cid].status != "PASS":
                problems.append(f"{name} {cid}: {got[cid].status} {got[cid].detail}")
        for cid in ("thm4.4.2", "cor3.8", "cor4.6"):
            c = got[cid]
            if c.status not in ("PASS", "REFUSED"):
                problems.append(f"{name} {cid}: {c.status} {c.detail}")
            if c.status == "REFUSED" and not c.detail:
                problems.append(f"{name} {cid}: refusal without a named hypothesis")
        u = dec.U
        for ci in a.root_ideals:
            u = u.add(ci.space)
        if u.dim != h.dimL:
            problems.append(f"{name}: U + class ideals span dim {u.dim} of {h.dimL}")
        v = dec.V
        for ci in a.weight_ideals:
            v = v.add(ci.space)
        if v.dim != h.dimA:
            problems.append(f"{name}: V + weight ideals span dim {v.dim} of {h.dimA}")
    emit(
        capsys,
        6,
        "decomposition claims pass, corollaries pass or refuse by name",
        problems,
        f"{len(decomps)} fixtures",
    )


# -- 7: structure profile, two-ideal split, simple components ----------------


def test_criterion_7_structure_theorems(capsys, decomps):
    problems = []
    for name, (h, rd, wd) in decomps.items():
        a = Analysis(h, rd, wd)
        if sorted(a.js.gamma_J + a.js.gamma_notJ) != rd.gamma:
            problems.append(f"{name}: j-split misses roots")
        if set(a.js.gamma_J) & set(a.js.gamma_notJ):
            problems.append(f"{name}: j-split overlaps")
        if not a.profile.Z_Lie.contains_space(annihilator_Z(h)):
            problems.append(f"{name}: annihilator escapes the Lie annihilator")
        all_one = all(rd.space(g).dim == 1 for g in rd.gamma) and all(
            wd.space(x).dim == 1 for x in wd.lam
        )
        if bool(a.profile.maximal_length) != all_one:
            problems.append(f"{name}: maximal-length flag wrong")

    # the zero algebra meets every hypothesis outright; 0 + 0 = 0
    h, rd, wd = decomps["fix_zero"]
    a = Analysis(h, rd, wd)
    st = run_structure(a)
    got = {c.claim_id: c for c in st.claims}
    if got["thm5.12"].status != "PASS" or got["cor5.13"].status != "PASS":
        problems.append("zero algebra does not verify the split theorems")
    for run in st.thm512_runs:
        ipd = run.I_prime.dim if run.I_prime is not None else 0
        if not run.ok or run.seed_dim + ipd != a.js.J.dim + (
            a.js.J.dim if run.branch == "equal_J" else 0
        ):
            problems.append(f"zero algebra run {run.branch}: dims off")

    # hypothesis refusal names the exact failing clauses
    h, rd, wd = decomps["fix_s"]
    a = Analysis(h, rd, wd)
    st = run_structure(a)
    got = {c.claim_id: c for c in st.claims}
    if got["thm5.12"].status != "REFUSED" or "tight.5" not in got["thm5.12"].detail:
        problems.append("refusal does not name tight.5")

    # called directly, the verifiers assume the hypotheses and the sums are
    # substantive
    js = a.js
    from hlra.linalg import Subspace

    claim, run = verify_theorem_5_12(a, Subspace(5, ((0, 0, 0, 1, 0),)))
    if not (
        claim.status == "PASS"
        and run.branch == "complement"
        and run.seed_dim + run.I_prime.dim == js.J.dim == 2
    ):
        problems.append("1+1=2 complement run failed")
    for seed, branch in ((js.J, "equal_J"), (Subspace.zero(5), "degenerate")):
        claim, run = verify_theorem_5_12(a, seed)
        if claim.status != "PASS" or run.branch != branch:
            problems.append(f"{branch} branch failed")
    h2, rd2, wd2 = decomps["fix_s2"]
    js2 = j_split(rd2, compute_J(h2))
    seed2 = Subspace(
        10, ((0, 0, 0, 1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0, 1, 0))
    )
    claim, run = verify_theorem_5_12(Analysis(h2, rd2, wd2), seed2)
    if not (claim.status == "PASS" and run.seed_dim + run.I_prime.dim == js2.J.dim == 4):
        problems.append("2+2=4 complement run failed")

    he, rde, wde = decomps["fix_e2"]
    cor = verify_cor_5_13(Analysis(he, rde, wde))
    if sum(c.dim for c in cor.components) != he.dimL:
        problems.append("two-block components do not sum to dim L")
    ht, rdt, wdt = decomps["fix_t"]
    cor = verify_cor_5_13(Analysis(ht, rdt, wdt))
    if sum(cor.weight_dims) != ht.dimA:
        problems.append("scalar components do not sum to dim A")
    hp, rdp, wdp = decomps["fix_p2"]
    cor = verify_cor_5_13(Analysis(hp, rdp, wdp))
    paired = [c.paired for c in cor.components]
    if sorted(paired) != [0, 1]:
        problems.append(f"pairing is not a function onto distinct scalar classes: {paired}")

    emit(
        capsys,
        7,
        "j-split, annihilators, and split theorems check out",
        problems,
        "zero algebra 0+0=0; assumed-hypothesis runs 1+1=2 and 2+2=4",
    )


# -- 8: byte-identical reports ----------------------------------------------


def test_criterion_8_cli_determinism(capsys, data_dir):
    def p(name):
        return str(data_dir / f"{name}.json")

    argvs = [
        ["validate", p("fix_e")],
        ["validate", p("fix_e"), "--strict"],
        ["validate", p("fix_e"), "--format", "json"],
        ["decompose", p("fix_s")],
        ["decompose", p("fix_s"), "--format", "json"],
        ["analyze", p("fix_p2")],
        ["analyze", p("fix_p2"), "--format", "json"],
        ["connect", p("fix_e2")],
        ["connect", p("fix_e2"), "--format", "json"],
        ["j", p("fix_c_split")],
        ["j", p("fix_c_split"), "--format", "json"],
        ["twist", p("fix_b"), "--psi", "[[1,0],[0,2]]", "--phi", "[[1]]"],
        ["fiber", p("fix_b"), p("fix_b")],
        ["morphism", p("fix_b"), p("fix_b"), "--g", "[[1]]", "--f", "[[1,0],[0,1]]"],
    ]
    problems = []
    for argv in argvs:
        code1 = cli.main(argv)
        out1 = capsys.readouterr().out
        code2 = cli.main(argv)
        out2 = capsys.readouterr().out
        if code1 != code2 or out1 != out2:
            problems.append(" ".join(argv))
    emit(
        capsys,
        8,
        "every command is byte-deterministic",
        problems,
        f"{len(argvs)} invocations, all eight commands",
    )
