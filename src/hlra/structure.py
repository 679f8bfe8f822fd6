"""Squared-generator split of the root system and the structure verifiers.

Everything downstream of the ideal J lives here: the J / not-J root split,
maximal length, root multiplicativity, the Lie annihilator, tightness, the
complement construction for ideals inside J, the simple-component
decomposition, and the zero/nonzero pairing counts between scalar and root
class ideals.

`Analysis` holds one split instance and builds each derived object once, on
first use; every verifier here and in `decomposition` reads it, and its
opposite-product tables are the one place where the products generating H
and the zero weight space are evaluated.  It lives here because this module
already imports `decomposition`, so the class can own the J-split and the
profile without an import cycle.
"""

from dataclasses import dataclass
from functools import cached_property

from .claims import FAIL, INFO, PASS, REFUSED, ClaimResult
from .connections import root_partition, weight_partition
from .decomposition import ClassIdeal, enumerate_ideals, first_nonzero_pair, refusal, simplicity_check
from .linalg import Subspace, span, sum_and_overlap, vec_add, vec_neg
from .model import ClosureError, annihilator, annihilator_Z, center_ZA, compute_J, is_ideal, sub_algebra
from .roots import CartanError, compose_psi_power, format_class, format_root, root_decomposition


class Analysis:
    """One split instance: the algebra h with its root decomposition rd and
    weight decomposition wd.  Every derived object is a member computed on
    first use and kept, so one run builds each of them at most once.

    root_opposites and weight_opposites evaluate each opposite product once;
    the class ideals, the generated parts of H and of the zero weight space
    (all of them, or at the not-J roots for tight.5 and tight.6) and the
    thm5.12 complement are spans of their entries.  A product at a root or
    weight whose negative is not one has a zero side and adds nothing."""

    def __init__(self, h, rd, wd):
        self.h = h
        self.rd = rd
        self.wd = wd

    @cached_property
    def jrep(self):
        return compute_J(self.h)

    @cached_property
    def js(self):
        return j_split(self.rd, self.jrep)

    @cached_property
    def root_part(self):
        return root_partition(self.rd, self.wd)

    @cached_property
    def weight_part(self):
        return weight_partition(self.rd, self.wd)

    @cached_property
    def root_opposites(self):
        """{gamma: (A_-gamma . L_gamma, [L_-gamma, L_gamma])} over the roots."""
        h, rd, wd = self.h, self.rd, self.wd
        return {
            g: (h.act_space(wd.space(vec_neg(g)), rd.space(g)), h.bracket_space(rd.space(vec_neg(g)), rd.space(g)))
            for g in rd.gamma
        }

    @cached_property
    def weight_opposites(self):
        """{alpha: (rho(L_-alpha)(A_alpha), A_-alpha A_alpha)} over the weights."""
        h, rd, wd = self.h, self.rd, self.wd
        return {
            a: (h.anchor_space(rd.space(vec_neg(a)), wd.space(a)), h.mul_space(wd.space(vec_neg(a)), wd.space(a)))
            for a in wd.lam
        }

    def root_sum(self, roots, spaces=()):
        """The span of the opposite products at roots and of spaces."""
        return span(self.h.dimL, [s for g in roots for s in self.root_opposites[g]] + list(spaces))

    def weight_sum(self, weights, spaces=()):
        """The span of the anchor images and opposite products at weights
        and of spaces."""
        return span(self.h.dimA, [s for a in weights for s in self.weight_opposites[a]] + list(spaces))

    @cached_property
    def root_ideals(self):
        """Per root class: its opposite products plus its root spaces."""
        return tuple(ClassIdeal(tuple(c), self.root_sum(c, map(self.rd.space, c))) for c in self.root_part.classes)

    @cached_property
    def weight_ideals(self):
        """Per weight class: its anchor images and opposite products plus
        its weight spaces."""
        return tuple(ClassIdeal(tuple(c), self.weight_sum(c, map(self.wd.space, c))) for c in self.weight_part.classes)

    @cached_property
    def root_inner(self):
        """The part of H generated by opposite products over all roots."""
        return self.root_sum(self.rd.gamma)

    @cached_property
    def weight_inner(self):
        """The part of the zero weight space generated over all weights."""
        return self.weight_sum(self.wd.lam)

    @cached_property
    def actions(self):
        """actions[i][j]: weight class ideal j acts nontrivially on root
        class ideal i."""
        act = self.h.act_space
        return tuple(tuple(not act(cj.space, ci.space).is_zero for cj in self.weight_ideals) for ci in self.root_ideals)

    @cached_property
    def enum(self):
        return enumerate_ideals(self.h, self.rd)

    @cached_property
    def Z(self):
        """The annihilator Z(L)."""
        return annihilator_Z(self.h)

    @cached_property
    def Z_Lie(self):
        """The Lie annihilator: the annihilator against H plus the not-J
        root spaces."""
        spaces = [self.rd.H] + [self.rd.space(g) for g in self.js.gamma_notJ]
        return annihilator(self.h, span(self.h.dimL, spaces))

    @cached_property
    def rm_claims(self):
        return tuple(root_multiplicativity_check(self))

    @cached_property
    def tight_claims(self):
        return tuple(tightness_check(self))

    @cached_property
    def profile(self):
        return structure_profile(self)


@dataclass(frozen=True)
class JSplit:
    gamma_J: tuple
    gamma_notJ: tuple
    J: Subspace
    clean: bool  # J meets every root space in 0 or the whole space
    graded: bool  # J equals (J cap H) + its root parts
    notes: tuple


def j_split(rd, jrep):
    """Classify each root of a split rd by whether its space sits inside J.
    J is graded (see `decomposition.enumerate_ideals`): its parts are its meets."""
    gj, gnj, notes = [], [], []
    clean = True
    for g, part in zip(rd.gamma, rd.parts(jrep.J)[1:]):
        if part.is_zero:
            gnj.append(g)
        else:
            gj.append(g)
            if part.dim != rd.space(g).dim:
                clean = False
                notes.append(f"J meets the root space of {format_root(g)} partially (dim {part.dim})")
    graded = rd.is_graded(jrep.J)
    if not graded:
        notes.append("J does not decompose into its H and root parts")
    return JSplit(
        gamma_J=tuple(gj),
        gamma_notJ=tuple(gnj),
        J=jrep.J,
        clean=clean,
        graded=graded,
        notes=tuple(notes),
    )


def maximal_length_check(rd, wd):
    return all(rd.root_spaces[g].dim == 1 for g in rd.gamma) and all(
        wd.weights[a].dim == 1 for a in wd.lam
    )


def _symmetric(functionals):
    s = set(functionals)
    return all(vec_neg(f) in s for f in s)


def _products_nonzero(claim_id, left, right, index_sum, indices, product, fail, noun):
    """Every product of the pieces at (x, y), x in left and y in right,
    whose index_sum(x, y) is in indices is nonzero; fail formats the first
    pair where it vanishes."""
    applicable = 0
    for x in left:
        for y in right:
            if index_sum(x, y) not in indices:
                continue
            applicable += 1
            if product(x, y).is_zero:
                return ClaimResult(claim_id, FAIL, fail.format(format_root(x), format_root(y)))
    return ClaimResult(
        claim_id,
        PASS,
        f"{applicable} applicable pairs, all {noun} nonzero" if applicable else "vacuous: no applicable pairs",
    )


def root_multiplicativity_check(a):
    """Four product-nonvanishing clauses over their applicable index pairs.
    Vacuously true clauses pass with a zero pair count."""
    h, rd, wd, js = a.h, a.rd, a.wd, a.js

    def twisted_sum(g, d):
        return compose_psi_power(vec_add(g, d), -1, rd)

    def bracket(g, d):
        return h.bracket_space(rd.space(g), rd.space(d))

    return [
        _products_nonzero(
            "def5.3.1", js.gamma_notJ, js.gamma_notJ, twisted_sum, set(rd.gamma), bracket,
            "roots {}, {} bracket to zero", "brackets",
        ),
        _products_nonzero(
            "def5.3.2", js.gamma_J, js.gamma_notJ, twisted_sum, set(js.gamma_J), bracket,
            "roots {}, {} bracket to zero", "brackets",
        ),
        _products_nonzero(
            "def5.3.3", wd.lam, rd.gamma, vec_add, set(rd.gamma),
            lambda x, g: h.act_space(wd.space(x), rd.space(g)),
            "weight {} acts as zero on root {}", "actions",
        ),
        _products_nonzero(
            "def5.3.4", wd.lam, wd.lam, vec_add, set(wd.lam),
            lambda x, y: h.mul_space(wd.space(x), wd.space(y)),
            "weights {}, {} multiply to zero", "products",
        ),
    ]


def tightness_check(a):
    """The six tight clauses.  On a split regular input tight.3 and tight.6
    hold together only when A = 0, and then tight.4 forces L = 0.

    For every x in L, D = phi^-1 rho(x) is a derivation of A (the anchor
    identity with phi invertible).  A weight vector a of nonzero weight
    alpha is nilpotent: a^n has weight n alpha, and there are finitely many
    weights.  In characteristic 0 the nilradical N of A is stable under
    derivations and under phi, so every anchor image rho(x)(a) = phi(D(a))
    and every product with a lies in N.  So tight.6 puts A0 in N, and
    A = A0 + (the nonzero weight spaces) is nilpotent; tight.3 (AA = A) then
    forces A = 0, and tight.4 (A.L = L) forces L = 0.
    """
    h, rd, wd, js = a.h, a.rd, a.wd, a.js
    zl = a.Z_Lie
    za = center_ZA(h)
    aa = h.mul_space(h.full_A, h.full_A)
    al = h.act_space(h.full_A, h.full_L)
    # opposite products at the not-J roots; rho(L_-alpha)(A_alpha) only when -alpha is one
    hs = a.root_sum(js.gamma_notJ)
    notj, opposites = set(js.gamma_notJ), a.weight_opposites
    a0s = span(h.dimA, [opposites[x][0] for x in wd.lam if vec_neg(x) in notj] + [opposites[x][1] for x in wd.lam])
    clauses = (
        ("tight.1", zl.is_zero, f"Lie annihilator dim {zl.dim}"),
        ("tight.2", za.is_zero, f"scalar annihilator dim {za.dim}"),
        ("tight.3", aa == h.full_A, f"span of products dim {aa.dim} of {h.dimA}"),
        ("tight.4", al == h.full_L, f"span of actions dim {al.dim} of {h.dimL}"),
        ("tight.5", hs == rd.H, f"generated part of H has dim {hs.dim} of {rd.H.dim}"),
        ("tight.6", a0s == wd.A0, f"generated part of the zero weight space has dim {a0s.dim} of {wd.A0.dim}"),
    )
    return [ClaimResult(cid, PASS if ok else FAIL, detail) for cid, ok, detail in clauses]


@dataclass(frozen=True)
class StructureProfile:
    maximal_length: bool
    root_multiplicative: tuple  # clause bools, 4
    tight: tuple  # clause bools, 6
    Z_Lie: Subspace
    symmetric_Lambda: bool
    symmetric_gamma_J: bool
    symmetric_gamma_notJ: bool
    notJ_all_connected: bool
    weights_all_connected: bool


def structure_profile(a):
    rd, wd, js = a.rd, a.wd, a.js
    notj_part = root_partition(rd, wd, restrict=js.gamma_notJ)
    return StructureProfile(
        maximal_length=maximal_length_check(rd, wd),
        root_multiplicative=tuple(c.status == PASS for c in a.rm_claims),
        tight=tuple(c.status == PASS for c in a.tight_claims),
        Z_Lie=a.Z_Lie,
        symmetric_Lambda=_symmetric(wd.lam),
        symmetric_gamma_J=_symmetric(js.gamma_J),
        symmetric_gamma_notJ=_symmetric(js.gamma_notJ),
        notJ_all_connected=len(notj_part.classes) <= 1,
        weights_all_connected=len(a.weight_part.classes) <= 1,
    )


def _hypothesis_gaps(profile, need_weights_connected=False):
    missing = []
    if not profile.maximal_length:
        missing.append("maximal length fails (def5.4)")
    for i, ok in enumerate(profile.root_multiplicative, start=1):
        if not ok:
            missing.append(f"root multiplicativity clause {i} fails (def5.3.{i})")
    for i, ok in enumerate(profile.tight, start=1):
        if not ok:
            missing.append(f"tightness clause {i} fails (tight.{i})")
    if not profile.symmetric_gamma_J:
        missing.append("the J-root set is not symmetric")
    if not profile.symmetric_gamma_notJ:
        missing.append("the not-J root set is not symmetric")
    if not profile.notJ_all_connected:
        missing.append("the not-J roots are not all connected")
    if need_weights_connected and not profile.weights_all_connected:
        missing.append("the weights are not all connected")
    return missing


def _over_enumerated(a, claim_id, within, holds, bad, ok):
    """Every enumerated ideal that lies within the tested range satisfies
    holds.  FAIL formats bad with the dimension of the first that does not;
    PASS formats ok with how many were tested, and says so when the search
    was bounded."""
    tested = [ideal for ideal in a.enum.ideals if within(ideal)]
    for ideal in tested:
        if not holds(ideal):
            return ClaimResult(claim_id, FAIL, bad.format(ideal.dim))
    scope = "" if a.enum.complete else " (bounded search)"
    return ClaimResult(claim_id, PASS, ok.format(len(tested)) + scope)


def verify_lemma_5_1(a):
    """Every enumerated ideal splits into its H part and its root parts,
    checked on the |Gamma| seeds C_g it is built from.

    When each seed is graded, so is every enumerated ideal (see
    `decomposition.enumerate_ideals`): for a down-closed root subset S,
    C_S = (C_S meet H) + F_S and C_S meet H is the span of the C_g meet H
    over S.  Every enumerated ideal is therefore 0, L, a seed, or
    lift(W) + F_S for a subspace W of H, and each of those is graded.
    """
    bad = next((seed for seed in a.enum.seeds if not a.rd.is_graded(seed)), None)
    if bad is not None:
        return ClaimResult("lem5.1", FAIL, f"an ideal of dim {bad.dim} does not split into H and root parts")
    scope = "" if a.enum.complete else " (bounded search)"
    detail = f"{len(a.enum.ideals)} enumerated ideals split into their H and root parts{scope}"
    return ClaimResult("lem5.1", PASS, detail)


def verify_lemma_5_2(a):
    if not a.Z.is_zero:
        return ClaimResult("lem5.2", REFUSED, f"hypothesis not met: the annihilator has dim {a.Z.dim}")
    return _over_enumerated(
        a, "lem5.2", a.rd.H.contains_space, lambda ideal: ideal.is_zero,
        "a nonzero ideal of dim {} sits inside H", "{} enumerated ideals inside H, all zero",
    )


def verify_prop_5_5(a):
    profile = a.profile
    missing = []
    if not profile.maximal_length:
        missing.append("maximal length fails")
    if not profile.tight[0]:
        missing.append("the Lie annihilator is nonzero")
    if not profile.tight[4]:
        missing.append("H is not generated by the not-J opposite products")
    for i, ok in enumerate(profile.root_multiplicative, start=1):
        if not ok:
            missing.append(f"root multiplicativity clause {i} fails")
    if not profile.notJ_all_connected:
        missing.append("the not-J roots are not all connected")
    if missing:
        return refusal("prop5.5", missing)
    hj = a.rd.H.add(a.js.J)
    return _over_enumerated(
        a, "prop5.5", lambda ideal: not hj.contains_space(ideal), lambda ideal: ideal == a.h.full_L,
        "an ideal of dim {} escapes H+J without filling L", "{} enumerated ideals escape H+J, each equals L",
    )


@dataclass(frozen=True)
class Thm512Run:
    seed_dim: int
    branch: str  # degenerate | equal_J | complement
    ok: bool
    detail: str
    I_prime: object  # Subspace or None


def verify_theorem_5_12(a, seed):
    """One seed ideal inside J: either it is J, or J splits off a
    complementary ideal built from the negative seed roots.  The branch runs
    whatever the hypotheses; when some fail, the detail says the caller
    assumed them (`run_structure` refuses instead)."""
    h, rd, js = a.h, a.rd, a.js
    if not js.J.contains_space(seed):
        raise ValueError("the seed ideal is not contained in J")
    prefix = "hypotheses assumed by caller: " if _hypothesis_gaps(a.profile) else ""

    def run(branch, ok, detail, iprime=None):
        claim = ClaimResult("thm5.12", PASS if ok else FAIL, f"{prefix}[{branch}] {detail}")
        return claim, Thm512Run(seed_dim=seed.dim, branch=branch, ok=ok, detail=detail, I_prime=iprime)

    if seed.is_zero:
        # J is an ideal_closure output, closed under every ideal rule
        return run("degenerate", True, "zero seed: the whole of J serves as the complement", js.J)
    # the seed is an ideal inside J, so graded, with root parts inside J's
    gamma_ji = tuple(g for g, part in zip(rd.gamma, rd.parts(seed)[1:]) if not part.is_zero)
    ji_set = set(gamma_ji)
    if any(vec_neg(g) in ji_set for g in gamma_ji):
        good = seed == js.J
        return run(
            "equal_J",
            good,
            "a root and its negative both support the seed; expected I=J"
            + ("" if good else f"; got dim {seed.dim} versus dim {js.J.dim}"),
        )
    neg_ji = {vec_neg(g) for g in gamma_ji}
    if set(js.gamma_J) != ji_set | neg_ji or ji_set & neg_ji:
        return run("complement", False, "the J-roots do not split disjointly into seed roots and their negatives")
    # A_g . L_-g, the first opposite product at -g, plus L_-g; -g is a J-root
    iprime = span(h.dimL, [s for g in neg_ji for s in (a.root_opposites[g][0], rd.space(g))])
    ok_ideal, failed = is_ideal(h, iprime)
    direct = seed.intersect(iprime).is_zero
    spans = seed.add(iprime) == js.J
    bits = []
    if not ok_ideal:
        bits.append(f"complement fails ideal rules: {', '.join(failed)}")
    if not direct:
        bits.append("seed and complement overlap")
    if not spans:
        bits.append(f"seed and complement span dim {seed.add(iprime).dim} of {js.J.dim}")
    return run(
        "complement",
        ok_ideal and direct and spans,
        "; ".join(bits) if bits else f"J = I + I' with dims {seed.dim}+{iprime.dim}={js.J.dim}",
        iprime,
    )


@dataclass(frozen=True)
class ComponentInfo:
    cls: tuple
    dim: int
    simple_verdict: str
    paired: int  # index into weight classes, -1 when absent


@dataclass(frozen=True)
class Cor513Report:
    claim: ClaimResult
    components: tuple
    weight_dims: tuple


def _component_simplicity(h, rd, l_space, a_space):
    """Restrict to one component pair and rerun the simplicity verdict."""
    try:
        sub = sub_algebra(h, l_space, a_space)
    except ClosureError as exc:
        return f"restriction failed ({exc})"
    # H meet l_space lies in l_space, so every row has coordinates
    h_rows = [l_space.coords(row) for row in rd.H.intersect(l_space).basis]
    try:
        sub_rd = root_decomposition(sub, H=h_rows)
    except CartanError as exc:
        return f"decomposition failed ({exc.reason})"
    if not sub_rd.split:
        return "component not split"
    # simplicity_check reads only jrep and enum, neither of which needs a
    # weight decomposition
    return simplicity_check(Analysis(sub, sub_rd, None)).verdict


def verify_cor_5_13(a):
    """Simple-component decomposition of both algebras with the pairing.
    It runs whatever the hypotheses; when some fail, the detail says the
    caller assumed them (`run_structure` refuses instead)."""
    h = a.h
    l_ideals = a.root_ideals
    a_ideals = a.weight_ideals
    problems = []

    total_l, overlap = sum_and_overlap(h.dimL, [ci.space for ci in l_ideals])
    if total_l != h.full_L:
        problems.append(f"components span dim {total_l.dim} of {h.dimL}")
    if overlap is not None:
        problems.append("component sum is not direct")
    if first_nonzero_pair(l_ideals, h.bracket_space, ordered=True):
        problems.append("distinct components bracket nontrivially")

    total_a = span(h.dimA, [ci.space for ci in a_ideals])
    if total_a != h.full_A:
        problems.append(f"scalar components span dim {total_a.dim} of {h.dimA}")
    if first_nonzero_pair(a_ideals, h.mul_space, ordered=False):
        problems.append("distinct scalar components multiply nontrivially")

    components = []
    verdict_gap = None
    for ci, acts in zip(l_ideals, a.actions):
        hits = [j for j, nonzero in enumerate(acts) if nonzero]
        if len(hits) != 1:
            problems.append(f"component of class {format_class(ci.cls)} pairs with {len(hits)} scalar components")
            # no unique scalar partner; judge simplicity over all of A,
            # which always restricts because the component is an ideal
            paired = -1
            scalar_space = h.full_A
        else:
            paired = hits[0]
            scalar_space = a_ideals[paired].space
        verdict = _component_simplicity(h, a.rd, ci.space, scalar_space)
        if verdict == "not_simple":
            problems.append("a component is not simple")
        elif verdict != "simple":
            verdict_gap = verdict
        components.append(
            ComponentInfo(cls=ci.cls, dim=ci.space.dim, simple_verdict=verdict, paired=paired)
        )

    prefix = "hypotheses assumed by caller: " if _hypothesis_gaps(a.profile, need_weights_connected=True) else ""
    if problems:
        claim = ClaimResult("cor5.13", FAIL, prefix + "; ".join(sorted(set(problems))))
    elif verdict_gap is not None:
        claim = ClaimResult(
            "cor5.13", REFUSED, prefix + f"cannot certify component simplicity ({verdict_gap})"
        )
    else:
        claim = ClaimResult(
            "cor5.13",
            PASS,
            prefix
            + f"{len(components)} simple components, scalar side {len(a_ideals)}, pairing well defined",
        )
    return Cor513Report(
        claim=claim,
        components=tuple(components),
        weight_dims=tuple(ci.space.dim for ci in a_ideals),
    )


@dataclass(frozen=True)
class PairingRow:
    root_class: tuple
    zero_classes: int
    nonzero_classes: int


@dataclass(frozen=True)
class PairingReport:
    claim: ClaimResult
    rows: tuple


def verify_pairing_5_9(a, criterion=None):
    """Zero and nonzero pairing counts between scalar class ideals and the
    root class ideals.  The source statements disagree on which count
    should be one, so both are reported; an optional criterion turns one
    reading into a pass/fail."""
    rows = []
    for ci, acts in zip(a.root_ideals, a.actions):
        rows.append(PairingRow(root_class=ci.cls, zero_classes=acts.count(False), nonzero_classes=acts.count(True)))
    tight_note = "tight" if all(a.profile.tight) else "not tight"
    if not rows:
        body = "vacuous: no root classes"
    elif not a.weight_ideals:
        body = "vacuous: no weight classes"
    else:
        body = "; ".join(
            f"class {format_class(r.root_class)}: zero={r.zero_classes}, nonzero={r.nonzero_classes}" for r in rows
        )
    if criterion is None:
        return PairingReport(
            claim=ClaimResult("prop5.9", INFO, f"({tight_note}) {body}"),
            rows=tuple(rows),
        )
    want_zero = criterion == "zero_unique"
    ok = all((r.zero_classes == 1 if want_zero else r.nonzero_classes == 1) for r in rows)
    return PairingReport(
        claim=ClaimResult("prop5.9", PASS if ok else FAIL, f"({tight_note}; {criterion}) {body}"),
        rows=tuple(rows),
    )


@dataclass
class StructureReport:
    thm512_runs: tuple
    cor513: Cor513Report
    pairing: PairingReport
    claims: tuple


def run_structure(a):
    """Assemble every structure verifier; the two split statements are
    refused here when their hypotheses fail."""
    profile = a.profile
    claims = [verify_lemma_5_1(a), verify_lemma_5_2(a)]
    claims.extend(a.rm_claims)
    ml = profile.maximal_length
    claims.append(
        ClaimResult(
            "def5.4",
            PASS if ml else FAIL,
            "every root and weight space is a line" if ml else "some root or weight space has dimension above one",
        )
    )
    claims.append(verify_prop_5_5(a))
    z_contains = profile.Z_Lie.contains_space(a.Z)
    caveat = "" if ml else "; caveat: stated for maximal length, which fails here"
    claims.append(
        ClaimResult(
            "def5.6",
            INFO,
            f"Lie annihilator dim {profile.Z_Lie.dim}; contains the plain annihilator: {'yes' if z_contains else 'NO'}{caveat}",
        )
    )
    claims.extend(a.tight_claims)

    missing = _hypothesis_gaps(profile)
    runs = []
    if missing:
        claims.append(refusal("thm5.12", missing))
    else:
        seeds = [ideal for ideal in a.enum.ideals if a.js.J.contains_space(ideal)]
        runs = [verify_theorem_5_12(a, seed)[1] for seed in seeds]
        bad = next((f"seed of dim {run.seed_dim}: {run.detail}" for run in runs if not run.ok), None)
        claims.append(
            ClaimResult(
                "thm5.12",
                FAIL if bad else PASS,
                bad or f"{len(seeds)} seed ideals inside J, every branch verified",
            )
        )
    cor_missing = _hypothesis_gaps(profile, need_weights_connected=True)
    cor = Cor513Report(refusal("cor5.13", cor_missing), (), ()) if cor_missing else verify_cor_5_13(a)
    claims.append(cor.claim)
    pairing = verify_pairing_5_9(a)
    claims.append(pairing.claim)
    return StructureReport(
        thm512_runs=tuple(runs),
        cor513=cor,
        pairing=pairing,
        claims=tuple(claims),
    )
