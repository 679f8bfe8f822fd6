"""Class ideals from connection components and the decomposition checks.

Every verifier works on one concrete decomposed instance and reports exact
subspace facts as ClaimResults keyed by the stable catalog labels.  Nothing
here proves anything in general: a PASS means the statement held on this
instance, a REFUSED means its hypotheses were not met and says which ones.

The verifiers take the instance as a `structure.Analysis`, which holds the
algebra `h`, its decompositions `rd` and `wd`, and every derived object
(partitions, class ideals, J, the enumerated ideals), each built once.
"""

from dataclasses import dataclass
from math import lcm
from operator import mul

from .claims import FAIL, INFO, PASS, REFUSED, ClaimResult
from .linalg import Subspace, basis_vector, complement, mat_from_columns, mat_vec, span, sum_and_overlap
from .model import annihilator, center_ZA, ideal_closure, ideal_rules, is_ideal, rule_image, rule_images
from .roots import format_class, verify_lemma_closures

# root subset count above which enumeration keeps only the closure seeds
ENUMERATION_CAP = 512


@dataclass(frozen=True)
class ClassIdeal:
    cls: tuple
    space: Subspace


def _every_ideal(claim_id, ideals, holds, fail, ok):
    """PASS with detail ok when holds(space) is true for every class ideal,
    else FAIL naming the first class that breaks it in fail."""
    for ci in ideals:
        if not holds(ci.space):
            return ClaimResult(claim_id, FAIL, fail.format(format_class(ci.cls)))
    return ClaimResult(claim_id, PASS, ok)


def first_nonzero_pair(ideals, product, ordered):
    """The first pair (ci, cj) of distinct class ideals, in index order and
    with i < j unless ordered, whose spaces have a nonzero product; or None."""
    for i, ci in enumerate(ideals):
        for j, cj in enumerate(ideals):
            if (i != j if ordered else i < j) and not product(ci.space, cj.space).is_zero:
                return ci, cj
    return None


def refusal(claim_id, missing):
    """REFUSED naming every unmet hypothesis in missing."""
    return ClaimResult(claim_id, REFUSED, "hypotheses not met: " + "; ".join(missing))


def _cross_pairs(claim_id, ideals, product, ordered, verb):
    """Distinct class ideals have a zero product (ordered pairs, or pairs
    with i < j unless ordered)."""
    pair = first_nonzero_pair(ideals, product, ordered)
    if pair:
        classes = f"classes {format_class(pair[0].cls)} and {format_class(pair[1].cls)}"
        return ClaimResult(claim_id, FAIL, f"{classes} {verb} nontrivially")
    n = len(ideals)
    pairs = f"{n * (n - 1)} ordered" if ordered else f"{n * (n - 1) // 2} cross"
    return ClaimResult(claim_id, PASS, f"{pairs} pairs zero")


def _complement_sum(claim_id, inner, zero, whole, ideals, escapes, noun):
    """whole equals a complement of inner inside the zero space plus the
    sum of the class ideals.  Returns (claim, the complement or None)."""
    if not zero.contains_space(inner):
        return ClaimResult(claim_id, FAIL, escapes), None
    comp = complement(inner, zero)
    total = span(whole.ambient, [comp] + [ci.space for ci in ideals])
    detail = f"complement dim {comp.dim}, {len(ideals)} {noun}, sum dim {total.dim} of {whole.dim}"
    return ClaimResult(claim_id, PASS if total == whole else FAIL, detail), comp


def _direct_sum(claim_id, missing, whole, ideals, noun, name):
    """Unless a hypothesis is missing, whole is the direct sum of the class
    ideals; name is how the details call whole."""
    if missing:
        return refusal(claim_id, missing)
    total, overlap = sum_and_overlap(whole.ambient, [ci.space for ci in ideals])
    if total != whole:
        return ClaimResult(claim_id, FAIL, f"the {noun} do not sum to {name}")
    if overlap is not None:
        return ClaimResult(claim_id, FAIL, f"class {format_class(ideals[overlap].cls)} meets the sum of the others")
    return ClaimResult(claim_id, PASS, f"direct sum of {len(ideals)} {noun}")


def verify_prop_3_3(a):
    h, ideals = a.h, a.root_ideals
    rules = {rule[0]: rule for rule in ideal_rules(h)}
    return [
        _every_ideal(
            "prop3.3.1", ideals, lambda s: s.contains_space(h.bracket_space(s, s)),
            "bracket escapes the ideal of class {}", f"{len(ideals)} class ideals",
        ),
        _every_ideal(
            "prop3.3.2", ideals, lambda s: rule_image(h, rules["psi"], s) == s,
            "twist image differs on the ideal of class {}", "twist fixes every class ideal",
        ),
        _every_ideal(
            "prop3.3.3", ideals, lambda s: s.contains_space(rule_image(h, rules["action"], s)),
            "scalar action escapes the ideal of class {}", "scalar action absorbed",
        ),
        _every_ideal(
            "prop3.3.4", ideals, lambda s: s.contains_space(rule_image(h, rules["anchor"], s)),
            "anchor push-through escapes the ideal of class {}", "anchor push-through absorbed",
        ),
        _cross_pairs("prop3.3.5", ideals, h.bracket_space, True, "bracket"),
    ]


def verify_thm_3_5_1(a):
    for ci in a.root_ideals:
        ok, failed = is_ideal(a.h, ci.space)
        if not ok:
            return ClaimResult("thm3.5.1", FAIL, f"class {format_class(ci.cls)} fails ideal rules: {', '.join(failed)}")
    return ClaimResult("thm3.5.1", PASS, f"{len(a.root_ideals)} class ideals pass every rule")


def verify_thm_3_6(a):
    """L equals a complement inside H plus the sum of the class ideals."""
    return _complement_sum(
        "thm3.6", a.root_inner, a.rd.H, a.h.full_L, a.root_ideals,
        "the opposite-product sum escapes H; broken closure", "class ideals",
    )


def verify_cor_3_8(a):
    missing = []
    if not a.Z.is_zero:
        missing.append(f"the annihilator is nonzero (dim {a.Z.dim})")
    if a.root_inner != a.rd.H:
        missing.append("H is not generated by the opposite products")
    return _direct_sum("cor3.8", missing, a.h.full_L, a.root_ideals, "class ideals", "L")


def verify_prop_4_3(a):
    h, wideals = a.h, a.weight_ideals
    return [
        _every_ideal(
            "prop4.3.1", wideals, lambda s: s.contains_space(h.mul_space(s, s)),
            "products escape the weight ideal of class {}", f"{len(wideals)} weight ideals",
        ),
        _cross_pairs("prop4.3.2", wideals, h.mul_space, False, "multiply"),
    ]


def verify_thm_4_4(a):
    h, wd = a.h, a.wd
    claims = [
        _every_ideal(
            "thm4.4.1", a.weight_ideals, lambda s: s.contains_space(h.mul_space(s, h.full_A)),
            "weight ideal of class {} is not an ideal of A", "every weight ideal absorbs A",
        )
    ]
    a_verdict, a_witness = a_simplicity_probe(h, wd)
    if a_verdict == "not_simple":
        claims.append(
            ClaimResult("thm4.4.2", REFUSED, f"hypothesis not met: the scalar algebra is not simple ({a_witness})")
        )
    elif a_verdict == "inconclusive":
        claims.append(
            ClaimResult("thm4.4.2", REFUSED, "hypothesis undetermined: bounded probe could not settle scalar simplicity")
        )
    elif not wd.lam:
        claims.append(
            ClaimResult(
                "thm4.4.2",
                REFUSED,
                "degenerate: the weight set is empty, so the statement's index sets are empty",
            )
        )
    else:
        one_class = len(a.weight_part.classes) == 1
        generated = a.weight_inner == wd.A0
        ok = one_class and generated
        detail = f"one weight class: {one_class}; zero weight space generated: {generated}"
        claims.append(ClaimResult("thm4.4.2", PASS if ok else FAIL, detail))
    return claims


def verify_thm_4_5(a):
    """A equals a complement inside the zero weight space plus the sum of
    the weight ideals."""
    return _complement_sum(
        "thm4.5", a.weight_inner, a.wd.A0, a.h.full_A, a.weight_ideals,
        "the generator sum escapes the zero weight space; broken closure", "weight ideals",
    )


def verify_cor_4_6(a):
    za = center_ZA(a.h)
    missing = []
    if not za.is_zero:
        missing.append(f"the scalar annihilator is nonzero (dim {za.dim})")
    if a.weight_inner != a.wd.A0:
        missing.append("the zero weight space is not generated by anchor images and opposite products")
    return _direct_sum("cor4.6", missing, a.h.full_A, a.weight_ideals, "weight ideals", "A")


# -- ideal enumeration and simplicity ---------------------------------------


def _from_h_coords(rd, w):
    """The subspace of L whose coordinates in the RREF basis of H span w."""
    to_l = mat_from_columns(rd.H.basis, nrows=rd.H.ambient)
    return Subspace(rd.H.ambient, [mat_vec(to_l, c) for c in w.basis])


def _invariant_core(start, t_cols):
    """core(start): the greatest subspace of start that every map T_m
    keeps invariant, where t_cols[i] stacks the images of basis vector i
    under the maps.  Shrinking w <- w meet (the x with every T_m x in w)
    keeps every such subspace and stops at one, so it stops at the core."""
    w = start
    while True:
        shrunk = w.intersect(w.preimage(t_cols))
        if shrunk == w:
            return w
        w = shrunk


def _window_parts(h, rd):
    """The cores core(K_j), one per root gamma[j] in gamma order, in
    coordinates on the RREF basis of H.

    The rule maps are split along the direct sum L = H + (sum of the root
    spaces) of a split decomposition.  Every rule image of the basis of H
    is written once in the adapted basis through `RootDecomposition.to_adapted`.
    Its H components give one d x d map T_m per rule map m, with d = dim H;
    K_j holds the x in Q^d whose images all have a zero component in the
    root space of gamma[j].  Rule maps that vanish on H are dropped.  The
    window tops of `enumerate_ideals` are meets of these cores.  The maps
    are integer: to_adapted is cleared to one denominator and the image of
    row i of H, its RREF basis vector i times scale[i], is multiplied by
    lcm(scale) / scale[i], so every column of a map carries one factor and
    no preimage changes.
    """
    d = rd.H.dim
    to_adapted, offsets = rd.to_adapted
    scale = [row[p] for row, p in zip(rd.H.rows, rd.H.pivots)]
    factors = [lcm(*scale) // c for c in scale]
    by_map = {}  # (rule, its further arguments), one linear map -> its columns
    for r, rule in enumerate(ideal_rules(h)):
        for (i, rest), vec in rule_images(h, rule, rd.H.rows).items():
            image = tuple(factors[i] * sum(map(mul, row, vec)) for row in to_adapted)
            by_map.setdefault((r, rest), [(0,) * h.dimL] * d)[i] = image
    coords = list(by_map.values())

    def stacked(start, stop):
        return [tuple(x for c in coords for x in c[i][start:stop]) for i in range(d)]

    t_cols = stacked(0, d)
    return [_invariant_core(Subspace.zero(b - a).preimage(stacked(a, b)), t_cols) for a, b in zip(offsets[1:], offsets[2:])]


@dataclass(frozen=True)
class EnumeratedIdeals:
    ideals: tuple  # Subspaces, sorted by (dim, basis)
    complete: bool
    note: str
    seeds: tuple  # the single-root closures C_g, in gamma order


def enumerate_ideals(h, rd):
    """All ideals assembled from root subsets and compatible H-parts of a
    split root decomposition rd; a non-split one raises ValueError.

    A candidate is F_S + W for a root subset S, with F_S the sum of the root
    spaces in S and W a subspace of H.  S is feasible when the ideal
    generated by F_S meets no root space outside S.

    The rules that close an ideal are linear maps, so the ideal generated by
    F_S is the sum of the single-root closures C_g = closure(L_g), g in S.
    Each C_g is graded (the sum of its pieces in H and the root spaces): it
    is closed under [x, .] for x in H and under psi, which is invertible, so
    it splits along the joint eigenspaces E_d of ad H that fill L, and
    psi(C_g) = C_g with L_d = psi^-1(E_d) carries that split over to the
    root spaces.  So each sum of them is graded too, and meets L_d exactly
    when some C_g with g in S does.  The feasible subsets are therefore the
    down-closed ones: supp(C_g) lies in S for every g in S, where supp(C_g)
    is the set of roots d with C_g meeting L_d: those where the graded C_g
    has a nonzero part (`RootDecomposition.parts`).  Only the |Gamma|
    single-root closures are computed, and they are kept as the seeds;
    infeasible subsets are never closed.

    For a feasible S the H-part ranges over a window from w_min to w_max,
    both in coordinates on the RREF basis of H, and both ends lifted to L
    plus F_S are ideals:
    - C_S = sum of the C_g over S is graded, holds L_d for d in S and meets
      no other L_d, so C_S = (C_S meet H) + F_S, and C_S meet H is
      w_min = the span of the w_g = C_g meet H over g in S.
    - w_max is the greatest W in H whose rule images stay in W + F_S.  The
      sum L = H + (sum of the root spaces) is direct, so a rule image m(x)
      lies in W + F_S exactly when its H component T_m x lies in W and its
      component in every root space outside S is zero.  So w_max is
      core(K_S), the greatest subspace of K_S = meet of the K_j over j
      outside S that every T_m keeps invariant (see `_window_parts`).  A
      meet of T-invariant subspaces is T-invariant, so core(K meet K') =
      core(K) meet core(K'), and w_max is the meet of the cores core(K_j)
      over j outside S, as w_min is the join of the w_g over S: each core
      is computed once, and no fixpoint or elimination in L runs per
      subset.  The rule images of w_min lie in C_S, so they have no
      component outside S and their H components lie in w_min; w_max is
      the greatest subspace with that property, so it holds w_min.
      w_max + F_S holds the rule images of w_max by the window condition
      and those of F_S inside C_S: an ideal, on root spaces of any
      dimension.

    Complete when every root space is one-dimensional, the subset count
    stays under ENUMERATION_CAP, and for each feasible subset the window
    spans at most one extra dimension.  The completeness argument also
    rests on the seeds being graded, which lem5.1
    (`structure.verify_lemma_5_1`) verifies on the |Gamma| seeds.
    """
    if not rd.split:
        raise ValueError("root decomposition is not split; ideals are not enumerated")
    n, d = h.dimL, rd.H.dim
    gamma = rd.gamma
    spaces = [rd.space(g) for g in gamma]
    seeds = tuple(ideal_closure(h, s).space for s in spaces)
    if 2 ** len(gamma) > ENUMERATION_CAP:
        found = {Subspace.zero(n), h.full_L, *seeds}
        note = f"root subset count 2^{len(gamma)} exceeds the cap; closure seeds only"
        return EnumeratedIdeals(_sorted_spaces(found), False, note, seeds)
    seed_parts = [rd.parts(c) for c in seeds]
    support = [sum(1 << j for j, p in enumerate(ps[1:]) if not p.is_zero) for ps in seed_parts]
    h_parts = [ps[0] for ps in seed_parts]
    complete = all(s.dim == 1 for s in spaces)
    note = "" if complete else "a root space has dimension above one; enumeration is heuristic"
    cores = _window_parts(h, rd)
    # many subsets share a join of seed H-parts or a meet of cores, so each
    # distinct join, meet and lift of a window end into L is made once
    joins, meets, lifted = {}, {}, {}
    found = set()
    for mask in range(2 ** len(gamma)):
        members = [i for i in range(len(gamma)) if mask >> i & 1]
        if any(support[i] & ~mask for i in members):
            continue
        parts = frozenset(h_parts[i] for i in members)
        if parts not in joins:
            joins[parts] = span(d, parts)
        w_min = joins[parts]
        outside = frozenset(core for j, core in enumerate(cores) if not mask >> j & 1)
        if outside not in meets:
            w_max = Subspace.full(d)
            for core in outside:
                w_max = w_max.intersect(core)
            meets[outside] = w_max
        w_max = meets[outside]
        if w_max.dim > w_min.dim + 1:
            complete = False
            note = "an H-part window spans more than one free dimension; middle layers not enumerated"
        for w in (w_min,) if w_max == w_min else (w_min, w_max):
            if w not in lifted:
                lifted[w] = _from_h_coords(rd, w)
            found.add(span(n, [lifted[w]] + [spaces[i] for i in members]))
    return EnumeratedIdeals(_sorted_spaces(found), complete, note, seeds)


def _sorted_spaces(spaces):
    """The subspaces sorted by (dim, basis).  When every pivot entry is 1
    the integer rows are the Fraction basis, and sorting by them gives the
    same order without building the basis."""
    if all(row[c] == 1 for s in spaces for row, c in zip(s.rows, s.pivots)):
        return tuple(sorted(spaces, key=lambda s: (s.dim, s.rows)))
    return tuple(sorted(spaces, key=lambda s: (s.dim, s.basis)))


@dataclass(frozen=True)
class SimplicityReport:
    verdict: str  # simple | not_simple | inconclusive
    reason: str
    violating: object  # Subspace or None

    def claim(self):
        detail = f"{self.verdict}: {self.reason}"
        return ClaimResult("def3.4", INFO, detail)


def simplicity_check(a):
    """Verdict against the allowed-ideal list {0, J, L, ker rho}.

    A simple verdict is only issued when the enumeration was complete;
    otherwise the honest answer is inconclusive.
    """
    h = a.h
    n = h.dimL
    full = h.full_L
    basics = []
    if h.bracket_space(full, full).is_zero:
        basics.append("the bracket is identically zero")
    if h.mul_space(h.full_A, h.full_A).is_zero:
        basics.append("the scalar product is identically zero")
    if h.act_space(h.full_A, full).is_zero:
        basics.append("the scalar action is identically zero")
    allowed = {Subspace.zero(n), a.jrep.J, full, annihilator(h, Subspace.zero(n))}
    enum = a.enum
    violating = next((cand for cand in enum.ideals if cand not in allowed), None)
    if basics:
        verdict, reason, violating = "not_simple", "; ".join(basics), None
    elif violating is not None:
        verdict, reason = "not_simple", f"found an ideal of dimension {violating.dim} outside the allowed list"
    elif enum.complete:
        verdict, reason = "simple", f"complete enumeration found {len(enum.ideals)} ideals, all allowed"
    else:
        verdict, reason = "inconclusive", f"incomplete search ({enum.note}); no violating ideal found"
    return SimplicityReport(verdict=verdict, reason=reason, violating=violating)


def a_simplicity_probe(h, wd):
    """Bounded probe for simplicity of the scalar algebra.

    Certifies simple only in the one-dimensional nondegenerate case; finds
    counterexample ideals by closing weight spaces and coordinate lines
    under multiplication.  Returns (verdict, description)."""
    na = h.dimA
    full = h.full_A
    if na == 0:
        return "not_simple", "the scalar algebra is zero"
    if h.mul_space(full, full).is_zero:
        return "not_simple", "the scalar product is identically zero"
    seeds = [wd.A0] + [wd.space(a) for a in wd.lam]
    seeds += [Subspace(na, (basis_vector(na, i),)) for i in range(na)]
    for seed in seeds:
        cur = seed
        while True:
            grown = cur.add(h.mul_space(full, cur))
            if grown == cur:
                break
            cur = grown
        if not cur.is_zero and cur != full:
            return "not_simple", f"proper ideal of dimension {cur.dim} found"
    if na == 1:
        return "simple", "one-dimensional with nonzero product"
    return "inconclusive", "no proper ideal found among the probed seeds"


# -- orchestration -----------------------------------------------------------


@dataclass
class DecompositionReport:
    U: object
    V: object
    simplicity: SimplicityReport
    claims: tuple


def run_decomposition(a):
    """Run the closure lemmas and every decomposition verifier on the class
    ideals of a."""
    if not a.rd.split or not a.wd.split:
        raise ValueError("decomposition is not split; nothing to verify")
    claims = verify_lemma_closures(a.h, a.rd, a.wd)
    claims.extend(verify_prop_3_3(a))
    claims.append(verify_thm_3_5_1(a))
    thm36, u = verify_thm_3_6(a)
    claims.append(thm36)
    claims.append(verify_cor_3_8(a))
    claims.extend(verify_prop_4_3(a))
    claims.extend(verify_thm_4_4(a))
    thm45, v = verify_thm_4_5(a)
    claims.append(thm45)
    claims.append(verify_cor_4_6(a))
    simplicity = simplicity_check(a)
    claims.append(simplicity.claim())
    return DecompositionReport(
        U=u,
        V=v,
        simplicity=simplicity,
        claims=tuple(claims),
    )
