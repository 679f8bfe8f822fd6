"""Class ideals from connection components and the decomposition checks.

Every verifier works on one concrete decomposed instance and reports exact
subspace facts as ClaimResults keyed by the stable catalog labels.  Nothing
here proves anything in general: a PASS means the statement held on this
instance, a REFUSED means its hypotheses were not met and says which ones.
"""

from dataclasses import dataclass

from .claims import FAIL, INFO, PASS, REFUSED, ClaimResult
from .connections import root_partition, weight_partition
from .linalg import (
    Subspace,
    basis_vector,
    complement,
    kernel,
    mat_from_columns,
    mat_inverse,
    mat_vec,
    stack_rows,
    vec_neg,
)
from .model import annihilator_Z, center_ZA, compute_J, ideal_closure, is_ideal
from .roots import format_root


@dataclass(frozen=True)
class RootClassIdeal:
    cls: tuple
    zero_part: Subspace
    graded_part: Subspace
    space: Subspace
    zero_part_in_H: bool
    direct: bool


def build_root_ideal(h, rd, wd, cls):
    """Ideal attached to one root class: opposite products inside H plus
    the root spaces of the class.  Empty summands drop out through the
    zero-space lookups."""
    n = h.dimL
    zero_part = Subspace.zero(n)
    graded = Subspace.zero(n)
    for xi in cls:
        lxi = rd.space(xi)
        graded = graded.add(lxi)
        neg = vec_neg(xi)
        zero_part = zero_part.add(h.act_space(wd.space(neg), lxi))
        zero_part = zero_part.add(h.bracket_space(rd.space(neg) if any(neg) else Subspace.zero(n), lxi))
    space = zero_part.add(graded)
    return RootClassIdeal(
        cls=tuple(cls),
        zero_part=zero_part,
        graded_part=graded,
        space=space,
        zero_part_in_H=rd.H.contains_space(zero_part),
        direct=zero_part.intersect(graded).is_zero,
    )


@dataclass(frozen=True)
class WeightClassIdeal:
    cls: tuple
    zero_part: Subspace
    graded_part: Subspace
    space: Subspace
    zero_part_in_A0: bool
    direct: bool


def build_weight_ideal(h, rd, wd, cls):
    """Ideal of A attached to one weight class: anchor images and opposite
    products inside the zero weight space, plus the weight spaces."""
    na = h.dimA
    zero_part = Subspace.zero(na)
    graded = Subspace.zero(na)
    for beta in cls:
        abeta = wd.space(beta)
        graded = graded.add(abeta)
        neg = vec_neg(beta)
        zero_part = zero_part.add(h.anchor_space(rd.space(neg) if any(neg) else Subspace.zero(h.dimL), abeta))
        zero_part = zero_part.add(h.mul_space(wd.space(neg) if any(neg) else Subspace.zero(na), abeta))
    space = zero_part.add(graded)
    return WeightClassIdeal(
        cls=tuple(cls),
        zero_part=zero_part,
        graded_part=graded,
        space=space,
        zero_part_in_A0=wd.A0.contains_space(zero_part),
        direct=zero_part.intersect(graded).is_zero,
    )


def _cls_name(cls):
    return "{" + ", ".join(format_root(f) for f in cls) + "}"


def verify_prop_3_3(h, rd, wd, ideals):
    claims = []
    bad = None
    for ci in ideals:
        if not ci.space.contains_space(h.bracket_space(ci.space, ci.space)):
            bad = f"bracket escapes the ideal of class {_cls_name(ci.cls)}"
            break
    claims.append(ClaimResult("prop3.3.1", FAIL if bad else PASS, bad or f"{len(ideals)} class ideals"))

    bad = None
    for ci in ideals:
        if ci.space.image(h.psi) != ci.space:
            bad = f"twist image differs on the ideal of class {_cls_name(ci.cls)}"
            break
    claims.append(ClaimResult("prop3.3.2", FAIL if bad else PASS, bad or "twist fixes every class ideal"))

    bad = None
    for ci in ideals:
        if not ci.space.contains_space(h.act_space(h.full_A(), ci.space)):
            bad = f"scalar action escapes the ideal of class {_cls_name(ci.cls)}"
            break
    claims.append(ClaimResult("prop3.3.3", FAIL if bad else PASS, bad or "scalar action absorbed"))

    bad = None
    for ci in ideals:
        pushed = h.act_space(h.anchor_space(ci.space, h.full_A()), h.full_L())
        if not ci.space.contains_space(pushed):
            bad = f"anchor push-through escapes the ideal of class {_cls_name(ci.cls)}"
            break
    claims.append(ClaimResult("prop3.3.4", FAIL if bad else PASS, bad or "anchor push-through absorbed"))

    bad = None
    pairs = 0
    for i, ci in enumerate(ideals):
        for j, cj in enumerate(ideals):
            if i == j:
                continue
            pairs += 1
            if not h.bracket_space(ci.space, cj.space).is_zero:
                bad = f"classes {_cls_name(ci.cls)} and {_cls_name(cj.cls)} bracket nontrivially"
                break
        if bad:
            break
    claims.append(ClaimResult("prop3.3.5", FAIL if bad else PASS, bad or f"{pairs} ordered pairs zero"))
    return claims


def verify_thm_3_5_1(h, ideals):
    bad = None
    for ci in ideals:
        ok, failed = is_ideal(h, ci.space)
        if not ok:
            bad = f"class {_cls_name(ci.cls)} fails ideal rules: {', '.join(failed)}"
            break
    return ClaimResult("thm3.5.1", FAIL if bad else PASS, bad or f"{len(ideals)} class ideals pass every rule")


def root_inner_sum(h, rd, wd, roots):
    """Sum of opposite-weight actions and opposite-root brackets over the
    given roots; the candidate generator of H."""
    n = h.dimL
    inner = Subspace.zero(n)
    for g in roots:
        neg = vec_neg(g)
        inner = inner.add(h.act_space(wd.space(neg), rd.space(g)))
        inner = inner.add(h.bracket_space(rd.space(neg) if any(neg) else Subspace.zero(n), rd.space(g)))
    return inner


def weight_inner_sum(h, rd, wd, weights):
    """Sum of anchor images and opposite-weight products over the given
    weights; the candidate generator of the zero weight space."""
    na = h.dimA
    inner = Subspace.zero(na)
    for a in weights:
        neg = vec_neg(a)
        inner = inner.add(h.anchor_space(rd.space(neg) if any(neg) else Subspace.zero(h.dimL), wd.space(a)))
        inner = inner.add(h.mul_space(wd.space(neg) if any(neg) else Subspace.zero(na), wd.space(a)))
    return inner


def verify_thm_3_6(h, rd, wd, ideals):
    """L equals a complement inside H plus the sum of the class ideals."""
    inner = root_inner_sum(h, rd, wd, rd.gamma)
    if not rd.H.contains_space(inner):
        return (
            ClaimResult("thm3.6", FAIL, "the opposite-product sum escapes H; broken closure"),
            None,
        )
    u = complement(inner, rd.H)
    total = u
    for ci in ideals:
        total = total.add(ci.space)
    ok = total == h.full_L()
    return (
        ClaimResult(
            "thm3.6",
            PASS if ok else FAIL,
            f"complement dim {u.dim}, {len(ideals)} class ideals, sum dim {total.dim} of {h.dimL}",
        ),
        u,
    )


def verify_cor_3_8(h, rd, wd, ideals):
    z = annihilator_Z(h)
    inner = root_inner_sum(h, rd, wd, rd.gamma)
    missing = []
    if not z.is_zero:
        missing.append(f"the annihilator is nonzero (dim {z.dim})")
    if inner != rd.H:
        missing.append("H is not generated by the opposite products")
    if missing:
        return ClaimResult("cor3.8", REFUSED, "hypotheses not met: " + "; ".join(missing))
    total = Subspace.zero(h.dimL)
    for ci in ideals:
        total = total.add(ci.space)
    if total != h.full_L():
        return ClaimResult("cor3.8", FAIL, "the class ideals do not sum to L")
    for i, ci in enumerate(ideals):
        rest = Subspace.zero(h.dimL)
        for j, cj in enumerate(ideals):
            if j != i:
                rest = rest.add(cj.space)
        if not ci.space.intersect(rest).is_zero:
            return ClaimResult(
                "cor3.8", FAIL, f"class {_cls_name(ci.cls)} meets the sum of the others"
            )
    return ClaimResult("cor3.8", PASS, f"direct sum of {len(ideals)} class ideals")


def verify_prop_4_3(h, rd, wd, wideals):
    claims = []
    bad = None
    for ci in wideals:
        if not ci.space.contains_space(h.mul_space(ci.space, ci.space)):
            bad = f"products escape the weight ideal of class {_cls_name(ci.cls)}"
            break
    claims.append(ClaimResult("prop4.3.1", FAIL if bad else PASS, bad or f"{len(wideals)} weight ideals"))
    bad = None
    pairs = 0
    for i, ci in enumerate(wideals):
        for cj in wideals[i + 1 :]:
            pairs += 1
            if not h.mul_space(ci.space, cj.space).is_zero:
                bad = f"classes {_cls_name(ci.cls)} and {_cls_name(cj.cls)} multiply nontrivially"
                break
        if bad:
            break
    claims.append(ClaimResult("prop4.3.2", FAIL if bad else PASS, bad or f"{pairs} cross pairs zero"))
    return claims


def verify_thm_4_4(h, rd, wd, wideals, a_verdict, a_witness):
    claims = []
    bad = None
    for ci in wideals:
        if not ci.space.contains_space(h.mul_space(ci.space, h.full_A())):
            bad = f"weight ideal of class {_cls_name(ci.cls)} is not an ideal of A"
            break
    claims.append(ClaimResult("thm4.4.1", FAIL if bad else PASS, bad or "every weight ideal absorbs A"))

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
        part = weight_partition(rd, wd)
        one_class = len(part.classes) == 1
        inner = weight_inner_sum(h, rd, wd, wd.lam)
        generated = inner == wd.A0
        ok = one_class and generated
        detail = f"one weight class: {one_class}; zero weight space generated: {generated}"
        claims.append(ClaimResult("thm4.4.2", PASS if ok else FAIL, detail))
    return claims


def verify_thm_4_5(h, rd, wd, wideals):
    inner = weight_inner_sum(h, rd, wd, wd.lam)
    if not wd.A0.contains_space(inner):
        return (
            ClaimResult("thm4.5", FAIL, "the generator sum escapes the zero weight space; broken closure"),
            None,
        )
    v = complement(inner, wd.A0)
    total = v
    for ci in wideals:
        total = total.add(ci.space)
    ok = total == h.full_A()
    return (
        ClaimResult(
            "thm4.5",
            PASS if ok else FAIL,
            f"complement dim {v.dim}, {len(wideals)} weight ideals, sum dim {total.dim} of {h.dimA}",
        ),
        v,
    )


def verify_cor_4_6(h, rd, wd, wideals):
    za = center_ZA(h)
    inner = weight_inner_sum(h, rd, wd, wd.lam)
    missing = []
    if not za.is_zero:
        missing.append(f"the scalar annihilator is nonzero (dim {za.dim})")
    if inner != wd.A0:
        missing.append("the zero weight space is not generated by anchor images and opposite products")
    if missing:
        return ClaimResult("cor4.6", REFUSED, "hypotheses not met: " + "; ".join(missing))
    total = Subspace.zero(h.dimA)
    for ci in wideals:
        total = total.add(ci.space)
    if total != h.full_A():
        return ClaimResult("cor4.6", FAIL, "the weight ideals do not sum to A")
    for i, ci in enumerate(wideals):
        rest = Subspace.zero(h.dimA)
        for j, cj in enumerate(wideals):
            if j != i:
                rest = rest.add(cj.space)
        if not ci.space.intersect(rest).is_zero:
            return ClaimResult("cor4.6", FAIL, f"class {_cls_name(ci.cls)} meets the sum of the others")
    return ClaimResult("cor4.6", PASS, f"direct sum of {len(wideals)} weight ideals")


# -- ideal enumeration and simplicity ---------------------------------------


def ker_rho(h):
    n = h.dimL
    blocks = []
    for j in range(h.dimA):
        cols = [h.anchor_vec(basis_vector(n, i), basis_vector(h.dimA, j)) for i in range(n)]
        blocks.append(mat_from_columns(cols, nrows=h.dimA))
    if not blocks:
        return Subspace.full(n)
    return kernel(stack_rows(*blocks), ncols=n)


def _rule_maps(h):
    """Linear maps whose images an ideal must absorb, one matrix each."""
    n = h.dimL
    maps = []
    for j in range(n):
        x = basis_vector(n, j)
        maps.append(h.ad_right(x))
        maps.append(h.ad_left(x))
    for i in range(h.dimA):
        maps.append(h.act_matrix(basis_vector(h.dimA, i)))
    for i in range(h.dimA):
        for j in range(n):
            cols = [
                h.act_vec(h.anchor_vec(basis_vector(n, k), basis_vector(h.dimA, i)), basis_vector(n, j))
                for k in range(n)
            ]
            maps.append(mat_from_columns(cols, nrows=n))
    maps.append(h.psi)
    psi_inv = mat_inverse(h.psi)
    if psi_inv is not None:
        maps.append(psi_inv)
    return maps


def _from_h_coords(rd, w):
    """The subspace of L whose coordinates in the RREF basis of H span w."""
    to_l = mat_from_columns(rd.H.basis, nrows=rd.H.ambient)
    return Subspace(rd.H.ambient, [mat_vec(to_l, c) for c in w.basis])


def _h_part_window(rd, f_space, images):
    """Greatest subspace W of H whose rule images stay inside W + F,
    shrunk iteratively from H.

    images holds, for each rule map that does not vanish on H, the images
    of the basis of H.  W is tracked in H-coordinates: each step reduces
    those images along W + F and keeps the coordinates whose combined
    residuals vanish.  The greatest such W is unique, so the result does
    not depend on how it is computed.
    """
    d = rd.H.dim
    w = Subspace.full(d)
    while True:
        target = _from_h_coords(rd, w).add(f_space)
        cols = [tuple(x for imgs in images for x in target.reduce(imgs[i])) for i in range(d)]
        shrunk = w.intersect(kernel(mat_from_columns(cols), ncols=d))
        if shrunk == w:
            return _from_h_coords(rd, w)
        w = shrunk


def _is_graded(rd, space):
    """True when space is the sum of its intersections with the zero space
    and the root spaces."""
    parts = [rd.zero_space] + [rd.root_spaces[g] for g in rd.gamma]
    return sum(space.intersect(p).dim for p in parts) == space.dim


@dataclass(frozen=True)
class EnumeratedIdeals:
    ideals: tuple  # Subspaces, sorted by (dim, basis)
    complete: bool
    note: str


def enumerate_ideals(h, rd, cap=512):
    """All ideals assembled from root subsets and compatible H-parts.

    A candidate is F_S + W for a root subset S, with F_S the sum of the root
    spaces in S and W a subspace of H.  S is feasible when the ideal
    generated by F_S meets no root space outside S.

    The rules that close an ideal are linear maps, so the ideal generated by
    F_S is the sum of the single-root closures C_g = closure(L_g), g in S.
    When every C_g is graded (the sum of its pieces in the zero space and
    the root spaces, checked here; it always holds on split inputs, since
    closures are invariant under the twisted adjoint action of H), so is
    each such sum, and it meets L_d exactly when some C_g with g in S does.
    The feasible subsets are then the down-closed ones: supp(C_g) lies in S
    for every g in S, where supp(C_g) is the set of roots d with C_g meeting
    L_d.  Only the |Gamma| single-root closures are computed; infeasible
    subsets are never closed.  If some C_g is not graded, every subset is
    closed instead (`_enumerate_by_subsets`).

    For a feasible S the H-part ranges from (sum of C_g) meet H up to the
    greatest W in H whose rule images stay in W + F_S; both ends are
    candidates, and every candidate passes `is_ideal` before it is kept.

    Complete when every root space is one-dimensional, the subset count
    stays under the cap, and for each feasible subset the window of
    compatible H-parts spans at most one extra dimension; the completeness
    argument additionally rests on gradedness of ideals, which the caller
    re-verifies on everything found here.
    """
    n = h.dimL
    gamma = rd.gamma
    closures = [ideal_closure(h, rd.space(g)).space for g in gamma]
    if 2 ** len(gamma) > cap:
        found = {Subspace.zero(n), h.full_L(), *closures}
        return EnumeratedIdeals(
            ideals=tuple(sorted(found, key=lambda s: (s.dim, s.basis))),
            complete=False,
            note=f"root subset count 2^{len(gamma)} exceeds the cap; closure seeds only",
        )
    if not all(_is_graded(rd, c) for c in closures):
        return _enumerate_by_subsets(h, rd)
    support = [
        sum(1 << j for j, d in enumerate(gamma) if not c.intersect(rd.space(d)).is_zero) for c in closures
    ]
    closed = []
    for mask in range(2 ** len(gamma)):
        members = [i for i in range(len(gamma)) if mask >> i & 1]
        if all(support[i] & ~mask == 0 for i in members):
            closed.append((members, Subspace(n, [b for i in members for b in closures[i].basis])))
    return _ideals_from_closed_sets(h, rd, closed)


def _enumerate_by_subsets(h, rd):
    """`enumerate_ideals` by closing every one of the 2^|Gamma| root
    subsets; the fallback when a single-root closure is not graded."""
    n = h.dimL
    gamma = rd.gamma
    closed = []
    for mask in range(2 ** len(gamma)):
        members = [i for i in range(len(gamma)) if mask >> i & 1]
        f_space = Subspace(n, [b for i in members for b in rd.space(gamma[i]).basis])
        closure = ideal_closure(h, f_space).space
        if all(i in members or closure.intersect(rd.space(g)).is_zero for i, g in enumerate(gamma)):
            closed.append((members, closure))
    return _ideals_from_closed_sets(h, rd, closed)


def _ideals_from_closed_sets(h, rd, closed):
    """Ideals from (feasible root subset as indices into gamma, the ideal it
    generates) pairs: each H-part window's ends that pass `is_ideal`."""
    n = h.dimL
    gamma = rd.gamma
    maximal = all(rd.root_spaces[g].dim == 1 for g in gamma)
    found = set()
    complete = maximal
    note = "" if maximal else "a root space has dimension above one; enumeration is heuristic"
    images = []
    for m in _rule_maps(h):
        imgs = [mat_vec(m, b) for b in rd.H.basis]
        if any(map(any, imgs)):
            images.append(imgs)
    for members, closure in closed:
        f_space = Subspace(n, [b for i in members for b in rd.space(gamma[i]).basis])
        w_min = closure.intersect(rd.H)
        w_max = _h_part_window(rd, f_space, images)
        if not w_max.contains_space(w_min):
            continue
        gap = w_max.dim - w_min.dim
        if gap > 1:
            complete = False
            note = "an H-part window spans more than one free dimension; middle layers not enumerated"
        candidates = [w_min] if gap == 0 else [w_min, w_max]
        for w in candidates:
            cand = w.add(f_space)
            ok, _failed = is_ideal(h, cand)
            if ok:
                found.add(cand)
    return EnumeratedIdeals(
        ideals=tuple(sorted(found, key=lambda s: (s.dim, s.basis))),
        complete=complete,
        note=note,
    )


@dataclass(frozen=True)
class SimplicityReport:
    verdict: str  # simple | not_simple | inconclusive
    reason: str
    enumerated: EnumeratedIdeals
    violating: object  # Subspace or None
    allowed: tuple  # descriptions of the allowed ideals present
    coincidences: tuple
    one_class: bool
    h_generated: bool

    def claim(self):
        detail = f"{self.verdict}: {self.reason}"
        return ClaimResult("def3.4", INFO, detail)


def simplicity_check(h, rd, wd, jrep):
    """Verdict against the allowed-ideal list {0, J, L, ker rho}.

    A simple verdict is only issued when the enumeration was complete;
    otherwise the honest answer is inconclusive.
    """
    n = h.dimL
    full = h.full_L()
    basics = []
    if h.bracket_space(full, full).is_zero:
        basics.append("the bracket is identically zero")
    if h.mul_space(h.full_A(), h.full_A()).is_zero:
        basics.append("the scalar product is identically zero")
    if h.act_space(h.full_A(), full).is_zero:
        basics.append("the scalar action is identically zero")
    kr = ker_rho(h)
    allowed = {
        Subspace.zero(n): "0",
        jrep.J: "J",
        full: "L",
        kr: "ker_rho",
    }
    coincidences = []
    if jrep.J.is_zero:
        coincidences.append("J=0")
    if jrep.J == full:
        coincidences.append("J=L")
    if kr == full:
        coincidences.append("ker_rho=L")
    if kr.is_zero:
        coincidences.append("ker_rho=0")
    enum = enumerate_ideals(h, rd)
    violating = None
    for cand in enum.ideals:
        if cand not in allowed:
            violating = cand
            break
    part = root_partition(rd, wd)
    one_class = len(part.classes) <= 1
    inner = root_inner_sum(h, rd, wd, rd.gamma)
    h_generated = inner == rd.H
    if basics:
        return SimplicityReport(
            verdict="not_simple",
            reason="; ".join(basics),
            enumerated=enum,
            violating=None,
            allowed=tuple(sorted(set(allowed.values()))),
            coincidences=tuple(coincidences),
            one_class=one_class,
            h_generated=h_generated,
        )
    if violating is not None:
        return SimplicityReport(
            verdict="not_simple",
            reason=f"found an ideal of dimension {violating.dim} outside the allowed list",
            enumerated=enum,
            violating=violating,
            allowed=tuple(sorted(set(allowed.values()))),
            coincidences=tuple(coincidences),
            one_class=one_class,
            h_generated=h_generated,
        )
    if enum.complete:
        return SimplicityReport(
            verdict="simple",
            reason=f"complete enumeration found {len(enum.ideals)} ideals, all allowed",
            enumerated=enum,
            violating=None,
            allowed=tuple(sorted(set(allowed.values()))),
            coincidences=tuple(coincidences),
            one_class=one_class,
            h_generated=h_generated,
        )
    return SimplicityReport(
        verdict="inconclusive",
        reason=f"incomplete search ({enum.note}); no violating ideal found",
        enumerated=enum,
        violating=None,
        allowed=tuple(sorted(set(allowed.values()))),
        coincidences=tuple(coincidences),
        one_class=one_class,
        h_generated=h_generated,
    )


def a_simplicity_probe(h, wd):
    """Bounded probe for simplicity of the scalar algebra.

    Certifies simple only in the one-dimensional nondegenerate case; finds
    counterexample ideals by closing weight spaces and coordinate lines
    under multiplication.  Returns (verdict, description)."""
    na = h.dimA
    full = h.full_A()
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
    rd: object
    wd: object
    jrep: object
    root_part: object
    weight_part: object
    root_ideals: tuple
    weight_ideals: tuple
    U: object
    V: object
    simplicity: SimplicityReport
    claims: tuple


def run_decomposition(h, rd, wd, lemma_claims):
    """Assemble class ideals and run every decomposition verifier."""
    if not rd.split or not wd.split:
        raise ValueError("decomposition is not split; nothing to verify")
    jrep = compute_J(h)
    root_part = root_partition(rd, wd)
    weight_part = weight_partition(rd, wd)
    root_ideals = tuple(build_root_ideal(h, rd, wd, c) for c in root_part.classes)
    weight_ideals = tuple(build_weight_ideal(h, rd, wd, c) for c in weight_part.classes)
    claims = list(lemma_claims)
    claims.extend(verify_prop_3_3(h, rd, wd, root_ideals))
    claims.append(verify_thm_3_5_1(h, root_ideals))
    thm36, u = verify_thm_3_6(h, rd, wd, root_ideals)
    claims.append(thm36)
    claims.append(verify_cor_3_8(h, rd, wd, root_ideals))
    claims.extend(verify_prop_4_3(h, rd, wd, weight_ideals))
    a_verdict, a_witness = a_simplicity_probe(h, wd)
    claims.extend(verify_thm_4_4(h, rd, wd, weight_ideals, a_verdict, a_witness))
    thm45, v = verify_thm_4_5(h, rd, wd, weight_ideals)
    claims.append(thm45)
    claims.append(verify_cor_4_6(h, rd, wd, weight_ideals))
    simplicity = simplicity_check(h, rd, wd, jrep)
    claims.append(simplicity.claim())
    return DecompositionReport(
        rd=rd,
        wd=wd,
        jrep=jrep,
        root_part=root_part,
        weight_part=weight_part,
        root_ideals=root_ideals,
        weight_ideals=weight_ideals,
        U=u,
        V=v,
        simplicity=simplicity,
        claims=tuple(claims),
    )
