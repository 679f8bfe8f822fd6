"""Root and weight space decompositions relative to an abelian subalgebra.

A root functional is stored as the tuple of its values on the RREF basis of
the chosen subalgebra H, so functionals from the root side and the weight
side live in one coordinate space and can be added freely.  Composition
with the twist acts on those coordinate tuples through the transpose of
the restricted twist matrix.

Grading questions are answered in the adapted basis of a split L (the RREF
basis of H, then each root space's basis in gamma order): see `parts`.

The two sides follow different conventions today:

- a root space is an eigenspace of ad h pulled back through psi^-1, so
  L_gamma = {v : [h, psi(v)] = gamma(h) psi(v)} for every h in H;
- a weight space is an eigenspace of phi^-1 rho(h), so
  A_lambda = {a : rho(h)(a) = lambda(h) phi(a)}.

The two agree when psi is the identity and differ on twisted inputs.  That
is why lem2.11.5 (weight spaces act on root spaces into the sum root space)
FAILs on some twisted inputs that validate strictly, for example
`random_instance` seed 1 twisted by its own pair: f = diag(1, -1, 1) moves
the root of e to -lambda while the weight of t stays lambda.
"""

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from operator import mul

from .claims import FAIL, PASS, ClaimResult
from .linalg import (
    Subspace,
    joint_eigenspaces,
    mat_columns,
    mat_from_columns,
    mat_inverse,
    mat_mul,
    mat_vec,
    vec_add,
    zero_vector,
)
from .model import InputError, _span, ideal_rules, operators, rule_image
from .scalars import format_scalar


class CartanError(ValueError):
    """The chosen subalgebra cannot anchor a decomposition at all."""

    def __init__(self, reason, message):
        super().__init__(message)
        self.reason = reason


class OrbitError(ValueError):
    """A twist orbit left the computed root set; the decomposition is corrupt."""


def format_root(f):
    return "(" + ", ".join(format_scalar(c) for c in f) + ")"


def format_class(cls):
    return "{" + ", ".join(format_root(f) for f in cls) + "}"


@dataclass(eq=False)
class RootDecomposition:
    H: Subspace
    psi_on_H: tuple
    psi_on_H_inv: tuple
    root_spaces: dict  # nonzero functional tuple -> Subspace
    zero_space: Subspace
    remainder: Subspace
    split: bool
    diagnosis: str = ""

    @cached_property
    def psi_columns(self):
        """Columns of the twist on H and of its inverse, keyed by the sign
        of the power: composing a functional with them is one mat_vec."""
        return {1: mat_columns(self.psi_on_H), -1: mat_columns(self.psi_on_H_inv)}

    @cached_property
    def gamma(self):
        """The roots in sorted order; root_spaces is only written before
        the decomposition is returned."""
        return sorted(self.root_spaces)

    def space(self, f):
        """Root space for a functional; the zero functional names H."""
        if all(c == 0 for c in f):
            return self.H
        space = self.root_spaces.get(tuple(f))
        return Subspace.zero(self.H.ambient) if space is None else space

    @cached_property
    def to_adapted(self):
        """(rows, offsets): the inverse of the adapted basis cleared to one
        denominator, and where each piece's coordinates start, then dim L."""
        if not self.split:
            raise ValueError("root decomposition is not split; L has no adapted basis")
        pieces = [self.H] + [self.root_spaces[g] for g in self.gamma]
        inverse = mat_inverse(mat_from_columns([b for p in pieces for b in p.basis], nrows=self.H.ambient))
        den = lcm(*(x.denominator for row in inverse for x in row))
        offsets = tuple(sum(p.dim for p in pieces[:k]) for k in range(len(pieces) + 1))
        return tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in inverse), offsets

    def parts(self, space):
        """The components of space in H and then in each root space in
        gamma order, each in coordinates on that piece's basis, from one
        integer product per row of space.  They span space or more, and
        exactly space when it is graded: then each is the intersection of
        space with its piece."""
        rows, offsets = self.to_adapted
        images = [[sum(map(mul, row, w)) for row in rows] for w in space.rows]
        return [Subspace(stop - start, [v[start:stop] for v in images]) for start, stop in zip(offsets, offsets[1:])]

    def is_graded(self, space):
        """True when the dimensions of the parts of space add up to its own."""
        return sum(p.dim for p in self.parts(space)) == space.dim


@dataclass(eq=False)
class WeightDecomposition:
    A0: Subspace
    weights: dict  # nonzero functional tuple -> Subspace
    remainder: Subspace
    split: bool
    diagnosis: str = ""

    @cached_property
    def lam(self):
        """The weights in sorted order, sorted once like gamma."""
        return sorted(self.weights)

    def space(self, f):
        if all(c == 0 for c in f):
            return self.A0
        space = self.weights.get(tuple(f))
        return Subspace.zero(self.A0.ambient) if space is None else space


def _resolve_h(h, H):
    if H is None:
        if h.declared_H is None:
            raise InputError("no abelian subalgebra specified and none declared in the input")
        return Subspace(h.dimL, h.declared_H)
    for i, row in enumerate(H):
        if len(row) != h.dimL:
            raise InputError(f"subalgebra row {i} has {len(row)} entries; expected {h.dimL}, the dimension of L")
    return Subspace(h.dimL, H)


def root_decomposition(h, H=None):
    """Split L into joint twisted-adjoint eigenspaces of the chosen H.

    Structural obstacles (H not abelian, twist not preserving H, singular
    twist) raise CartanError.  A decomposition that merely fails to cover L
    or whose zero space exceeds H comes back with split=False and a
    diagnosis instead.
    """
    H = _resolve_h(h, H)
    if not h.bracket_space(H, H).is_zero:
        raise CartanError("not_abelian", "the chosen subalgebra is not abelian")
    if h.psi_inv is None:
        raise CartanError("psi_singular", "the twist on L is singular; no regular decomposition")
    psi_cols = [H.coords(mat_vec(h.psi, b)) for b in H.basis]
    if None in psi_cols:
        raise CartanError("psi_not_stable", "the twist does not preserve the chosen subalgebra")
    psi_h = mat_from_columns(psi_cols)
    # psi restricted to an invariant subspace of an invertible map is invertible
    psi_h_inv = mat_inverse(psi_h)

    classes, w_rem = joint_eigenspaces(operators(h.maps.bracket, H, h.full_L), h.full_L)
    root_spaces = {tup: _span(h.maps.psi_inv, [w_sub]) for tup, w_sub in classes}
    zero_space = root_spaces.pop(zero_vector(H.dim), Subspace.zero(h.dimL))
    # psi_inv is a bijection, so it maps a complement of the classes to a
    # complement of their images
    remainder = _span(h.maps.psi_inv, [w_rem])

    split = remainder.is_zero and zero_space == H
    diagnosis = ""
    if not remainder.is_zero:
        diagnosis = (
            "the joint eigenspaces do not fill L; remainder has dimension "
            f"{remainder.dim} (not split over the rationals)"
        )
    elif zero_space != H:
        diagnosis = (
            "the zero root space has dimension "
            f"{zero_space.dim}, the chosen subalgebra {H.dim}; "
            "H is not a splitting abelian subalgebra"
        )
    return RootDecomposition(
        H=H,
        psi_on_H=psi_h,
        psi_on_H_inv=psi_h_inv,
        root_spaces=root_spaces,
        zero_space=zero_space,
        remainder=remainder,
        split=split,
        diagnosis=diagnosis,
    )


def weight_decomposition(h, rd):
    """Split A into joint eigenspaces of the inverse-twisted anchors of H."""
    phi_inv = h.phi_inv
    if phi_inv is None:
        raise CartanError("phi_singular", "the twist on A is singular; no regular decomposition")
    ops = [mat_mul(phi_inv, m) for m in operators(h.maps.anchor, rd.H, h.full_A)]
    classes, remainder = joint_eigenspaces(ops, h.full_A)
    weights = dict(classes)
    a0 = weights.pop(zero_vector(rd.H.dim), Subspace.zero(h.dimA))
    # phi must keep each piece; any map keeps the zero space and the whole of A
    pieces = [(f"the weight space at {format_root(tup)}", weights[tup]) for tup in sorted(weights)]
    diagnosis = next(
        (
            f"phi does not preserve {name}"
            for name, space in pieces + [("the zero weight space", a0)]
            if space.dim not in (0, h.dimA) and not space.contains_space(_span(h.maps.phi, [space]))
        ),
        "",
    )
    split = remainder.is_zero
    if not split and not diagnosis:
        diagnosis = (
            f"the weight spaces do not fill A; remainder has dimension {remainder.dim} "
            "(not split over the rationals)"
        )
    return WeightDecomposition(
        A0=a0,
        weights=weights,
        remainder=remainder,
        split=split,
        diagnosis=diagnosis,
    )


def compose_psi_power(f, z, rd):
    """The functional f composed with the z-th power of the twist on H."""
    m = rd.psi_columns[1 if z > 0 else -1]
    f = tuple(f)
    for _ in range(abs(z)):
        f = mat_vec(m, f)
    return f


def psi_orbit(f, rd):
    """Cycle of f under repeated inverse-twist composition, starting at f.

    Functionals compose with a bijection, so the orbit is a pure cycle.
    Every member must be a known root; anything else means the decomposition
    data is internally inconsistent.
    """
    f = tuple(f)
    known = set(rd.root_spaces)
    orbit = [f]
    if f not in known:
        raise OrbitError(f"functional {format_root(f)} is not a root")
    cur = compose_psi_power(f, -1, rd)
    guard = 0
    while cur != f:
        if cur not in known:
            raise OrbitError(
                f"orbit member {format_root(cur)} left the root set; corrupted decomposition"
            )
        orbit.append(cur)
        cur = compose_psi_power(cur, -1, rd)
        guard += 1
        if guard > len(known) + 1:
            raise OrbitError("orbit did not close; corrupted decomposition")
    return orbit


def verify_lemma_closures(h, rd, wd):
    """The six closure facts tying products of graded pieces to index sums.

    Runs on a split decomposition and checks everything as exact subspace
    statements.  Returns one ClaimResult per item.
    """
    claims = []
    zero = zero_vector(rd.H.dim)
    gamma0 = [zero] + rd.gamma
    lam0 = [zero] + wd.lam

    ok = rd.zero_space == rd.H
    claims.append(
        ClaimResult(
            "lem2.11.1",
            PASS if ok else FAIL,
            "zero root space equals H"
            if ok
            else f"zero root space has dimension {rd.zero_space.dim}, H has {rd.H.dim}",
        )
    )

    rules = {rule[0]: rule for rule in ideal_rules(h)}  # psi and psi_inv images off h.rule_tables
    bad = ""
    for g in rd.gamma:
        fwd = rule_image(h, rules["psi"], rd.root_spaces[g])
        fwd_target = rd.space(compose_psi_power(g, -1, rd))
        if fwd != fwd_target:
            bad = f"twist image of the root space at {format_root(g)} is not the root space at the inverse-composed functional"
            break
        bwd = rule_image(h, rules["psi_inv"], rd.root_spaces[g])
        bwd_target = rd.space(compose_psi_power(g, 1, rd))
        if bwd != bwd_target:
            bad = f"inverse twist image of the root space at {format_root(g)} mismatches"
            break
    claims.append(
        ClaimResult("lem2.11.2", FAIL if bad else PASS, bad or f"checked {len(rd.gamma)} roots, both directions")
    )

    def twisted_sum(g, x):
        return vec_add(compose_psi_power(g, -1, rd), compose_psi_power(x, -1, rd))

    claims.append(
        _products_land(
            "lem2.11.3", gamma0, gamma0, lambda g, x: h.bracket_space(rd.space(g), rd.space(x)),
            twisted_sum, rd.space, "[{0}, {1}] -> {2}", "brackets",
        )
    )
    claims.append(
        _products_land(
            "lem2.11.4", lam0, lam0, lambda a, b: h.mul_space(wd.space(a), wd.space(b)),
            vec_add, wd.space, "{0}*{1} -> {2}", "products",
        )
    )
    claims.append(
        _products_land(
            "lem2.11.5", lam0, gamma0, lambda a, g: h.act_space(wd.space(a), rd.space(g)),
            vec_add, rd.space, "{0}.{1} -> {2}", "actions",
        )
    )
    claims.append(
        _products_land(
            "lem2.11.6", gamma0, lam0, lambda g, a: h.anchor_space(rd.space(g), wd.space(a)),
            vec_add, wd.space, "rho({0})({1}) -> {2}", "anchor images",
        )
    )
    return claims


def _products_land(claim_id, left, right, product, index_sum, space, where, noun):
    """Every nonzero product of the pieces at (x, y), x in left and y in
    right, lies in the piece at index_sum(x, y); where formats the first
    pair that escapes."""
    nonzero = 0
    for x in left:
        for y in right:
            prod = product(x, y)
            if prod.is_zero:
                continue
            nonzero += 1
            tgt = index_sum(x, y)
            if not space(tgt).contains_space(prod):
                at = where.format(format_root(x), format_root(y), format_root(tgt))
                return ClaimResult(claim_id, FAIL, f"at {at}: nonzero product escapes its target space")
    return ClaimResult(claim_id, PASS, f"{len(left) * len(right)} pairs, {nonzero} nonzero {noun}")
