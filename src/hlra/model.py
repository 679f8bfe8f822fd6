"""Structure-constant model of a Hom-Leibniz-Rinehart algebra and its checks.

An instance carries a commutative algebra A of scalars, a bracket algebra L,
an A-action on L, an anchor map from L into operators on A, and the two
twist endomorphisms.  Everything is a dense tuple tensor over Fraction:

    bracket[i][j][k]  coefficient of x_k in [x_i, x_j]
    mul[i][j][k]      coefficient of a_k in a_i * a_j
    action[i][j][k]   coefficient of x_k in a_i . x_j
    anchor[i][j][k]   coefficient of a_k in rho(x_i)(a_j)

psi acts on L, phi acts on A, both as matrices with columns holding images
of basis vectors.
"""

from dataclasses import dataclass, replace

from .linalg import (
    ONE,
    ZERO,
    Subspace,
    basis_vector,
    frac,
    identity_matrix,
    is_zero_vector,
    kernel,
    mat_from_columns,
    mat_inverse,
    mat_vec,
    solve,
    stack_rows,
    vec_add,
    vec_sub,
)
from .scalars import format_vector

STRICT = "strict"
RELAXED = "relaxed"

# Representation-compatibility identities between anchor, bracket and twists.
# They hold for the motivating examples but some natural instances violate
# the second one, so by default a violation is a warning not a failure.
RELAXABLE_CHECKS = ("rep.psi_phi", "rep.bracket")


class InputError(ValueError):
    """Malformed input data: wrong shapes, bad indices, bad flags."""


def _freeze_tensor(t, d0, d1, d2, name):
    if len(t) != d0:
        raise InputError(f"{name}: expected {d0} slices, got {len(t)}")
    out = []
    for i, plane in enumerate(t):
        if len(plane) != d1:
            raise InputError(f"{name}[{i}]: expected {d1} rows, got {len(plane)}")
        rows = []
        for j, row in enumerate(plane):
            if len(row) != d2:
                raise InputError(f"{name}[{i}][{j}]: expected {d2} entries, got {len(row)}")
            rows.append(tuple(frac(x) for x in row))
        out.append(tuple(rows))
    return tuple(out)


def _freeze_matrix(m, n, name):
    if len(m) != n:
        raise InputError(f"{name}: expected {n} rows, got {len(m)}")
    out = []
    for i, row in enumerate(m):
        if len(row) != n:
            raise InputError(f"{name}[{i}]: expected {n} entries, got {len(row)}")
        out.append(tuple(frac(x) for x in row))
    return tuple(out)


@dataclass(frozen=True)
class HLRAlgebra:
    dimL: int
    dimA: int
    bracket: tuple
    mul: tuple
    action: tuple
    anchor: tuple
    psi: tuple
    phi: tuple
    L_labels: tuple = ()
    A_labels: tuple = ()
    regular: bool = True
    unital: bool = False
    declared_H: tuple = None

    def __post_init__(self):
        if self.dimL < 0 or self.dimA < 0:
            raise InputError("negative dimension")
        object.__setattr__(
            self, "bracket", _freeze_tensor(self.bracket, self.dimL, self.dimL, self.dimL, "bracket")
        )
        object.__setattr__(
            self, "mul", _freeze_tensor(self.mul, self.dimA, self.dimA, self.dimA, "mul")
        )
        object.__setattr__(
            self, "action", _freeze_tensor(self.action, self.dimA, self.dimL, self.dimL, "action")
        )
        object.__setattr__(
            self, "anchor", _freeze_tensor(self.anchor, self.dimL, self.dimA, self.dimA, "anchor")
        )
        object.__setattr__(self, "psi", _freeze_matrix(self.psi, self.dimL, "psi"))
        object.__setattr__(self, "phi", _freeze_matrix(self.phi, self.dimA, "phi"))
        labels_l = tuple(self.L_labels) or tuple(f"x{i}" for i in range(self.dimL))
        labels_a = tuple(self.A_labels) or tuple(f"a{i}" for i in range(self.dimA))
        if len(labels_l) != self.dimL:
            raise InputError("L label count does not match dimL")
        if len(labels_a) != self.dimA:
            raise InputError("A label count does not match dimA")
        object.__setattr__(self, "L_labels", labels_l)
        object.__setattr__(self, "A_labels", labels_a)
        if self.declared_H is not None:
            rows = tuple(tuple(frac(x) for x in r) for r in self.declared_H)
            for r in rows:
                if len(r) != self.dimL:
                    raise InputError("declared_H row length does not match dimL")
            object.__setattr__(self, "declared_H", rows)

    # -- evaluation on coordinate vectors ---------------------------------

    def bracket_vec(self, u, v):
        return _bilinear(self.bracket, u, v, self.dimL)

    def mul_vec(self, a, b):
        return _bilinear(self.mul, a, b, self.dimA)

    def act_vec(self, a, x):
        return _bilinear(self.action, a, x, self.dimL)

    def anchor_vec(self, x, a):
        return _bilinear(self.anchor, x, a, self.dimA)

    def psi_vec(self, x):
        return mat_vec(self.psi, x)

    def phi_vec(self, a):
        return mat_vec(self.phi, a)

    # -- operators as matrices --------------------------------------------

    def ad_left(self, h):
        """Matrix of v -> [h, v]."""
        cols = [self.bracket_vec(h, basis_vector(self.dimL, j)) for j in range(self.dimL)]
        return mat_from_columns(cols, nrows=self.dimL)

    def ad_right(self, h):
        """Matrix of v -> [v, h]."""
        cols = [self.bracket_vec(basis_vector(self.dimL, j), h) for j in range(self.dimL)]
        return mat_from_columns(cols, nrows=self.dimL)

    def act_matrix(self, a):
        """Matrix of x -> a . x."""
        cols = [self.act_vec(a, basis_vector(self.dimL, j)) for j in range(self.dimL)]
        return mat_from_columns(cols, nrows=self.dimL)

    def anchor_matrix(self, x):
        """Matrix of a -> rho(x)(a)."""
        cols = [self.anchor_vec(x, basis_vector(self.dimA, j)) for j in range(self.dimA)]
        return mat_from_columns(cols, nrows=self.dimA)

    # -- subspace products -------------------------------------------------

    def bracket_space(self, s, t):
        """Span of [s, t] over basis pairs."""
        vecs = [self.bracket_vec(u, v) for u in s.basis for v in t.basis]
        return Subspace(self.dimL, vecs)

    def mul_space(self, s, t):
        vecs = [self.mul_vec(u, v) for u in s.basis for v in t.basis]
        return Subspace(self.dimA, vecs)

    def act_space(self, sa, sl):
        vecs = [self.act_vec(a, x) for a in sa.basis for x in sl.basis]
        return Subspace(self.dimL, vecs)

    def anchor_space(self, sl, sa):
        vecs = [self.anchor_vec(x, a) for x in sl.basis for a in sa.basis]
        return Subspace(self.dimA, vecs)

    def full_L(self):
        return Subspace.full(self.dimL)

    def full_A(self):
        return Subspace.full(self.dimA)

    def label_L(self, i):
        return self.L_labels[i]

    def label_A(self, i):
        return self.A_labels[i]


def _bilinear(tensor, u, v, out_dim):
    out = [ZERO] * out_dim
    for i, ci in enumerate(u):
        if not ci:
            continue
        plane = tensor[i]
        for j, cj in enumerate(v):
            if not cj:
                continue
            c = ci * cj
            row = plane[j]
            for k in range(out_dim):
                if row[k]:
                    out[k] += c * row[k]
    return tuple(out)


# -- validation -------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    key: str
    status: str  # pass | fail | warn | info
    detail: str = ""


@dataclass
class ValidationReport:
    strictness: str
    checks: list

    @property
    def ok(self):
        return not any(c.status == "fail" for c in self.checks)

    def failures(self):
        return [c for c in self.checks if c.status == "fail"]

    def by_key(self, key):
        for c in self.checks:
            if c.key == key:
                return c
        return None


def _first_violation(pairs):
    """pairs yields (label, lhs, rhs); returns a detail string or None."""
    for label, lhs, rhs in pairs:
        if lhs != rhs:
            return f"at {label}: lhs={format_vector(lhs)} rhs={format_vector(rhs)}"
    return None


def validate_hlr(h, strictness=RELAXED):
    """Check every defining identity on basis tuples, in a fixed order.

    Mathematical violations are reported, never raised.  The relaxable
    representation identities degrade to warnings unless strict mode is on.
    """
    if strictness not in (STRICT, RELAXED):
        raise InputError(f"unknown strictness {strictness!r}")
    nl, na = h.dimL, h.dimA
    eL = [basis_vector(nl, i) for i in range(nl)]
    eA = [basis_vector(na, i) for i in range(na)]
    la, ll = h.label_A, h.label_L
    checks = []

    def run(key, pairs):
        bad = _first_violation(pairs)
        if bad is None:
            checks.append(CheckResult(key, "pass"))
        else:
            status = "fail"
            if key in RELAXABLE_CHECKS and strictness == RELAXED:
                status = "warn"
            checks.append(CheckResult(key, status, bad))

    run(
        "A.commutative",
        (
            (f"({la(i)},{la(j)})", h.mul_vec(eA[i], eA[j]), h.mul_vec(eA[j], eA[i]))
            for i in range(na)
            for j in range(i + 1, na)
        ),
    )
    run(
        "A.associative",
        (
            (
                f"({la(i)},{la(j)},{la(k)})",
                h.mul_vec(h.mul_vec(eA[i], eA[j]), eA[k]),
                h.mul_vec(eA[i], h.mul_vec(eA[j], eA[k])),
            )
            for i in range(na)
            for j in range(na)
            for k in range(na)
        ),
    )
    run(
        "A.phi_endomorphism",
        (
            (
                f"({la(i)},{la(j)})",
                h.phi_vec(h.mul_vec(eA[i], eA[j])),
                h.mul_vec(h.phi_vec(eA[i]), h.phi_vec(eA[j])),
            )
            for i in range(na)
            for j in range(na)
        ),
    )
    run(
        "L.hom_leibniz",
        (
            (
                f"({ll(i)},{ll(j)},{ll(k)})",
                h.bracket_vec(h.psi_vec(eL[i]), h.bracket_vec(eL[j], eL[k])),
                vec_add(
                    h.bracket_vec(h.bracket_vec(eL[i], eL[j]), h.psi_vec(eL[k])),
                    h.bracket_vec(h.psi_vec(eL[j]), h.bracket_vec(eL[i], eL[k])),
                ),
            )
            for i in range(nl)
            for j in range(nl)
            for k in range(nl)
        ),
    )
    run(
        "L.psi_multiplicative",
        (
            (
                f"({ll(i)},{ll(j)})",
                h.psi_vec(h.bracket_vec(eL[i], eL[j])),
                h.bracket_vec(h.psi_vec(eL[i]), h.psi_vec(eL[j])),
            )
            for i in range(nl)
            for j in range(nl)
        ),
    )
    run(
        "module.associative",
        (
            (
                f"({la(i)},{la(j)},{ll(k)})",
                h.act_vec(h.mul_vec(eA[i], eA[j]), eL[k]),
                h.act_vec(eA[i], h.act_vec(eA[j], eL[k])),
            )
            for i in range(na)
            for j in range(na)
            for k in range(nl)
        ),
    )
    run(
        "compat.psi_action",
        (
            (
                f"({la(i)},{ll(j)})",
                h.psi_vec(h.act_vec(eA[i], eL[j])),
                h.act_vec(h.phi_vec(eA[i]), h.psi_vec(eL[j])),
            )
            for i in range(na)
            for j in range(nl)
        ),
    )
    run(
        "anchor.derivation",
        (
            (
                f"({ll(i)},{la(j)},{la(k)})",
                h.anchor_vec(eL[i], h.mul_vec(eA[j], eA[k])),
                vec_add(
                    h.mul_vec(h.phi_vec(eA[j]), h.anchor_vec(eL[i], eA[k])),
                    h.mul_vec(h.phi_vec(eA[k]), h.anchor_vec(eL[i], eA[j])),
                ),
            )
            for i in range(nl)
            for j in range(na)
            for k in range(na)
        ),
    )
    run(
        "anchor.action_compat",
        (
            (
                f"({la(i)},{ll(j)},{la(k)})",
                h.anchor_vec(h.act_vec(eA[i], eL[j]), eA[k]),
                h.mul_vec(h.phi_vec(eA[i]), h.anchor_vec(eL[j], eA[k])),
            )
            for i in range(na)
            for j in range(nl)
            for k in range(na)
        ),
    )
    run(
        "compat.leibniz_action",
        (
            (
                f"({ll(i)},{la(j)},{ll(k)})",
                h.bracket_vec(eL[i], h.act_vec(eA[j], eL[k])),
                vec_add(
                    h.act_vec(h.phi_vec(eA[j]), h.bracket_vec(eL[i], eL[k])),
                    h.act_vec(h.anchor_vec(eL[i], eA[j]), h.psi_vec(eL[k])),
                ),
            )
            for i in range(nl)
            for j in range(na)
            for k in range(nl)
        ),
    )
    run(
        "rep.psi_phi",
        (
            (
                f"({ll(i)},{la(j)})",
                h.anchor_vec(h.psi_vec(eL[i]), h.phi_vec(eA[j])),
                h.phi_vec(h.anchor_vec(eL[i], eA[j])),
            )
            for i in range(nl)
            for j in range(na)
        ),
    )
    run(
        "rep.bracket",
        (
            (
                f"({ll(i)},{ll(j)},{la(k)})",
                h.anchor_vec(h.bracket_vec(eL[i], eL[j]), h.phi_vec(eA[k])),
                vec_sub(
                    h.anchor_vec(h.psi_vec(eL[i]), h.anchor_vec(eL[j], eA[k])),
                    h.anchor_vec(h.psi_vec(eL[j]), h.anchor_vec(eL[i], eA[k])),
                ),
            )
            for i in range(nl)
            for j in range(nl)
            for k in range(na)
        ),
    )

    if h.regular:
        psi_ok = mat_inverse(h.psi) is not None
        phi_ok = mat_inverse(h.phi) is not None
        checks.append(
            CheckResult("regular.psi", "pass" if psi_ok else "fail", "" if psi_ok else "psi is singular")
        )
        checks.append(
            CheckResult("regular.phi", "pass" if phi_ok else "fail", "" if phi_ok else "phi is singular")
        )
    else:
        checks.append(CheckResult("regular.psi", "info", "not flagged regular"))
        checks.append(CheckResult("regular.phi", "info", "not flagged regular"))

    if h.unital:
        unit = find_unit(h)
        if unit is None:
            checks.append(CheckResult("A.unital", "fail", "flagged unital but no unit solves e*a=a"))
        else:
            checks.append(CheckResult("A.unital", "pass", f"unit {format_vector(unit)}"))
            identically = all(h.act_vec(unit, x) == x for x in eL)
            checks.append(
                CheckResult(
                    "module.unit_action",
                    "info",
                    "unit acts as the identity on L" if identically else "unit does not act as the identity on L",
                )
            )
    else:
        checks.append(CheckResult("A.unital", "info", "not flagged unital"))

    skew = all(
        h.bracket[i][j][k] == -h.bracket[j][i][k]
        for i in range(nl)
        for j in range(nl)
        for k in range(nl)
    )
    checks.append(CheckResult("L.skew_symmetric", "info", "yes" if skew else "no"))

    return ValidationReport(strictness=strictness, checks=checks)


def find_unit(h):
    """Solve e * a_j = a_j for all j; None when A has no left unit."""
    if h.dimA == 0:
        return None
    rows = []
    rhs = []
    for j in range(h.dimA):
        for k in range(h.dimA):
            rows.append(tuple(h.mul[i][j][k] for i in range(h.dimA)))
            rhs.append(ONE if j == k else ZERO)
    return solve(tuple(rows), tuple(rhs))


# -- morphisms and twisting --------------------------------------------------


MORPHISM_KEYS = (
    "morphism.g_hom",
    "morphism.1",
    "morphism.2",
    "morphism.3",
    "morphism.4",
    "morphism.5",
)


def check_morphism(g, f, src, dst):
    """Check the five defining conditions of a morphism pair plus g being
    an algebra map.  g: A_src -> A_dst, f: L_src -> L_dst, as matrices.

    Returns a list of CheckResult in fixed order.
    """
    g = _freeze_rect(g, dst.dimA, src.dimA, "g")
    f = _freeze_rect(f, dst.dimL, src.dimL, "f")
    eLs = [basis_vector(src.dimL, i) for i in range(src.dimL)]
    eAs = [basis_vector(src.dimA, i) for i in range(src.dimA)]
    la, ll = src.label_A, src.label_L
    out = []

    def run(key, pairs):
        bad = _first_violation(pairs)
        out.append(CheckResult(key, "pass" if bad is None else "fail", bad or ""))

    run(
        "morphism.g_hom",
        (
            (f"({la(i)},{la(j)})", mat_vec(g, src.mul_vec(eAs[i], eAs[j])), dst.mul_vec(mat_vec(g, eAs[i]), mat_vec(g, eAs[j])))
            for i in range(src.dimA)
            for j in range(src.dimA)
        ),
    )
    run(
        "morphism.1",
        (
            (f"({la(i)},{ll(j)})", mat_vec(f, src.act_vec(eAs[i], eLs[j])), dst.act_vec(mat_vec(g, eAs[i]), mat_vec(f, eLs[j])))
            for i in range(src.dimA)
            for j in range(src.dimL)
        ),
    )
    run(
        "morphism.2",
        (
            (f"({ll(i)},{ll(j)})", mat_vec(f, src.bracket_vec(eLs[i], eLs[j])), dst.bracket_vec(mat_vec(f, eLs[i]), mat_vec(f, eLs[j])))
            for i in range(src.dimL)
            for j in range(src.dimL)
        ),
    )
    run(
        "morphism.3",
        (
            (f"({ll(i)},)", mat_vec(f, src.psi_vec(eLs[i])), dst.psi_vec(mat_vec(f, eLs[i])))
            for i in range(src.dimL)
        ),
    )
    run(
        "morphism.4",
        (
            (f"({la(i)},)", mat_vec(g, src.phi_vec(eAs[i])), dst.phi_vec(mat_vec(g, eAs[i])))
            for i in range(src.dimA)
        ),
    )
    run(
        "morphism.5",
        (
            (f"({ll(i)},{la(j)})", mat_vec(g, src.anchor_vec(eLs[i], eAs[j])), dst.anchor_vec(mat_vec(f, eLs[i]), mat_vec(g, eAs[j])))
            for i in range(src.dimL)
            for j in range(src.dimA)
        ),
    )
    return out


def _freeze_rect(m, nrows, ncols, name):
    m = tuple(tuple(frac(x) for x in r) for r in m)
    if len(m) != nrows or any(len(r) != ncols for r in m):
        raise InputError(f"{name}: expected a {nrows}x{ncols} matrix")
    return m


class TwistError(ValueError):
    """The requested twist is not by an endomorphism pair."""

    def __init__(self, failed, message):
        super().__init__(message)
        self.failed = tuple(failed)


def twist_by_endomorphism(h, g, f):
    """Build the twisted algebra from an untwisted one.

    The input must carry identity twists; (g, f) must be an endomorphism
    pair of it.  The new bracket is f applied after the old one, the new
    anchor is g applied after the old one, and (g, f) become the twists.
    """
    if h.psi != identity_matrix(h.dimL) or h.phi != identity_matrix(h.dimA):
        raise InputError("twist input must carry identity twists")
    results = check_morphism(g, f, h, h)
    failed = [r.key for r in results if r.status == "fail"]
    if failed:
        details = "; ".join(f"{r.key} {r.detail}" for r in results if r.status == "fail")
        raise TwistError(failed, f"not an endomorphism pair: {details}")
    g = _freeze_rect(g, h.dimA, h.dimA, "g")
    f = _freeze_rect(f, h.dimL, h.dimL, "f")
    new_bracket = tuple(
        tuple(mat_vec(f, h.bracket[i][j]) for j in range(h.dimL)) for i in range(h.dimL)
    )
    new_anchor = tuple(
        tuple(mat_vec(g, h.anchor[i][j]) for j in range(h.dimA)) for i in range(h.dimL)
    )
    regular = mat_inverse(f) is not None and mat_inverse(g) is not None
    return replace(
        h,
        bracket=new_bracket,
        anchor=new_anchor,
        psi=f,
        phi=g,
        regular=regular,
    )


# -- fiber product -----------------------------------------------------------


class FiberClosureError(ValueError):
    """The anchor-equalizer subspace is not closed under the structure maps."""

    def __init__(self, kind, witness, space, message):
        super().__init__(message)
        self.kind = kind
        self.witness = witness
        self.space = space


@dataclass(frozen=True)
class FiberResult:
    algebra: HLRAlgebra
    space: Subspace  # the equalizer inside L1 x L2


def fiber_product(h1, h2):
    """Pair the two bracket algebras over their shared scalar algebra.

    The carrier is the subspace of pairs with equal anchor images.  Raises
    InputError when the scalar data differ, FiberClosureError when the
    bracket, action or twist fails to land back in the carrier.
    """
    if (h1.dimA, h1.mul, h1.phi) != (h2.dimA, h2.mul, h2.phi):
        raise InputError("fiber product needs an identical scalar algebra on both sides")
    n1, n2, na = h1.dimL, h2.dimL, h1.dimA
    n = n1 + n2
    rows = []
    for j in range(na):
        for k in range(na):
            rows.append(
                tuple(h1.anchor[i][j][k] for i in range(n1))
                + tuple(-h2.anchor[i][j][k] for i in range(n2))
            )
    w = kernel(tuple(rows), ncols=n) if rows else Subspace.full(n)

    def split(v):
        return v[:n1], v[n1:]

    def joint_bracket(u, v):
        ua, ub = split(u)
        va, vb = split(v)
        return h1.bracket_vec(ua, va) + h2.bracket_vec(ub, vb)

    def joint_act(a, v):
        va, vb = split(v)
        return h1.act_vec(a, va) + h2.act_vec(a, vb)

    def joint_psi(v):
        va, vb = split(v)
        return h1.psi_vec(va) + h2.psi_vec(vb)

    basis = w.basis
    d = len(basis)

    def coords_or_raise(kind, witness, vec):
        c = w.coords(vec)
        if c is None:
            raise FiberClosureError(
                kind,
                witness,
                w,
                f"fiber carrier not closed under {kind} at {witness}: image {format_vector(vec)}",
            )
        return c

    new_bracket = tuple(
        tuple(coords_or_raise("bracket", (p, q), joint_bracket(basis[p], basis[q])) for q in range(d))
        for p in range(d)
    )
    eA = [basis_vector(na, i) for i in range(na)]
    new_action = tuple(
        tuple(coords_or_raise("action", (i, q), joint_act(eA[i], basis[q])) for q in range(d))
        for i in range(na)
    )
    new_psi_cols = [coords_or_raise("psi", (q,), joint_psi(basis[q])) for q in range(d)]
    new_anchor = tuple(
        tuple(h1.anchor_vec(split(basis[p])[0], eA[j]) for j in range(na)) for p in range(d)
    )
    # internal consistency: both legs agree on the carrier by construction
    for p in range(d):
        for j in range(na):
            left = h1.anchor_vec(split(basis[p])[0], eA[j])
            right = h2.anchor_vec(split(basis[p])[1], eA[j])
            if left != right:
                raise AssertionError("equalizer violated its defining property")
    algebra = HLRAlgebra(
        dimL=d,
        dimA=na,
        bracket=new_bracket,
        mul=h1.mul,
        action=new_action,
        anchor=new_anchor,
        psi=mat_from_columns(new_psi_cols, nrows=d),
        phi=h1.phi,
        L_labels=tuple(f"w{p}" for p in range(d)),
        A_labels=h1.A_labels,
        regular=False,
        unital=h1.unital,
    )
    if mat_inverse(algebra.psi) is not None and mat_inverse(algebra.phi) is not None:
        algebra = replace(algebra, regular=True)
    return FiberResult(algebra=algebra, space=w)


# -- ideals and annihilators -------------------------------------------------


IDEAL_RULES = ("bracket_left", "bracket_right", "action", "anchor", "psi", "psi_inv")


@dataclass(frozen=True)
class IdealClosure:
    space: Subspace
    fired: tuple  # rule names that ever added a vector


def ideal_closure(h, seed):
    """Smallest subspace containing seed that is closed under all ideal rules.

    Rules: brackets with L on either side, the A-action, pushing anchors of
    members through the action, and both twist directions.
    """
    n = h.dimL
    psi_inv = mat_inverse(h.psi)
    current = seed if isinstance(seed, Subspace) else Subspace(n, seed)
    fired = []
    full_l = [basis_vector(n, i) for i in range(n)]
    full_a = [basis_vector(h.dimA, i) for i in range(h.dimA)]
    while True:
        added = False
        for rule in IDEAL_RULES:
            new_vecs = []
            for s in current.basis:
                if rule == "bracket_left":
                    new_vecs.extend(h.bracket_vec(s, x) for x in full_l)
                elif rule == "bracket_right":
                    new_vecs.extend(h.bracket_vec(x, s) for x in full_l)
                elif rule == "action":
                    new_vecs.extend(h.act_vec(a, s) for a in full_a)
                elif rule == "anchor":
                    for a in full_a:
                        scal = h.anchor_vec(s, a)
                        if not is_zero_vector(scal):
                            new_vecs.extend(h.act_vec(scal, x) for x in full_l)
                elif rule == "psi":
                    new_vecs.append(h.psi_vec(s))
                elif rule == "psi_inv" and psi_inv is not None:
                    new_vecs.append(mat_vec(psi_inv, s))
            grown = current.add(Subspace(n, new_vecs))
            if grown.dim > current.dim:
                current = grown
                added = True
                if rule not in fired:
                    fired.append(rule)
        if not added:
            return IdealClosure(space=current, fired=tuple(fired))


def is_ideal(h, sub):
    """Exact Def-style ideal test; returns (ok, failed_rule_names)."""
    failed = []
    full_l = h.full_L()
    full_a = h.full_A()
    if not sub.contains_space(h.bracket_space(sub, full_l)):
        failed.append("bracket_left")
    if not sub.contains_space(h.bracket_space(full_l, sub)):
        failed.append("bracket_right")
    if not sub.contains_space(h.act_space(full_a, sub)):
        failed.append("action")
    anchored = h.anchor_space(sub, full_a)
    if not sub.contains_space(h.act_space(anchored, full_l)):
        failed.append("anchor")
    if not sub.contains_space(sub.image(h.psi)):
        failed.append("psi")
    return (not failed, failed)


@dataclass(frozen=True)
class JReport:
    closure: IdealClosure
    J_bracket_L_zero: bool  # [J, L] = 0
    L_bracket_J_zero: bool  # [L, J] = 0, the printed direction
    witness: str  # first nonzero bracket found, if any

    @property
    def J(self):
        return self.closure.space


def compute_J(h):
    """Ideal generated by all symmetrized brackets, with both annihilation
    directions reported.  Only one direction is a theorem; the other is the
    printed claim and can genuinely fail."""
    n = h.dimL
    gens = []
    for i in range(n):
        for j in range(i, n):
            gens.append(
                vec_add(
                    h.bracket_vec(basis_vector(n, i), basis_vector(n, j)),
                    h.bracket_vec(basis_vector(n, j), basis_vector(n, i)),
                )
            )
    closure = ideal_closure(h, Subspace(n, gens))
    jspace = closure.space
    full = h.full_L()
    jl = h.bracket_space(jspace, full)
    lj = h.bracket_space(full, jspace)
    witness = ""
    if not lj.is_zero:
        for x in full.basis:
            for s in jspace.basis:
                val = h.bracket_vec(x, s)
                if not is_zero_vector(val):
                    witness = (
                        f"[{format_vector(x)}, {format_vector(s)}] = {format_vector(val)}"
                    )
                    break
            if witness:
                break
    return JReport(
        closure=closure,
        J_bracket_L_zero=jl.is_zero,
        L_bracket_J_zero=lj.is_zero,
        witness=witness,
    )


def annihilator(h, space):
    """Vectors with zero anchor that bracket to zero, on both sides, with
    every vector of space.  Over all of L this is Z(L); over the zero space
    it is the kernel of the anchor."""
    n = h.dimL
    blocks = []
    for s in space.basis:
        blocks.append(h.ad_right(s))  # v -> [v, s]
        blocks.append(h.ad_left(s))  # v -> [s, v]
    for j in range(h.dimA):
        # v -> rho(v)(a_j), rows indexed by output coordinate
        cols = [h.anchor_vec(basis_vector(n, i), basis_vector(h.dimA, j)) for i in range(n)]
        blocks.append(mat_from_columns(cols, nrows=h.dimA))
    if not blocks:
        return Subspace.full(n)
    return kernel(stack_rows(*blocks), ncols=n)


def annihilator_Z(h):
    """Z(L): vectors bracketing to zero on both sides with zero anchor."""
    return annihilator(h, h.full_L())


def center_ZA(h):
    """Z(A): scalars multiplying everything to zero."""
    na = h.dimA
    blocks = []
    for j in range(na):
        cols = [h.mul_vec(basis_vector(na, i), basis_vector(na, j)) for i in range(na)]
        blocks.append(mat_from_columns(cols, nrows=na))
    if not blocks:
        return Subspace.full(na)
    return kernel(stack_rows(*blocks), ncols=na)


# -- subalgebra extraction ---------------------------------------------------


class ClosureError(ValueError):
    """A restriction to chosen subspaces does not close structurally."""


def sub_algebra(h, l_sub, a_sub, l_labels=None, a_labels=None):
    """Restrict the structure to chosen L and A subspaces.

    Every structure map must land back inside the chosen spaces; otherwise a
    ClosureError names the offending map.
    """
    lb = l_sub.basis
    ab = a_sub.basis
    dl, da = len(lb), len(ab)

    def lcoords(v, what):
        c = l_sub.coords(v)
        if c is None:
            raise ClosureError(f"{what} leaves the chosen L subspace: {format_vector(v)}")
        return c

    def acoords(v, what):
        c = a_sub.coords(v)
        if c is None:
            raise ClosureError(f"{what} leaves the chosen A subspace: {format_vector(v)}")
        return c

    bracket = tuple(
        tuple(lcoords(h.bracket_vec(lb[i], lb[j]), "bracket") for j in range(dl)) for i in range(dl)
    )
    mul = tuple(
        tuple(acoords(h.mul_vec(ab[i], ab[j]), "mul") for j in range(da)) for i in range(da)
    )
    action = tuple(
        tuple(lcoords(h.act_vec(ab[i], lb[j]), "action") for j in range(dl)) for i in range(da)
    )
    anchor = tuple(
        tuple(acoords(h.anchor_vec(lb[i], ab[j]), "anchor") for j in range(da)) for i in range(dl)
    )
    psi = mat_from_columns([lcoords(h.psi_vec(b), "psi") for b in lb], nrows=dl)
    phi = mat_from_columns([acoords(h.phi_vec(b), "phi") for b in ab], nrows=da)
    regular = mat_inverse(psi) is not None and mat_inverse(phi) is not None
    return HLRAlgebra(
        dimL=dl,
        dimA=da,
        bracket=bracket,
        mul=mul,
        action=action,
        anchor=anchor,
        psi=psi,
        phi=phi,
        L_labels=tuple(l_labels or (f"u{i}" for i in range(dl))),
        A_labels=tuple(a_labels or (f"b{i}" for i in range(da))),
        regular=regular,
        unital=False,
    )
