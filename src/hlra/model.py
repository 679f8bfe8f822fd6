"""Structure-constant model of a Hom-Leibniz-Rinehart algebra and its checks.

An instance carries a commutative algebra A of scalars, a bracket algebra L,
an A-action on L, an anchor map from L into operators on A, and the two
twist endomorphisms.  Each structure tensor is a read-only mapping of its
nonzero Fraction entries, as the file lists them; a missing index is zero:

    bracket[i, j, k]  coefficient of x_k in [x_i, x_j]
    mul[i, j, k]      coefficient of a_k in a_i * a_j
    action[i, j, k]   coefficient of x_k in a_i . x_j
    anchor[i, j, k]   coefficient of a_k in rho(x_i)(a_j)

psi acts on L, phi acts on A, both as dense matrices with columns holding
images of basis vectors.
"""

from collections.abc import Mapping
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, partial
from math import lcm, prod
from types import MappingProxyType, SimpleNamespace

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


def _freeze_rect(m, nrows, ncols, name):
    m = tuple(tuple(frac(x) for x in r) for r in m)
    if len(m) != nrows or any(len(r) != ncols for r in m):
        raise InputError(f"{name}: expected a {nrows}x{ncols} matrix")
    return m


def tensor_shapes(nl, na):
    """Index bounds (i, j, k) of each structure tensor, by name."""
    return {"bracket": (nl, nl, nl), "mul": (na, na, na), "action": (na, nl, nl), "anchor": (nl, na, na)}


def _freeze_tensor(t, dims, name):
    """The nonzero entries of the mapping t, read-only and in key order."""
    if not isinstance(t, Mapping):
        raise InputError(f"{name}: expected a mapping of (i, j, k) entries")
    for key in t:
        if type(key) is not tuple or len(key) != 3 or not all(type(i) is int and 0 <= i < d for i, d in zip(key, dims)):
            raise InputError(f"{name}: {key!r} is not an (i, j, k) index below {dims}")
    entries = ((key, frac(t[key])) for key in sorted(t))
    return MappingProxyType({key: c for key, c in entries if c})


@dataclass(frozen=True)
class HLRAlgebra:
    dimL: int
    dimA: int
    bracket: Mapping
    mul: Mapping
    action: Mapping
    anchor: Mapping
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
        for name, dims in tensor_shapes(self.dimL, self.dimA).items():
            object.__setattr__(self, name, _freeze_tensor(getattr(self, name), dims, name))
        object.__setattr__(self, "psi", _freeze_rect(self.psi, self.dimL, self.dimL, "psi"))
        object.__setattr__(self, "phi", _freeze_rect(self.phi, self.dimA, self.dimA, "phi"))
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
        return _bilinear(self._rows["bracket"], u, v, self.dimL)

    def mul_vec(self, a, b):
        return _bilinear(self._rows["mul"], a, b, self.dimA)

    def act_vec(self, a, x):
        return _bilinear(self._rows["action"], a, x, self.dimL)

    def anchor_vec(self, x, a):
        return _bilinear(self._rows["anchor"], x, a, self.dimA)

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

    # built once per algebra; cached_property keeps them out of __eq__
    @cached_property
    def full_L(self):
        return Subspace.full(self.dimL)

    @cached_property
    def full_A(self):
        return Subspace.full(self.dimA)

    @cached_property
    def psi_inv(self):
        """Inverse of psi, or None when psi is singular."""
        return mat_inverse(self.psi)

    @cached_property
    def phi_inv(self):
        """Inverse of phi, or None when phi is singular."""
        return mat_inverse(self.phi)

    @cached_property
    def _rows(self):
        """Per tensor name, its nonzero (k, c) pairs grouped by (i, j)."""
        out = {}
        for name in ("bracket", "mul", "action", "anchor"):
            rows = out[name] = {}
            for (i, j, k), c in getattr(self, name).items():
                rows.setdefault((i, j), []).append((k, c))
        return out


def _bilinear(rows, u, v, out_dim):
    """Sum of u_i v_j c e_k over the (k, c) pairs that rows holds at (i, j)."""
    out = [ZERO] * out_dim
    v_nonzero = [(j, cj) for j, cj in enumerate(v) if cj]
    for i, ci in enumerate(u):
        if not ci:
            continue
        for j, cj in v_nonzero:
            c = ci * cj
            for k, t in rows.get((i, j), ()):
                out[k] += c * t
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


class _Term:
    """fn applied to its operands, times sign.  An operand is a _Term or the
    position of one of the identity's arguments."""

    __slots__ = ("fn", "operands", "sign")

    def __init__(self, fn, operands, sign=1):
        self.fn, self.operands, self.sign = fn, operands, sign

    def __neg__(self):
        return _Term(self.fn, self.operands, -self.sign)

    def __add__(self, other):
        return (self, other)

    def __sub__(self, other):
        return (self, -other)


class _Map:
    """A linear or bilinear map with integer entries over one denominator.

    entries maps (input index..., output index) to a rational coefficient;
    rows groups den times each nonzero one by its first input index, as
    (other input index..., output index, integer)."""

    def __init__(self, entries, out):
        self.out = out
        self.den = lcm(*(c.denominator for c in entries.values()))
        self.rows = {}
        for (i, *rest), c in entries.items():
            self.rows.setdefault(i, []).append((*rest, c.numerator * (self.den // c.denominator)))

    def __call__(self, *operands):
        return _Term(self, operands)


def _matrix_map(m):
    """The _Map of v -> m v."""
    return _Map({(j, k): c for k, row in enumerate(m) for j, c in enumerate(row) if c}, len(m))


def _structure_maps(h):
    """bracket, mul, action, anchor, psi and phi of h as _Maps."""
    maps = {name: _Map(getattr(h, name), dims[2]) for name, dims in tensor_shapes(h.dimL, h.dimA).items()}
    return SimpleNamespace(**maps, psi=_matrix_map(h.psi), phi=_matrix_map(h.phi))


def _nonzero(values):
    """values without zero coordinates and without vectors left empty."""
    out = {}
    for args, vec in values.items():
        vec = {k: c for k, c in vec.items() if c}
        if vec:
            out[args] = vec
    return out


def _contract(term, basis):
    """(positions, values, den) of term on every tuple of basis vectors.

    values maps the basis indices taken at the argument positions, in that
    order, to the nonzero coordinates {k: integer} of den times the term.
    A map is applied by joining its entries with the coordinates of its
    operands on the shared index, so the cost is the number of nonzero
    products, not the number of basis tuples."""
    if type(term) is int:
        return (term,), basis[term], 1
    fn, parts = term.fn, [_contract(t, basis) for t in term.operands]
    den = term.sign * fn.den * prod(d for _, _, d in parts)
    positions = tuple(p for part, _, _ in parts for p in part)
    out = {}
    if len(parts) == 1:
        for args, vec in parts[0][1].items():
            image = out[args] = {}
            for j, a in vec.items():
                for k, c in fn.rows.get(j, ()):
                    image[k] = image.get(k, 0) + a * c
        return positions, _nonzero(out), den
    (_, left, _), (_, right, _) = parts
    by_index = {}
    for args, vec in right.items():
        for j, b in vec.items():
            by_index.setdefault(j, []).append((args, b))
    for args, vec in left.items():
        for i, a in vec.items():
            for j, k, c in fn.rows.get(i, ()):
                ac = a * c
                for more, b in by_index.get(j, ()):
                    image = out.setdefault(args + more, {})
                    image[k] = image.get(k, 0) + ac * b
    return positions, _nonzero(out), den


def _residual(kinds, lhs, rhs, labels, basis):
    """The first basis tuple, in itertools.product order over kinds, where
    the sides lhs and rhs differ, as a detail string; None if there is none.

    Each side is brought to one common denominator and its terms summed
    as integers; the residual lhs - rhs is the set of argument tuples
    where the two integer maps differ."""
    positions = range(len(kinds))
    sides = [side if type(side) is tuple else (side,) for side in (lhs(*positions), rhs(*positions))]
    basis = [basis[kind] for kind in kinds]
    contracted = [[_contract(term, basis) for term in side] for side in sides]
    den = lcm(*(d for side in contracted for _, _, d in side))
    totals = []
    for side in contracted:
        total = {}
        for order, values, d in side:
            where, scale = [order.index(p) for p in positions], den // d
            for args, vec in values.items():
                acc = total.setdefault(tuple(args[w] for w in where), {})
                for k, c in vec.items():
                    acc[k] = acc.get(k, 0) + scale * c
        totals.append(_nonzero(total))
    left, right = totals
    bad = [args for args in left.keys() | right.keys() if left.get(args) != right.get(args)]
    if not bad:
        return None
    args = min(bad)
    out = sides[0][0].fn.out
    left, right = (tuple(Fraction(t.get(args, {}).get(k, 0), den) for k in range(out)) for t in totals)
    names = [labels[kind][i] for kind, i in zip(kinds, args)]
    at = f"({','.join(names)}{',' if len(names) == 1 else ''})"
    return f"at {at}: lhs={format_vector(left)} rhs={format_vector(right)}"


def _violations(h, rows):
    """(key, first violation or None) for each (key, kinds, lhs, rhs) row on
    the basis of h.  lhs and rhs take one argument position per kind, "L"
    or "A", and return a _Term or a tuple of _Terms to sum."""
    labels = {"L": h.L_labels, "A": h.A_labels}
    basis = {kind: {(i,): {i: 1} for i in range(n)} for kind, n in (("L", h.dimL), ("A", h.dimA))}
    return [(key, _residual(kinds, lhs, rhs, labels, basis)) for key, kinds, lhs, rhs in rows]


def _identities(h):
    """The defining identities of h as (key, argument kinds, lhs, rhs) rows,
    in report order."""
    m = _structure_maps(h)
    br, mul, act, anc, psi, phi = m.bracket, m.mul, m.action, m.anchor, m.psi, m.phi
    return (
        # over all ordered pairs: the first violating one in index order has
        # i < j, so the detail is the same as over i < j alone
        ("A.commutative", "AA", lambda a, b: mul(a, b), lambda a, b: mul(b, a)),
        ("A.associative", "AAA", lambda a, b, c: mul(mul(a, b), c), lambda a, b, c: mul(a, mul(b, c))),
        ("A.phi_endomorphism", "AA", lambda a, b: phi(mul(a, b)), lambda a, b: mul(phi(a), phi(b))),
        (
            "L.hom_leibniz", "LLL", lambda x, y, z: br(psi(x), br(y, z)),
            lambda x, y, z: br(br(x, y), psi(z)) + br(psi(y), br(x, z)),
        ),
        ("L.psi_multiplicative", "LL", lambda x, y: psi(br(x, y)), lambda x, y: br(psi(x), psi(y))),
        ("module.associative", "AAL", lambda a, b, x: act(mul(a, b), x), lambda a, b, x: act(a, act(b, x))),
        ("compat.psi_action", "AL", lambda a, x: psi(act(a, x)), lambda a, x: act(phi(a), psi(x))),
        (
            "anchor.derivation", "LAA", lambda x, a, b: anc(x, mul(a, b)),
            lambda x, a, b: mul(phi(a), anc(x, b)) + mul(phi(b), anc(x, a)),
        ),
        ("anchor.action_compat", "ALA", lambda a, x, b: anc(act(a, x), b), lambda a, x, b: mul(phi(a), anc(x, b))),
        (
            "compat.leibniz_action", "LAL", lambda x, a, y: br(x, act(a, y)),
            lambda x, a, y: act(phi(a), br(x, y)) + act(anc(x, a), psi(y)),
        ),
        ("rep.psi_phi", "LA", lambda x, a: anc(psi(x), phi(a)), lambda x, a: phi(anc(x, a))),
        (
            "rep.bracket", "LLA", lambda x, y, a: anc(br(x, y), phi(a)),
            lambda x, y, a: anc(psi(x), anc(y, a)) - anc(psi(y), anc(x, a)),
        ),
    )


def validate_hlr(h, strictness=RELAXED):
    """Check every defining identity of h, in a fixed order.

    Each identity is multilinear, so it holds when it holds on every tuple
    of basis vectors.  Instead of scanning those n^k tuples, each side is
    evaluated on all of them at once as a sparse residual: every term joins
    the nonzero entries of its structure tensors and twist columns on their
    shared index, with integer numerators over one common denominator per
    identity.  The cost is proportional to the number of nonzero products,
    not to n^k.  An empty residual is a pass; otherwise the detail names
    the first basis tuple in index order where the sides differ, with both
    sides' values there.

    Mathematical violations are reported, never raised.  The relaxable
    representation identities degrade to warnings unless strict mode is on.
    """
    if strictness not in (STRICT, RELAXED):
        raise InputError(f"unknown strictness {strictness!r}")
    checks = []
    for key, bad in _violations(h, _identities(h)):
        if bad is None:
            checks.append(CheckResult(key, "pass"))
        else:
            relaxed = key in RELAXABLE_CHECKS and strictness == RELAXED
            checks.append(CheckResult(key, "warn" if relaxed else "fail", bad))

    for name in ("psi", "phi"):
        if not h.regular:
            checks.append(CheckResult(f"regular.{name}", "info", "not flagged regular"))
        elif getattr(h, f"{name}_inv") is None:
            checks.append(CheckResult(f"regular.{name}", "fail", f"{name} is singular"))
        else:
            checks.append(CheckResult(f"regular.{name}", "pass"))

    if h.unital:
        unit = find_unit(h)
        if unit is None:
            checks.append(CheckResult("A.unital", "fail", "flagged unital but no unit solves e*a=a"))
        else:
            checks.append(CheckResult("A.unital", "pass", f"unit {format_vector(unit)}"))
            identically = all(h.act_vec(unit, x) == x for x in identity_matrix(h.dimL))
            checks.append(
                CheckResult(
                    "module.unit_action",
                    "info",
                    "unit acts as the identity on L" if identically else "unit does not act as the identity on L",
                )
            )
    else:
        checks.append(CheckResult("A.unital", "info", "not flagged unital"))

    skew = all(h.bracket.get((j, i, k)) == -c for (i, j, k), c in h.bracket.items())
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
            rows.append(tuple(h.mul.get((i, j, k), ZERO) for i in range(h.dimA)))
            rhs.append(ONE if j == k else ZERO)
    return solve(tuple(rows), tuple(rhs))


# -- morphisms and twisting --------------------------------------------------


def check_morphism(g, f, src, dst):
    """Check the five defining conditions of a morphism pair plus g being
    an algebra map.  g: A_src -> A_dst, f: L_src -> L_dst, as matrices.

    Returns a list of CheckResult in fixed order.
    """
    g = _matrix_map(_freeze_rect(g, dst.dimA, src.dimA, "g"))
    f = _matrix_map(_freeze_rect(f, dst.dimL, src.dimL, "f"))
    s, d = _structure_maps(src), _structure_maps(dst)
    rows = (
        ("morphism.g_hom", "AA", lambda a, b: g(s.mul(a, b)), lambda a, b: d.mul(g(a), g(b))),
        ("morphism.1", "AL", lambda a, x: f(s.action(a, x)), lambda a, x: d.action(g(a), f(x))),
        ("morphism.2", "LL", lambda x, y: f(s.bracket(x, y)), lambda x, y: d.bracket(f(x), f(y))),
        ("morphism.3", "L", lambda x: f(s.psi(x)), lambda x: d.psi(f(x))),
        ("morphism.4", "A", lambda a: g(s.phi(a)), lambda a: d.phi(g(a))),
        ("morphism.5", "LA", lambda x, a: g(s.anchor(x, a)), lambda x, a: d.anchor(f(x), g(a))),
    )
    return [CheckResult(key, "fail" if bad else "pass", bad or "") for key, bad in _violations(src, rows)]


def _entries(pairs):
    """Tensor entries {(i, j, k): vector[k]} from ((i, j), vector) pairs."""
    return {(i, j, k): c for (i, j), vec in pairs for k, c in enumerate(vec) if c}


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
    eL, eA = identity_matrix(h.dimL), identity_matrix(h.dimA)
    bracket = _entries(((i, j), mat_vec(f, h.bracket_vec(x, y))) for i, x in enumerate(eL) for j, y in enumerate(eL))
    anchor = _entries(((i, j), mat_vec(g, h.anchor_vec(x, a))) for i, x in enumerate(eL) for j, a in enumerate(eA))
    regular = mat_inverse(f) is not None and mat_inverse(g) is not None
    return replace(
        h,
        bracket=bracket,
        anchor=anchor,
        psi=f,
        phi=g,
        regular=regular,
    )


# -- ideals and annihilators -------------------------------------------------


IDEAL_RULES = ("bracket_left", "bracket_right", "action", "anchor", "psi", "psi_inv")


def ideal_rules(h):
    """(name, images) for each name in IDEAL_RULES.  images(s) lists the
    image of s under each linear map of the rule, always in the same order:
    [s, x], [x, s], a . s, rho(s)(a) . x over basis vectors x of L and a of
    A, then psi(s) and, when psi is invertible, its inverse image."""
    eL = identity_matrix(h.dimL)
    eA = identity_matrix(h.dimA)
    psi_inv = h.psi_inv
    images = {
        "bracket_left": lambda s: [h.bracket_vec(s, x) for x in eL],
        "bracket_right": lambda s: [h.bracket_vec(x, s) for x in eL],
        "action": lambda s: [h.act_vec(a, s) for a in eA],
        "anchor": lambda s: [h.act_vec(h.anchor_vec(s, a), x) for a in eA for x in eL],
        "psi": lambda s: [h.psi_vec(s)],
        "psi_inv": lambda s: [] if psi_inv is None else [mat_vec(psi_inv, s)],
    }
    return [(name, images[name]) for name in IDEAL_RULES]


def absorbs(sub, images):
    """True when every image of every basis vector of sub lies in sub."""
    return all(sub.contains(v) for s in sub.basis for v in images(s))


@dataclass(frozen=True)
class IdealClosure:
    space: Subspace
    fired: tuple  # rule names that ever added a vector


def ideal_closure(h, seed):
    """Smallest subspace containing seed that is closed under all ideal
    rules, grown one rule at a time."""
    n = h.dimL
    current = seed if isinstance(seed, Subspace) else Subspace(n, seed)
    fired = []
    rules = ideal_rules(h)
    while True:
        added = False
        for name, images in rules:
            grown = current.add(Subspace(n, [v for s in current.basis for v in images(s)]))
            if grown.dim > current.dim:
                current = grown
                added = True
                if name not in fired:
                    fired.append(name)
        if not added:
            return IdealClosure(space=current, fired=tuple(fired))


def is_ideal(h, sub):
    """Exact Def-style ideal test; returns (ok, failed_rule_names).

    psi_inv is not checked: in finite dimension psi(I) inside I with psi
    invertible gives psi(I) = I, so the inverse image stays in I too."""
    failed = [name for name, images in ideal_rules(h) if name != "psi_inv" and not absorbs(sub, images)]
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
    full = h.full_L
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
    return annihilator(h, h.full_L)


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
    """A restriction to chosen subspaces does not close structurally.  kind
    names the map, witness the indices of the basis vectors it was applied
    to, and image is the value that left the chosen subspaces."""

    def __init__(self, message, kind, witness, image):
        super().__init__(message)
        self.kind = kind
        self.witness = witness
        self.image = image


def sub_algebra(h, l_sub, a_sub, l_labels=None, a_labels=None):
    """Restrict the structure to chosen L and A subspaces.

    Reads only the six maps bracket_vec, mul_vec, act_vec, anchor_vec,
    psi_vec and phi_vec of h.  Every structure map must land back inside the
    chosen spaces; otherwise a ClosureError names the offending map.
    """
    lb = l_sub.basis
    ab = a_sub.basis
    dl, da = len(lb), len(ab)

    def coords(space, side, kind, witness, v):
        c = space.coords(v)
        if c is None:
            raise ClosureError(f"{kind} leaves the chosen {side} subspace: {format_vector(v)}", kind, witness, v)
        return c

    lcoords = partial(coords, l_sub, "L")
    acoords = partial(coords, a_sub, "A")

    def table(kind, place, vec, left, right):
        pairs = (((i, j), place(kind, (i, j), vec(u, v))) for i, u in enumerate(left) for j, v in enumerate(right))
        return _entries(pairs)

    bracket = table("bracket", lcoords, h.bracket_vec, lb, lb)
    mul = table("mul", acoords, h.mul_vec, ab, ab)
    action = table("action", lcoords, h.act_vec, ab, lb)
    anchor = table("anchor", acoords, h.anchor_vec, lb, ab)
    psi = mat_from_columns([lcoords("psi", (j,), h.psi_vec(b)) for j, b in enumerate(lb)], nrows=dl)
    phi = mat_from_columns([acoords("phi", (j,), h.phi_vec(b)) for j, b in enumerate(ab)], nrows=da)
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


# -- fiber product -----------------------------------------------------------


class FiberClosureError(ClosureError):
    """The anchor-equalizer subspace is not closed under the structure maps."""


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
                tuple(h1.anchor.get((i, j, k), ZERO) for i in range(n1))
                + tuple(-h2.anchor.get((i, j, k), ZERO) for i in range(n2))
            )
    w = kernel(tuple(rows), ncols=n) if rows else Subspace.full(n)
    # L1 x L2 with the legs split at n1; on the carrier both anchors agree,
    # so the first leg's serves
    product_maps = SimpleNamespace(
        bracket_vec=lambda u, v: h1.bracket_vec(u[:n1], v[:n1]) + h2.bracket_vec(u[n1:], v[n1:]),
        act_vec=lambda a, v: h1.act_vec(a, v[:n1]) + h2.act_vec(a, v[n1:]),
        psi_vec=lambda v: h1.psi_vec(v[:n1]) + h2.psi_vec(v[n1:]),
        anchor_vec=lambda v, a: h1.anchor_vec(v[:n1], a),
        mul_vec=h1.mul_vec,
        phi_vec=h1.phi_vec,
    )
    try:
        algebra = sub_algebra(product_maps, w, h1.full_A, tuple(f"w{p}" for p in range(w.dim)), h1.A_labels)
    except ClosureError as exc:
        raise FiberClosureError(
            f"fiber carrier not closed under {exc.kind} at {exc.witness}: image {format_vector(exc.image)}",
            exc.kind,
            exc.witness,
            exc.image,
        ) from exc
    return FiberResult(algebra=replace(algebra, unital=h1.unital), space=w)
