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

Every map is evaluated through one `_Map` table per map, `HLRAlgebra.maps`.
The defining identities, the morphism conditions, the ideal rules and the
builders (twist, sub-algebra, fiber product) are all rows of terms over these
maps; `_contract` evaluates a term on every tuple of rows of its argument
spaces at once, and the subspace products take the span.  The ideal rules are
evaluated once, on the basis of L, into the integer `HLRAlgebra.rule_tables`
that closures and ideal tests sum; annihilators solve one integer system of
such values; `operators` reads every other structure-map matrix with one
argument fixed (the operators of H, the unit equations, the fiber equalizer).
`_bilinear` is the one per-vector evaluator, for the first nonzero bracket
of L with J that `compute_J` reports; the benchmark tracer counts it by name.
"""

from collections.abc import Mapping
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import cycle
from math import lcm, prod
from types import MappingProxyType, SimpleNamespace

from .linalg import (
    ZERO,
    Subspace,
    frac,
    identity_matrix,
    is_zero_vector,
    kernel,
    mat_inverse,
    solve,
    stack_rows,
    vec_neg,
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

    # -- subspace products -------------------------------------------------

    def bracket_space(self, s, t):
        """Span of [s, t] over basis pairs."""
        return _span(self.maps.bracket, (s, t))

    def mul_space(self, s, t):
        return _span(self.maps.mul, (s, t))

    def act_space(self, sa, sl):
        return _span(self.maps.action, (sa, sl))

    def anchor_space(self, sl, sa):
        return _span(self.maps.anchor, (sl, sa))

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
    def maps(self):
        """bracket, mul, action, anchor, psi, phi and psi_inv as _Maps;
        psi_inv is the zero map when psi is singular."""
        maps = {name: _Map(getattr(self, name), dims[2]) for name, dims in tensor_shapes(self.dimL, self.dimA).items()}
        psi_inv = _Map({}, self.dimL) if self.psi_inv is None else _matrix_map(self.psi_inv)
        return SimpleNamespace(**maps, psi=_matrix_map(self.psi), phi=_matrix_map(self.phi), psi_inv=psi_inv)

    @cached_property
    def rule_tables(self):
        """For each ideal rule by name, table[i] maps the basis indices of
        the rule's further arguments to the nonzero integer coordinates
        {k: c} of the image of basis vector i of L, over one denominator."""
        tables = {}
        for name, kinds, term in ideal_rules(self):
            (values,), _ = _evaluate([_terms(term, len(kinds))], _full(self, kinds))
            table = tables[name] = [{} for _ in range(self.dimL)]
            for (i, *rest), vec in values.items():
                table[i][tuple(rest)] = vec
        return tables


def _bilinear(m, u, v):
    """m(u, v) for a bilinear _Map m, as Fractions, summed as integers over
    one denominator."""
    (du, u), (dv, v) = _integers(u), _integers(v)
    out = [0] * m.out
    for i, a in enumerate(u):
        if a:
            for j, k, c in m.rows.get(i, ()):
                if v[j]:
                    out[k] += a * v[j] * c
    return tuple(Fraction(x, du * dv * m.den) if x else ZERO for x in out)


def _integers(vec):
    """(d, integers) with vec = integers / d."""
    d = lcm(*(x.denominator for x in vec))
    return d, [x.numerator * (d // x.denominator) for x in vec]


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


def _nonzero(values):
    """values without zero coordinates and without vectors left empty."""
    out = {}
    for args, vec in values.items():
        vec = {k: c for k, c in vec.items() if c}
        if vec:
            out[args] = vec
    return out


def _contract(term, basis):
    """(positions, values, den) of term on every tuple of vectors, where
    basis[p] maps (index,) to the integer coordinates {k: c} of each vector
    that argument position p ranges over.

    values maps the indices taken at the argument positions, in that
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


def _terms(side, n):
    """The _Terms that side, a function of n argument positions, sums."""
    terms = side(*range(n))
    return terms if type(terms) is tuple else (terms,)


def _evaluate(sides, spaces):
    """(totals, den): per side, a tuple of _Terms, den times the sum of its
    terms on every tuple of rows of spaces, one space per argument position.

    A total maps the row indices, in position order, to the nonzero
    coordinates {k: integer} of the sum there; den is one denominator for
    every side, so the sides compare and add as integers."""
    basis = [s.sparse for s in spaces]
    contracted = [[_contract(term, basis) for term in side] for side in sides]
    den = lcm(*(d for side in contracted for _, _, d in side))
    totals = []
    for side in contracted:
        total = {}
        for order, values, d in side:
            where, scale = [order.index(p) for p in range(len(spaces))], den // d
            for args, vec in values.items():
                acc = total.setdefault(tuple(args[w] for w in where), {})
                for k, c in vec.items():
                    acc[k] = acc.get(k, 0) + scale * c
        totals.append(_nonzero(total))
    return totals, den


def _span(side, spaces):
    """The span of the values of side on every tuple of rows of spaces, one
    space per argument position of side."""
    terms = _terms(side, len(spaces))
    (values,), _ = _evaluate([terms], spaces)
    out = terms[0].fn.out
    return Subspace(out, [tuple(vec.get(k, 0) for k in range(out)) for vec in values.values()])


def operators(side, space, full):
    """For each RREF basis vector b of space, the matrix of x -> side(b, x)
    on full, h.full_L or h.full_A, whose rows are the unit vectors.

    side, a function of two argument positions, is evaluated once on the
    integer rows of space; as in _restricted, dividing a value by den and
    by its row's pivot entry gives the value on the RREF basis."""
    terms = _terms(side, 2)
    (values,), den = _evaluate([terms], [space, full])
    out, mats = terms[0].fn.out, []
    for r, (row, p) in enumerate(zip(space.rows, space.pivots)):
        scale, images = den * row[p], [values.get((r, j), {}) for j in range(full.dim)]
        mats.append(tuple(tuple(Fraction(v[k], scale) if k in v else ZERO for v in images) for k in range(out)))
    return mats


def _full(h, kinds):
    """The whole of L or A for each kind, "L" or "A"."""
    return [h.full_L if kind == "L" else h.full_A for kind in kinds]


def _residual(kinds, lhs, rhs, labels, spaces):
    """The first basis tuple, in itertools.product order over kinds, where
    the sides lhs and rhs differ on the basis rows of spaces, as a detail
    string; None if there is none.

    Each side is brought to one common denominator and its terms summed
    as integers; the residual lhs - rhs is the set of argument tuples
    where the two integer maps differ."""
    sides = [_terms(side, len(kinds)) for side in (lhs, rhs)]
    totals, den = _evaluate(sides, spaces)
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
    return [(key, _residual(kinds, lhs, rhs, labels, _full(h, kinds))) for key, kinds, lhs, rhs in rows]


def _identities(h):
    """The defining identities of h as (key, argument kinds, lhs, rhs) rows,
    in report order."""
    m = h.maps
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
            line = Subspace(h.dimA, [unit])
            # the matrix of the unit over its pivot entry: the identity over
            # that entry when the unit acts as the identity
            (acting,) = operators(h.maps.action, line, h.full_L)
            d = 1 / unit[line.pivots[0]]
            identically = all(x == (d if j == k else 0) for k, row in enumerate(acting) for j, x in enumerate(row))
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
    rhs = tuple(c for row in identity_matrix(h.dimA) for c in row)
    mul = h.maps.mul
    return solve(stack_rows(*operators(lambda a, e: mul(e, a), h.full_A, h.full_A)), rhs)


# -- morphisms and twisting --------------------------------------------------


def check_morphism(g, f, src, dst):
    """Check the five defining conditions of a morphism pair plus g being
    an algebra map.  g: A_src -> A_dst, f: L_src -> L_dst, as matrices.

    Returns a list of CheckResult in fixed order.
    """
    g = _matrix_map(_freeze_rect(g, dst.dimA, src.dimA, "g"))
    f = _matrix_map(_freeze_rect(f, dst.dimL, src.dimL, "f"))
    s, d = src.maps, dst.maps
    rows = (
        ("morphism.g_hom", "AA", lambda a, b: g(s.mul(a, b)), lambda a, b: d.mul(g(a), g(b))),
        ("morphism.1", "AL", lambda a, x: f(s.action(a, x)), lambda a, x: d.action(g(a), f(x))),
        ("morphism.2", "LL", lambda x, y: f(s.bracket(x, y)), lambda x, y: d.bracket(f(x), f(y))),
        ("morphism.3", "L", lambda x: f(s.psi(x)), lambda x: d.psi(f(x))),
        ("morphism.4", "A", lambda a: g(s.phi(a)), lambda a: d.phi(g(a))),
        ("morphism.5", "LA", lambda x, a: g(s.anchor(x, a)), lambda x, a: d.anchor(f(x), g(a))),
    )
    return [CheckResult(key, "fail" if bad else "pass", bad or "") for key, bad in _violations(src, rows)]


class TwistError(ValueError):
    """The requested twist is not by an endomorphism pair."""

    def __init__(self, failed, message):
        super().__init__(message)
        self.failed = tuple(failed)


def twist_by_endomorphism(h, g, f):
    """Build the twisted algebra from an untwisted one.

    The input must carry identity twists; (g, f) must be an endomorphism
    pair of it.  The new bracket is f applied after the old one, the new
    anchor is g applied after the old one, and (g, f) become the twists;
    both are term rows, f(br(x, y)) and g(anc(x, a)), evaluated on the
    whole of L and A at once.
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
    gm, fm, br, anc = _matrix_map(g), _matrix_map(f), h.maps.bracket, h.maps.anchor
    spaces = {"L": h.full_L, "A": h.full_A}
    bracket = _restricted("bracket", lambda x, y: fm(br(x, y)), "LL", "L", spaces)
    anchor = _restricted("anchor", lambda x, a: gm(anc(x, a)), "LA", "A", spaces)
    regular = mat_inverse(f) is not None and mat_inverse(g) is not None
    return replace(h, bracket=bracket, anchor=anchor, psi=f, phi=g, regular=regular)


# -- ideals and annihilators -------------------------------------------------


def ideal_rules(h):
    """The rules an ideal I of h is closed under, as (name, kinds, term)
    rows: term takes I at argument position 0 and the whole of L or A, by
    kind, at the others, and its images must lie in I.  They are
    [I, L], [L, I], A . I, rho(I)(A) . L, psi(I) and psi^-1(I)."""
    m = h.maps
    br, act, anc, psi, psi_inv = m.bracket, m.action, m.anchor, m.psi, m.psi_inv
    return (
        ("bracket_left", "LL", lambda s, x: br(s, x)),
        ("bracket_right", "LL", lambda s, x: br(x, s)),
        ("action", "LA", lambda s, a: act(a, s)),
        ("anchor", "LAL", lambda s, a, x: act(anc(s, a), x)),
        ("psi", "L", lambda s: psi(s)),
        ("psi_inv", "L", lambda s: psi_inv(s)),
    )


def rule_images(h, rule, rows):
    """{(r, further arguments): image}: the nonzero integer images of each
    integer row r of rows under one ideal rule, sum_i w_i table[i] for row
    w over the rule's table in h.rule_tables."""
    table, out = h.rule_tables[rule[0]], {}
    for r, w in enumerate(rows):
        images = {}
        for i, a in enumerate(w):
            if a:
                for rest, vec in table[i].items():
                    acc = images.setdefault(rest, [0] * h.dimL)
                    for k, c in vec.items():
                        acc[k] += a * c
        out.update(((r, rest), acc) for rest, acc in images.items() if any(acc))
    return out


def rule_image(h, rule, sub):
    """The span of the images of sub under one ideal rule."""
    return Subspace._spanned(h.dimL, list(rule_images(h, rule, sub.rows).values()))


@dataclass(frozen=True)
class IdealClosure:
    space: Subspace
    fired: tuple  # rule names that ever added a vector


def ideal_closure(h, seed):
    """Smallest subspace containing the Subspace seed that is closed under
    all ideal rules, grown one rule at a time in cyclic order.  It stops
    once every rule in turn has added nothing to the same space.  Each step
    reduces the integer rows of the space with their images under the rule,
    read off h.rule_tables, so no structure map is evaluated once they are."""
    current = seed
    fired = []
    rules = ideal_rules(h)
    idle = 0
    for rule in cycle(rules):
        if idle == len(rules):
            break
        grown = Subspace._spanned(h.dimL, [*current.rows, *rule_images(h, rule, current.rows).values()])
        idle += 1
        if grown.dim > current.dim:
            current, idle = grown, 0
            if rule[0] not in fired:
                fired.append(rule[0])
    return IdealClosure(space=current, fired=tuple(fired))


def is_ideal(h, sub):
    """Exact Def-style ideal test; returns (ok, failed_rule_names).

    psi_inv is not checked: in finite dimension psi(I) inside I with psi
    invertible gives psi(I) = I, so the inverse image stays in I too."""
    rules = [rule for rule in ideal_rules(h) if rule[0] != "psi_inv"]
    failed = [rule[0] for rule in rules if not sub.contains_space(rule_image(h, rule, sub))]
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
    br, full = h.maps.bracket, h.full_L
    closure = ideal_closure(h, _span(lambda x, y: br(x, y) + br(y, x), (full, full)))
    jspace = closure.space
    jl = h.bracket_space(jspace, full)
    # [L, J] = 0 exactly when no bracket of basis vectors is nonzero
    j_basis = jspace.basis
    brackets = ((x, s, _bilinear(br, x, s)) for x in full.basis for s in j_basis)
    found = next(((x, s, val) for x, s, val in brackets if not is_zero_vector(val)), None)
    witness = "" if found is None else "[{}, {}] = {}".format(*map(format_vector, found))
    return JReport(closure=closure, J_bracket_L_zero=jl.is_zero, L_bracket_J_zero=found is None, witness=witness)


def annihilator(h, space):
    """Vectors with zero anchor that bracket to zero, on both sides, with
    every vector of space.  Over all of L this is Z(L); over the zero space
    it is the kernel of the anchor."""
    br = h.maps.bracket
    return _vanishing(h.full_L, ((br, space), (lambda v, s: br(s, v), space), (h.maps.anchor, h.full_A)))


def _vanishing(full, parts):
    """The v in full, h.full_L or h.full_A, with side(v, s) = 0 for every
    (side, space) of parts and every row s of space: the kernel of one
    integer system whose column j holds every coordinate of the values at
    unit vector j, less the coordinates that are zero in every column."""
    index, cols = {}, [{} for _ in range(full.dim)]
    for p, (side, space) in enumerate(parts):
        (values,), _ = _evaluate([_terms(side, 2)], [full, space])
        for (j, r), vec in values.items():
            for k, c in vec.items():
                cols[j][index.setdefault((p, r, k), len(index))] = c
    return Subspace.zero(len(index)).preimage([[col.get(t, 0) for t in range(len(index))] for col in cols])


def _anchor_operators(h):
    """The matrix of v -> rho(v)(a) for each basis vector a of A."""
    anc = h.maps.anchor
    return operators(lambda a, v: anc(v, a), h.full_A, h.full_L)


def annihilator_Z(h):
    """Z(L): vectors bracketing to zero on both sides with zero anchor."""
    return annihilator(h, h.full_L)


def center_ZA(h):
    """Z(A): scalars multiplying everything to zero."""
    return _vanishing(h.full_A, ((h.maps.mul, h.full_A),))


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


def _restricted(kind, side, kinds, out, spaces):
    """The entries {(argument indices..., k): c} of side, a function of one
    argument position per kind, "L" or "A", on the RREF bases of
    spaces[kind]: c is coordinate k of the value in the RREF basis of
    spaces[out].

    side is evaluated on the integer rows of the spaces; dividing a value by
    the pivot entries of its rows gives the value on the RREF basis, whose
    coordinates are its pivot entries once it lies in spaces[out].  The
    first argument tuple in index order whose value does not raises
    ClosureError."""
    args_spaces = [spaces[k] for k in kinds]
    terms = _terms(side, len(kinds))
    (values,), den = _evaluate([terms], args_spaces)
    target, n = spaces[out], terms[0].fn.out
    entries = {}
    for args in sorted(values):
        vec, scale = values[args], den * prod(s.rows[r][s.pivots[r]] for s, r in zip(args_spaces, args))
        v = tuple(Fraction(vec[k], scale) if k in vec else ZERO for k in range(n))
        c = target.coords(v)
        if c is None:
            raise ClosureError(f"{kind} leaves the chosen {out} subspace: {format_vector(v)}", kind, args, v)
        entries.update(((*args, k), x) for k, x in enumerate(c) if x)
    return entries


def sub_algebra(h, l_sub, a_sub, l_labels=None, a_labels=None):
    """Restrict the structure to chosen L and A subspaces.

    Reads only h.maps.  Each of bracket, mul, action, anchor, psi and phi,
    in that order, is evaluated on every tuple of basis vectors of the
    chosen spaces at once and must land back inside them; otherwise a
    ClosureError names the map and its first argument tuple, in index
    order, whose value leaves them.
    """
    m, spaces = h.maps, {"L": l_sub, "A": a_sub}
    tables = {
        kind: _restricted(kind, getattr(m, kind), kinds, out, spaces)
        for kind, kinds, out in (
            ("bracket", "LL", "L"),
            ("mul", "AA", "A"),
            ("action", "AL", "L"),
            ("anchor", "LA", "A"),
            ("psi", "L", "L"),
            ("phi", "A", "A"),
        )
    }
    dl, da = l_sub.dim, a_sub.dim
    # column j of a twist holds the coordinates of its image of basis vector j
    psi = tuple(tuple(tables["psi"].get((j, k), ZERO) for j in range(dl)) for k in range(dl))
    phi = tuple(tuple(tables["phi"].get((j, k), ZERO) for j in range(da)) for k in range(da))
    regular = mat_inverse(psi) is not None and mat_inverse(phi) is not None
    return HLRAlgebra(
        dimL=dl,
        dimA=da,
        bracket=tables["bracket"],
        mul=tables["mul"],
        action=tables["action"],
        anchor=tables["anchor"],
        psi=psi,
        phi=phi,
        L_labels=tuple(l_labels or (f"u{i}" for i in range(dl))),
        A_labels=tuple(a_labels or (f"b{i}" for i in range(da))),
        regular=regular,
        unital=False,
    )


# -- fiber product -----------------------------------------------------------


def _embed(entries, tensor, offs):
    """Copy one block's tensor entries into entries, each index shifted by
    its axis offset."""
    for (i, j, k), v in tensor.items():
        entries[offs[0] + i, offs[1] + j, offs[2] + k] = v


def _block_diag(mats):
    """The block-diagonal matrix of square blocks, in order."""
    n = sum(len(m) for m in mats)
    rows = []
    off = 0
    for m in mats:
        w = len(m)
        for r in m:
            rows.append((ZERO,) * off + tuple(r) + (ZERO,) * (n - off - w))
        off += w
    return tuple(rows)


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
    # x in L1 and y in L2 pair up when rho(x)(a) = rho(y)(a) for every a
    legs = zip(_anchor_operators(h1), _anchor_operators(h2))
    w = kernel(tuple(r1 + vec_neg(r2) for m1, m2 in legs for r1, r2 in zip(m1, m2)), ncols=n)
    # L1 x L2 with the second leg at offset n1; on the carrier both anchors
    # agree, so the first leg's serves
    bracket, action = {}, {}
    for h, o in ((h1, 0), (h2, n1)):
        _embed(bracket, h.bracket, (o, o, o))
        _embed(action, h.action, (0, o, o))
    product = HLRAlgebra(
        dimL=n, dimA=na, bracket=bracket, mul=h1.mul, action=action, anchor=h1.anchor,
        psi=_block_diag([h1.psi, h2.psi]), phi=h1.phi,
    )
    try:
        algebra = sub_algebra(product, w, product.full_A, tuple(f"w{p}" for p in range(w.dim)), h1.A_labels)
    except ClosureError as exc:
        raise FiberClosureError(
            f"fiber carrier not closed under {exc.kind} at {exc.witness}: image {format_vector(exc.image)}",
            exc.kind,
            exc.witness,
            exc.image,
        ) from exc
    return FiberResult(algebra=replace(algebra, unital=h1.unital), space=w)
