"""Bundled example algebras plus a seeded generator for randomized ones.

The bundled instances are small enough to check by hand and together they
exercise every code path: abelian, simple, non-split, twisted, relaxed-only,
anchor-carrying, composite and empty.  The generator produces valid untwisted
instances out of 1-3 independent blocks together with a matching diagonal
endomorphism pair, so twisting stays inside the validated world.
"""

import random
from dataclasses import replace
from fractions import Fraction

from .linalg import identity_matrix
from .model import HLRAlgebra, _block_diag, _embed, twist_by_endomorphism


def _diag(*values):
    n = len(values)
    return tuple(
        tuple(Fraction(values[i]) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def _block(l_labels, a_labels, bracket, mul, action, anchor, declared_H):
    """A regular unital algebra on the named bases of L and A with the given
    structure entries and identity twists."""
    return HLRAlgebra(
        dimL=len(l_labels),
        dimA=len(a_labels),
        bracket=bracket,
        mul=mul,
        action=action,
        anchor=anchor,
        psi=identity_matrix(len(l_labels)),
        phi=identity_matrix(len(a_labels)),
        L_labels=l_labels,
        A_labels=a_labels,
        regular=True,
        unital=True,
        declared_H=declared_H,
    )


def _over_line(labels, bracket, declared_H):
    """An algebra on the named basis of L with the given bracket entries
    over the rational line: its unit acts as the identity and the anchor is
    zero."""
    action = {(0, j, j): 1 for j in range(len(labels))}
    return _block(labels, ("one",), bracket, {(0, 0, 0): 1}, action, {}, declared_H)


def _over_dual(labels, bracket, action, anchor):
    """An algebra on the named basis of L over the dual numbers, scalars one
    and t with t^2 = 0; H is spanned by the first basis vector of L."""
    mul = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}
    first = ((1,) + (0,) * (len(labels) - 1),)
    return _block(labels, ("one", "t"), bracket, mul, action, anchor, first)


# -- bundled instances -------------------------------------------------------


def fix_a():
    """Two-dimensional abelian bracket over the rational line; everything
    that can be trivial is trivial."""
    return _over_line(("x0", "x1"), {}, ((1, 0), (0, 1)))


def _b_like(lam):
    lam = Fraction(lam)
    return _over_line(("h", "e"), {(0, 1, 1): lam, (1, 0, 1): -lam}, ((1, 0),))


def fix_b():
    """Skew two-dimensional algebra [h,e] = e with one root."""
    return _b_like(1)


def fix_c():
    """Square-to-center example [x,x] = y; non-skew, no chosen subalgebra."""
    return _over_line(("x", "y"), {(0, 0, 1): 1}, None)


def fix_d():
    """The twist of fix_b by the diagonal pair (id, diag(1,2))."""
    return twist_by_endomorphism(fix_b(), ((1,),), ((1, 0), (0, 2)))


def fix_e():
    """Simple three-dimensional bracket over dual numbers with a nonzero
    anchor.  The second representation identity fails, so this one validates
    only in relaxed mode; every other path treats it as the showcase."""
    bracket = {
        (0, 1, 1): 1,
        (1, 0, 1): -1,
        (0, 2, 2): -1,
        (2, 0, 2): 1,
        (1, 2, 0): 1,
        (2, 1, 0): -1,
    }
    action = {(0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1}
    return _over_dual(("h", "e", "f"), bracket, action, {(0, 1, 1): 1})


def fix_c_split():
    """fix_c with a grading element adjoined: [h,x] = x, [x,x] = y,
    [h,y] = 2y.  Splits, and separates the two annihilation directions."""
    bracket = {(0, 1, 1): 1, (1, 0, 1): -1, (1, 1, 2): 1, (0, 2, 2): 2}
    return _over_line(("h", "x", "y"), bracket, ((1, 0, 0),))


def _s_like(lam):
    lam = Fraction(lam)
    bracket = {
        (0, 1, 1): lam,
        (1, 0, 1): -lam,
        (0, 2, 2): -lam,
        (2, 0, 2): lam,
        (0, 3, 3): 2 * lam,
        (0, 4, 4): -2 * lam,
        (1, 1, 3): 1,
        (2, 2, 4): 1,
    }
    return _over_line(("h", "e", "f", "u", "v"), bracket, ((1, 0, 0, 0, 0),))


def fix_s():
    """Four symmetric roots with two square-generated top spaces u = [e,e]
    and v = [f,f]; the squares span a four-root instance whose symmetrized
    ideal is u, v."""
    return _s_like(1)


def _w_like(lam):
    lam = Fraction(lam)
    action = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}
    return _over_dual(("h", "e"), {(0, 1, 1): lam, (1, 0, 1): -lam}, action, {(0, 1, 1): lam})


def fix_w():
    """Dual-number scalars moving L: t.h = e while the anchor sends t back
    to itself along h.  Strict-valid with one root and one weight."""
    return _w_like(1)


def _p_like(lam):
    lam = Fraction(lam)
    action = {(0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1, (1, 1, 2): 1}
    return _over_dual(("h", "e", "u"), {(0, 1, 1): lam, (0, 2, 2): 2 * lam}, action, {(0, 1, 1): lam})


def fix_p():
    """One-sided brackets [h,e] = e, [h,u] = 2u with t.e = u: both roots
    land in the symmetrized ideal and the scalars pair against it."""
    return _p_like(1)


def fix_t():
    """fix_s bracket over a square-zero two-dimensional scalar algebra with
    a trivial action: only the anchor rho(h): t -> t, rho(f): t -> s moves
    scalars, which makes the zero-weight space anchor-generated."""
    return replace(
        fix_s(),
        dimA=2,
        mul={},
        action={},
        anchor={(0, 1, 1): 1, (2, 1, 0): 1},
        phi=identity_matrix(2),
        A_labels=("s", "t"),
        unital=False,
    )


def fix_zero():
    """The empty algebra; every statement about it is vacuous."""
    return HLRAlgebra(
        dimL=0,
        dimA=0,
        bracket={},
        mul={},
        action={},
        anchor={},
        psi=(),
        phi=(),
        regular=True,
        unital=False,
        declared_H=(),
    )


# -- composition helpers -----------------------------------------------------


def _offsets(dims):
    """Start index of each block along one axis, and the total dimension."""
    offs = []
    total = 0
    for d in dims:
        offs.append(total)
        total += d
    return offs, total


def _direct_sum(blocks, a_offs, dim_a, mul, phi, a_labels, unital):
    """The blocks' bracket sides placed on the diagonal of L, with their
    actions and anchors at the given A offsets, over the given scalar
    algebra.  A single block comes back unchanged."""
    if len(blocks) == 1:
        return blocks[0]
    l_offs, nl = _offsets(b.dimL for b in blocks)
    bracket, action, anchor = {}, {}, {}
    for b, lo, ao in zip(blocks, l_offs, a_offs):
        _embed(bracket, b.bracket, (lo, lo, lo))
        _embed(action, b.action, (ao, lo, lo))
        _embed(anchor, b.anchor, (lo, ao, ao))
    return HLRAlgebra(
        dimL=nl,
        dimA=dim_a,
        bracket=bracket,
        mul=mul,
        action=action,
        anchor=anchor,
        psi=_block_diag([b.psi for b in blocks]),
        phi=phi,
        L_labels=_suffixed([b.L_labels for b in blocks]),
        A_labels=a_labels,
        regular=all(b.regular for b in blocks),
        unital=unital,
        declared_H=_stack_declared(blocks, l_offs, nl),
    )


def shared_scalar_sum(blocks):
    """Direct sum of the bracket sides over one common scalar algebra.

    All blocks must carry identical scalar data.  The anchors are summed;
    that is only sound when no anchor image can act across blocks, which
    validation catches on misuse.
    """
    if not blocks:
        raise ValueError("need at least one block")
    first = blocks[0]
    for b in blocks[1:]:
        if (b.dimA, b.mul, b.phi) != (first.dimA, first.mul, first.phi):
            raise ValueError("blocks disagree on the scalar algebra")
    a_offs = [0] * len(blocks)
    return _direct_sum(blocks, a_offs, first.dimA, first.mul, first.phi, first.A_labels, first.unital)


def product_sum(blocks):
    """Direct sum on both sides: scalars multiply and act componentwise."""
    if not blocks:
        raise ValueError("need at least one block")
    a_offs, na = _offsets(b.dimA for b in blocks)
    mul = {}
    for b, ao in zip(blocks, a_offs):
        _embed(mul, b.mul, (ao, ao, ao))
    phi = _block_diag([b.phi for b in blocks])
    a_labels = _suffixed([b.A_labels for b in blocks])
    return _direct_sum(blocks, a_offs, na, mul, phi, a_labels, all(b.unital for b in blocks))


def _suffixed(label_groups):
    out = []
    for idx, labels in enumerate(label_groups, start=1):
        out.extend(f"{lab}{idx}" for lab in labels)
    return tuple(out)


def _stack_declared(blocks, offs, total):
    if any(b.declared_H is None for b in blocks):
        return None
    rows = []
    for b, off in zip(blocks, offs):
        for r in b.declared_H:
            rows.append(
                (Fraction(0),) * off
                + tuple(r)
                + (Fraction(0),) * (total - off - b.dimL)
            )
    return tuple(rows)


def fix_b2():
    """Two independent copies of fix_b over one rational line; the two root
    classes stay disconnected."""
    return shared_scalar_sum([fix_b(), fix_b()])


def fix_e2():
    """fix_e doubled with componentwise scalars; two simple components."""
    return product_sum([fix_e(), fix_e()])


def fix_s2():
    """fix_s doubled with componentwise scalars; eight roots."""
    return product_sum([fix_s(), fix_s()])


def fix_p2():
    """fix_p doubled with componentwise scalars; scalar classes pair off
    against bracket classes one on one."""
    return product_sum([fix_p(), fix_p()])


BUNDLED = {
    "fix_a": fix_a,
    "fix_b": fix_b,
    "fix_c": fix_c,
    "fix_d": fix_d,
    "fix_e": fix_e,
    "fix_c_split": fix_c_split,
    "fix_s": fix_s,
    "fix_w": fix_w,
    "fix_p": fix_p,
    "fix_t": fix_t,
    "fix_b2": fix_b2,
    "fix_e2": fix_e2,
    "fix_s2": fix_s2,
    "fix_p2": fix_p2,
    "fix_zero": fix_zero,
}


def write_bundled(directory):
    """Render every bundled instance to canonical files under directory."""
    import os

    from .fileio import canonical_dumps, to_document

    os.makedirs(directory, exist_ok=True)
    for name, builder in sorted(BUNDLED.items()):
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps(to_document(builder())))


# -- randomized instances ----------------------------------------------------

FAMILIES = ("A", "B", "S", "W", "P")


def _nonzero_rational(rng):
    num = rng.randint(1, 5) * rng.choice((1, -1))
    return Fraction(num, rng.randint(1, 4))


def _family_block(name, lam):
    if name == "A":
        return fix_a()
    if name == "B":
        return _b_like(lam)
    if name == "S":
        return _s_like(lam)
    if name == "W":
        return _w_like(lam)
    if name == "P":
        return _p_like(lam)
    raise ValueError(f"unknown family {name!r}")


def _family_maps(name, rng):
    """Diagonal endomorphism pair (g, f) matching the family's grading."""
    c = _nonzero_rational(rng)
    if name == "A":
        return _diag(1), _diag(c, _nonzero_rational(rng))
    if name == "B":
        return _diag(1), _diag(1, c)
    if name == "S":
        cp = _nonzero_rational(rng)
        return _diag(1), _diag(1, c, cp, c * c, cp * cp)
    if name == "W":
        return _diag(1, c), _diag(1, c)
    if name == "P":
        return _diag(1, c), _diag(1, c, c * c)
    raise ValueError(f"unknown family {name!r}")


def random_instance(seed):
    """Seeded valid untwisted instance with an endomorphism pair (g, f).

    Returns (algebra, g, f).  The algebra is a componentwise sum of 1-3
    family blocks with random nonzero bracket scales; g and f are block
    diagonal, so twisting by them stays an endomorphism.
    """
    rng = random.Random(seed)
    count = rng.randint(1, 3)
    names = [rng.choice(FAMILIES) for _ in range(count)]
    blocks, gs, fs = [], [], []
    for name in names:
        blocks.append(_family_block(name, _nonzero_rational(rng)))
        g, f = _family_maps(name, rng)
        gs.append(g)
        fs.append(f)
    return product_sum(blocks), _block_diag(gs), _block_diag(fs)
