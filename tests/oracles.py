"""Independent oracles the tests compare the library against.

The brute_force_* functions re-derive connectivity by enumerating families
and recomputing every displayed partial sum from its exponent pattern, with
no shared recurrence with the breadth-first walkers they check.
pairwise_root_partition and pairwise_weight_partition build the connection
partitions from one breadth-first search per ordered pair (the slow path
that one walk per source replaces), through pairwise_roots_connected,
pairwise_weights_connected and shortest_chain.
dense_bilinear evaluates a structure tensor on its full dense grid, the
slow path that the grouped sparse rows of HLRAlgebra replace.
fraction_operator builds the matrix of one structure tensor with one
argument fixed, one vector at a time over Fractions: the path that
hlra.model.operators, read off one evaluation on integer rows, replaces.
fraction_rules applies the ideal rules to one vector at a time, as
Fraction vectors summed over the tensor entries, and fraction_products,
fraction_closure and fraction_is_ideal build the products of subspaces,
the ideal closure and the ideal test on them: the per-vector path that the
integer rule tables of hlra.model replace.
fraction_rref is Gauss-Jordan elimination over Fractions, the slow path
that the integer-row elimination of hlra.linalg replaces; the fraction_*
functions below it rebuild kernels, intersections, preimages, residuals,
solutions and inverses on top of it, through null spaces and over
Fractions throughout, and fraction_determinant eliminates over Fractions
too.  faddeev_leverrier is the characteristic polynomial from whole-matrix
products and traces over Fractions, the path that the Hessenberg form
modulo 61-bit primes and Chinese remaindering in hlra.linalg.charpoly
replace.  fraction_square_free_part divides a polynomial by its gcd with
its derivative found by Euclid's algorithm over Q, through
fraction_poly_divmod: the path that the primitive pseudo-remainder
sequence in Z[x] of hlra.linalg replaces.
transport rewrites an algebra in other bases of L and A, for the tests
that a result does not depend on the basis; seeded_transport draws the
bases with random_basis, and random_rational_basis draws bases with
rational entries.
intersection_parts meets a subspace with H and with each root space, one
intersection per piece: the path that RootDecomposition.parts, one
product by the inverse of the adapted basis per row, replaces on graded
subspaces.
build_root_ideal, build_weight_ideal, root_inner_sum and weight_inner_sum
evaluate the opposite products afresh for each class ideal and generated
part, and theorem_5_12_run adds up the thm5.12 complement one root at a
time: the per-caller path that the opposite-product tables of
hlra.structure.Analysis replace.
h_part_window is the H-part window of the ideal enumeration computed in L,
by a preimage of W + F_S in the ambient space per step: the slow path that
the per-root kernels in H coordinates replace, and window_enumeration
assembles the enumerated ideals from it.
swapped_line is an input whose twist moves a root.
scan_identities and scan_morphism check the defining identities of an
algebra and of a morphism pair by evaluating both sides, as Fraction
vectors, on every tuple of basis vectors in itertools.product order: the
basis-tuple scan that the sparse residuals of hlra.model replace.
per_vector_twist and per_vector_sub_algebra build the twisted algebra and
the restriction to chosen subspaces one tuple of basis vectors at a time,
through vector_maps (entry_bilinear on each tensor) and mat_vec: the path
that the term rows evaluated on integer rows in hlra.model replace.
"""

from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import product
from math import gcd, lcm
from random import Random

from hlra.connections import ConnectionPartition, ConnectionWitness, _displayed_root_sum, _pm
from hlra import fixtures
from hlra.decomposition import ClassIdeal, _from_h_coords
from hlra.linalg import (
    Subspace,
    basis_vector,
    identity_matrix,
    mat_columns,
    mat_from_columns,
    mat_vec,
    span,
    vec_add,
    vec_neg,
)
from hlra.model import (
    ClosureError,
    HLRAlgebra,
    InputError,
    TwistError,
    check_morphism,
    ideal_closure,
    twist_by_endomorphism,
)
from hlra.roots import compose_psi_power, psi_orbit
from hlra.scalars import format_vector


def brute_force_root_connected(gamma, xi, rd, wd, max_len, restrict=None):
    """Depth-first enumeration of families straight off the definition."""
    gamma, xi = tuple(gamma), tuple(xi)
    bound = len(rd.gamma) + 2
    span = []
    for k in range(-bound, bound + 1):
        span.append(tuple(compose_psi_power(gamma, k, rd)))
    neg_xi = vec_neg(xi)
    for cand in span:
        if cand == xi or cand == neg_xi:
            return True

    allowed_roots = set(map(tuple, restrict)) if restrict is not None else set(rd.gamma)
    family = sorted(_pm(wd.lam) | _pm(allowed_roots))
    family_set = set(family)
    sigma_allowed = _pm(allowed_roots)
    targets = set()
    for k in range(-bound, bound + 1):
        t = tuple(compose_psi_power(xi, k, rd))
        targets.add(t)
        targets.add(vec_neg(t))
    starts = []
    for cand in span:
        if cand in family_set and cand not in starts:
            starts.append(cand)

    def extend(seq):
        p = len(seq)
        if p >= 2:
            s = _displayed_root_sum(seq, p, rd)
            if s in targets:
                return True
            if s not in sigma_allowed:
                return False
        if p >= max_len:
            return False
        for zeta in family:
            if extend(seq + [zeta]):
                return True
        return False

    return any(extend([s0]) for s0 in starts)


def brute_force_weight_connected(alpha, beta, rd, wd, max_len):
    alpha, beta = tuple(alpha), tuple(beta)
    if beta in (alpha, vec_neg(alpha)):
        return True
    vocab = sorted(_pm(wd.lam) | _pm(rd.gamma))
    vocab_set = set(vocab)
    targets = {beta, vec_neg(beta)}

    def extend(seq):
        p = len(seq)
        if p >= 2:
            total = seq[0]
            for i in range(1, p):
                total = vec_add(total, seq[i])
            if total in targets:
                return True
            if total not in vocab_set:
                return False
        if p >= max_len:
            return False
        for zeta in vocab:
            if extend(seq + [zeta]):
                return True
        return False

    return extend([alpha])


# -- connection partitions by one search per ordered pair ----------------------


def pairwise_roots_connected(gamma, xi, rd, wd, restrict=None):
    """Witness connecting two roots, or None, from a search for xi alone."""
    gamma, xi = tuple(gamma), tuple(xi)
    orbit_g = psi_orbit(gamma, rd)
    neg_xi = vec_neg(xi)
    for i, member in enumerate(orbit_g):
        if member == xi:
            return ConnectionWitness(kind="direct", epsilon=1, z=-i)
        if member == neg_xi:
            return ConnectionWitness(kind="direct", epsilon=-1, z=-i)

    allowed_roots = set(map(tuple, restrict)) if restrict is not None else set(rd.gamma)
    family = sorted(_pm(wd.lam) | _pm(allowed_roots))
    targets = {}
    for m, member in enumerate(psi_orbit(xi, rd)):
        targets.setdefault(tuple(member), (1, m))
        targets.setdefault(vec_neg(member), (-1, m))
    return shortest_chain(
        starts=[o for o in orbit_g if tuple(o) in set(family)],
        family=family,
        sigma_set=_pm(allowed_roots),
        targets=targets,
        step=lambda sigma, zeta: compose_psi_power(vec_add(sigma, zeta), -1, rd),
    )


def pairwise_weights_connected(alpha, beta, rd, wd):
    """Witness connecting two weights, or None, from a search for beta alone."""
    alpha, beta = tuple(alpha), tuple(beta)
    if beta == alpha:
        return ConnectionWitness(kind="direct", epsilon=1)
    if beta == vec_neg(alpha):
        return ConnectionWitness(kind="direct", epsilon=-1)
    sigma_set = _pm(wd.lam) | _pm(rd.gamma)
    return shortest_chain(
        starts=[alpha],
        family=sorted(sigma_set),
        sigma_set=sigma_set,
        targets={beta: (1, 0), vec_neg(beta): (-1, 0)},
        step=vec_add,
    )


def shortest_chain(starts, family, sigma_set, targets, step):
    """Breadth-first search for one target.

    A chain is a start followed by family members; each step(sum, member)
    must stay in sigma_set until it lands in targets, which maps an endpoint
    to its (end_sign, end_power).  Returns the lexicographically least chain
    of the least length as a witness, or None.
    """
    parent = {}
    frontier = sorted(set(map(tuple, starts)))
    for s in frontier:
        parent[s] = None
    max_depth = len(family) + 2

    def rebuild(node, last_zeta):
        chain = [last_zeta]
        while parent[node] is not None:
            prev, zeta = parent[node]
            chain.append(zeta)
            node = prev
        chain.append(node)
        chain.reverse()
        return tuple(chain)

    depth = 1
    while frontier and depth < max_depth:
        completions = []
        next_parent = {}
        for sigma in frontier:
            for zeta in family:
                nxt = step(sigma, zeta)
                if nxt in targets:
                    end_sign, end_power = targets[nxt]
                    completions.append(
                        ConnectionWitness(
                            kind="chain",
                            elements=rebuild(sigma, zeta),
                            end_sign=end_sign,
                            end_power=end_power,
                        )
                    )
                if nxt in sigma_set and nxt not in parent and nxt not in next_parent:
                    next_parent[nxt] = (sigma, zeta)
        if completions:
            return min(completions, key=lambda w: w.elements)
        parent.update(next_parent)
        frontier = sorted(next_parent)
        depth += 1
    return None


def pairwise_partition(items, connected):
    """Partition from connected(f, g) on each reflexive pair and on both
    orders of each pair f < g, joined by union-find."""
    items = sorted(map(tuple, items))
    index = {f: i for i, f in enumerate(items)}
    parent = list(range(len(items)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    witnesses = {}
    raw = {}
    reflexive_ok = True
    for f in items:
        w = connected(f, f)
        raw[(f, f)] = w is not None
        if w is None:
            reflexive_ok = False
    for i, f in enumerate(items):
        for g in items[i + 1 :]:
            wf = connected(f, g)
            wg = connected(g, f)
            raw[(f, g)] = wf is not None
            raw[(g, f)] = wg is not None
            if wf is not None:
                witnesses[(f, g)] = wf
            if wg is not None:
                witnesses[(g, f)] = wg
            if wf is not None or wg is not None:
                union(index[f], index[g])
    raw_symmetric = all(raw[(f, g)] == raw[(g, f)] for (f, g) in raw)
    groups = {}
    for i, f in enumerate(items):
        groups.setdefault(find(i), []).append(f)
    classes = tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=lambda g: sorted(g)[0]))
    return ConnectionPartition(
        items=tuple(items),
        classes=classes,
        witnesses=witnesses,
        raw_symmetric=raw_symmetric,
        reflexive_ok=reflexive_ok,
    )


def pairwise_root_partition(rd, wd, restrict=None):
    items = sorted(map(tuple, restrict)) if restrict is not None else rd.gamma
    return pairwise_partition(items, lambda f, g: pairwise_roots_connected(f, g, rd, wd, restrict=restrict))


def pairwise_weight_partition(rd, wd):
    return pairwise_partition(wd.lam, lambda f, g: pairwise_weights_connected(f, g, rd, wd))


def same_class(part, f, g):
    """True when g lies in the first class of the partition that holds f."""
    f = tuple(f)
    cls = next((c for c in part.classes if f in c), None)
    return cls is not None and tuple(g) in cls


def dense_bilinear(tensor, u, v, out_dim):
    """sum over every cell (i, j, k) of u_i v_j tensor[i, j, k] e_k, on the
    dense grid built from the tensor's entries, zero cells included."""
    grid = [[[tensor.get((i, j, k), 0) for k in range(out_dim)] for j in range(len(v))] for i in range(len(u))]
    out = [Fraction(0)] * out_dim
    for i, ci in enumerate(u):
        for j, cj in enumerate(v):
            for k in range(out_dim):
                out[k] += ci * cj * grid[i][j][k]
    return tuple(out)


def fraction_operator(tensor, x, slot, n, out_dim):
    """Matrix of v -> t(x, v) on Q^n when slot is 0, of v -> t(v, x) when
    slot is 1, summed as Fractions over the nonzero entries of the tensor t."""
    out = [[Fraction(0)] * n for _ in range(out_dim)]
    for (i, j, k), c in tensor.items():
        a, col = (x[i], j) if slot == 0 else (x[j], i)
        if a:
            out[k][col] += a * c
    return tuple(map(tuple, out))


# -- ideal rules one vector at a time ------------------------------------------


def entry_bilinear(tensor, u, v, out_dim):
    """sum over the nonzero entries (i, j, k) of u_i v_j tensor[i, j, k] e_k."""
    out = [Fraction(0)] * out_dim
    for (i, j, k), c in tensor.items():
        if u[i] and v[j]:
            out[k] += u[i] * v[j] * c
    return tuple(out)


def fraction_rules(h):
    """(name, images) for each ideal rule, in the order of the package.
    images(s) lists the image of the vector s under each linear map of the
    rule: [s, x], [x, s], a . s, rho(s)(a) . x over basis vectors x of L and
    a of A, then psi(s) and, when psi is invertible, its inverse image."""
    eL = [basis_vector(h.dimL, i) for i in range(h.dimL)]
    eA = [basis_vector(h.dimA, i) for i in range(h.dimA)]
    br = partial(entry_bilinear, h.bracket, out_dim=h.dimL)
    act = partial(entry_bilinear, h.action, out_dim=h.dimL)
    anc = partial(entry_bilinear, h.anchor, out_dim=h.dimA)
    psi_inv = fraction_inverse(h.psi)
    return [
        ("bracket_left", lambda s: [br(s, x) for x in eL]),
        ("bracket_right", lambda s: [br(x, s) for x in eL]),
        ("action", lambda s: [act(a, s) for a in eA]),
        ("anchor", lambda s: [act(anc(s, a), x) for a in eA for x in eL]),
        ("psi", lambda s: [mat_vec(h.psi, s)]),
        ("psi_inv", lambda s: [] if psi_inv is None else [mat_vec(psi_inv, s)]),
    ]


def absorbs(sub, images):
    """True when every image of every basis vector of sub lies in sub."""
    return all(sub.contains(v) for s in sub.basis for v in images(s))


def fraction_products(h):
    """name -> product(s, t): the span of the structure map on every pair
    of basis vectors of the subspaces s and t, for the four tensors."""

    def product(tensor, out_dim):
        return lambda s, t: Subspace(out_dim, [entry_bilinear(tensor, u, v, out_dim) for u in s.basis for v in t.basis])

    return {
        "bracket": product(h.bracket, h.dimL),
        "mul": product(h.mul, h.dimA),
        "action": product(h.action, h.dimL),
        "anchor": product(h.anchor, h.dimA),
    }


def fraction_closure(h, seed):
    """(space, fired) of the smallest subspace holding seed closed under the
    rules, grown one rule at a time as the package does; fired lists the
    rules that ever added a vector, in the order they first did."""
    current, fired = seed, []
    while True:
        added = False
        for name, images in fraction_rules(h):
            grown = current.add(Subspace(h.dimL, [v for s in current.basis for v in images(s)]))
            if grown.dim > current.dim:
                current, added = grown, True
                if name not in fired:
                    fired.append(name)
        if not added:
            return current, tuple(fired)


def fraction_is_ideal(h, sub):
    """(ok, names of the rules other than psi_inv that sub does not absorb)."""
    failed = [name for name, images in fraction_rules(h) if name != "psi_inv" and not absorbs(sub, images)]
    return not failed, failed


# -- builders one basis pair at a time -------------------------------------------


def vector_maps(h):
    """bracket, mul, action and anchor of h on Fraction vectors, through
    entry_bilinear."""
    return (
        partial(entry_bilinear, h.bracket, out_dim=h.dimL),
        partial(entry_bilinear, h.mul, out_dim=h.dimA),
        partial(entry_bilinear, h.action, out_dim=h.dimL),
        partial(entry_bilinear, h.anchor, out_dim=h.dimA),
    )


def _entries(pairs):
    """Tensor entries {(i, j, k): vector[k]} from ((i, j), vector) pairs."""
    return {(i, j, k): c for (i, j), vec in pairs for k, c in enumerate(vec) if c}


def per_vector_twist(h, g, f):
    """twist_by_endomorphism one pair of basis vectors at a time: f applied
    after the bracket and g after the anchor of each pair, as Fraction
    vectors.  The morphism conditions are the package's check_morphism, which
    scan_morphism checks."""
    if h.psi != identity_matrix(h.dimL) or h.phi != identity_matrix(h.dimA):
        raise InputError("twist input must carry identity twists")
    bad = [r for r in check_morphism(g, f, h, h) if r.status == "fail"]
    if bad:
        raise TwistError([r.key for r in bad], "not an endomorphism pair: " + "; ".join(f"{r.key} {r.detail}" for r in bad))
    g, f = (tuple(tuple(Fraction(c) for c in row) for row in m) for m in (g, f))
    br, _, _, anc = vector_maps(h)
    eL, eA = identity_matrix(h.dimL), identity_matrix(h.dimA)
    bracket = _entries(((i, j), mat_vec(f, br(x, y))) for i, x in enumerate(eL) for j, y in enumerate(eL))
    anchor = _entries(((i, j), mat_vec(g, anc(x, a))) for i, x in enumerate(eL) for j, a in enumerate(eA))
    regular = fraction_inverse(f) is not None and fraction_inverse(g) is not None
    return replace(h, bracket=bracket, anchor=anchor, psi=f, phi=g, regular=regular)


def per_vector_sub_algebra(h, l_sub, a_sub, l_labels=None, a_labels=None):
    """sub_algebra one tuple of basis vectors at a time: each map applied to
    the RREF basis vectors of the chosen spaces as Fraction vectors, and
    each value read in their coordinates by fraction_coords.  The first
    value outside them, maps in the order bracket, mul, action, anchor, psi,
    phi and pairs in index order, raises the ClosureError of the package."""
    br, mul, act, anc = vector_maps(h)
    spaces = {"L": l_sub, "A": a_sub}
    lb, ab = l_sub.basis, a_sub.basis

    def coords(kind, side, witness, v):
        c = fraction_coords(spaces[side].basis, spaces[side].pivots, v)
        if c is None:
            raise ClosureError(f"{kind} leaves the chosen {side} subspace: {format_vector(v)}", kind, witness, v)
        return c

    def table(kind, side, vec, left, right):
        return _entries(((i, j), coords(kind, side, (i, j), vec(u, v))) for i, u in enumerate(left) for j, v in enumerate(right))

    tables = {
        "bracket": table("bracket", "L", br, lb, lb),
        "mul": table("mul", "A", mul, ab, ab),
        "action": table("action", "L", act, ab, lb),
        "anchor": table("anchor", "A", anc, lb, ab),
    }
    psi = mat_from_columns([coords("psi", "L", (j,), mat_vec(h.psi, b)) for j, b in enumerate(lb)], nrows=len(lb))
    phi = mat_from_columns([coords("phi", "A", (j,), mat_vec(h.phi, b)) for j, b in enumerate(ab)], nrows=len(ab))
    return HLRAlgebra(
        dimL=len(lb),
        dimA=len(ab),
        **tables,
        psi=psi,
        phi=phi,
        L_labels=tuple(l_labels or (f"u{i}" for i in range(len(lb)))),
        A_labels=tuple(a_labels or (f"b{i}" for i in range(len(ab)))),
        regular=fraction_inverse(psi) is not None and fraction_inverse(phi) is not None,
        unital=False,
    )


# -- exact linear algebra over Fractions --------------------------------------

ZERO, ONE = Fraction(0), Fraction(1)


def fraction_rref(rows):
    """(rows, pivots) of the reduced row echelon form, computed over
    Fractions: each pivot row is scaled by the inverse of its pivot and
    subtracted from every other row."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return (), ()
    pivots = []
    r = 0
    for c in range(len(work[0])):
        pr = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = ONE / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def fraction_kernel(m, ncols):
    """(rows, pivots) of the null space of m: one vector per free column
    read off the RREF of m, then reduced."""
    if not m:
        return fraction_rref([[ONE if i == j else ZERO for j in range(ncols)] for i in range(ncols)])
    red, pivots = fraction_rref(m)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(v)
    return fraction_rref(basis)


def fraction_intersect(a, b, n):
    """(rows, pivots) of span(a) & span(b) in Q^n: the lambda part of each
    null vector of the matrix with columns a_i and -b_j, combined over a."""
    a, b = fraction_rref(a)[0], fraction_rref(b)[0]
    if not a or not b:
        return (), ()
    cols = list(a) + [tuple(-x for x in v) for v in b]
    m = tuple(tuple(col[i] for col in cols) for i in range(n))
    vecs = []
    for k in fraction_kernel(m, len(cols))[0]:
        vecs.append([sum((k[i] * row[j] for i, row in enumerate(a)), ZERO) for j in range(n)])
    return fraction_rref(vecs)


def fraction_preimage(rows, columns, n):
    """(rows, pivots) of the x with sum_i x_i columns[i] in span(rows),
    block by block of n entries: the x part of the null space of the matrix
    with columns[i] and, negated, each basis row placed in each block."""
    if not columns:
        return (), ()
    k, width = len(columns), len(columns[0])
    placed = [
        tuple(-v[j - at] if at <= j < at + n else ZERO for j in range(width))
        for at in range(0, width, n)
        for v in fraction_rref(rows)[0]
    ]
    cols = [tuple(c) for c in columns] + placed
    m = tuple(tuple(col[i] for col in cols) for i in range(width))
    return fraction_rref([v[:k] for v in fraction_kernel(m, len(cols))[0]])


def fraction_reduce(basis, pivots, v):
    """v after subtracting, row by row, its current pivot entry times the
    RREF row of that pivot."""
    v = list(v)
    for row, p in zip(basis, pivots):
        c = v[p]
        if c:
            v = [x - c * y for x, y in zip(v, row)]
    return tuple(v)


def fraction_coords(basis, pivots, v):
    if any(fraction_reduce(basis, pivots, v)):
        return None
    return tuple(v[p] for p in pivots)


def fraction_solve(m, rhs):
    if not m:
        return None
    n = len(m[0])
    red, pivots = fraction_rref([tuple(row) + (b,) for row, b in zip(m, rhs)])
    x = [ZERO] * n
    for row, p in zip(red, pivots):
        if p == n:
            return None
        x[p] = row[n]
    return tuple(x)


def fraction_inverse(m):
    n = len(m)
    if n == 0:
        return ()
    aug = [tuple(row) + tuple(ONE if i == j else ZERO for j in range(n)) for i, row in enumerate(m)]
    red, pivots = fraction_rref(aug)
    if pivots != tuple(range(n)):
        return None
    return tuple(row[n:] for row in red)


def fraction_product(a, b):
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b)) for row in a)


def fraction_determinant(m):
    """det(M) by Gaussian elimination over Fractions, with row swaps."""
    work = [[Fraction(x) for x in row] for row in m]
    det = ONE
    for c in range(len(work)):
        r = next((i for i in range(c, len(work)) if work[i][c]), None)
        if r is None:
            return ZERO
        if r != c:
            work[c], work[r] = work[r], work[c]
            det = -det
        det *= work[c][c]
        for i in range(c + 1, len(work)):
            u = work[i][c] / work[c][c]
            if u:
                work[i] = [x - u * y for x, y in zip(work[i], work[c])]
    return det


def faddeev_leverrier(m):
    """Coefficients of det(tI - M), low degree first, by Faddeev-LeVerrier
    on whole matrices: M_1 = M and M_k = M (M_(k-1) + c_(k-1) I), with
    c_k = -trace(M_k) / k the coefficient of t^(n-k)."""
    n = len(m)
    ident = tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
    coeffs = [ZERO] * n + [ONE]
    shifted = ident
    for k in range(1, n + 1):
        mk = fraction_product(m, shifted)
        c = -sum((mk[i][i] for i in range(n)), ZERO) / k
        coeffs[n - k] = c
        shifted = tuple(tuple(x + c * y for x, y in zip(row, irow)) for row, irow in zip(mk, ident))
    return tuple(coeffs)


def fraction_poly_divmod(a, b):
    """Quotient and remainder of a by b over Q, coefficients low degree
    first; the remainder has no trailing zeros."""
    a = list(a)
    q = [ZERO] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = c
        for i, bi in enumerate(b):
            a[shift + i] -= c * bi
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return q, a


def fraction_square_free_part(f):
    """f divided by gcd(f, f'), made primitive in Z[x], with the gcd from
    Euclid's algorithm over Q."""
    a, b = f, [i * c for i, c in enumerate(f)][1:]
    while b:
        a, b = b, fraction_poly_divmod(a, b)[1]
    g = fraction_poly_divmod(f, a)[0]
    den = lcm(*(c.denominator for c in g))
    ints = [c.numerator * (den // c.denominator) for c in g]
    content = gcd(*ints)
    return [c // content for c in ints]


# -- change of basis -----------------------------------------------------------


def random_basis(rng, n):
    """An invertible n x n matrix of 1-digit integers, drawn from rng until
    one is invertible."""
    while True:
        m = tuple(tuple(Fraction(rng.randint(-9, 9)) for _ in range(n)) for _ in range(n))
        if fraction_inverse(m) is not None:
            return m


def random_rational_basis(rng, n):
    """An invertible n x n matrix whose entries have numerators and
    denominators of 1 to 3 digits, drawn from rng until one is invertible."""
    while True:
        m = tuple(tuple(Fraction(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(n)) for _ in range(n))
        if fraction_inverse(m) is not None:
            return m


# the spaces (L or A) of the two arguments and of the value of each tensor
TENSOR_KINDS = {"bracket": "LLL", "mul": "AAA", "action": "ALL", "anchor": "LAA"}


def transport(h, P, Q):
    """h written in the bases given by the columns of the invertible
    matrices P (on L) and Q (on A).

    Each structure constant is the product of two new basis vectors,
    expanded through the old constants and written in new coordinates
    through P^-1 or Q^-1.  psi becomes P^-1 psi P, phi becomes Q^-1 phi Q
    and each declared_H row becomes P^-1 row.  Labels are kept.
    """
    P = tuple(tuple(Fraction(x) for x in row) for row in P)
    Q = tuple(tuple(Fraction(x) for x in row) for row in Q)
    P_inv, Q_inv = fraction_inverse(P), fraction_inverse(Q)
    to_old = {"L": P, "A": Q}
    to_new = {"L": P_inv, "A": Q_inv}

    def moved(tensor, kinds):
        left, right, out = to_old[kinds[0]], to_old[kinds[1]], to_new[kinds[2]]
        old = {}  # (a, b) -> {l: coefficient of old basis vector l in the product}
        for (i, j, l), c in tensor.items():
            for a, pa in enumerate(left[i]):
                for b, pb in enumerate(right[j]):
                    if pa and pb:
                        slot = old.setdefault((a, b), {})
                        slot[l] = slot.get(l, ZERO) + c * pa * pb
        new = {}
        for (a, b), vec in old.items():
            for k, row in enumerate(out):
                c = sum((row[l] * x for l, x in vec.items()), ZERO)
                if c:
                    new[(a, b, k)] = c
        return new

    return replace(
        h,
        **{name: moved(getattr(h, name), kinds) for name, kinds in TENSOR_KINDS.items()},
        psi=fraction_product(P_inv, fraction_product(h.psi, P)),
        phi=fraction_product(Q_inv, fraction_product(h.phi, Q)),
        declared_H=None if h.declared_H is None else tuple(mat_vec(P_inv, row) for row in h.declared_H),
    )


def seeded_transport(h, seed):
    """h rewritten in bases of L and of A drawn by random_basis, seeded by
    seed: every tensor comes out dense."""
    rng = Random(seed)
    return transport(h, random_basis(rng, h.dimL), random_basis(rng, h.dimA))


# -- the parts of a subspace ---------------------------------------------------


def intersection_parts(rd, space):
    """space meet H in coordinates on the RREF basis of H, then space meet
    L_g in coordinates on the RREF basis of L_g for each root g in gamma
    order."""
    pieces = [rd.H] + [rd.space(g) for g in rd.gamma]
    return [Subspace(p.dim, [p.coords(v) for v in space.intersect(p).basis]) for p in pieces]


# -- opposite products per caller ---------------------------------------------


def build_root_ideal(h, rd, wd, cls):
    """Ideal attached to one root class: opposite products inside H plus
    the root spaces of the class."""
    inner = root_inner_sum(h, rd, wd, cls)
    return ClassIdeal(tuple(cls), span(h.dimL, [inner] + [rd.space(xi) for xi in cls]))


def build_weight_ideal(h, rd, wd, cls):
    """Ideal of A attached to one weight class: anchor images and opposite
    products inside the zero weight space, plus the weight spaces."""
    inner = weight_inner_sum(h, rd, wd, cls, rd.root_spaces)
    return ClassIdeal(tuple(cls), span(h.dimA, [inner] + [wd.space(beta) for beta in cls]))


def root_inner_sum(h, rd, wd, roots):
    """Sum of opposite-weight actions and opposite-root brackets over the
    given (nonzero) roots; the candidate generator of H."""
    parts = []
    for g in roots:
        neg = vec_neg(g)
        parts.append(h.act_space(wd.space(neg), rd.space(g)))
        parts.append(h.bracket_space(rd.space(neg), rd.space(g)))
    return span(h.dimL, parts)


def weight_inner_sum(h, rd, wd, weights, anchor_roots):
    """Sum of anchor images and opposite-weight products over the given
    (nonzero) weights; the candidate generator of the zero weight space.
    The anchor image at a weight counts only when its negative is in
    anchor_roots; passing every root counts them all."""
    parts = []
    for a in weights:
        neg = vec_neg(a)
        if neg in anchor_roots:
            parts.append(h.anchor_space(rd.space(neg), wd.space(a)))
        parts.append(h.mul_space(wd.space(neg), wd.space(a)))
    return span(h.dimA, parts)


def theorem_5_12_run(h, rd, wd, js, seed):
    """(branch, ok, detail, I') of the two-ideal split for one seed ideal
    inside J, with the complement I' added up one root at a time."""
    if seed.is_zero:
        return "degenerate", True, "zero seed: the whole of J serves as the complement", js.J
    gamma_ji = tuple(g for g, part in zip(rd.gamma, intersection_parts(rd, seed)[1:]) if not part.is_zero)
    ji_set = set(gamma_ji)
    if any(vec_neg(g) in ji_set for g in gamma_ji):
        good = seed == js.J
        detail = "a root and its negative both support the seed; expected I=J"
        return "equal_J", good, detail + ("" if good else f"; got dim {seed.dim} versus dim {js.J.dim}"), None
    neg_ji = {vec_neg(g) for g in gamma_ji}
    if set(js.gamma_J) != ji_set | neg_ji or ji_set & neg_ji:
        return "complement", False, "the J-roots do not split disjointly into seed roots and their negatives", None
    lam_set = set(wd.lam)
    iprime = Subspace.zero(h.dimL)
    for g in gamma_ji:
        neg = vec_neg(g)
        if g in lam_set:
            iprime = iprime.add(h.act_space(wd.space(g), rd.space(neg)))
        iprime = iprime.add(rd.space(neg))
    ok_ideal, failed = fraction_is_ideal(h, iprime)
    direct = seed.intersect(iprime).is_zero
    total = seed.add(iprime)
    bits = []
    if not ok_ideal:
        bits.append(f"complement fails ideal rules: {', '.join(failed)}")
    if not direct:
        bits.append("seed and complement overlap")
    if total != js.J:
        bits.append(f"seed and complement span dim {total.dim} of {js.J.dim}")
    detail = "; ".join(bits) if bits else f"J = I + I' with dims {seed.dim}+{iprime.dim}={js.J.dim}"
    return "complement", ok_ideal and direct and total == js.J, detail, iprime


# -- the H-part window in L ----------------------------------------------------


def rule_images_on_h(h, rd):
    """images[m][i]: rule map m applied to basis vector i of H, for each
    rule map that does not vanish on H."""
    per_basis = [[v for _, images in fraction_rules(h) for v in images(b)] for b in rd.H.basis]
    return [imgs for imgs in zip(*per_basis) if any(map(any, imgs))]


def h_part_window(rd, f_space, images):
    """Greatest subspace W of H whose rule images stay inside W + F, as a
    subspace of L, shrunk iteratively from H.

    images is as from rule_images_on_h.  W is tracked in H-coordinates:
    each step keeps the coordinate vectors of W whose combined images all
    lie in W + F, a preimage in the ambient space of L.
    """
    d = rd.H.dim
    w = Subspace.full(d)
    cols = [tuple(x for imgs in images for x in imgs[i]) for i in range(d)]
    while True:
        shrunk = w.intersect(_from_h_coords(rd, w).add(f_space).preimage(cols))
        if shrunk == w:
            return _from_h_coords(rd, w)
        w = shrunk


def window_enumeration(h, rd):
    """(ideals, complete) as `enumerate_ideals` finds them, with every
    window from h_part_window: the closure and the top of each root subset
    whose single-root closures meet no root space outside it."""
    n, gamma = h.dimL, rd.gamma
    images = rule_images_on_h(h, rd)
    closures = [ideal_closure(h, rd.space(g)).space for g in gamma]
    complete = all(rd.root_spaces[g].dim == 1 for g in gamma)
    found = set()
    for mask in range(2 ** len(gamma)):
        members = [i for i in range(len(gamma)) if mask >> i & 1]
        closure = Subspace(n, [b for i in members for b in closures[i].basis])
        if all(mask >> i & 1 or closure.intersect(rd.space(g)).is_zero for i, g in enumerate(gamma)):
            f_space = Subspace(n, [b for i in members for b in rd.space(gamma[i]).basis])
            top = h_part_window(rd, f_space, images).add(f_space)
            complete = complete and top.dim <= closure.dim + 1
            found.update((closure, top))
    return sorted(found, key=lambda s: (s.dim, s.basis)), complete


# -- identity checks by basis-tuple scan ---------------------------------------


def first_violation_scan(kinds, labels, basis, lhs, rhs):
    """Scan the basis tuples of the given kinds in index order; the first
    where lhs and rhs differ as a detail string, or None if none does."""
    for args in product(*(tuple(zip(labels[k], basis[k])) for k in kinds)):
        vecs = [v for _, v in args]
        left, right = lhs(*vecs), rhs(*vecs)
        if left != right:
            names = [name for name, _ in args]
            at = f"({','.join(names)}{',' if len(names) == 1 else ''})"
            return f"at {at}: lhs={format_vector(left)} rhs={format_vector(right)}"
    return None


class BasisVector(tuple):
    """Basis vector i of Q^n, carrying its index so that a twist reads its
    image off a column of the matrix instead of multiplying."""

    def __new__(cls, n, i):
        self = super().__new__(cls, basis_vector(n, i))
        self.index = i
        return self


def twist_columns(m):
    """v -> m v, with the image of a basis vector read off its column."""
    columns = mat_columns(m)
    return lambda v: columns[v.index] if type(v) is BasisVector else mat_vec(m, v)


def scan_violations(h, rows):
    """(key, first violation or None) for each identity row, on the basis of h."""
    labels = {"L": h.L_labels, "A": h.A_labels}
    basis = {kind: [BasisVector(n, i) for i in range(n)] for kind, n in (("L", h.dimL), ("A", h.dimA))}
    return [(key, first_violation_scan(kinds, labels, basis, lhs, rhs)) for key, kinds, lhs, rhs in rows]


def scan_identities(h):
    """(key, first violation or None) for each defining identity of h, in
    the order of the validation report."""
    br, mul, act, anc = vector_maps(h)
    psi, phi = twist_columns(h.psi), twist_columns(h.phi)
    rows = (
        ("A.commutative", "AA", lambda a, b: mul(a, b), lambda a, b: mul(b, a)),
        ("A.associative", "AAA", lambda a, b, c: mul(mul(a, b), c), lambda a, b, c: mul(a, mul(b, c))),
        ("A.phi_endomorphism", "AA", lambda a, b: phi(mul(a, b)), lambda a, b: mul(phi(a), phi(b))),
        (
            "L.hom_leibniz", "LLL", lambda x, y, z: br(psi(x), br(y, z)),
            lambda x, y, z: vec_add(br(br(x, y), psi(z)), br(psi(y), br(x, z))),
        ),
        ("L.psi_multiplicative", "LL", lambda x, y: psi(br(x, y)), lambda x, y: br(psi(x), psi(y))),
        ("module.associative", "AAL", lambda a, b, x: act(mul(a, b), x), lambda a, b, x: act(a, act(b, x))),
        ("compat.psi_action", "AL", lambda a, x: psi(act(a, x)), lambda a, x: act(phi(a), psi(x))),
        (
            "anchor.derivation", "LAA", lambda x, a, b: anc(x, mul(a, b)),
            lambda x, a, b: vec_add(mul(phi(a), anc(x, b)), mul(phi(b), anc(x, a))),
        ),
        ("anchor.action_compat", "ALA", lambda a, x, b: anc(act(a, x), b), lambda a, x, b: mul(phi(a), anc(x, b))),
        (
            "compat.leibniz_action", "LAL", lambda x, a, y: br(x, act(a, y)),
            lambda x, a, y: vec_add(act(phi(a), br(x, y)), act(anc(x, a), psi(y))),
        ),
        ("rep.psi_phi", "LA", lambda x, a: anc(psi(x), phi(a)), lambda x, a: phi(anc(x, a))),
        (
            "rep.bracket", "LLA", lambda x, y, a: anc(br(x, y), phi(a)),
            lambda x, y, a: vec_add(anc(psi(x), anc(y, a)), vec_neg(anc(psi(y), anc(x, a)))),
        ),
    )
    return scan_violations(h, rows)


def scan_morphism(g, f, src, dst):
    """(key, first violation or None) for each condition on the morphism
    pair g: A_src -> A_dst, f: L_src -> L_dst, given as matrices."""
    g = partial(mat_vec, tuple(tuple(Fraction(c) for c in row) for row in g))
    f = partial(mat_vec, tuple(tuple(Fraction(c) for c in row) for row in f))
    s_br, s_mul, s_act, s_anc = vector_maps(src)
    d_br, d_mul, d_act, d_anc = vector_maps(dst)
    s_psi, s_phi, d_psi, d_phi = (partial(mat_vec, m) for m in (src.psi, src.phi, dst.psi, dst.phi))
    rows = (
        ("morphism.g_hom", "AA", lambda a, b: g(s_mul(a, b)), lambda a, b: d_mul(g(a), g(b))),
        ("morphism.1", "AL", lambda a, x: f(s_act(a, x)), lambda a, x: d_act(g(a), f(x))),
        ("morphism.2", "LL", lambda x, y: f(s_br(x, y)), lambda x, y: d_br(f(x), f(y))),
        ("morphism.3", "L", lambda x: f(s_psi(x)), lambda x: d_psi(f(x))),
        ("morphism.4", "A", lambda a: g(s_phi(a)), lambda a: d_phi(g(a))),
        ("morphism.5", "LA", lambda x, a: g(s_anc(x, a)), lambda x, a: d_anc(f(x), g(a))),
    )
    return scan_violations(src, rows)


# -- inputs --------------------------------------------------------------------


def swapped_line():
    """[h,e] = e and [h,f] = -f over the rational line, twisted by the
    identity on A and psi: h -> -h, e -> f, f -> -e.  psi is -1 on H, so
    composing with it swaps the roots 1 and -1: each psi_orbit has length 2."""
    h = fixtures._over_line(("h", "e", "f"), {(0, 1, 1): 1, (1, 0, 1): -1, (0, 2, 2): -1, (2, 0, 2): 1}, ((1, 0, 0),))
    psi = tuple(tuple(map(Fraction, row)) for row in ((-1, 0, 0), (0, 0, -1), (0, 1, 0)))
    return twist_by_endomorphism(h, identity_matrix(1), psi)
