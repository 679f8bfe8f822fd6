"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction.  A matrix is a tuple of row tuples, and it
acts on column vectors: column j holds the image of the j-th basis vector,
entry m[i][j] is the coefficient of basis vector i in that image.

Subspaces are always stored through their reduced row echelon basis, so two
equal subspaces compare equal and every derived object is reproducible.
Zero-dimensional ambients are supported throughout; the zero algebra is a
legitimate input.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def zero_vector(n):
    return (ZERO,) * n


def basis_vector(n, i):
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * a for a in v)


def vec_neg(v):
    return tuple(-a for a in v)


def is_zero_vector(v):
    return all(a == 0 for a in v)


def mat_vec(m, v):
    if not m:
        return ()
    return tuple(sum((row[j] * v[j] for j in range(len(v)) if v[j]), ZERO) for row in m)


def identity_matrix(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def mat_mul(a, b):
    if not a:
        return ()
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b)) if a[i][k]), ZERO) for j in range(cols))
        for i in range(len(a))
    )


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, m):
    return tuple(tuple(c * x for x in row) for row in m)


def mat_from_columns(cols, nrows=None):
    if not cols:
        return tuple(() for _ in range(nrows)) if nrows else ()
    nrows = len(cols[0])
    return tuple(tuple(col[i] for col in cols) for i in range(nrows))


def mat_columns(m):
    if not m:
        return ()
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0])))


def mat_trace(m):
    return sum((m[i][i] for i in range(len(m))), ZERO)


def stack_rows(*matrices):
    rows = []
    for m in matrices:
        rows.extend(m)
    return tuple(rows)


def rref(rows):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns).

    Zero rows are dropped, pivots are 1, pivot columns are cleared above and
    below.  The result depends only on the row span, which is what makes
    Subspace canonical.
    """
    work = [list(r) for r in rows if not is_zero_vector(r)]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                pr = i
                break
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
    kept = tuple(tuple(row) for row in work[:r] if not is_zero_vector(row))
    return kept, tuple(pivots[: len(kept)])


class Subspace:
    """A subspace of Q^n held through its canonical RREF basis."""

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient, vectors=()):
        vectors = tuple(tuple(frac(x) for x in v) for v in vectors)
        for v in vectors:
            if len(v) != ambient:
                raise ValueError(f"vector of length {len(v)} in ambient dimension {ambient}")
        basis, pivots = rref(vectors)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero(cls, ambient):
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient):
        return cls(ambient, identity_matrix(ambient))

    @property
    def dim(self):
        return len(self.basis)

    @property
    def is_zero(self):
        return not self.basis

    def reduce(self, v):
        """Residual of v after eliminating along the basis."""
        v = list(v)
        for row, p in zip(self.basis, self.pivots):
            c = v[p]
            if c:
                for j in range(self.ambient):
                    v[j] -= c * row[j]
        return tuple(v)

    def contains(self, v):
        return is_zero_vector(self.reduce(v))

    def contains_space(self, other):
        return all(self.contains(b) for b in other.basis)

    def coords(self, v):
        """Coordinates of v in the RREF basis, or None if v is outside.

        Each basis row is 1 at its own pivot and 0 at the other pivots, so
        the coordinates are just the pivot entries of v.
        """
        return tuple(v[p] for p in self.pivots) if self.contains(v) else None

    def add(self, other):
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return Subspace(self.ambient, self.basis + other.basis)

    def intersect(self, other):
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        if self.is_zero or other.is_zero:
            return Subspace.zero(self.ambient)
        # Solve sum lam_i a_i = sum mu_j b_j; the lambda block of each kernel
        # vector of [A | -B] (columns) spans the intersection.
        cols = [tuple(v) for v in self.basis] + [vec_neg(v) for v in other.basis]
        m = mat_from_columns(cols, nrows=self.ambient)
        ker = kernel(m, ncols=len(cols))
        vecs = []
        for k in ker.basis:
            v = zero_vector(self.ambient)
            for i, b in enumerate(self.basis):
                if k[i]:
                    v = vec_add(v, vec_scale(k[i], b))
            vecs.append(v)
        return Subspace(self.ambient, vecs)

    def image(self, m):
        """Span of m applied to this subspace."""
        nrows = len(m)
        return Subspace(nrows, tuple(mat_vec(m, b) for b in self.basis))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(ambient={self.ambient}, dim={self.dim})"


def kernel(m, ncols=None):
    """Null space of a matrix as a Subspace of the column space Q^ncols."""
    if not m:
        if ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return Subspace.full(ncols)
    n = len(m[0])
    if ncols is not None and ncols != n:
        raise ValueError("column count mismatch")
    red, pivots = rref(m)
    pivset = set(pivots)
    basis = []
    for f in range(n):
        if f in pivset:
            continue
        v = [ZERO] * n
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(tuple(v))
    return Subspace(n, basis)


def solve(m, rhs):
    """One exact solution of m x = rhs, or None when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if not m:
        return None
    n = len(m[0])
    aug = tuple(tuple(row) + (b,) for row, b in zip(m, rhs))
    red, pivots = rref(aug)
    x = [ZERO] * n
    for row, p in zip(red, pivots):
        if p == n:
            return None
        x[p] = row[n]
    return tuple(x)


def mat_inverse(m):
    """Inverse matrix, or None when singular."""
    n = len(m)
    if n == 0:
        return ()
    aug = tuple(tuple(row) + ident_row for row, ident_row in zip(m, identity_matrix(n)))
    red, pivots = rref(aug)
    if pivots != tuple(range(n)):
        return None
    return tuple(row[n:] for row in red)


def complement(inner, outer):
    """Deterministic complement of inner in outer.

    Scans outer's RREF basis in index order and keeps each vector that is
    not already spanned.  Requires inner to be a subspace of outer.
    """
    if not outer.contains_space(inner):
        raise ValueError("complement: inner is not contained in outer")
    chosen = []
    current = inner
    for b in outer.basis:
        if not current.contains(b):
            chosen.append(b)
            current = current.add(Subspace(outer.ambient, (b,)))
    return Subspace(outer.ambient, chosen)


def span(ambient, spaces):
    """The sum of subspaces of Q^ambient."""
    return Subspace(ambient, [b for s in spaces for b in s.basis])


def sum_and_overlap(ambient, spaces):
    """The sum of subspaces of Q^ambient, and the index of the first one
    meeting the sum of the others (None when the sum is direct)."""
    spaces = list(spaces)
    total = span(ambient, spaces)
    if total.dim == sum(s.dim for s in spaces):
        return total, None
    for i, s in enumerate(spaces):
        if not s.intersect(span(ambient, spaces[:i] + spaces[i + 1 :])).is_zero:
            return total, i


def charpoly(m):
    """Coefficients of det(tI - M), low degree first, via Faddeev-LeVerrier."""
    n = len(m)
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    mk = identity_matrix(n)
    for k in range(1, n + 1):
        mk = mat_mul(m, mk)
        c = -mat_trace(mk) / k
        coeffs[n - k] = c
        if k < n:
            mk = mat_add(mk, mat_scale(c, identity_matrix(n)))
    return tuple(coeffs)


def _poly_eval(coeffs, x):
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _eval_mod(coeffs, x, m):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _poly_divmod(a, b):
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


def _square_free_part(f):
    """f divided by gcd(f, f'), made primitive in Z[x]."""
    a, b = f, [i * c for i, c in enumerate(f)][1:]
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    g = _poly_divmod(f, a)[0]
    den = lcm(*(c.denominator for c in g))
    ints = [c.numerator * (den // c.denominator) for c in g]
    content = gcd(*ints)
    return [c // content for c in ints]


def _is_prime(p):
    return p > 1 and all(p % d for d in range(2, isqrt(p) + 1))


def rational_roots(coeffs):
    """All rational roots of a nonzero polynomial, sorted ascending.

    Method (Loos 1983, rational zeros by p-adic expansion):
    1. strip the factor x^k and take the square-free part g of the rest, a
       primitive polynomial in Z[x] (exact Euclid over Q on f and f');
    2. take the smallest odd prime p not dividing lc(g) at which every root
       of g mod p is simple, and find those roots by search over 0..p-1;
    3. Hensel-lift each root r quadratically until the modulus M exceeds
       2 |lc(g)| B, where B = 1 + max |g_i| bounds every complex root;
    4. a root u/v in lowest terms has v | lc(g), so y = lc(g) u/v is an
       integer with |y| <= |lc(g)| B and y = lc(g) r mod M.  Read in the
       symmetric range, lc(g) r mod M gives the only candidate, and each
       candidate is checked exactly: no root is missed, none is invented.

    Cost, for degree d and coefficients of b bits: a prime fails step 2
    only if it divides lc(g) disc(g), a nonzero integer of O(d (d + b))
    bits, so at most that many primes fail and p = O~(d (d + b)); the
    search takes O(p d) operations on numbers below p, and each lift
    O(log(d + b)) evaluations on integers of O(d + b) bits.  The total is
    polynomial in the bit size of the input; the divisor search it
    replaces was exponential in it.
    """
    coeffs = [frac(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial has every root")
    roots = set()
    while coeffs and coeffs[0] == 0:
        roots.add(ZERO)
        coeffs.pop(0)
    if len(coeffs) <= 1:
        return sorted(roots)
    g = _square_free_part(coeffs)
    dg = [i * c for i, c in enumerate(g)][1:]
    lc = g[-1]
    p = 3
    while True:
        if lc % p and _is_prime(p):
            residues = [r for r in range(p) if _eval_mod(g, r, p) == 0]
            if all(_eval_mod(dg, r, p) for r in residues):
                break
        p += 2
    limit = 2 * abs(lc) * (1 + max(abs(c) for c in g))
    for r in residues:
        m = p
        while m <= limit:
            m *= m
            r = (r - _eval_mod(g, r, m) * pow(_eval_mod(dg, r, m), -1, m)) % m
        y = lc * r % m
        cand = Fraction(y - m if 2 * y > m else y, lc)
        if _poly_eval(coeffs, cand) == 0:
            roots.add(cand)
    return sorted(roots)


def eigenvalues(m):
    """Rational eigenvalues of a square matrix, sorted ascending."""
    if not m:
        return []
    return rational_roots(charpoly(m))


def joint_eigenspaces(ops, space):
    """Split `space` into common rational eigenspaces of the given operators.

    Returns (classes, remainder).  classes is a list of pairs
    (eigenvalue_tuple, Subspace) in sorted eigenvalue-tuple order; the i-th
    entry of the tuple is the eigenvalue of ops[i].  remainder is the
    deterministic complement of the sum of all classes inside `space`.  With
    no operators the whole space is one class with the empty tuple.
    """
    n = space.ambient
    classes = [((), space)]
    for op in ops:
        eigenspaces = [
            (lam, kernel(mat_sub(op, mat_scale(lam, identity_matrix(n))), ncols=n))
            for lam in eigenvalues(op)
        ]
        refined = []
        for tup, sub in classes:
            if sub.is_zero:
                continue
            for lam, eigenspace in eigenspaces:
                k = sub.intersect(eigenspace)
                if not k.is_zero:
                    refined.append((tup + (lam,), k))
        classes = refined
    classes = [(tup, sub) for tup, sub in classes if not sub.is_zero]
    classes.sort(key=lambda pair: pair[0])
    total = Subspace.zero(n)
    for _, sub in classes:
        total = total.add(sub)
    return classes, complement(total, space)
