"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction.  A matrix is a tuple of row tuples, and it
acts on column vectors: column j holds the image of the j-th basis vector,
entry m[i][j] is the coefficient of basis vector i in that image.

Subspaces are stored as the integer rows of their reduced row echelon form,
so two equal subspaces compare equal and every derived object is
reproducible; the Fraction RREF basis is derived from those rows on read.
Zero-dimensional ambients are supported throughout; the zero algebra is a
legitimate input.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm, prod

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


def mat_from_columns(cols, nrows=None):
    if not cols:
        return tuple(() for _ in range(nrows)) if nrows else ()
    nrows = len(cols[0])
    return tuple(tuple(col[i] for col in cols) for i in range(nrows))


def mat_columns(m):
    if not m:
        return ()
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0])))


def stack_rows(*matrices):
    rows = []
    for m in matrices:
        rows.extend(m)
    return tuple(rows)


def _primitive(row):
    """The integer row spanning the same line as a rational row, with its
    denominators cleared and its content divided out; None for a zero row."""
    den = lcm(*[x.denominator for x in row])
    ints = [x.numerator * (den // x.denominator) for x in row] if den != 1 else [x.numerator for x in row]
    g = gcd(*ints)
    if not g:
        return None
    return [x // g for x in ints] if g != 1 else ints


def _eliminate(row, prow, c, at=0):
    """An integer multiple of row minus one of prow that is zero in column
    at + c, with prow read as placed at column at and padded with zeros.
    When row itself had to be scaled up, the result is divided by its
    content; otherwise it grows only by the size of one product, and the
    costly gcd of long integers is skipped."""
    g = gcd(prow[c], row[at + c])
    s, t = prow[c] // g, row[at + c] // g
    end = at + len(prow)
    new = [s * x - t * y for x, y in zip(row[at:end] if at else row, prow)]
    if at or len(row) > end:
        new = [s * x for x in row[:at]] + new + [s * x for x in row[end:]]
    if s != 1:
        g = gcd(*new)
        if g > 1:
            new = [x // g for x in new]
    return new


def _echelon(work):
    """Gauss-Jordan elimination in place on nonzero integer rows, all of one
    length.  Returns the pivot columns; the first len(pivots) rows of
    work are then nonzero only at their own pivot among the pivot columns,
    and the rest are zero.

    Fraction-free: a row is eliminated against a pivot row by
    cross-multiplication and then divided by its content, so its entries
    stay integers bounded by the minors of the input (Bareiss 1968) instead
    of doubling with every step.  Rows are cleared below each pivot first
    and above it afterwards, bottom up, so clearing above only ever uses
    rows that are already reduced.
    """
    pivots = []
    n = len(work)
    for c in range(len(work[0]) if work else 0):
        r = len(pivots)
        pr = next((i for i in range(r, n) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        for i in range(r + 1, n):
            if work[i][c]:
                work[i] = _eliminate(work[i], work[r], c)
        pivots.append(c)
        if r + 1 == n:
            break
    for r in range(len(pivots) - 1, 0, -1):
        c = pivots[r]
        for i in range(r):
            if work[i][c]:
                work[i] = _eliminate(work[i], work[r], c)
    return pivots


def _normal(row, c):
    """The primitive integer row with a positive entry in column c spanning
    the line of row."""
    g = gcd(*row) if row[c] > 0 else -gcd(*row)
    return tuple(row) if g == 1 else tuple(x // g for x in row)


def _fractions(row, c):
    """The rational row with 1 in column c spanning the line of row."""
    p = row[c]
    return tuple(Fraction(x, p) if x else ZERO for x in row)


def rref(rows):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns).

    Zero rows are dropped, pivots are 1, pivot columns are cleared above and
    below.  The result depends only on the row span, which is what makes
    Subspace canonical.  Entries may be ints or Fractions; the elimination
    runs on primitive integer rows and builds the Fraction rows once, at the
    end.
    """
    work = [w for w in map(_primitive, rows) if w is not None]
    pivots = _echelon(work)
    return tuple(_fractions(row, c) for row, c in zip(work, pivots)), tuple(pivots)


class Subspace:
    """A subspace of Q^n held through its canonical integer rows.

    rows holds the RREF basis as primitive integer rows with positive
    pivots, which are just as canonical; they are the only stored form and
    the arithmetic runs on them.  basis, the RREF basis in Fractions, is
    derived from them each time it is read.
    """

    __slots__ = ("ambient", "pivots", "rows")

    def __init__(self, ambient, vectors=()):
        work = []
        for v in vectors:
            if len(v) != ambient:
                raise ValueError(f"vector of length {len(v)} in ambient dimension {ambient}")
            w = _primitive(v)
            if w is not None:
                work.append(w)
        self._hold(ambient, work, _echelon(work))

    def _hold(self, ambient, work, pivots):
        """Hold the reduced integer rows work[:len(pivots)] with these pivots."""
        rows = tuple(_normal(w, c) for w, c in zip(work, pivots))
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "pivots", tuple(pivots))

    @classmethod
    def _reduced(cls, ambient, work, pivots):
        self = object.__new__(cls)
        self._hold(ambient, work, pivots)
        return self

    @classmethod
    def _spanned(cls, ambient, work):
        """The span of integer rows of length ambient (work is consumed)."""
        return cls._reduced(ambient, work, _echelon(work))

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero(cls, ambient):
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient):
        return cls._reduced(ambient, [[int(i == j) for j in range(ambient)] for i in range(ambient)], range(ambient))

    @property
    def basis(self):
        """The RREF basis: each row scaled to 1 at its pivot."""
        return tuple(_fractions(w, c) for w, c in zip(self.rows, self.pivots))

    @property
    def dim(self):
        return len(self.rows)

    @property
    def is_zero(self):
        return not self.rows

    def _residual(self, w, blocks=1):
        """A multiple of the integer row w with each of its first `blocks`
        blocks of ambient entries reduced along the basis; the entries past
        them are carried along."""
        for at in range(0, blocks * self.ambient, self.ambient):
            for row, c in zip(self.rows, self.pivots):
                if w[at + c]:
                    w = _eliminate(w, row, c, at)
        return w

    def contains(self, v):
        w = _primitive(v)
        return w is None or not any(self._residual(w))

    def contains_space(self, other):
        return all(not any(self._residual(w)) for w in other.rows)

    def coords(self, v):
        """Coordinates of v in the RREF basis, or None if v is outside.

        Each basis row is 1 at its own pivot and 0 at the other pivots, so
        the coordinates are just the pivot entries of v.
        """
        return tuple(frac(v[p]) for p in self.pivots) if self.contains(v) else None

    def add(self, other):
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return Subspace._spanned(self.ambient, list(self.rows + other.rows))

    def intersect(self, other):
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        if self.dim < other.dim:
            self, other = other, self
        # Zassenhaus: reduce each row (b, b) of the smaller space along the
        # rows (a, 0) of the larger one, then among themselves; the rows
        # whose left half cancels hold the intersection on their right
        return _cancelled([self._residual(b + b) for b in other.rows], self.ambient)

    def preimage(self, columns):
        """The x in Q^len(columns) with sum_i x_i columns[i] in this space, as
        a Subspace.  A column may stack several vectors of this ambient
        dimension, and then each of them must lie in this space.

        Each column i becomes the row (column i | e_i), reduced along this
        space block by block and then among the rows; a row whose left part
        cancels records such an x on its right.
        """
        k = len(columns)
        blocks = len(columns[0]) // self.ambient if columns and self.ambient else 0
        units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        return _cancelled([self._residual(_primitive(tuple(col) + e), blocks) for col, e in zip(columns, units)], k)

    def image(self, m):
        """Span of m applied to this subspace."""
        nrows = len(m)
        return Subspace(nrows, tuple(mat_vec(m, w) for w in self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(ambient={self.ambient}, dim={self.dim})"


def _cancelled(work, ambient):
    """Reduce integer rows (left | right) whose right parts have length
    ambient.  The rows whose left part cancels are reduced rows of the span
    of their right parts, which is returned as a Subspace."""
    pivots = _echelon(work)
    k = len(work[0]) - ambient if work else 0
    return Subspace._reduced(ambient, [w[k:] for w, c in zip(work, pivots) if c >= k], [c - k for c in pivots if c >= k])


def kernel(m, ncols=None):
    """Null space of a matrix as a Subspace of the column space Q^ncols:
    the combinations of its columns that land in the zero space."""
    if not m:
        if ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return Subspace.full(ncols)
    if ncols is not None and ncols != len(m[0]):
        raise ValueError("column count mismatch")
    return Subspace.zero(len(m)).preimage(list(zip(*m)))


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

    Scans outer's basis rows in index order and keeps each one that is not
    already spanned.  Requires inner to be a subspace of outer.
    """
    if not outer.contains_space(inner):
        raise ValueError("complement: inner is not contained in outer")
    chosen = []
    current = inner
    for b in outer.rows:
        if not current.contains(b):
            chosen.append(b)
            current = current.add(Subspace(outer.ambient, (b,)))
    return Subspace(outer.ambient, chosen)


def span(ambient, spaces):
    """The sum of subspaces of Q^ambient."""
    return Subspace._spanned(ambient, [w for s in spaces for w in s.rows])


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
    """Coefficients of det(tI - M), low degree first, as Fractions.

    Modular method (Cohen 1993, A Course in Computational Algebraic Number
    Theory, Alg. 2.2.9, and Chinese remaindering):
    1. scale row i by the lcm d_i of its denominators to an integer row
       N_i; then D det(tI - M) = det(tD - N), with D = prod d_i and
       tD - N = diag(d_i) (tI - M), has integer coefficients;
    2. expanding each row t d_i e_i - N_i and bounding each minor of N by
       Hadamard's inequality bounds every coefficient by
       B = 2^n prod max(d_i, |N_i|_2);
    3. modulo each 61-bit prime p dividing no d_i, in descending order from
       2^61 - 1, reduce M to Hessenberg form by similarity transforms and
       read det(tI - M) mod p off the recurrence on its leading principal
       minors, then multiply by D;
    4. combine the primes by Chinese remaindering until their product
       exceeds 2B, read each coefficient in the symmetric range and divide
       it by D.
    Each prime costs O(n^3) operations on numbers below 2^61, and the
    number of primes is linear in the bit size of B.
    """
    n = len(m)
    scales, rows = [], []
    for row in m:
        den = lcm(*[x.denominator for x in row])
        scales.append(den)
        rows.append([x.numerator * (den // x.denominator) for x in row])
    total = prod(scales)
    # isqrt(|N_i|^2) + 1 is an integer above |N_i|_2
    bound = 2**n * prod(max(d, isqrt(sum(x * x for x in row)) + 1) for d, row in zip(scales, rows))
    residues, modulus = [0] * (n + 1), 1
    k = 0
    while modulus <= 2 * bound:
        p = _prime(k)
        k += 1
        if any(d % p == 0 for d in scales):
            continue
        inverses = [pow(d, -1, p) for d in scales]
        image = _charpoly_mod([[x % p * inv % p for x in row] for row, inv in zip(rows, inverses)], p)
        # the residue mod modulus * p that is r mod modulus and total * c mod p
        t, lift = total % p, pow(modulus, -1, p)
        residues = [r + modulus * ((t * c - r % p) * lift % p) for r, c in zip(residues, image)]
        modulus *= p
    return tuple(Fraction(r - modulus if 2 * r > modulus else r, total) for r in residues)


def _charpoly_mod(a, p):
    """det(tI - A) over GF(p), low degree first, for a square matrix A of
    residues mod p given as a list of row lists (consumed).

    Columns 0 .. n-3 are cleared below the subdiagonal by similarity
    transforms: row i minus u times row m, then column m plus u times
    column i.  The characteristic polynomial p_k of the leading k x k block
    of the Hessenberg form H then satisfies p_0 = 1 and
    p_(m+1) = (t - H[m][m]) p_m
              - sum over i < m of H[i][m] H[i+1][i] ... H[m][m-1] p_i.
    """
    n = len(a)
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if a[i][m - 1]), None)
        if i is None:
            continue
        if i != m:
            a[i], a[m] = a[m], a[i]
            for row in a:
                row[i], row[m] = row[m], row[i]
        inv = pow(a[m][m - 1], -1, p)
        for i in range(m + 1, n):
            u = a[i][m - 1] * inv % p
            if u:
                a[i] = [(x - u * y) % p for x, y in zip(a[i], a[m])]
                for row in a:
                    row[m] = (row[m] + u * row[i]) % p
    polys = [[1]]
    for m in range(n):
        new = [0, *polys[m]]
        for j, c in enumerate(polys[m]):
            new[j] = (new[j] - a[m][m] * c) % p
        sub = 1
        for i in range(m - 1, -1, -1):
            sub = sub * a[i + 1][i] % p
            if not sub:
                break
            u = a[i][m] * sub % p
            if u:
                for j, c in enumerate(polys[i]):
                    new[j] = (new[j] - u * c) % p
        polys.append(new)
    return polys[n]


# Miller-Rabin bases: the first 12 primes, which decide primality exactly
# below 3.18 * 10^23 (Sorenson and Webster 2015)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the primes below 2^61 in descending order, found on first need
_PRIMES = []


def _prime(k):
    """The k-th prime below 2^61 (k = 0 is 2^61 - 1), in descending order."""
    while len(_PRIMES) <= k:
        c = _PRIMES[-1] - 2 if _PRIMES else 2**61 - 1
        while not _is_prime(c):
            c -= 2
        _PRIMES.append(c)
    return _PRIMES[k]


def _is_prime(n):
    """Deterministic primality test for n below 3.18 * 10^23: trial
    division by the witnesses, which settles n below 37^2, then
    Miller-Rabin to each witness base."""
    if n < 2:
        return False
    for w in _WITNESSES:
        if n % w == 0:
            return n == w
    if n < 37 * 37:
        return True
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for w in _WITNESSES:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
    no operators a nonzero space is one class with the empty tuple.
    """
    n = space.ambient
    classes = [((), space)] if space.rows else []
    for op in ops:
        # the kernel of op - lam: the preimage of 0 under its columns
        cols = [list(col) for col in zip(*op)]
        eigenspaces = []
        for lam in eigenvalues(op):
            for j in range(n):
                cols[j][j] = op[j][j] - lam
            eigenspaces.append((lam, Subspace.zero(n).preimage(cols)))
        # eigenvalues are sorted, so refining keeps the tuples sorted
        refined = []
        for tup, sub in classes:
            for lam, eigenspace in eigenspaces:
                k = sub.intersect(eigenspace)
                if not k.is_zero:
                    refined.append((tup + (lam,), k))
        classes = refined
    return classes, complement(span(n, [sub for _, sub in classes]), space)
