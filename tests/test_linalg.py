"""Exact linear algebra: canonical bases, kernels, eigen-splitting."""

import random
import signal
import time
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from hlra import fixtures, linalg
from hlra.linalg import (
    Subspace,
    charpoly,
    complement,
    eigenvalues,
    identity_matrix,
    is_zero_vector,
    joint_eigenspaces,
    kernel,
    mat_columns,
    mat_from_columns,
    mat_inverse,
    mat_mul,
    mat_vec,
    rational_roots,
    rref,
    solve,
    span,
    stack_rows,
    vec_add,
)
from hlra.model import operators, twist_by_endomorphism
from oracles import (
    faddeev_leverrier,
    fraction_coords,
    fraction_determinant,
    fraction_intersect,
    fraction_inverse,
    fraction_kernel,
    fraction_preimage,
    fraction_reduce,
    fraction_rref,
    fraction_solve,
    random_basis,
)

F = Fraction

small_frac = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


def matrices(rows, cols):
    return st.lists(
        st.lists(small_frac, min_size=cols, max_size=cols).map(tuple),
        min_size=rows,
        max_size=rows,
    ).map(tuple)


# -- frozen examples --------------------------------------------------------


def test_kernel_rank_one():
    k = kernel(((1, 1), (1, 1)))
    assert k.dim == 1
    assert k.basis == ((F(1), F(-1)),)


def test_kernel_empty_matrix_needs_ncols():
    with pytest.raises(ValueError):
        kernel(())
    assert kernel((), ncols=3) == Subspace.full(3)


def test_complement_picks_leading_rows():
    inner = Subspace(3, ((1, 1, 0),))
    comp = complement(inner, Subspace.full(3))
    assert comp.basis == ((F(1), F(0), F(0)), (F(0), F(0), F(1)))
    assert inner.add(comp) == Subspace.full(3)


def test_complement_requires_containment():
    with pytest.raises(ValueError):
        complement(Subspace(2, ((1, 0),)), Subspace(2, ((0, 1),)))


def test_mat_inverse_cases():
    assert mat_inverse(()) == ()
    assert mat_inverse(((1, 1), (0, 1))) == ((F(1), F(-1)), (F(0), F(1)))
    assert mat_inverse(((1, 1), (1, 1))) is None


def test_charpoly_diagonal():
    # det(tI - diag(2,3)) = t^2 - 5t + 6, coefficients low degree first
    assert charpoly(((2, 0), (0, 3))) == (F(6), F(-5), F(1))


def test_rational_roots_with_fractions():
    assert rational_roots((0, -1, 2)) == [F(0), F(1, 2)]
    assert rational_roots((6, -5, 1)) == [F(2), F(3)]
    with pytest.raises(ValueError):
        rational_roots((0, 0))


def test_eigenvalues_nilpotent():
    assert eigenvalues(((0, 1), (0, 0))) == [F(0)]


def test_joint_eigenspaces_nilpotent_remainder():
    classes, rem = joint_eigenspaces([((0, 1), (0, 0))], Subspace.full(2))
    assert len(classes) == 1
    tup, sub = classes[0]
    assert tup == (F(0),)
    assert sub.basis == ((F(1), F(0)),)
    assert rem.basis == ((F(0), F(1)),)


def test_joint_eigenspaces_no_ops():
    classes, rem = joint_eigenspaces([], Subspace.full(2))
    assert classes == [((), Subspace.full(2))]
    assert rem.is_zero


def test_mat_from_columns_round_trip():
    m = ((1, 2), (3, 4), (5, 6))
    assert mat_from_columns(mat_columns(m)) == tuple(
        tuple(F(x) for x in row) for row in m
    )
    assert mat_from_columns([], nrows=2) == ((), ())


def test_stack_rows():
    assert stack_rows(((1, 2),), ((3, 4),)) == ((1, 2), (3, 4))


# -- properties -------------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(matrices(3, 4))
def test_rref_idempotent(m):
    once, pivots = rref(m)
    assert rref(once) == (once, pivots)


@settings(deadline=None, max_examples=60)
@given(matrices(3, 4))
def test_rref_leading_entries(m):
    rows, pivots = rref(m)
    assert len(rows) == len(pivots)
    lead = -1
    for row, piv in zip(rows, pivots):
        nz = [j for j, x in enumerate(row) if x]
        assert nz, "rref never keeps zero rows"
        assert nz[0] == piv
        assert row[piv] == 1
        assert piv > lead
        lead = piv
        # pivot columns are cleared elsewhere
        assert all(other is row or other[piv] == 0 for other in rows)


@settings(deadline=None, max_examples=60)
@given(matrices(3, 4))
def test_kernel_rank_duality(m):
    assert kernel(m, ncols=4).dim + len(rref(m)[0]) == 4
    for v in kernel(m, ncols=4).basis:
        assert all(x == 0 for x in mat_vec(m, v))


@settings(deadline=None, max_examples=60)
@given(matrices(2, 4), matrices(2, 4))
def test_dim_formula(rows_u, rows_v):
    u = Subspace(4, rows_u)
    v = Subspace(4, rows_v)
    assert u.add(v).dim + u.intersect(v).dim == u.dim + v.dim


def coords_by_residual(space, v):
    """Reference coordinates: subtract the pivot entries times the basis
    rows and require a zero residual."""
    c = tuple(v[p] for p in space.pivots)
    residual = v
    for coef, row in zip(c, space.basis):
        if coef:
            residual = tuple(r - coef * x for r, x in zip(residual, row))
    return c if is_zero_vector(residual) else None


@settings(deadline=None, max_examples=60)
@given(matrices(3, 4), matrices(1, 3), matrices(1, 4), st.booleans())
def test_coords_match_the_residual_reference(rows, weights, offset, inside):
    space = Subspace(4, rows)
    v = tuple(sum((w * r[j] for w, r in zip(weights[0], rows)), F(0)) for j in range(4))
    if not inside:
        v = vec_add(v, offset[0])
    assert space.coords(v) == coords_by_residual(space, v)
    if inside:
        c = space.coords(v)
        assert c is not None
        assert tuple(sum((x * b[j] for x, b in zip(c, space.basis)), F(0)) for j in range(4)) == v


@settings(deadline=None, max_examples=60)
@given(matrices(2, 4))
def test_complement_is_complement(rows):
    outer = Subspace.full(4)
    inner = Subspace(4, rows)
    comp = complement(inner, outer)
    assert inner.add(comp) == outer
    assert inner.intersect(comp).is_zero


@settings(deadline=None, max_examples=40)
@given(
    st.lists(st.sampled_from([F(-1), F(0), F(1), F(2)]), min_size=3, max_size=3),
    st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3).map(tuple), min_size=3, max_size=3).map(tuple),
)
def test_joint_eigenspaces_of_conjugated_diagonal(diag, p):
    if mat_inverse(p) is None:
        return
    d = tuple(
        tuple(diag[i] if i == j else F(0) for j in range(3)) for i in range(3)
    )
    m = mat_mul(mat_mul(p, d), mat_inverse(p))
    classes, rem = joint_eigenspaces([m], Subspace.full(3))
    assert rem.is_zero
    assert sum(sub.dim for _, sub in classes) == 3
    found = sorted(tup[0] for tup, sub in classes for _ in range(sub.dim))
    assert found == sorted(diag)


@settings(deadline=None, max_examples=60)
@given(matrices(3, 3))
def test_charpoly_constant_term_vs_kernel(m):
    coeffs = charpoly(m)
    # constant term is (-1)^n det(M): zero exactly when M is singular
    assert (coeffs[0] == 0) == (kernel(m).dim > 0)


def test_subspace_equality_and_hash():
    a = Subspace(2, ((1, 1), (0, 1)))
    b = Subspace.full(2)
    assert a == b
    assert hash(a) == hash(b)
    assert a != Subspace(2, ((1, 1),))


def test_joint_eigenspaces_takes_each_eigenspace_once(monkeypatch):
    # one kernel of op - lam I per (op, lam), shared by every class; each
    # such kernel is the preimage of the zero space under its columns, and
    # it is the only such preimage joint_eigenspaces makes
    shifts = []
    orig = Subspace.preimage

    def counted(self, columns):
        if self.is_zero:
            shifts.append(1)
        return orig(self, columns)

    monkeypatch.setattr(Subspace, "preimage", counted)
    d1 = tuple(tuple(F(c) if i == j else F(0) for j in range(4)) for i, c in enumerate((1, 1, 2, 2)))
    d2 = tuple(tuple(F(c) if i == j else F(0) for j in range(4)) for i, c in enumerate((1, 2, 1, 2)))
    classes, rem = joint_eigenspaces([d1, d2], Subspace.full(4))
    assert [tup for tup, _ in classes] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert rem.is_zero
    assert len(shifts) == 4


def test_no_fraction_basis_is_built_until_it_is_read(monkeypatch):
    """A Subspace stores its integer rows only; basis derives the Fraction
    rows from them on each read, one per dimension."""
    built = []
    orig = linalg._fractions
    monkeypatch.setattr(linalg, "_fractions", lambda row, c: built.append(c) or orig(row, c))
    a = Subspace(4, [(1, 2, 0, F(1, 3)), (0, F(-5, 2), 1, 0)])
    b = Subspace(4, [(1, 0, 0, 1), (0, 0, 1, 1), (0, 1, 0, 0)])
    spaces = [
        a,
        b,
        Subspace.full(3),
        Subspace.zero(4),
        a.add(b),
        a.intersect(b),
        b.preimage([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)]),
        span(4, [a, b]),
    ]
    assert built == []
    assert [s.dim for s in spaces] == [2, 3, 3, 0, 4, 1, 2, 4]
    for s in spaces:
        built.clear()
        assert s.basis == fraction_rref(s.rows)[0]
        assert len(built) == s.dim


# -- integer-row elimination against the Fraction oracle ----------------------

# zeros, plain ints, small fractions, and fractions with numerators and
# denominators up to 10**12, mixed within one matrix
entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**12)),
)


@st.composite
def rational_matrices(draw, rows=None, cols=None):
    """(matrix, column count): up to 6x6, 0xn and nx0 included, with zero
    rows and duplicate rows mixed in."""
    nrows = draw(st.integers(0, 6)) if rows is None else rows
    ncols = draw(st.integers(0, 6)) if cols is None else cols
    m = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols).map(tuple), min_size=nrows, max_size=nrows))
    if rows is None:
        for extra in draw(st.lists(st.sampled_from(["zero", "duplicate"]), max_size=2)):
            row = (0,) * ncols if extra == "zero" or not m else m[draw(st.integers(0, len(m) - 1))]
            m.insert(draw(st.integers(0, len(m))), row)
    return tuple(m), ncols


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 8).flatmap(lambda n: rational_matrices(rows=n, cols=n)))
def test_charpoly_matches_faddeev_leverrier_on_whole_matrices(case):
    m, _ = case
    got = charpoly(m)
    assert got == faddeev_leverrier(m)
    assert all(type(c) is Fraction for c in got)


# -- charpoly modulo primes ----------------------------------------------------

# denominators mixed within one matrix, from 1 to 12 digits
DENOMINATORS = (1, 2, 3, 7, 12, 10**6 + 3, 999_999_999_989)


def modular_charpoly_cases():
    """(kind, n, matrix) for sparse, diagonal and ad-h-like matrices up to
    12 x 12.  An ad-h-like matrix is P (D + N) P^-1 for a diagonal D and a
    strictly upper triangular N, with P of 1-digit integers, the shape of
    ad h on a split input written in a dense basis."""
    rng = random.Random(25)

    def mixed():
        return F(rng.randint(-20, 20), rng.choice(DENOMINATORS))

    for n in range(13):
        yield "sparse", n, tuple(tuple(mixed() if rng.random() < 0.25 else 0 for _ in range(n)) for _ in range(n))
        yield "diagonal", n, tuple(tuple(mixed() if i == j else 0 for j in range(n)) for i in range(n))
        p = random_basis(rng, n)
        jordan = tuple(
            tuple(mixed() if i == j else rng.randint(-1, 1) if j > i else 0 for j in range(n)) for i in range(n)
        )
        yield "ad-h-like", n, mat_mul(mat_mul(p, jordan), fraction_inverse(p))


@pytest.mark.parametrize("kind,n,m", [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in modular_charpoly_cases()])
def test_modular_charpoly_matches_faddeev_leverrier(kind, n, m):
    got = charpoly(m)
    assert got == faddeev_leverrier(m)
    assert len(got) == n + 1 and all(type(c) is Fraction for c in got)


def primes_used(monkeypatch):
    """Record the prime of each modular image that charpoly computes."""
    used = []
    mod = linalg._charpoly_mod
    monkeypatch.setattr(linalg, "_charpoly_mod", lambda a, p: used.append(p) or mod(a, p))
    return used


def test_a_prime_dividing_a_denominator_is_skipped(monkeypatch):
    m = ((F(1, 2**61 - 1), 1, 0), (2, F(-3, 4), 5), (0, 1, 7))
    used = primes_used(monkeypatch)
    assert charpoly(m) == faddeev_leverrier(m)
    assert used and 2**61 - 1 not in used
    assert used[0] == linalg._prime(1)


def test_a_large_bound_takes_several_primes(monkeypatch):
    """Entries of 40 digits bound the coefficients near 10^121, past the
    product of any two 61-bit primes."""
    big = 10**40
    m = ((big + 1, -3 * big, 7), (F(big, 3), 2, -big + 9), (5, big - 1, F(-big, 7)))
    used = primes_used(monkeypatch)
    assert charpoly(m) == faddeev_leverrier(m)
    assert len(used) >= 3
    assert used == [linalg._prime(k) for k in range(len(used))]


def test_dense_charpoly_of_twelve_digit_fractions_is_fast():
    """Faddeev-LeVerrier took about 10 s on this matrix on a 2-vCPU Xeon VM,
    the modular charpoly 0.3 to 0.5 s."""
    rng = random.Random(16)
    m = tuple(
        tuple(F(rng.randint(-(10**12), 10**12), rng.randint(10**11, 10**12)) for _ in range(16)) for _ in range(16)
    )
    start = time.perf_counter()
    coeffs = charpoly(m)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, elapsed
    assert coeffs[16] == 1
    assert -coeffs[15] == sum(m[i][i] for i in range(16))
    assert coeffs[0] == fraction_determinant(m)


def test_the_primes_are_the_largest_below_2_61():
    """The first primes below 2^61 (checked independently of this code),
    and the primality test against trial division and on strong
    pseudoprimes to several of its bases."""
    assert [2**61 - linalg._prime(k) for k in range(6)] == [1, 31, 45, 229, 259, 283]
    assert [n for n in range(3000) if linalg._is_prime(n)] == [
        n for n in range(3000) if n > 1 and all(n % d for d in range(2, n))
    ]
    for n in (561, 41041, 3215031751, 2152302898747, 3474749660383, 341550071728321, 3825123056546413051):
        assert not linalg._is_prime(n), n
    assert linalg._is_prime(2**61 - 1) and not linalg._is_prime((2**31 - 1) * 65537)


@settings(deadline=None, max_examples=200)
@given(rational_matrices())
def test_rref_matches_the_fraction_oracle(case):
    m, _ = case
    got = rref(m)
    assert got == fraction_rref(m)
    assert all_fractions(got[0])


@settings(deadline=None, max_examples=150)
@given(rational_matrices())
def test_subspace_and_kernel_match_the_fraction_oracle(case):
    m, n = case
    space = Subspace(n, m)
    assert (space.basis, space.pivots) == fraction_rref(m)
    null = kernel(m, ncols=n)
    assert (null.basis, null.pivots) == fraction_kernel(m, n)
    assert all_fractions(space.basis) and all_fractions(null.basis)


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(rational_matrices(cols=n), rational_matrices(cols=n))))
def test_intersect_matches_the_fraction_oracle(pair):
    (a, n), (b, _) = pair
    inter = Subspace(n, a).intersect(Subspace(n, b))
    assert (inter.basis, inter.pivots) == fraction_intersect(a, b, n)
    assert all_fractions(inter.basis)


@settings(deadline=None, max_examples=100)
@given(
    st.tuples(st.integers(1, 4), st.integers(1, 3)).flatmap(
        lambda nb: st.tuples(rational_matrices(cols=nb[0]), rational_matrices(cols=nb[0] * nb[1]))
    )
)
def test_preimage_matches_the_fraction_oracle(pair):
    # columns of one to three blocks, each block to land in the space
    (m, n), (columns, _) = pair
    pre = Subspace(n, m).preimage(columns)
    assert (pre.basis, pre.pivots) == fraction_preimage(m, columns, n)
    assert all_fractions(pre.basis)


@settings(deadline=None, max_examples=150)
@given(
    st.integers(0, 6).flatmap(lambda n: st.tuples(rational_matrices(cols=n), rational_matrices(rows=1, cols=n))),
    st.lists(entries, min_size=6, max_size=6),
)
def test_contains_and_coords_match_the_fraction_oracle(pair, weights):
    # v is drawn outside the span, or as a combination of its rows
    (m, n), (outside, _) = pair
    space = Subspace(n, m)
    basis, pivots = fraction_rref(m)
    inside = tuple(sum((w * row[j] for w, row in zip(weights, m)), Fraction(0)) for j in range(n))
    for v in outside + (inside,):
        assert space.contains(v) == (not any(fraction_reduce(basis, pivots, v)))
        assert space.coords(v) == fraction_coords(basis, pivots, v)
        assert all_fractions([space.coords(v) or ()])
    assert space.contains(inside)


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(rational_matrices(rows=n, cols=n), st.lists(entries, min_size=n, max_size=n))))
def test_solve_and_inverse_match_the_fraction_oracle(case):
    (m, _), rhs = case
    x = solve(m, rhs)
    assert x == fraction_solve(m, rhs)
    inv = mat_inverse(m)
    assert inv == fraction_inverse(m)
    assert all_fractions([x or ()]) and all_fractions(inv or ())


class Timeout(Exception):
    pass


def within(seconds, fn, *args):
    """fn(*args), raising Timeout once `seconds` of wall time have passed, so
    a runaway computation fails instead of hanging the suite."""

    def expire(signum, frame):
        raise Timeout(f"{fn.__name__} took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_dense_rational_rref_keeps_its_integers_small():
    # 24x24, numerators and denominators of 12 digits, four duplicate rows:
    # rank 20, so the RREF has four dense free columns.  Clearing the row
    # denominators gives entries of about 290 digits; dividing each row by
    # its content keeps them near the size of the minors (about 7,000
    # digits at the end), while plain cross-multiplication doubles them at
    # every step and never finishes.
    rng = random.Random(24)
    rows = [tuple(Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**12)) for _ in range(24)) for _ in range(20)]
    m = rows + [rows[i] for i in (3, 7, 11, 19)]
    rng.shuffle(m)
    got = within(5, rref, m)
    assert len(got[0]) == 20
    assert got == fraction_rref(m)


# -- rational roots against the divisor method ---------------------------------


def _divisors(n):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return out


def divisor_rational_roots(coeffs):
    """Oracle: try every p/q with p | a0 and q | a_n on the primitive integer
    polynomial.  Exponential in the bit size of the coefficients, so only
    for small ones."""
    coeffs = [F(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    roots = set()
    while coeffs and coeffs[0] == 0:
        roots.add(F(0))
        coeffs.pop(0)
    if len(coeffs) <= 1:
        return sorted(roots)
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    content = gcd(*ints)
    ints = [c // content for c in ints]
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            for cand in (F(p, q), F(-p, q)):
                if sum(c * cand**i for i, c in enumerate(coeffs)) == 0:
                    roots.add(cand)
    return sorted(roots)


def poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_from_factors(factors, scale=1):
    """scale times the product of the factors, coefficients low degree first."""
    out = [F(scale)]
    for fac in factors:
        out = poly_mul(out, [F(c) for c in fac])
    return tuple(out)


def _no_rational_root(abc):
    a, b, c = abc
    disc = b * b - 4 * a * c
    return disc < 0 or round(disc**0.5) ** 2 != disc


# a x^2 + b x + c with no rational root, as (c, b, a)
irreducible_quadratics = (
    st.tuples(st.integers(1, 3), st.integers(-5, 5), st.integers(-9, 9))
    .filter(_no_rational_root)
    .map(lambda abc: (abc[2], abc[1], abc[0]))
)


@st.composite
def split_polynomials(draw):
    """(coefficients, rational roots): linear factors q x - p with small p
    and q, some repeated, times irreducible quadratics and a power of x,
    scaled by a fraction."""
    roots = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 4)), max_size=4))
    factors = []
    for p, q in roots:
        factors += [(-p, q)] * draw(st.integers(1, 2))
    if roots and draw(st.booleans()):
        p, q = roots[0]
        factors += [(-p, q)] * 2  # multiplicity up to 4
    factors += draw(st.lists(irreducible_quadratics, max_size=2))
    zeros = draw(st.integers(0, 2))
    factors += [(0, 1)] * zeros
    scale = draw(st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool))
    expected = {F(p, q) for p, q in roots} | ({F(0)} if zeros else set())
    return poly_from_factors(factors, scale), sorted(expected)


@settings(deadline=None, max_examples=150)
@given(split_polynomials())
def test_rational_roots_match_the_divisor_method(case):
    coeffs, expected = case
    assert rational_roots(coeffs) == divisor_rational_roots(coeffs) == expected


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10**6), st.booleans())
def test_eigenvalues_match_the_divisor_method_on_random_instances(seed, twisted):
    h, g, f = fixtures.random_instance(seed)
    if twisted:
        h = twist_by_endomorphism(h, g, f)
    ops = [h.psi, h.phi]
    ops += operators(h.maps.bracket, h.full_L, h.full_L)
    ops += operators(h.maps.anchor, h.full_L, h.full_A)
    for op in ops:
        if op:
            assert eigenvalues(op) == divisor_rational_roots(charpoly(op))


# -- rational roots on inputs the divisor method cannot finish -----------------

P30 = 10**30 + 57  # prime
P12 = 10**12 + 39  # prime


def triangular(diag):
    """Upper triangular matrix with the given diagonal and ones above it."""
    n = len(diag)
    return tuple(
        tuple(F(diag[i]) if i == j else F(1 if j > i else 0) for j in range(n)) for i in range(n)
    )


def within_a_second(fn, arg):
    start = time.perf_counter()
    out = fn(arg)
    assert time.perf_counter() - start < 1.0
    return out


def test_prime_eigenvalue_near_1e30():
    assert within_a_second(eigenvalues, triangular((P30, -P30, 1))) == [-P30, 1, P30]


def test_twelve_distinct_large_eigenvalues():
    diag = [(-1) ** k * k * P12 for k in range(1, 13)]
    assert within_a_second(eigenvalues, triangular(diag)) == sorted(diag)


def test_denominators_near_1e12():
    coeffs = poly_from_factors([(-1, P12), (7, P12 - 40), (-(10**9 + 7), P12 + 2)], F(3, 5))
    assert within_a_second(rational_roots, coeffs) == sorted(
        [F(1, P12), F(-7, P12 - 40), F(10**9 + 7, P12 + 2)]
    )


def test_root_of_multiplicity_four():
    coeffs = poly_from_factors([(-5, 3)] * 4 + [(P30, 1), (0, 1)])
    assert within_a_second(rational_roots, coeffs) == [-P30, F(0), F(5, 3)]


def test_sqrt_two_times_a_linear_factor():
    coeffs = poly_from_factors([(-2, 0, 1), (-(10**20), 7)])
    assert within_a_second(rational_roots, coeffs) == [F(10**20, 7)]
