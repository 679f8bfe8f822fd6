"""The sparse residuals of validate_hlr and check_morphism against the scan.

tests/oracles.py keeps the basis-tuple scan that evaluates both sides of
every identity, as Fraction vectors, on each tuple of basis vectors.  The
residual evaluator must report the same (key, status, detail) lines: the
same verdicts, the same first violating tuple and the same lhs and rhs
values there.  The inputs are every bundled file, random_instance seeds
plain and twisted, single-entry mutations with integer and non-integer
shifts, dense rational twists, and files rewritten in a dense basis.
Two scaling tests pin the inputs where the scan grew as n^4.
"""

import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hlra import fixtures
from hlra.model import (
    RELAXABLE_CHECKS,
    RELAXED,
    STRICT,
    HLRAlgebra,
    check_morphism,
    tensor_shapes,
    twist_by_endomorphism,
    validate_hlr,
)

from oracles import scan_identities, scan_morphism, seeded_transport

F = Fraction
SEEDS = range(12)
SHIFTS = (F(1), F(-1), F(2), F(1, 2), F(7, 3), F(-5, 4))


def _expected(scan, strictness):
    out = []
    for key, bad in scan:
        if bad is None:
            out.append((key, "pass", ""))
        else:
            relaxed = key in RELAXABLE_CHECKS and strictness == RELAXED
            out.append((key, "warn" if relaxed else "fail", bad))
    return out


def _lines(results):
    return [(r.key, r.status, r.detail) for r in results]


def _random_matrix(rng, nrows, ncols):
    entries = (0, 0, 1, -1, 2, F(1, 2), F(-7, 3))
    return tuple(tuple(F(rng.choice(entries)) for _ in range(ncols)) for _ in range(nrows))


def assert_matches_scan(h, g=None, f=None):
    """validate_hlr in both modes and check_morphism(g, f, h, h) report what
    the scan reports; g and f default to seeded random matrices."""
    scan = scan_identities(h)
    for strictness in (STRICT, RELAXED):
        got = _lines(validate_hlr(h, strictness=strictness).checks)
        assert got[: len(scan)] == _expected(scan, strictness), strictness
    if g is None:
        rng = random.Random(repr(h.bracket))
        g, f = _random_matrix(rng, h.dimA, h.dimA), _random_matrix(rng, h.dimL, h.dimL)
    assert _lines(check_morphism(g, f, h, h)) == _expected(scan_morphism(g, f, h, h), STRICT)


@pytest.mark.parametrize("name", sorted(fixtures.BUNDLED))
def test_every_bundled_file_matches_the_scan(name):
    assert_matches_scan(fixtures.BUNDLED[name]())


@pytest.mark.parametrize("seed", SEEDS)
def test_random_instances_match_the_scan_plain_and_twisted(seed):
    h, g, f = fixtures.random_instance(seed)
    assert_matches_scan(h, g, f)
    assert_matches_scan(h)
    assert_matches_scan(twist_by_endomorphism(h, g, f))


def test_morphism_between_different_algebras_matches_the_scan():
    b, c = fixtures.fix_b(), fixtures.fix_c()
    for g, f in ((((1,),), ((1, 0), (0, 1))), (((F(1, 2),),), ((0, 1), (F(7, 3), 0)))):
        assert _lines(check_morphism(g, f, b, c)) == _expected(scan_morphism(g, f, b, c), STRICT)


def _shifted(h, field, idx, by):
    if field in ("psi", "phi"):
        m = [list(row) for row in getattr(h, field)]
        m[idx[0]][idx[1]] += by
        return replace(h, **{field: m})
    t = getattr(h, field)
    return replace(h, **{field: {**t, idx: t.get(idx, 0) + by}})


@st.composite
def _mutants(draw):
    """A bundled file or a random instance, with one entry of one tensor or
    twist shifted by an integer or non-integer amount."""
    source = draw(st.sampled_from(sorted(fixtures.BUNDLED)) | st.tuples(st.integers(0, 10**6), st.booleans()))
    if isinstance(source, str):
        h = fixtures.BUNDLED[source]()
    else:
        h, g, f = fixtures.random_instance(source[0])
        h = twist_by_endomorphism(h, g, f) if source[1] else h
    shapes = {**tensor_shapes(h.dimL, h.dimA), "psi": (h.dimL, h.dimL), "phi": (h.dimA, h.dimA)}
    fields = [name for name, dims in shapes.items() if all(dims)]
    if not fields:
        return h
    field = draw(st.sampled_from(fields))
    idx = tuple(draw(st.integers(0, d - 1)) for d in shapes[field])
    return _shifted(h, field, idx, draw(st.sampled_from(SHIFTS)))


@settings(deadline=None, max_examples=60)
@given(h=_mutants())
def test_single_entry_mutations_match_the_scan(h):
    assert_matches_scan(h)


@pytest.mark.parametrize("name", ["fix_s", "fix_s2"])
def test_inputs_in_a_dense_basis_match_the_scan(name):
    """Every constant of the file rewritten in a seeded 1-digit basis of L
    and of A, so each tensor is dense."""
    assert_matches_scan(seeded_transport(fixtures.BUNDLED[name](), name))


@pytest.mark.parametrize("name", ["fix_s", "fix_e2", "fix_p2"])
def test_dense_rational_twists_match_the_scan(name):
    h = fixtures.BUNDLED[name]()
    rng = random.Random(name)
    dense = replace(h, psi=_random_matrix(rng, h.dimL, h.dimL), phi=_random_matrix(rng, h.dimA, h.dimA))
    assert_matches_scan(dense)
    assert any(c.status == "fail" for c in validate_hlr(dense, strictness=STRICT).checks)


# -- scaling ------------------------------------------------------------------


def _abelian(n):
    """dimL n with zero bracket and anchor, identity psi, and dimA 1 whose
    unit acts as the identity."""
    return HLRAlgebra(
        dimL=n,
        dimA=1,
        bracket={},
        mul={(0, 0, 0): 1},
        action={(0, j, j): 1 for j in range(n)},
        anchor={},
        psi=tuple(tuple(int(i == j) for j in range(n)) for i in range(n)),
        phi=((1,),),
        unital=True,
    )


def _timed_validation(h):
    start = time.perf_counter()
    rep = validate_hlr(h, strictness=STRICT)
    return time.perf_counter() - start, rep


def test_validating_a_wide_abelian_algebra_is_not_quartic():
    # the basis-tuple scan took about 64 s here
    elapsed, rep = _timed_validation(_abelian(60))
    assert rep.ok
    assert elapsed < 2, elapsed


def test_validating_six_s_blocks_takes_well_under_a_second():
    # the basis-tuple scan took about 6.4 s here
    elapsed, rep = _timed_validation(fixtures.product_sum([fixtures._s_like(i) for i in range(1, 7)]))
    assert rep.ok
    assert elapsed < 0.5, elapsed
