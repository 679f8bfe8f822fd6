"""Class ideals, sum identities, directness, simplicity enumeration."""

import time
from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from hlra import cli, decomposition, fixtures, roots
from hlra.decomposition import enumerate_ideals, run_decomposition
from hlra.fileio import dumps_algebra
from hlra.linalg import (
    Subspace,
    basis_vector,
    kernel,
    mat_from_columns,
    mat_mul,
    stack_rows,
    vec_add,
)
from hlra.model import STRICT, InputError, compute_J, ideal_closure, is_ideal, twist_by_endomorphism, validate_hlr
from hlra.roots import CartanError, root_decomposition, weight_decomposition
from hlra.structure import Analysis, run_structure

from conftest import SPLIT_NAMES
from oracles import (
    fraction_inverse,
    fraction_reduce,
    fraction_rules,
    h_part_window,
    intersection_parts,
    random_rational_basis,
    rule_images_on_h,
    seeded_transport,
    transport,
    window_enumeration,
)

F = Fraction

# claims that must PASS on every split fixture, composites included
CORE = (
    "prop3.3.1",
    "prop3.3.2",
    "prop3.3.3",
    "prop3.3.4",
    "prop3.3.5",
    "thm3.5.1",
    "thm3.6",
    "prop4.3.1",
    "prop4.3.2",
    "thm4.4.1",
    "thm4.5",
)

# name -> (cor3.8 status, cor4.6 status, thm4.4.2 status, simplicity verdict)
VERDICTS = {
    "fix_a": ("REFUSED", "REFUSED", "REFUSED", "not_simple"),
    "fix_b": ("REFUSED", "REFUSED", "REFUSED", "not_simple"),
    "fix_d": ("REFUSED", "REFUSED", "REFUSED", "not_simple"),
    "fix_e": ("PASS", "REFUSED", "REFUSED", "simple"),
    "fix_c_split": ("REFUSED", "REFUSED", "REFUSED", "not_simple"),
    "fix_s": ("REFUSED", "REFUSED", "REFUSED", "not_simple"),
    "fix_w": ("REFUSED", "REFUSED", "REFUSED", "simple"),
    "fix_p": ("REFUSED", "REFUSED", "REFUSED", "not_simple"),
    "fix_t": ("REFUSED", "REFUSED", "REFUSED", "not_simple"),
    "fix_zero": ("PASS", "PASS", "REFUSED", "not_simple"),
    "fix_b2": ("REFUSED", "REFUSED", "REFUSED", "not_simple"),
    "fix_e2": ("PASS", "REFUSED", "REFUSED", "not_simple"),
    "fix_s2": ("REFUSED", "REFUSED", "REFUSED", "not_simple"),
    "fix_p2": ("REFUSED", "REFUSED", "REFUSED", "not_simple"),
}

UV_DIMS = {
    "fix_a": (2, 1),
    "fix_b": (1, 1),
    "fix_d": (1, 1),
    "fix_e": (0, 1),
    "fix_c_split": (1, 1),
    "fix_s": (1, 1),
    "fix_w": (1, 1),
    "fix_p": (1, 1),
    "fix_t": (1, 0),
    "fix_zero": (0, 0),
    "fix_b2": (2, 1),
    "fix_e2": (0, 2),
    "fix_s2": (2, 2),
    "fix_p2": (2, 2),
}

BOUNDED_SEARCH = {"fix_a", "fix_b2", "fix_s2", "fix_p2"}


def analysis(h):
    rd = root_decomposition(h)
    return Analysis(h, rd, weight_decomposition(h, rd))


@pytest.fixture(scope="module")
def analyses(bundled):
    return {name: analysis(bundled[name]) for name in SPLIT_NAMES}


@pytest.fixture(scope="module")
def reports(analyses):
    return {name: run_decomposition(a) for name, a in analyses.items()}


def test_core_claims_pass_everywhere(reports):
    for name, dec in reports.items():
        got = {c.claim_id: c for c in dec.claims}
        for cid in CORE:
            assert got[cid].status == "PASS", (name, cid, got[cid].detail)


def test_directness_and_scalar_simplicity_verdicts(reports):
    for name, dec in reports.items():
        got = {c.claim_id: c for c in dec.claims}
        c38, c46, t442, verdict = VERDICTS[name]
        assert got["cor3.8"].status == c38, (name, got["cor3.8"].detail)
        assert got["cor4.6"].status == c46, (name, got["cor4.6"].detail)
        assert got["thm4.4.2"].status == t442, (name, got["thm4.4.2"].detail)
        assert dec.simplicity.verdict == verdict, (name, dec.simplicity.reason)


def test_refusals_name_their_hypothesis(reports):
    got = {c.claim_id: c for c in reports["fix_a"].claims}
    assert "the annihilator is nonzero (dim 2)" in got["cor3.8"].detail
    assert "H is not generated by the opposite products" in got["cor3.8"].detail
    got = {c.claim_id: c for c in reports["fix_b"].claims}
    assert "H is not generated by the opposite products" in got["cor3.8"].detail
    assert "weight set is empty" in got["thm4.4.2"].detail
    got = {c.claim_id: c for c in reports["fix_e"].claims}
    assert "the scalar algebra is not simple" in got["thm4.4.2"].detail
    got = {c.claim_id: c for c in reports["fix_t"].claims}
    assert "the scalar annihilator is nonzero (dim 2)" in got["cor4.6"].detail


def test_complement_dimensions(reports):
    for name, dec in reports.items():
        assert (dec.U.dim, dec.V.dim) == UV_DIMS[name], name


def test_sum_identities_reconstruct_everything(reports, analyses, bundled):
    for name, dec in reports.items():
        h = bundled[name]
        total_l = dec.U
        for ideal in analyses[name].root_ideals:
            total_l = total_l.add(ideal.space)
        assert total_l == Subspace.full(h.dimL), name
        total_a = dec.V
        for ideal in analyses[name].weight_ideals:
            total_a = total_a.add(ideal.space)
        assert total_a == Subspace.full(h.dimA), name


def test_class_ideals_really_are_ideals(analyses, bundled):
    for name, a in analyses.items():
        h = bundled[name]
        for ideal in a.root_ideals:
            ok, failed = is_ideal(h, ideal.space)
            assert ok, (name, ideal.cls, failed)


def test_non_split_input_is_rejected(bundled):
    h = bundled["fix_b"]
    rd = root_decomposition(h, H=((0, 1),))
    wd = weight_decomposition(h, rd)
    with pytest.raises(ValueError):
        run_decomposition(Analysis(h, rd, wd))


# -- ideal enumeration ------------------------------------------------------


def test_enumeration_counts_and_completeness(bundled):
    for name in SPLIT_NAMES:
        h = bundled[name]
        enum = enumerate_ideals(h, root_decomposition(h))
        assert enum.complete == (name not in BOUNDED_SEARCH), (name, enum.note)
        if not enum.complete:
            assert enum.note
        for ideal in enum.ideals:
            ok, failed = is_ideal(h, ideal)
            assert ok, (name, ideal.basis, failed)


def test_enumeration_on_simple_core_is_exactly_zero_and_l(bundled):
    enum = enumerate_ideals(bundled["fix_e"], root_decomposition(bundled["fix_e"]))
    assert enum.complete
    assert [i.dim for i in enum.ideals] == [0, 3]


def test_violating_ideal_is_reported(reports):
    sim = reports["fix_b"].simplicity
    assert sim.verdict == "not_simple"
    assert sim.violating is not None
    assert sim.violating.basis == ((F(0), F(1)),)


# -- fast enumeration against the subset-closing oracle ---------------------


def enumerate_by_subsets(h, rd):
    """(ideals, complete, note) as `enumerate_ideals` should find them, by
    closing every one of the 2^|Gamma| root subsets, keeping those whose
    closure meets no root space outside, and taking the top of each window
    from h_part_window in L."""
    n, gamma = h.dimL, rd.gamma
    images = rule_images_on_h(h, rd)
    complete = all(rd.root_spaces[g].dim == 1 for g in gamma)
    note = "" if complete else "a root space has dimension above one; enumeration is heuristic"
    found = set()
    for mask in range(2 ** len(gamma)):
        members = [i for i in range(len(gamma)) if mask >> i & 1]
        f_space = Subspace(n, [b for i in members for b in rd.space(gamma[i]).basis])
        closure = ideal_closure(h, f_space).space
        if any(i not in members and not closure.intersect(rd.space(g)).is_zero for i, g in enumerate(gamma)):
            continue
        top = h_part_window(rd, f_space, images).add(f_space)
        if top.dim > closure.dim + 1:
            complete = False
            note = "an H-part window spans more than one free dimension; middle layers not enumerated"
        found.update((closure, top))
    return tuple(sorted(found, key=lambda s: (s.dim, s.basis))), complete, note


def assert_matches_oracle(h, rd):
    """The fast enumeration equals the oracle, its seeds are the graded
    single-root closures, which the fast path relies on, and every
    enumerated ideal is a graded ideal, which the construction guarantees
    without testing."""
    enum = enumerate_ideals(h, rd)
    assert enum.seeds == tuple(ideal_closure(h, rd.space(g)).space for g in rd.gamma)
    assert all(map(rd.is_graded, enum.seeds))
    assert (enum.ideals, enum.complete, enum.note) == enumerate_by_subsets(h, rd)
    for ideal in enum.ideals:
        ok, failed = is_ideal(h, ideal)
        assert ok, (ideal.basis, failed)
        assert rd.is_graded(ideal), ideal.basis


def test_enumeration_matches_oracle_on_bundled(bundled):
    for name in SPLIT_NAMES:
        assert_matches_oracle(bundled[name], root_decomposition(bundled[name]))


@pytest.mark.parametrize("a", (1, 2, 3))
@pytest.mark.parametrize("b", (1, 2, 3))
def test_enumeration_matches_oracle_on_s_products(a, b):
    h = fixtures.product_sum([fixtures._s_like(a), fixtures._s_like(b)])
    assert_matches_oracle(h, root_decomposition(h))


@pytest.mark.parametrize("k", (2, 3, 4))
def test_enumeration_matches_oracle_on_shared_scalar_sums(k):
    h = fixtures.shared_scalar_sum([fixtures.fix_b()] * k)
    assert_matches_oracle(h, root_decomposition(h))


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 10**6), st.booleans())
def test_enumeration_matches_oracle_on_random_instances(seed, twisted):
    h, g, f = fixtures.random_instance(seed)
    if twisted:
        h = twist_by_endomorphism(h, g, f)
    try:
        rd = root_decomposition(h)
    except CartanError:
        assume(False)
    assume(rd.split and len(rd.gamma) <= 8)
    assert_matches_oracle(h, rd)


@pytest.mark.parametrize("seed", (8, 30, 60, 92))
def test_enumeration_matches_oracle_on_two_dimensional_root_spaces(seed):
    h, g, f = fixtures.random_instance(seed)
    h = twist_by_endomorphism(h, g, f)
    rd = root_decomposition(h)
    assert rd.split
    assert max(rd.root_spaces[r].dim for r in rd.gamma) == 2
    assert_matches_oracle(h, rd)


def test_enumeration_tests_no_candidate(bundled, monkeypatch):
    calls = []

    def counting(h, sub):
        calls.append(sub)
        return is_ideal(h, sub)

    monkeypatch.setattr(decomposition, "is_ideal", counting)
    h = bundled["fix_s2"]
    enum = enumerate_ideals(h, root_decomposition(h))
    assert enum.ideals
    assert calls == []


def test_enumeration_past_the_cap_keeps_the_closure_seeds(tmp_path, capsys):
    h = fixtures.product_sum([fixtures._s_like(1)] * 3)
    rd = root_decomposition(h)
    assert len(rd.gamma) == 12
    enum = enumerate_ideals(h, rd)
    assert len(enum.ideals) == 14
    assert not enum.complete
    assert enum.seeds == tuple(ideal_closure(h, rd.space(g)).space for g in rd.gamma)
    for ideal in enum.ideals:
        ok, failed = is_ideal(h, ideal)
        assert ok, (ideal.basis, failed)
    path = tmp_path / "s3.json"
    path.write_text(dumps_algebra(h))
    cli.main(["decompose", str(path)])
    out = capsys.readouterr().out
    assert (
        "ideal enumeration: 14 found, incomplete "
        "(root subset count 2^12 exceeds the cap; closure seeds only)\n"
    ) in out
    cli.main(["analyze", str(path)])
    lem51 = [line for line in capsys.readouterr().out.splitlines() if "lem5.1" in line]
    assert len(lem51) == 1
    assert lem51[0].endswith("(bounded search)")


def test_enumeration_rejects_a_non_split_decomposition(bundled):
    h = bundled["fix_b"]
    with pytest.raises(ValueError):
        enumerate_ideals(h, root_decomposition(h, H=((0, 1),)))


def test_grading_rejects_a_non_split_decomposition(bundled):
    h = bundled["fix_b"]
    rd = root_decomposition(h, H=((0, 1),))
    for ask in (rd.parts, rd.is_graded):
        with pytest.raises(ValueError, match="not split"):
            ask(h.full_L)


def test_gradedness_predicate(bundled):
    h = bundled["fix_s"]
    rd = root_decomposition(h)
    g, d = rd.gamma[:2]
    assert rd.is_graded(rd.space(g))
    assert rd.is_graded(rd.space(g).add(rd.H))
    mixed = vec_add(rd.space(g).basis[0], rd.space(d).basis[0])
    assert not rd.is_graded(Subspace(h.dimL, [mixed]))


def _split_draw(source):
    """(h, rd) for a bundled name or a (random_instance seed, twisted)
    pair, or None when the instance does not split."""
    if isinstance(source, str):
        h = fixtures.BUNDLED[source]()
    else:
        h, g, f = fixtures.random_instance(source[0])
        if source[1]:
            h = twist_by_endomorphism(h, g, f)
    try:
        rd = root_decomposition(h)
    except CartanError:
        return None
    return (h, rd) if rd.split else None


@settings(deadline=None, max_examples=40)
@given(
    st.one_of(st.sampled_from(SPLIT_NAMES), st.tuples(st.integers(0, 10**6), st.booleans())),
    st.data(),
)
def test_ideal_closure_of_any_vectors_is_graded(source, data):
    """The lemma the enumeration rests on: an ideal of a split instance is
    the sum of its H part and its root parts, here for closures of
    arbitrary, mostly non-graded, vectors."""
    drawn = _split_draw(source)
    assume(drawn is not None)
    h, rd = drawn
    row = st.lists(st.integers(-3, 3), min_size=h.dimL, max_size=h.dimL)
    vectors = data.draw(st.lists(row, min_size=1, max_size=2))
    assert rd.is_graded(ideal_closure(h, Subspace(h.dimL, vectors)).space)


def _rule_matrices(h):
    """Each ideal rule map as an n x n matrix: its columns are the images
    of the basis vectors of L."""
    n = h.dimL
    per_basis = [[v for _, images in fraction_rules(h) for v in images(basis_vector(n, j))] for j in range(n)]
    return [mat_from_columns(cols, nrows=n) for cols in zip(*per_basis)]


def _window_by_residual_matrices(h, rd, f_space):
    """The H-part window computed on n x n matrices: W shrinks to the
    vectors whose images under every rule map, reduced along W + F, vanish."""
    n = h.dimL
    maps = _rule_matrices(h)
    w = rd.H
    while True:
        target = w.add(f_space)
        residuals = [fraction_reduce(target.basis, target.pivots, basis_vector(n, j)) for j in range(n)]
        res = mat_from_columns(residuals, nrows=n)
        shrunk = w.intersect(kernel(stack_rows(*[mat_mul(res, m) for m in maps]), ncols=n))
        if shrunk == w:
            return w
        w = shrunk


def _meet_of_cores(d, cores, mask):
    """The window top of the root subset given by mask, in coordinates on
    the RREF basis of H: the meet of the cores of the roots outside it."""
    w = Subspace.full(d)
    for j, core in enumerate(cores):
        if not mask >> j & 1:
            w = w.intersect(core)
    return w


def test_window_matches_residual_matrices(bundled):
    for name in ("fix_a", "fix_b", "fix_s", "fix_w", "fix_p", "fix_t", "fix_b2", "fix_e2", "fix_p2"):
        h = bundled[name]
        rd = root_decomposition(h)
        gamma = rd.gamma
        cores = decomposition._window_parts(h, rd)
        for mask in range(2 ** len(gamma)):
            members = [g for i, g in enumerate(gamma) if mask >> i & 1]
            f_space = Subspace(h.dimL, [b for g in members for b in rd.space(g).basis])
            got = decomposition._from_h_coords(rd, _meet_of_cores(rd.H.dim, cores, mask))
            assert got == _window_by_residual_matrices(h, rd, f_space), (name, mask)


def _window_inputs():
    """(label, h, rd): the split bundled files, random_instance seeds 0-19
    plain and twisted with at most 8 roots, and four-root files in a seeded
    dense basis.  The oracle takes about 12 ms per root subset on fix_s2 in
    such a basis, so that one is left to the scaling test.  The H rows of
    fix_e2 at seed 1 and fix_p2 at seed 4 have the unequal pivot entries
    (8445, 2815) and (174, 870), so each column of the integer window maps
    needs its own factor; the other transports have equal ones or dim H 1."""
    for name in SPLIT_NAMES:
        h = fixtures.BUNDLED[name]()
        yield name, h, root_decomposition(h)
    for seed in range(20):
        for twisted in (False, True):
            drawn = _split_draw((seed, twisted))
            if drawn is not None and len(drawn[1].gamma) <= 8:
                yield (seed, twisted), *drawn
    for name, seed in (("fix_s", "fix_s"), ("fix_e2", "fix_e2"), ("fix_p2", "fix_p2"), ("fix_e2", 1), ("fix_p2", 4)):
        h = seeded_transport(fixtures.BUNDLED[name](), seed)
        yield f"{name} transported by {seed!r}", h, root_decomposition(h)


def test_window_in_h_coordinates_matches_the_window_in_l_on_every_root_subset():
    """The meet of the per-root cores in H coordinates equals the oracle's
    window, which shrinks from H through preimages of W + F_S in L, for
    every root subset, feasible or not."""
    for label, h, rd in _window_inputs():
        assert rd.split, label
        gamma = rd.gamma
        cores = decomposition._window_parts(h, rd)
        images = rule_images_on_h(h, rd)
        for mask in range(2 ** len(gamma)):
            members = [i for i in range(len(gamma)) if mask >> i & 1]
            f_space = Subspace(h.dimL, [b for i in members for b in rd.space(gamma[i]).basis])
            got = decomposition._from_h_coords(rd, _meet_of_cores(rd.H.dim, cores, mask))
            assert got == h_part_window(rd, f_space, images), (label, mask)


# the files the grading test also draws in a basis of 1- to 3-digit rationals
RATIONAL = ("fix_s", "fix_b2", "fix_e2", "fix_p2")


def _graded_inputs():
    """The window inputs, then four files in a basis of 1- to 3-digit
    rationals, whose adapted bases have inverses with unequal denominators.
    fix_s2 in such a basis takes 1.4 s, so it is left out."""
    yield from _window_inputs()
    for name in RATIONAL:
        h, rng = fixtures.BUNDLED[name](), Random(name)
        h = transport(h, random_rational_basis(rng, h.dimL), random_rational_basis(rng, h.dimA))
        yield f"{name} in a rational basis", h, root_decomposition(h)


def test_parts_match_the_intersections_on_graded_spaces():
    """On every seed, J, enumerated ideal and class ideal, each part is the
    intersection with its piece, as the oracle finds it.  On spans of
    random vectors, mostly not graded, and on sums of random pieces,
    is_graded agrees with the oracle's dimension count.  to_adapted is the inverse of the adapted basis times the lcm
    of its denominators, which are unequal on every rational basis."""
    unequal = set()
    for label, h, rd in _graded_inputs():
        assert rd.split, label
        rows, offsets = rd.to_adapted
        pieces = [rd.H] + [rd.space(g) for g in rd.gamma]
        inverse = fraction_inverse(mat_from_columns([b for p in pieces for b in p.basis], nrows=h.dimL))
        dens = {x.denominator for row in inverse for x in row}
        if len(dens) > 1:
            unequal.add(label)
        assert tuple(tuple(x * lcm(*dens) for x in row) for row in inverse) == rows, label
        assert offsets == tuple(sum(p.dim for p in pieces[:k]) for k in range(len(pieces) + 1)), label
        a = Analysis(h, rd, weight_decomposition(h, rd))
        graded = [*a.enum.seeds, a.js.J, *a.enum.ideals]
        if a.wd.split:
            graded += [ci.space for ci in a.root_ideals]
        for space in graded:
            assert rd.parts(space) == intersection_parts(rd, space), (label, space.basis)
        rng = Random(str(label))
        for _ in range(8):
            vectors = [[rng.randint(-2, 2) for _ in range(h.dimL)] for _ in range(rng.randint(1, 3))]
            picks = [b for p in pieces if rng.random() < 0.3 for b in p.basis]
            for space in (Subspace(h.dimL, vectors), Subspace(h.dimL, picks)):
                dims = sum(p.dim for p in intersection_parts(rd, space))
                assert rd.is_graded(space) == (dims == space.dim), (label, space.basis)
    assert {f"{name} in a rational basis" for name in RATIONAL} <= unequal


def test_grading_inverts_the_adapted_basis_once_and_meets_nothing_in_l(monkeypatch):
    """On fix_s2 the adapted basis is inverted once, though the window
    cores and the seeds both read it.  Enumeration, the J-split and every
    gradedness test then intersect no subspaces of L: the only meets left
    are those of the window cores and tops, in H coordinates."""
    h = fixtures.fix_s2()
    rd = root_decomposition(h)
    a = Analysis(h, rd, None)
    inversions, meets = [], []
    inverse, intersect = roots.mat_inverse, Subspace.intersect
    monkeypatch.setattr(roots, "mat_inverse", lambda m: inversions.append(m) or inverse(m))
    monkeypatch.setattr(Subspace, "intersect", lambda s, o: meets.append(s.ambient) or intersect(s, o))
    assert all(map(rd.is_graded, (*a.enum.seeds, a.js.J, *a.enum.ideals)))
    assert len(inversions) == 1
    assert meets and set(meets) == {rd.H.dim} != {h.dimL}


def test_window_shrinks_until_no_map_leaves_it():
    """No input above needs a second shrinking step, so this one is built
    by hand in Q^4: one map T (h1 -> h2 -> h3 -> 0, h4 -> h4) and the
    kernel x3 = 0.  The steps go span(h1, h2, h4), span(h1, h4), span(h4);
    the greatest T-invariant subspace of the kernel is the last.  With the
    one root in S no core applies, and the meet over no roots is Q^4."""
    e = [basis_vector(4, i) for i in range(4)]
    t_cols = [e[1], e[2], (0, 0, 0, 0), e[3]]
    kernel_x3 = Subspace(4, [e[0], e[1], e[3]])
    core = decomposition._invariant_core(kernel_x3, t_cols)
    assert core == Subspace(4, [e[3]])
    assert _meet_of_cores(4, [core], 0) == core
    assert _meet_of_cores(4, [core], 1) == Subspace.full(4)


def _shrunk_from(start, t_cols):
    """The greatest T-invariant subspace of start, shrunk one map and one
    step at a time: w keeps the x with T_m x in w for each map m."""
    maps = [[col[at:at + start.ambient] for col in t_cols] for at in range(0, len(t_cols[0]), start.ambient)]
    w = start
    while True:
        shrunk = w
        for cols in maps:
            shrunk = shrunk.intersect(w.preimage(cols))
        if shrunk == w:
            return w
        w = shrunk


@st.composite
def _maps_and_kernels(draw):
    """(t_cols, K, K'): one or two small-integer maps on Q^d, d = 3 or 4,
    stacked as `_invariant_core` takes them, and two subspaces of Q^d."""
    d = draw(st.integers(3, 4))
    row = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    maps = draw(st.lists(st.lists(row, min_size=d, max_size=d), min_size=1, max_size=2))
    t_cols = [tuple(m[r][i] for m in maps for r in range(d)) for i in range(d)]
    return t_cols, *(Subspace(d, draw(st.lists(row, max_size=d))) for _ in range(2))


@settings(deadline=None, max_examples=60)
@given(_maps_and_kernels())
def test_core_of_a_meet_is_the_meet_of_the_cores(drawn):
    """core(K meet K') = core(K) meet core(K') for one or two random maps
    on Q^3 or Q^4, against a shrink started from K meet K' as every root
    subset once ran it."""
    t_cols, k, k2 = drawn
    core = decomposition._invariant_core
    assert core(k, t_cols).intersect(core(k2, t_cols)) == _shrunk_from(k.intersect(k2), t_cols)


def test_each_core_is_computed_once_per_root(monkeypatch):
    """One enumeration of fix_s2 shrinks 8 cores, one per root, where a
    fixpoint per down-closed root subset shrank 81 windows."""
    calls = []
    shrink = decomposition._invariant_core

    def counted(start, t_cols):
        calls.append(start)
        return shrink(start, t_cols)

    monkeypatch.setattr(decomposition, "_invariant_core", counted)
    h = fixtures.fix_s2()
    rd = root_decomposition(h)
    enumerate_ideals(h, rd)
    assert len(rd.gamma) == len(calls) == 8


def test_enumeration_in_a_dense_basis_scales():
    """Nine roots in a seeded 1-digit basis: on a 2-vCPU Xeon VM the
    windows in L took about 7.5 s, the windows in H coordinates about 1 s.
    The count and the complete flag do not depend on the basis, so they are
    the oracle's on the original instance."""
    original = fixtures.product_sum([fixtures._s_like(1), fixtures._s_like(2), fixtures._b_like(3)])
    h = seeded_transport(original, 0)
    rd = root_decomposition(h)
    assert len(rd.gamma) == 9
    start = time.perf_counter()
    enum = enumerate_ideals(h, rd)
    elapsed = time.perf_counter() - start
    expected, complete = window_enumeration(original, root_decomposition(original))
    assert (len(enum.ideals), enum.complete) == (len(expected), complete) == (260, False)
    assert elapsed < 2.5, elapsed


def test_enumeration_order_on_non_unit_pivots():
    """Ideals come sorted by (dim, basis).  In a dense basis some ideal has
    an integer row whose pivot entry is not 1, so sorting by the rows would
    give another order, and the sort must fall back to the Fraction basis."""
    h = seeded_transport(fixtures.fix_s2(), 0)
    enum = enumerate_ideals(h, root_decomposition(h))
    assert enum.ideals == tuple(sorted(enum.ideals, key=lambda s: (s.dim, s.basis)))
    assert any(row[c] != 1 for s in enum.ideals for row, c in zip(s.rows, s.pivots))
    assert enum.ideals != tuple(sorted(enum.ideals, key=lambda s: (s.dim, s.rows)))


# -- basis change -----------------------------------------------------------


def _basis_free_summary(h):
    """What `decompose` and `analyze` report that no basis can change: the
    sorted root and weight space dimensions, every claim status, the sorted
    class sizes, the enumeration count and complete flag and the def3.4
    verdict.  Root labels are coordinates on H, so classes are compared by
    size only."""
    try:
        rd = root_decomposition(h)
    except (CartanError, InputError) as exc:
        return type(exc).__name__
    wd = weight_decomposition(h, rd)
    dims = (
        rd.zero_space.dim,
        sorted(rd.space(g).dim for g in rd.gamma),
        wd.A0.dim,
        sorted(wd.space(x).dim for x in wd.lam),
    )
    if not (rd.split and wd.split):
        return "not split", dims
    a = Analysis(h, rd, wd)
    dec = run_decomposition(a)
    claims = [(c.claim_id, c.status) for c in dec.claims + run_structure(a).claims]
    sizes = [sorted(map(len, part.classes)) for part in (a.root_part, a.weight_part)]
    return dims, claims, sizes, len(a.enum.ideals), a.enum.complete, dec.simplicity.verdict


def _small_source(source, max_dim=10):
    """The bundled file or (random_instance seed, twisted) pair, or None
    when its dimL exceeds max_dim."""
    if isinstance(source, str):
        h = fixtures.BUNDLED[source]()
    else:
        h, g, f = fixtures.random_instance(source[0])
        h = twist_by_endomorphism(h, g, f) if source[1] else h
    return h if h.dimL <= max_dim else None


@settings(deadline=None, max_examples=25)
@given(
    st.one_of(st.sampled_from(sorted(fixtures.BUNDLED)), st.tuples(st.integers(0, 10**6), st.booleans())),
    st.integers(0, 10**6),
)
def test_reports_do_not_depend_on_the_basis(source, seed):
    """The same algebra written in a seeded dense basis gets the same
    basis-free report content.  A sweep of the 15 bundled files and
    random_instance seeds 0-39 plain and twisted, one seeded basis each,
    matched on every one; the transported side takes up to 0.8 s at dimL
    10, hence the bounds."""
    h = _small_source(source)
    assume(h is not None)
    assert _basis_free_summary(seeded_transport(h, seed)) == _basis_free_summary(h)


def _connect_summary(h):
    """What `connect` reports that no basis can change: whether relaxed
    validation passes and, on a split input, the class count, the sorted
    class sizes and the raw_symmetric and reflexive_ok flags of the root
    and the weight partition."""
    if not validate_hlr(h).ok:
        return "invalid"
    try:
        rd = root_decomposition(h)
    except (CartanError, InputError) as exc:
        return type(exc).__name__
    wd = weight_decomposition(h, rd)
    if not (rd.split and wd.split):
        return "not split"
    a = Analysis(h, rd, wd)
    parts = (a.root_part, a.weight_part)
    return [(len(p.classes), sorted(map(len, p.classes)), p.raw_symmetric, p.reflexive_ok) for p in parts]


@settings(deadline=None, max_examples=25)
@given(
    st.one_of(st.sampled_from(sorted(fixtures.BUNDLED)), st.tuples(st.integers(0, 10**6), st.booleans())),
    st.integers(0, 10**6),
)
def test_connections_do_not_depend_on_the_basis(source, seed):
    """`connect` on the same algebra in a seeded dense basis, where the
    pivot entries of H are in general not 1, finds the same partitions up
    to the coordinates of the roots."""
    h = _small_source(source)
    assume(h is not None)
    assert _connect_summary(seeded_transport(h, seed)) == _connect_summary(h)


def _validate_and_j_summary(h):
    """What `validate --strict` and `j` report that no basis can change:
    the (key, status) pair of every strict check, the dimension of J, the
    closure rules that fired and both annihilation flags."""
    checks = [(c.key, c.status) for c in validate_hlr(h, STRICT).checks]
    jrep = compute_J(h)
    return checks, jrep.J.dim, jrep.closure.fired, jrep.J_bracket_L_zero, jrep.L_bracket_J_zero


@settings(deadline=None, max_examples=25)
@given(
    st.one_of(st.sampled_from(sorted(fixtures.BUNDLED)), st.tuples(st.integers(0, 10**6), st.booleans())),
    st.integers(0, 10**6),
)
def test_validation_and_j_do_not_depend_on_the_basis(source, seed):
    """`validate --strict` and `j` on the same algebra in a seeded dense
    basis give the same statuses, J of the same dimension grown by the same
    rules, and the same annihilation flags.  Dense validation at dimL 10
    takes up to 2 s, hence the smaller bound."""
    h = _small_source(source, max_dim=6)
    assume(h is not None)
    assert _validate_and_j_summary(seeded_transport(h, seed)) == _validate_and_j_summary(h)
