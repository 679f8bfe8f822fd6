"""Axioms, twisting, morphisms, fiber products, ideals, annihilators."""

import time
from dataclasses import replace
from fractions import Fraction
from functools import cache
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from hlra import fixtures, model
from hlra.decomposition import ClassIdeal, verify_prop_3_3
from hlra.fileio import dumps_algebra
from hlra.linalg import Subspace, basis_vector, identity_matrix, kernel, mat_from_columns, mat_inverse, mat_vec, span
from hlra.model import (
    ClosureError,
    FiberClosureError,
    FiberResult,
    HLRAlgebra,
    InputError,
    RELAXED,
    STRICT,
    TwistError,
    _bilinear,
    annihilator,
    annihilator_Z,
    center_ZA,
    check_morphism,
    compute_J,
    fiber_product,
    find_unit,
    ideal_closure,
    ideal_rules,
    is_ideal,
    operators,
    rule_image,
    sub_algebra,
    tensor_shapes,
    twist_by_endomorphism,
    validate_hlr,
)
from hlra.roots import root_decomposition
from hlra.scalars import format_vector
from hlra.structure import j_split

from oracles import (
    TENSOR_KINDS,
    absorbs,
    dense_bilinear,
    fraction_closure,
    fraction_inverse,
    fraction_is_ideal,
    fraction_kernel,
    fraction_operator,
    fraction_product,
    fraction_products,
    fraction_rules,
    fraction_solve,
    per_vector_sub_algebra,
    per_vector_twist,
    random_basis,
    seeded_transport,
    transport,
    vector_maps,
)

F = Fraction

# strict failures happen exactly where the anchor cannot be a representation
STRICT_FAILERS = {"fix_e", "fix_e2"}

J_DIMS = {
    "fix_a": 0,
    "fix_b": 0,
    "fix_c": 1,
    "fix_d": 0,
    "fix_e": 0,
    "fix_c_split": 1,
    "fix_s": 2,
    "fix_w": 0,
    "fix_p": 2,
    "fix_t": 2,
    "fix_zero": 0,
    "fix_b2": 0,
    "fix_e2": 0,
    "fix_s2": 4,
    "fix_p2": 4,
}

# the printed annihilation direction [L, J] = 0 genuinely fails here
L_J_NONZERO = {"fix_c_split", "fix_s", "fix_p", "fix_t", "fix_s2", "fix_p2"}


def test_every_fixture_validates_relaxed(bundled):
    for name, h in bundled.items():
        rep = validate_hlr(h, strictness=RELAXED)
        assert rep.ok, f"{name}: {[(c.key, c.detail) for c in rep.failures()]}"


def test_strict_failures_are_exactly_the_relaxed_fixtures(bundled):
    for name, h in bundled.items():
        rep = validate_hlr(h, strictness=STRICT)
        assert rep.ok == (name not in STRICT_FAILERS), name
        if not rep.ok:
            assert [c.key for c in rep.failures()] == ["rep.bracket"]


def test_relaxed_mode_downgrades_not_hides(bundled):
    rep = validate_hlr(bundled["fix_e"], strictness=RELAXED)
    c = next(c for c in rep.checks if c.key == "rep.bracket")
    assert c.status == "warn"
    assert "(e,f,t)" in c.detail


def test_skew_symmetry_is_informational(bundled):
    rep = validate_hlr(bundled["fix_c"])
    c = next(c for c in rep.checks if c.key == "L.skew_symmetric")
    assert c.status == "info"
    assert rep.ok


# -- the symmetrized-square ideal -------------------------------------------


def test_j_dimensions_and_directions(bundled):
    for name, h in bundled.items():
        jrep = compute_J(h)
        assert jrep.J.dim == J_DIMS[name], name
        assert jrep.J_bracket_L_zero, f"{name}: the provable direction broke"
        assert jrep.L_bracket_J_zero == (name not in L_J_NONZERO), name


def test_j_of_squares_fixture_is_the_y_line(bundled):
    jrep = compute_J(bundled["fix_c"])
    assert jrep.J.basis == ((F(0), F(1)),)
    assert jrep.closure.fired == ()


def test_j_failure_witness_names_the_bracket(bundled):
    jrep = compute_J(bundled["fix_c_split"])
    assert not jrep.L_bracket_J_zero
    assert jrep.witness


# -- twisting ---------------------------------------------------------------


def test_twist_of_line_fixture_reproduces_bundled_twisted(bundled):
    twisted = twist_by_endomorphism(bundled["fix_b"], ((1,),), ((1, 0), (0, 2)))
    assert twisted == bundled["fix_d"]


def test_twist_requires_identity_twists(bundled):
    with pytest.raises(InputError):
        twist_by_endomorphism(bundled["fix_d"], ((1,),), identity_matrix(2))


def test_twist_rejects_non_endomorphism(bundled):
    # swapping h and e breaks the bracket condition: f([h,e]) = h but
    # [f(h), f(e)] = [e, h] = -e
    with pytest.raises(TwistError) as exc:
        twist_by_endomorphism(bundled["fix_b"], ((1,),), ((0, 1), (1, 0)))
    assert "morphism.2" in exc.value.failed


def test_twisted_random_instances_stay_valid():
    for seed in range(6):
        h, g, f = fixtures.random_instance(seed)
        assert validate_hlr(h, strictness=STRICT).ok, seed
        tw = twist_by_endomorphism(h, g, f)
        assert validate_hlr(tw, strictness=STRICT).ok, seed


# -- morphisms --------------------------------------------------------------


def test_identity_pair_is_a_morphism(bundled):
    for name, h in bundled.items():
        res = check_morphism(identity_matrix(h.dimA), identity_matrix(h.dimL), h, h)
        assert all(c.status == "pass" for c in res), name


def test_zero_pair_is_a_morphism(bundled):
    # every condition equates images of operations, so zero maps satisfy all
    # of them; there is no unit-preservation clause
    for name in ("fix_b", "fix_e"):
        h = bundled[name]
        zg = tuple((0,) * h.dimA for _ in range(h.dimA))
        zf = tuple((0,) * h.dimL for _ in range(h.dimL))
        res = check_morphism(zg, zf, h, h)
        assert all(c.status == "pass" for c in res), name


def test_twist_pair_is_endomorphism_of_the_twisted_algebra(bundled):
    d = bundled["fix_d"]
    res = check_morphism(((1,),), ((1, 0), (0, 2)), d, d)
    assert all(c.status == "pass" for c in res)


def test_non_morphism_is_pinned_to_a_condition(bundled):
    res = check_morphism(((1,),), identity_matrix(2), bundled["fix_b"], bundled["fix_c"])
    failed = [c.key for c in res if c.status == "fail"]
    assert failed == ["morphism.2"]
    bad = [c for c in res if c.status == "fail"][0]
    assert "(h,h)" in bad.detail


def test_morphism_rejects_bad_shapes(bundled):
    with pytest.raises(InputError):
        check_morphism(((1,),), ((1, 0),), bundled["fix_b"], bundled["fix_b"])


# -- fiber products ---------------------------------------------------------


def test_fiber_product_of_line_fixture(bundled):
    fr = fiber_product(bundled["fix_b"], bundled["fix_b"])
    assert fr.algebra.dimL == 4
    assert validate_hlr(fr.algebra, strictness=STRICT).ok


def test_fiber_product_anchor_agrees_with_projections(bundled):
    h = bundled["fix_w"]
    fr = fiber_product(h, h)
    assert validate_hlr(fr.algebra, strictness=STRICT).ok
    n1 = h.dimL
    anc, fiber_anc = vector_maps(h)[3], vector_maps(fr.algebra)[3]
    for i, pair in enumerate(fr.space.basis):
        left, right = pair[:n1], pair[n1:]
        for j in range(h.dimA):
            a = basis_vector(h.dimA, j)
            via_left = anc(left, a)
            via_right = anc(right, a)
            via_fiber = fiber_anc(basis_vector(fr.algebra.dimL, i), a)
            assert via_left == via_right == via_fiber


def test_fiber_product_closure_failure_is_detected(bundled):
    # the relaxed fixture breaks the representation axiom that closure needs
    with pytest.raises(FiberClosureError) as exc:
        fiber_product(bundled["fix_e"], bundled["fix_e"])
    assert exc.value.kind == "bracket"
    assert exc.value.witness is not None


def test_fiber_product_needs_shared_scalars(bundled):
    with pytest.raises(InputError):
        fiber_product(bundled["fix_b"], bundled["fix_e"])


def fiber_product_by_hand(h1, h2):
    """Reference fiber product: restricts bracket, action and psi to the
    anchor equalizer directly, with no use of sub_algebra."""
    if (h1.dimA, h1.mul, h1.phi) != (h2.dimA, h2.mul, h2.phi):
        raise InputError("fiber product needs an identical scalar algebra on both sides")
    n1, n2, na = h1.dimL, h2.dimL, h1.dimA
    n = n1 + n2
    rows = []
    for j in range(na):
        for k in range(na):
            rows.append(
                tuple(h1.anchor.get((i, j, k), F(0)) for i in range(n1))
                + tuple(-h2.anchor.get((i, j, k), F(0)) for i in range(n2))
            )
    w = kernel(tuple(rows), ncols=n) if rows else Subspace.full(n)

    (br1, _, act1, anc1), (br2, _, act2, _) = vector_maps(h1), vector_maps(h2)

    def split(v):
        return v[:n1], v[n1:]

    def joint_bracket(u, v):
        ua, ub = split(u)
        va, vb = split(v)
        return br1(ua, va) + br2(ub, vb)

    def joint_act(a, v):
        va, vb = split(v)
        return act1(a, va) + act2(a, vb)

    def joint_psi(v):
        va, vb = split(v)
        return mat_vec(h1.psi, va) + mat_vec(h2.psi, vb)

    basis = w.basis
    d = len(basis)

    def coords_or_raise(kind, witness, vec):
        c = w.coords(vec)
        if c is None:
            raise FiberClosureError(
                f"fiber carrier not closed under {kind} at {witness}: image {format_vector(vec)}",
                kind,
                witness,
                vec,
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
        tuple(anc1(split(basis[p])[0], eA[j]) for j in range(na)) for p in range(d)
    )

    def entries(nested):
        return {(i, j, k): c for i, plane in enumerate(nested) for j, row in enumerate(plane) for k, c in enumerate(row)}

    algebra = HLRAlgebra(
        dimL=d,
        dimA=na,
        bracket=entries(new_bracket),
        mul=h1.mul,
        action=entries(new_action),
        anchor=entries(new_anchor),
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


def _fiber_outcome(build, h1, h2):
    try:
        fr = build(h1, h2)
    except InputError as exc:
        return ("input", str(exc))
    except FiberClosureError as exc:
        return ("closure", exc.kind, exc.witness, str(exc))
    return ("ok", dumps_algebra(fr.algebra), fr.space.basis)


def test_fiber_product_matches_the_reference_on_every_pair(bundled):
    algebras = list(bundled.values())
    for seed in range(10):
        h, g, f = fixtures.random_instance(seed)
        algebras += [h, twist_by_endomorphism(h, g, f)]
    outcomes = {"ok": 0, "closure": 0, "input": 0}
    for h1 in algebras:
        for h2 in algebras:
            fast = _fiber_outcome(fiber_product, h1, h2)
            assert fast == _fiber_outcome(fiber_product_by_hand, h1, h2)
            outcomes[fast[0]] += 1
    # the sweep reaches every branch
    assert all(outcomes.values()), outcomes


# -- ideal closure ----------------------------------------------------------


def subspaces_of(h):
    n = h.dimL
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple)
    return st.lists(vec, min_size=0, max_size=2).map(lambda rows: Subspace(n, rows))


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_ideal_closure_is_a_closure_operator(data):
    h = fixtures.fix_s()
    seed = data.draw(subspaces_of(h))
    other = data.draw(subspaces_of(h))
    closed = ideal_closure(h, seed)
    # extensive
    assert closed.space.contains_space(seed)
    # idempotent
    assert ideal_closure(h, closed.space).space == closed.space
    # monotone
    bigger = ideal_closure(h, seed.add(other)).space
    assert bigger.contains_space(closed.space)
    # lands on an actual ideal
    ok, failed_rules = is_ideal(h, closed.space)
    assert ok, failed_rules


def is_ideal_by_subspace_products(h, sub):
    """The ideal test on spans of products of whole subspaces: the oracle
    for the rule-image test in `is_ideal`."""
    failed = []
    full_l, full_a = Subspace.full(h.dimL), Subspace.full(h.dimA)
    if not sub.contains_space(h.bracket_space(sub, full_l)):
        failed.append("bracket_left")
    if not sub.contains_space(h.bracket_space(full_l, sub)):
        failed.append("bracket_right")
    if not sub.contains_space(h.act_space(full_a, sub)):
        failed.append("action")
    if not sub.contains_space(h.act_space(h.anchor_space(sub, full_a), full_l)):
        failed.append("anchor")
    if not sub.contains_space(Subspace(h.dimL, [mat_vec(h.psi, w) for w in sub.basis])):
        failed.append("psi")
    return (not failed, failed)


def random_algebra(seed, twisted):
    h, g, f = fixtures.random_instance(seed)
    return twist_by_endomorphism(h, g, f) if twisted else h


ALGEBRAS = st.one_of(
    st.sampled_from(sorted(fixtures.BUNDLED)).map(lambda name: fixtures.BUNDLED[name]()),
    st.builds(random_algebra, st.integers(0, 10**6), st.booleans()),
)


def sparse_subspaces_of(h):
    vec = st.lists(st.sampled_from((0, 0, 0, 1, -1, 2)), min_size=h.dimL, max_size=h.dimL)
    return st.lists(vec, min_size=1, max_size=2).map(lambda rows: Subspace(h.dimL, rows))


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_is_ideal_matches_subspace_products(data):
    h = data.draw(ALGEBRAS)
    seed = data.draw(sparse_subspaces_of(h))
    # sparse spans break some rules, closures break none, and a closure
    # plus a sparse vector lands in between
    closed = ideal_closure(h, seed).space
    sub = data.draw(st.sampled_from((seed, closed, closed.add(data.draw(sparse_subspaces_of(h))))))
    assert is_ideal(h, sub) == is_ideal_by_subspace_products(h, sub)


def test_is_ideal_names_failing_rules(bundled):
    b = bundled["fix_b"]
    ok, failed = is_ideal(b, Subspace(2, ((1, 0),)))
    assert not ok
    assert "bracket_left" in failed or "bracket_right" in failed
    ok, failed = is_ideal(b, Subspace(2, ((0, 1),)))
    assert ok and failed == []


# -- annihilators, centers, units -------------------------------------------


def test_annihilator_of_abelian_is_everything(bundled):
    assert annihilator_Z(bundled["fix_a"]).dim == 2


def test_annihilator_zero_on_simple_core(bundled):
    assert annihilator_Z(bundled["fix_e"]).is_zero


def test_scalar_center_cases(bundled):
    # unital: only 0 multiplies everything to zero
    assert center_ZA(bundled["fix_b"]).is_zero
    # dual numbers: 1*t = t != 0 forces center zero despite t*t = 0
    assert center_ZA(bundled["fix_e"]).is_zero
    # zero multiplication: everything annihilates
    assert center_ZA(bundled["fix_t"]).dim == 2


def test_find_unit(bundled):
    assert find_unit(bundled["fix_b"]) == (F(1),)
    assert find_unit(bundled["fix_e"]) == (F(1), F(0))
    assert find_unit(bundled["fix_t"]) is None


# -- input checking ---------------------------------------------------------


def _line_algebra(bracket):
    return HLRAlgebra(dimL=2, dimA=1, bracket=bracket, mul={}, action={}, anchor={}, psi=((1, 0), (0, 1)), phi=((1,),))


@pytest.mark.parametrize(
    "bracket",
    [
        {(0, 2, 1): 1},  # j outside 0..1
        {(0, -1, 1): 1},
        {(0, True, 1): 1},
        {(0, 1.0, 1): 1},
        {("0", 1, 1): 1},
        {(0, 1): 1},
        {(0, 1, 1, 0): 1},
        {0: 1},
        (((0, 0), (0, 1)), ((0, 0), (0, 0))),  # the dense nested form
    ],
)
def test_a_tensor_key_must_be_an_in_range_index_triple(bracket):
    with pytest.raises(InputError):
        _line_algebra(bracket)


def test_tensors_are_read_only_mappings_of_nonzero_entries(bundled):
    b = bundled["fix_b"]
    assert b.bracket[0, 1, 1] == 1 and (0, 0, 0) not in b.bracket
    with pytest.raises(TypeError):
        b.bracket[0, 0, 0] = F(1)
    key = (0, 1, 1)
    without = {k: c for k, c in b.bracket.items() if k != key}
    assert replace(b, bracket={**b.bracket, key: 0}) == replace(b, bracket=without) != b
    for name, h in bundled.items():
        assert replace(h) == h, name


def test_algebra_shape_validation():
    with pytest.raises(InputError):
        HLRAlgebra(
            dimL=1,
            dimA=1,
            bracket={(0, 1, 0): F(1)},  # j outside 0..0
            mul={},
            action={},
            anchor={},
            psi=((F(1),),),
            phi=((F(1),),),
        )


def test_mutation_breaks_an_axiom(bundled):
    b = bundled["fix_b"]
    # [h,e] picks up an h component
    mutant = replace(b, bracket={**b.bracket, (0, 1, 0): F(1)})
    rep = validate_hlr(mutant, strictness=STRICT)
    assert not rep.ok


# -- sparse evaluation against the dense grid -------------------------------


@cache
def _oracle_algebra(source):
    """A bundled fixture by name, or random_instance(seed) plain or twisted."""
    if isinstance(source, str):
        return fixtures.BUNDLED[source]()
    seed, twisted = source
    h, g, f = fixtures.random_instance(seed)
    return twist_by_endomorphism(h, g, f) if twisted else h


@st.composite
def _arbitrary_algebras(draw):
    """Random entries on small dimensions, several per (i, j) row; the
    identities need not hold, since only the evaluation is compared."""
    nl, na = draw(st.integers(0, 3)), draw(st.integers(0, 2))

    def tensor(dims):
        keys = st.tuples(*(st.integers(0, d - 1) for d in dims))
        return draw(st.dictionaries(keys, st.fractions(-3, 3, max_denominator=4), max_size=12)) if all(dims) else {}

    tensors = {name: tensor(dims) for name, dims in tensor_shapes(nl, na).items()}
    return HLRAlgebra(dimL=nl, dimA=na, psi=identity_matrix(nl), phi=identity_matrix(na), **tensors)


def _vectors(n):
    scalar = st.just(F(0)) | st.fractions(-3, 3, max_denominator=4)
    return st.just((F(0),) * n) | st.lists(scalar, min_size=n, max_size=n).map(tuple)


@settings(deadline=None, max_examples=150)
@given(
    h=(st.sampled_from(sorted(fixtures.BUNDLED)) | st.tuples(st.integers(0, 39), st.booleans())).map(_oracle_algebra)
    | _arbitrary_algebras(),
    data=st.data(),
)
def test_structure_maps_match_the_dense_oracle(h, data):
    x, y = data.draw(_vectors(h.dimL)), data.draw(_vectors(h.dimL))
    a, b = data.draw(_vectors(h.dimA)), data.draw(_vectors(h.dimA))
    m = h.maps
    assert _bilinear(m.bracket, x, y) == dense_bilinear(h.bracket, x, y, h.dimL)
    assert _bilinear(m.mul, a, b) == dense_bilinear(h.mul, a, b, h.dimA)
    assert _bilinear(m.action, a, x) == dense_bilinear(h.action, a, x, h.dimL)
    assert _bilinear(m.anchor, x, a) == dense_bilinear(h.anchor, x, a, h.dimA)


# -- ideal rules and subspace products against the per-vector oracle -----------


TRANSPORTED = ("fix_b", "fix_e", "fix_s", "fix_w", "fix_p", "fix_t")


@cache
def _transported(name, seed):
    return seeded_transport(fixtures.BUNDLED[name](), seed)


@st.composite
def _twisted_arbitrary_algebras(draw):
    """_arbitrary_algebras with a drawn psi, often singular."""
    h = draw(_arbitrary_algebras())
    row = st.lists(st.integers(-1, 1), min_size=h.dimL, max_size=h.dimL)
    return replace(h, psi=draw(st.lists(row, min_size=h.dimL, max_size=h.dimL)))


def _subspaces(n):
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple)
    return st.lists(vec, max_size=3).map(lambda rows: Subspace(n, rows))


@settings(deadline=None, max_examples=150)
@given(
    h=(st.sampled_from(sorted(fixtures.BUNDLED)) | st.tuples(st.integers(0, 39), st.booleans())).map(_oracle_algebra)
    | st.builds(_transported, st.sampled_from(TRANSPORTED), st.integers(0, 9))
    | _twisted_arbitrary_algebras(),
    data=st.data(),
)
def test_rules_and_products_match_the_per_vector_oracle(h, data):
    """Every product of subspaces, every rule image, the closure with the
    rules it fired, the ideal test and prop3.3.3/3.3.4 agree with the same
    computed one vector at a time over Fractions."""
    s, t = data.draw(_subspaces(h.dimL)), data.draw(_subspaces(h.dimL))
    a, b = data.draw(_subspaces(h.dimA)), data.draw(_subspaces(h.dimA))
    products = fraction_products(h)
    assert h.bracket_space(s, t) == products["bracket"](s, t)
    assert h.mul_space(a, b) == products["mul"](a, b)
    assert h.act_space(a, s) == products["action"](a, s)
    assert h.anchor_space(s, a) == products["anchor"](s, a)
    rules, oracle = ideal_rules(h), fraction_rules(h)
    assert [rule[0] for rule in rules] == [name for name, _ in oracle]
    for rule, (name, images) in zip(rules, oracle):
        assert rule_image(h, rule, s) == Subspace(h.dimL, [v for x in s.basis for v in images(x)]), name
    closure = ideal_closure(h, s)
    assert (closure.space, closure.fired) == fraction_closure(h, s)
    for sub in (s, t, closure.space):
        assert is_ideal(h, sub) == fraction_is_ideal(h, sub)
    ideals = (ClassIdeal((), s), ClassIdeal((), closure.space))
    claims = {c.claim_id: c.status for c in verify_prop_3_3(SimpleNamespace(h=h, root_ideals=ideals))}
    for claim_id, name in (("prop3.3.3", "action"), ("prop3.3.4", "anchor")):
        images = dict(oracle)[name]
        assert claims[claim_id] == ("PASS" if all(absorbs(ci.space, images) for ci in ideals) else "FAIL"), claim_id


def test_rules_are_evaluated_once_per_algebra(monkeypatch):
    """h.rule_tables evaluates each ideal rule once; after it, the closures
    and ideal tests of fix_s2 sum its integer rows and evaluate no map,
    and annihilator solves one system from at most three evaluations."""
    calls = []
    evaluate = model._evaluate

    def counted(sides, spaces):
        calls.append(spaces)
        return evaluate(sides, spaces)

    monkeypatch.setattr(model, "_evaluate", counted)
    h = fixtures.fix_s2()
    assert len(h.rule_tables) == len(calls) == len(ideal_rules(h)) == 6
    calls.clear()
    for i in range(h.dimL):
        seed = Subspace(h.dimL, [basis_vector(h.dimL, i)])
        closure = ideal_closure(h, seed)
        assert is_ideal(h, closure.space) == (True, [])
        assert is_ideal(h, seed)[0] == (closure.space == seed)
    assert calls == []
    for space in (Subspace.zero(h.dimL), h.full_L):
        annihilator(h, space)
        assert len(calls) <= 3
        calls.clear()


# -- structure-map matrices against the Fraction operators ----------------------


def _oracle_kernel(blocks, n):
    """The null space in Q^n of the stacked Fraction matrices."""
    return Subspace(n, fraction_kernel([row for m in blocks for row in m], n)[0])


def _lie_space(h, H):
    """H plus the root spaces outside J: the space Z_Lie annihilates.  Only
    a split decomposition has a J-split; on another this is H."""
    rd = root_decomposition(h, H.basis)
    if not rd.split:
        return H
    return span(h.dimL, [rd.H] + [rd.space(g) for g in j_split(rd, compute_J(h)).gamma_notJ])


@settings(deadline=None, max_examples=60)
@given(
    h=(st.sampled_from(sorted(fixtures.BUNDLED)) | st.tuples(st.integers(0, 39), st.booleans())).map(_oracle_algebra)
    | st.builds(_transported, st.sampled_from(TRANSPORTED), st.integers(0, 9)),
    data=st.data(),
)
def test_structure_map_matrices_match_the_fraction_operators(h, data):
    """operators agrees with fraction_operator on every tensor, with either
    argument fixed to each basis vector of H or of a drawn subspace, whose
    pivot entries need not be 1.  annihilator (over 0, H, L and the space
    of Z_Lie), center_ZA, find_unit, the unit-action check and the fiber
    equalizer with h rewritten in a seeded basis of L agree with the same
    built from fraction_operator."""
    n, na = h.dimL, h.dimA
    full, dims = {"L": h.full_L, "A": h.full_A}, {"L": n, "A": na}
    H = Subspace(n, h.declared_H or ())
    spaces = {"L": (H, data.draw(_subspaces(n))), "A": (data.draw(_subspaces(na)),)}
    for name, (first, second, value) in TENSOR_KINDS.items():
        tensor, m = getattr(h, name), getattr(h.maps, name)
        for slot, side in enumerate((m, lambda s, x: m(x, s))):
            fixed, free = (first, second) if slot == 0 else (second, first)
            for space in spaces[fixed]:
                want = [fraction_operator(tensor, b, slot, dims[free], dims[value]) for b in space.basis]
                assert operators(side, space, full[free]) == want, (name, slot)

    anchors = [fraction_operator(h.anchor, a, 1, n, na) for a in identity_matrix(na)]
    for space in (Subspace.zero(n), H, h.full_L, _lie_space(h, H)):
        brackets = [fraction_operator(h.bracket, s, slot, n, n) for s in space.basis for slot in (0, 1)]
        assert annihilator(h, space) == _oracle_kernel(brackets + anchors, n)

    products = [fraction_operator(h.mul, a, 1, na, na) for a in identity_matrix(na)]
    assert center_ZA(h) == _oracle_kernel(products, na)
    unit = fraction_solve([row for m in products for row in m], [c for row in identity_matrix(na) for c in row])
    assert find_unit(h) == unit
    if unit is not None:
        acts = fraction_operator(h.action, unit, 0, n, n) == identity_matrix(n)
        check = next(c for c in validate_hlr(replace(h, unital=True)).checks if c.key == "module.unit_action")
        assert check.detail == f"unit {'acts' if acts else 'does not act'} as the identity on L"

    moved = transport(h, random_basis(Random(data.draw(st.integers(0, 99))), n), identity_matrix(na))
    try:
        equalizer = fiber_product(h, moved).space
    except FiberClosureError:
        return
    legs = [
        tuple(r1 + tuple(-c for c in r2) for r1, r2 in zip(m1, m2))
        for m1, m2 in zip(anchors, (fraction_operator(moved.anchor, a, 1, n, na) for a in identity_matrix(na)))
    ]
    assert equalizer == _oracle_kernel(legs, 2 * n)


# -- builders against the per-vector oracles ------------------------------------


def _twist_outcome(build, h, g, f):
    try:
        return ("ok", build(h, g, f))
    except TwistError as exc:
        return ("twist", exc.failed, str(exc))
    except InputError as exc:
        return ("input", str(exc))


def _transported_pair(seed):
    """random_instance(seed) and its (g, f), both written in the seeded bases
    of seeded_transport."""
    h, g, f = fixtures.random_instance(seed)
    rng = Random(seed)
    P, Q = random_basis(rng, h.dimL), random_basis(rng, h.dimA)
    moved = (fraction_product(fraction_inverse(M), fraction_product(m, M)) for m, M in ((g, Q), (f, P)))
    return transport(h, P, Q), *moved


def test_twist_matches_the_per_vector_oracle(bundled):
    """The twisted tensors, twists and flags agree entry by entry on every
    bundled file (identity pair, and a swap that is no endomorphism), on
    fix_b with fix_d's pair, on random_instance seeds 0-59 with their own
    pair and on seeds 0-11 rewritten in a seeded basis."""
    cases = [(h, identity_matrix(h.dimA), identity_matrix(h.dimL)) for h in bundled.values()]
    cases += [(bundled["fix_b"], ((1,),), ((1, 0), (0, 2))), (bundled["fix_b"], ((1,),), ((0, 1), (1, 0)))]
    cases += [fixtures.random_instance(seed) for seed in range(60)]
    cases += [_transported_pair(seed) for seed in range(12)]
    kinds = set()
    for h, g, f in cases:
        fast = _twist_outcome(twist_by_endomorphism, h, g, f)
        assert fast == _twist_outcome(per_vector_twist, h, g, f)
        kinds.add(fast[0])
    assert kinds == {"ok", "twist", "input"}


def _algebra(nl, na, psi=None, phi=None, **entries):
    tensors = {name: entries.get(name, {}) for name in tensor_shapes(nl, na)}
    return HLRAlgebra(dimL=nl, dimA=na, psi=psi or identity_matrix(nl), phi=phi or identity_matrix(na), **tensors)


# (algebra, L-part, A-part, the map that leaves them or None); the tensors
# need not satisfy the identities, since only the restriction is compared
CLOSURE_CASES = (
    (fixtures.fix_e(), Subspace.zero(3), Subspace(2, [(1, 1)]), "mul"),
    (fixtures.fix_e(), Subspace.full(3), Subspace.full(2), None),
    (fixtures.fix_e(), Subspace(3, [(1, 1, 0), (0, 2, 1)]), Subspace.full(2), "bracket"),
    (_algebra(2, 1, bracket={(0, 0, 1): 1}), Subspace(2, [(2, 0)]), Subspace.full(1), "bracket"),
    (_algebra(1, 2, mul={(0, 0, 1): 1}), Subspace.zero(1), Subspace(2, [(3, 0)]), "mul"),
    (_algebra(2, 1, action={(0, 0, 1): 1}), Subspace(2, [(2, 0)]), Subspace.full(1), "action"),
    (_algebra(1, 2, anchor={(0, 0, 1): 1}), Subspace.full(1), Subspace(2, [(2, 0)]), "anchor"),
    (_algebra(2, 1, psi=((1, 0), (0, 2))), Subspace(2, [(2, 3)]), Subspace.full(1), "psi"),
    # mul-closed (mul is zero) but not phi-stable
    (_algebra(1, 2, phi=((1, 0), (0, 2))), Subspace.full(1), Subspace(2, [(3, 2)]), "phi"),
)


def _sub_outcome(build, h, l_sub, a_sub):
    try:
        return ("ok", build(h, l_sub, a_sub))
    except ClosureError as exc:
        return ("closure", exc.kind, exc.witness, exc.image, str(exc))


def test_sub_algebra_reaches_every_closure_failure():
    kinds = set()
    for h, l_sub, a_sub, kind in CLOSURE_CASES:
        fast = _sub_outcome(sub_algebra, h, l_sub, a_sub)
        assert fast == _sub_outcome(per_vector_sub_algebra, h, l_sub, a_sub)
        assert (fast[1] if fast[0] == "closure" else None) == kind
        kinds.add(kind)
    assert kinds == {None, "bracket", "mul", "action", "anchor", "psi", "phi"}


@st.composite
def _builder_arbitrary_algebras(draw):
    """_arbitrary_algebras with a drawn psi and phi, often singular."""
    h = draw(_arbitrary_algebras())

    def matrix(n):
        return draw(st.lists(st.lists(st.integers(-1, 2), min_size=n, max_size=n), min_size=n, max_size=n))

    return replace(h, psi=matrix(h.dimL), phi=matrix(h.dimA))


def _parts(n):
    return st.sampled_from((Subspace.zero(n), Subspace.full(n))) | _subspaces(n)


@settings(deadline=None, max_examples=200)
@given(
    h=(st.sampled_from(sorted(fixtures.BUNDLED)) | st.tuples(st.integers(0, 39), st.booleans())).map(_oracle_algebra)
    | st.builds(_transported, st.sampled_from(TRANSPORTED), st.integers(0, 9))
    | _builder_arbitrary_algebras(),
    data=st.data(),
)
def test_sub_algebra_matches_the_per_vector_oracle(h, data):
    """The restricted algebra, or the kind, witness, image and message of its
    ClosureError, is the one computed one basis tuple at a time."""
    l_sub, a_sub = data.draw(_parts(h.dimL)), data.draw(_parts(h.dimA))
    assert _sub_outcome(sub_algebra, h, l_sub, a_sub) == _sub_outcome(per_vector_sub_algebra, h, l_sub, a_sub)


def _eight_blocks():
    return fixtures.product_sum([fixtures._s_like(i) for i in range(1, 9)])


def test_twist_of_eight_blocks_is_fast():
    """dimL 40, identity pair: one bracket and one dense matrix product per
    basis pair took 0.37-0.61 s on a 2-vCPU Xeon VM."""
    h = _eight_blocks()
    start = time.perf_counter()
    twisted = twist_by_endomorphism(h, identity_matrix(h.dimA), identity_matrix(h.dimL))
    elapsed = time.perf_counter() - start
    assert twisted == h
    assert elapsed < 0.1, f"twist took {elapsed:.3f} s"


def test_fiber_product_of_eight_blocks_is_fast():
    """dimL 80 before the equalizer: the maps of L1 x L2 called one basis
    pair at a time took 1.03-1.14 s on a 2-vCPU Xeon VM."""
    h = _eight_blocks()
    start = time.perf_counter()
    fr = fiber_product(h, h)
    elapsed = time.perf_counter() - start
    assert fr.space.dim == fr.algebra.dimL > 0
    assert elapsed < 0.5, f"fiber_product took {elapsed:.3f} s"
