"""Root and weight decompositions, twist covariance, closure lemmas."""

import time
from fractions import Fraction

import pytest

from hlra import fixtures, model, roots
from hlra.linalg import Subspace, basis_vector, complement, mat_columns, mat_vec, span, vec_add
from hlra.model import InputError, twist_by_endomorphism, validate_hlr
from hlra.roots import (
    CartanError,
    OrbitError,
    compose_psi_power,
    psi_orbit,
    root_decomposition,
    verify_lemma_closures,
    weight_decomposition,
)

F = Fraction


def one(*xs):
    return tuple(F(x) for x in xs)


# name -> (roots with dims, zero-space dim, weights with dims, A0 dim)
TABLE = {
    "fix_a": ({}, 2, {}, 1),
    "fix_b": ({one(1): 1}, 1, {}, 1),
    "fix_d": ({one(2): 1}, 1, {}, 1),
    "fix_e": ({one(-1): 1, one(1): 1}, 1, {one(1): 1}, 1),
    "fix_c_split": ({one(1): 1, one(2): 1}, 1, {}, 1),
    "fix_s": ({one(-2): 1, one(-1): 1, one(1): 1, one(2): 1}, 1, {}, 1),
    "fix_w": ({one(1): 1}, 1, {one(1): 1}, 1),
    "fix_p": ({one(1): 1, one(2): 1}, 1, {one(1): 1}, 1),
    "fix_t": ({one(-2): 1, one(-1): 1, one(1): 1, one(2): 1}, 1, {one(1): 1}, 1),
    "fix_zero": ({}, 0, {}, 0),
    "fix_b2": ({one(0, 1): 1, one(1, 0): 1}, 2, {}, 1),
    "fix_e2": (
        {one(-1, 0): 1, one(0, -1): 1, one(0, 1): 1, one(1, 0): 1},
        2,
        {one(0, 1): 1, one(1, 0): 1},
        2,
    ),
    "fix_s2": (
        {
            one(-2, 0): 1,
            one(-1, 0): 1,
            one(0, -2): 1,
            one(0, -1): 1,
            one(0, 1): 1,
            one(0, 2): 1,
            one(1, 0): 1,
            one(2, 0): 1,
        },
        2,
        {},
        2,
    ),
    "fix_p2": (
        {one(0, 1): 1, one(0, 2): 1, one(1, 0): 1, one(2, 0): 1},
        2,
        {one(0, 1): 1, one(1, 0): 1},
        2,
    ),
}


def test_root_and_weight_tables(bundled):
    for name, (roots, zero_dim, weights, a0_dim) in TABLE.items():
        h = bundled[name]
        rd = root_decomposition(h)
        wd = weight_decomposition(h, rd)
        assert rd.split and wd.split, name
        assert {g: rd.space(g).dim for g in rd.gamma} == roots, name
        assert rd.zero_space.dim == zero_dim, name
        assert {a: wd.space(a).dim for a in wd.lam} == weights, name
        assert wd.A0.dim == a0_dim, name
        assert rd.remainder.is_zero and wd.remainder.is_zero, name


def test_zero_space_equals_h_on_split(bundled):
    for name in TABLE:
        h = bundled[name]
        rd = root_decomposition(h)
        assert rd.zero_space == rd.H, name


def test_missing_h_is_an_input_error(bundled):
    with pytest.raises(InputError):
        root_decomposition(bundled["fix_c"])


def test_squares_fixture_has_no_splitting_choice(bundled):
    c = bundled["fix_c"]
    # the only abelian line is span{y}, and it does not split L
    rd = root_decomposition(c, H=((0, 1),))
    assert not rd.split
    assert "zero" in rd.diagnosis or "remainder" in rd.diagnosis
    with pytest.raises(CartanError) as exc:
        root_decomposition(c, H=((1, 0),))
    assert exc.value.reason == "not_abelian"


def test_nilpotent_cartan_choice_leaves_a_remainder(bundled):
    rd = root_decomposition(bundled["fix_b"], H=((0, 1),))
    assert not rd.split
    assert rd.zero_space == rd.H
    assert rd.remainder.dim == 1
    assert "remainder" in rd.diagnosis


def test_root_decomposition_on_six_blocks_is_fast():
    """dimL 30 and six 30 x 30 ad h: with Faddeev-LeVerrier charpoly it took
    about 1 s on a 2-vCPU Xeon VM, modulo primes about 0.04 s."""
    h = fixtures.product_sum([fixtures._s_like(i) for i in range(1, 7)])
    start = time.perf_counter()
    rd = root_decomposition(h)
    elapsed = time.perf_counter() - start
    assert rd.split and len(rd.gamma) == 24
    assert elapsed < 0.2, elapsed


# (source, index i of the basis vector spanning H): choices with a nonzero
# remainder; the random instances are twisted, so psi is not the identity
NON_SPLIT_CHOICES = [("fix_b", 1), ("fix_e", 1), ("fix_b2", 3), ("fix_e2", 4), (7, 3), (10, 5), (17, 1)]


@pytest.mark.parametrize("source, i", NON_SPLIT_CHOICES)
def test_the_root_remainder_is_a_complement_of_the_graded_part(bundled, source, i):
    """The remainder meets zero_space + (sum of the root spaces) in 0 and
    fills L with it, like the complement of the re-summed root spaces."""
    h = bundled[source] if isinstance(source, str) else twist_by_endomorphism(*fixtures.random_instance(source))
    n = h.dimL
    rd = root_decomposition(h, H=(basis_vector(n, i),))
    graded = span(n, [rd.zero_space, *rd.root_spaces.values()])
    assert not rd.remainder.is_zero
    assert rd.remainder.intersect(graded).is_zero
    assert rd.remainder.dim + graded.dim == n
    assert rd.remainder.dim == complement(graded, Subspace.full(n)).dim


def test_twist_unstable_choice_raises(bundled):
    # span{h+e} is abelian in the twisted line algebra but not twist-stable
    with pytest.raises(CartanError) as exc:
        root_decomposition(bundled["fix_d"], H=((1, 1),))
    assert exc.value.reason == "psi_not_stable"


def test_singular_twist_raises(bundled):
    from dataclasses import replace

    h = replace(bundled["fix_b"], psi=((0, 0), (0, 0)), regular=False)
    with pytest.raises(CartanError) as exc:
        root_decomposition(h)
    assert exc.value.reason == "psi_singular"


# -- twist covariance -------------------------------------------------------


def test_twisted_line_fixture_scales_its_root(bundled):
    rd = root_decomposition(bundled["fix_d"])
    assert rd.gamma == [one(2)]
    assert rd.space(one(2)) == Subspace(2, ((0, 1),))


def test_twist_can_collide_root_spaces(bundled):
    # diag twist with c = 3 on e, 1/2 on f, squares on u, v: the images of
    # roots -1 and -2 both land on -1/2, so that space has dimension 2
    h = bundled["fix_s"]
    f = tuple(
        tuple(F(c) if i == j else F(0) for j in range(5))
        for i, c in enumerate([F(1), F(3), F(1, 2), F(9), F(1, 4)])
    )
    tw = twist_by_endomorphism(h, ((1,),), f)
    rd = root_decomposition(tw)
    assert {g: rd.space(g).dim for g in rd.gamma} == {
        one(3): 1,
        (F(-1, 2),): 2,
        one(18): 1,
    }


def test_weights_are_twist_invariant():
    for seed in range(8):
        h, g, f = fixtures.random_instance(seed)
        rd = root_decomposition(h)
        wd = weight_decomposition(h, rd)
        tw = twist_by_endomorphism(h, g, f)
        rd2 = root_decomposition(tw)
        wd2 = weight_decomposition(tw, rd2)
        assert wd2.lam == wd.lam, seed
        for a in wd.lam:
            assert wd2.space(a) == wd.space(a), seed


# -- orbits -----------------------------------------------------------------


def test_psi_orbit_identity_twist(bundled):
    rd = root_decomposition(bundled["fix_d"])
    assert psi_orbit(one(2), rd) == [one(2)]
    assert compose_psi_power(one(2), 3, rd) == one(2)
    assert compose_psi_power(one(2), -3, rd) == one(2)
    with pytest.raises(OrbitError):
        psi_orbit(one(7), rd)


def uncached_psi_power(f, z, rd):
    """Oracle: z-fold mat_vec with freshly built columns of the twist."""
    m = mat_columns(rd.psi_on_H) if z > 0 else mat_columns(rd.psi_on_H_inv)
    f = tuple(f)
    for _ in range(abs(z)):
        f = mat_vec(m, f)
    return f


def test_psi_powers_match_the_mat_vec_loop_and_compose(bundled):
    """compose_psi_power is the z-fold mat_vec loop; it is linear in the
    functional and powers add, which the connection walker relies on when
    it takes the image of a partial sum as the sum of the images."""
    cases = [(name, bundled[name]) for name in TABLE]
    for seed in range(12):
        h, g, f = fixtures.random_instance(seed)
        cases += [(seed, h), (seed, twist_by_endomorphism(h, g, f))]
    for name, h in cases:
        rd = root_decomposition(h)
        dim = rd.H.dim
        sums = [vec_add(x, y) for x in rd.gamma for y in rd.gamma]
        extra = [tuple(F(k + 1, j + 2) for j in range(dim)) for k in range(2)]
        for fun in rd.gamma + sums + extra:
            for z in range(-4, 5):
                want = uncached_psi_power(fun, z, rd)
                assert compose_psi_power(fun, z, rd) == want, (name, fun, z)
                assert compose_psi_power(list(fun), z, rd) == want, (name, fun, z)
                assert compose_psi_power(want, -z, rd) == fun, (name, fun, z)
        for fun in rd.gamma + extra:
            for other in rd.gamma + extra:
                for z in (-2, -1, 1, 2):
                    want = vec_add(compose_psi_power(fun, z, rd), compose_psi_power(other, z, rd))
                    assert compose_psi_power(vec_add(fun, other), z, rd) == want, (name, fun, other, z)


# -- closure lemmas ---------------------------------------------------------


def test_lemma_closures_pass_on_every_split_fixture(bundled):
    for name in TABLE:
        h = bundled[name]
        rd = root_decomposition(h)
        wd = weight_decomposition(h, rd)
        for claim in verify_lemma_closures(h, rd, wd):
            assert claim.status == "PASS", (name, claim.claim_id, claim.detail)


def test_lemma_closure_details_are_substantive(bundled):
    h = bundled["fix_s"]
    rd = root_decomposition(h)
    wd = weight_decomposition(h, rd)
    claims = {c.claim_id: c for c in verify_lemma_closures(h, rd, wd)}
    # [e, e] = u lands in the root-2 space: the bracket closure is not vacuous
    assert "nonzero" in claims["lem2.11.3"].detail


def test_each_twist_is_inverted_once_per_algebra(monkeypatch):
    """Validation, the root and the weight decomposition share the cached
    inverses of psi and phi."""
    inverted = []
    for module in (model, roots):
        real = module.mat_inverse
        monkeypatch.setattr(module, "mat_inverse", lambda m, real=real: inverted.append(m) or real(m))
    h = fixtures.fix_e2()
    assert validate_hlr(h).ok
    weight_decomposition(h, root_decomposition(h))
    assert sum(m is h.psi for m in inverted) == 1
    assert sum(m is h.phi for m in inverted) == 1


def test_looking_up_a_root_or_weight_builds_no_subspace(monkeypatch):
    """rd.space and wd.space return the stored space and build the zero
    space only for a functional that is no root or weight."""
    h = fixtures.fix_e2()
    rd = root_decomposition(h)
    wd = weight_decomposition(h, rd)
    built = []
    hold = Subspace._hold

    def counted(self, *args):
        built.append(args)
        hold(self, *args)

    monkeypatch.setattr(Subspace, "_hold", counted)
    assert [rd.space(g) for g in rd.gamma] == [rd.root_spaces[g] for g in rd.gamma]
    assert [wd.space(a) for a in wd.lam] == [wd.weights[a] for a in wd.lam]
    assert rd.gamma and wd.lam and not built
    assert rd.space(one(7, 7)) == Subspace.zero(h.dimL)
    assert wd.space(one(7, 7)) == Subspace.zero(h.dimA)
