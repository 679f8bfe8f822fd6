"""Connection walkers, chain replay, brute-force agreement, partitions."""

from fractions import Fraction

from hlra import fixtures
from hlra.connections import (
    root_partition,
    roots_connected,
    validate_root_chain,
    validate_weight_chain,
    weight_partition,
    weights_connected,
)
from hlra.model import compute_J
from hlra.roots import root_decomposition, weight_decomposition
from hlra.structure import j_split

from oracles import brute_force_root_connected, brute_force_weight_connected, same_class

F = Fraction


def decomp(h):
    rd = root_decomposition(h)
    return rd, weight_decomposition(h, rd)


def signed_vocab_size(rd, wd):
    vocab = set()
    for f in list(rd.gamma) + list(wd.lam):
        vocab.add(tuple(f))
        vocab.add(tuple(-c for c in f))
    return len(vocab)


# -- frozen witnesses -------------------------------------------------------


def test_direct_witness_same_and_opposite(bundled):
    rd, wd = decomp(bundled["fix_e"])
    w = roots_connected((F(1),), (F(1),), rd, wd)
    assert (w.kind, w.epsilon, w.z) == ("direct", 1, 0)
    w = roots_connected((F(1),), (F(-1),), rd, wd)
    assert (w.kind, w.epsilon, w.z) == ("direct", -1, 0)


def test_chain_witness_doubling(bundled):
    rd, wd = decomp(bundled["fix_s"])
    w = roots_connected((F(1),), (F(2),), rd, wd)
    assert w.kind == "chain"
    assert w.elements == ((F(1),), (F(1),))
    assert abs(w.end_sign) == 1
    ok, reason = validate_root_chain((F(1),), (F(2),), w.elements, rd, wd)
    assert ok, reason


def test_chain_replay_rejects_tampering(bundled):
    rd, wd = decomp(bundled["fix_s"])
    ok, reason = validate_root_chain((F(1),), (F(2),), ((F(1),), (F(7),)), rd, wd)
    assert not ok and "vocabulary" in reason
    ok, reason = validate_root_chain((F(1),), (F(2),), ((F(1),), (F(-1),)), rd, wd)
    assert not ok and "final sum" in reason
    ok, reason = validate_root_chain((F(1),), (F(2),), ((F(1),),), rd, wd)
    assert not ok


def test_weight_chain_replay(bundled):
    rd, wd = decomp(bundled["fix_e2"])
    a, b = (F(1), F(0)), (F(0), F(1))
    assert weights_connected(a, a, rd, wd) is not None
    assert weights_connected(a, b, rd, wd) is None
    ok, reason = validate_weight_chain(a, b, (a, b), rd, wd)
    assert not ok and "final sum" in reason
    ok, reason = validate_weight_chain(a, b, (a, (F(-1), F(0)), b), rd, wd)
    assert not ok and "partial sum" in reason


def test_every_stored_witness_replays(bundled):
    for name in ("fix_e", "fix_s", "fix_c_split", "fix_p", "fix_t", "fix_e2"):
        rd, wd = decomp(bundled[name])
        part = root_partition(rd, wd)
        for (a, b), w in part.witnesses.items():
            if w.kind != "chain":
                continue
            ok, reason = validate_root_chain(a, b, w.elements, rd, wd)
            assert ok, (name, a, b, reason)


# -- brute-force oracle agreement (small instances; the full sweep is in the
# acceptance gate) ----------------------------------------------------------


def test_walker_matches_brute_force_on_small_fixtures(bundled):
    for name in ("fix_b", "fix_d", "fix_e", "fix_c_split", "fix_s", "fix_w", "fix_p", "fix_b2"):
        h = bundled[name]
        rd, wd = decomp(h)
        max_len = signed_vocab_size(rd, wd) + 2
        for a in rd.gamma:
            for b in rd.gamma:
                walker = roots_connected(a, b, rd, wd) is not None
                brute = brute_force_root_connected(a, b, rd, wd, max_len)
                assert walker == brute, (name, a, b)
        for a in wd.lam:
            for b in wd.lam:
                walker = weights_connected(a, b, rd, wd) is not None
                brute = brute_force_weight_connected(a, b, rd, wd, max_len)
                assert walker == brute, (name, a, b)


def test_restricted_walker_matches_restricted_brute_force(bundled):
    h = bundled["fix_s"]
    rd, wd = decomp(h)
    js = j_split(rd, compute_J(h))
    restrict = js.gamma_notJ
    assert sorted(restrict) == [(F(-1),), (F(1),)]
    max_len = signed_vocab_size(rd, wd) + 2
    for a in restrict:
        for b in restrict:
            walker = roots_connected(a, b, rd, wd, restrict=restrict) is not None
            brute = brute_force_root_connected(a, b, rd, wd, max_len, restrict=restrict)
            assert walker == brute, (a, b)


def test_restriction_semantics(bundled):
    h = bundled["fix_s2"]
    rd, wd = decomp(h)
    a, b = (F(1), F(0)), (F(0), F(1))
    # blocks never connect, restricted or not
    assert roots_connected(a, b, rd, wd) is None
    assert roots_connected(a, (F(2), F(0)), rd, wd) is not None
    # a two-element chain has no intermediate sums, so restricting the
    # intermediate vocabulary cannot block it; brute force agrees
    restrict = [(F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1))]
    w = roots_connected(a, (F(2), F(0)), rd, wd, restrict=restrict)
    assert w is not None and w.elements == (a, a)
    max_len = signed_vocab_size(rd, wd) + 2
    assert brute_force_root_connected(a, (F(2), F(0)), rd, wd, max_len, restrict=restrict)
    # a vocabulary without the source cannot even start a chain
    only_other_block = [(F(0), F(1)), (F(0), F(-1))]
    assert roots_connected(a, (F(2), F(0)), rd, wd, restrict=only_other_block) is None
    assert not brute_force_root_connected(
        a, (F(2), F(0)), rd, wd, max_len, restrict=only_other_block
    )


# -- partitions -------------------------------------------------------------


def test_block_fixture_partitions_split_by_block(bundled):
    rd, wd = decomp(bundled["fix_b2"])
    part = root_partition(rd, wd)
    assert part.classes == (((F(0), F(1)),), ((F(1), F(0)),))
    rd, wd = decomp(bundled["fix_e2"])
    wpart = weight_partition(rd, wd)
    assert wpart.classes == (((F(0), F(1)),), ((F(1), F(0)),))


def test_single_class_on_connected_fixture(bundled):
    rd, wd = decomp(bundled["fix_s"])
    part = root_partition(rd, wd)
    assert part.classes == (((F(-2),), (F(-1),), (F(1),), (F(2),)),)


def test_partition_is_an_equivalence(bundled):
    for name in ("fix_e", "fix_s", "fix_c_split", "fix_b2", "fix_e2", "fix_s2", "fix_p2"):
        rd, wd = decomp(bundled[name])
        for part in (root_partition(rd, wd), weight_partition(rd, wd)):
            assert part.reflexive_ok
            seen = [f for cls in part.classes for f in cls]
            assert sorted(seen) == sorted(part.items)
            assert len(seen) == len(set(seen)), "classes overlap"
            for f in part.items:
                assert same_class(part, f, f)
                for g in part.items:
                    assert same_class(part, f, g) == same_class(part, g, f)
                    for k in part.items:
                        if same_class(part, f, g) and same_class(part, g, k):
                            assert same_class(part, f, k)
