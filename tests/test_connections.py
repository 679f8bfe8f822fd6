"""Connection walkers, chain replay, brute-force agreement, partitions."""

import json
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from hlra import fixtures, reporting
from hlra.connections import (
    ConnectionWitness,
    _partition,
    root_partition,
    roots_connected,
    validate_root_chain,
    validate_weight_chain,
    weight_partition,
    weights_connected,
)
from hlra.model import HLRAlgebra, compute_J, twist_by_endomorphism, validate_hlr
from hlra.roots import format_root, root_decomposition, weight_decomposition
from hlra.structure import j_split

from conftest import SPLIT_NAMES
from oracles import (
    brute_force_root_connected,
    brute_force_weight_connected,
    pairwise_root_partition,
    pairwise_roots_connected,
    pairwise_weight_partition,
    pairwise_weights_connected,
    same_class,
    seeded_transport,
)

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


def three_root_line():
    """[h,e] = e, [h,u] = 2u and [h,w] = 3w (skew) over square-zero scalars
    t, s with rho(h) t = t and rho(h) s = 2s.  J is zero, so every root is
    not-J, and the weights 1 and 2 differ by a root.  No bundled fixture and
    no random_instance stores a chain in a weight or not-J partition, or
    completes one ordered pair by two chains of the same length: here 1
    reaches 2 by both [1 1] and [1 -3]."""
    return HLRAlgebra(
        dimL=4,
        dimA=2,
        bracket={(0, k, k): F(k) for k in (1, 2, 3)} | {(k, 0, k): F(-k) for k in (1, 2, 3)},
        mul={},
        action={},
        anchor={(0, 0, 0): F(1), (0, 1, 1): F(2)},
        psi=tuple(tuple(F(int(i == j)) for j in range(4)) for i in range(4)),
        phi=((F(1), F(0)), (F(0), F(1))),
        L_labels=("h", "e", "u", "w"),
        A_labels=("t", "s"),
        regular=True,
        unital=False,
        declared_H=((F(1), F(0), F(0), F(0)),),
    )


def test_three_root_line_stores_the_least_chain_in_every_partition():
    h = three_root_line()
    assert validate_hlr(h).ok
    rd, wd = decomp(h)
    restrict = j_split(rd, compute_J(h)).gamma_notJ
    one, two, three = (F(1),), (F(2),), (F(3),)
    assert sorted(restrict) == [one, two, three]
    weight_chains = {
        (one, two): "chain [(1) (-3)] end_sign=-1 end_power=0",
        (two, one): "chain [(2) (-3)] end_sign=-1 end_power=0",
    }
    root_chains = weight_chains | {
        (one, three): "chain [(1) (2)] end_sign=1 end_power=0",
        (two, three): "chain [(2) (1)] end_sign=1 end_power=0",
        (three, one): "chain [(3) (-2)] end_sign=1 end_power=0",
        (three, two): "chain [(3) (-1)] end_sign=1 end_power=0",
    }
    for part, chains in (
        (root_partition(rd, wd), root_chains),
        (weight_partition(rd, wd), weight_chains),
        (root_partition(rd, wd, restrict=restrict), root_chains),
    ):
        assert part.classes == (tuple(sorted(part.items)),)
        assert {pair: w.describe() for pair, w in part.witnesses.items()} == chains


def test_every_stored_witness_replays(bundled):
    chains = {"root": 0, "weight": 0, "not-J": 0}
    for name in ("fix_e", "fix_s", "fix_c_split", "fix_p", "fix_t", "fix_e2", "three_root_line"):
        h = three_root_line() if name == "three_root_line" else bundled[name]
        rd, wd = decomp(h)
        restrict = j_split(rd, compute_J(h)).gamma_notJ
        replays = (
            ("root", root_partition(rd, wd), lambda a, b, w: validate_root_chain(a, b, w.elements, rd, wd)),
            ("weight", weight_partition(rd, wd), lambda a, b, w: validate_weight_chain(a, b, w.elements, rd, wd)),
            (
                "not-J",
                root_partition(rd, wd, restrict=restrict),
                lambda a, b, w: validate_root_chain(a, b, w.elements, rd, wd, restrict=restrict),
            ),
        )
        for kind, part, replay in replays:
            for (a, b), w in part.witnesses.items():
                if w.kind != "chain":
                    continue
                chains[kind] += 1
                ok, reason = replay(a, b, w)
                assert ok, (name, kind, a, b, reason)
    assert all(chains.values()), chains


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


def test_an_asymmetric_raw_relation_is_reported(bundled):
    """No bundled or random input yields a partition whose raw relation is
    asymmetric, so one is made by dropping the reverse of a stored witness;
    both report surfaces must say so."""
    rd, wd = decomp(bundled["fix_s"])
    part = root_partition(rd, wd)
    f, g = next(iter(part.witnesses))
    witnesses = {pair: w for pair, w in part.witnesses.items() if pair != (g, f)}
    asym = replace(part, witnesses=witnesses, raw_symmetric=False)
    report = reporting.Report("connect").partition("root", asym)
    text = reporting.render(report, "text")
    assert "root raw relation symmetric: no\n" in text
    assert f"  {format_root(g)} ~ {format_root(f)}:" not in text
    out = reporting.render(report, "json")
    assert '"raw_symmetric": false' in out
    assert len(json.loads(out)["root_partition"]["witnesses"]) == len(part.witnesses) - 1


def test_a_one_way_relation_is_closed_into_one_class():
    """No algebra built in these tests has an asymmetric raw relation, so a
    synthetic one is fed to the partition: f reaches g, g does not reach f.
    The classes take the symmetric closure and the report says so."""
    f, g = (F(1),), (F(2),)
    witness = ConnectionWitness(kind="direct")

    def witnesses_from(src, items):
        return {src: witness, g: witness} if src == f else {src: witness}

    part = _partition([g, f], witnesses_from)
    assert part.raw_symmetric is False
    assert part.classes == ((f, g),)
    assert list(part.witnesses) == [(f, g)]
    lines = reporting.render(reporting.Report("connect").partition("root", part), "text").splitlines()
    assert "root raw relation symmetric: no" in lines


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


# -- one walk per source against one search per ordered pair -----------------


def witness_fields(w):
    return (w.kind, w.epsilon, w.z, w.elements, w.end_sign, w.end_power)


def partition_fields(part):
    witnesses = {pair: witness_fields(w) for pair, w in part.witnesses.items()}
    return part.items, part.classes, witnesses, part.raw_symmetric, part.reflexive_ok


def _differential_input(source):
    if source == "blocks3":
        return fixtures.product_sum([fixtures._s_like(i) for i in (1, 2, 3)])
    if source == "three_root_line":
        return three_root_line()
    if isinstance(source, str):
        return fixtures.BUNDLED[source]()
    if source[0] == "transported":
        return seeded_transport(twist_by_endomorphism(*fixtures.random_instance(source[1])), source[1])
    h, g, f = fixtures.random_instance(source[0])
    return twist_by_endomorphism(h, g, f) if source[1] else h


# the transported twisted seeds put dense coordinates on H; on seeds 0, 2, 6
# and 10 psi on H is not even diagonal, though it fixes every root and weight
DIFFERENTIAL_SOURCES = (
    list(SPLIT_NAMES)
    + [(seed, twisted) for seed in range(20) for twisted in (False, True)]
    + [("transported", seed) for seed in range(12)]
    + ["blocks3", "three_root_line"]
)


@pytest.mark.parametrize("source", DIFFERENTIAL_SOURCES, ids=str)
def test_partitions_match_the_pairwise_search(source):
    h = _differential_input(source)
    rd, wd = decomp(h)
    restrict = j_split(rd, compute_J(h)).gamma_notJ
    assert partition_fields(root_partition(rd, wd)) == partition_fields(pairwise_root_partition(rd, wd))
    assert partition_fields(weight_partition(rd, wd)) == partition_fields(pairwise_weight_partition(rd, wd))
    assert partition_fields(root_partition(rd, wd, restrict=restrict)) == partition_fields(
        pairwise_root_partition(rd, wd, restrict=restrict)
    )


def test_single_pair_queries_match_the_pairwise_search(bundled):
    for name in ("fix_s", "fix_c_split", "fix_p", "fix_t", "fix_e2", "fix_s2"):
        rd, wd = decomp(bundled[name])
        for a in rd.gamma:
            for b in rd.gamma:
                w, expected = roots_connected(a, b, rd, wd), pairwise_roots_connected(a, b, rd, wd)
                assert (w and witness_fields(w)) == (expected and witness_fields(expected)), (name, a, b)
        for a in wd.lam:
            for b in wd.lam:
                w, expected = weights_connected(a, b, rd, wd), pairwise_weights_connected(a, b, rd, wd)
                assert (w and witness_fields(w)) == (expected and witness_fields(expected)), (name, a, b)


def test_root_partition_on_six_blocks_is_fast():
    """24 roots: one search per ordered pair took about 2.5 s here."""
    h = fixtures.product_sum([fixtures._s_like(i) for i in range(1, 7)])
    rd, wd = decomp(h)
    start = time.perf_counter()
    part = root_partition(rd, wd)
    elapsed = time.perf_counter() - start
    assert len(part.items) == 24 and len(part.classes) == 6
    assert elapsed < 1.0, f"root_partition took {elapsed:.2f} s"
