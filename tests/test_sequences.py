"""Mutation calculus: exceptionality, mutation, mu_rev, completion."""
import random
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from exseq import (
    DObj, MutationSign, QuiverDescriptor, build_root_system, class_of,
    enumerate_complete_sequences, ext_dim, fuss_catalan, generate_weyl,
    is_exceptional, mu_rev, mu_rev_inverse, mutate, nu_inv, proj,
    reflection_matrix, rotate, shift, simple,
)
from exseq import sequences
from exseq.roots import mat_vec, perp_masks
from exseq.sequences import (
    _all_roots, _bits, _complete_sequences, _sample_complete_sequences,
    _sequence_counts, mu_rev_order,
)
from exseq.silting import enumerate_kind, order_config, order_silting

from oracle import (
    admissible_quivers, complete_sequence, complete_sequences_pairwise,
    dual_sequence, pair_signs, seeded_quiver,
)


def test_is_exceptional_a2(a2):
    s1, s2, p1 = simple(a2, 1), simple(a2, 2), proj(a2, 1)
    assert is_exceptional((s1, s2))
    assert not is_exceptional((s2, s1))       # Ext^1(S1, S2) blocks it
    assert is_exceptional((s1,))
    assert is_exceptional((p1, s1))
    assert not is_exceptional((p1, s2))       # Hom(S2, P1) is nonzero
    # degrees are irrelevant to exceptionality
    assert is_exceptional((shift(s1, 3), shift(s2, -1)))


def test_mutate_examples_a2(a2):
    s1, s2, p1 = simple(a2, 1), simple(a2, 2), proj(a2, 1)
    new, sign = mutate((s1, s2), 1, "right")
    assert new == (s2, p1)                     # universal extension, dim (1,1)
    assert sign is MutationSign.NONNEGATIVE
    new, sign = mutate((p1, s1), 1, "right")
    assert new == (s1, s2)                     # epi case, kernel S2
    assert sign is MutationSign.NEGATIVE
    new, sign = mutate((shift(s2, 1), shift(p1, 1)), 1, "right")
    assert new == (shift(p1, 1), s1)           # mono case, cokernel drops a degree
    assert sign is MutationSign.NEGATIVE


def test_mutate_orthogonal_pair(a3):
    s1, s3 = simple(a3, 1), simple(a3, 3)
    assert ext_dim(s1, s3, 0) == ext_dim(s1, s3, 1) == 0
    new, sign = mutate((s1, s3), 1, "right")
    assert new == (s3, s1)
    assert sign is MutationSign.ORTHOGONAL
    new, sign = mutate((s1, s3), 1, "left")
    assert new == (s3, s1)


def test_mutate_position_validation(a2):
    s1, s2 = simple(a2, 1), simple(a2, 2)
    with pytest.raises(ValueError):
        mutate((s1, s2), 2, "right")
    with pytest.raises(ValueError):
        mutate((s1, s2), 1, "up")


def test_inverse_law_exhaustive_a3(a3):
    for seq in enumerate_complete_sequences(a3):
        for i in (1, 2):
            assert mutate(mutate(seq, i, "right")[0], i, "left")[0] == seq
            assert mutate(mutate(seq, i, "left")[0], i, "right")[0] == seq


def test_braid_relations_exhaustive_a3(a3):
    def mu(seq, i):
        return mutate(seq, i, "right")[0]

    for seq in enumerate_complete_sequences(a3):
        assert mu(mu(mu(seq, 1), 2), 1) == mu(mu(mu(seq, 2), 1), 2)


def test_far_commutation_d4(d4):
    def mu(seq, i):
        return mutate(seq, i, "right")[0]

    rng = random.Random(7)
    seqs = enumerate_complete_sequences(d4)
    for seq in rng.sample(seqs, 30):
        shifted = tuple(shift(x, rng.randint(-1, 2)) for x in seq)
        assert mu(mu(shifted, 1), 3) == mu(mu(shifted, 3), 1)


def test_k0_reflection_identity(a3):
    for seq in enumerate_complete_sequences(a3):
        for i in (1, 2):
            a, b = seq[i - 1], seq[i]
            new, _ = mutate(seq, i, "right")
            assert class_of(new[i]) == mat_vec(reflection_matrix(a3, b.root), class_of(a))


def test_mutation_keeps_other_positions(a3):
    for seq in enumerate_complete_sequences(a3)[:6]:
        for i in (1, 2):
            new, _ = mutate(seq, i, "right")
            assert new[: i - 1] == seq[: i - 1]
            assert new[i + 1:] == seq[i + 1:]
            assert new[i - 1] == seq[i]


def test_ext_preservation_under_double_mutation(a3):
    # (A,B,C) -> mu_1 mu_2 -> (C, A*, B*) preserves Ext^*(A, B).
    for seq in enumerate_complete_sequences(a3):
        out, _ = mutate(seq, 2, "right")
        out, _ = mutate(out, 1, "right")
        a, b = seq[0], seq[1]
        astar, bstar = out[1], out[2]
        for t in range(-3, 4):
            assert ext_dim(a, b, t) == ext_dim(astar, bstar, t)


def mu_rev_order_alt(n):
    """Application order of the braid-equivalent presentation
    mu_1 (mu_2 mu_1) ... (mu_{n-1} ... mu_1)."""
    return [i for k in range(n - 1, 0, -1) for i in range(1, k + 1)]


def test_mu_rev_orders():
    assert mu_rev_order(2) == [1]
    assert mu_rev_order(3) == [2, 1, 2]
    assert mu_rev_order(4) == [3, 2, 1, 3, 2, 3]
    assert mu_rev_order_alt(3) == [1, 2, 1]
    assert len(mu_rev_order(5)) == 10


def test_mu_rev_a2(a2):
    s1, s2, p1 = simple(a2, 1), simple(a2, 2), proj(a2, 1)
    out, signs = mu_rev((p1, s1))
    assert out == (s1, s2)
    assert signs == (MutationSign.NEGATIVE,)
    twice, _ = mu_rev(out)
    assert twice == (nu_inv(p1), nu_inv(s1))


def test_mu_rev_single_object(a1):
    x = simple(a1, 1)
    out, signs = mu_rev((x,))
    assert out == (x,) and signs == ()


def test_mu_rev_requires_complete(a3):
    with pytest.raises(ValueError):
        mu_rev((simple(a3, 1), simple(a3, 2)))


def test_mu_rev_two_presentations_agree(a3, d4):
    rng = random.Random(11)
    for rs in (a3, d4):
        seqs = enumerate_complete_sequences(rs)
        for seq in rng.sample(seqs, min(20, len(seqs))):
            shifted = tuple(shift(x, rng.randint(-2, 2)) for x in seq)
            alt = shifted
            for i in mu_rev_order_alt(rs.n):
                alt, _ = mutate(alt, i, "right")
            assert mu_rev(shifted)[0] == alt


def test_mu_rev_inverse_round_trip(a3):
    for seq in enumerate_complete_sequences(a3):
        out, _ = mu_rev(seq)
        back, _ = mu_rev_inverse(out)
        assert back == seq


def test_mu_rev_squared_is_nu_inverse(a3):
    for seq in enumerate_complete_sequences(a3):
        once, _ = mu_rev(seq)
        twice, _ = mu_rev(once)
        assert twice == tuple(nu_inv(x) for x in seq)


def test_rotate(a2, a3):
    s1, s2 = simple(a2, 1), simple(a2, 2)
    assert rotate((s1, s2)) == (s2, proj(a2, 1))
    for seq in enumerate_complete_sequences(a3):
        out = rotate(seq)             # the nu-rotation identity is asserted inside
        assert out[:2] == seq[1:]
        assert out[2] == nu_inv(seq[0])


def test_rotate_cubed_is_termwise_nu_inverse(a3):
    for seq in enumerate_complete_sequences(a3):
        out = rotate(rotate(rotate(seq)))
        assert out == tuple(nu_inv(x) for x in seq)


def test_complete_sequence(a2, a3):
    p1 = proj(a2, 1)
    assert complete_sequence((p1,)) == (p1, simple(a2, 1))
    full = (simple(a2, 1), simple(a2, 2))
    assert complete_sequence(full) == full
    # nonzero degrees are normalized to module level first
    assert complete_sequence((shift(p1, 2),)) == (p1, simple(a2, 1))
    with pytest.raises(ValueError):
        complete_sequence((simple(a2, 2), simple(a2, 1)))


@pytest.mark.parametrize("family,rank", [("A", 3), ("A", 4)])
def test_every_singleton_completes(family, rank):
    from exseq import QuiverDescriptor, build_root_system
    rs = build_root_system(QuiverDescriptor.standard(family, rank))
    for root in range(len(rs.positive_roots)):
        seq = complete_sequence((DObj(rs, root, 0),))
        assert len(seq) == rs.n and is_exceptional(seq)


def test_complete_sequence_counts(a1, a2, a3, d4):
    assert len(enumerate_complete_sequences(a1)) == 1
    assert len(enumerate_complete_sequences(a2)) == 3
    assert len(enumerate_complete_sequences(a3)) == 16
    assert len(enumerate_complete_sequences(d4)) == 162


@pytest.mark.parametrize("arrows", [((1, 2), (2, 3)), ((1, 2), (1, 3)), ((1, 3), (2, 3))])
def test_complete_sequence_list_is_the_search_in_order(arrows):
    rs = build_root_system(QuiverDescriptor("A", 3, arrows))
    seqs = enumerate_complete_sequences(rs)
    assert list(_complete_sequences(rs)) == seqs
    # Depth-first over roots in stored order: lexicographic in root indices.
    keys = [tuple(x.root for x in seq) for seq in seqs]
    assert keys == sorted(set(keys)) and len(keys) == 16


def test_complete_sequence_search_yields_before_it_finishes(monkeypatch, d4):
    visited = []
    bits = sequences._bits

    def counted(mask):
        for x in bits(mask):
            visited.append(x)
            yield x

    monkeypatch.setattr(sequences, "_bits", counted)
    search = _complete_sequences(d4)
    first = next(search)
    to_first = len(visited)
    assert sum(1 for _ in search) == 161
    # One candidate per term: the first sequence takes the least root each time.
    assert to_first == d4.n < len(visited) / 50
    assert first == enumerate_complete_sequences(d4)[0]


# Every admissible orientation of the small types, seeded ones of rank 5.
SEARCH_QUIVERS = ([q for family, rank in (("A", 2), ("A", 3), ("A", 4), ("D", 4))
                   for q in admissible_quivers(family, rank)]
                  + [seeded_quiver("A", 5, 21), seeded_quiver("D", 5, 22)])


@pytest.mark.parametrize("quiver", SEARCH_QUIVERS,
                         ids=lambda q: f"{q.family}{q.rank}-{q.arrows}")
def test_mask_search_matches_pairwise_oracle(quiver):
    rs = build_root_system(quiver)
    assert enumerate_complete_sequences(rs) == complete_sequences_pairwise(rs)


@pytest.mark.parametrize("family,rank", [
    *(("A", r) for r in range(1, 9)), *(("D", r) for r in range(4, 9)),
    ("E", 6), ("E", 7), ("E", 8),
])
def test_sequence_count_is_the_closed_form(family, rank):
    # Obaid-Nauman-Al-Shammakh-Fakieh-Ringel: n! h^n / |W| sequences.  The
    # states are the wide subcategories, as many as elements of [1, c].
    for quiver in (QuiverDescriptor.standard(family, rank),
                   seeded_quiver(family, rank, 100 + rank)):
        rs = build_root_system(quiver)
        counts = _sequence_counts(rs)
        assert counts[_all_roots(rs)] == (factorial(rs.n) * rs.coxeter_number ** rs.n
                                          // rs.weyl_order()), quiver
        assert len(counts) == fuss_catalan(rs, 1), quiver


# The states of the count are the perpendicular categories of exceptional
# sequences of modules: the wide subcategories, one per element of [1, c].
@pytest.mark.parametrize("family,rank,every_orientation", [
    *(("A", r, True) for r in range(1, 6)), ("D", 4, True), ("D", 5, True),
    ("A", 6, False), ("D", 6, False), ("E", 6, False),
])
def test_count_states_are_the_wide_subcategories(family, rank, every_orientation):
    quivers = (admissible_quivers(family, rank) if every_orientation
               else [QuiverDescriptor.standard(family, rank)])
    for quiver in quivers:
        rs = build_root_system(quiver)
        group = generate_weyl(rs)
        assert set(_sequence_counts(rs)) == set(group.elements), quiver


def test_sample_is_seeded_and_draws_complete_sequences(a3, d4):
    for rs in (a3, d4):
        counts = _sequence_counts(rs)
        draws = list(_sample_complete_sequences(rs, counts, 300, 5))
        assert draws == list(_sample_complete_sequences(rs, counts, 300, 5))
        assert draws != list(_sample_complete_sequences(rs, counts, 300, 6))
        assert set(draws) <= set(complete_sequences_pairwise(rs))


def test_sample_is_uniform_a3(a3):
    draws = Counter(_sample_complete_sequences(a3, _sequence_counts(a3), 16_000, 3))
    assert set(draws) == set(complete_sequences_pairwise(a3))
    assert all(800 <= k <= 1200 for k in draws.values()), draws


def test_a2_sequences_by_hand(a2):
    s1, s2, p1 = simple(a2, 1), simple(a2, 2), proj(a2, 1)
    assert set(enumerate_complete_sequences(a2)) == {(s1, s2), (s2, p1), (p1, s1)}


def test_mutation_closure_is_transitive(a3):
    # One orbit under all mu_i reaches every complete module sequence.
    seqs = set(enumerate_complete_sequences(a3))
    start = next(iter(seqs))
    seen = {start}
    frontier = [start]
    while frontier:
        seq = frontier.pop()
        for i in (1, 2):
            for direction in ("right", "left"):
                new, _ = mutate(seq, i, direction)
                norm = tuple(DObj(a3, x.root, 0) for x in new)
                if norm not in seen:
                    seen.add(norm)
                    frontier.append(norm)
    assert seen == seqs


# mu_rev in closed form: the dual exceptional sequence.  Its signs are the
# pair signs of the input; those of the inverse, reversed and flipped, the
# pair signs of its output.

FLIP = {MutationSign.NEGATIVE: MutationSign.NONNEGATIVE,
        MutationSign.NONNEGATIVE: MutationSign.NEGATIVE,
        MutationSign.ORTHOGONAL: MutationSign.ORTHOGONAL}


def _check_dual(seq, inverse: bool) -> None:
    if inverse:
        out, signs = mu_rev_inverse(seq)
        assert tuple(FLIP[s] for s in reversed(signs)) == pair_signs(out), seq
    else:
        out, signs = mu_rev(seq)
        assert signs == pair_signs(seq), seq
    assert dual_sequence(seq, inverse) == out, seq


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("A", 4), ("D", 4)])
def test_dual_sequence_is_mu_rev_on_verify_inputs(family, rank):
    # verify's inputs, in every orientation: the ordered m-cluster-tilting
    # objects and m-configurations for m <= 2, and the complete sequences.
    for quiver in admissible_quivers(family, rank):
        rs = build_root_system(quiver)
        for seq in _complete_sequences(rs):
            _check_dual(seq, inverse=False)
        for m in (1, 2):
            for col in enumerate_kind(rs, "m-cluster-tilting", m):
                _check_dual(order_silting(col), inverse=False)
            for col in enumerate_kind(rs, "m-config", m):
                _check_dual(order_config(col), inverse=True)


@settings(max_examples=30, deadline=None)
@given(rank=st.sampled_from((6, 7, 8)), seed=st.integers(0, 10**6), data=st.data())
def test_dual_sequence_is_mu_rev_on_random_orientations(rank, seed, data):
    # A complete sequence drawn term by term from the perpendicular
    # category of its prefix, each term in a random degree.
    rs = build_root_system(seeded_quiver("E", rank, seed))
    perp, allowed, seq = perp_masks(rs), _all_roots(rs), ()
    while allowed:
        x = data.draw(st.sampled_from(list(_bits(allowed))))
        seq += (DObj(rs, x, data.draw(st.integers(-3, 3))),)
        allowed &= perp[x]
    _check_dual(seq, inverse=False)
    _check_dual(seq, inverse=True)
