"""Weyl group layer: lengths, noncrossing partitions, phi."""
import itertools

import pytest

from exseq import (
    DObj, abs_length, collection, coxeter_element, enumerate_complete_sequences,
    enumerate_kind, enumerate_m_nc, fuss_catalan, generate_weyl, mutate, phi,
    phi_inverse, proj, reflection_factorizations, reflection_matrix,
    reflection_of_object, sequence_reflection_product, shift, simple,
    simples_of_wide, wide_subcategory,
)
from exseq.weyl import mat_identity, mat_mul, nc_from_dict, nc_to_dict

from oracle import admissible_quivers, cayley_abs_lengths


def test_group_sizes(a1, a2, b2):
    for rs, order, reflections in ((a1, 2, 1), (a2, 6, 3), (b2, 8, 4)):
        group = generate_weyl(rs)
        assert len(cayley_abs_lengths(group)) == order
        assert len(group.elements) == fuss_catalan(rs, 1)
        assert len(group.reflections) == reflections


def test_coxeter_element_order(a2, a3, d4, b2):
    for rs in (a2, a3, d4, b2):
        c = coxeter_element(rs)
        power = c
        for _ in range(rs.coxeter_number - 1):
            assert power != mat_identity(rs.n)
            power = mat_mul(power, c)
        assert power == mat_identity(rs.n)


def test_coxeter_element_matches_coxeter_matrix(a2, a3, d4):
    # The product s_1...s_n acts on K_0 exactly as the Coxeter transformation.
    for rs in (a2, a3, d4):
        assert coxeter_element(rs) == rs.coxeter_matrix


def test_abs_length_values(a2, a3, d4, b2):
    for rs in (a2, a3, d4, b2):
        group = generate_weyl(rs)
        assert group.abs_length(group.identity) == 0
        assert all(group.abs_length(t) == 1 for t in group.reflections)
        assert group.abs_length(group.coxeter) == rs.n


def test_abs_length_matches_cayley_bfs(a3, b2):
    for rs in (a3, b2):
        group = generate_weyl(rs)
        dist = cayley_abs_lengths(group)
        assert len(dist) == rs.weyl_order()
        for w, length in dist.items():
            assert abs_length(rs, w) == length
            assert group.abs_length(w) == length


def _interval_oracle(group):
    """[1, c] as {w : d(w) + d(w^-1 c) = n}, d the Cayley-graph distance."""
    dist = cayley_abs_lengths(group)
    c_inv = group.identity    # c has order h, so c^-1 = c^(h-1)
    for _ in range(group.rs.coxeter_number - 1):
        c_inv = mat_mul(c_inv, group.coxeter)
    # d(w^-1 c) = d(c^-1 w), since an element and its inverse have one length.
    return {w for w, length in dist.items()
            if length + dist[mat_mul(c_inv, w)] == group.rs.n}


def test_interval_matches_cayley_bfs(b2, d4):
    from exseq import build_root_system
    quivers = [d4.quiver] + list(admissible_quivers("A", 3))
    for rs in [b2] + [build_root_system(q) for q in quivers]:
        group = generate_weyl(rs)
        assert set(group.elements) == _interval_oracle(group), rs.quiver
        for w in group.elements:
            assert mat_mul(group.inverse(w), w) == group.identity


def test_reflection_matrices_are_involutions(d4):
    for r in range(len(d4.positive_roots)):
        t = reflection_matrix(d4, r)
        assert mat_mul(t, t) == mat_identity(d4.n)


def test_nc_counts(a2, a3, d4, b2):
    for rs in (a2, a3, d4, b2):
        group = generate_weyl(rs)
        for m in (1, 2):
            assert len(enumerate_m_nc(group, m)) == fuss_catalan(rs, m)


def test_nc_m0_and_structure(a2):
    group = generate_weyl(a2)
    assert enumerate_m_nc(group, 0) == [(group.coxeter,)]
    tuples = enumerate_m_nc(group, 1)
    assert len(tuples) == 5
    assert (group.identity, group.coxeter) in tuples
    assert (group.coxeter, group.identity) in tuples
    for t in group.reflections:
        assert (t, mat_mul(t, group.coxeter)) in tuples


def test_reflection_factorizations(a2, a3):
    g2 = generate_weyl(a2)
    assert len(reflection_factorizations(g2, g2.coxeter)) == 3
    t = g2.reflections[0]
    assert reflection_factorizations(g2, t) == [(0,)]
    g3 = generate_weyl(a3)
    assert len(reflection_factorizations(g3, g3.coxeter)) == 16
    assert len(reflection_factorizations(g3, g3.coxeter, first_only=True)) == 1


def test_factorizations_need_below_coxeter(a3):
    group = generate_weyl(a3)
    outside = set(cayley_abs_lengths(group)) - set(group.elements)
    assert len(outside) == 24 - 14
    for w in outside:
        assert not group.below_coxeter(w)
        with pytest.raises(ValueError):
            reflection_factorizations(group, w)


def test_factorization_count_equals_sequence_count(a2, a3):
    for rs in (a2, a3):
        group = generate_weyl(rs)
        words = reflection_factorizations(group, group.coxeter)
        assert len(words) == len(enumerate_complete_sequences(rs))


def test_reflection_of_object(a2):
    s1, p1 = simple(a2, 1), proj(a2, 1)
    assert reflection_of_object(s1) == reflection_matrix(a2, 0)
    for k in (-1, 0, 3):
        assert reflection_of_object(shift(p1, k)) == reflection_matrix(a2, 2)


def test_sequence_products_give_coxeter(a2, a3):
    for rs in (a2, a3):
        c = coxeter_element(rs)
        for seq in enumerate_complete_sequences(rs):
            assert sequence_reflection_product(seq) == c


def test_mutation_group_compatibility(a3):
    # t_[Ei] t_[Ei+1] = t_[Ei+1] t_[Ei*] across every mutation.
    for seq in enumerate_complete_sequences(a3):
        for i in (1, 2):
            new, _ = mutate(seq, i, "right")
            lhs = mat_mul(reflection_of_object(seq[i - 1]),
                          reflection_of_object(seq[i]))
            rhs = mat_mul(reflection_of_object(new[i - 1]),
                          reflection_of_object(new[i]))
            assert lhs == rhs


def test_wide_subcategory_a2(a2):
    s1, s2, p1 = simple(a2, 1), simple(a2, 2), proj(a2, 1)
    assert wide_subcategory((p1,)) == frozenset({p1})
    assert wide_subcategory((s1, s2)) == frozenset({s1, s2, p1})
    assert wide_subcategory((s1,)) == frozenset({s1})
    with pytest.raises(ValueError):
        wide_subcategory((shift(s1, 1),))


def test_wide_subcategory_completion_independent(a3):
    # The perpendicular description cannot depend on the chosen completion:
    # check against every completion, found by exhaustive search.
    from exseq.derived import ext_dim, hom_dim
    from exseq.sequences import _extends

    def all_completions(rs, seq):
        if len(seq) == rs.n:
            yield seq
            return
        for root in range(len(rs.positive_roots)):
            cand = DObj(rs, root, 0)
            if _extends(cand, seq):
                yield from all_completions(rs, seq + (cand,))

    for root in range(len(a3.positive_roots)):
        chunk = (DObj(a3, root, 0),)
        results = set()
        for full in all_completions(a3, chunk):
            appended = full[1:]
            perp = frozenset(
                DObj(a3, r, 0) for r in range(len(a3.positive_roots))
                if all(hom_dim(g, DObj(a3, r, 0)) == 0
                       and ext_dim(g, DObj(a3, r, 0), 1) == 0 for g in appended)
            )
            results.add(perp)
        assert results == {wide_subcategory(chunk)}


def test_simples_of_wide(a2, a3):
    s1, s2, p1 = simple(a2, 1), simple(a2, 2), proj(a2, 1)
    assert simples_of_wide({s1, s2, p1}) == {s1, s2}
    assert simples_of_wide({p1}) == {p1}
    wide = wide_subcategory((proj(a3, 1),))
    assert simples_of_wide(wide, expected_rank=1) == {proj(a3, 1)}


def test_simples_rank_check(a2):
    s1, s2, p1 = simple(a2, 1), simple(a2, 2), proj(a2, 1)
    from exseq import MutationError
    with pytest.raises(MutationError):
        simples_of_wide({s1, s2, p1}, expected_rank=3)


def test_phi_examples_a2(a2):
    group = generate_weyl(a2)
    s1, s2, p1 = simple(a2, 1), simple(a2, 2), proj(a2, 1)
    c, e = group.coxeter, group.identity
    t11 = reflection_matrix(a2, 2)
    s1_refl = reflection_matrix(a2, 0)
    assert phi(group, (c, e)) == collection([shift(s1, 1), shift(s2, 1)])
    assert phi(group, (t11, s1_refl)) == collection([shift(p1, 1), s1])
    assert phi_inverse(group, collection([s1, s2]), 1) == (e, c)


def test_phi_validates_input(a2):
    group = generate_weyl(a2)
    with pytest.raises(ValueError):
        phi(group, (group.identity, group.identity))
    with pytest.raises(ValueError):
        phi_inverse(group, collection([proj(a2, 1), simple(a2, 1)]), 1)


@pytest.mark.parametrize("family,rank,ms", [
    ("A", 2, (1, 2)), ("A", 3, (1, 2)), ("D", 4, (1,)),
])
def test_phi_bijection(family, rank, ms):
    # The interval [1, c] depends on c, so every admissible numbering counts.
    from exseq import build_root_system
    for q in admissible_quivers(family, rank):
        rs = build_root_system(q)
        group = generate_weyl(rs)
        for m in ms:
            configs = set(enumerate_kind(rs, "m-config", m))
            image = set()
            for t in enumerate_m_nc(group, m):
                out = phi(group, t)
                assert phi_inverse(group, out, m) == t
                image.add(out)
            assert image == configs, (q, m)


def test_phi_word_independent(a3):
    # phi must not depend on which reduced word represents each part.
    from exseq.weyl import _factorization_words
    from exseq.sequences import is_exceptional
    from exseq.silting import collection as make_collection

    group = generate_weyl(a3)
    for parts in enumerate_m_nc(group, 1)[:20]:
        results = set()
        all_words = [
            list(_factorization_words(group, u, group.abs_length(u)))
            for u in parts
        ]
        for combo in itertools.product(*all_words):
            chunks = [tuple(DObj(a3, r, 0) for r in word) for word in combo]
            full = tuple(x for chunk in chunks for x in chunk)
            assert is_exceptional(full)
            out = []
            for i, chunk in enumerate(chunks, start=1):
                if not chunk:
                    continue
                simples = simples_of_wide(wide_subcategory(chunk),
                                          expected_rank=len(chunk))
                out.extend(shift(x, len(parts) - i) for x in simples)
            results.add(make_collection(out))
        assert len(results) == 1
        assert results == {phi(group, parts)}


def test_simples_count_matches_length(a3):
    group = generate_weyl(a3)
    for parts in enumerate_m_nc(group, 1):
        for u in parts:
            length = group.abs_length(u)
            if length == 0:
                continue
            word = reflection_factorizations(group, u, first_only=True)[0]
            chunk = tuple(DObj(a3, r, 0) for r in word)
            simples = simples_of_wide(wide_subcategory(chunk))
            assert len(simples) == length


def test_nc_json_round_trip(a3):
    group = generate_weyl(a3)
    for parts in enumerate_m_nc(group, 2)[:10]:
        data = nc_to_dict(group, parts, with_matrices=True)
        assert nc_from_dict(group, data) == parts
        assert data["matrices"] == [[list(row) for row in u] for u in parts]


def test_weyl_only_family_full_stack(b2):
    group = generate_weyl(b2)
    assert len(enumerate_m_nc(group, 1)) == fuss_catalan(b2, 1) == 6
    assert abs_length(b2, group.coxeter) == 2
