"""Weyl group layer: lengths, noncrossing partitions, phi."""
import itertools
from functools import reduce

import pytest

from exseq import (
    DObj, QuiverDescriptor, collection, enumerate_complete_sequences,
    enumerate_kind, enumerate_m_nc, fuss_catalan, generate_weyl, is_exceptional,
    mutate, phi, phi_inverse, proj, reflection_matrix, shift, simple,
)
from exseq.sequences import _words
from exseq.weyl import mat_identity, mat_mul, nc_from_words, nc_to_dict, nc_words

from oracle import (
    abs_length, admissible_quivers, cayley_abs_lengths, coxeter_element,
    enumerate_m_nc_scan, fixed_space_interval, phi_inverse_matrix, seeded_quiver,
    sequence_reflection_product, simples_of_wide, wide_subcategory,
)


def test_group_sizes(a1, a2, b2):
    for rs, order, reflections in ((a1, 2, 1), (a2, 6, 3), (b2, 8, 4)):
        group = generate_weyl(rs)
        assert len(cayley_abs_lengths(group)) == order
        assert len(group.elements) == fuss_catalan(rs, 1)
        assert sum(group.abs_length(u) == 1 for u in group.elements) == reflections


def _masks_by_matrix(group):
    return {group.matrix(u): u for u in group.elements}


def test_coxeter_element_order(a2, a3, d4, b2):
    for rs in (a2, a3, d4, b2):
        c = rs.coxeter_matrix
        power = c
        for _ in range(rs.coxeter_number - 1):
            assert power != mat_identity(rs.n)
            power = mat_mul(power, c)
        assert power == mat_identity(rs.n)


def test_coxeter_element_matches_coxeter_matrix(a2, a3, d4, b2):
    # The product s_1...s_n acts on K_0 exactly as the Coxeter transformation
    # -E^-1 E^T, E the Euler matrix: E c = -E^T.
    for rs in (a2, a3, d4, b2):
        c = coxeter_element(rs)
        assert c == rs.coxeter_matrix
        assert mat_mul(rs.euler_matrix, c) == tuple(
            tuple(-x for x in column) for column in zip(*rs.euler_matrix))


def test_abs_length_values(a2, a3, d4, b2):
    for rs in (a2, a3, d4, b2):
        group = generate_weyl(rs)
        assert group.abs_length(group.identity) == 0
        assert all(group.abs_length(1 << r) == 1
                   for r in range(len(rs.positive_roots)))
        assert group.abs_length(group.coxeter) == rs.n


def test_abs_length_matches_cayley_bfs(a3, b2):
    for rs in (a3, b2):
        group = generate_weyl(rs)
        dist = cayley_abs_lengths(group)
        assert len(dist) == rs.weyl_order()
        masks = _masks_by_matrix(group)
        for w, length in dist.items():
            assert abs_length(rs, w) == length
            if w in masks:
                assert group.abs_length(masks[w]) == length
        # A mask that names no element of [1, c] has no length.
        for u in set(range(1 << len(rs.positive_roots))) - set(group.elements):
            with pytest.raises(ValueError, match="not below the Coxeter"):
                group.abs_length(u)


def _interval_oracle(group):
    """[1, c] as {w : d(w) + d(w^-1 c) = n}, d the Cayley-graph distance."""
    dist = cayley_abs_lengths(group)
    c = group.matrix(group.coxeter)
    c_inv = mat_identity(group.rs.n)    # c has order h, so c^-1 = c^(h-1)
    for _ in range(group.rs.coxeter_number - 1):
        c_inv = mat_mul(c_inv, c)
    # d(w^-1 c) = d(c^-1 w), since an element and its inverse have one length.
    return {w for w, length in dist.items()
            if length + dist[mat_mul(c_inv, w)] == group.rs.n}


def test_interval_matches_cayley_bfs(b2, d4):
    from exseq import build_root_system
    quivers = [d4.quiver] + list(admissible_quivers("A", 3))
    for rs in [b2] + [build_root_system(q) for q in quivers]:
        group = generate_weyl(rs)
        assert set(_masks_by_matrix(group)) == _interval_oracle(group), rs.quiver


def test_interval_matches_fixed_space_descent():
    # Lengths and wide masks of the perpendicular-mask descent against the
    # descent that tests every root against the fixed space of each element.
    from exseq import QuiverDescriptor, build_root_system
    quivers = [q for rank in range(1, 6) for q in admissible_quivers("A", rank)]
    quivers += list(admissible_quivers("D", 4))
    quivers += [QuiverDescriptor.standard(f, n) for f, n in (
        ("D", 5), ("E", 6), ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4),
        ("F", 4), ("G", 2))]
    for q in quivers:
        rs = build_root_system(q)
        group = generate_weyl(rs)
        oracle = fixed_space_interval(rs)
        assert {group.matrix(u): (group.abs_length(u), u)
                for u in group.elements} == oracle, q
        assert [group.matrix(u) for u in group.elements] == sorted(oracle), q


def test_reflection_matrices_are_involutions(d4):
    for r in range(len(d4.positive_roots)):
        t = reflection_matrix(d4, r)
        assert mat_mul(t, t) == mat_identity(d4.n)


def test_nc_counts(a2, a3, d4, b2):
    from exseq import QuiverDescriptor, build_root_system
    d5 = build_root_system(QuiverDescriptor.standard("D", 5))
    e6 = build_root_system(QuiverDescriptor.standard("E", 6))
    e7 = build_root_system(QuiverDescriptor.standard("E", 7))
    cases = [(rs, m) for rs in (a2, a3, d4, b2) for m in (1, 2)]
    for rs, m in cases + [(d5, 2), (e6, 1), (e7, 1)]:
        group = generate_weyl(rs)
        assert len(enumerate_m_nc(group, m)) == fuss_catalan(rs, m)


# Every admissible numbering of A1-A5 and D4 at m <= 2, and seeded D5/2 and
# E6/1: the cases the walk-down and the double perpendicular are checked on.
ORACLE_CASES = [(q, m) for family, rank in (("A", 1), ("A", 2), ("A", 3), ("A", 4),
                                            ("A", 5), ("D", 4))
                for q in admissible_quivers(family, rank) for m in (0, 1, 2)]
ORACLE_CASES += [(seeded_quiver("D", 5, 2), 2), (seeded_quiver("E", 6, 2), 1)]


def test_nc_matches_scan_oracle():
    # The walk down from each part against the scan of [1, c] below it,
    # order included.
    from exseq import build_root_system
    for q, m in ORACLE_CASES:
        group = generate_weyl(build_root_system(q))
        assert enumerate_m_nc(group, m) == enumerate_m_nc_scan(group, m), (q, m)


def test_phi_inverse_matches_matrix_oracle():
    # The double perpendicular against the products along the exceptional
    # order, on every configuration.  A5 has 60 numberings, whose 93,600
    # configurations take about 40 s (CPython 3.11.7, 2 vCPUs), nearly all
    # in the is_m_config precondition of both sides; it runs on two of them.
    from exseq import QuiverDescriptor, build_root_system
    a5 = QuiverDescriptor.standard("A", 5)
    cases = [(q, m) for q, m in ORACLE_CASES if m and (q.family, q.rank) != ("A", 5)]
    cases += [(a5, 1), (a5, 2), (seeded_quiver("A", 5, 2), 2)]
    for q, m in cases:
        rs = build_root_system(q)
        group = generate_weyl(rs)
        for col in enumerate_kind(rs, "m-config", m):
            assert phi_inverse(group, col, m) == phi_inverse_matrix(group, col, m), (q, col)


def test_phi_inverse_rejects_a_broken_chain(a2, monkeypatch):
    # Degree 1 holds both simples, so its part is c and leaves nothing for
    # the part of degree 0.  Past the precondition, only the chain sees it.
    from exseq import MutationError, weyl
    monkeypatch.setattr(weyl, "is_m_config", lambda col, m: True)
    group = generate_weyl(a2)
    s1, s2 = simple(a2, 1), simple(a2, 2)
    with pytest.raises(MutationError, match="T-reduced"):
        phi_inverse(group, collection([shift(s1, 1), shift(s2, 1), s1]), 1)


@pytest.mark.parametrize("family,rank,every_numbering,arity", [
    ("A", 3, True, 2), ("A", 4, True, 2), ("D", 4, True, 2),
    ("A", 3, False, 3), ("B", 2, False, 3), ("B", 3, False, 2), ("G", 2, False, 2),
])
def test_chain_check_matches_matrix_verdict(family, rank, every_numbering, arity):
    # The chain check of phi and phi_inverse against the verdict of the
    # matrices on every tuple of elements of [1, c]: the parts multiply to c
    # and their lengths, by the fixed space, add to the rank.
    from exseq import QuiverDescriptor, build_root_system
    from exseq.weyl import _check_chain
    quivers = (admissible_quivers(family, rank) if every_numbering
               else [QuiverDescriptor.standard(family, rank)])
    for q in quivers:
        rs = build_root_system(q)
        group = generate_weyl(rs)
        c = group.matrix(group.coxeter)
        lengths = {u: abs_length(rs, group.matrix(u)) for u in group.elements}
        for parts in itertools.product(group.elements, repeat=arity):
            expected = (reduce(mat_mul, map(group.matrix, parts)) == c
                        and sum(map(lengths.__getitem__, parts)) == rs.n)
            try:
                _check_chain(group, parts, ValueError)
            except ValueError:
                assert not expected, (q, parts)
            else:
                assert expected, (q, parts)


COUNT_CASES = [(q, m) for family, rank in (("A", 3), ("A", 4), ("D", 4), ("D", 5))
               for q in (QuiverDescriptor.standard(family, rank),
                         seeded_quiver(family, rank, 2))
               for m in range(4)]
COUNT_CASES += [(QuiverDescriptor.standard(family, rank), m)
                for family, rank in (("B", 3), ("F", 4), ("G", 2)) for m in range(4)]
# Above m = 2 each count needs several bit planes.  These are too many to
# list, so they are checked against the closed form only.
COUNT_ONLY_CASES = [(QuiverDescriptor.standard("E", rank), m)
                    for rank in (6, 7) for m in (3, 4)]


def test_count_memo_matches_listing():
    from exseq import build_root_system
    from exseq.weyl import _count_m_nc
    for q, m in COUNT_CASES:
        rs = build_root_system(q)
        group = generate_weyl(rs)
        assert (_count_m_nc(group, m) == fuss_catalan(rs, m)
                == len(enumerate_m_nc(group, m))), (q, m)
    for q, m in COUNT_ONLY_CASES:
        rs = build_root_system(q)
        assert _count_m_nc(generate_weyl(rs), m) == fuss_catalan(rs, m), (q, m)
    with pytest.raises(ValueError, match="non-negative"):
        _count_m_nc(group, -1)


def test_nc_m0_and_structure(a2):
    group = generate_weyl(a2)
    assert enumerate_m_nc(group, 0) == [(group.coxeter,)]
    tuples = enumerate_m_nc(group, 1)
    assert len(tuples) == 5
    assert (group.identity, group.coxeter) in tuples
    assert (group.coxeter, group.identity) in tuples
    masks = _masks_by_matrix(group)
    for r in range(len(a2.positive_roots)):
        t = group.matrix(1 << r)
        assert (1 << r, masks[mat_mul(t, group.matrix(group.coxeter))]) in tuples


def test_reflection_factorizations(a2, a3):
    # The T-reduced words of u in [1, c] are the complete exceptional
    # sequences of W(u), read by the perpendicular walker.
    g2 = generate_weyl(a2)
    assert len(list(_words(g2._perp, g2.coxeter))) == 3
    assert list(_words(g2._perp, 1 << 0)) == [(0,)]
    g3 = generate_weyl(a3)
    assert len(list(_words(g3._perp, g3.coxeter))) == 16


def test_factorizations_need_below_coxeter(a3):
    group = generate_weyl(a3)
    outside = set(cayley_abs_lengths(group)) - set(_masks_by_matrix(group))
    assert len(outside) == 24 - 14
    for w in set(range(1 << len(a3.positive_roots))) - set(group.elements):
        assert not group.below_coxeter(w)
        with pytest.raises(ValueError, match="not below the Coxeter element"):
            group.abs_length(w)


def test_factorization_count_equals_sequence_count(a2, a3):
    for rs in (a2, a3):
        group = generate_weyl(rs)
        words = list(_words(group._perp, group.coxeter))
        assert len(words) == len(enumerate_complete_sequences(rs))


def test_reflection_of_object(a2):
    s1, p1 = simple(a2, 1), proj(a2, 1)
    # The reflection of an object is that of its class: degree-independent.
    assert reflection_matrix(s1.rs, s1.root) == reflection_matrix(a2, 0)
    for k in (-1, 0, 3):
        x = shift(p1, k)
        assert reflection_matrix(x.rs, x.root) == reflection_matrix(a2, 2)


def test_sequence_products_give_coxeter(a2, a3):
    for rs in (a2, a3):
        c = rs.coxeter_matrix
        for seq in enumerate_complete_sequences(rs):
            assert sequence_reflection_product(seq) == c


def test_mutation_group_compatibility(a3):
    # t_[Ei] t_[Ei+1] = t_[Ei+1] t_[Ei*] across every mutation.
    for seq in enumerate_complete_sequences(a3):
        for i in (1, 2):
            new, _ = mutate(seq, i, "right")
            lhs = mat_mul(reflection_matrix(a3, seq[i - 1].root),
                          reflection_matrix(a3, seq[i].root))
            rhs = mat_mul(reflection_matrix(a3, new[i - 1].root),
                          reflection_matrix(a3, new[i].root))
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

    def all_completions(rs, seq):
        if len(seq) == rs.n:
            yield seq
            return
        for root in range(len(rs.positive_roots)):
            cand = DObj(rs, root, 0)
            if is_exceptional(seq + (cand,)):
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
    t11, s1_refl = 1 << 2, 1 << 0
    assert group.matrix(t11) == reflection_matrix(a2, 2)
    assert group.matrix(s1_refl) == reflection_matrix(a2, 0)
    assert phi(group, (c, e)) == collection([shift(s1, 1), shift(s2, 1)])
    assert phi(group, (t11, s1_refl)) == collection([shift(p1, 1), s1])
    assert phi_inverse(group, collection([s1, s2]), 1) == (e, c)


def test_phi_validates_input(a2):
    group = generate_weyl(a2)
    with pytest.raises(ValueError):
        phi(group, (group.identity, group.identity))
    with pytest.raises(ValueError):
        phi_inverse(group, collection([proj(a2, 1), simple(a2, 1)]), 1)
    with pytest.raises(ValueError, match="Coxeter element"):
        phi(group, ())


def test_phi_rejects_parts_off_the_interval(a2):
    # c has order 3 in A2, so (c^-1, c^-1) multiplies to c, but c^-1 is not
    # below c: its lengths add to 4, not 2.  c^-1 = s2 s1 has no mask, so
    # only the words of a record can name it.
    group = generate_weyl(a2)
    c = group.matrix(group.coxeter)
    c_inv = mat_mul(c, c)
    assert mat_mul(c_inv, c_inv) == c
    assert c_inv not in _masks_by_matrix(group)
    with pytest.raises(ValueError, match="not T-reduced"):
        nc_from_words(group, [[1, 0], [1, 0]])
    # {alpha_1, alpha_2} lacks alpha_1 + alpha_2, so it is no wide mask.
    assert not group.below_coxeter(0b011)
    with pytest.raises(ValueError, match="not T-reduced"):
        phi(group, (0b011, 0))


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
    from exseq.sequences import _words
    from exseq.silting import collection as make_collection

    group = generate_weyl(a3)
    for parts in enumerate_m_nc(group, 1)[:20]:
        results = set()
        all_words = [list(_words(group._perp, u)) for u in parts]
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
            word = next(_words(group._perp, u))
            chunk = tuple(DObj(a3, r, 0) for r in word)
            simples = simples_of_wide(wide_subcategory(chunk))
            assert len(simples) == length


@pytest.mark.parametrize("family,rank,every_numbering", [
    ("A", 3, True), ("A", 4, True), ("D", 4, True), ("D", 5, False),
])
def test_wide_masks_match_oracle(family, rank, every_numbering):
    # The mask of u against the perpendicular of a completed reduced word
    # for u, its simples against the subset-sum search, and mask
    # containment against the absolute order read off lengths.  A reflection
    # is an involution, so u^-1 is the product of a word for u reversed.
    from exseq import QuiverDescriptor, build_root_system
    from exseq.weyl import _simple_roots
    quivers = (admissible_quivers(family, rank) if every_numbering
               else [QuiverDescriptor.standard(family, rank)])
    for q in quivers:
        rs = build_root_system(q)
        group = generate_weyl(rs)
        masks = _masks_by_matrix(group)
        assert masks[mat_identity(rs.n)] == group.identity == 0
        inverses = {group.identity: mat_identity(rs.n)}
        for u in group.elements:
            if u == group.identity:
                continue
            word = next(_words(group._perp, u))
            chunk = tuple(DObj(rs, r, 0) for r in word)
            assert sequence_reflection_product(chunk) == group.matrix(u)
            assert len(word) == abs_length(rs, group.matrix(u))
            inverses[u] = sequence_reflection_product(chunk[::-1])
            wide = wide_subcategory(chunk)
            assert u == sum(1 << x.root for x in wide), (q, u)
            simples = simples_of_wide(wide, expected_rank=len(word))
            assert _simple_roots(group, u) == sorted(x.root for x in simples)
        # u <= v <= c puts u^-1 v in [1, c] too, so off it u is not below v.
        for u, v in itertools.product(group.elements, repeat=2):
            lu, lv = group.abs_length(u), group.abs_length(v)
            below = False
            if lu <= lv:
                cofactor = mat_mul(inverses[u], group.matrix(v))
                below = (cofactor in masks
                         and lu + group.abs_length(masks[cofactor]) == lv)
            assert (not u & ~v) == below, (q, u, v)


def test_nc_json_round_trip(a3):
    group = generate_weyl(a3)
    for parts in enumerate_m_nc(group, 2)[:10]:
        data = nc_to_dict(group, parts, with_matrices=True)
        assert nc_from_words(group, nc_words(a3, data)) == parts
        assert data["matrices"] == [[list(row) for row in group.matrix(u)]
                                    for u in parts]


def test_weyl_only_family_full_stack(b2):
    group = generate_weyl(b2)
    assert len(enumerate_m_nc(group, 1)) == fuss_catalan(b2, 1) == 6
    assert abs_length(b2, group.matrix(group.coxeter)) == 2
