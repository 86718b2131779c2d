"""Silting objects, configurations, enumeration and the object bijection."""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from exseq import (
    MutationError, MutationSign, QuiverDescriptor, WindowSpec, build_root_system,
    collection, config_to_silting, enumerate_configs, enumerate_kind,
    enumerate_silting, is_hom_leq0_config, is_m_cluster_tilting, is_m_config,
    is_silting, mu_rev, mu_rev_inverse, proj, shift, silting_to_config, simple,
)
from exseq.derived import nonzero_exts, window_objects
from exseq.sequences import is_exceptional
from exseq.silting import (
    _M_KINDS, _cliques_of_size, _compatibility_graph, _explain_pairs, _topo_sort,
    collection_from_list, collection_to_list, enumerate_kind_indexed,
    explain_not_config, explain_not_silting, order_config, order_silting,
)

from oracle import (
    admissible_quivers, config_compatible, lex_cliques, seeded_quiver,
    silting_compatible,
)


def test_silting_predicates_a2(a2):
    s1, s2, p1 = simple(a2, 1), simple(a2, 2), proj(a2, 1)
    assert is_silting(collection([p1, s1]))            # a tilting module
    assert _explain_pairs(collection([s1, shift(s1, 1)]).objects, "silting")
    assert _explain_pairs(collection([shift(s1, 1), shift(s2, 1)]).objects, "silting")
    assert _explain_pairs(collection([p1]).objects, "silting") is None
    assert not is_silting(collection([p1]))            # maximality needs n summands


def test_cluster_tilting_predicates_a2(a2):
    s1, s2, p1 = simple(a2, 1), simple(a2, 2), proj(a2, 1)
    assert is_m_cluster_tilting(collection([shift(p1, 1), shift(s2, 1)]), 1)  # H[1]
    assert is_m_cluster_tilting(collection([s1, p1]), 1)   # DH: injectives at 0
    assert not is_m_cluster_tilting(collection([s1, shift(s1, 1)]), 1)
    assert not is_m_cluster_tilting(collection([s2, shift(s1, 1)]), 1)  # S2 not injective
    with pytest.raises(ValueError):
        is_m_cluster_tilting(collection([s1, p1]), 0)


def test_config_predicates_a2(a2):
    s1, s2, p1 = simple(a2, 1), simple(a2, 2), proj(a2, 1)
    assert is_hom_leq0_config(collection([s1, s2]))
    assert is_hom_leq0_config(collection([shift(p1, 1), s1]))
    assert not is_hom_leq0_config(collection([p1, s1]))   # Hom(P1, S1) nonzero
    assert is_m_config(collection([s1, s2]), 1)
    assert not is_m_config(collection([shift(s1, 2), shift(s2, 2)]), 1)


def test_all_five_a2_1_configs(a2):
    s1, s2, p1 = simple(a2, 1), simple(a2, 2), proj(a2, 1)
    expected = {
        collection([s1, s2]),
        collection([shift(s1, 1), shift(s2, 1)]),
        collection([shift(p1, 1), s1]),
        collection([s2, shift(s1, 1)]),
        collection([p1, shift(s2, 1)]),
    }
    assert set(enumerate_kind(a2, "m-config", 1)) == expected


def test_topo_sort_cycle_and_tie_break(a3):
    s1, s2, s3 = simple(a3, 1), simple(a3, 2), simple(a3, 3)
    root = lambda x: x.root
    assert _topo_sort([s1, s2], lambda a, b: True, root) is None      # a 2-cycle
    assert _topo_sort([s2, s1], lambda a, b: False, root) == [s1, s2]
    # Only s3 -> s1: s2 and s3 are ready first and s2 has the lower key.
    edge = lambda a, b: (a, b) == (s3, s1)
    assert _topo_sort([s1, s2, s3], edge, root) == [s2, s3, s1]
    assert _topo_sort([s1, s3], edge, root) == [s3, s1]
    # The key decides among the ready objects: the highest root first.
    assert _topo_sort([s1, s2, s3], edge, lambda x: -x.root) == [s3, s2, s1]


def test_ext1_digraph_of_simples_is_acyclic(a3):
    # Ext^1 edges among degree-0 simples follow the arrows, so no cycle:
    # an Ext^1 cycle would need same-degree modules cycling, which the
    # topological numbering forbids for simples.
    col = collection([simple(a3, 1), simple(a3, 2), simple(a3, 3)])
    assert is_hom_leq0_config(col)


def test_explanations(a2):
    s1, s2, p1 = simple(a2, 1), simple(a2, 2), proj(a2, 1)
    assert explain_not_silting(collection([p1, s1])) is None
    assert "Ext^1" in explain_not_silting(collection([shift(s1, 1), shift(s2, 1)]))
    assert "summands" in explain_not_silting(collection([p1]))
    assert explain_not_config(collection([s1, s2])) is None
    assert "Hom" in explain_not_config(collection([p1, s1]))


ENUM_COUNTS = [
    ("A", 2, 1, 5), ("A", 2, 2, 12), ("A", 2, 3, 22),
    ("A", 3, 1, 14), ("A", 3, 2, 55),
    ("D", 4, 1, 50), ("D", 4, 2, 336),
    ("A", 1, 5, 6),
]


@pytest.mark.parametrize("family,rank,m,count", ENUM_COUNTS)
def test_enumeration_counts(family, rank, m, count):
    from exseq import QuiverDescriptor, build_root_system, fuss_catalan
    rs = build_root_system(QuiverDescriptor.standard(family, rank))
    assert fuss_catalan(rs, m) == count
    assert len(enumerate_kind(rs, "m-cluster-tilting", m)) == count
    assert len(enumerate_kind(rs, "m-config", m)) == count


@pytest.mark.parametrize("family,rank,m,count", [
    ("A", 2, 1, 2), ("A", 2, 2, 7), ("A", 3, 1, 5),
])
def test_positive_enumeration_counts(family, rank, m, count):
    from exseq import QuiverDescriptor, build_root_system, fuss_catalan
    rs = build_root_system(QuiverDescriptor.standard(family, rank))
    assert abs(fuss_catalan(rs, -m - 1)) == count
    assert len(enumerate_kind(rs, "silting-deg1-window", m)) == count
    assert len(enumerate_kind(rs, "m-config-minus", m)) == count


@pytest.mark.parametrize("family,rank", [("A", 3), ("A", 4), ("D", 4)])
def test_ext1_digraph_acyclic_on_windows(family, rank):
    # H4 holds on any set of indecomposables in Dynkin type, which is why
    # enumerate_configs does not check it.
    from graphlib import TopologicalSorter
    from exseq import build_root_system
    from exseq.derived import WindowSpec, ext_dim, window_objects
    for q in admissible_quivers(family, rank):
        objs = window_objects(build_root_system(q), WindowSpec(-1, 3))
        graph = {x: {y for y in objs if ext_dim(x, y, 1)} for x in objs}
        TopologicalSorter(graph).prepare()    # raises CycleError on a cycle


@pytest.mark.parametrize("family,rank,orientations", [("A", 3, 3), ("D", 4, 4)])
def test_enumerated_collections_pass_public_predicates(family, rank, orientations):
    from exseq import build_root_system, fuss_catalan
    from exseq.silting import config_minus_window, shifted_silting_window
    quivers = list(admissible_quivers(family, rank))
    assert len(quivers) == orientations
    for q in quivers:
        rs = build_root_system(q)
        for m in (1, 2):
            checks = {
                "m-cluster-tilting": (fuss_catalan(rs, m),
                                      lambda c: is_m_cluster_tilting(c, m)),
                "m-config": (fuss_catalan(rs, m), lambda c: is_m_config(c, m)),
                "m-config-minus": (
                    abs(fuss_catalan(rs, -m - 1)),
                    lambda c: is_m_config(c, m) and all(
                        config_minus_window(m).contains(x) for x in c.summands)),
                "silting-deg1-window": (
                    abs(fuss_catalan(rs, -m - 1)),
                    lambda c: is_silting(c) and all(
                        shifted_silting_window(m).contains(x) for x in c.summands)),
            }
            for kind, (count, predicate) in checks.items():
                found = enumerate_kind(rs, kind, m)
                assert len(set(found)) == len(found) == count, (q, kind, m)
                bad = [c for c in found if not predicate(c)]
                assert not bad, (q, kind, m, bad[:1])


def test_enumerate_kind_validation(a2):
    with pytest.raises(ValueError):
        enumerate_kind(a2, "m-config", 0)
    with pytest.raises(ValueError):
        enumerate_kind(a2, "everything", 1)
    with pytest.raises(ValueError):
        enumerate_kind(a2, "silting-in-window", 1)


def test_enumerate_in_explicit_window(a2):
    found = enumerate_silting(a2, WindowSpec(0, 0))
    assert len(found) == 2      # the two tilting modules of A2
    assert set(found) == {collection([proj(a2, 1), simple(a2, 1)]),
                          collection([proj(a2, 1), simple(a2, 2)])}
    assert set(enumerate_configs(a2, WindowSpec(0, 1))) == \
        set(enumerate_kind(a2, "m-config", 1))


def test_ordering_helpers(a2):
    s1, s2, p1 = simple(a2, 1), simple(a2, 2), proj(a2, 1)
    assert order_silting(collection([s1, p1])) == (p1, s1)
    assert order_silting(collection([shift(p1, 1), shift(s2, 1)])) == \
        (shift(s2, 1), shift(p1, 1))
    assert order_config(collection([shift(p1, 1), s1])) == (shift(p1, 1), s1)
    assert order_config(collection([s1, s2])) == (s1, s2)   # Ext^1 S1 -> S2


def test_order_contract_off_silting_and_configs(a2):
    # Neither a silting object nor a configuration: S2 and S2[1] have Ext
    # both ways, so no ordering is exceptional; {S2[1], P1} has one, with
    # the higher degree first, as Ext^1(S2[1], P1) = Hom(S2, P1) is nonzero.
    s2, p1 = simple(a2, 2), proj(a2, 1)
    for order in (order_silting, order_config):
        with pytest.raises(MutationError, match="cycle"):
            order(collection([s2, shift(s2, 1)]))
    assert order_silting(collection([shift(s2, 1), p1])) == (shift(s2, 1), p1)


def test_bijection_examples_a2(a2):
    s1, s2, p1 = simple(a2, 1), simple(a2, 2), proj(a2, 1)
    assert silting_to_config(collection([shift(p1, 1), shift(s2, 1)])) == \
        collection([shift(p1, 1), s1])
    assert silting_to_config(collection([p1, s1])) == collection([s1, s2])
    with pytest.raises(ValueError):
        silting_to_config(collection([s1, s2]))
    with pytest.raises(ValueError):
        config_to_silting(collection([p1, s1]))


@pytest.mark.parametrize("family,rank,m", [
    ("A", 2, 1), ("A", 2, 2), ("A", 3, 1), ("A", 3, 2), ("D", 4, 1),
])
def test_bijection_round_trip_and_image(family, rank, m):
    from exseq import QuiverDescriptor, build_root_system
    rs = build_root_system(QuiverDescriptor.standard(family, rank))
    tilting = enumerate_kind(rs, "m-cluster-tilting", m)
    configs = set(enumerate_kind(rs, "m-config", m))
    image = set()
    for col in tilting:
        out = silting_to_config(col)
        assert is_m_config(out, m)
        assert config_to_silting(out) == col
        image.add(out)
    assert image == configs


def test_positive_windows_correspond(a2):
    # mu_rev carries silting in degrees 1..m onto minus-window m-configs.
    for m in (1, 2):
        shifted = enumerate_kind(a2, "silting-deg1-window", m)
        minus = set(enumerate_kind(a2, "m-config-minus", m))
        assert {silting_to_config(c) for c in shifted} == minus


def _admissible_orderings(col, side):
    """Every permutation of the summands that is an exceptional sequence and
    respects the degree discipline of the given side."""
    objs = list(col.summands)
    out = []
    for perm in itertools.permutations(objs):
        degrees = [x.degree for x in perm]
        if side == "silting" and degrees != sorted(degrees):
            continue
        if side == "config" and degrees != sorted(degrees, reverse=True):
            continue
        if is_exceptional(perm):
            out.append(perm)
    return out


def _least_exceptional(col, key):
    """The exceptional ordering of the summands whose key sequence is least."""
    return min((perm for perm in itertools.permutations(col.objects)
                if is_exceptional(perm)), key=lambda perm: [key(x) for x in perm])


def test_output_independent_of_admissible_ordering(a3):
    for m in (1, 2):
        for col in enumerate_kind(a3, "m-cluster-tilting", m):
            orderings = _admissible_orderings(col, "silting")
            assert order_silting(col) in orderings
            assert order_silting(col) == _least_exceptional(
                col, lambda x: (x.degree, x.root))
            results = {collection(mu_rev(seq)[0]) for seq in orderings}
            assert len(results) == 1
        for col in enumerate_kind(a3, "m-config", m):
            orderings = _admissible_orderings(col, "config")
            assert order_config(col) in orderings
            assert order_config(col) == _least_exceptional(
                col, lambda x: (-x.degree, x.root))
            results = {collection(mu_rev_inverse(seq)[0]) for seq in orderings}
            assert len(results) == 1


def test_sign_lemmas_a3(a3):
    from exseq.sequences import mu_rev_inverse_steps, mu_rev_steps
    for m in (1, 2):
        for col in enumerate_kind(a3, "m-cluster-tilting", m):
            for _, sign, _ in mu_rev_steps(order_silting(col)):
                assert sign in (MutationSign.NEGATIVE, MutationSign.ORTHOGONAL)
            cfg = silting_to_config(col)
            for _, sign, _ in mu_rev_inverse_steps(order_config(cfg)):
                assert sign in (MutationSign.NONNEGATIVE, MutationSign.ORTHOGONAL)


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from("AD"), seed=st.integers(0, 10**6),
       m=st.sampled_from((1, 2)), data=st.data())
def test_sign_lemmas_on_random_orientations(family, seed, m, data):
    # Each direction checks its own sign lemma as a postcondition and raises
    # MutationError on a violation, so a round trip runs both.
    rs = build_root_system(seeded_quiver(family, 5, seed))
    tilting = enumerate_kind(rs, "m-cluster-tilting", m)
    for x in data.draw(st.lists(st.sampled_from(tilting), min_size=1, max_size=4)):
        assert config_to_silting(silting_to_config(x)) == x


def test_collection_json_round_trip(a2):
    col = collection([proj(a2, 1, 1), simple(a2, 1)])
    data = collection_to_list(col)
    assert data == [{"dim": [1, 0], "deg": 0}, {"dim": [1, 1], "deg": 1}]
    assert collection_from_list(a2, data) == col


def test_collection_validation(a2, a3):
    with pytest.raises(ValueError):
        collection([])
    with pytest.raises(ValueError):
        collection([simple(a2, 1), simple(a3, 1)])


def test_collection_dedupes(a2):
    s1, p1 = simple(a2, 1), proj(a2, 1)
    col = collection([p1, s1, p1, s1, s1])
    assert col.objects == (s1, p1)
    assert col == collection([s1, p1])
    assert col.summands == frozenset({s1, p1})


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4)])
def test_enumerated_collections_are_canonical(family, rank):
    from exseq import QuiverDescriptor, build_root_system
    rs = build_root_system(QuiverDescriptor.standard(family, rank))
    for m in (1, 2):
        for enumerate_in in (enumerate_silting, enumerate_configs):
            for c in enumerate_in(rs, WindowSpec(0, m)):
                rebuilt = collection(reversed(c.objects))
                assert (rebuilt, hash(rebuilt), repr(rebuilt)) == \
                    (c, hash(c), repr(c)), (enumerate_in.__name__, m)
                assert isinstance(c.summands, frozenset)
                assert c.summands == frozenset(c.objects)


def _unpacked(flat, k: int) -> list[tuple[int, ...]]:
    """The packed k-cliques as a list of tuples, in buffer order."""
    assert flat.format == "H"
    assert len(flat) % k == 0
    return list(zip(*[iter(flat)] * k))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cliques_match_brute_force(data):
    count = data.draw(st.integers(0, 16))
    k = data.draw(st.integers(1, 6))
    density = data.draw(st.integers(0, 10))
    pairs = list(itertools.combinations(range(count), 2))
    draws = data.draw(st.lists(st.integers(0, 9), min_size=len(pairs),
                               max_size=len(pairs)))
    edges = {p for p, r in zip(pairs, draws) if r < density}
    neighbours = [0] * count
    for i, j in edges:
        neighbours[i] |= 1 << j
        neighbours[j] |= 1 << i
    expected = [c for c in itertools.combinations(range(count), k)
                if all(p in edges for p in itertools.combinations(c, 2))]
    assert _unpacked(_cliques_of_size(count, neighbours, k), k) == expected


@pytest.mark.parametrize("family,rank,ms,every_orientation", [
    ("A", 3, (1, 2), True), ("A", 4, (1, 2), True), ("D", 4, (1, 2), True),
    ("E", 6, (1,), False), ("E", 7, (1,), False),
])
def test_cliques_match_plain_search(family, rank, ms, every_orientation):
    quivers = (admissible_quivers(family, rank) if every_orientation
               else [QuiverDescriptor.standard(family, rank)])
    for q in quivers:
        rs = build_root_system(q)
        for m in ms:
            for kind, (make_window, rule) in _M_KINDS.items():
                objs, neighbours = _compatibility_graph(rs, make_window(m), rule)
                assert _unpacked(_cliques_of_size(len(objs), neighbours, rank),
                                 rank) == lex_cliques(len(objs), neighbours, rank), \
                    (q, kind, m)


def test_enumeration_is_packed():
    # The 144,210 E7/2 m-cluster-tilting objects are one buffer of 2-byte
    # indices, rank many per object, not a tuple per object.
    rs = build_root_system(QuiverDescriptor.standard("E", 7))
    flat = enumerate_kind_indexed(rs, "m-cluster-tilting", 2)[1]
    assert (flat.format, flat.itemsize, len(flat)) == ("H", 2, 7 * 144_210)


GRAPH_WINDOWS = (WindowSpec(-1, 2), WindowSpec(0, 1, minus_projectives=True),
                 WindowSpec(1, 2, plus_injectives=True))


def _assert_graphs_match_predicates(rs, ms):
    cases = [(make_window(m), rule) for m in ms
             for make_window, rule in _M_KINDS.values()]
    cases += [(w, "silting") for w in GRAPH_WINDOWS]
    predicates = {"silting": silting_compatible, "config": config_compatible}
    for w, rule in cases:
        objs, neighbours = _compatibility_graph(rs, w, rule)
        compatible = predicates[rule]
        assert objs == window_objects(rs, w)
        assert all(compatible(x, x) for x in objs)
        expected = [0] * len(objs)
        for (i, a), (j, b) in itertools.combinations(enumerate(objs), 2):
            if compatible(a, b):
                expected[i] |= 1 << j
                expected[j] |= 1 << i
        assert neighbours == expected, (rs.quiver, w, rule)


@pytest.mark.parametrize("family,rank", [
    ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5),
])
def test_compatibility_graph_matches_pairwise_predicates(family, rank):
    for q in admissible_quivers(family, rank):
        _assert_graphs_match_predicates(build_root_system(q), (1, 2))


@pytest.mark.parametrize("rank,seed", [(6, 1), (7, 2), (8, 3)])
def test_compatibility_graph_matches_pairwise_predicates_e(rank, seed):
    _assert_graphs_match_predicates(
        build_root_system(seeded_quiver("E", rank, seed)), (1,))


def _rejection(a, b, forbidden):
    """The message naming Ext^i(a, b) for the least nonzero i the rule
    forbids, or None; Hom when that i is 0."""
    bad = [i for i, _ in nonzero_exts(a, b) if forbidden(i)]
    if not bad:
        return None
    i = min(bad)
    return (f"Hom({a!r}, {b!r}) is nonzero" if i == 0
            else f"Ext^{i}({a!r}, {b!r}) is nonzero")


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4)])
def test_predicates_match_pairwise_oracle(family, rank):
    from exseq import QuiverDescriptor
    quivers = (admissible_quivers(family, rank) if family == "A"
               else [QuiverDescriptor.standard(family, rank)])
    rules = {"silting": (silting_compatible, lambda i: i >= 1),
             "config": (config_compatible, lambda i: i <= 0)}
    for q in quivers:
        rs = build_root_system(q)
        objs = window_objects(rs, WindowSpec(-1, 2))
        rejection = {(rule, a, b): _rejection(a, b, forbidden)
                     for rule, (_, forbidden) in rules.items()
                     for a, b in itertools.permutations(objs, 2)}
        # A pair is compatible exactly when neither direction is rejected.
        # Every pair lies in some collection below, so this is checked once
        # per pair, not once per collection.
        for rule, (ok, _) in rules.items():
            for a, b in itertools.permutations(objs, 2):
                assert ok(a, b) == (rejection[rule, a, b] is None
                                    and rejection[rule, b, a] is None), (q, rule, a, b)

        def expected(rule, col):
            pairs = [(a, b) for a in col.objects for b in col.objects if a != b]
            return next((m for m in (rejection[rule, a, b] for a, b in pairs)
                         if m is not None), None)

        for k in (rs.n - 1, rs.n):
            for sub in itertools.combinations(objs, k):
                col = collection(sub)
                silting = expected("silting", col)
                assert _explain_pairs(col.objects, "silting") == silting, (q, col)
                if k == rs.n:
                    assert explain_not_silting(col) == silting, (q, col)
                    config = expected("config", col)
                    assert explain_not_config(col) == config, (q, col)
