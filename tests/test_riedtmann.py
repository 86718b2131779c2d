"""Periodic combinatorial configurations and window torsion classes."""
import itertools
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from exseq import (
    DObj, MutationSign, PeriodicConfig, QuiverDescriptor, QuiverError,
    WindowSpec, build_root_system, collection, config_to_riedtmann,
    enumerate_kind, ext_projectives, f_power, f_translate, fuss_catalan,
    is_combinatorial_configuration, make_periodic, mutate, proj,
    riedtmann_to_config, shift, simple, torsion_window,
)
from exseq.sequences import mu_rev_steps
from exseq.silting import order_silting

from oracle import admissible_quivers, enumerate_tilting_oracle, fac_indecomposables

PROBE = WindowSpec(-1, 2)


def test_combinatorial_configuration_a2(a2):
    s1, s2, p1 = simple(a2, 1), simple(a2, 2), proj(a2, 1)
    assert is_combinatorial_configuration(make_periodic(collection([s1, s2])), PROBE)
    assert is_combinatorial_configuration(
        make_periodic(collection([shift(p1, 1), s1])), PROBE)
    assert not is_combinatorial_configuration(
        make_periodic(collection([p1, s1])), PROBE)   # Hom(P1, S1) nonzero
    for twin in (f_translate(s1), f_power(s1, -1), f_power(s1, 2)):
        # twin is also a member of the orbit of s1, and Hom(twin, twin) != 0
        assert not is_combinatorial_configuration(
            PeriodicConfig(collection([s1, twin])), PROBE)


def test_combinatorial_configuration_a1(a1):
    x = simple(a1, 1)
    assert is_combinatorial_configuration(make_periodic(collection([x])), PROBE)


def test_make_periodic_rejects_orbit_duplicates(a2):
    s1 = simple(a2, 1)
    with pytest.raises(ValueError):
        make_periodic(collection([s1, f_translate(s1)]))


def test_config_to_riedtmann_preconditions(a2):
    s1, s2, p1 = simple(a2, 1), simple(a2, 2), proj(a2, 1)
    config_to_riedtmann(collection([shift(p1, 1), s1]))   # valid
    with pytest.raises(ValueError):
        config_to_riedtmann(collection([p1, s1]))          # not a config at all
    # {S1, S2} is a 1-config but S2 = P2 sits at degree 0: the minus window
    # excludes it, and accepting it would break the round-trip bijection.
    with pytest.raises(ValueError):
        config_to_riedtmann(collection([s1, s2]))


def test_riedtmann_round_trip_a2_a3(a2, a3):
    for rs, expected in ((a2, 2), (a3, 5)):
        minus = enumerate_kind(rs, "m-config-minus", 1)
        assert len(minus) == expected == abs(fuss_catalan(rs, -2))
        for col in minus:
            periodic = config_to_riedtmann(col)
            assert riedtmann_to_config(periodic) == col


def test_riedtmann_round_trip_a1(a1):
    x1 = simple(a1, 1, 1)
    minus = enumerate_kind(a1, "m-config-minus", 1)
    assert minus == [collection([x1])]
    assert riedtmann_to_config(config_to_riedtmann(collection([x1]))) == \
        collection([x1])


def test_distinct_minus_configs_have_distinct_orbits(a3):
    minus = enumerate_kind(a3, "m-config-minus", 1)
    orbits = set()
    for col in minus:
        members = frozenset(
            riedtmann_to_config(config_to_riedtmann(col)).summands
        )
        orbits.add(members)
    assert len(orbits) == len(minus)


def test_tilting_counts_match_oracle(a2, a3):
    # Tilting modules (matrix-representation oracle) agree with the
    # positive Fuss-Catalan count driving the Riedtmann correspondence.
    assert len(enumerate_tilting_oracle(a2)) == 2 == abs(fuss_catalan(a2, -2))
    assert len(enumerate_tilting_oracle(a3)) == 5 == abs(fuss_catalan(a3, -2))


def test_tilting_count_d4(d4):
    # The minus-window silting count is the tilting count, shifted by one.
    assert len(enumerate_kind(d4, "silting-deg1-window", 1)) == \
        abs(fuss_catalan(d4, -2)) == 20


def test_torsion_window_a2(a2):
    s1, s2, p1 = simple(a2, 1), simple(a2, 2), proj(a2, 1)
    tw = torsion_window(collection([p1, s1]), WindowSpec(-1, 2))
    assert s1 in tw and s2 not in tw
    # every summand shifted up stays inside A(Y)
    for k in range(0, 3):
        assert shift(p1, k) in tw and shift(s1, k) in tw


def test_torsion_degree_zero_part_is_fac(a2, a3):
    # Degree-0 part of the window torsion class of a tilting module equals
    # the classical torsion class Fac T (matrix-level oracle).
    for rs in (a2, a3):
        for roots in enumerate_tilting_oracle(rs):
            col = collection([DObj(rs, r, 0) for r in roots])
            tw = torsion_window(col, WindowSpec(-1, 1))
            deg0 = {x.root for x in tw if x.degree == 0}
            assert deg0 == set(fac_indecomposables(rs, sorted(roots)))


def _same_torsion_after_right_mutation(seq, w):
    """The sign of the right mutation at 1, and whether it leaves the window
    torsion class of the summand set unchanged."""
    mutated, sign = mutate(seq, 1, "right")
    same = torsion_window(collection(seq), w) == torsion_window(collection(mutated), w)
    return sign, same


def test_negative_mutation_invariance_a2(a2):
    s1, p1 = simple(a2, 1), proj(a2, 1)
    assert (_same_torsion_after_right_mutation((p1, s1), PROBE)
            == (MutationSign.NEGATIVE, True))
    sign, _ = _same_torsion_after_right_mutation((s1, simple(a2, 2)), PROBE)
    assert sign is MutationSign.NONNEGATIVE


def test_orthogonal_mutation_invariance(a3):
    s1, s3 = simple(a3, 1), simple(a3, 3)
    assert (_same_torsion_after_right_mutation((s1, s3), PROBE)
            == (MutationSign.ORTHOGONAL, True))


def test_invariance_along_every_silting_run(a3):
    window = WindowSpec(-1, 3)
    for col in enumerate_kind(a3, "m-cluster-tilting", 1):
        seq = order_silting(col)
        current = seq
        for i, sign, after in mu_rev_steps(seq):
            assert sign in (MutationSign.NEGATIVE, MutationSign.ORTHOGONAL)
            assert torsion_window(collection(current), window) == \
                torsion_window(collection(after), window)
            current = after


def test_torsion_injectivity(a2, a3):
    for rs in (a2, a3):
        for m in (1, 2):
            window = WindowSpec(-1, m + 2)
            seen = {}
            for col in enumerate_kind(rs, "m-cluster-tilting", m):
                key = torsion_window(col, window)
                assert key not in seen, (col, seen[key])
                seen[key] = col


def test_ext_projectives_recover_silting(a2, a3):
    s1, p1 = simple(a2, 1), proj(a2, 1)
    w = WindowSpec(-2, 2)
    col = collection([p1, s1])
    assert ext_projectives(torsion_window(col, w), w) == col.summands
    # shifts of the free module
    for k in (0, 1):
        h = collection([proj(a2, 1, k), proj(a2, 2, k)])
        wk = WindowSpec(k - 2, k + 2)
        assert ext_projectives(torsion_window(h, wk), wk) == h.summands
    for colb in enumerate_kind(a3, "m-cluster-tilting", 1):
        degs = [x.degree for x in colb.summands]
        wb = WindowSpec(min(degs) - 2, max(degs) + 2)
        assert ext_projectives(torsion_window(colb, wb), wb) == colb.summands


def test_ext_projectives_margin_guard(a2):
    with pytest.raises(ValueError):
        ext_projectives(frozenset(), WindowSpec(0, 1))


# ---------------------------------------------------------------------------
# The orbit walk against the bounded F-power loops of the oracle.
# ---------------------------------------------------------------------------

ORACLE_WINDOWS = (
    WindowSpec(-1, 2), WindowSpec(-2, 3), WindowSpec(0, 0),
    WindowSpec(-1, 2, plus_injectives=True),
    WindowSpec(0, 1, minus_projectives=True),
    # One degree.  On the one- and two-seed sets of A2 and A3 the removed
    # projectives decide a result: keeping them fails the comparison, as on
    # the A2 seed of root (0, 1) in degree -1 and the window (1, 1) less its
    # projectives.  No seed set tried lets the added injectives decide one;
    # only test_derived::test_window_objects_count pins that row.
    WindowSpec(0, 0, plus_injectives=True),
    WindowSpec(1, 1, minus_projectives=True),
)
ORACLE_QUIVERS = [q for family, rank in (("A", 3), ("A", 4), ("D", 4))
                  for q in admissible_quivers(family, rank)]


@cache
def _oracle_systems():
    return [build_root_system(q) for q in ORACLE_QUIVERS]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_matches_oracle(seeds):
    assert _outcome(make_periodic, seeds) == _outcome(oracle.make_periodic, seeds)
    p = PeriodicConfig(seeds)
    for w in ORACLE_WINDOWS:
        assert _outcome(is_combinatorial_configuration, p, w) == \
            _outcome(oracle.is_combinatorial_configuration, p, w), (seeds, w)
    assert _outcome(riedtmann_to_config, p) == \
        _outcome(oracle.riedtmann_to_config, p), seeds


@pytest.mark.parametrize("index", range(len(ORACLE_QUIVERS)),
                         ids=[f"{q.family}{q.rank}-{i}" for i, q in enumerate(ORACLE_QUIVERS)])
def test_periodic_checks_match_oracle_on_enumerations(index):
    rs = _oracle_systems()[index]
    inputs = (enumerate_kind(rs, "m-config-minus", 1)
              + enumerate_kind(rs, "m-cluster-tilting", 1))
    for seeds in inputs:
        _assert_matches_oracle(seeds)


# Every stride-th input: the oracle walks all five windows in full on each
# configuration, about 0.1 s per E6 minus-window configuration.
@pytest.mark.parametrize("family,rank,stride", [("D", 5, 8), ("E", 6, 40)])
def test_periodic_checks_match_oracle_on_larger_enumerations(family, rank, stride):
    rs = build_root_system(QuiverDescriptor.standard(family, rank))
    inputs = (enumerate_kind(rs, "m-config-minus", 1)[::stride]
              + enumerate_kind(rs, "m-cluster-tilting", 1)[::stride])
    for seeds in inputs:
        _assert_matches_oracle(seeds)


@pytest.mark.parametrize("rank", [2, 3])
def test_periodic_checks_match_oracle_on_small_seed_sets(rank):
    # Every seed set of one or two objects in degrees -1..2 with no two seeds
    # in one F-orbit.  Few seeds cover few probe objects, so the bottom row
    # of a one-degree window can decide the result: keeping the projectives
    # at lo under minus_projectives fails here.
    rs = build_root_system(QuiverDescriptor.standard("A", rank))
    objs = [DObj(rs, r, d) for d in range(-1, 3) for r in range(len(rs.positive_roots))]
    for size in (1, 2):
        for picked in itertools.combinations(objs, size):
            seeds = collection(picked)
            try:
                oracle.make_periodic(seeds)
            except ValueError:
                continue
            _assert_matches_oracle(seeds)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_periodic_checks_match_oracle_on_seed_sets(data):
    rs = data.draw(st.sampled_from(_oracle_systems()))
    cells = st.tuples(st.integers(0, len(rs.positive_roots) - 1), st.integers(-3, 3))
    picked = data.draw(st.lists(cells, min_size=1, max_size=rs.n, unique=True))
    _assert_matches_oracle(collection(DObj(rs, r, d) for r, d in picked))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_periodic_checks_match_oracle_on_orbit_duplicates(data):
    # PeriodicConfig directly, so that an F-orbit holds two seeds: a member
    # of one seed's orbit is then another seed.
    rs = data.draw(st.sampled_from(_oracle_systems()))
    cells = st.tuples(st.integers(0, len(rs.positive_roots) - 1), st.integers(-3, 3))
    picked = data.draw(st.lists(cells, min_size=1, max_size=rs.n - 1, unique=True))
    objs = [DObj(rs, r, d) for r, d in picked]
    twin = f_power(data.draw(st.sampled_from(objs)),
                   data.draw(st.sampled_from((-2, -1, 1, 2))))
    _assert_matches_oracle(collection(objs + [twin]))


def test_weyl_only_periodic_config_raises_like_oracle(b2):
    p = PeriodicConfig(collection([DObj(b2, 0, 0), DObj(b2, 1, 0)]))
    with pytest.raises(QuiverError, match="Weyl-only"):
        is_combinatorial_configuration(p, PROBE)
    for roots in ((0,), (0, 1)):
        _assert_matches_oracle(collection(DObj(b2, r, 0) for r in roots))
