"""Derived-category objects: translations, Hom/Ext dimensions, classes."""
import itertools

import pytest

from exseq import (
    DObj, QuiverDescriptor, QuiverError, WindowSpec, build_root_system,
    class_of, ext_dim,
    f_translate, f_translate_inv, hom_dim, inj, nu, nu_inv, obj,
    object_of_class, proj, shift, simple, tau, tau_inv, translate,
    window_objects,
)
from exseq.derived import obj_from_dict, obj_to_dict

from oracle import (
    admissible_quivers, derived_hom_oracle, module_hom_ext_oracle, seeded_quiver,
)


def _all_objects(rs, degrees):
    return [DObj(rs, r, d) for r in range(len(rs.positive_roots)) for d in degrees]


def test_translations_a2(a2):
    s1, s2, p1 = simple(a2, 1), simple(a2, 2), proj(a2, 1)
    assert tau(s1) == s2
    assert tau(p1) == shift(inj(a2, 1), -1)
    assert nu(p1) == inj(a2, 1)           # nu carries P_i to I_i
    assert nu(proj(a2, 2)) == inj(a2, 2)
    assert tau_inv(tau(s1)) == s1
    assert nu_inv(nu(shift(s2, 3))) == shift(s2, 3)
    assert f_translate(shift(p1, 1)) == simple(a2, 2)  # P_1 = I_2 here
    assert f_translate_inv(f_translate(s1)) == s1


def test_translate_dispatcher(a2):
    x = simple(a2, 1, 2)
    assert translate(x, "shift", -2) == simple(a2, 1)
    assert translate(x, "tau") == tau(x)
    assert translate(x, "nu-inv") == nu_inv(x)
    assert translate(x, "F") == f_translate(x)
    with pytest.raises(ValueError):
        translate(x, "sigma")


def test_translations_are_bijections(a3):
    objs = _all_objects(a3, range(-2, 3))
    for fwd, back in ((tau, tau_inv), (nu, nu_inv), (f_translate, f_translate_inv)):
        assert all(back(fwd(x)) == x for x in objs)
        assert len({fwd(x) for x in objs}) == len(objs)


def test_hom_examples_a2(a2):
    s1, s2, p1 = simple(a2, 1), simple(a2, 2), proj(a2, 1)
    assert hom_dim(s1, shift(s2, 1)) == 1      # Ext^1(S1, S2)
    assert hom_dim(s2, p1) == 1                # S2 is the socle of P1
    assert hom_dim(p1, s2) == 0
    assert hom_dim(p1, s1) == 1
    assert hom_dim(s1, p1) == 0
    assert ext_dim(s1, s2, 1) == 1
    assert ext_dim(shift(p1, 1), s1, 1) == 1
    for x in _all_objects(a2, range(-1, 2)):
        assert hom_dim(x, x) == 1
        assert ext_dim(x, x, -1) == 0


def test_mixed_root_systems_rejected(a2, a3):
    with pytest.raises(ValueError):
        hom_dim(simple(a2, 1), simple(a3, 1))


def test_weyl_only_rejected(b2):
    with pytest.raises(QuiverError):
        simple(b2, 1)


def test_serre_duality(a3):
    objs = _all_objects(a3, range(-1, 2))
    for x, y in itertools.product(objs, objs):
        assert hom_dim(x, y) == hom_dim(y, nu(x))


def test_ar_shadow(a3):
    from exseq.derived import is_projective
    objs = _all_objects(a3, range(-1, 2))
    for x, y in itertools.product(objs, objs):
        if not is_projective(x):
            assert ext_dim(x, y, 1) == hom_dim(y, tau(x))


def test_euler_pairing(a3):
    from exseq import euler_form
    for rx in range(6):
        for ry in range(6):
            x, y = DObj(a3, rx, 0), DObj(a3, ry, 0)
            assert hom_dim(x, y) - ext_dim(x, y, 1) == euler_form(a3, x.dim(), y.dim())


def test_translations_preserve_hom(a3):
    objs = _all_objects(a3, range(0, 2))
    pairs = list(itertools.product(objs[:8], objs[:8]))
    for g in (tau, nu, f_translate, lambda x: shift(x, 2)):
        for x, y in pairs:
            assert hom_dim(x, y) == hom_dim(g(x), g(y))


def test_two_consecutive_degrees_only(a2):
    objs = _all_objects(a2, range(0, 2))
    for x, y in itertools.product(objs, objs):
        support = [i for i in range(-4, 5) if ext_dim(x, y, i)]
        assert all(i + (y.degree - x.degree) in (0, 1) for i in support)
        assert len(support) <= 2


def _assert_hom_matches_matrix_oracle(rs):
    objs = _all_objects(rs, range(-2, 3))
    for x in objs:
        for y in objs:
            if abs(y.degree - x.degree) <= 2:
                assert hom_dim(x, y) == derived_hom_oracle(rs, x, y), (x, y)


def test_hom_matches_matrix_oracle_a2_a3(a2, a3):
    for rs in (a2, a3):
        _assert_hom_matches_matrix_oracle(rs)


def test_hom_matches_matrix_oracle_d4():
    quivers = list(admissible_quivers("D", 4))
    assert len(quivers) == 4
    for q in quivers:
        _assert_hom_matches_matrix_oracle(build_root_system(q))


@pytest.mark.parametrize("family,rank,seed", [("D", 5, 10), ("E", 6, 11)])
def test_hom_table_matches_matrix_oracle(family, rank, seed):
    rs = build_root_system(seeded_quiver(family, rank, seed))
    roots = range(len(rs.positive_roots))
    h0, h1 = rs.hom_table
    for rm in roots:
        for rn in roots:
            assert (h0[rm][rn], h1[rm][rn]) == module_hom_ext_oracle(rs, rm, rn)


def test_class_round_trip(a2):
    s1, p1 = simple(a2, 1), proj(a2, 1)
    assert class_of(shift(s1, 1)) == (-1, 0)
    assert object_of_class(a2, (-1, -1), (0, 1)) == shift(p1, 1)
    for x in _all_objects(a2, range(-2, 3)):
        assert object_of_class(a2, class_of(x), (x.degree, x.degree - 1)) == x


def test_object_of_class_errors(a2):
    with pytest.raises(ValueError):
        object_of_class(a2, (2, 1), (0, 1))          # not a root class
    with pytest.raises(ValueError):
        object_of_class(a2, (1, 0), (1, 3))          # no even hint
    with pytest.raises(ValueError):
        object_of_class(a2, (1, 0), (0, 2))          # two even hints


def test_obj_json_round_trip(a3):
    x = obj(a3, (1, 1, 0), 1)
    assert obj_to_dict(x) == {"dim": [1, 1, 0], "deg": 1}
    assert obj_from_dict(a3, obj_to_dict(x)) == x


def test_window_membership(a2):
    s1, s2, p1 = simple(a2, 1), simple(a2, 2), proj(a2, 1)
    cluster = WindowSpec(1, 2, plus_injectives=True)
    assert cluster.contains(shift(s1, 1))
    assert cluster.contains(s1)              # injective at degree lo-1
    assert cluster.contains(p1)              # P1 = I2 is injective too
    assert not cluster.contains(s2)          # projective non-injective at 0
    minus = WindowSpec(0, 1, minus_projectives=True)
    assert minus.contains(s1)
    assert not minus.contains(s2)
    assert not minus.contains(p1)
    assert minus.contains(shift(p1, 1))
    assert WindowSpec.from_dict(minus.to_dict()) == minus
    with pytest.raises(ValueError):
        WindowSpec(2, 1)


def test_window_from_dict_defaults_flags():
    assert WindowSpec.from_dict({"lo": -1, "hi": 2}) == WindowSpec(-1, 2)


@pytest.mark.parametrize("data", [
    {"lo": 0.5, "hi": True},
    {"lo": 0, "hi": 1.0},
    {"lo": True, "hi": 1},
    {"lo": "0", "hi": 1},
    {"lo": 0, "hi": 1, "plus_injectives": 1},
    {"lo": 0, "hi": 1, "minus_projectives": "false"},
    {"lo": 0, "hi": 1, "plus_injectives": None},
    {"hi": 1},
    [0, 1],
    None,
])
def test_window_from_dict_rejects_non_json_types(data):
    with pytest.raises(ValueError, match="window record"):
        WindowSpec.from_dict(data)


def test_window_objects_count(a2):
    assert len(window_objects(a2, WindowSpec(0, 1))) == 6
    assert len(window_objects(a2, WindowSpec(1, 1, plus_injectives=True))) == 5
    assert len(window_objects(a2, WindowSpec(0, 1, minus_projectives=True))) == 4


# ---------------------------------------------------------------------------
# The index-space tables beside hom_table.
# ---------------------------------------------------------------------------

TABLE_QUIVERS = (
    [q for family, rank in (("A", 3), ("A", 4), ("D", 4))
     for q in admissible_quivers(family, rank)]
    + [QuiverDescriptor.standard(family, rank)
       for family, rank in (("D", 5), ("E", 6), ("E", 7), ("E", 8))]
)


@pytest.mark.parametrize("q", TABLE_QUIVERS,
                         ids=[f"{q.family}{q.rank}-{i}" for i, q in enumerate(TABLE_QUIVERS)])
def test_index_tables_match_their_definitions(q):
    rs = build_root_system(q)
    for x in _all_objects(rs, range(-3, 4)):
        for table, translation in ((rs.f_table, f_translate),
                                   (rs.f_inv_table, f_translate_inv)):
            root, move = table[x.root]
            assert DObj(rs, root, x.degree + move) == translation(x), x
    h0, h1 = rs.hom_table
    count = len(rs.positive_roots)
    for masks, array in zip(rs.hom_masks, (h0, h1, list(zip(*h0)), list(zip(*h1)))):
        assert masks == tuple(sum(1 << s for s in range(count) if row[s])
                              for row in array)
