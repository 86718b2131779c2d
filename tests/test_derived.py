"""Derived-category objects: translations, Hom/Ext dimensions, classes."""
import itertools
from operator import mul

import pytest

from exseq import (
    DObj, QuiverDescriptor, QuiverError, WindowSpec, build_root_system,
    class_of, ext_dim,
    f_translate, f_translate_inv, hom_dim, inj, nu, nu_inv, obj,
    object_of_class, proj, shift, simple, tau, tau_inv, window_objects,
)
from exseq.derived import obj_from_dict, obj_to_dict
from exseq.roots import mat_vec

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
    for rx in range(6):
        for ry in range(6):
            x, y = DObj(a3, rx, 0), DObj(a3, ry, 0)
            euler = sum(map(mul, x.dim(), mat_vec(a3.euler_matrix, y.dim())))
            assert hom_dim(x, y) - ext_dim(x, y, 1) == euler


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
    with pytest.raises(ValueError):
        WindowSpec(2, 1)


# ---------------------------------------------------------------------------
# The index-space tables beside hom_table.
# ---------------------------------------------------------------------------

TABLE_QUIVERS = (
    [q for family, rank in (("A", 3), ("A", 4), ("D", 4))
     for q in admissible_quivers(family, rank)]
    + [QuiverDescriptor.standard(family, rank)
       for family, rank in (("D", 5), ("E", 6), ("E", 7), ("E", 8))]
)


def path_counts(q):
    """paths[i][j], the number of paths from vertex i + 1 to vertex j + 1:
    one for i = j, and over each arrow (i + 1, b), the paths out of b."""
    n = q.rank
    paths = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in reversed(range(n)):        # arrows point up, so b - 1 > i is done
        for a, b in q.arrows:
            if a == i + 1:
                paths[i] = [p + t for p, t in zip(paths[i], paths[b - 1])]
    return paths


def coxeter(q, dim, inverse=False):
    """Phi = s_1 s_2 ... s_n on a dimension vector (s_n applied first), or
    Phi^-1 = s_n ... s_1, with s_i(v) = v - (v, e_i) e_i for the symmetric
    form of the underlying graph."""
    v = list(dim)
    for i in (range(q.rank) if inverse else reversed(range(q.rank))):
        pairing = 2 * v[i] - sum(v[b - 1] if a == i + 1 else v[a - 1]
                                 for a, b in q.arrows if i + 1 in (a, b))
        v[i] -= pairing
    return tuple(v)


@pytest.mark.parametrize("q", TABLE_QUIVERS,
                         ids=[f"{q.family}{q.rank}-{i}" for i, q in enumerate(TABLE_QUIVERS)])
def test_index_tables_match_their_definitions(q):
    rs = build_root_system(q)
    paths = path_counts(q)
    projs = [tuple(row) for row in paths]
    injs = [tuple(row[v] for row in paths) for v in range(q.rank)]
    assert rs.proj_dims == tuple(projs)
    assert rs.inj_dims == tuple(injs)
    # F(M_r[d]) = M_{Phi^-1 r}[d - 2] for r not injective, F(I_v[d]) = P_v[d - 1];
    # F^-1(M_r[d]) = M_{Phi r}[d + 2] for r not projective, F^-1(P_v[d]) = I_v[d + 1].
    for x in _all_objects(rs, range(-3, 4)):
        r, d = x.dim(), x.degree
        if r in injs:
            image = DObj(rs, rs.root_of(projs[injs.index(r)]), d - 1)
        else:
            image = DObj(rs, rs.root_of(coxeter(q, r, inverse=True)), d - 2)
        if r in projs:
            preimage = DObj(rs, rs.root_of(injs[projs.index(r)]), d + 1)
        else:
            preimage = DObj(rs, rs.root_of(coxeter(q, r)), d + 2)
        for table, expected in ((rs.f_table, image), (rs.f_inv_table, preimage)):
            root, move = table[x.root]
            assert DObj(rs, root, d + move) == expected, x
        assert (f_translate(x), tau_inv(x)) == (image, shift(image, 2)), x
        assert (f_translate_inv(x), tau(x)) == (preimage, shift(preimage, -2)), x
    h0, h1 = rs.hom_table
    count = len(rs.positive_roots)
    for masks, array in zip(rs.hom_masks, (h0, h1, list(zip(*h0)), list(zip(*h1)))):
        assert masks == tuple(sum(1 << s for s in range(count) if row[s])
                              for row in array)


WINDOWS = (WindowSpec(-1, 3), WindowSpec(0, 2, minus_projectives=True),
           WindowSpec(1, 2, plus_injectives=True), WindowSpec(0, 0, True, True))


def test_window_objects_count(a2):
    assert len(window_objects(a2, WindowSpec(0, 1))) == 6
    assert len(window_objects(a2, WindowSpec(1, 1, plus_injectives=True))) == 5
    assert len(window_objects(a2, WindowSpec(0, 1, minus_projectives=True))) == 4
    # Against the per-object rule over the grid of degrees lo - 1 .. hi:
    # inside [lo, hi] and not a projective at lo under minus_projectives, or
    # an injective at lo - 1 under plus_injectives.
    for q in [a2.quiver, *TABLE_QUIVERS]:
        rs = build_root_system(q)
        paths = path_counts(q)
        projs = {tuple(row) for row in paths}
        injs = {tuple(row[v] for row in paths) for v in range(q.rank)}
        for w in WINDOWS:
            grid = [DObj(rs, r, d) for d in range(w.lo - 1, w.hi + 1)
                    for r in range(len(rs.positive_roots))]
            rule = [x for x in grid
                    if w.lo <= x.degree <= w.hi and not (
                        w.minus_projectives and x.degree == w.lo
                        and x.dim() in projs)
                    or w.plus_injectives and x.degree == w.lo - 1
                    and x.dim() in injs]
            assert window_objects(rs, w) == rule, (q, w)
            assert [x for x in grid if w.contains(x)] == rule, (q, w)
