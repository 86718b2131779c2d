"""Root-system foundation: forms, reflections, exponents, counting."""
import doctest
import random
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

import exseq.roots
from exseq import (
    QuiverDescriptor, QuiverError, build_root_system, fuss_catalan,
    reflection_matrix,
)
from exseq.roots import mat_identity, mat_mul, mat_vec, perp_masks

from oracle import (
    admissible_quivers, arrow_euler_matrix, close_roots_pm, coxeter_element,
    euler_pairing, euler_perp_masks, hom_perp_masks, hom_right_perp_masks,
    orientations, seeded_quiver, serre_hom_table,
)


def test_a2_data(a2):
    assert a2.positive_roots == ((1, 0), (0, 1), (1, 1))
    assert a2.coxeter_number == 3
    assert a2.exponents == (1, 2)
    assert a2.proj_dims == ((1, 1), (0, 1))
    assert a2.inj_dims == ((1, 0), (1, 1))


def test_a1_data(a1):
    assert a1.positive_roots == ((1,),)
    assert a1.coxeter_number == 2
    assert a1.exponents == (1,)


def test_d4_data(d4):
    assert len(d4.positive_roots) == 12
    assert d4.coxeter_number == 6
    assert d4.exponents == (1, 3, 3, 5)
    assert len(d4.positive_roots) == d4.n * d4.coxeter_number // 2


def test_b2_data(b2):
    assert len(b2.positive_roots) == 4
    assert b2.coxeter_number == 4
    assert b2.exponents == (1, 3)
    assert b2.euler_matrix == ((2, -2), (0, 1))
    assert b2.hom_table is None


@pytest.mark.parametrize("family,rank", [
    *(("A", r) for r in range(1, 9)), *(("D", r) for r in range(4, 9)),
    ("E", 6), ("E", 7), ("E", 8), *(("B", r) for r in range(2, 6)),
    *(("C", r) for r in range(2, 6)), ("F", 4), ("G", 2),
])
def test_positive_roots_match_full_closure(family, rank):
    rs = build_root_system(QuiverDescriptor.standard(family, rank))
    assert rs.positive_roots == close_roots_pm(rs)


def test_coxeter_and_euler_matrices_match_references():
    # c = s_1 ... s_n and c^-1 = s_n ... s_1 against products of reflection
    # matrices, and c c^-1 against the identity; the Euler matrix against
    # the arrow counts, or for a species against its defining shape.
    quivers = [q for family, ranks in (("A", range(1, 6)), ("D", (4, 5)))
               for rank in ranks for q in admissible_quivers(family, rank)]
    quivers += [seeded_quiver("E", rank, seed)
                for rank, seeds in ((6, (4, 5)), (7, (6, 7)), (8, (8, 9)))
                for seed in seeds]
    quivers += [QuiverDescriptor.standard(family, rank) for family, ranks in (
        ("B", range(2, 6)), ("C", range(3, 6)), ("F", (4,)), ("G", (2,)))
        for rank in ranks]
    for q in quivers:
        rs = build_root_system(q)
        assert rs.coxeter_matrix == coxeter_element(rs), q
        assert rs.coxeter_inverse == coxeter_element(rs, inverse=True), q
        assert mat_mul(rs.coxeter_matrix, rs.coxeter_inverse) == mat_identity(rs.n), q
        euler, n = rs.euler_matrix, rs.n
        if rs.is_categorical():
            assert euler == arrow_euler_matrix(rs), q
        else:
            assert all(euler[i][j] == 0 for i in range(n) for j in range(i)), q
            assert tuple(euler[i][i] for i in range(n)) == rs.symmetrizers, q
        assert all(euler[i][j] + euler[j][i] == rs.sym_matrix[i][j]
                   for i in range(n) for j in range(n)), q


@pytest.mark.parametrize("family,rank,h,exps", [
    ("A", 3, 4, (1, 2, 3)),
    ("A", 4, 5, (1, 2, 3, 4)),
    ("D", 5, 8, (1, 3, 4, 5, 7)),
    ("E", 6, 12, (1, 4, 5, 7, 8, 11)),
    ("B", 3, 6, (1, 3, 5)),
    ("C", 3, 6, (1, 3, 5)),
    ("F", 4, 12, (1, 5, 7, 11)),
    ("G", 2, 6, (1, 5)),
])
def test_exponent_table(family, rank, h, exps):
    rs = build_root_system(QuiverDescriptor.standard(family, rank))
    assert rs.coxeter_number == h
    assert rs.exponents == exps
    assert sum(rs.exponents) == len(rs.positive_roots)


@pytest.mark.parametrize("bad", [
    {"family": "A", "rank": 3, "arrows": ((2, 1), (2, 3))},     # not topological
    {"family": "A", "rank": 3, "arrows": ((1, 2),)},            # disconnected
    {"family": "D", "rank": 4, "arrows": ((1, 2), (2, 3), (3, 4))},  # wrong shape
    {"family": "A", "rank": 2, "arrows": ((1, 2), (1, 2))},     # doubled arrow
    {"family": "E", "rank": 9, "arrows": ()},
    {"family": "B", "rank": 2, "arrows": ((1, 2),)},            # weyl-only family
    {"family": "H", "rank": 3, "arrows": ()},
    {"family": "A", "rank": 3, "arrows": ((1, 2), (2, 3), (1, 3))},  # 3-cycle
    {"family": "A", "rank": 5, "arrows": ((1, 2), (2, 3), (3, 4), (3, 5))},  # D5
    {"family": "D", "rank": 6,
     "arrows": ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6))},       # E6
    {"family": "A", "rank": 8,                                  # E6 + A2, det 9
     "arrows": ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (7, 8))},
    {"family": "A", "rank": 2, "arrows": ((1.0, 2),)},          # arrow forms
    {"family": "A", "rank": 2, "arrows": ((True, 2),)},
    {"family": "A", "rank": 2, "arrows": ((1, 2, 3),)},
    {"family": "A", "rank": 2, "arrows": (("1", 2),)},
    {"family": "A", "rank": 2, "arrows": (12,)},
    {"family": "A", "rank": True, "arrows": ()},                # field types
    {"family": "A", "rank": 2.0, "arrows": ((1, 2),)},
    {"family": "A", "rank": 1.0, "arrows": ()},
    {"family": ["A"], "rank": 2, "arrows": ()},
])
def test_malformed_quivers_rejected(bad):
    with pytest.raises(QuiverError):
        QuiverDescriptor(bad["family"], bad["rank"], bad["arrows"])


@pytest.mark.parametrize("family,rank", [
    ("A", True), ("A", 2.0), (["A"], 2), ("B", 2.0), ("H", 3),
])
def test_standard_rejects_malformed_fields(family, rank):
    with pytest.raises(QuiverError):
        QuiverDescriptor.standard(family, rank)


def _accepts(family, rank, arrows) -> bool:
    try:
        QuiverDescriptor(family, rank, arrows)
    except QuiverError:
        return False
    return True


def test_quiver_check_matches_relabelling_oracle():
    # A quiver is accepted exactly when its arrows relabel the diagram.
    # Every arrow set of n - 2, n - 1 or n arrows up to n = 6; at n = 7 and
    # 8 seeded arrow multisets, repeats included, and some relabellings.
    rng = random.Random(24)
    for n in range(1, 9):
        pairs = list(combinations(range(1, n + 1), 2))
        for family, low in (("A", 1), ("D", 4), ("E", 6)):
            if n < low:
                continue
            admissible = set(orientations(family, n))
            if n <= 6:
                cases = [arrows for k in range(max(n - 2, 0), n + 1)
                         for arrows in combinations(pairs, k)]
            else:
                cases = [tuple(sorted(rng.choice(pairs)
                                      for _ in range(rng.randint(n - 2, n))))
                         for _ in range(2000)]
                cases += rng.sample(sorted(admissible), 200)
            for arrows in cases:
                assert _accepts(family, n, arrows) == (arrows in admissible), (
                    family, n, arrows)


def form(matrix, d, e):
    """d^T matrix e."""
    return sum(di * x for di, x in zip(d, mat_vec(matrix, e)))


def reflect(rs, x, v):
    """The reflection along the positive root x, applied to v."""
    return mat_vec(reflection_matrix(rs, rs.root_of(x)), v)


def test_euler_form_values(a2):
    assert form(a2.euler_matrix, (1, 0), (0, 1)) == -1
    assert form(a2.euler_matrix, (3, 5), (0, 0)) == 0
    assert form(a2.euler_matrix, (1, 0), (1, 1)) == 0


def test_sym_is_symmetrized_euler(a3):
    roots = a3.positive_roots
    for d in roots:
        for e in roots:
            assert (form(a3.sym_matrix, d, e)
                    == form(a3.euler_matrix, d, e) + form(a3.euler_matrix, e, d))


def test_reflect_values(a2):
    assert reflect(a2, (1, 0), (0, 1)) == (1, 1)
    assert reflect(a2, (1, 1), (1, 1)) == (-1, -1)
    assert reflect(a2, (1, 1), (1, 0)) == (0, -1)


vectors = st.tuples(*(st.integers(-6, 6) for _ in range(3)))


@given(v=vectors, root=st.integers(0, 5))
def test_reflect_involution_and_isometry(v, root):
    rs = build_root_system(QuiverDescriptor.standard("A", 3))
    x = rs.positive_roots[root]
    once = reflect(rs, x, v)
    assert reflect(rs, x, once) == v
    assert form(rs.sym_matrix, once, once) == form(rs.sym_matrix, v, v)


def test_coxeter_transform_values(a2):
    c, c_inv = a2.coxeter_matrix, a2.coxeter_inverse
    assert mat_vec(c, (1, 0)) == (0, 1)
    assert mat_vec(c, (0, 1)) == (-1, -1)
    assert mat_vec(c, mat_vec(c_inv, (2, 5))) == (2, 5)


def test_coxeter_orbit_reaches_projectives(d4):
    proj = set(d4.proj_dims)
    for root in d4.positive_roots:
        v = root
        for _ in range(d4.coxeter_number + 1):
            if v in proj:
                break
            v = mat_vec(d4.coxeter_matrix, v)
            assert v in d4.root_index, "orbit left the positive roots early"
        else:
            raise AssertionError(f"orbit of {root} never reached a projective")


@pytest.mark.parametrize("family,rank,m,value", [
    ("A", 3, 1, 14), ("A", 2, 1, 5), ("A", 2, 2, 12), ("A", 2, 3, 22),
    ("A", 3, 2, 55), ("D", 4, 1, 50), ("D", 4, 2, 336), ("B", 2, 1, 6),
    ("A", 1, 5, 6),
])
def test_fuss_catalan_table(family, rank, m, value):
    rs = build_root_system(QuiverDescriptor.standard(family, rank))
    assert fuss_catalan(rs, m) == value


def test_positive_fuss_catalan(a2, a3):
    # C^+_m(W) = |C_{-m-1}(W)|; for even rank the raw value is positive.
    assert abs(fuss_catalan(a2, -2)) == 2
    assert fuss_catalan(a2, -2) == 2
    assert abs(fuss_catalan(a2, -3)) == 7
    assert abs(fuss_catalan(a3, -2)) == 5


def test_exponent_symmetry(d4, b2):
    for rs in (d4, b2):
        h = rs.coxeter_number
        exps = rs.exponents
        assert all(exps[i] + exps[rs.n - 1 - i] == h for i in range(rs.n))


@pytest.mark.parametrize("family,ranks", [
    ("A", range(1, 7)), ("D", range(4, 7)), ("E", (6,)),
])
def test_hom_table_matches_serre_recursion(family, ranks):
    for rank in ranks:
        for q in admissible_quivers(family, rank):
            rs = build_root_system(q)
            assert rs.hom_table == serre_hom_table(rs), q


@pytest.mark.parametrize("rank,seeds", [(6, (4, 5)), (7, (6, 7)), (8, (8, 9))])
def test_hom_table_matches_serre_recursion_e(rank, seeds):
    for seed in seeds:
        rs = build_root_system(seeded_quiver("E", rank, seed))
        assert rs.hom_table == serre_hom_table(rs), rs.quiver


@cache
def perp_systems():
    """The root systems of every numbering of A1-A6 and D4-D6 and of seeded
    E6-E8, built once for the perpendicular-mask checks."""
    quivers = [q for family, ranks in (("A", range(1, 7)), ("D", range(4, 7)))
               for rank in ranks for q in admissible_quivers(family, rank)]
    quivers += [seeded_quiver("E", rank, seed)
                for rank, seeds in ((6, (4, 5)), (7, (6, 7)), (8, (8, 9)))
                for seed in seeds]
    return [build_root_system(q) for q in quivers]


def test_pairing_and_perp_masks_match_euler_oracles():
    # The table built row by row along the roots against the plain product
    # R E R^T, and its zero pattern against a dot product per pair, for
    # every family: B, C, F, G pair by the Euler form of the species.
    systems = perp_systems() + [
        build_root_system(QuiverDescriptor.standard(family, rank))
        for family, rank in (("B", 2), ("B", 4), ("C", 4), ("F", 4), ("G", 2))]
    for rs in systems:
        assert rs.pairing == euler_pairing(rs), rs.quiver
        assert perp_masks(rs) == euler_perp_masks(rs), rs.quiver


def test_perp_masks_match_hom_columns():
    # <y, x> = 0 under the Euler form exactly when Hom and Ext^1 from M_y
    # to M_x both vanish.
    for rs in perp_systems():
        assert perp_masks(rs) == hom_perp_masks(rs), rs.quiver


def test_right_perp_matches_hom_rows():
    # weyl.phi_inverse reads the right perpendicular of x off perp_masks:
    # the y with x in perp[y], which must be the y with Hom and Ext^1 from
    # M_x to M_y both vanishing.
    for rs in perp_systems():
        perp = perp_masks(rs)
        right = tuple(sum(1 << y for y, left in enumerate(perp) if left >> x & 1)
                      for x in range(len(perp)))
        assert right == hom_right_perp_masks(rs), rs.quiver


def test_doctests():
    failures, _ = doctest.testmod(exseq.roots)
    assert failures == 0


@given(st.integers(1, 6).flatmap(lambda k: st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                       min_size=k, max_size=k))))
def test_null_space_matches_rational_oracle(m):
    from fractions import Fraction
    from oracle import null_space, nullspace, rref
    n = len(m[0])
    basis = null_space(m)
    assert all(sum(row[j] * v[j] for j in range(n)) == 0
               for v in basis for row in m)
    exact = [[Fraction(x) for x in row] for row in m]
    assert len(basis) == len(nullspace(exact, n))
    if basis:
        _, pivots = rref([[Fraction(x) for x in v] for v in basis])
        assert len(pivots) == len(basis)
