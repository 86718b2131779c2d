"""Root-system foundation: forms, reflections, exponents, counting."""
import doctest

import pytest
from hypothesis import given, strategies as st

import exseq.roots
from exseq import (
    QuiverDescriptor, QuiverError, build_root_system, coxeter_transform,
    euler_form, fuss_catalan, reflect, sym_form,
)

from oracle import admissible_quivers, seeded_quiver, serre_hom_table


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
    assert b2.euler_matrix is None


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
])
def test_malformed_quivers_rejected(bad):
    with pytest.raises(QuiverError):
        QuiverDescriptor(bad["family"], bad["rank"], bad["arrows"])


def test_quiver_json_round_trip():
    q = QuiverDescriptor.from_json('{"family":"A","rank":3,"arrows":[[1,2],[2,3]]}')
    assert q == QuiverDescriptor.standard("A", 3)
    assert QuiverDescriptor.from_json(q.to_json()) == q


def test_euler_form_values(a2):
    assert euler_form(a2, (1, 0), (0, 1)) == -1
    assert euler_form(a2, (3, 5), (0, 0)) == 0
    assert euler_form(a2, (1, 0), (1, 1)) == 0


def test_euler_form_length_mismatch(a2):
    with pytest.raises(ValueError):
        euler_form(a2, (1, 0, 0), (0, 1))


def test_sym_is_symmetrized_euler(a3):
    roots = a3.positive_roots
    for d in roots:
        for e in roots:
            assert sym_form(a3, d, e) == euler_form(a3, d, e) + euler_form(a3, e, d)


def test_reflect_values(a2):
    assert reflect(a2, (1, 0), (0, 1)) == (1, 1)
    assert reflect(a2, (1, 1), (1, 1)) == (-1, -1)
    assert reflect(a2, (1, 1), (1, 0)) == (0, -1)


def test_reflect_isotropic_rejected(a2):
    with pytest.raises(ValueError):
        reflect(a2, (0, 0), (1, 0))


vectors = st.tuples(*(st.integers(-6, 6) for _ in range(3)))


@given(v=vectors, root=st.integers(0, 5))
def test_reflect_involution_and_isometry(v, root):
    rs = build_root_system(QuiverDescriptor.standard("A", 3))
    x = rs.positive_roots[root]
    once = reflect(rs, x, v)
    assert reflect(rs, x, once) == v
    assert sym_form(rs, once, once) == sym_form(rs, v, v)


@given(v=vectors, w=vectors)
def test_sym_form_bilinear_symmetric(v, w):
    rs = build_root_system(QuiverDescriptor.standard("A", 3))
    assert sym_form(rs, v, w) == sym_form(rs, w, v)


def test_coxeter_transform_values(a2):
    assert coxeter_transform(a2, (1, 0)) == (0, 1)
    assert coxeter_transform(a2, (0, 1)) == (-1, -1)
    assert coxeter_transform(a2, coxeter_transform(a2, (2, 5), inverse=True)) == (2, 5)


def test_coxeter_orbit_reaches_projectives(d4):
    proj = set(d4.proj_dims)
    for root in d4.positive_roots:
        v = root
        for _ in range(d4.coxeter_number + 1):
            if v in proj:
                break
            v = coxeter_transform(d4, v)
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


def test_root_system_debug_export(a2):
    data = a2.to_dict()
    assert data["coxeter_number"] == 3
    assert data["positive_roots"] == [[1, 0], [0, 1], [1, 1]]


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


def test_doctests():
    failures, _ = doctest.testmod(exseq.roots)
    assert failures == 0


@given(st.integers(1, 6).flatmap(lambda k: st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                       min_size=k, max_size=k))))
def test_null_space_matches_rational_oracle(m):
    from fractions import Fraction
    from exseq.roots import null_space
    from oracle import nullspace, rref
    n = len(m[0])
    basis = null_space(m)
    assert all(sum(row[j] * v[j] for j in range(n)) == 0
               for v in basis for row in m)
    exact = [[Fraction(x) for x in row] for row in m]
    assert len(basis) == len(nullspace(exact, n))
    if basis:
        _, pivots = rref([[Fraction(x) for x in v] for v in basis])
        assert len(pivots) == len(basis)
