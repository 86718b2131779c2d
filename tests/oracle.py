"""Independent oracles used only by the test suite.

These deliberately avoid the library's Serre-duality recursion: Hom and
Ext^1 are computed from explicit matrix representations (type A interval
modules) by exact linear algebra over the rationals, reflection length by
breadth-first search in the Cayley graph, and Fac-torsion membership by
checking that the joint image of all homomorphisms covers the target.
It also lists every admissible numbering of a Dynkin diagram, the input of
the orientation sweeps.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from exseq.derived import DObj
from exseq.roots import QuiverDescriptor, QuiverError, RootSystemData
from exseq.weyl import WeylGroup, mat_mul


# ---------------------------------------------------------------------------
# Exact linear algebra.
# ---------------------------------------------------------------------------

def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    rows = [row[:] for row in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    if not rows:
        return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# Interval representations for type A quivers.
# ---------------------------------------------------------------------------

def _check_interval(rs: RootSystemData, root: int) -> tuple[int, ...]:
    dim = rs.positive_roots[root]
    if any(c not in (0, 1) for c in dim):
        raise ValueError("the matrix oracle handles type A (0/1 roots) only")
    return dim


def _delta_matrix(rs: RootSystemData, rm: int, rn: int
                  ) -> tuple[list[list[Fraction]], list[int], int]:
    """The linear system whose kernel is Hom(M, N) and cokernel Ext^1(M, N),
    for the interval representations attached to two roots.

    Returns (equation rows, unknown vertex list, equation count).
    """
    dm = _check_interval(rs, rm)
    dn = _check_interval(rs, rn)
    unknowns = [v for v in range(rs.n) if dm[v] and dn[v]]
    index = {v: k for k, v in enumerate(unknowns)}
    rows = []
    for i, j in rs.quiver.arrows:
        i -= 1
        j -= 1
        if not (dm[i] and dn[j]):
            continue
        # N_a phi_i - phi_j M_a = 0 with scalar arrow maps 0 or 1.
        row = [Fraction(0)] * len(unknowns)
        if dn[i] and dn[j]:  # N_a = 1
            row[index[i]] += 1
        if dm[i] and dm[j]:  # M_a = 1
            row[index[j]] -= 1
        rows.append(row)
    return rows, unknowns, len(rows)


def module_hom_ext_oracle(rs: RootSystemData, rm: int, rn: int) -> tuple[int, int]:
    """(dim Hom(M, N), dim Ext^1(M, N)) from explicit representations."""
    rows, unknowns, equations = _delta_matrix(rs, rm, rn)
    rank = len(rows and rref(rows)[1])
    return len(unknowns) - rank, equations - rank


def derived_hom_oracle(rs: RootSystemData, x: DObj, y: DObj) -> int:
    """dim Hom_D(x, y) for stalk complexes, from the module-level oracle."""
    gap = y.degree - x.degree
    if gap == 0:
        return module_hom_ext_oracle(rs, x.root, y.root)[0]
    if gap == 1:
        return module_hom_ext_oracle(rs, x.root, y.root)[1]
    return 0


def hom_basis(rs: RootSystemData, rm: int, rn: int) -> tuple[list[int], list[list[Fraction]]]:
    """Unknown vertex list plus a basis of Hom(M, N) in those coordinates."""
    rows, unknowns, _ = _delta_matrix(rs, rm, rn)
    return unknowns, nullspace(rows, len(unknowns))


# ---------------------------------------------------------------------------
# Fac-torsion membership.
# ---------------------------------------------------------------------------

def in_fac(rs: RootSystemData, generators: list[int], target: int) -> bool:
    """Whether the interval module of `target` is a quotient of a sum of
    copies of the generator modules: the joint image of all homomorphisms
    must cover the target at every support vertex."""
    dim = _check_interval(rs, target)
    needed = {v for v in range(rs.n) if dim[v]}
    covered = set()
    for g in generators:
        unknowns, basis = hom_basis(rs, g, target)
        for vec in basis:
            for v, value in zip(unknowns, vec):
                if value != 0:
                    covered.add(v)
    return needed <= covered


def fac_indecomposables(rs: RootSystemData, generators: list[int]) -> frozenset[int]:
    return frozenset(
        r for r in range(len(rs.positive_roots)) if in_fac(rs, generators, r)
    )


# ---------------------------------------------------------------------------
# Tilting modules by the matrix oracle.
# ---------------------------------------------------------------------------

def enumerate_tilting_oracle(rs: RootSystemData) -> list[frozenset[int]]:
    """All tilting modules, as root-index sets: n pairwise Ext^1-orthogonal
    indecomposables (self-extensions vanish automatically in Dynkin type)."""
    roots = range(len(rs.positive_roots))
    compatible = {
        (a, b): module_hom_ext_oracle(rs, a, b)[1] == 0
        and module_hom_ext_oracle(rs, b, a)[1] == 0
        for a in roots for b in roots if a < b
    }
    out = []
    for subset in combinations(roots, rs.n):
        if all(compatible[(a, b)] for a, b in combinations(subset, 2)):
            out.append(frozenset(subset))
    return out


# ---------------------------------------------------------------------------
# Reflection length by Cayley-graph search.
# ---------------------------------------------------------------------------

def cayley_abs_lengths(group: WeylGroup) -> dict:
    """BFS distance from the identity over the full reflection generating set."""
    dist = {group.identity: 0}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for w in frontier:
            for t in group.reflections:
                new = mat_mul(t, w)
                if new not in dist:
                    dist[new] = dist[w] + 1
                    nxt.append(new)
        frontier = nxt
    return dist


# ---------------------------------------------------------------------------
# Orientations.
# ---------------------------------------------------------------------------

def admissible_quivers(family: str, rank: int):
    """Every numbering of the Dynkin diagram with arrows from smaller to
    larger vertex."""
    pairs = list(combinations(range(1, rank + 1), 2))
    for arrows in combinations(pairs, rank - 1):
        try:
            yield QuiverDescriptor(family, rank, arrows)
        except QuiverError:
            pass
