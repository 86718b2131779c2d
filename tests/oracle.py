"""Independent oracles used only by the test suite.

Hom and Ext^1 are computed from explicit matrix representations by exact
linear algebra over the rationals, the library's Hom table is compared with
the Serre-duality recursion it once used, and the enumeration graph with
the pairwise Ext predicates it once called.  Reflection length comes from
breadth-first search in the Cayley graph, and Fac-torsion membership from
checking that the joint image of all homomorphisms covers the target (type
A).  The periodic-configuration checks are the bounded loops over F-powers
f_power(x, k), |k| up to a degree reach, against which the library's
orbit walk is compared.  It also lists every admissible numbering of a
Dynkin diagram, the input of the orientation sweeps.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import combinations

from exseq.derived import (
    DObj, WindowSpec, f_power, hom_dim, nonzero_exts, window_objects,
)
from exseq.riedtmann import PeriodicConfig
from exseq.roots import (
    QuiverDescriptor, QuiverError, RootSystemData, coxeter_transform,
)
from exseq.sequences import MutationError
from exseq.silting import DCollection, collection, is_hom_leq0_config
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
# Explicit representations.
# ---------------------------------------------------------------------------

def _check_interval(rs: RootSystemData, root: int) -> tuple[int, ...]:
    dim = rs.positive_roots[root]
    if any(c not in (0, 1) for c in dim):
        raise ValueError("the Fac oracle handles type A (0/1 roots) only")
    return dim


Matrix = list[list[Fraction]]


@cache
def representation(quiver: QuiverDescriptor,
                   dim: tuple[int, ...]) -> dict[tuple[int, int], Matrix]:
    """A representation with dimension vector dim of a Dynkin quiver that is
    indecomposable, as a map from each 0-based arrow (i, j) to a
    dim[j] x dim[i] matrix.

    A 0/1 dimension vector of a tree quiver has connected support; the
    representation with every arrow inside it acting as 1 is a brick.
    Otherwise the maps are seeded random integer matrices, drawn until
    End = k.  A brick is indecomposable, and by Gabriel's theorem there is
    one indecomposable per positive root, so any brick of that dimension
    vector is it."""
    arrows = [(i - 1, j - 1) for i, j in quiver.arrows]
    if all(c in (0, 1) for c in dim):
        return {(i, j): [[Fraction(1)] * dim[i]] * dim[j] for i, j in arrows}
    rng = random.Random(repr((quiver.arrows, dim)))
    for _ in range(100):
        rep = {(i, j): [[Fraction(rng.randint(-2, 2)) for _ in range(dim[i])]
                        for _ in range(dim[j])]
               for i, j in arrows}
        if _hom_ext(quiver, dim, rep, dim, rep)[0] == 1:
            return rep
    raise AssertionError(f"no brick of dimension {dim} found")


def _hom_equations(quiver: QuiverDescriptor, dm, rep_m, dn, rep_n
                   ) -> tuple[list[list[Fraction]], list[int]]:
    """The linear system whose kernel is Hom(M, N) and whose cokernel is
    Ext^1(M, N): one unknown per entry of each phi_v: M_v -> N_v, labelled
    by its vertex v, and one equation per entry of N_a phi_i - phi_j M_a
    for each arrow a: i -> j."""
    index: dict[tuple[int, int, int], int] = {}
    labels = []
    for v in range(quiver.rank):
        for p in range(dn[v]):
            for q in range(dm[v]):
                index[v, p, q] = len(labels)
                labels.append(v)
    rows = []
    for i, j in ((a - 1, b - 1) for a, b in quiver.arrows):
        ma, na = rep_m[i, j], rep_n[i, j]
        for p in range(dn[j]):
            for q in range(dm[i]):
                row = [Fraction(0)] * len(labels)
                for t in range(dn[i]):
                    row[index[i, t, q]] += na[p][t]
                for t in range(dm[j]):
                    row[index[j, p, t]] -= ma[t][q]
                rows.append(row)
    return rows, labels


def _hom_ext(quiver, dm, rep_m, dn, rep_n) -> tuple[int, int]:
    rows, labels = _hom_equations(quiver, dm, rep_m, dn, rep_n)
    rank = len(rows and rref(rows)[1])
    return len(labels) - rank, len(rows) - rank


def _system(rs: RootSystemData, rm: int, rn: int):
    dm, dn = rs.positive_roots[rm], rs.positive_roots[rn]
    return (rs.quiver, dm, representation(rs.quiver, dm),
            dn, representation(rs.quiver, dn))


def module_hom_ext_oracle(rs: RootSystemData, rm: int, rn: int) -> tuple[int, int]:
    """(dim Hom(M, N), dim Ext^1(M, N)) from explicit representations."""
    return _hom_ext(*_system(rs, rm, rn))


def derived_hom_oracle(rs: RootSystemData, x: DObj, y: DObj) -> int:
    """dim Hom_D(x, y) for stalk complexes, from the module-level oracle."""
    gap = y.degree - x.degree
    if gap == 0:
        return module_hom_ext_oracle(rs, x.root, y.root)[0]
    if gap == 1:
        return module_hom_ext_oracle(rs, x.root, y.root)[1]
    return 0


def hom_basis(rs: RootSystemData, rm: int, rn: int) -> tuple[list[int], list[list[Fraction]]]:
    """The vertex of each unknown plus a basis of Hom(M, N) in those
    coordinates."""
    rows, labels = _hom_equations(*_system(rs, rm, rn))
    return labels, nullspace(rows, len(labels))


# ---------------------------------------------------------------------------
# The Hom table by Serre duality, and pairwise compatibility.
# ---------------------------------------------------------------------------

def serre_hom_table(rs: RootSystemData) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Both Hom arrays of rs.hom_table, by the Serre-duality recursion

        Hom(X, Y) = Hom(Y, tau(X)[1])         (X with non-projective module)
        Hom(P_i[a], N[b]) = dim N at vertex i if a == b, else 0

    which terminates because tau walks every module to a projective in at
    most h steps.  tau is read off the Coxeter matrix."""
    roots = rs.positive_roots
    vertex = {rs.root_of(p): i for i, p in enumerate(rs.proj_dims)}
    tau = [None if r in vertex else rs.root_of(coxeter_transform(rs, d))
           for r, d in enumerate(roots)]

    @cache
    def hom(rx: int, ry: int, gap: int) -> int:
        if rx in vertex:
            return roots[ry][vertex[rx]] if gap == 0 else 0
        return hom(ry, tau[rx], 1 - gap)

    index = range(len(roots))
    return tuple(tuple(tuple(hom(rx, ry, gap) for ry in index) for rx in index)
                 for gap in (0, 1))


def silting_compatible(a: DObj, b: DObj) -> bool:
    """No Ext^i, i >= 1, between a and b in either direction."""
    return all(i <= 0 for i, _ in nonzero_exts(a, b) + nonzero_exts(b, a))


def config_compatible(a: DObj, b: DObj) -> bool:
    """For a != b, no Ext^i, i <= 0, between them in either direction; for
    a == b, no negative self-extension."""
    if a == b:
        return all(i >= 0 for i, _ in nonzero_exts(a, a))
    return all(i >= 1 for i, _ in nonzero_exts(a, b) + nonzero_exts(b, a))


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
# Periodic configurations by bounded F-powers.
# ---------------------------------------------------------------------------

def _degree_span(objs) -> int:
    degrees = [x.degree for x in objs]
    return max(degrees) - min(degrees)


def same_f_orbit(a: DObj, b: DObj, reach: int) -> bool:
    return any(f_power(a, k) == b for k in range(-reach, reach + 1))


def make_periodic(seeds: DCollection) -> PeriodicConfig:
    objs = seeds.sorted()
    reach = _degree_span(objs) + 2
    for i, a in enumerate(objs):
        for b in objs[i + 1:]:
            if same_f_orbit(a, b, reach):
                raise ValueError(f"seeds {a!r} and {b!r} lie in one F-orbit")
    return PeriodicConfig(seeds)


def is_combinatorial_configuration(p: PeriodicConfig, probe_window: WindowSpec) -> bool:
    seeds = p.seeds.sorted()
    if not seeds:
        raise ValueError("empty seed set")
    span = _degree_span(seeds)
    for a in seeds:
        for b in seeds:
            for k in range(-(span + 2), span + 3):
                if a == b and k == 0:
                    continue
                if hom_dim(a, f_power(b, k)) != 0:
                    return False
    for z in window_objects(p.seeds.rs, probe_window):
        gap = max(abs(a.degree - z.degree) for a in seeds) + 2
        if not any(hom_dim(f_power(a, k), z) != 0
                   for a in seeds for k in range(-gap, gap + 1)):
            return False
    return True


def riedtmann_to_config(p: PeriodicConfig) -> DCollection:
    if not is_combinatorial_configuration(p, WindowSpec(-1, 2)):
        raise ValueError("not a combinatorial configuration")
    window = WindowSpec(0, 1, minus_projectives=True)
    members = set()
    for seed in p.seeds.sorted():
        reach = abs(seed.degree) + 3
        for k in range(-reach, reach + 1):
            x = f_power(seed, k)
            if window.contains(x):
                members.add(x)
    result = collection(members)
    if not is_hom_leq0_config(result):
        raise MutationError(
            "minus-window part of a periodic configuration must be a configuration"
        )
    return result


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


def seeded_quiver(family: str, rank: int, seed: int) -> QuiverDescriptor:
    """A random admissible orientation of the Dynkin diagram: each edge of
    the standard orientation flipped at random, the vertices renumbered
    along a random topological order."""
    rng = random.Random(seed)
    edges = [e if rng.random() < 0.5 else e[::-1]
             for e in QuiverDescriptor.standard(family, rank).arrows]
    label: dict[int, int] = {}
    pending = set(range(1, rank + 1))
    while pending:
        ready = sorted(v for v in pending
                       if all(a in label for a, b in edges if b == v))
        v = ready[rng.randrange(len(ready))]
        label[v] = len(label) + 1
        pending.remove(v)
    return QuiverDescriptor(family, rank,
                            tuple(sorted((label[a], label[b]) for a, b in edges)))
