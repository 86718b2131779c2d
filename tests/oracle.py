"""Independent oracles used only by the test suite.

Hom and Ext^1 are computed from explicit matrix representations by exact
linear algebra over the rationals, the library's Hom table is compared with
the Serre-duality recursion it once used, the enumeration graph with the
pairwise Ext predicates it once called, and its clique search with the
plain depth-first search.  The perpendicular-mask search for complete
exceptional sequences is compared with the search that tests each candidate
against each term of its prefix.  The Coxeter element and its inverse are
compared with products of reflection matrices, the Euler matrix with the
arrow counts of the quiver, the Euler pairing table with the product
R E R^T and its zero pattern with one dot product per pair of roots.
mu_rev and its inverse are compared with the dual exceptional sequence,
read off the inverse Gram matrix of the Euler form.  The positive roots
are compared with the closure of the simples under all simple
reflections.  Reflection length
comes from breadth-first search in the Cayley graph and from the fixed space
of an element, the interval [1, c] and its wide masks from a descent that
tests each root against the fixed space, the m-noncrossing partitions from
a scan of [1, c] below each part, phi^-1 from matrix products along the
exceptional order of each degree, the reflection product of a sequence of
objects from reflection matrices, the left and right perpendicular masks
from the Hom-table columns and rows, a wide subcategory from
the perpendicular of a completed exceptional sequence and its simples from a
subset-sum search over dimension vectors, and Fac-torsion membership from
checking that the joint image of all homomorphisms covers the target
(type A).  The periodic-configuration checks are the bounded
loops over F-powers f_power(x, k), |k| up to a degree reach, against which
the library's orbit walk is compared; they decide window membership object
by object, not from the library's window masks.  It also lists every admissible
numbering of a Dynkin diagram, the input of the orientation sweeps, as the
relabellings of the diagram, with no call to the library's quiver check.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, permutations
from operator import and_
from typing import Iterable

from exseq.derived import (
    DObj, WindowSpec, f_power, hom_dim, is_injective, is_projective, nonzero_exts,
)
from exseq.riedtmann import PeriodicConfig
from exseq.roots import (
    DimVector, IntMatrix, QuiverDescriptor, RootSystemData, mat_transpose, mat_vec,
)
from exseq.sequences import ExcSeq, MutationError, MutationSign, _bits, is_exceptional
from exseq.silting import (
    DCollection, collection, is_hom_leq0_config, is_m_config, order_config,
)
from exseq.weyl import (
    NCTuple, WeylElt, WeylGroup, mat_identity, mat_mul, reflection_matrix,
)


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
    tau = [None if r in vertex else rs.root_of(mat_vec(rs.coxeter_matrix, d))
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


def lex_cliques(count: int, neighbours: list[int], k: int) -> list[tuple[int, ...]]:
    """All k-cliques of the graph on vertices 0..count-1 whose neighbourhoods
    are the bitmasks `neighbours`, in lexicographic order: the plain
    bitmask depth-first search, one call per search node."""
    out: list[tuple[int, ...]] = []

    def grow(clique: tuple[int, ...], cands: int) -> None:
        need = k - len(clique)
        if need == 0:
            out.append(clique)
            return
        while cands.bit_count() >= need:
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            grow(clique + (v,), cands & neighbours[v])

    grow((), (1 << count) - 1)
    return out


# ---------------------------------------------------------------------------
# The Coxeter element and the Euler matrix, built the long way.
# ---------------------------------------------------------------------------

def coxeter_element(rs: RootSystemData, inverse: bool = False) -> WeylElt:
    """s_1 ... s_n, or s_n ... s_1 when inverse, as a product of the
    reflection matrices of the simple roots."""
    order = range(rs.n - 1, -1, -1) if inverse else range(rs.n)
    return reduce(mat_mul, (reflection_matrix(rs, i) for i in order),
                  mat_identity(rs.n))


def arrow_euler_matrix(rs: RootSystemData) -> IntMatrix:
    """The Euler matrix of a quiver from its arrows: <d, e> = sum d_i e_i
    minus the sum over arrows i -> j of d_i e_j."""
    n = rs.n
    mult = [[0] * n for _ in range(n)]
    for i, j in rs.quiver.arrows:
        mult[i - 1][j - 1] += 1
    return tuple(tuple((i == j) - mult[i][j] for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# Positive roots.
# ---------------------------------------------------------------------------

def close_roots_pm(rs: RootSystemData) -> tuple[tuple[int, ...], ...]:
    """The positive roots of rs's Cartan data, by closing the simples under
    every simple reflection, positive and negative roots alike, re-summing
    each pairing; the simples first, then the rest by (height, vector)."""
    n = rs.n
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        v = frontier.pop()
        for i in range(n):
            pairing = sum(rs.sym_matrix[i][j] * v[j] for j in range(n))
            coeff, rem = divmod(pairing, rs.symmetrizers[i])
            assert rem == 0, "non-crystallographic reflection coefficient"
            w = tuple(c - coeff * (j == i) for j, c in enumerate(v))
            if w not in roots:
                roots.add(w)
                frontier.append(w)
    rest = sorted((r for r in roots if min(r) >= 0 and r not in simples),
                  key=lambda r: (sum(r), r))
    return tuple(simples) + tuple(rest)


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

def cayley_abs_lengths(group: WeylGroup) -> dict[WeylElt, int]:
    """BFS distance from the identity over the full reflection generating
    set, keyed by matrix."""
    one = group.matrix(group.identity)
    reflections = [group.matrix(1 << r) for r in range(len(group.rs.positive_roots))]
    dist = {one: 0}
    frontier = [one]
    while frontier:
        nxt = []
        for w in frontier:
            for t in reflections:
                new = mat_mul(t, w)
                if new not in dist:
                    dist[new] = dist[w] + 1
                    nxt.append(new)
        frontier = nxt
    return dist


# ---------------------------------------------------------------------------
# The interval [1, c] by fixed spaces.
# ---------------------------------------------------------------------------

def null_space(m: IntMatrix) -> list[DimVector]:
    """A basis of the kernel {x : m x = 0} of an integer matrix, as integer
    vectors.  Bareiss fraction-free elimination reduces [m^T | I]; the rows
    whose m^T part becomes zero carry a kernel basis in their I part."""
    k, n = len(m), len(m[0])
    rows = [[m[i][j] for i in range(k)] + [int(i == j) for i in range(n)]
            for j in range(n)]
    rank, prev = 0, 1
    for col in range(k):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, n):
            # Exact: every entry is a minor of [m^T | I] (Bareiss).
            rows[r] = [(top[col] * x - rows[r][col] * y) // prev
                       for x, y in zip(rows[r], top)]
        rank, prev = rank + 1, top[col]
    return [tuple(row[k:]) for row in rows[rank:]]


def abs_length(rs: RootSystemData, w: IntMatrix) -> int:
    """The reflection length of w, computed exactly as n - dim ker(w - id)."""
    return rs.n - len(_fixed_space(w))


def _fixed_space(w: IntMatrix) -> list[DimVector]:
    """A basis of Fix(w) = ker(w - id)."""
    n = len(w)
    return null_space([[w[i][j] - (i == j) for j in range(n)] for i in range(n)])


def fixed_space_interval(rs: RootSystemData) -> dict[IntMatrix, tuple[int, int]]:
    """[1, c] as {u: (absolute length, wide mask)}, by descent from c: t.u
    lies below u exactly when the root of t is orthogonal to Fix(u) (Bessis;
    Brady-Watt), and the roots that pass form the mask of u."""
    reflections = [reflection_matrix(rs, r) for r in range(len(rs.positive_roots))]
    c = coxeter_element(rs)
    lengths = {c: rs.n}
    interval = {}
    level = [c]
    while level:
        below = []
        for u in level:
            normals = [mat_vec(rs.sym_matrix, f) for f in _fixed_space(u)]
            mask = 0
            for r, alpha in enumerate(rs.positive_roots):
                if any(sum(a * g for a, g in zip(alpha, normal))
                       for normal in normals):
                    continue
                mask |= 1 << r
                tu = mat_mul(reflections[r], u)
                if tu not in lengths:
                    lengths[tu] = lengths[u] - 1
                    below.append(tu)
            interval[u] = (lengths[u], mask)
        level = below
    return interval


# ---------------------------------------------------------------------------
# Noncrossing partitions by scanning [1, c], phi^-1 by matrix products.
# ---------------------------------------------------------------------------

def enumerate_m_nc_scan(group: WeylGroup, m: int) -> list[NCTuple]:
    """All (m+1)-tuples multiplying to the Coxeter element with additive
    reflection lengths, in ascending order of their matrices.  m = 0 gives
    the singleton (c,)."""
    if m < 0:
        raise ValueError("m must be non-negative")
    out: list[NCTuple] = []
    # Per u, the mask of the perpendicular category of all of W(u).
    entries = [(u, reduce(and_, map(group._perp.__getitem__, _bits(u)), group.coxeter))
               for u in group.elements]

    def split(v: int, parts: int, prefix: NCTuple) -> None:
        if parts == 1:
            out.append(prefix + (v,))
            return
        for u, u_perp in entries:
            # u <= v exactly when W(u) lies in W(v), and then the T-reduced
            # cofactor u^-1 v has W(u^-1 v) = W(v) & the perpendicular of W(u).
            if not u & ~v:
                split(v & u_perp, parts - 1, prefix + (u,))

    split(group.coxeter, m + 1, ())
    out.sort(key=lambda parts: list(map(group.matrix, parts)))
    return out


def sequence_reflection_product(seq: Iterable[DObj]) -> WeylElt:
    """The product of the reflections along the classes of a sequence of
    objects, in order, as matrices; the degrees play no part."""
    items = tuple(seq)
    if not items:
        raise ValueError("empty sequence has no reflection product")
    return reduce(mat_mul, (reflection_matrix(x.rs, x.root) for x in items),
                  mat_identity(items[0].rs.n))


@cache
def _word_product(group: WeylGroup, word: tuple[int, ...]) -> WeylElt:
    """The product of the reflections along a word of root indices."""
    return reduce(mat_mul, (group.matrix(1 << r) for r in word),
                  mat_identity(group.rs.n))


def phi_inverse_matrix(group: WeylGroup, col: DCollection, m: int) -> NCTuple:
    """Send an m-configuration to its m-noncrossing partition: chunk the
    configuration by degree (degree d contributes part m+1-d) and multiply
    the reflections of each chunk in exceptional order.  Each product must
    be an element of [1, c] of length the chunk size, and the products must
    multiply to c with lengths adding to the rank.  Returns their masks."""
    if not is_m_config(col, m):
        raise ValueError("input is not an m-configuration")
    rs, masks = group.rs, group._mask_of
    seq = order_config(col)
    products = []
    for i in range(1, m + 2):
        chunk = tuple(x.root for x in seq if x.degree == m + 1 - i)
        u = _word_product(group, chunk)
        if u not in masks or group.abs_length(masks[u]) != len(chunk):
            raise MutationError("chunk product is not T-reduced")
        products.append(u)
    if reduce(mat_mul, products) != group.matrix(group.coxeter) or len(seq) != rs.n:
        raise MutationError("chunk products are not a T-reduced factorization of c")
    return tuple(masks[u] for u in products)


# ---------------------------------------------------------------------------
# The Euler pairing and perpendicular masks, from the Hom table and from
# the Euler matrix.
# ---------------------------------------------------------------------------

def euler_pairing(rs: RootSystemData) -> IntMatrix:
    """<x, y> = x^T E y for every two positive roots, E = rs.euler_matrix:
    the product R E R^T, with the positive roots as the rows of R."""
    roots = rs.positive_roots
    return mat_mul(mat_mul(roots, rs.euler_matrix), mat_transpose(roots))


def euler_perp_masks(rs: RootSystemData) -> tuple[int, ...]:
    """Per root x, the mask of the roots y with <y, x> = 0, by one dot
    product of y with E x per pair."""
    roots = rs.positive_roots
    masks = []
    for x in roots:
        ex = mat_vec(rs.euler_matrix, x)
        masks.append(sum(1 << k for k, y in enumerate(roots)
                         if not sum(a * b for a, b in zip(y, ex))))
    return tuple(masks)


def hom_perp_masks(rs: RootSystemData) -> tuple[int, ...]:
    """Per root x, the mask of the roots z with Hom(M_z, M_x) = 0 and
    Ext^1(M_z, M_x) = 0, read from the Hom-table columns."""
    full = (1 << len(rs.positive_roots)) - 1
    _, _, hom_cols, ext_cols = rs.hom_masks
    return tuple(full & ~(h | e) for h, e in zip(hom_cols, ext_cols))


def hom_right_perp_masks(rs: RootSystemData) -> tuple[int, ...]:
    """Per root x, the mask of the roots z with Hom(M_x, M_z) = 0 and
    Ext^1(M_x, M_z) = 0, read from the Hom-table rows."""
    full = (1 << len(rs.positive_roots)) - 1
    hom_rows, ext_rows, _, _ = rs.hom_masks
    return tuple(full & ~(h | e) for h, e in zip(hom_rows, ext_rows))


# ---------------------------------------------------------------------------
# mu_rev in closed form: the dual exceptional sequence.
# ---------------------------------------------------------------------------

def _unitriangular_inverse(u: list[list[int]]) -> list[list[int]]:
    """The inverse of an upper unitriangular integer matrix, by back
    substitution; it is integral."""
    n = len(u)
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(n):
            v[i][j] -= sum(u[i][k] * v[k][j] for k in range(i + 1, n))
    return v


def dual_sequence(seq: ExcSeq, inverse: bool = False) -> ExcSeq:
    """mu_rev(seq), or mu_rev_inverse(seq) under inverse, as the dual
    exceptional sequence, from the Euler form and the classes alone.

    With G[i][k] = chi(E_i, E_k) = [E_i]^T E [E_k], upper unitriangular as
    seq = (E_1, ..., E_n) is exceptional, F = mu_rev(seq) is biorthogonal
    to it: chi(F_j, E_i) = 1 if i = n+1-j, else 0.  So [F_j] is row n+1-j
    of G^-1 applied to the classes.  The sign of the class fixes the parity
    of the degree, and Hom(F_j, E_{n+1-j}) is nonzero in degree 0, so the
    degree is deg E_{n+1-j} or one less.  The inverse is the mirror image:
    given F, [E_i] is column n+1-i of the inverse Gram matrix of F applied
    to its classes, in degree deg F_{n+1-i} or one more."""
    rs, n = seq[0].rs, len(seq)
    classes = [tuple((-1) ** x.degree * c for c in x.dim()) for x in seq]
    images = [mat_vec(rs.euler_matrix, v) for v in classes]
    gram = [[sum(a * b for a, b in zip(u, ev)) for ev in images] for u in classes]
    if any(gram[i][k] != (i == k) for i in range(n) for k in range(i + 1)):
        raise MutationError("Gram matrix is not upper unitriangular")
    inv = _unitriangular_inverse(gram)
    out = []
    for j in range(n):
        coeffs = [row[n - 1 - j] for row in inv] if inverse else inv[n - 1 - j]
        cls = tuple(sum(c * v[t] for c, v in zip(coeffs, classes))
                    for t in range(rs.n))
        odd = cls not in rs.root_index
        root = rs.root_index[tuple(-c for c in cls) if odd else cls]
        d = seq[n - 1 - j].degree
        out.append(DObj(rs, root, d if (d - odd) % 2 == 0
                        else d + (1 if inverse else -1)))
    return tuple(out)


def pair_signs(seq: ExcSeq) -> tuple[MutationSign, ...]:
    """The sign of each input pair (E_k, E_l), k < l, in the order mu_rev
    meets it: l = n, ..., 2, and for each l, k = l-1, ..., 1.  It is
    negative when Hom(E_k, E_l[p]) is nonzero for some p <= 0,
    non-negative when for some p >= 1, orthogonal when for none."""
    signs = []
    for l in range(len(seq) - 1, 0, -1):
        for k in range(l - 1, -1, -1):
            hits = nonzero_exts(seq[k], seq[l])
            signs.append(MutationSign.ORTHOGONAL if not hits
                         else MutationSign.NEGATIVE if hits[0][0] <= 0
                         else MutationSign.NONNEGATIVE)
    return tuple(signs)


# ---------------------------------------------------------------------------
# Complete sequences by pairwise search.
# ---------------------------------------------------------------------------

def complete_sequences_pairwise(rs: RootSystemData) -> list[ExcSeq]:
    """Every complete exceptional sequence of modules, by depth-first search
    over the roots in stored order, testing each candidate against each
    term of the prefix with nonzero_exts."""
    modules = [DObj(rs, root, 0) for root in range(len(rs.positive_roots))]

    def extend(seq: ExcSeq):
        if len(seq) == rs.n:
            yield seq
            return
        for cand in modules:
            if not any(nonzero_exts(cand, e) for e in seq):
                yield from extend(seq + (cand,))

    return list(extend(()))


# ---------------------------------------------------------------------------
# Wide subcategories by completion and perpendicular.
# ---------------------------------------------------------------------------

def complete_sequence(partial: Iterable[DObj]) -> ExcSeq:
    """Extend a module-level exceptional sequence to a complete one by
    appending, deterministically in the stored root order.

    Objects in nonzero degrees are first normalized to degree 0; existence
    of a completion is guaranteed, so failure raises MutationError.
    """
    seq = tuple(DObj(x.rs, x.root, 0) for x in partial)
    if seq and not is_exceptional(seq):
        raise ValueError("partial sequence is not exceptional")
    if seq and len(seq) > seq[0].rs.n:
        raise ValueError("sequence longer than the rank")
    if not seq:
        raise ValueError("cannot complete an empty sequence without a root system")
    rs = seq[0].rs
    result = _complete_from(rs, seq)
    if result is None:
        raise MutationError("no completion found; exceptional-sequence data corrupt")
    return result


def _complete_from(rs: RootSystemData, seq: ExcSeq) -> ExcSeq | None:
    if len(seq) == rs.n:
        return seq
    for root in range(len(rs.positive_roots)):
        cand = DObj(rs, root, 0)
        if not any(nonzero_exts(cand, e) for e in seq):
            found = _complete_from(rs, seq + (cand,))
            if found is not None:
                return found
    return None


def wide_subcategory(chunk: Iterable[DObj]) -> frozenset[DObj]:
    """The wide closure of an exceptional sequence of modules, computed as
    the perpendicular of the completion's appended part: all degree-0
    indecomposables Z with Hom(G, Z) = 0 = Ext^1(G, Z) for every appended G.
    The result does not depend on the completion."""
    seq = tuple(chunk)
    if not seq:
        raise ValueError("wide subcategory of an empty chunk needs a root system")
    rs = seq[0].rs
    if any(x.degree != 0 for x in seq):
        raise ValueError("wide subcategories are computed at degree 0")
    if not is_exceptional(seq):
        raise ValueError("chunk is not an exceptional sequence")
    appended = complete_sequence(seq)[len(seq):]
    out = []
    for root in range(len(rs.positive_roots)):
        z = DObj(rs, root, 0)
        if not any(nonzero_exts(g, z) for g in appended):
            out.append(z)
    return frozenset(out)


def simples_of_wide(objs: Iterable[DObj], expected_rank: int | None = None
                    ) -> frozenset[DObj]:
    """The simple objects of a wide subcategory, detected by dimension-vector
    additivity: simple iff the dimension vector is not a sum of two or more
    dimension vectors of members (repetition allowed)."""
    members = sorted(objs, key=lambda x: x.root)
    dims = [x.dim() for x in members]

    def decomposable(target: DimVector) -> bool:
        def search(v: DimVector, parts: int, start: int) -> bool:
            if all(c == 0 for c in v):
                return parts >= 2
            for k in range(start, len(dims)):
                d = dims[k]
                if all(a >= b for a, b in zip(v, d)):
                    if search(tuple(a - b for a, b in zip(v, d)), parts + 1, k):
                        return True
            return False

        return search(target, 0, 0)

    result = frozenset(x for x in members if not decomposable(x.dim()))
    if expected_rank is not None and len(result) != expected_rank:
        raise MutationError(
            f"wide subcategory has {len(result)} simples, expected {expected_rank}"
        )
    return result


# ---------------------------------------------------------------------------
# Periodic configurations by bounded F-powers.
# ---------------------------------------------------------------------------

def _degree_span(objs) -> int:
    degrees = [x.degree for x in objs]
    return max(degrees) - min(degrees)


def in_window(x: DObj, w: WindowSpec) -> bool:
    """Inside [lo, hi] and not a projective at lo under minus_projectives,
    or an injective at lo - 1 under plus_injectives."""
    if x.degree == w.lo - 1:
        return w.plus_injectives and is_injective(x)
    return (w.lo <= x.degree <= w.hi
            and not (w.minus_projectives and x.degree == w.lo and is_projective(x)))


def window_members(rs: RootSystemData, w: WindowSpec) -> list[DObj]:
    """The objects of degree lo - 1 .. hi that in_window admits."""
    grid = (DObj(rs, r, d) for d in range(w.lo - 1, w.hi + 1)
            for r in range(len(rs.positive_roots)))
    return [x for x in grid if in_window(x, w)]


def same_f_orbit(a: DObj, b: DObj, reach: int) -> bool:
    return any(f_power(a, k) == b for k in range(-reach, reach + 1))


def make_periodic(seeds: DCollection) -> PeriodicConfig:
    objs = seeds.objects
    reach = _degree_span(objs) + 2
    for i, a in enumerate(objs):
        for b in objs[i + 1:]:
            if same_f_orbit(a, b, reach):
                raise ValueError(f"seeds {a!r} and {b!r} lie in one F-orbit")
    return PeriodicConfig(seeds)


def is_combinatorial_configuration(p: PeriodicConfig, probe_window: WindowSpec) -> bool:
    seeds = p.seeds.objects
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
    for z in window_members(p.seeds.rs, probe_window):
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
    for seed in p.seeds.objects:
        reach = abs(seed.degree) + 3
        for k in range(-reach, reach + 1):
            x = f_power(seed, k)
            if in_window(x, window):
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

def orientations(family: str, rank: int) -> list[tuple[tuple[int, int], ...]]:
    """The arrow sets of every relabelling of the Dynkin diagram, each arrow
    from the smaller to the larger vertex, each set sorted, in lexicographic
    order.  The diagram is the path 1 - ... - (rank - 1) with vertex rank
    joined to rank - 1 (A), rank - 2 (D) or 3 (E); no quiver check is used."""
    fork = {"A": rank - 1, "D": rank - 2, "E": 3}[family]
    edges = [(i, i + 1) for i in range(1, rank - 1)]
    edges += [(fork, rank)] if rank > 1 else []
    found = set()
    for label in permutations(range(1, rank + 1)):
        arrows = (tuple(sorted((label[a - 1], label[b - 1]))) for a, b in edges)
        found.add(tuple(sorted(arrows)))
    return sorted(found)


def admissible_quivers(family: str, rank: int):
    """Every numbering of the Dynkin diagram with arrows from smaller to
    larger vertex."""
    for arrows in orientations(family, rank):
        yield QuiverDescriptor(family, rank, arrows)


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
